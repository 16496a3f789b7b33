open Wcp_trace
open Wcp_core

(* ------------------------------------------------------------------ *)
(* Minimal JSON                                                        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        (* %.17g round-trips any double through float_of_string. *)
        let s = Printf.sprintf "%.17g" f in
        Buffer.add_string buf s;
        (* Keep it a JSON number that re-parses as a float. *)
        if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
          Buffer.add_string buf ".0"
    | Str s ->
        Buffer.add_char buf '"';
        String.iter
          (fun c ->
            match c with
            | '"' -> Buffer.add_string buf "\\\""
            | '\\' -> Buffer.add_string buf "\\\\"
            | '\n' -> Buffer.add_string buf "\\n"
            | '\t' -> Buffer.add_string buf "\\t"
            | '\r' -> Buffer.add_string buf "\\r"
            | c when Char.code c < 0x20 ->
                Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
            | c -> Buffer.add_char buf c)
          s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf (Str k);
            Buffer.add_char buf ':';
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 4096 in
    emit buf t;
    Buffer.contents buf

  (* Recursive-descent parser, sufficient for the documents this module
     emits (and ordinary hand-edited baselines). *)
  let parse s =
    let len = String.length s in
    let pos = ref 0 in
    let error fmt =
      Printf.ksprintf (fun m ->
          raise (Parse_error (Printf.sprintf "at byte %d: %s" !pos m)))
        fmt
    in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < len
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < len && s.[!pos] = c then incr pos
      else error "expected %c" c
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= len && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else error "bad literal"
    in
    let number () =
      let start = !pos in
      let is_float = ref false in
      while
        !pos < len
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' -> true
        | '.' | 'e' | 'E' ->
            is_float := true;
            true
        | _ -> false
      do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      if !is_float then Float (float_of_string tok)
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> Float (float_of_string tok)
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then error "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= len then error "unterminated escape";
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
                 if !pos + 4 >= len then error "bad \\u escape";
                 let code =
                   int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
                 in
                 (* Only BMP code points below 0x80 are expected here. *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else error "non-ASCII \\u escape unsupported";
                 pos := !pos + 4
             | c -> error "bad escape \\%c" c);
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | None -> error "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> error "expected , or } in object"
            in
            members []
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let rec items acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  items (v :: acc)
              | Some ']' ->
                  incr pos;
                  List (List.rev (v :: acc))
              | _ -> error "expected , or ] in array"
            in
            items []
          end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
    in
    let v = value () in
    skip_ws ();
    if !pos <> len then error "trailing garbage";
    v

  let member name = function
    | Obj kvs -> (
        match List.assoc_opt name kvs with
        | Some v -> v
        | None -> raise (Parse_error ("missing field " ^ name)))
    | _ -> raise (Parse_error ("not an object looking up " ^ name))

  let to_int = function
    | Int i -> i
    | j -> raise (Parse_error ("expected int, got " ^ to_string j))

  let to_float = function
    | Float f -> f
    | Int i -> float_of_int i
    | j -> raise (Parse_error ("expected number, got " ^ to_string j))

  let to_str = function
    | Str s -> s
    | j -> raise (Parse_error ("expected string, got " ^ to_string j))

  let to_list = function
    | List l -> l
    | j -> raise (Parse_error ("expected array, got " ^ to_string j))
end

(* ------------------------------------------------------------------ *)
(* Jobs and metrics                                                    *)
(* ------------------------------------------------------------------ *)

type job = {
  experiment : string;  (* "E1".."E9", "E15".."E22" *)
  algo : string;
  n : int;
  m : int;  (* sends per process (adversary: its m parameter) *)
  p_pred : float;
  seed : int;
  param : int;
      (* groups (multi), spec width (E5), drop % (E9), domain count
         (E15, E18 parallel arm), delta flag 0/1 (E16), slice flag 0/1
         (E17), restart flag 0/1 (E19), btrace-streamed flag 0/1 (E21),
         sessions*1000 + domains*10 + mode with mode 0 binary / 1 jsonl
         / 2 slow-client (E22), else 0 *)
}

type metrics = {
  job : job;
  outcome : string;  (* "detected" | "none"; E17 appends the cut *)
  states : int;
  hops : int;
  polls : int;
  snapshots : int;
  merges : int;
  work : int;
  max_work : int;
  messages : int;
  bits : int;
  events : int;
  sim_time : float;
  (* Fault-recovery work; zero everywhere outside E9 and E19. *)
  retransmits : int;
  dups_suppressed : int;
  net_dropped : int;
  net_duplicated : int;
  (* Crash-recovery work (E19's restart arm, schema v7): frames
     replayed from the transport's retained history on the
     post-restart reconnect, and the sim time from the monitor's state
     restore to the run's verdict. Both deterministic; zero when no
     restore fired. *)
  replayed : int;
  recovery_latency : float;
  (* Trace-derived summaries (schema v3) from a second, traced run of
     the same job. Recording never touches the engine RNG or stats, so
     the traced run follows the identical schedule and these are as
     deterministic as [hops]; the timed run above stays untraced so
     [wall_ns]/[alloc_bytes] are unaffected. Zero for the adversary. *)
  trace_events : int;
  eliminations : int;
  hop_p50 : float;
  hop_p95 : float;
  hop_max : float;
  elims_per_hop_p50 : float;
  elims_per_hop_p95 : float;
  elims_per_hop_max : float;
  (* Slice shape (E17 sliced arm, schema v5): total states of the
     sliced computation the detector actually examined. Deterministic;
     zero for dense runs. *)
  slice_states : int;
  (* Parallel-checker round shape (E18, schema v6): barrier rounds,
     widest frontier (slots advanced in one round) and candidate
     comparisons. Deterministic and domain-count independent — the
     frozen-frontier rounds compute the same thresholds whatever the
     fan-out — so they sit with the replayable fields, not the timing
     block. Zero for every other detector. *)
  par_rounds : int;
  par_frontier : int;
  par_items : int;
  (* Span-tree summaries (schema v8), derived from the same traced run:
     per span-kind p50/p95 durations in sim time (token hops in flight,
     parallel-checker rounds, crash-recovery windows, retransmit
     bursts; see Wcp_obs.Span). Deterministic; zero for kinds the run
     never produced, for the adversary and for E15. *)
  span_token_p50 : float;
  span_token_p95 : float;
  span_round_p50 : float;
  span_round_p95 : float;
  span_recovery_p50 : float;
  span_recovery_p95 : float;
  span_retx_p50 : float;
  span_retx_p95 : float;
  (* Telemetry plane (schema v8): lines of the wcp-metrics/1 stream an
     attached telemetry tap emits for this run (replayed from the
     traced events with allocation sampling stripped). Deterministic.
     E20's param=1 rows additionally carry the plane INSIDE the timed
     run, so their wall_ns prices always-on telemetry. *)
  telemetry_lines : int;
  (* Trace-store shape (E21, schema v9): bytes of the on-disk trace the
     job detected from (text for param=0, btrace for param=1).
     Deterministic — both formats are byte-stable functions of the
     generated run. Zero outside E21. *)
  trace_bytes : int;
  (* Machine-dependent; excluded from determinism comparisons. *)
  decode_ns : int;
      (* E21 load step: text decode to the dense computation (param=0)
         or btrace open + streamed slice construction (param=1) *)
  peak_words : int;
      (* E21: live-heap words the load step left behind (Gc.live_words
         delta across it) — the bounded-memory evidence: the streamed
         arm's figure tracks the slice, not the trace length *)
  slice_ns : int;  (* slice-construction overhead (E17 sliced arm) *)
  (* Streaming-service throughput (E22, schema v10): aggregate ingest
     events/second across the row's sessions and per-session
     submit-to-result latency percentiles — all wall-derived, so
     machine-dependent like [wall_ns]. E22 reuses [peak_words] for the
     slow-client arm's sampled heap growth while serving. Zero outside
     E22. *)
  events_per_sec : float;
  lat_p50_ns : int;
  lat_p95_ns : int;
  wall_ns : int;
  alloc_bytes : int;
}

let spec_for job comp =
  match job.experiment with
  | "E4" | "E8" -> Spec.make comp [| 0; job.n / 2 |]
  | "E5" ->
      let rng = Wcp_util.Rng.create (Int64.of_int job.seed) in
      Spec.make comp (Generator.random_procs rng ~n:job.n ~width:job.param)
  | _ -> Spec.all comp

(* One simulation run of a job, optionally traced. A fresh fault plan
   is built per run (its PRNG stream is private mutable state). *)
let run_sim ?recorder job =
  let comp =
    Generator.random
      ~params:
        {
          Generator.n = job.n;
          sends_per_process = job.m;
          p_pred = job.p_pred;
          p_recv = 0.5;
        }
      ~seed:(Int64.of_int job.seed) ()
  in
  let spec = spec_for job comp in
  let seed = Int64.of_int job.seed in
  (* E9 runs under chaos: drop rate param%, duplication at half the
     drop rate, fault stream seeded by the job seed. *)
  let fault =
    if job.experiment = "E9" then
      Some
        (Wcp_sim.Fault.uniform ~seed
           ~drop:(float_of_int job.param /. 100.0)
           ~dup:(float_of_int job.param /. 200.0)
           ())
    else if job.experiment = "E19" && job.param <> 0 then
      (* E19 restart arm: the monitor of application process 0 (engine
         id n+0) crashes mid-protocol and comes back with its state
         restored from the last checkpoint (ckpt_every = 1, the detect
         default). param=0 is the fault-free reference; the spelled-out
         cut in [outcome] pins the two arms byte-identical. *)
      Some
        (Wcp_sim.Fault.make
           ~windows:
             [
               Wcp_sim.Fault.window ~kind:Wcp_sim.Fault.Restart ~proc:job.n
                 ~from_t:2.0 ~until_t:10.0 ();
             ]
           ())
    else None
  in
  (* E16 ablates the wire encoding: param=1 is the hybrid delta
     encoding (the default everywhere else), param=0 forces dense. The
     encoding changes no message counts and no RNG draws, so every
     field except [bits] is identical across the two arms. *)
  let delta = if job.experiment = "E16" then job.param <> 0 else true in
  (* E17 ablates computation slicing: param=1 detects on the slice
     (identical outcome, remapped cut), param=0 on the dense run. *)
  let slice = job.experiment = "E17" && job.param <> 0 in
  let options = Detection.options ~delta ~slice () in
  let r =
    match job.algo with
    | "token-vc" -> Token_vc.detect ?fault ?recorder ~options ~seed comp spec
    | "token-dd" -> Token_dd.detect ?fault ?recorder ~options ~seed comp spec
    | "token-dd-par" ->
        Token_dd.detect ?fault ?recorder ~parallel:true ~options ~seed comp
          spec
    | "token-multi" ->
        (* In E16/E17/E19 [param] is the delta/slice/restart flag, so
           the group count is pinned at 2 (the E3 sweet spot). *)
        let groups =
          if
            job.experiment = "E16" || job.experiment = "E17"
            || job.experiment = "E19"
          then 2
          else job.param
        in
        Token_multi.detect ?fault ?recorder ~options ~groups ~seed comp spec
    | "checker" ->
        Checker_centralized.detect ?recorder ~options ~seed comp spec
    | "parallel" ->
        (* E18: [param] is the domain count of the parallel checker
           itself (the detector's own fan-out, not the bench harness
           parallelism); param=0 falls back to WCP_DOMAINS. *)
        let domains = if job.param > 0 then Some job.param else None in
        Checker_parallel.detect ?recorder ?domains ~options ~seed comp spec
    | a -> invalid_arg ("Bench_json.run_job: unknown algo " ^ a)
  in
  (comp, r)

(* ------------------------------------------------------------------ *)
(* E15: multicore throughput                                           *)
(* ------------------------------------------------------------------ *)

(* One E15 job = a fixed batch of [e15_sessions] independent detection
   sessions (same workload shape, session seeds 1..k) pushed through
   [Parallel.map] with [job.param] domains. All deterministic fields
   are batch aggregates, so an E15 row is identical whatever domain
   count produced it; [outcome] is "ok" iff the per-session summaries
   are byte-identical to a sequential (1-domain) reference run of the
   same batch — the {!Wcp_util.Parallel} determinism contract, asserted
   on every bench run. Only [wall_ns] (from which sessions/sec derives)
   may vary with the domain count. *)
let e15_sessions = 24

type e15_session = {
  s_outcome : Detection.outcome;
  s_states : int;
  s_hops : int;
  s_snapshots : int;
  s_work : int;
  s_max_work : int;
  s_messages : int;
  s_bits : int;
  s_events : int;
  s_sim_time : float;
}

let run_e15 job =
  if job.param < 1 then
    invalid_arg "Bench_json: E15 param is the domain count (>= 1)";
  let session seed =
    let comp, r = run_sim { job with seed; param = 0 } in
    {
      s_outcome = r.Detection.outcome;
      s_states = Computation.total_states comp;
      s_hops = r.extras.Detection.token_hops;
      s_snapshots = r.extras.Detection.snapshots;
      s_work = Wcp_sim.Stats.total_work r.stats;
      s_max_work = Wcp_sim.Stats.max_work r.stats;
      s_messages = Wcp_sim.Stats.total_sent r.stats;
      s_bits = Wcp_sim.Stats.total_bits r.stats;
      s_events = r.events;
      s_sim_time = r.sim_time;
    }
  in
  let session_seeds = Array.init e15_sessions (fun i -> i + 1) in
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let batch = Wcp_util.Parallel.map ~domains:job.param session session_seeds in
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
  (* The reference run sits outside the timed window: sessions/sec is
     the parallel batch only. *)
  let reference = Wcp_util.Parallel.map ~domains:1 session session_seeds in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 batch in
  {
    job;
    outcome = (if batch = reference then "ok" else "mismatch");
    states = sum (fun s -> s.s_states);
    hops = sum (fun s -> s.s_hops);
    polls = 0;
    snapshots = sum (fun s -> s.s_snapshots);
    merges = 0;
    work = sum (fun s -> s.s_work);
    max_work = Array.fold_left (fun acc s -> max acc s.s_max_work) 0 batch;
    messages = sum (fun s -> s.s_messages);
    bits = sum (fun s -> s.s_bits);
    events = sum (fun s -> s.s_events);
    sim_time = Array.fold_left (fun acc s -> acc +. s.s_sim_time) 0.0 batch;
    retransmits = 0;
    dups_suppressed = 0;
    net_dropped = 0;
    net_duplicated = 0;
    replayed = 0;
    recovery_latency = 0.0;
    trace_events = 0;
    eliminations = 0;
    hop_p50 = 0.0;
    hop_p95 = 0.0;
    hop_max = 0.0;
    elims_per_hop_p50 = 0.0;
    elims_per_hop_p95 = 0.0;
    elims_per_hop_max = 0.0;
    slice_states = 0;
    par_rounds = 0;
    par_frontier = 0;
    par_items = 0;
    span_token_p50 = 0.0;
    span_token_p95 = 0.0;
    span_round_p50 = 0.0;
    span_round_p95 = 0.0;
    span_recovery_p50 = 0.0;
    span_recovery_p95 = 0.0;
    span_retx_p50 = 0.0;
    span_retx_p95 = 0.0;
    telemetry_lines = 0;
    trace_bytes = 0;
    decode_ns = 0;
    peak_words = 0;
    slice_ns = 0;
    events_per_sec = 0.0;
    lat_p50_ns = 0;
    lat_p95_ns = 0;
    wall_ns;
    alloc_bytes;
  }

(* ------------------------------------------------------------------ *)
(* E21: binary trace store, text/dense vs btrace/streamed              *)
(* ------------------------------------------------------------------ *)

(* param=0 writes the generated run as a text trace, decodes it back
   into the dense computation and detects on that; param=1 streams the
   identical run (same seed, same RNG draw sequence) into a btrace file
   and detects through the zero-copy cursor — the slice is built
   straight off the mmap, the dense computation never exists. Both arms
   spell the detected cut out in dense coordinates, pinning the
   streamed arm byte-identical to the dense arm. [decode_ns] times the
   load step (text decode vs btrace open + slice construction),
   [peak_words] is the live-heap delta that step left behind (the
   bounded-memory evidence: the streamed figure tracks the slice, not
   the trace length), [trace_bytes] the on-disk size. *)
let run_e21 job =
  let params =
    {
      Generator.n = job.n;
      sends_per_process = job.m;
      p_pred = job.p_pred;
      p_recv = 0.5;
    }
  in
  let seed = Int64.of_int job.seed in
  let streamed = job.param <> 0 in
  let path =
    Filename.temp_file "wcp_e21" (if streamed then ".btrace" else ".trace")
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      if streamed then ignore (Generator.random_btrace ~params ~seed path)
      else Trace_codec.write_file path (Generator.random ~params ~seed ());
      let trace_bytes = (Unix.stat path).Unix.st_size in
      let procs = Array.init job.n Fun.id in
      let keep_rest = job.algo = "token-dd" in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let live0 = live_words () in
      let t0 = Unix.gettimeofday () in
      (* The load step: everything between the bytes on disk and a
         computation a detector accepts. *)
      let comp, remap =
        if streamed then begin
          let sl =
            Wcp_slice.Slice.for_spec_source ~keep_rest
              (Btrace.source (Btrace.openfile path))
              ~procs
          in
          (Wcp_slice.Slice.computation sl, Wcp_slice.Slice.remap_cut sl)
        end
        else (Trace_codec.read_file path, Fun.id)
      in
      let decode_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
      let peak_words = max 0 (live_words () - live0) in
      let spec = Spec.make comp procs in
      let options = Detection.options () in
      Gc.minor ();
      let alloc0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      let r =
        match job.algo with
        | "token-vc" -> Token_vc.detect ~options ~seed comp spec
        | "token-dd" -> Token_dd.detect ~options ~seed comp spec
        | "checker" -> Checker_centralized.detect ~options ~seed comp spec
        | a -> invalid_arg ("Bench_json.run_e21: unsupported algo " ^ a)
      in
      (* E21's wall covers the whole pipeline, load included: the load
         step IS what this experiment benchmarks, and the detect-only
         slice of the big row is small enough that scheduler jitter
         would trip the 20% gate on it alone. *)
      let wall_ns =
        decode_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
      in
      let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
      let outcome =
        match Detection.remap_outcome remap r.Detection.outcome with
        | Detection.Detected cut ->
            Format.asprintf "detected %a" Cut.pp cut
        | Detection.No_detection -> "none"
        | Detection.Undetectable_crashed _ -> "undetectable"
      in
      {
        job;
        outcome;
        (* Dense states of the recorded run, whichever arm: each of the
           n processes has events + 1 states. *)
        states = job.n + (job.n * 2 * job.m);
        hops = r.extras.Detection.token_hops;
        polls = r.extras.Detection.polls;
        snapshots = r.extras.Detection.snapshots;
        merges = r.extras.Detection.merges;
        work = Wcp_sim.Stats.total_work r.stats;
        max_work = Wcp_sim.Stats.max_work r.stats;
        messages = Wcp_sim.Stats.total_sent r.stats;
        bits = Wcp_sim.Stats.total_bits r.stats;
        events = r.events;
        sim_time = r.sim_time;
        retransmits = 0;
        dups_suppressed = 0;
        net_dropped = 0;
        net_duplicated = 0;
        replayed = 0;
        recovery_latency = 0.0;
        trace_events = 0;
        eliminations = 0;
        hop_p50 = 0.0;
        hop_p95 = 0.0;
        hop_max = 0.0;
        elims_per_hop_p50 = 0.0;
        elims_per_hop_p95 = 0.0;
        elims_per_hop_max = 0.0;
        slice_states = (if streamed then Computation.total_states comp else 0);
        par_rounds = 0;
        par_frontier = 0;
        par_items = 0;
        span_token_p50 = 0.0;
        span_token_p95 = 0.0;
        span_round_p50 = 0.0;
        span_round_p95 = 0.0;
        span_recovery_p50 = 0.0;
        span_recovery_p95 = 0.0;
        span_retx_p50 = 0.0;
        span_retx_p95 = 0.0;
        telemetry_lines = 0;
        trace_bytes;
        decode_ns;
        peak_words;
        slice_ns = 0;
        events_per_sec = 0.0;
        lat_p50_ns = 0;
        lat_p95_ns = 0;
        wall_ns;
        alloc_bytes;
      })

(* ------------------------------------------------------------------ *)
(* E22: streaming detection service over a loopback socket             *)
(* ------------------------------------------------------------------ *)

(* param = sessions*1000 + domains*10 + mode; mode 0 streams wcp-frame/1
   binary frames, 1 the JSONL encoding, 2 the slow-client arm (binary
   frames into a deliberately tiny ring behind a slowed worker — the
   shed-to-disk regime, with the heap extent sampled while serving).

   One real [Wcp_serve.Server] runs in-process on a unix socket in a
   temp dir; [sessions] concurrent [Wcp_serve.Client] feeders each
   stream the SAME generated computation (same seed), so every served
   result must agree — with each other and with the offline streamed
   reference ([Run_common.with_source] with the algorithm's offline
   detector). [outcome] spells the common served cut,
   or a "mismatch" marker; messages/bits/hops/events are summed across
   sessions and deterministic. events_per_sec (aggregate ingest over
   the whole serve window) and the per-session submit-to-result latency
   percentiles are wall-derived, machine-dependent, and excluded from
   baseline comparisons — the absolute throughput gate lives in
   bench/main.ml's perf-check. *)
let e22_ingest_events job =
  (* ops per generated process: m sends + m receives *)
  2 * job.n * job.m

let run_e22 job =
  let sessions = job.param / 1000 in
  let domains = job.param / 10 mod 100 in
  let mode = job.param mod 10 in
  if sessions < 1 || domains < 1 || mode > 2 then
    invalid_arg ("Bench_json.run_e22: bad param " ^ string_of_int job.param);
  let frames =
    if mode = 1 then Wcp_serve.Protocol.Jsonl else Wcp_serve.Protocol.Binary
  in
  let slow = mode = 2 in
  let params =
    {
      Generator.n = job.n;
      sends_per_process = job.m;
      p_pred = job.p_pred;
      p_recv = 0.5;
    }
  in
  let seed = Int64.of_int job.seed in
  let comp = Generator.random ~params ~seed () in
  let procs = Array.init job.n Fun.id in
  let offline =
    let keep_rest = job.algo = "token-dd" in
    let options = Detection.default_options in
    let r =
      Run_common.with_source ~keep_rest
        (Computation.Stream.of_computation comp)
        ~procs
        ~run:(fun sliced spec ->
          match job.algo with
          | "token-vc" -> Token_vc.detect ~options ~seed sliced spec
          | "token-dd" -> Token_dd.detect ~options ~seed sliced spec
          | "checker" -> Checker_centralized.detect ~options ~seed sliced spec
          | a -> invalid_arg ("Bench_json.run_e22: unsupported algo " ^ a))
    in
    Format.asprintf "%a" Detection.pp_outcome r.Detection.outcome
  in
  let dir = Filename.temp_file "wcp_e22" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let addr = Wcp_serve.Protocol.Unix_sock (Filename.concat dir "sock") in
      let cfg =
        {
          (Wcp_serve.Server.default_config ~addr) with
          Wcp_serve.Server.domains = Some domains;
          spool_dir = dir;
          max_sessions = sessions;
          ring = (if slow then 512 else 4096);
          drain_delay = (if slow then 0.0005 else 0.);
          log = ignore;
        }
      in
      (* Main domain hosts the feeder threads and the server's conn
         threads; give it the same nursery the shard workers get, and
         start from a compacted heap so the hundreds of jobs that ran
         before this one in the same process don't tax the timed
         window with their fragmentation. *)
      Wcp_serve.Server.tune_gc cfg.Wcp_serve.Server.gc_minor_words;
      Gc.compact ();
      let srv = Wcp_serve.Server.create cfg in
      let sth = Thread.create Wcp_serve.Server.run srv in
      (* Slow arm: sample major-heap extent while serving. Gc.compact
         first so the baseline is the live set, not whatever earlier
         jobs grew the heap to. *)
      let sampling = ref slow in
      let peak = ref 0 in
      let base =
        if slow then begin
          Gc.compact ();
          (Gc.quick_stat ()).Gc.heap_words
        end
        else 0
      in
      let sampler =
        if slow then
          Some
            (Thread.create
               (fun () ->
                 while !sampling do
                   let h = (Gc.quick_stat ()).Gc.heap_words in
                   if h > !peak then peak := h;
                   Thread.delay 0.002
                 done)
               ())
        else None
      in
      let src = Computation.Stream.of_computation comp in
      let results = Array.make sessions (Result.Error "unset") in
      let lats = Array.make sessions 0 in
      let t0 = Unix.gettimeofday () in
      let feeders =
        Array.init sessions (fun i ->
            Thread.create
              (fun () ->
                let s0 = Unix.gettimeofday () in
                results.(i) <-
                  Wcp_serve.Client.run_session ~frames ~retry:5. ~addr
                    ~session:(Printf.sprintf "e22-%d" i)
                    ~algo:job.algo ~procs ~seed src;
                lats.(i) <-
                  int_of_float ((Unix.gettimeofday () -. s0) *. 1e9))
              ())
      in
      Array.iter Thread.join feeders;
      let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
      Wcp_serve.Server.stop srv;
      Thread.join sth;
      sampling := false;
      Option.iter Thread.join sampler;
      let peak_words = if slow then max 0 (!peak - base) else 0 in
      let ok = ref 0 in
      let served = ref "" in
      let agree = ref true in
      let msgs = ref 0 and bits = ref 0 and hops = ref 0 and events = ref 0 in
      Array.iter
        (function
          | Result.Ok (Wcp_serve.Client.Completed o) ->
              incr ok;
              if !served = "" then served := o.Wcp_serve.Client.outcome
              else if o.Wcp_serve.Client.outcome <> !served then agree := false;
              msgs := !msgs + o.Wcp_serve.Client.msgs;
              bits := !bits + o.Wcp_serve.Client.bits;
              hops := !hops + o.Wcp_serve.Client.hops;
              events := !events + o.Wcp_serve.Client.events
          | Result.Ok (Wcp_serve.Client.Killed _) -> agree := false
          | Result.Error _ -> agree := false)
        results;
      let outcome =
        if !ok = sessions && !agree && !served = offline then !served
        else
          Printf.sprintf "mismatch (%d/%d completed, served %S, offline %S)"
            !ok sessions !served offline
      in
      let ingested = sessions * e22_ingest_events job in
      let events_per_sec =
        if wall_ns > 0 then float_of_int ingested /. (float_of_int wall_ns /. 1e9)
        else 0.0
      in
      let pct q =
        let s = Array.copy lats in
        Array.sort compare s;
        s.(min (sessions - 1) (int_of_float (q *. float_of_int (sessions - 1) +. 0.5)))
      in
      {
        job;
        outcome;
        states = job.n + (job.n * 2 * job.m);
        hops = !hops;
        polls = 0;
        snapshots = 0;
        merges = 0;
        work = 0;
        max_work = 0;
        messages = !msgs;
        bits = !bits;
        events = !events;
        sim_time = 0.0;
        retransmits = 0;
        dups_suppressed = 0;
        net_dropped = 0;
        net_duplicated = 0;
        replayed = 0;
        recovery_latency = 0.0;
        trace_events = 0;
        eliminations = 0;
        hop_p50 = 0.0;
        hop_p95 = 0.0;
        hop_max = 0.0;
        elims_per_hop_p50 = 0.0;
        elims_per_hop_p95 = 0.0;
        elims_per_hop_max = 0.0;
        slice_states = 0;
        par_rounds = 0;
        par_frontier = 0;
        par_items = 0;
        span_token_p50 = 0.0;
        span_token_p95 = 0.0;
        span_round_p50 = 0.0;
        span_round_p95 = 0.0;
        span_recovery_p50 = 0.0;
        span_recovery_p95 = 0.0;
        span_retx_p50 = 0.0;
        span_retx_p95 = 0.0;
        telemetry_lines = 0;
        trace_bytes = 0;
        decode_ns = 0;
        peak_words;
        slice_ns = 0;
        events_per_sec;
        lat_p50_ns = pct 0.50;
        lat_p95_ns = pct 0.95;
        wall_ns;
        alloc_bytes = 0;
      })

(* One detection run with the full streaming telemetry plane attached:
   a capacity-1 ring whose tap feeds a live [Wcp_obs.Telemetry]. Returns
   the run and the wcp-metrics/1 stream it emitted. *)
let run_attached job =
  let buf = Buffer.create 4096 in
  let tel =
    Wcp_obs.Telemetry.create
      ~sink:(fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      ()
  in
  let ring = Wcp_obs.Recorder.create ~capacity:1 () in
  Wcp_obs.Telemetry.attach tel ring;
  let cr = run_sim ~recorder:ring job in
  Wcp_obs.Telemetry.close tel;
  (cr, Buffer.contents buf)

(* Structural stream equality modulo allocation samples: two in-process
   runs may legally differ in per-phase alloc_bytes (domain warm-up
   effects), so the determinism check zeroes them. Cross-process byte
   identity — allocation included — is the CLI sweep's job
   (`make telemetry-check`). *)
let stream_deterministic a b =
  let norm s =
    match Wcp_obs.Telemetry.decode s with
    | Result.Error _ -> None
    | Result.Ok ls ->
        Some
          (List.map
             (function
               | Wcp_obs.Telemetry.Phase p ->
                   Wcp_obs.Telemetry.Phase
                     { p with Wcp_obs.Telemetry.alloc_bytes = 0 }
               | l -> l)
             ls)
  in
  let na = norm a in
  na <> None && na = norm b

let run_job job =
  if job.experiment = "E15" then run_e15 job
  else if job.experiment = "E21" then run_e21 job
  else if job.experiment = "E22" then run_e22 job
  else begin
  (* E20 telemetry arm (param=1): the timed run carries the always-on
     streaming plane, so wall_ns prices it against the bare param=0
     reference row. *)
  let telemetry_on = job.experiment = "E20" && job.param <> 0 in
  let timed_stream = ref "" in
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let result =
    if telemetry_on then begin
      let cr, stream = run_attached job in
      timed_stream := stream;
      `Sim cr
    end
    else if job.algo = "adversary" then begin
      (* E6: the §5 lower-bound game is deterministic and has no
         simulation behind it; map its two counters into the shared
         record shape. *)
      let world, _ = Wcp_lowerbound.Adversary.make ~n:job.n ~m:job.m in
      let answer, trace = Wcp_lowerbound.Detector.run world in
      let outcome =
        match answer with
        | Wcp_lowerbound.Detector.No_antichain -> "none"
        | _ -> "detected"
      in
      `Adversary
        ( outcome,
          trace.Wcp_lowerbound.Detector.deletions,
          trace.Wcp_lowerbound.Detector.rounds )
    end
    else `Sim (run_sim job)
  in
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
  match result with
  | `Adversary (outcome, deletions, rounds) ->
      {
        job;
        outcome;
        states = 0;
        hops = 0;
        polls = 0;
        snapshots = 0;
        merges = 0;
        work = deletions;
        max_work = deletions;
        messages = 0;
        bits = 0;
        events = rounds;
        sim_time = 0.0;
        retransmits = 0;
        dups_suppressed = 0;
        net_dropped = 0;
        net_duplicated = 0;
        replayed = 0;
        recovery_latency = 0.0;
        trace_events = 0;
        eliminations = 0;
        hop_p50 = 0.0;
        hop_p95 = 0.0;
        hop_max = 0.0;
        elims_per_hop_p50 = 0.0;
        elims_per_hop_p95 = 0.0;
        elims_per_hop_max = 0.0;
        slice_states = 0;
        par_rounds = 0;
        par_frontier = 0;
        par_items = 0;
        span_token_p50 = 0.0;
        span_token_p95 = 0.0;
        span_round_p50 = 0.0;
        span_round_p95 = 0.0;
        span_recovery_p50 = 0.0;
        span_recovery_p95 = 0.0;
        span_retx_p50 = 0.0;
        span_retx_p95 = 0.0;
        telemetry_lines = 0;
        trace_bytes = 0;
        decode_ns = 0;
        peak_words = 0;
        slice_ns = 0;
        events_per_sec = 0.0;
        lat_p50_ns = 0;
        lat_p95_ns = 0;
        wall_ns;
        alloc_bytes;
      }
  | `Sim (comp, r) ->
      (* Second, traced run outside the timed window: same seed, same
         schedule (recording is invisible to the engine), feeding the
         histogram summaries. *)
      let recorder = Wcp_obs.Recorder.create () in
      let _ = run_sim ~recorder job in
      let events = Wcp_obs.Recorder.events recorder in
      let _, s = Wcp_obs.Metrics.of_events events in
      let q h p = Wcp_obs.Metrics.quantile h p in
      (* Span-tree and telemetry summaries (schema v8), also from the
         traced run; the telemetry replay strips allocation sampling so
         the line count is a pure function of the events. *)
      let spans = Wcp_obs.Span.of_events events in
      let spq kind p =
        Wcp_obs.Span.percentile (Wcp_obs.Span.durations kind spans) p
      in
      let telemetry_lines =
        let tel =
          Wcp_obs.Telemetry.create
            ~alloc:(fun () -> 0.)
            ~sink:(fun (_ : string) -> ())
            ()
        in
        Array.iter (fun e -> Wcp_obs.Telemetry.feed tel e) events;
        Wcp_obs.Telemetry.close tel;
        Wcp_obs.Telemetry.lines tel
      in
      (* E20 determinism contract: a second attached run reproduces the
         timed run's stream (alloc samples aside). A mismatch poisons
         [outcome] so the baseline comparison fails loudly. *)
      let telemetry_ok =
        (not telemetry_on)
        ||
        let _, stream2 = run_attached job in
        stream_deterministic !timed_stream stream2
      in
      (* E17 sliced arm: rebuild the slice outside the timed window to
         report its shape and isolated construction cost (the timed run
         above already paid construction inside [detect], so wall_ns
         compares end-to-end dense vs sliced). *)
      let slice_states, slice_ns =
        if job.experiment = "E17" && job.param <> 0 then begin
          let spec = spec_for job comp in
          let keep_rest =
            job.algo = "token-dd" || job.algo = "token-dd-par"
          in
          let t0 = Unix.gettimeofday () in
          let sl =
            Wcp_slice.Slice.for_spec ~keep_rest comp
              ~procs:(Spec.procs spec)
          in
          let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
          (Computation.total_states (Wcp_slice.Slice.computation sl), ns)
        end
        else (0, 0)
      in
      (* E19 restart arm: recovery latency is the simulation time from
         the restarted monitor's state restore (the Restored trace
         event) to the end of the run — how long the healed protocol
         needed to reach its verdict after the crash. *)
      let recovery_latency =
        let restore_t =
          Array.fold_left
            (fun acc (e : Wcp_obs.Event.t) ->
              match e.body with
              | Wcp_obs.Event.Restored _ -> Float.max acc e.time
              | _ -> acc)
            Float.neg_infinity
            (Wcp_obs.Recorder.events recorder)
        in
        if restore_t = Float.neg_infinity then 0.0
        else r.sim_time -. restore_t
      in
      {
        job;
        outcome =
          (if not telemetry_ok then "telemetry-mismatch"
           else
             match r.Detection.outcome with
             | Detection.Detected cut ->
                 (* E17, E18, E19 and E20 spell the cut out (in dense
                    coordinates): E17 pins the sliced arm to the dense
                    arm's exact cut, E18 pins every domain count to the
                    centralized checker's cut, E19 pins the
                    crash-recovery arm to the fault-free reference's
                    cut, and E20 pins the telemetry-attached arm to the
                    bare reference's cut — not just to "detected". *)
                 if
                   job.experiment = "E17" || job.experiment = "E18"
                   || job.experiment = "E19" || job.experiment = "E20"
                 then Format.asprintf "detected %a" Cut.pp cut
                 else "detected"
             | Detection.No_detection -> "none"
             | Detection.Undetectable_crashed _ -> "undetectable");
        states = Computation.total_states comp;
        hops = r.extras.Detection.token_hops;
        polls = r.extras.Detection.polls;
        snapshots = r.extras.Detection.snapshots;
        merges = r.extras.Detection.merges;
        work = Wcp_sim.Stats.total_work r.stats;
        max_work = Wcp_sim.Stats.max_work r.stats;
        messages = Wcp_sim.Stats.total_sent r.stats;
        bits = Wcp_sim.Stats.total_bits r.stats;
        events = r.events;
        sim_time = r.sim_time;
        retransmits = Wcp_sim.Stats.total_retransmits r.stats;
        dups_suppressed = Wcp_sim.Stats.total_dups_suppressed r.stats;
        net_dropped = Wcp_sim.Stats.net_dropped r.stats;
        net_duplicated = Wcp_sim.Stats.net_duplicated r.stats;
        replayed = Wcp_sim.Stats.replayed r.stats;
        recovery_latency;
        trace_events = Wcp_obs.Recorder.emitted recorder;
        eliminations = Wcp_obs.Metrics.count s.Wcp_obs.Metrics.eliminations;
        hop_p50 = q s.Wcp_obs.Metrics.hop_latency 0.5;
        hop_p95 = q s.Wcp_obs.Metrics.hop_latency 0.95;
        hop_max = Wcp_obs.Metrics.hist_max s.Wcp_obs.Metrics.hop_latency;
        elims_per_hop_p50 = q s.Wcp_obs.Metrics.elims_per_hop 0.5;
        elims_per_hop_p95 = q s.Wcp_obs.Metrics.elims_per_hop 0.95;
        elims_per_hop_max =
          Wcp_obs.Metrics.hist_max s.Wcp_obs.Metrics.elims_per_hop;
        slice_states;
        par_rounds = Wcp_sim.Stats.par_rounds r.stats;
        par_frontier = Wcp_sim.Stats.par_max_frontier r.stats;
        par_items = Wcp_sim.Stats.par_items r.stats;
        span_token_p50 = spq Wcp_obs.Span.Token 0.5;
        span_token_p95 = spq Wcp_obs.Span.Token 0.95;
        span_round_p50 = spq Wcp_obs.Span.Round 0.5;
        span_round_p95 = spq Wcp_obs.Span.Round 0.95;
        span_recovery_p50 = spq Wcp_obs.Span.Recovery 0.5;
        span_recovery_p95 = spq Wcp_obs.Span.Recovery 0.95;
        span_retx_p50 = spq Wcp_obs.Span.Retx_burst 0.5;
        span_retx_p95 = spq Wcp_obs.Span.Retx_burst 0.95;
        telemetry_lines;
        trace_bytes = 0;
        decode_ns = 0;
        peak_words = 0;
        slice_ns;
        events_per_sec = 0.0;
        lat_p50_ns = 0;
        lat_p95_ns = 0;
        wall_ns;
        alloc_bytes;
      }
  end

(* ------------------------------------------------------------------ *)
(* Sweep profiles                                                      *)
(* ------------------------------------------------------------------ *)

type profile = Full | Smoke

let profile_name = function Full -> "full" | Smoke -> "smoke"

let profile_of_name = function
  | "full" -> Full
  | "smoke" -> Smoke
  | s -> invalid_arg ("Bench_json.profile_of_name: " ^ s)

let job ?(p_pred = 0.3) ?(param = 0) experiment algo ~n ~m ~seed () =
  { experiment; algo; n; m; p_pred; seed; param }

let seeds = [ 1; 2; 3 ]

let jobs = function
  | Smoke ->
      (* Every smoke job is ALSO a Full job (same key, same workload),
         so a smoke run can be perf-checked against the committed full
         baseline in subset mode — the `make bench-smoke` gate. *)
      [
        job "E1" "token-vc" ~n:8 ~m:20 ~seed:1 ();
        job "E1" "token-vc" ~n:8 ~m:20 ~seed:2 ();
        job "E2" "checker" ~n:8 ~m:16 ~seed:1 ();
        job "E3" "token-multi" ~n:24 ~m:16 ~p_pred:0.25 ~param:2 ~seed:1 ();
        job "E4" "token-dd" ~n:8 ~m:12 ~p_pred:0.05 ~seed:1 ();
        job "E8" "token-dd-par" ~n:8 ~m:10 ~p_pred:0.05 ~seed:1 ();
        job "E9" "token-vc" ~n:8 ~m:10 ~param:20 ~seed:1 ();
        job "E9" "token-dd" ~n:8 ~m:10 ~param:20 ~seed:1 ();
        job "E15" "token-vc" ~n:8 ~m:12 ~param:2 ~seed:0 ();
        job "E16" "token-vc" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E16" "token-vc" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E17" "token-vc" ~n:8 ~m:20 ~p_pred:0.02 ~param:0 ~seed:1 ();
        job "E17" "token-vc" ~n:8 ~m:20 ~p_pred:0.02 ~param:1 ~seed:1 ();
        job "E17" "token-dd" ~n:8 ~m:20 ~p_pred:0.02 ~param:0 ~seed:1 ();
        job "E17" "token-dd" ~n:8 ~m:20 ~p_pred:0.02 ~param:1 ~seed:1 ();
        job "E17" "token-multi" ~n:8 ~m:20 ~p_pred:0.02 ~param:0 ~seed:1 ();
        job "E17" "token-multi" ~n:8 ~m:20 ~p_pred:0.02 ~param:1 ~seed:1 ();
        job "E17" "checker" ~n:8 ~m:20 ~p_pred:0.02 ~param:0 ~seed:1 ();
        job "E17" "checker" ~n:8 ~m:20 ~p_pred:0.02 ~param:1 ~seed:1 ();
        job "E18" "checker" ~n:8 ~m:20 ~seed:1 ();
        job "E18" "parallel" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E18" "parallel" ~n:8 ~m:20 ~param:4 ~seed:1 ();
        job "E19" "token-vc" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E19" "token-vc" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E19" "token-dd" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E19" "token-dd" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E19" "token-multi" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E19" "token-multi" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E20" "token-vc" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E20" "token-vc" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E21" "token-vc" ~n:8 ~m:20 ~p_pred:0.3 ~param:0 ~seed:1 ();
        job "E21" "token-vc" ~n:8 ~m:20 ~p_pred:0.3 ~param:1 ~seed:1 ();
        job "E21" "token-dd" ~n:8 ~m:20 ~p_pred:0.3 ~param:0 ~seed:1 ();
        job "E21" "token-dd" ~n:8 ~m:20 ~p_pred:0.3 ~param:1 ~seed:1 ();
        job "E21" "checker" ~n:8 ~m:20 ~p_pred:0.3 ~param:0 ~seed:1 ();
        job "E21" "checker" ~n:8 ~m:20 ~p_pred:0.3 ~param:1 ~seed:1 ();
        job "E22" "token-vc" ~n:8 ~m:20 ~p_pred:0.3 ~param:2010 ~seed:1 ();
        job "E22" "token-dd" ~n:8 ~m:20 ~p_pred:0.3 ~param:2010 ~seed:1 ();
        job "E22" "checker" ~n:8 ~m:20 ~p_pred:0.3 ~param:2010 ~seed:1 ();
        job "E22" "token-vc" ~n:8 ~m:20 ~p_pred:0.3 ~param:2011 ~seed:1 ();
      ]
  | Full ->
      let sweep f xs = List.concat_map f xs in
      let per_seed f = List.map f seeds in
      sweep
        (fun n -> per_seed (fun seed -> job "E1" "token-vc" ~n ~m:20 ~seed ()))
        [ 2; 4; 8; 16; 24; 32 ]
      @ sweep
          (fun n -> per_seed (fun seed -> job "E2" "checker" ~n ~m:16 ~seed ()))
          [ 2; 4; 8; 16; 24; 32 ]
      @ sweep
          (fun groups ->
            per_seed (fun seed ->
                job "E3" "token-multi" ~n:24 ~m:16 ~p_pred:0.25 ~param:groups
                  ~seed ()))
          [ 1; 2; 4; 8 ]
      @ sweep
          (fun n ->
            per_seed (fun seed ->
                job "E4" "token-dd" ~n ~m:12 ~p_pred:0.05 ~seed ()))
          [ 4; 8; 16; 32; 64 ]
      @ sweep
          (fun width ->
            sweep
              (fun algo ->
                per_seed (fun seed ->
                    job "E5" algo ~n:64 ~m:8 ~param:width ~seed ()))
              [ "token-vc"; "token-dd" ])
          [ 2; 8; 32; 64 ]
      @ List.map
          (fun (n, m) -> job "E6" "adversary" ~n ~m ~p_pred:0.0 ~seed:0 ())
          [ (8, 16); (16, 16); (32, 32) ]
      @ sweep
          (fun p_pred ->
            List.map
              (fun algo -> job "E7" algo ~n:6 ~m:10 ~p_pred ~seed:9 ())
              [ "checker"; "token-vc"; "token-dd"; "token-dd-par" ])
          [ 0.0; 0.3; 1.0 ]
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                per_seed (fun seed ->
                    job "E8" algo ~n ~m:10 ~p_pred:0.05 ~seed ()))
              [ "token-dd"; "token-dd-par" ])
          [ 4; 8; 16; 32 ]
      @ sweep
          (fun drop_pct ->
            sweep
              (fun algo ->
                per_seed (fun seed ->
                    job "E9" algo ~n:8 ~m:10 ~param:drop_pct ~seed ()))
              [ "token-vc"; "token-dd" ])
          [ 10; 20; 30 ]
      (* E15: throughput of a fixed 24-session batch across domain
         counts. All deterministic fields are domain-count independent
         (and outcome="ok" asserts byte-identity against a sequential
         reference); only wall_ns varies. *)
      @ List.map
          (fun d -> job "E15" "token-vc" ~n:8 ~m:12 ~param:d ~seed:0 ())
          [ 1; 2; 4; 8 ]
      (* E16: wire bits, hybrid delta (param=1) vs dense (param=0), per
         vector-clock algorithm x n. Equal-seed pairs differ ONLY in
         [bits] — the encoding changes no message counts and no RNG
         draws. token-dd is absent by design: its tags and snapshots
         already carry O(1) scalar clocks, there is nothing to delta. *)
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                sweep
                  (fun delta ->
                    per_seed (fun seed ->
                        job "E16" algo ~n ~m:20 ~param:delta ~seed ()))
                  [ 0; 1 ])
              [ "token-vc"; "token-multi"; "checker" ])
          [ 8; 16; 32 ]
      (* E17: computation slicing on a sparse-truth workload (p_pred =
         0.02 — most states are predicate-false, the regime slicing is
         for). Equal-seed pairs differ only in param: 1 detects on the
         slice (events/snapshots/work drop), 0 on the dense run; both
         arms report identical outcomes with byte-identical cuts (the
         sliced cut remapped to dense coordinates), asserted by the E17
         table in bench/main.ml and test/test_slice.ml. *)
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                sweep
                  (fun slice ->
                    per_seed (fun seed ->
                        job "E17" algo ~n ~m:20 ~p_pred:0.02 ~param:slice
                          ~seed ()))
                  [ 0; 1 ])
              [ "token-vc"; "token-dd"; "token-dd-par"; "token-multi";
                "checker" ])
          [ 8; 16; 32 ]
      (* E17 dense-truth control: at p_pred = 0.3 every run DETECTS, so
         these rows pin actual cuts (spelled out in [outcome], dense
         coordinates) byte-identical between the arms and against the
         baseline — the sparse sweep above mostly ends in
         no-detection, where cut identity is vacuous. *)
      @ sweep
          (fun algo ->
            sweep
              (fun slice ->
                per_seed (fun seed ->
                    job "E17" algo ~n:8 ~m:20 ~p_pred:0.3 ~param:slice ~seed
                      ()))
              [ 0; 1 ])
          [ "token-vc"; "token-dd"; "token-dd-par"; "token-multi"; "checker" ]
      (* E18: parallel-checker crossover. Per n, one centralized
         checker reference row (param 0) plus the parallel checker at
         domain counts 1/2/4/8 (param = its own fan-out). Every row of
         a given n spells out the same cut — the determinism contract
         across domain counts AND against the centralized checker —
         and only wall_ns may vary with param. The parallel rows'
         par_rounds/par_frontier/par_items are identical across domain
         counts by construction. *)
      @ sweep
          (fun n ->
            job "E18" "checker" ~n ~m:20 ~seed:1 ()
            :: List.map
                 (fun d -> job "E18" "parallel" ~n ~m:20 ~param:d ~seed:1 ())
                 [ 1; 2; 4; 8 ])
          [ 8; 16; 32; 64; 128 ]
      (* E19: crash recovery. Per token algorithm x n, a fault-free
         reference row (param 0) and a restart row (param 1) where the
         monitor of process 0 crashes at t=2 and is restored from its
         last checkpoint at t=10 (ckpt_every = 1). Both arms spell the
         cut out in [outcome], so the baseline pins the recovered run's
         first cut byte-identical to the fault-free reference; the
         restart arm additionally reports replayed frames and the
         restore-to-verdict recovery latency. *)
      @ sweep
          (fun n ->
            sweep
              (fun algo ->
                List.map
                  (fun restart ->
                    job "E19" algo ~n ~m:20 ~param:restart ~seed:1 ())
                  [ 0; 1 ])
              [ "token-vc"; "token-dd"; "token-multi" ])
          [ 8; 16; 32 ]
      (* E20: always-on telemetry. Per n, a bare reference row (param
         0, the E1 workload) and a telemetry-attached row (param 1)
         whose timed run streams wcp-metrics/1 through a capacity-1
         ring tap. Both arms spell the cut out, every deterministic
         field is identical between them (the plane is invisible to
         the engine), and the attached arm additionally asserts that a
         second attached run reproduces the stream. Only wall_ns may
         differ — the overhead E20's table reports. *)
      @ sweep
          (fun n ->
            List.map
              (fun telemetry ->
                job "E20" "token-vc" ~n ~m:20 ~param:telemetry ~seed:1 ())
              [ 0; 1 ])
          [ 8; 16; 32 ]
      (* E21: binary trace store. Small rows run every algo family on
         both arms (param 0 = text/dense, param 1 = btrace/streamed)
         across three seeds; the spelled-out cut pins the streamed
         replay byte-identical to the dense reference. One big
         streamed-only row detects over a >= 10^7-event btrace
         (2 * 16 * 320000 = 10.24M events): its decode_ns/peak_words
         columns are the bounded-memory evidence — the dense arm at
         that scale would hold every vector clock in memory. *)
      @ sweep
          (fun algo ->
            sweep
              (fun streamed ->
                per_seed (fun seed ->
                    job "E21" algo ~n:8 ~m:20 ~p_pred:0.3 ~param:streamed
                      ~seed ()))
              [ 0; 1 ])
          [ "token-vc"; "token-dd"; "checker" ]
      @ [ job "E21" "token-vc" ~n:16 ~m:320000 ~p_pred:0.001 ~param:1 ~seed:1 () ]
      (* E22: streaming detection service (param = sessions*1000 +
         domains*10 + mode). Cut rows per algo family pin the served
         result byte-identical to the offline streamed reference at two
         session/domain shapes (plus one JSONL-framing row); all their
         deterministic fields are shape-independent. The throughput
         gate row (8 sessions x 4 domains, n=32) is where perf-check's
         absolute events/sec floor applies, and the slow-client row
         (512-event ring behind a deliberately slowed worker) is where
         the sampled peak_words heap cap applies — the shed-to-disk
         evidence. *)
      @ sweep
          (fun algo ->
            List.map
              (fun param ->
                job "E22" algo ~n:8 ~m:20 ~p_pred:0.3 ~param ~seed:1 ())
              [ 2010; 4020 ])
          [ "token-vc"; "token-dd"; "checker" ]
      @ [
          job "E22" "token-vc" ~n:8 ~m:20 ~p_pred:0.3 ~param:2011 ~seed:1 ();
          job "E22" "token-vc" ~n:32 ~m:2500 ~p_pred:0.002 ~param:8040 ~seed:1 ();
          job "E22" "token-vc" ~n:8 ~m:20000 ~p_pred:0.01 ~param:1012 ~seed:1 ();
        ]

let run ?domains profile =
  let js = Array.of_list (jobs profile) in
  Wcp_util.Parallel.map ?domains run_job js

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

(* v4: E15 (multicore throughput) and E16 (delta vs dense wire bits)
   added; interval gating + hybrid delta encoding on by default, so
   every message/bits/snapshot figure moved vs v3.
   v5: E17 (computation slicing, dense vs sliced) and the
   slice_states/slice_ns fields added; dd snapshots/polls now priced
   packed by default (Wire.encode_dd / Wire.poll_bits), so dd-family
   bits figures moved vs v4.
   v6: E18 (domain-parallel checker crossover) and the
   par_rounds/par_frontier/par_items fields added; no existing field
   moved.
   v7: E19 (crash-recovery: mid-protocol monitor restart vs fault-free
   reference) and the replayed/recovery_latency fields added; no
   existing field moved.
   v8: E20 (always-on telemetry overhead, attached vs bare), the
   per-span-kind duration percentiles (span_*_p50/p95) and
   telemetry_lines added; traced runs now carry phase marks, so
   trace_events grew by the mark count vs v7 — no other field moved.
   v9: E21 (binary trace store: text/dense vs btrace/streamed replay)
   and the trace_bytes/decode_ns/peak_words fields added; no existing
   field moved.
   v10: E22 (streaming detection service: sessions over a loopback
   socket vs the offline streamed reference) and the
   events_per_sec/lat_p50_ns/lat_p95_ns fields added; no existing
   field moved. *)
let schema = "wcp-bench/10"

let metrics_to_json r =
  Json.Obj
    [
      ("experiment", Json.Str r.job.experiment);
      ("algo", Json.Str r.job.algo);
      ("n", Json.Int r.job.n);
      ("m", Json.Int r.job.m);
      ("p_pred", Json.Float r.job.p_pred);
      ("seed", Json.Int r.job.seed);
      ("param", Json.Int r.job.param);
      ("outcome", Json.Str r.outcome);
      ("states", Json.Int r.states);
      ("hops", Json.Int r.hops);
      ("polls", Json.Int r.polls);
      ("snapshots", Json.Int r.snapshots);
      ("merges", Json.Int r.merges);
      ("work", Json.Int r.work);
      ("max_work", Json.Int r.max_work);
      ("messages", Json.Int r.messages);
      ("bits", Json.Int r.bits);
      ("events", Json.Int r.events);
      ("sim_time", Json.Float r.sim_time);
      ("retransmits", Json.Int r.retransmits);
      ("dups_suppressed", Json.Int r.dups_suppressed);
      ("net_dropped", Json.Int r.net_dropped);
      ("net_duplicated", Json.Int r.net_duplicated);
      ("replayed", Json.Int r.replayed);
      ("recovery_latency", Json.Float r.recovery_latency);
      ("trace_events", Json.Int r.trace_events);
      ("eliminations", Json.Int r.eliminations);
      ("hop_p50", Json.Float r.hop_p50);
      ("hop_p95", Json.Float r.hop_p95);
      ("hop_max", Json.Float r.hop_max);
      ("elims_per_hop_p50", Json.Float r.elims_per_hop_p50);
      ("elims_per_hop_p95", Json.Float r.elims_per_hop_p95);
      ("elims_per_hop_max", Json.Float r.elims_per_hop_max);
      ("slice_states", Json.Int r.slice_states);
      ("par_rounds", Json.Int r.par_rounds);
      ("par_frontier", Json.Int r.par_frontier);
      ("par_items", Json.Int r.par_items);
      ("span_token_p50", Json.Float r.span_token_p50);
      ("span_token_p95", Json.Float r.span_token_p95);
      ("span_round_p50", Json.Float r.span_round_p50);
      ("span_round_p95", Json.Float r.span_round_p95);
      ("span_recovery_p50", Json.Float r.span_recovery_p50);
      ("span_recovery_p95", Json.Float r.span_recovery_p95);
      ("span_retx_p50", Json.Float r.span_retx_p50);
      ("span_retx_p95", Json.Float r.span_retx_p95);
      ("telemetry_lines", Json.Int r.telemetry_lines);
      ("trace_bytes", Json.Int r.trace_bytes);
      ("decode_ns", Json.Int r.decode_ns);
      ("peak_words", Json.Int r.peak_words);
      ("slice_ns", Json.Int r.slice_ns);
      ("events_per_sec", Json.Float r.events_per_sec);
      ("lat_p50_ns", Json.Int r.lat_p50_ns);
      ("lat_p95_ns", Json.Int r.lat_p95_ns);
      ("wall_ns", Json.Int r.wall_ns);
      ("alloc_bytes", Json.Int r.alloc_bytes);
    ]

let metrics_of_json j =
  let open Json in
  {
    job =
      {
        experiment = to_str (member "experiment" j);
        algo = to_str (member "algo" j);
        n = to_int (member "n" j);
        m = to_int (member "m" j);
        p_pred = to_float (member "p_pred" j);
        seed = to_int (member "seed" j);
        param = to_int (member "param" j);
      };
    outcome = to_str (member "outcome" j);
    states = to_int (member "states" j);
    hops = to_int (member "hops" j);
    polls = to_int (member "polls" j);
    snapshots = to_int (member "snapshots" j);
    merges = to_int (member "merges" j);
    work = to_int (member "work" j);
    max_work = to_int (member "max_work" j);
    messages = to_int (member "messages" j);
    bits = to_int (member "bits" j);
    events = to_int (member "events" j);
    sim_time = to_float (member "sim_time" j);
    retransmits = to_int (member "retransmits" j);
    dups_suppressed = to_int (member "dups_suppressed" j);
    net_dropped = to_int (member "net_dropped" j);
    net_duplicated = to_int (member "net_duplicated" j);
    replayed = to_int (member "replayed" j);
    recovery_latency = to_float (member "recovery_latency" j);
    trace_events = to_int (member "trace_events" j);
    eliminations = to_int (member "eliminations" j);
    hop_p50 = to_float (member "hop_p50" j);
    hop_p95 = to_float (member "hop_p95" j);
    hop_max = to_float (member "hop_max" j);
    elims_per_hop_p50 = to_float (member "elims_per_hop_p50" j);
    elims_per_hop_p95 = to_float (member "elims_per_hop_p95" j);
    elims_per_hop_max = to_float (member "elims_per_hop_max" j);
    slice_states = to_int (member "slice_states" j);
    par_rounds = to_int (member "par_rounds" j);
    par_frontier = to_int (member "par_frontier" j);
    par_items = to_int (member "par_items" j);
    span_token_p50 = to_float (member "span_token_p50" j);
    span_token_p95 = to_float (member "span_token_p95" j);
    span_round_p50 = to_float (member "span_round_p50" j);
    span_round_p95 = to_float (member "span_round_p95" j);
    span_recovery_p50 = to_float (member "span_recovery_p50" j);
    span_recovery_p95 = to_float (member "span_recovery_p95" j);
    span_retx_p50 = to_float (member "span_retx_p50" j);
    span_retx_p95 = to_float (member "span_retx_p95" j);
    telemetry_lines = to_int (member "telemetry_lines" j);
    trace_bytes = to_int (member "trace_bytes" j);
    decode_ns = to_int (member "decode_ns" j);
    peak_words = to_int (member "peak_words" j);
    slice_ns = to_int (member "slice_ns" j);
    events_per_sec = to_float (member "events_per_sec" j);
    lat_p50_ns = to_int (member "lat_p50_ns" j);
    lat_p95_ns = to_int (member "lat_p95_ns" j);
    wall_ns = to_int (member "wall_ns" j);
    alloc_bytes = to_int (member "alloc_bytes" j);
  }

let emit ~profile results =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("profile", Json.Str (profile_name profile));
        ("jobs", Json.Int (Array.length results));
        ( "results",
          Json.List (Array.to_list (Array.map metrics_to_json results)) );
      ]
  in
  (* One record per line keeps committed baselines diffable. *)
  let b = Buffer.create 16384 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": %s,\n"
                         (Json.to_string (Json.member "schema" doc)));
  Buffer.add_string b (Printf.sprintf "  \"profile\": %s,\n"
                         (Json.to_string (Json.member "profile" doc)));
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n"
                         (Array.length results));
  Buffer.add_string b "  \"results\": [\n";
  Array.iteri
    (fun i r ->
      Buffer.add_string b "    ";
      Buffer.add_string b (Json.to_string (metrics_to_json r));
      if i < Array.length results - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let parse_doc s =
  let doc = Json.parse s in
  let got = Json.to_str (Json.member "schema" doc) in
  if got <> schema then
    raise (Json.Parse_error (Printf.sprintf "schema %S, expected %S" got schema));
  let profile = profile_of_name (Json.to_str (Json.member "profile" doc)) in
  let results =
    Array.of_list (List.map metrics_of_json (Json.to_list (Json.member "results" doc)))
  in
  (profile, results)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let job_key j =
  Printf.sprintf "%s/%s n=%d m=%d p=%g seed=%d param=%d" j.experiment j.algo
    j.n j.m j.p_pred j.seed j.param

let strip_timing r =
  {
    r with
    wall_ns = 0;
    alloc_bytes = 0;
    slice_ns = 0;
    decode_ns = 0;
    peak_words = 0;
    events_per_sec = 0.0;
    lat_p50_ns = 0;
    lat_p95_ns = 0;
  }

let deterministic_equal a b = strip_timing a = strip_timing b

(* Compare a fresh run against a committed baseline: every deterministic
   field must match exactly; wall time may regress at most [tolerance]
   (default 0.20) on each experiment's total, with a 10 ms absolute
   floor so scheduler noise on sub-millisecond experiments cannot trip
   the gate. Returns human-readable failure lines, empty on success.

   [subset] (default false) flips the coverage direction: instead of
   requiring every baseline job to be present in [current], it requires
   every current job to exist in the baseline — the `make bench-smoke`
   mode, where a small smoke run is checked against the committed full
   baseline. Wall totals are then restricted to the jobs the smoke run
   actually executed. *)
let wall_floor_ns = 10_000_000

let compare_runs ?(tolerance = 0.20) ?(subset = false) ~baseline ~current () =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let drift b c =
    if not (deterministic_equal b c) then
      err "metrics drifted for %s (e.g. hops %d->%d, work %d->%d, messages %d->%d)"
        (job_key b.job) b.hops c.hops b.work c.work b.messages c.messages
  in
  let cur_tbl = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace cur_tbl (job_key r.job) r) current;
  if subset then begin
    let base_tbl = Hashtbl.create 64 in
    Array.iter (fun r -> Hashtbl.replace base_tbl (job_key r.job) r) baseline;
    Array.iter
      (fun c ->
        match Hashtbl.find_opt base_tbl (job_key c.job) with
        | None -> err "job not in baseline: %s" (job_key c.job)
        | Some b -> drift b c)
      current
  end
  else
    Array.iter
      (fun b ->
        match Hashtbl.find_opt cur_tbl (job_key b.job) with
        | None -> err "missing job: %s" (job_key b.job)
        | Some c -> drift b c)
      baseline;
  (* Wall-clock: per-experiment totals, 20% headroom. In subset mode
     only the baseline jobs the current run re-ran count towards the
     baseline total, so the comparison stays apples-to-apples. *)
  let totals keep results =
    let t = Hashtbl.create 8 in
    Array.iter
      (fun r ->
        if keep r then
          let k = r.job.experiment in
          Hashtbl.replace t k
            (r.wall_ns + Option.value ~default:0 (Hashtbl.find_opt t k)))
      results;
    t
  in
  let bt =
    totals
      (fun r -> (not subset) || Hashtbl.mem cur_tbl (job_key r.job))
      baseline
  and ct = totals (fun _ -> true) current in
  Hashtbl.iter
    (fun exp base ->
      match Hashtbl.find_opt ct exp with
      | None -> ()
      | Some cur ->
          if
            (* E22 boots a live multi-threaded server per job, so its
               wall clock is scheduler-dependent; it is gated
               absolutely instead (events/sec and peak-heap floors in
               bench/main.ml), not relatively against the baseline. *)
            exp <> "E22" && base > 0
            && float_of_int cur > (1.0 +. tolerance) *. float_of_int base
            && cur - base > wall_floor_ns
          then
            err "%s wall time regressed: %d ns -> %d ns (> %+.0f%%)" exp base
              cur (tolerance *. 100.0))
    bt;
  List.rev !errors
