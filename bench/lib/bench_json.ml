open Wcp_trace
open Wcp_core
module Json = Wcp_obs.Export.Json

(* ------------------------------------------------------------------ *)
(* Jobs and rows                                                       *)
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

(* A row is the job, its outcome, the two timing fields every runner
   measures, and whatever columns its runner computed — nothing padded
   for other experiments' sake. *)
type row = {
  job : job;
  outcome : string;
  wall_ns : int;
  alloc_bytes : int;
  cols : (string * Json.t) list;
}

(* Wall-clock and GC-state derived: excluded from every determinism
   comparison. *)
let machine_columns =
  [
    "wall_ns"; "alloc_bytes"; "slice_ns"; "decode_ns"; "peak_words";
    "events_per_sec"; "lat_p50_ns"; "lat_p95_ns";
  ]

let is_zero = function
  | Json.Int 0 -> true
  | Json.Float f -> f = 0.0
  | _ -> false

(* Zero columns are dropped (a missing column reads as zero) and the
   rest kept in name order, so equal rows are equal lists. *)
let row job outcome ~wall_ns ~alloc_bytes cols =
  let cols = List.filter (fun (_, v) -> not (is_zero v)) cols in
  {
    job;
    outcome;
    wall_ns;
    alloc_bytes;
    cols = List.sort (fun (a, _) (b, _) -> String.compare a b) cols;
  }

let float_col r name =
  match List.assoc_opt name r.cols with Some v -> Json.to_float v | None -> 0.0

let int_col r name =
  match List.assoc_opt name r.cols with
  | Some (Json.Int i) -> i
  | _ -> int_of_float (float_col r name)

let ns_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

(* The columns of a detection run: its costs and its simulated time. *)
let result_cols (r : Detection.result) =
  let st = r.stats and x = r.extras in
  Json.
    [
      ("hops", Int x.Detection.token_hops);
      ("polls", Int x.Detection.polls);
      ("snapshots", Int x.Detection.snapshots);
      ("merges", Int x.Detection.merges);
      ("work", Int (Wcp_sim.Stats.total_work st));
      ("max_work", Int (Wcp_sim.Stats.max_work st));
      ("messages", Int (Wcp_sim.Stats.total_sent st));
      ("bits", Int (Wcp_sim.Stats.total_bits st));
      ("events", Int r.events);
      ("sim_time", Float r.sim_time);
    ]

let detector name =
  match Detectors.find name with
  | Ok d -> d
  | Error m -> invalid_arg ("Bench_json: " ^ m)

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
  (* [param] is multi-token's group count in E3; in E16/E17/E19 it is
     the delta/slice/restart flag, so the group count is pinned at 2
     (the E3 sweet spot). In E18 it is the parallel checker's own
     domain count (not the bench harness parallelism); 0 falls back to
     WCP_DOMAINS. *)
  let groups =
    if List.mem job.experiment [ "E16"; "E17"; "E19" ] then 2 else job.param
  in
  let domains = if job.param > 0 then Some job.param else None in
  let r =
    (detector job.algo).run ?fault ?recorder ~options ~groups ?domains ~seed
      comp spec
  in
  (comp, r)

(* ------------------------------------------------------------------ *)
(* E15: multicore throughput                                           *)
(* ------------------------------------------------------------------ *)

(* One E15 job = a fixed batch of [e15_sessions] independent detection
   sessions (same workload shape, session seeds 1..k) pushed through
   [Parallel.map] with [job.param] domains. All deterministic columns
   are batch aggregates, so an E15 row is identical whatever domain
   count produced it; [outcome] is "ok" iff the per-session summaries
   are byte-identical to a sequential (1-domain) reference run of the
   same batch — the {!Wcp_util.Parallel} determinism contract, asserted
   on every bench run. Only [wall_ns] (from which sessions/sec derives)
   may vary with the domain count. *)
let e15_sessions = 24

let run_e15 job =
  if job.param < 1 then
    invalid_arg "Bench_json: E15 param is the domain count (>= 1)";
  let session seed =
    let comp, r = run_sim { job with seed; param = 0 } in
    ( r.Detection.outcome,
      ("states", Json.Int (Computation.total_states comp)) :: result_cols r )
  in
  let session_seeds = Array.init e15_sessions (fun i -> i + 1) in
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let batch = Wcp_util.Parallel.map ~domains:job.param session session_seeds in
  let wall_ns = ns_since t0 in
  let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
  (* The reference run sits outside the timed window: sessions/sec is
     the parallel batch only. *)
  let reference = Wcp_util.Parallel.map ~domains:1 session session_seeds in
  (* Batch totals: every column summed, except the busiest process's
     work, which is the batch maximum. *)
  let add =
    List.map2 (fun (k, a) (_, b) ->
        match (a, b) with
        | Json.Int a, Json.Int b ->
            (k, Json.Int (if k = "max_work" then max a b else a + b))
        | a, b -> (k, Json.Float (Json.to_float a +. Json.to_float b)))
  in
  let cols =
    Array.fold_left (fun acc (_, c) -> add acc c) (snd batch.(0))
      (Array.sub batch 1 (Array.length batch - 1))
  in
  row job
    (if batch = reference then "ok" else "mismatch")
    ~wall_ns ~alloc_bytes cols

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
  let d = detector job.algo in
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
            Wcp_slice.Slice.for_spec_source ~keep_rest:d.keep_rest
              (Btrace.source (Btrace.openfile path))
              ~procs
          in
          (Wcp_slice.Slice.computation sl, Wcp_slice.Slice.remap_cut sl)
        end
        else (Trace_codec.read_file path, Fun.id)
      in
      let decode_ns = ns_since t0 in
      let peak_words = max 0 (live_words () - live0) in
      let spec = Spec.make comp procs in
      let options = Detection.options () in
      Gc.minor ();
      let alloc0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      let r = d.run ~options ~groups:2 ~seed comp spec in
      (* E21's wall covers the whole pipeline, load included: the load
         step IS what this experiment benchmarks, and the detect-only
         slice of the big row is small enough that scheduler jitter
         would trip the 20% gate on it alone. *)
      let wall_ns = decode_ns + ns_since t0 in
      let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
      let outcome =
        match Detection.remap_outcome remap r.Detection.outcome with
        | Detection.Detected cut ->
            Format.asprintf "detected %a" Cut.pp cut
        | Detection.No_detection -> "none"
        | Detection.Undetectable_crashed _ -> "undetectable"
      in
      row job outcome ~wall_ns ~alloc_bytes
        (* Dense states of the recorded run, whichever arm: each of the
           n processes has events + 1 states. *)
        ((("states", Json.Int (job.n + (job.n * 2 * job.m))) :: result_cols r)
        @ Json.
            [
              ( "slice_states",
                Int (if streamed then Computation.total_states comp else 0) );
              ("trace_bytes", Int trace_bytes);
              ("decode_ns", Int decode_ns);
              ("peak_words", Int peak_words);
            ]))

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
    let d = detector job.algo in
    let r =
      Run_common.with_source ~keep_rest:d.keep_rest
        (Computation.Stream.of_computation comp)
        ~procs
        ~run:(fun c s ->
          d.run ~options:Detection.default_options ~groups:2 ~seed c s)
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
      row job outcome ~wall_ns ~alloc_bytes:0
        Json.
          [
            ("states", Int (job.n + (job.n * 2 * job.m)));
            ("hops", Int !hops);
            ("messages", Int !msgs);
            ("bits", Int !bits);
            ("events", Int !events);
            ("peak_words", Int peak_words);
            ("events_per_sec", Float events_per_sec);
            ("lat_p50_ns", Int (pct 0.50));
            ("lat_p95_ns", Int (pct 0.95));
          ])

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


(* E6: the §5 lower-bound game is deterministic and has no simulation
   behind it; its deletions are the work, its rounds the events. *)
let run_adversary job =
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let world, _ = Wcp_lowerbound.Adversary.make ~n:job.n ~m:job.m in
  let answer, trace = Wcp_lowerbound.Detector.run world in
  let wall_ns = ns_since t0 in
  let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
  let deletions = trace.Wcp_lowerbound.Detector.deletions in
  row job
    (match answer with
    | Wcp_lowerbound.Detector.No_antichain -> "none"
    | _ -> "detected")
    ~wall_ns ~alloc_bytes
    Json.
      [
        ("work", Int deletions);
        ("max_work", Int deletions);
        ("events", Int trace.Wcp_lowerbound.Detector.rounds);
      ]

let run_detection job =
  (* E20 telemetry arm (param=1): the timed run carries the always-on
     streaming plane, so wall_ns prices it against the bare param=0
     reference row. *)
  let telemetry_on = job.experiment = "E20" && job.param <> 0 in
  let timed_stream = ref "" in
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let comp, r =
    if telemetry_on then begin
      let cr, stream = run_attached job in
      timed_stream := stream;
      cr
    end
    else run_sim job
  in
  let wall_ns = ns_since t0 in
  let alloc_bytes = int_of_float (Gc.allocated_bytes () -. alloc0) in
  (* Second, traced run outside the timed window: same seed, same
     schedule (recording is invisible to the engine), feeding the
     histogram summaries. *)
  let recorder = Wcp_obs.Recorder.create () in
  let _ = run_sim ~recorder job in
  let events = Wcp_obs.Recorder.events recorder in
  let _, s = Wcp_obs.Metrics.of_events events in
  let hist name h =
    Json.
      [
        (name ^ "_p50", Float (Wcp_obs.Metrics.quantile h 0.5));
        (name ^ "_p95", Float (Wcp_obs.Metrics.quantile h 0.95));
        (name ^ "_max", Float (Wcp_obs.Metrics.hist_max h));
      ]
  in
  (* Span-tree and telemetry summaries (schema v8), also from the
     traced run; the telemetry replay strips allocation sampling so
     the line count is a pure function of the events. *)
  let spans = Wcp_obs.Span.of_events events in
  let span_cols (name, kind) =
    let d = Wcp_obs.Span.durations kind spans in
    Json.
      [
        ("span_" ^ name ^ "_p50", Float (Wcp_obs.Span.percentile d 0.5));
        ("span_" ^ name ^ "_p95", Float (Wcp_obs.Span.percentile d 0.95));
      ]
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
      let t0 = Unix.gettimeofday () in
      let sl =
        Wcp_slice.Slice.for_spec ~keep_rest:(detector job.algo).keep_rest comp
          ~procs:(Spec.procs spec)
      in
      let ns = ns_since t0 in
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
        Float.neg_infinity events
    in
    if restore_t = Float.neg_infinity then 0.0 else r.sim_time -. restore_t
  in
  let outcome =
    if not telemetry_ok then "telemetry-mismatch"
    else
      match r.Detection.outcome with
      | Detection.Detected cut ->
          (* E17, E18, E19 and E20 spell the cut out (in dense
             coordinates): E17 pins the sliced arm to the dense arm's
             exact cut, E18 pins every domain count to the centralized
             checker's cut, E19 pins the crash-recovery arm to the
             fault-free reference's cut, and E20 pins the
             telemetry-attached arm to the bare reference's cut — not
             just to "detected". *)
          if List.mem job.experiment [ "E17"; "E18"; "E19"; "E20" ] then
            Format.asprintf "detected %a" Cut.pp cut
          else "detected"
      | Detection.No_detection -> "none"
      | Detection.Undetectable_crashed _ -> "undetectable"
  in
  let st = r.Detection.stats in
  row job outcome ~wall_ns ~alloc_bytes
    ((("states", Json.Int (Computation.total_states comp)) :: result_cols r)
    @ Json.
        [
          ("retransmits", Int (Wcp_sim.Stats.total_retransmits st));
          ("dups_suppressed", Int (Wcp_sim.Stats.total_dups_suppressed st));
          ("net_dropped", Int (Wcp_sim.Stats.net_dropped st));
          ("net_duplicated", Int (Wcp_sim.Stats.net_duplicated st));
          ("replayed", Int (Wcp_sim.Stats.replayed st));
          ("recovery_latency", Float recovery_latency);
          ("trace_events", Int (Wcp_obs.Recorder.emitted recorder));
          ( "eliminations",
            Int (Wcp_obs.Metrics.count s.Wcp_obs.Metrics.eliminations) );
          ("slice_states", Int slice_states);
          ("par_rounds", Int (Wcp_sim.Stats.par_rounds st));
          ("par_frontier", Int (Wcp_sim.Stats.par_max_frontier st));
          ("par_items", Int (Wcp_sim.Stats.par_items st));
          ("telemetry_lines", Int telemetry_lines);
          ("slice_ns", Int slice_ns);
        ]
    @ hist "hop" s.Wcp_obs.Metrics.hop_latency
    @ hist "elims_per_hop" s.Wcp_obs.Metrics.elims_per_hop
    @ List.concat_map span_cols
        Wcp_obs.Span.
          [
            ("token", Token);
            ("round", Round);
            ("recovery", Recovery);
            ("retx", Retx_burst);
          ])

let run_job job =
  match job.experiment with
  | "E15" -> run_e15 job
  | "E21" -> run_e21 job
  | "E22" -> run_e22 job
  | _ when job.algo = "adversary" -> run_adversary job
  | _ -> run_detection job

(* ------------------------------------------------------------------ *)
(* Sweep profiles                                                      *)
(* ------------------------------------------------------------------ *)

type profile = Full | Smoke

let profile_name = function Full -> "full" | Smoke -> "smoke"

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
        job "E3" "multi-token" ~n:24 ~m:16 ~p_pred:0.25 ~param:2 ~seed:1 ();
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
        job "E17" "multi-token" ~n:8 ~m:20 ~p_pred:0.02 ~param:0 ~seed:1 ();
        job "E17" "multi-token" ~n:8 ~m:20 ~p_pred:0.02 ~param:1 ~seed:1 ();
        job "E17" "checker" ~n:8 ~m:20 ~p_pred:0.02 ~param:0 ~seed:1 ();
        job "E17" "checker" ~n:8 ~m:20 ~p_pred:0.02 ~param:1 ~seed:1 ();
        job "E18" "checker" ~n:8 ~m:20 ~seed:1 ();
        job "E18" "parallel" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E18" "parallel" ~n:8 ~m:20 ~param:4 ~seed:1 ();
        job "E19" "token-vc" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E19" "token-vc" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E19" "token-dd" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E19" "token-dd" ~n:8 ~m:20 ~param:1 ~seed:1 ();
        job "E19" "multi-token" ~n:8 ~m:20 ~param:0 ~seed:1 ();
        job "E19" "multi-token" ~n:8 ~m:20 ~param:1 ~seed:1 ();
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
                job "E3" "multi-token" ~n:24 ~m:16 ~p_pred:0.25 ~param:groups
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
              [ "token-vc"; "multi-token"; "checker" ])
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
              [ "token-vc"; "token-dd"; "token-dd-par"; "multi-token";
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
          [ "token-vc"; "token-dd"; "token-dd-par"; "multi-token"; "checker" ]
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
              [ "token-vc"; "token-dd"; "multi-token" ])
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
   field moved.
   v11: sparse rows — job, outcome, wall_ns, alloc_bytes and the
   nonzero columns the row's runner computed, in name order; a missing
   column reads as zero. The multi-token rows are labelled
   "multi-token", the name the detector table and the CLI use. No
   value moved. *)
let schema = "wcp-bench/11"

let row_to_json r =
  let j = r.job in
  Json.Obj
    (Json.
       [
         ("experiment", Str j.experiment);
         ("algo", Str j.algo);
         ("n", Int j.n);
         ("m", Int j.m);
         ("p_pred", Float j.p_pred);
         ("seed", Int j.seed);
         ("param", Int j.param);
         ("outcome", Str r.outcome);
       ]
    @ r.cols
    @ Json.[ ("wall_ns", Int r.wall_ns); ("alloc_bytes", Int r.alloc_bytes) ])

let core_keys =
  [
    "experiment"; "algo"; "n"; "m"; "p_pred"; "seed"; "param"; "outcome";
    "wall_ns"; "alloc_bytes";
  ]

let row_of_json j =
  let open Json in
  let i k = to_int (member k j) in
  let job =
    {
      experiment = to_str (member "experiment" j);
      algo = to_str (member "algo" j);
      n = i "n";
      m = i "m";
      p_pred = to_float (member "p_pred" j);
      seed = i "seed";
      param = i "param";
    }
  in
  let cols =
    match j with
    | Obj kvs ->
        List.filter
          (fun (k, v) ->
            match v with
            | _ when List.mem k core_keys -> false
            | Int _ | Float _ -> true
            | _ -> error "column %S is not a number" k)
          kvs
    | _ -> []
  in
  row job
    (to_str (member "outcome" j))
    ~wall_ns:(i "wall_ns") ~alloc_bytes:(i "alloc_bytes") cols

let emit ~profile results =
  (* One record per line keeps committed baselines diffable. *)
  let b = Buffer.create 16384 in
  Printf.bprintf b "{\n  \"schema\": %s,\n  \"profile\": %s,\n  \"jobs\": %d,\n"
    (Json.to_string (Json.Str schema))
    (Json.to_string (Json.Str (profile_name profile)))
    (Array.length results);
  Buffer.add_string b "  \"results\": [\n";
  Array.iteri
    (fun i r ->
      Buffer.add_string b "    ";
      Json.emit b (row_to_json r);
      if i < Array.length results - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let parse_doc s =
  let doc = Json.parse s in
  let got = Json.to_str (Json.member "schema" doc) in
  if got <> schema then Json.error "schema %S, expected %S" got schema;
  let profile =
    match Json.to_str (Json.member "profile" doc) with
    | "full" -> Full
    | "smoke" -> Smoke
    | p -> Json.error "unknown profile %S" p
  in
  let results =
    match Json.member "results" doc with
    | Json.Arr rs -> Array.of_list (List.map row_of_json rs)
    | _ -> Json.error "results is not an array"
  in
  (profile, results)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let job_key j =
  Printf.sprintf "%s/%s n=%d m=%d p=%g seed=%d param=%d" j.experiment j.algo
    j.n j.m j.p_pred j.seed j.param

let drift ?(except = []) a b =
  let names =
    List.sort_uniq String.compare (List.map fst a.cols @ List.map fst b.cols)
  in
  (if a.outcome <> b.outcome then [ "outcome" ] else [])
  @ List.filter
      (fun k ->
        (not (List.mem k machine_columns || List.mem k except))
        && List.assoc_opt k a.cols <> List.assoc_opt k b.cols)
      names

let deterministic_equal a b = a.job = b.job && drift a b = []

(* Compare a fresh run against a committed baseline: every deterministic
   column must match exactly; wall time may regress at most [tolerance]
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
    let value r k =
      if k = "outcome" then Printf.sprintf "%S" r.outcome
      else
        match List.assoc_opt k r.cols with
        | Some v -> Json.to_string v
        | None -> "0"
    in
    match drift b c with
    | [] -> ()
    | ks ->
        err "metrics drifted for %s: %s" (job_key b.job)
          (String.concat ", "
             (List.map
                (fun k ->
                  Printf.sprintf "%s %s -> %s" k (value b k) (value c k))
                ks))
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
