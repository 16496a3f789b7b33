(* wcpdetect — command-line front end for the WCP detection library.

   Subcommands:
     generate    write a random computation to a trace file
     convert     round-trip a trace between text and binary formats
     workload    write a workload computation (mutex/tpl/ring/cs)
     detect      run one detection algorithm on a trace
     serve       run the streaming detection service (wcp-serve/1)
     feed        stream a trace to a running service
     trace       run an algorithm and record its causal event trace
     explain     replay a recorded event log into a human narrative
     compare     run every algorithm on a trace and tabulate costs
     lowerbound  play the Theorem 5.1 adversary game *)

open Cmdliner
open Wcp_trace
open Wcp_sim
open Wcp_core

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let setup_logs =
  let setup style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level level
  in
  Term.(const setup $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let seed_arg =
  let doc = "PRNG seed; equal seeds reproduce runs exactly." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let trace_arg =
  let doc =
    "Trace file: text (wcp-trace v1) or binary (wcp-btrace/1), autodetected."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let output_arg =
  let doc = "Output trace file; - for stdout." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* Value converters: a malformed option value is a usage error that
   Cmdliner reports before any work starts. [checked] admits the values
   [of_string] reads and [ok] accepts; [what] names them in the error. *)
let checked of_string pp ~docv ~what ok =
  Arg.conv' ~docv
    ( (fun s ->
        match of_string s with
        | Some x when ok x -> Ok x
        | _ -> Error (Printf.sprintf "%S is not %s" s what)),
      pp )

let positive_int =
  checked int_of_string_opt Format.pp_print_int ~docv:"K"
    ~what:"a positive integer" (fun k -> k > 0)

let at_least_two =
  checked int_of_string_opt Format.pp_print_int ~docv:"K"
    ~what:"an integer >= 2" (fun k -> k >= 2)

let positive_float =
  checked float_of_string_opt Format.pp_print_float ~docv:"T"
    ~what:"a positive number" (fun x -> x > 0. && Float.is_finite x)

let probability =
  checked float_of_string_opt Format.pp_print_float ~docv:"P"
    ~what:"a probability in [0,1]" (fun x -> x >= 0. && x <= 1.)

(* Process ids in any order, none twice; parsed as the strictly
   increasing array a spec wants. *)
let procs_conv =
  let parse s =
    let ids = List.filter (fun t -> t <> "") (String.split_on_char ',' s) in
    let bad t =
      match int_of_string_opt t with Some p -> p < 0 | None -> true
    in
    match List.find_opt bad ids with
    | Some t -> Error (Printf.sprintf "%S is not a process id" t)
    | None -> (
        let procs = List.sort compare (List.map int_of_string ids) in
        let rec twice = function
          | a :: (b :: _ as rest) -> if a = b then Some a else twice rest
          | _ -> None
        in
        match (procs, twice procs) with
        | [], _ -> Error "no process given"
        | _, Some p -> Error (Printf.sprintf "process %d listed twice" p)
        | _, None -> Ok (Array.of_list procs))
  in
  let print ppf procs =
    Format.pp_print_string ppf
      (String.concat "," (List.map string_of_int (Array.to_list procs)))
  in
  Arg.conv' ~docv:"PROCS" (parse, print)

let procs_arg =
  let doc =
    "Comma-separated processes the WCP spans (e.g. 0,2,5). Default: all."
  in
  Arg.(value & opt (some procs_conv) None & info [ "procs" ] ~docv:"PROCS" ~doc)

(* The spec's processes, all [n] by default. A process the trace does
   not have is one diagnostic line, like a parse error. *)
let procs_of ~trace ~n = function
  | None -> Array.init n Fun.id
  | Some procs ->
      Array.iter
        (fun p ->
          if p >= n then begin
            Printf.eprintf "wcpdetect: %s: no process %d (the trace has %d)\n"
              trace p n;
            exit 2
          end)
        procs;
      procs

let spec_of ~trace comp procs =
  Spec.make comp (procs_of ~trace ~n:(Computation.n comp) procs)

(* An output file that cannot be created is one diagnostic line, like
   a trace that cannot be read. *)
let writing f =
  try f ()
  with Sys_error msg ->
    Printf.eprintf "wcpdetect: %s\n" msg;
    exit 2

(* A call's output files are created before any work starts, so a path
   that cannot be written fails the call before it prints a verdict. A
   file that exists keeps its contents until it is written; one the
   call created is removed again if the call exits before writing it. *)
let unwritten = ref []

let () =
  at_exit (fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !unwritten)

let create_outputs paths =
  List.iter
    (fun path ->
      if path <> "-" then begin
        let fresh = not (Sys.file_exists path) in
        writing (fun () ->
            close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 path));
        if fresh then unwritten := path :: !unwritten
      end)
    paths

let write_output path data =
  writing (fun () -> Wcp_obs.Export.write_file path data);
  unwritten := List.filter (( <> ) path) !unwritten

let emit_trace out comp =
  match out with
  | "-" -> print_string (Trace_codec.encode comp)
  | path ->
      (* A .btrace suffix selects the binary store; anything else gets
         the human-readable text format. *)
      writing (fun () ->
          if Filename.check_suffix path ".btrace" then
            Btrace.write_file path comp
          else Trace_codec.write_file path comp);
      Printf.printf "wrote %s (%d processes, %d states, %d messages)\n" path
        (Computation.n comp)
        (Computation.total_states comp)
        (Array.length (Computation.messages comp))

(* Both trace formats (autodetected), with a parse error or an
   unreadable file surfaced as a clean one-line diagnostic, in the
   words of [detect --stream], instead of an exception trace. *)
let load_trace path =
  try Trace_codec.read_file path with
  | Trace_codec.Parse_error { line; message } ->
      Printf.eprintf "wcpdetect: %s:%d: %s\n" path line message;
      exit 2
  | Sys_error msg ->
      Printf.eprintf "wcpdetect: %s\n" msg;
      exit 2
  | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "wcpdetect: %s: %s\n" path (Unix.error_message e);
      exit 2

(* ------------------------------------------------------------------ *)
(* Fault-plan arguments (shared by detect and chaos)                   *)
(* ------------------------------------------------------------------ *)

let drop_arg =
  let doc = "Per-delivery message loss probability on every link." in
  Arg.(value & opt probability 0.0 & info [ "drop" ] ~docv:"P" ~doc)

let dup_arg =
  let doc = "Per-delivery message duplication probability on every link." in
  Arg.(value & opt probability 0.0 & info [ "dup" ] ~docv:"P" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault plan's private PRNG stream." in
  Arg.(value & opt int64 0L & info [ "fault-seed" ] ~docv:"SEED" ~doc)

(* ID@START or ID@START-END. Without END a crash is permanent and a
   restart recovers 8 time units after START. *)
let window_conv kind =
  let parse spec =
    let times =
      match String.split_on_char '@' spec with
      | [ id; times ] -> (
          match
            ( int_of_string_opt id,
              List.map float_of_string_opt (String.split_on_char '-' times) )
          with
          | Some proc, [ Some from_t ] when kind = Fault.Restart ->
              Some (proc, from_t, Some (from_t +. 8.0))
          | Some proc, [ Some from_t ] -> Some (proc, from_t, None)
          | Some proc, [ Some from_t; Some until_t ] ->
              Some (proc, from_t, Some until_t)
          | _ -> None)
      | _ -> None
    in
    match
      Option.map
        (fun (proc, from_t, until_t) -> Fault.window ~kind ~proc ~from_t ?until_t ())
        times
    with
    | Some w -> Ok w
    | None -> Error (Printf.sprintf "%S: want ID@START or ID@START-END" spec)
    | exception Invalid_argument _ ->
        Error (Printf.sprintf "%S: want 0 <= ID and 0 <= START < END" spec)
  in
  let print ppf (w : Fault.window) =
    Format.fprintf ppf "%d@@%g" w.Fault.proc w.Fault.from_t
  in
  Arg.conv' ~docv:"SPEC" (parse, print)

let crash_arg =
  let doc =
    "Crash window ID@START or ID@START-END (engine process id: application \
     process p is p, its monitor is N+p, 2N the checker or leader). Without \
     -END the crash is permanent. Repeatable."
  in
  Arg.(
    value
    & opt_all (window_conv Fault.Crash) []
    & info [ "crash" ] ~docv:"SPEC" ~doc)

let restart_arg =
  let doc =
    "Crash-with-recovery window ID@START or ID@START-END: ID is the monitor \
     N+p of a process p the detector watches. The monitor's in-memory state \
     is destroyed at START and rebuilt at END (default START+8) from its \
     checkpoint, taken after every message it handles. Repeatable."
  in
  Arg.(
    value
    & opt_all (window_conv Fault.Restart) []
    & info [ "restart" ] ~docv:"SPEC" ~doc)

(* The fault plan, or [None] when it injects nothing. A window on a
   process the run does not have is one diagnostic line, like a
   --procs id the trace lacks: a --crash id above 2N (the last id is
   the checker or leader), or a --restart id that is not the monitor
   N+p of a process p the token detector watches (the spec's
   processes, or all N when its cut spans them). *)
let fault_plan ~trace ~algo ~n ~procs ~drop ~dup ~crashes ~restarts
    ~fault_seed =
  let refuse fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "wcpdetect: %s: %s\n" trace msg;
        exit 2)
      fmt
  in
  List.iter
    (fun (w : Fault.window) ->
      if w.Fault.proc > 2 * n then
        refuse "--crash %d: no process %d (the run has 0..%d)" w.Fault.proc
          w.Fault.proc (2 * n))
    crashes;
  (match Detectors.find algo with
  | Ok d when d.faults ->
      let watched = if d.keep_rest then Array.init n Fun.id else procs in
      let monitors = Array.map (Run_common.monitor_of ~n) watched in
      List.iter
        (fun (w : Fault.window) ->
          if not (Array.mem w.Fault.proc monitors) then
            refuse "--restart %d: not a monitor of %s (its monitors are %s)"
              w.Fault.proc algo
              (String.concat ","
                 (List.map string_of_int (Array.to_list monitors))))
        restarts
  | _ -> ());
  let plan =
    Fault.uniform ~seed:fault_seed ~drop ~dup ~windows:(crashes @ restarts) ()
  in
  if Fault.is_none plan then None else Some plan

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let n =
    Arg.(
      value & opt positive_int 4
      & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let sends =
    Arg.(
      value & opt int 10
      & info [ "m"; "sends" ] ~docv:"M" ~doc:"Sends per process.")
  in
  let p_pred =
    Arg.(
      value & opt probability 0.5
      & info [ "p-pred" ] ~docv:"P"
          ~doc:"Probability a state's local predicate is true.")
  in
  let p_recv =
    Arg.(
      value & opt probability 0.5
      & info [ "p-recv" ] ~docv:"P" ~doc:"Bias toward receiving when possible.")
  in
  let run n sends p_pred p_recv seed out =
    if n = 1 && sends > 0 then begin
      prerr_endline
        "wcpdetect: -n 1 needs -m 0 (one process has nobody to send to)";
      exit 2
    end;
    let params = { Generator.n; sends_per_process = sends; p_pred; p_recv } in
    if out <> "-" && Filename.check_suffix out ".btrace" then begin
      (* Direct-to-disk: the events stream straight into the binary
         store, so generation memory is independent of trace length. *)
      let states, messages =
        writing (fun () -> Generator.random_btrace ~params ~seed out)
      in
      Printf.printf "wrote %s (%d processes, %d states, %d messages)\n" out n
        states messages
    end
    else emit_trace out (Generator.random ~params ~seed ())
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random computation trace.")
    Term.(const run $ n $ sends $ p_pred $ p_recv $ seed_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* convert                                                             *)
(* ------------------------------------------------------------------ *)

let convert_cmd =
  let run trace out = emit_trace out (load_trace trace) in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace between the text (wcp-trace v1) and binary \
          (wcp-btrace/1) formats. The input format is autodetected; the \
          output format follows the output file's extension (.btrace is \
          binary, anything else — and stdout — is text).")
    Term.(const run $ trace_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* workload                                                            *)
(* ------------------------------------------------------------------ *)

let workload_cmd =
  let kind =
    let doc = "Workload: mutex, tpl, ring, cs or philosophers." in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("mutex", `Mutex);
                  ("tpl", `Tpl);
                  ("ring", `Ring);
                  ("cs", `Cs);
                  ("philosophers", `Philosophers);
                ]))
          None
      & info [] ~docv:"KIND" ~doc)
  in
  let size =
    Arg.(
      value & opt positive_int 3
      & info [ "size" ] ~docv:"K"
          ~doc:
            "Clients / readers+writers / ring members; at least 2 for mutex, \
             ring and philosophers.")
  in
  let rounds =
    Arg.(
      value & opt positive_int 4
      & info [ "rounds" ] ~docv:"R" ~doc:"Rounds / requests / laps.")
  in
  let p_bug =
    Arg.(
      value & opt probability 0.0
      & info [ "p-bug" ] ~docv:"P" ~doc:"Bug injection probability.")
  in
  let run kind size rounds p_bug seed out =
    if size < 2 && (kind = `Mutex || kind = `Ring || kind = `Philosophers)
    then begin
      prerr_endline "wcpdetect: this workload needs --size 2 or more";
      exit 2
    end;
    let w =
      match kind with
      | `Mutex ->
          Workloads.mutual_exclusion ~clients:size ~rounds ~p_bug ~seed
      | `Tpl ->
          Workloads.two_phase_locking ~readers:(max 1 (size / 2))
            ~writers:(max 1 (size - (size / 2)))
            ~requests:rounds ~p_bug ~seed
      | `Ring -> Workloads.token_ring ~procs:size ~laps:rounds ~p_bug ~seed
      | `Cs -> Workloads.client_server ~clients:size ~requests:rounds ~seed
      | `Philosophers ->
          Workloads.dining_philosophers ~philosophers:size ~meals:rounds
            ~patience:(1.0 -. p_bug) ~seed
    in
    Printf.printf "# workload %s; wcp procs: %s\n" w.Workloads.name
      (String.concat ","
         (List.map string_of_int (Array.to_list w.Workloads.procs)));
    emit_trace out w.Workloads.comp
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a workload computation trace.")
    Term.(const run $ kind $ size $ rounds $ p_bug $ seed_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* detect                                                              *)
(* ------------------------------------------------------------------ *)

(* "a, b or c" *)
let or_list names =
  match List.rev names with
  | last :: (_ :: _ as rest) ->
      String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat "" names

(* The detectors come from the table; the replay-only oracles are
   CLI-only arms. *)
let algo_arg =
  let names = Detectors.names @ [ "oracle"; "cooper-marzullo"; "strong" ] in
  let doc =
    Printf.sprintf
      "Algorithm: %s. parallel is the domain-parallel checker; strong \
       detects Definitely."
      (or_list names)
  in
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) names)) "token-vc"
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

(* [what] needs one of the table's detectors, not a replay oracle. *)
let detector_or_die what algo =
  match Detectors.find algo with
  | Ok d -> d
  | Error _ ->
      Printf.eprintf "wcpdetect: %s needs a detection algorithm (%s)\n" what
        (or_list Detectors.names);
      exit 2

let groups_arg =
  Arg.(
    value & opt positive_int 2
    & info [ "groups" ] ~docv:"G" ~doc:"Groups for multi-token (§3.5).")

let verbose_arg =
  Arg.(value & flag & info [ "per-process" ] ~doc:"Print per-process stats.")

let slice_arg =
  Arg.(
    value & flag
    & info [ "slice" ]
        ~doc:
          "Detect on the computation slice instead of the dense \
           computation (DESIGN.md §10): only predicate-true states (plus \
           the communication skeleton) are replayed, and the reported cut \
           is mapped back to dense state indices — byte-identical to the \
           dense run's cut. Detection algorithms only (not oracle, \
           cooper-marzullo or strong); with the checker, incompatible with \
           channel predicates.")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Replay the trace through the zero-copy btrace cursor: the \
           slice is built straight off the mmap'd file and the dense \
           computation is never materialised, so peak memory is \
           independent of trace length. Requires a binary trace (see \
           $(b,generate -o x.btrace) and $(b,convert)) and a detection \
           algorithm; detection runs on the slice, as with $(b,--slice).")

(* The DESIGN.md §3 accounting policy the space column follows; printed
   alongside --per-process output so the units are never ambiguous. *)
let space_policy =
  "space = high-water buffered words per process (32-bit words; vc snapshot \
   = width+1 words, dd snapshot = 1+2|deps|; DESIGN.md §3)"

(* --trace support: record the run's causal event log and export it. *)

let trace_out_arg =
  let doc = "Record the run's causal event trace to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_enum = [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]

let trace_format_arg =
  let doc =
    "Trace export format: jsonl (one event per line, greppable, feeds \
     $(b,wcpdetect explain)) or chrome (trace_event JSON; open in Perfetto \
     or chrome://tracing)."
  in
  Arg.(
    value
    & opt (enum trace_format_enum) `Jsonl
    & info [ "trace-format" ] ~docv:"FMT" ~doc)

let render_events format events =
  match format with
  | `Jsonl -> Wcp_obs.Export.jsonl events
  | `Chrome -> Wcp_obs.Export.chrome events

let write_trace recorder ~path ~format =
  let events = Wcp_obs.Recorder.events recorder in
  let data = render_events format events in
  if path = "-" then print_string data
  else begin
    write_output path data;
    let dropped = Wcp_obs.Recorder.dropped recorder in
    Printf.printf "trace: %d events -> %s%s\n" (Array.length events) path
      (if dropped > 0 then
         Printf.sprintf " (%d oldest overwritten by the ring)" dropped
       else "")
  end

(* --metrics-out support: stream wcp-metrics/1 telemetry from a tap on
   the run's recorder. When no --trace recorder exists, a capacity-1
   ring plus the tap is the bounded-memory streaming configuration —
   the tap sees every emission even though the ring retains none. *)

let metrics_out_arg =
  let doc =
    "Stream live telemetry (wcp-metrics/1 JSONL: per-window rates, hop-latency \
     p50/p95, recovery health gauges, per-phase allocation profile) to \
     $(docv); - for stdout. Feeds $(b,wcpdetect top)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_every_arg_of every =
  let doc = "Telemetry window width in sim-time units." in
  Arg.(
    value
    & opt every Wcp_obs.Telemetry.default_every
    & info [ "metrics-every" ] ~docv:"T" ~doc)

let metrics_every_arg = metrics_every_arg_of positive_float

let setup_metrics ~recorder ~metrics_out ~metrics_every =
  match metrics_out with
  | None -> (recorder, fun () -> ())
  | Some path ->
      let buf = Buffer.create 4096 in
      let tel =
        Wcp_obs.Telemetry.create ~every:metrics_every
          ~sink:(fun l ->
            Buffer.add_string buf l;
            Buffer.add_char buf '\n')
          ()
      in
      let recorder =
        match recorder with
        | Some r -> r
        | None -> Wcp_obs.Recorder.create ~capacity:1 ()
      in
      Wcp_obs.Telemetry.attach tel recorder;
      ( Some recorder,
        fun () ->
          Wcp_obs.Telemetry.close tel;
          if path = "-" then print_string (Buffer.contents buf)
          else begin
            write_output path (Buffer.contents buf);
            Printf.printf "metrics: %d lines -> %s\n"
              (Wcp_obs.Telemetry.lines tel)
              path
          end )

let run_algo ?fault ?recorder ?(slice = false) algo ~groups ~seed comp spec =
  let refuse_faults () =
    prerr_endline
      "wcpdetect: fault injection is only supported for the token algorithms";
    exit 2
  in
  match Detectors.find algo with
  | Ok d ->
      if fault <> None && not d.faults then refuse_faults ();
      Some
        ((if slice then Detectors.sliced d else d.run)
           ?fault ?recorder ~options:Detection.default_options ~groups ~seed
           comp spec)
  | Error _ -> (
      if slice then ignore (detector_or_die "--slice" algo);
      if fault <> None then refuse_faults ();
      if recorder <> None then ignore (detector_or_die "tracing" algo);
      match algo with
      | "oracle" ->
          Format.printf "oracle: %a@." Detection.pp_outcome
            (Oracle.first_cut comp spec);
          None
      | "cooper-marzullo" ->
          (match Cooper_marzullo.detect_wcp comp spec with
          | Ok (outcome, expl) ->
              Format.printf "cooper-marzullo: %a (explored %d cuts)@."
                Detection.pp_outcome outcome expl.Cooper_marzullo.cuts_explored
          | Error expl ->
              Format.printf "cooper-marzullo: limit after %d cuts@."
                expl.Cooper_marzullo.cuts_explored);
          None
      | _ ->
          (match Strong.definitely comp spec with
          | Some w ->
              Format.printf "strong: Definitely holds; witness intervals:";
              Array.iter
                (fun (iv : Strong.interval) ->
                  Format.printf " P%d:[%d,%d]" iv.Strong.proc iv.Strong.first
                    iv.Strong.last)
                w;
              Format.printf "@."
          | None -> Format.printf "strong: Definitely does not hold@.");
          None)

let detect_cmd =
  let run trace algo groups procs seed verbose slice stream drop dup crashes
      restarts fault_seed trace_out trace_format metrics_out metrics_every =
    let plan ~n ~procs =
      fault_plan ~trace ~algo ~n ~procs ~drop ~dup ~crashes ~restarts
        ~fault_seed
    in
    let outputs = Option.to_list trace_out @ Option.to_list metrics_out in
    let recorder =
      match trace_out with
      | None -> None
      | Some _ -> Some (Wcp_obs.Recorder.create ())
    in
    let recorder, finish_metrics =
      setup_metrics ~recorder ~metrics_out ~metrics_every
    in
    let result =
      if stream then begin
        if slice then begin
          prerr_endline
            "wcpdetect: --stream already detects on the slice; drop --slice";
          exit 2
        end;
        let d = detector_or_die "--stream" algo in
        let fail fmt =
          Printf.ksprintf
            (fun msg ->
              Printf.eprintf "wcpdetect: %s: %s\n" trace msg;
              exit 2)
            fmt
        in
        let reader =
          try Btrace.openfile trace with
          | Btrace.Corrupt msg -> fail "btrace: %s" msg
          | Unix.Unix_error (e, _, _) -> fail "%s" (Unix.error_message e)
        in
        let n = Btrace.num_processes reader in
        let procs_arr = procs_of ~trace ~n procs in
        let fault = plan ~n ~procs:procs_arr in
        create_outputs outputs;
        try
          Some
            (Run_common.with_source ?recorder ~keep_rest:d.keep_rest
               (Btrace.source reader) ~procs:procs_arr
               ~run:(fun sliced spec' ->
                 match
                   run_algo ?fault ?recorder algo ~groups ~seed sliced spec'
                 with
                 | Some r -> r
                 | None -> assert false))
        with
        | Btrace.Corrupt msg -> fail "btrace: %s" msg
        | Computation.Invalid msg -> fail "invalid computation: %s" msg
      end
      else begin
        let comp = load_trace trace in
        let spec = spec_of ~trace comp procs in
        let fault = plan ~n:(Computation.n comp) ~procs:(Spec.procs spec) in
        create_outputs outputs;
        run_algo ?fault ?recorder ~slice algo ~groups ~seed comp spec
      end
    in
    match result with
    | None -> ()
    | Some r ->
        Format.printf "%a@." Detection.pp_result r;
        if verbose then begin
          Format.printf "%a@." Stats.pp r.Detection.stats;
          Format.printf "%s@." space_policy
        end;
        (match (recorder, trace_out) with
        | Some rec_, Some path -> write_trace rec_ ~path ~format:trace_format
        | _ -> ());
        finish_metrics ()
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Run a detection algorithm on a trace.")
    Term.(
      const (fun () -> run) $ setup_logs $ trace_arg $ algo_arg $ groups_arg
      $ procs_arg $ seed_arg $ verbose_arg $ slice_arg $ stream_arg $ drop_arg
      $ dup_arg $ crash_arg $ restart_arg $ fault_seed_arg $ trace_out_arg
      $ trace_format_arg $ metrics_out_arg $ metrics_every_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let out =
    let doc = "Event log destination; - for stdout (suppresses the summary)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let format =
    let doc =
      "jsonl (one event per line; feeds $(b,wcpdetect explain)) or chrome \
       (trace_event JSON; open in Perfetto or chrome://tracing)."
    in
    Arg.(
      value
      & opt (enum trace_format_enum) `Jsonl
      & info [ "f"; "format" ] ~docv:"FMT" ~doc)
  in
  let run trace algo groups procs seed out format drop dup crashes restarts
      fault_seed metrics_out metrics_every =
    let comp = load_trace trace in
    let spec = spec_of ~trace comp procs in
    let fault =
      fault_plan ~trace ~algo ~n:(Computation.n comp) ~procs:(Spec.procs spec)
        ~drop ~dup ~crashes ~restarts ~fault_seed
    in
    create_outputs (out :: Option.to_list metrics_out);
    let recorder = Wcp_obs.Recorder.create () in
    let _, finish_metrics =
      setup_metrics ~recorder:(Some recorder) ~metrics_out ~metrics_every
    in
    match run_algo ?fault ~recorder algo ~groups ~seed comp spec with
    | None -> ()
    | Some r ->
        write_trace recorder ~path:out ~format;
        if out <> "-" then begin
          Format.printf "%a@." Detection.pp_result r;
          Format.printf "%a" Wcp_obs.Metrics.pp
            (Wcp_obs.Metrics.of_events (Wcp_obs.Recorder.events recorder))
        end;
        finish_metrics ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a detection algorithm and record its causal event trace (token \
          hops, eliminations, snapshots, polls, probes, retransmits).")
    Term.(
      const (fun () -> run) $ setup_logs $ trace_arg $ algo_arg $ groups_arg
      $ procs_arg $ seed_arg $ out $ format $ drop_arg $ dup_arg $ crash_arg
      $ restart_arg $ fault_seed_arg $ metrics_out_arg $ metrics_every_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let events_arg =
    let doc =
      "JSONL event log produced by $(b,wcpdetect trace) or $(b,--trace)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EVENTS" ~doc)
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:
            "Also narrate snapshot arrivals, poll exchanges, watchdog probes \
             and transport retransmits.")
  in
  let run file verbose =
    let data =
      try Wcp_obs.Export.read_file file
      with Sys_error m ->
        prerr_endline ("wcpdetect explain: " ^ m);
        exit 1
    in
    match Wcp_obs.Export.of_jsonl data with
    | Error m ->
        prerr_endline ("wcpdetect explain: " ^ m);
        exit 1
    | Ok events -> Wcp_obs.Explain.narrate ~verbose Format.std_formatter events
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay a recorded event log into a narrative: which comparison \
          eliminated which candidate, hop by hop.")
    Term.(const run $ events_arg $ verbose)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Render a parsed wcp-metrics/1 stream as a terminal dashboard. Plain
   fixed-width text with no escape codes in the table, so the one-shot
   mode is cram-testable; --follow only clears the screen between
   renders. *)
let render_top ppf (stream : Wcp_obs.Telemetry.line list) =
  let open Wcp_obs.Telemetry in
  let windows =
    List.filter_map (function Window w -> Some w | _ -> None) stream
  in
  let phases =
    List.filter_map (function Phase p -> Some p | _ -> None) stream
  in
  List.iter
    (function
      | Meta { algo; n; width; every } ->
          Format.fprintf ppf "run: %s  n=%d  width=%d  window=%g@." algo n
            width every
      | _ -> ())
    stream;
  if windows <> [] then begin
    Format.fprintf ppf
      "%6s %7s %7s %7s %6s %5s %6s %5s %6s %4s %8s %8s@." "window" "t0" "t1"
      "events" "elims" "hops" "polls" "retx" "ckpts" "wd" "hop-p50" "hop-p95";
    List.iter
      (fun w ->
        Format.fprintf ppf
          "%6d %7.1f %7.1f %7d %6d %5d %6d %5d %6d %4d %8.2f %8.2f@." w.idx
          w.t0 w.t1 w.events w.elims w.hops w.polls w.retx w.ckpts
          w.stand_downs w.hop_p50 w.hop_p95)
      windows;
    let last = List.nth windows (List.length windows - 1) in
    Format.fprintf ppf
      "health (cumulative): events=%d elims=%d retx=%d regens=%d ckpts=%d \
       wd-stand-downs=%d@."
      last.cum_events last.cum_elims last.cum_retx last.cum_regens
      last.cum_ckpts last.cum_stand_downs
  end;
  if phases <> [] then begin
    Format.fprintf ppf "phases:@.";
    List.iter
      (fun p ->
        Format.fprintf ppf "  %-9s %7.1f -> %7.1f  events=%-6d alloc=%dB@."
          p.phase p.p_t0 p.p_t1 p.p_events p.alloc_bytes)
      phases
  end;
  List.iter
    (function
      | Total { windows; events; elims; hops; phases } ->
          Format.fprintf ppf
            "totals: %d windows, %d events, %d eliminations, %d hops, %d \
             phases@."
            windows events elims hops phases
      | _ -> ())
    stream

let top_cmd =
  let file_arg =
    let doc =
      "wcp-metrics/1 JSONL stream: a file written by $(b,--metrics-out), or \
       a running detection service ($(b,unix:PATH) / $(b,tcp:HOST:PORT)) to \
       watch its live telemetry broadcast."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"METRICS" ~doc)
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Keep re-reading the stream and re-rendering every $(b,--interval) \
             seconds (live view of a run in progress; implied for a socket \
             address). Interrupt to quit.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh period with $(b,--follow).")
  in
  let run_socket addr interval =
    (* Live mode: attach to the server's metrics broadcast and fold
       arriving lines into the same dashboard. *)
    let w =
      try Wcp_serve.Client.watch ~retry:5. addr
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "wcpdetect top: cannot connect to %s: %s\n"
          (Wcp_serve.Protocol.addr_to_string addr)
          (Unix.error_message e);
        exit 1
    in
    let acc = ref [] (* parsed lines, newest first *) in
    let render () =
      print_string "\027[2J\027[H";
      render_top Format.std_formatter (List.rev !acc);
      flush stdout
    in
    let eof = ref false in
    render ();
    while not !eof do
      (match Wcp_serve.Client.watch_poll w ~timeout:interval with
      | `Eof -> eof := true
      | `Lines ls ->
          List.iter
            (fun l ->
              match Wcp_obs.Telemetry.decode_line l with
              | Ok line -> acc := line :: !acc
              | Error _ -> ())
            ls);
      render ()
    done;
    Wcp_serve.Client.watch_close w
  in
  let run file follow interval =
    match Wcp_serve.Protocol.parse_addr file with
    | Ok addr -> run_socket addr interval
    | Error _ ->
        let load () =
          match Wcp_obs.Export.read_file file with
          | exception Sys_error m -> Error m
          | data -> Wcp_obs.Telemetry.decode data
        in
        if not follow then (
          match load () with
          | Error m ->
              prerr_endline ("wcpdetect top: " ^ m);
              exit 1
          | Ok lines -> render_top Format.std_formatter lines)
        else
          while true do
            print_string "\027[2J\027[H";
            (match load () with
            | Error m ->
                Format.printf "wcpdetect top: waiting for stream (%s)@." m
            | Ok lines -> render_top Format.std_formatter lines);
            flush stdout;
            Unix.sleepf interval
          done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Tail a wcp-metrics/1 telemetry stream (from $(b,--metrics-out), or \
          live from a $(b,wcpdetect serve) socket) as a terminal view: \
          per-window rates, hop-latency percentiles, recovery health gauges \
          and the per-phase profile.")
    Term.(const run $ file_arg $ follow $ interval)

(* ------------------------------------------------------------------ *)
(* serve / feed — the streaming detection service                      *)
(* ------------------------------------------------------------------ *)

let parse_addr_or_die s =
  match Wcp_serve.Protocol.parse_addr s with
  | Ok a -> a
  | Error m ->
      Printf.eprintf "wcpdetect: %s\n" m;
      exit 2

let serve_cmd =
  let listen =
    let doc = "Listen address: $(b,unix:PATH) or $(b,tcp:HOST:PORT)." in
    Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let domains =
    let doc =
      "Worker shards (domains) draining sessions. Default: \
       WCP_DOMAINS or the machine's recommended count."
    in
    Arg.(
      value & opt (some positive_int) None & info [ "domains" ] ~docv:"D" ~doc)
  in
  let ring =
    let doc =
      "Per-session in-memory ingest ring, in events; overflow spills to \
       disk, so slow drains cost a file, never the heap."
    in
    Arg.(value & opt positive_int 4096 & info [ "ring" ] ~docv:"EVENTS" ~doc)
  in
  let batch =
    let doc = "Events decoded/drained per batch (one lock hold, one syscall)." in
    Arg.(value & opt positive_int 1024 & info [ "batch" ] ~docv:"EVENTS" ~doc)
  in
  let sessions =
    let doc = "Exit after this many session results (0 = serve forever)." in
    Arg.(value & opt int 0 & info [ "sessions" ] ~docv:"K" ~doc)
  in
  let spool =
    let doc = "Directory for spill files (default: the system temp dir)." in
    Arg.(value & opt (some string) None & info [ "spool" ] ~docv:"DIR" ~doc)
  in
  let drain_delay =
    let doc =
      "Artificial pause (seconds) after each drained batch — a deliberately \
       slow worker, for backpressure/spill testing."
    in
    Arg.(value & opt float 0. & info [ "drain-delay" ] ~docv:"SECS" ~doc)
  in
  let quiet =
    Arg.(value & flag & info [ "silent" ] ~doc:"Suppress lifecycle logging.")
  in
  let run () listen domains ring batch sessions spool drain_delay quiet =
    let addr = parse_addr_or_die listen in
    let log =
      if quiet then ignore
      else fun s -> Printf.eprintf "wcpdetect serve: %s\n%!" s
    in
    let cfg =
      {
        (Wcp_serve.Server.default_config ~addr) with
        domains;
        ring;
        batch;
        max_sessions = sessions;
        drain_delay;
        log;
      }
    in
    let cfg =
      match spool with Some d -> { cfg with spool_dir = d } | None -> cfg
    in
    (* The daemon owns the process: give the accepting domain (conn
       threads decode here) the same nursery the shard workers get. *)
    Wcp_serve.Server.tune_gc cfg.Wcp_serve.Server.gc_minor_words;
    (* OCaml runs a signal handler only when a thread of the main domain
       polls, and an idle daemon has every thread parked (shard workers
       in Condition.wait, the accept thread in select). So INT and TERM
       are blocked before any thread or domain starts, which all inherit
       the mask, and one thread takes them synchronously. *)
    let signals = [ Sys.sigint; Sys.sigterm ] in
    ignore (Thread.sigmask Unix.SIG_BLOCK signals : int list);
    let srv = Wcp_serve.Server.create cfg in
    ignore
      (Thread.create
         (fun () ->
           ignore (Thread.wait_signal signals : int);
           Wcp_serve.Server.stop srv)
         ()
        : Thread.t);
    Wcp_serve.Server.run srv;
    Printf.printf "served %d session%s\n"
      (Wcp_serve.Server.completed srv)
      (if Wcp_serve.Server.completed srv = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming detection service: accept concurrent \
          wcp-serve/1 sessions (JSONL or wcp-frame/1 binary events) and \
          shard them across domains. The checkers (checker, parallel) \
          eliminate candidates as events arrive and hold the cut the \
          moment its completing event is fed; the token algorithms slice \
          incrementally and detect on the finished slice. Sessions survive \
          disconnects: a reconnecting client resumes from the acked event.")
    Term.(
      const run $ setup_logs $ listen $ domains $ ring $ batch $ sessions
      $ spool $ drain_delay $ quiet)

let feed_cmd =
  let connect =
    let doc = "Service address: $(b,unix:PATH) or $(b,tcp:HOST:PORT)." in
    Arg.(
      required & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let algo =
    let doc = "Detection algorithm: " ^ or_list Detectors.names ^ "." in
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s, s)) Detectors.names)) "token-vc"
      & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)
  in
  let session =
    let doc = "Session id (reconnect with the same id to resume)." in
    Arg.(value & opt (some string) None & info [ "session" ] ~docv:"ID" ~doc)
  in
  let jsonl =
    Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:
            "Send events as wcp-events-style JSON lines instead of the \
             wcp-frame/1 binary framing.")
  in
  let rate =
    let doc = "Cap the send rate (events/second; 0 = unlimited)." in
    Arg.(value & opt float 0. & info [ "rate" ] ~docv:"EPS" ~doc)
  in
  let batch =
    let doc = "Events per frame/write." in
    Arg.(value & opt int 1024 & info [ "batch" ] ~docv:"EVENTS" ~doc)
  in
  let kill_after =
    let doc =
      "Drop the connection abruptly after sending this many events (no \
       finish) — exercises the reconnect/replay path."
    in
    Arg.(value & opt (some int) None & info [ "kill-after" ] ~docv:"K" ~doc)
  in
  let retry =
    let doc = "Keep retrying the initial connect for this many seconds." in
    Arg.(value & opt float 5. & info [ "retry" ] ~docv:"SECS" ~doc)
  in
  let metrics_out =
    let doc =
      "Write the session's streamed wcp-metrics/1 lines to $(docv); - for \
       stderr."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Also report costs and latency to stderr.")
  in
  let run () trace connect algo groups procs seed session jsonl rate batch
      kill_after retry metrics_out metrics_every verbose =
    let addr = parse_addr_or_die connect in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "wcpdetect feed: %s\n" msg;
          exit 1)
        fmt
    in
    (* Same autodetection as detect --stream: a btrace streams through
       its cursor without materialising; anything else loads dense. *)
    let src =
      let looks_btrace =
        match open_in_bin trace with
        | exception Sys_error m -> fail "%s" m
        | ic ->
            let m = really_input_string ic (min 8 (in_channel_length ic)) in
            close_in ic;
            Btrace.is_magic m
      in
      if looks_btrace then
        match Btrace.openfile trace with
        | r -> Btrace.source r
        | exception Btrace.Corrupt msg -> fail "btrace: %s" msg
      else Computation.Stream.of_computation (load_trace trace)
    in
    let n = src.Computation.Stream.src_n in
    let procs_arr = procs_of ~trace ~n procs in
    let session =
      match session with
      | Some s -> s
      | None -> Printf.sprintf "%s-%s" (Filename.basename trace) algo
    in
    let mbuf = Buffer.create 4096 in
    let on_metrics l =
      Buffer.add_string mbuf l;
      Buffer.add_char mbuf '\n'
    in
    let metrics_every =
      match metrics_out with
      | Some _ when metrics_every = 0. -> Wcp_obs.Telemetry.default_every
      | _ -> metrics_every
    in
    let frames =
      if jsonl then Wcp_serve.Protocol.Jsonl else Wcp_serve.Protocol.Binary
    in
    create_outputs (Option.to_list metrics_out);
    match
      Wcp_serve.Client.run_session ~frames ~batch ~rate ?kill_after ~retry
        ~metrics_every ~on_metrics ~groups ~addr ~session ~algo
        ~procs:procs_arr ~seed src
    with
    | Error m -> fail "%s" m
    | Ok (Wcp_serve.Client.Killed k) ->
        Printf.eprintf "wcpdetect feed: killed after %d events (as asked)\n" k
    | Ok (Wcp_serve.Client.Completed o) ->
        print_endline o.Wcp_serve.Client.outcome;
        if verbose then
          Printf.eprintf
            "wcpdetect feed: events=%d msgs=%d bits=%d hops=%d lat=%.3fms\n"
            o.Wcp_serve.Client.events o.Wcp_serve.Client.msgs
            o.Wcp_serve.Client.bits o.Wcp_serve.Client.hops
            (float_of_int o.Wcp_serve.Client.lat_ns /. 1e6);
        (match metrics_out with
        | None -> ()
        | Some "-" -> prerr_string (Buffer.contents mbuf)
        | Some path -> write_output path (Buffer.contents mbuf))
  in
  Cmd.v
    (Cmd.info "feed"
       ~doc:
         "Stream a trace to a running detection service ($(b,wcpdetect \
          serve)) and print the detected outcome — byte-identical to \
          $(b,wcpdetect detect) on the same trace. The event order is the \
          canonical linearization, so reconnecting with the same \
          $(b,--session) resumes exactly where the server's ack left off.")
    Term.(
      const run $ setup_logs $ trace_arg $ connect $ algo $ groups_arg
      $ procs_arg $ seed_arg $ session $ jsonl $ rate $ batch $ kill_after
      $ retry $ metrics_out
      (* 0 turns the session's telemetry off *)
      $ metrics_every_arg_of Arg.float
      $ verbose)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let algo =
    let names =
      List.filter_map
        (fun (d : Detectors.t) -> if d.faults then Some d.name else None)
        Detectors.all
    in
    let doc = "Algorithm under test: " ^ or_list names ^ "." in
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s, s)) names)) "token-vc"
      & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)
  in
  let run trace algo groups procs seed drop dup crashes restarts fault_seed
      trace_out trace_format metrics_out metrics_every =
    let comp = load_trace trace in
    let spec = spec_of ~trace comp procs in
    let fault =
      fault_plan ~trace ~algo ~n:(Computation.n comp) ~procs:(Spec.procs spec)
        ~drop ~dup ~crashes ~restarts ~fault_seed
    in
    let d = detector_or_die "chaos" algo in
    create_outputs (Option.to_list trace_out @ Option.to_list metrics_out);
    let recorder =
      match trace_out with
      | None -> None
      | Some _ -> Some (Wcp_obs.Recorder.create ())
    in
    let recorder, finish_metrics =
      setup_metrics ~recorder ~metrics_out ~metrics_every
    in
    let r =
      d.run ?fault ?recorder ~options:Detection.default_options ~groups ~seed
        comp spec
    in
    (match (recorder, trace_out) with
    | Some rec_, Some path -> write_trace rec_ ~path ~format:trace_format
    | _ -> ());
    let out = Detectors.spec_outcome d spec r.Detection.outcome in
    let oracle =
      match out with
      | Detection.Undetectable_crashed _ -> "degraded"
      | _ ->
          if Detection.outcome_equal out (Oracle.first_cut comp spec) then
            "match"
          else "MISMATCH"
    in
    let st = r.Detection.stats in
    Format.printf
      "chaos %s drop=%.2f dup=%.2f crashes=%d: %a | retransmits=%d \
       dup-suppressed=%d net-drop=%d net-dup=%d crash-drop=%d | oracle: %s@."
      algo drop dup (List.length crashes) Detection.pp_outcome out
      (Stats.total_retransmits st)
      (Stats.total_dups_suppressed st)
      (Stats.net_dropped st) (Stats.net_duplicated st) (Stats.crash_dropped st)
      oracle;
    (* Recovery line only when someone restarts: restart-free chaos
       output stays byte-identical to the pre-recovery pins. *)
    if restarts <> [] then
      Format.printf
        "recovery restarts=%d: checkpoints=%d restores=%d replayed=%d \
         wd-stand-downs=%d@."
        (List.length restarts) (Stats.checkpoints st)
        (Stats.restores st) (Stats.replayed st)
        (Stats.wd_stand_downs st);
    finish_metrics ()
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a token algorithm under a deterministic fault plan and compare           its verdict with the fault-free oracle.")
    Term.(
      const run $ trace_arg $ algo $ groups_arg $ procs_arg $ seed_arg
      $ drop_arg $ dup_arg $ crash_arg $ restart_arg $ fault_seed_arg
      $ trace_out_arg $ trace_format_arg $ metrics_out_arg $ metrics_every_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run trace procs seed =
    let comp = load_trace trace in
    let spec = spec_of ~trace comp procs in
    let oracle = Oracle.first_cut comp spec in
    Format.printf "oracle: %a@.@." Detection.pp_outcome oracle;
    Format.printf "%-14s %8s %10s %9s %9s %9s %6s %6s@." "algorithm" "msgs"
      "bits" "work" "max-work" "max-space" "hops" "time";
    List.iter
      (fun (d : Detectors.t) ->
        let r =
          d.run ~options:Detection.default_options ~groups:2 ~seed comp spec
        in
        let out = Detectors.spec_outcome d spec r.Detection.outcome in
        let agree = Detection.outcome_equal out oracle in
        Format.printf "%-14s %8d %10d %9d %9d %9d %6d %6.1f%s@." d.name
          (Stats.total_sent r.Detection.stats)
          (Stats.total_bits r.Detection.stats)
          (Stats.total_work r.Detection.stats)
          (Stats.max_work r.Detection.stats)
          (Stats.max_space r.Detection.stats)
          r.Detection.extras.Detection.token_hops r.Detection.sim_time
          (if agree then "" else "  << DISAGREES"))
      Detectors.all
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every algorithm on a trace and tabulate.")
    Term.(const run $ trace_arg $ procs_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* render                                                              *)
(* ------------------------------------------------------------------ *)

let render_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("ascii", `Ascii); ("dot", `Dot) ]) `Ascii
      & info [ "f"; "format" ] ~docv:"FMT" ~doc:"ascii or dot.")
  in
  let mark =
    Arg.(
      value & flag
      & info [ "mark-first-cut" ]
          ~doc:"Highlight the oracle's first satisfying cut.")
  in
  let run trace format procs mark =
    let comp = load_trace trace in
    let cut =
      if mark then
        match Oracle.first_cut comp (spec_of ~trace comp procs) with
        | Detection.Detected cut -> Some cut
        | Detection.No_detection | Detection.Undetectable_crashed _ -> None
      else None
    in
    match format with
    | `Ascii -> print_string (Render.ascii ?cut comp)
    | `Dot -> print_string (Render.dot ?cut comp)
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render a trace as text or Graphviz.")
    Term.(const run $ trace_arg $ format $ procs_arg $ mark)

(* ------------------------------------------------------------------ *)
(* gcp                                                                 *)
(* ------------------------------------------------------------------ *)

(* empty:SRC-DST, atleastK:SRC-DST or atmostK:SRC-DST; whether the
   trace has SRC and DST is checked once it is loaded. *)
let channel_conv =
  let nat s =
    match int_of_string_opt s with Some k when k >= 0 -> Some k | _ -> None
  in
  let parse spec =
    let kind, ends =
      match String.split_on_char ':' spec with
      | [ kind; pair ] -> (kind, List.map nat (String.split_on_char '-' pair))
      | _ -> ("", [])
    in
    let bound prefix =
      let l = String.length prefix in
      if String.length kind > l && String.sub kind 0 l = prefix then
        nat (String.sub kind l (String.length kind - l))
      else None
    in
    match (ends, bound "atleast", bound "atmost") with
    | [ Some src; Some dst ], _, _ when kind = "empty" ->
        Ok (Gcp.empty ~src ~dst)
    | [ Some src; Some dst ], Some k, _ -> Ok (Gcp.at_least k ~src ~dst)
    | [ Some src; Some dst ], _, Some k -> Ok (Gcp.at_most k ~src ~dst)
    | _ ->
        Error
          (Printf.sprintf
             "%S: want empty:SRC-DST, atleastK:SRC-DST or atmostK:SRC-DST" spec)
  in
  Arg.conv' ~docv:"SPEC"
    (parse, fun ppf cp -> Format.pp_print_string ppf (Gcp.name cp))

let gcp_cmd =
  let channels =
    Arg.(
      value & opt_all channel_conv []
      & info [ "c"; "channel" ] ~docv:"SPEC"
          ~doc:
            "Channel predicate, e.g. empty:0-1, atleast2:0-1, atmost3:2-0.              Repeatable.")
  in
  let online =
    Arg.(
      value & flag
      & info [ "online" ]
          ~doc:"Run the online centralized checker instead of the offline                 algorithm.")
  in
  let run trace channels procs online seed =
    let comp = load_trace trace in
    let spec = spec_of ~trace comp procs in
    List.iter
      (fun cp ->
        let src, dst = Gcp.endpoints cp in
        ignore (procs_of ~trace ~n:(Computation.n comp) (Some [| src; dst |])))
      channels;
    if online then
      let r = Checker_gcp.detect ~seed ~channels comp spec in
      Format.printf "%a@." Detection.pp_result r
    else
      Format.printf "%a@." Detection.pp_outcome (Gcp.detect comp spec ~channels)
  in
  Cmd.v
    (Cmd.info "gcp" ~doc:"Detect a generalized conjunctive predicate.")
    Term.(const run $ trace_arg $ channels $ procs_arg $ online $ seed_arg)

(* ------------------------------------------------------------------ *)
(* live                                                                *)
(* ------------------------------------------------------------------ *)

let live_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("vc", Instrument.Vc); ("dd", Instrument.Dd) ]) Instrument.Vc
      & info [ "mode" ] ~docv:"MODE" ~doc:"vc or dd monitoring mode.")
  in
  let p_bug =
    Arg.(
      value & opt probability 0.4
      & info [ "p-bug" ] ~docv:"P" ~doc:"Coordinator race probability.")
  in
  let clients =
    Arg.(
      value & opt at_least_two 3 & info [ "clients" ] ~docv:"K" ~doc:"Clients.")
  in
  let rounds =
    Arg.(
      value & opt positive_int 3
      & info [ "rounds" ] ~docv:"R" ~doc:"CS entries each.")
  in
  let run mode p_bug clients rounds seed =
    let r = Live_mutex.run ~p_bug ~mode ~clients ~rounds ~seed () in
    let spec = Spec.make r.Live_mutex.recorded r.Live_mutex.wcp_procs in
    let online =
      match mode with
      | Instrument.Vc -> r.Live_mutex.online
      | Instrument.Dd -> Detection.project_outcome spec r.Live_mutex.online
    in
    (match (online, r.Live_mutex.detection_time) with
    | Detection.Detected cut, Some t ->
        Format.printf "online verdict: VIOLATION at %a (sim time %.0f of %.0f)@."
          Cut.pp cut t r.Live_mutex.sim_time
    | Detection.Detected cut, None ->
        Format.printf "online verdict: VIOLATION at %a@." Cut.pp cut
    | Detection.No_detection, _ ->
        Format.printf "online verdict: clean run (%.0f time units)@."
          r.Live_mutex.sim_time
    | (Detection.Undetectable_crashed _ as o), _ ->
        Format.printf "online verdict: %a@." Detection.pp_outcome o);
    let expected = Oracle.first_cut r.Live_mutex.recorded spec in
    Format.printf "offline oracle on the recording: %a (%s)@."
      Detection.pp_outcome expected
      (if Detection.outcome_equal online expected then "matches"
       else "MISMATCH")
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:"Run a live instrumented mutual-exclusion system under online              monitoring (Fig. 1).")
    Term.(const run $ mode $ p_bug $ clients $ rounds $ seed_arg)

(* ------------------------------------------------------------------ *)
(* lowerbound                                                          *)
(* ------------------------------------------------------------------ *)

let lowerbound_cmd =
  let n =
    Arg.(value & opt at_least_two 8 & info [ "n" ] ~docv:"N" ~doc:"Queues.")
  in
  let m =
    Arg.(
      value & opt positive_int 16
      & info [ "m" ] ~docv:"M" ~doc:"States per queue.")
  in
  let run n m =
    let world, stats = Wcp_lowerbound.Adversary.make ~n ~m in
    let answer, trace = Wcp_lowerbound.Detector.run world in
    (match answer with
    | Wcp_lowerbound.Detector.Antichain _ ->
        print_endline "BUG: adversary conceded an antichain"
    | Wcp_lowerbound.Detector.No_antichain ->
        Printf.printf "no antichain (as the adversary guarantees)\n");
    Printf.printf
      "n=%d m=%d: %d rounds, %d deletions (forced lower bound nm - n = %d)\n" n
      m trace.Wcp_lowerbound.Detector.rounds
      trace.Wcp_lowerbound.Detector.deletions
      ((n * m) - n);
    Printf.printf "adversary answered %d comparisons\n"
      stats.Wcp_lowerbound.Adversary.comparisons_answered
  in
  Cmd.v
    (Cmd.info "lowerbound" ~doc:"Play the Theorem 5.1 adversary game.")
    Term.(const run $ n $ m)

let () =
  let info =
    Cmd.info "wcpdetect" ~version:"1.0.0"
      ~doc:"Distributed detection of weak conjunctive predicates (Garg & Chase, ICDCS 1995)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            convert_cmd;
            workload_cmd;
            detect_cmd;
            trace_cmd;
            explain_cmd;
            top_cmd;
            serve_cmd;
            feed_cmd;
            chaos_cmd;
            compare_cmd;
            render_cmd;
            gcp_cmd;
            live_cmd;
            lowerbound_cmd;
          ]))
