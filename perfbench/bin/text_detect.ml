(* text-detect: the dense [wcpdetect detect --metrics-out] path.
   Trace_codec.read_file -> detector on the dense computation, with a
   capacity-1 Recorder and a Telemetry tap attached (sink discarded).
   Predicates are sparse and every process's final state holds, so the
   first cut lands late: the text codec, the engine-simulated detectors
   and telemetry do the work, and the slice layer does none. *)

open Wcp_trace
open Wcp_core
open Workload

let name = "text-detect"

let write_layer = "trace_codec.write_ms"

(* (processes, sends per process, detector); see Btrace_replay.shapes
   for why three distinct sizes. *)
let shapes =
  [| (8, 5_750, "token-vc"); (16, 4_400, "token-dd"); (32, 2_100, "checker") |]

let p_pred = 0.002

type input = {
  path : string;
  algo : string;
  events : int;
  bytes : int;
  oracle : Detection.outcome;
}

type t = { inputs : input array; write_ms : float }

(* The final state of every process always holds: final states are
   pairwise concurrent, so a cut exists, and with sparse predicates it
   is usually that last one. *)
let generate ~n ~m ~seed =
  let params = { Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 } in
  let comp = Generator.random ~params ~seed () in
  Computation.reflag comp ~pred:(fun ~proc ~state ->
      state = Computation.num_states comp proc
      || Computation.pred comp (State.make ~proc ~index:state))

let setup ~dir ~seed =
  let write = ref 0. in
  let inputs =
    rotation shapes
      (fun i (n, m, algo) ->
        let path = Filename.concat dir (Printf.sprintf "in%d.trace" i) in
        let comp = generate ~n ~m ~seed:(input_seed seed i) in
        let t0 = now () in
        Trace_codec.write_file path comp;
        write := !write +. ms t0 (now ());
        let events = Computation.total_states comp - n in
        let oracle = Oracle.first_cut comp (Spec.all comp) in
        settle ();
        { path; algo; events; bytes = (Unix.stat path).Unix.st_size; oracle })
  in
  { inputs; write_ms = !write }

let inputs t = Array.length t.inputs

let write_ms t = t.write_ms

let close _ = ()

let tapped () =
  let tel = Wcp_obs.Telemetry.create ~sink:ignore () in
  let recorder = Wcp_obs.Recorder.create ~capacity:1 () in
  Wcp_obs.Telemetry.attach tel recorder;
  (recorder, tel)

(* Token-dd's cut spans all N processes; the spec is all of them, so
   the projection is the identity for every detector used here. *)
let matches inp spec (r : Detection.result) =
  Detection.outcome_equal
    (Detection.project_outcome spec r.Detection.outcome)
    inp.oracle

let verdict t i =
  let inp = t.inputs.(i) in
  let t0 = now () in
  let comp = Trace_codec.read_file inp.path in
  let t_dec = now () in
  let spec = Spec.all comp in
  let recorder, tel = tapped () in
  let r = detect ~recorder inp.algo comp spec in
  Wcp_obs.Telemetry.close tel;
  let t1 = now () in
  {
    ok = matches inp spec r;
    ms = ms t0 t1;
    cut_ms = ms t_dec t1;
    events = inp.events;
  }

let traced t i =
  let inp = t.inputs.(i) in
  let mi0, ma0 = collections () in
  let a0 = alloc_words () in
  let t0 = now () in
  let comp = Trace_codec.read_file inp.path in
  let t_dec = now () in
  let a_dec = alloc_words () in
  let spec = Spec.all comp in
  let recorder, tel = tapped () in
  let td0 = now () in
  let r = detect ~recorder inp.algo comp spec in
  Wcp_obs.Telemetry.close tel;
  let t1 = now () in
  let a1 = alloc_words () in
  let mi1, ma1 = collections () in
  (* off the verdict path: the same detector without the tap *)
  let ab0 = alloc_words () in
  let tb0 = now () in
  let bare = detect inp.algo comp spec in
  let tb1 = now () in
  let ab1 = alloc_words () in
  let decode_ms = ms t0 t_dec and tapped_ms = ms td0 t1 in
  let detect_ms = ms tb0 tb1 in
  let engine_events = bare.Detection.events in
  {
    v =
      {
        ok = matches inp spec r && matches inp spec bare;
        ms = ms t0 t1;
        cut_ms = ms t_dec t1;
        events = inp.events;
      };
    decode_ms;
    detect_ms;
    engine_events;
    path_layers_ms = decode_ms +. tapped_ms;
    alloc_words = a1 -. a0;
    minor_gcs = mi1 - mi0;
    major_gcs = ma1 - ma0;
    extra =
      [
        ("trace_codec.decode_ms", "ms", decode_ms);
        ( "trace_codec.alloc_words_per_byte",
          "words",
          (a_dec -. a0) /. float_of_int inp.bytes );
        ("detect.ms", "ms", detect_ms);
        ("detect.engine_events", "count", float_of_int engine_events);
        ( "detect.messages",
          "count",
          float_of_int (Wcp_sim.Stats.total_sent bare.Detection.stats) );
        ( "detect.work",
          "count",
          float_of_int (Wcp_sim.Stats.total_work bare.Detection.stats) );
        ( "detect.alloc_words_per_engine_event",
          "words",
          (ab1 -. ab0) /. float_of_int (max 1 engine_events) );
        ("telemetry.ms", "ms", tapped_ms -. detect_ms);
        ("telemetry.lines", "count", float_of_int (Wcp_obs.Telemetry.lines tel));
      ];
  }
