(* btrace-replay: the [wcpdetect detect --stream] path. Btrace.openfile
   -> Btrace.source -> Run_common.with_source (Slice.for_spec_source)
   -> detector, over a fixed rotation of generated .btrace files whose
   predicate density puts the first cut early, so btrace decoding and
   slice construction do nearly all the work. *)

open Wcp_trace
open Wcp_core
open Perfbench
open Workload
module Slice = Wcp_slice.Slice

let name = "btrace-replay"

let write_layer = "btrace.write_ms"

(* (processes, sends per process, detector). Each shape's verdicts
   form their own cluster of times; with three clusters p50 lies inside
   the middle one and p90 inside the slowest, never on a boundary
   between two. *)
let shapes =
  [| (8, 31_250, "checker"); (16, 6_250, "token-dd"); (32, 1_600, "checker") |]

let p_pred = 0.3

type input = {
  path : string;
  n : int;
  algo : string;
  procs : int array;
  events : int;
  oracle : Detection.outcome;
  complete : Locate.completing option;
  mutable reads_per_event : float option;  (* counted on first use *)
}

type t = { inputs : input array; write_ms : float }

let setup ~dir ~seed =
  let write = ref 0. in
  let inputs =
    rotation shapes
      (fun i (n, m, algo) ->
        let path = Filename.concat dir (Printf.sprintf "in%d.btrace" i) in
        let params =
          { Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }
        in
        let t0 = now () in
        ignore (Generator.random_btrace ~params ~seed:(input_seed seed i) path);
        write := !write +. ms t0 (now ());
        let comp = Btrace.read_file path in
        let oracle = Oracle.first_cut comp (Spec.all comp) in
        let complete =
          match oracle with
          | Detection.Detected cut ->
              Locate.completing_event (Computation.Stream.of_computation comp) cut
          | Detection.No_detection | Detection.Undetectable_crashed _ -> None
        in
        let events = Computation.total_states comp - n in
        settle ();
        {
          path;
          n;
          algo;
          procs = Array.init n Fun.id;
          events;
          oracle;
          complete;
          reads_per_event = None;
        })
  in
  { inputs; write_ms = !write }

let inputs t = Array.length t.inputs

let write_ms t = t.write_ms

let close _ = ()

(* The slicer reads a state's flag exactly when it consumes the event
   entering that state, so the first read of the completing state's
   flag is the moment the cut-completing event became available. *)
let stamped (c : Locate.completing option) (src : Computation.Stream.source)
    stamp =
  match c with
  | None -> src
  | Some c ->
      let pred = src.Computation.Stream.pred in
      {
        src with
        Computation.Stream.pred =
          (fun ~proc ~state ->
            if state = c.Locate.state && proc = c.Locate.proc && !stamp = 0. then
              stamp := now ();
            pred ~proc ~state);
      }

let cut_ms ~t0 ~t1 stamp = ms (if !stamp = 0. then t0 else !stamp) t1

let verdict t i =
  let inp = t.inputs.(i) in
  let stamp = ref 0. in
  let t0 = now () in
  let src = stamped inp.complete (Btrace.source (Btrace.openfile inp.path)) stamp in
  let r =
    Run_common.with_source ~keep_rest:(keep_rest inp.algo) src ~procs:inp.procs
      ~run:(detect inp.algo)
  in
  let t1 = now () in
  {
    ok = Detection.outcome_equal r.Detection.outcome inp.oracle;
    ms = ms t0 t1;
    cut_ms = cut_ms ~t0 ~t1 stamp;
    events = inp.events;
  }

(* op + pred cursor calls the slicer makes per event — deterministic,
   so counted once per input, off the timed path. *)
let reads_per_event inp =
  match inp.reads_per_event with
  | Some r -> r
  | None ->
      let src = Btrace.source (Btrace.openfile inp.path) in
      let calls = ref 0 in
      let op = src.Computation.Stream.op and pred = src.Computation.Stream.pred in
      let counting =
        {
          src with
          Computation.Stream.op =
            (fun ~proc ~k ->
              incr calls;
              op ~proc ~k);
          pred =
            (fun ~proc ~state ->
              incr calls;
              pred ~proc ~state);
        }
      in
      ignore
        (Slice.for_spec_source ~keep_rest:(keep_rest inp.algo) counting
           ~procs:inp.procs);
      let r = float_of_int !calls /. float_of_int inp.events in
      inp.reads_per_event <- Some r;
      r

(* A bare pass reading every op and flag once through the cursor of a
   fresh mapping (which pays its own page faults, as the verdict's
   does): the btrace decode share of the slicer's time. *)
let scan_ms path =
  let src = Btrace.source (Btrace.openfile path) in
  let t0 = now () in
  let acc = ref 0 in
  for p = 0 to src.Computation.Stream.src_n - 1 do
    let k = src.Computation.Stream.num_ops p in
    for j = 0 to k - 1 do
      match src.Computation.Stream.op ~proc:p ~k:j with
      | Computation.Send { msg; _ } | Computation.Recv { msg } -> acc := !acc + msg
    done;
    for s = 1 to k + 1 do
      if src.Computation.Stream.pred ~proc:p ~state:s then incr acc
    done
  done;
  ignore (Sys.opaque_identity !acc);
  ms t0 (now ())

let traced t i =
  let inp = t.inputs.(i) in
  let reads = reads_per_event inp in
  let stamp = ref 0. in
  let mi0, ma0 = collections () in
  let a0 = alloc_words () in
  let t0 = now () in
  let src = stamped inp.complete (Btrace.source (Btrace.openfile inp.path)) stamp in
  let t_open = now () in
  let a_open = alloc_words () in
  let sl =
    Slice.for_spec_source ~keep_rest:(keep_rest inp.algo) src ~procs:inp.procs
  in
  let t_slice = now () in
  let a_slice = alloc_words () in
  let sliced = Slice.computation sl in
  let spec = Spec.make sliced inp.procs in
  let td0 = now () in
  let r = detect inp.algo sliced spec in
  let td1 = now () in
  let outcome = Detection.remap_outcome (Slice.remap_cut sl) r.Detection.outcome in
  let t1 = now () in
  let a1 = alloc_words () in
  let mi1, ma1 = collections () in
  let scan = scan_ms inp.path in
  let events = float_of_int inp.events in
  let open_ms = ms t0 t_open and slice_ms = ms t_open t_slice in
  let detect_ms = ms td0 td1 in
  {
    v =
      {
        ok = Detection.outcome_equal outcome inp.oracle;
        ms = ms t0 t1;
        cut_ms = cut_ms ~t0 ~t1 stamp;
        events = inp.events;
      };
    decode_ms = scan;
    detect_ms;
    engine_events = r.Detection.events;
    path_layers_ms = open_ms +. slice_ms +. detect_ms;
    alloc_words = a1 -. a0;
    minor_gcs = mi1 - mi0;
    major_gcs = ma1 - ma0;
    extra =
      [
        ("btrace.open_ms", "ms", open_ms);
        ("btrace.scan_ms", "ms", scan);
        ("btrace.reads_per_event", "calls", reads);
        ("slice.build_ms", "ms", slice_ms -. scan);
        ("slice.alloc_words_per_event", "words", (a_slice -. a_open) /. events);
        ( "slice.retained_ratio",
          "ratio",
          float_of_int (Slice.retained_states sl) /. (events +. float_of_int inp.n) );
        ("detect.ms", "ms", detect_ms);
        ("gc.major_collections", "count", float_of_int (ma1 - ma0));
      ];
  }
