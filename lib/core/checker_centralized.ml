open Wcp_trace
open Wcp_sim

let run ?network ?recorder ~seed ~algo ~procs ~words ~state ~clock ~decode
    ~app ?(on_full = fun _ _ -> false) comp =
  let n = Computation.n comp in
  let width = Array.length procs in
  let engine = Run_common.make_engine ?network ?recorder ~seed comp in
  Run_common.emit_run_meta engine ~algo ~n ~width;
  (* Fetched once; tracing off means every hook below is one match. *)
  let recorder = Engine.recorder engine in
  let emit ctx body =
    match recorder with
    | None -> ()
    | Some r ->
        Wcp_obs.Recorder.emit r ~time:(Engine.time ctx) ~proc:(Engine.self ctx)
          body
  in
  let checker = Run_common.extra_id ~n in
  let slot = Array.make n (-1) in
  Array.iteri (fun k p -> slot.(p) <- k) procs;
  let outcome = ref None in
  let snapshots_seen = ref 0 in
  let el = Elimination.create ~columns:(Array.init width Fun.id) ~state ~clock in
  let finished = Array.make width false in
  let queued_words = ref 0 in
  let narrate_hb ctx =
    match recorder with
    | None -> None
    | Some _ ->
        Some
          (fun ~victim ~by ->
            let v = Option.get (Elimination.candidate el victim)
            and b = Option.get (Elimination.candidate el by) in
            emit ctx
              (Wcp_obs.Event.Hb_eliminated
                 {
                   victim_k = victim;
                   victim_proc = procs.(victim);
                   victim_state = state v;
                   victim_clock = Array.copy (clock v);
                   by_k = by;
                   by_proc = procs.(by);
                   by_state = state b;
                   by_clock = Array.copy (clock b);
                 }))
  in
  let rec settle ctx =
    let fills = Elimination.drive ?on_eliminate:(narrate_hb ctx) el in
    Engine.charge_work ctx (fills * width);
    queued_words := !queued_words - (fills * words);
    if Elimination.full el then begin
      if on_full ctx el then settle ctx
      else
        Run_common.declare outcome ctx
          (Detection.Detected
             (Cut.make ~procs ~states:(Elimination.states el)))
    end
    else if Elimination.starved el ~finished then
      Run_common.declare outcome ctx Detection.No_detection
  in
  let on_message ctx ~src msg =
    let k = slot.(src) in
    match msg with
    | Messages.App_done ->
        finished.(k) <- true;
        settle ctx
    | msg ->
        let c = decode k msg in
        incr snapshots_seen;
        emit ctx (Wcp_obs.Event.Snapshot_arrived { src; state = state c });
        Elimination.push el k c;
        queued_words := !queued_words + words;
        Engine.note_space ctx !queued_words;
        settle ctx
  in
  Engine.set_handler engine checker on_message;
  app engine (Run_common.raw_net engine);
  let result = Run_common.finish engine ~outcome ~extras:Detection.no_extras in
  { result with extras = { result.extras with snapshots = !snapshots_seen } }

let detect ?network ?recorder ?(options = Detection.default_options) ~seed
    comp spec =
  let width = Spec.width spec in
  (* One decode cache per inbound (spec process -> checker) channel. *)
  let decoders = Array.init width (fun _ -> Wire.snap_decoder ~width) in
  let checker = Run_common.extra_id ~n:(Computation.n comp) in
  run ?network ?recorder ~seed ~algo:"checker" ~procs:(Spec.procs spec)
    ~words:(width + 1)
    ~state:(fun (s : Snapshot.vc) -> s.state)
    ~clock:(fun (s : Snapshot.vc) -> s.clock)
    ~decode:(fun k msg -> Wire.decode_snap decoders.(k) msg)
    ~app:
      (App_replay.vc ~delta:options.Detection.delta
         ~dst:(fun _ -> checker)
         comp spec)
    comp
