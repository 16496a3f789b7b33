(* Domain-parallel checker: Garg's round-based parallel predicate
   detection (arXiv 2008.12516) over the snapshot streams the
   centralized checker consumes.

   The algorithm materializes each spec process's (gated, delta-coded)
   snapshot stream, then repeats {e frontier rounds}: freeze the
   frontier G (the first standing candidate of every slot), compute per
   column k the threshold

     M_k = max over l <> k of G[l].clock.(k)

   and advance every slot k past its locally-eliminated candidates —
   all those [a] with [a.clock.(k) <= M_k], i.e. exactly the
   candidates that happened before some other slot's frontier element
   (the centralized checker's [hb] rule). The per-slot advances are
   independent (slot k only reads the frozen thresholds and writes its
   own head), so each round fans them across domains through
   [Parallel.run]; one [Parallel.scoped_pool] per detection means the
   rounds reuse parked worker domains instead of respawning them.

   A round that eliminates nothing has a pairwise-concurrent frontier —
   by the elimination rule's confluence that is the unique least
   satisfying cut, so the reported cut is byte-identical to
   [Checker_centralized] and to [Oracle.first_cut], at any domain
   count. A slot whose stream runs dry proves no satisfying cut
   exists.

   Unlike the five other detectors this one runs no discrete-event
   engine: the streams are priced at the same wire costs (same
   encoder, same bits), but there is no simulated network and
   [sim_time] is 0. That is the point — it is the wall-clock
   contender (experiment E18). *)

open Wcp_trace
open Wcp_sim

let detect ?recorder ?(options = Detection.default_options) ?domains ~seed
    comp spec =
  let delta = options.Detection.delta in
  (* The algorithm is deterministic; [seed] is accepted only so all
     six detectors share a call shape. *)
  ignore (seed : int64);
  let n = Computation.n comp in
  let width = Spec.width spec in
  let checker = Run_common.extra_id ~n in
  let stats = Stats.create ~n:((2 * n) + 1) in
  (match recorder with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Run_meta { algo = "parallel"; n; width });
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "build" }));
  (* Materialize the same encoded snapshot streams the centralized
     checker receives, at the same wire prices: the senders are
     charged the encoded bits, the checker the receptions and the
     buffered words. *)
  let snapshots_seen = ref 0 in
  let cands =
    Array.init width (fun k ->
        let p = Spec.proc spec k in
        let decoder = Wire.snap_decoder ~width in
        Wire.encoded_stream ~delta comp spec ~proc:p
        |> List.map (fun ((_ : int), msg) ->
               Stats.msg_sent stats ~proc:p
                 ~bits:(Messages.bits ~spec_width:width msg);
               Stats.msg_received stats ~proc:checker;
               incr snapshots_seen;
               Wire.decode_snap decoder msg)
        |> Array.of_list)
  in
  Stats.space stats ~proc:checker (!snapshots_seen * (width + 1));
  let head = Array.make width 0 in
  (* Per-round, per-slot scratch: thresholds and witnesses are
     written by the coordinating domain before the fan-out and only
     read inside it; [moved]/[tests] are written by exactly one slot
     owner each and read after the barrier. *)
  let thresh = Array.make width (-1) in
  let witness = Array.make width (-1) in
  let moved = Array.make width 0 in
  let tests = Array.make width 0 in
  let rounds = ref 0 in
  let total_items = ref 0 in
  let max_frontier = ref 0 in
  let advance ~slot ~slots =
    let k = ref slot in
    while !k < width do
      let q = cands.(!k) in
      let len = Array.length q in
      let m = thresh.(!k) in
      let h = ref head.(!k) in
      let t = ref 0 in
      let testing = ref true in
      while !testing && !h < len do
        incr t;
        if q.(!h).Snapshot.clock.(!k) <= m then incr h else testing := false
      done;
      moved.(!k) <- !h - head.(!k);
      tests.(!k) <- !t;
      head.(!k) <- !h;
      k := !k + slots
    done
  in
  let outcome = ref None in
  let run_rounds fan =
    while !outcome = None do
      if
        Array.exists
          (fun k -> head.(k) >= Array.length cands.(k))
          (Array.init width Fun.id)
      then begin
        (* Every remaining candidate of some slot was eliminated:
           the least cut does not exist. *)
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r
              ~time:(float_of_int !rounds)
              ~proc:checker Wcp_obs.Event.No_detection_declared);
        outcome := Some Detection.No_detection
      end
      else begin
        incr rounds;
        let time = float_of_int !rounds in
        (* Freeze the frontier: for each column k keep the largest
           and second-largest k-entries over the frontier clocks, so
           the max excluding slot k itself is one comparison away. *)
        for k = 0 to width - 1 do
          let best = ref (-1)
          and best_l = ref (-1)
          and second = ref (-1)
          and second_l = ref (-1) in
          for l = 0 to width - 1 do
            let v = cands.(l).(head.(l)).Snapshot.clock.(k) in
            if v > !best then begin
              second := !best;
              second_l := !best_l;
              best := v;
              best_l := l
            end
            else if v > !second then begin
              second := v;
              second_l := l
            end
          done;
          if !best_l = k then begin
            thresh.(k) <- !second;
            witness.(k) <- !second_l
          end
          else begin
            thresh.(k) <- !best;
            witness.(k) <- !best_l
          end
        done;
        Stats.work stats ~proc:checker (width * width);
        let old_head = Array.copy head in
        fan advance;
        let eliminated = Array.fold_left ( + ) 0 moved in
        total_items := !total_items + Array.fold_left ( + ) 0 tests;
        (* Same unit as the centralized checker: one width-sized
           examination per candidate consumed. *)
        Stats.work stats ~proc:checker (eliminated * width);
        let breadth =
          Array.fold_left (fun a m -> if m > 0 then a + 1 else a) 0 moved
        in
        if breadth > !max_frontier then max_frontier := breadth;
        (match recorder with
        | None -> ()
        | Some r ->
            for k = 0 to width - 1 do
              for i = old_head.(k) to head.(k) - 1 do
                let v = cands.(k).(i) in
                let w = witness.(k) in
                let b = cands.(w).(old_head.(w)) in
                Wcp_obs.Recorder.emit r ~time ~proc:checker
                  (Wcp_obs.Event.Hb_eliminated
                     {
                       victim_k = k;
                       victim_proc = Spec.proc spec k;
                       victim_state = v.Snapshot.state;
                       victim_clock = Array.copy v.Snapshot.clock;
                       by_k = w;
                       by_proc = Spec.proc spec w;
                       by_state = b.Snapshot.state;
                       by_clock = Array.copy b.Snapshot.clock;
                     })
              done
            done;
            let frontier =
              Array.init width (fun k ->
                  cands.(k).(old_head.(k)).Snapshot.state)
            in
            Wcp_obs.Recorder.emit r ~time ~proc:checker
              (Wcp_obs.Event.Round_advanced
                 { round = !rounds; frontier; eliminated }));
        if eliminated = 0 then begin
          (* Nothing happened before anything else: the frontier is
             pairwise concurrent — the least satisfying cut. *)
          let states =
            Array.init width (fun k -> cands.(k).(head.(k)).Snapshot.state)
          in
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time ~proc:checker
                (Wcp_obs.Event.Detected
                   {
                     procs = Array.copy (Spec.procs spec);
                     states = Array.copy states;
                   }));
          outcome :=
            Some (Detection.Detected (Cut.make ~procs:(Spec.procs spec) ~states))
        end
      end
    done
  in
  let domains =
    let d =
      match domains with
      | Some d -> d
      | None -> Wcp_util.Parallel.default_domains ()
    in
    if d < 1 then invalid_arg "Checker_parallel.detect: domains must be >= 1";
    min d (max 1 width)
  in
  (match recorder with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "detect" }));
  if domains <= 1 then run_rounds (fun f -> f ~slot:0 ~slots:1)
  else
    Wcp_util.Parallel.scoped_pool ~domains (fun pool ->
        run_rounds (fun f -> Wcp_util.Parallel.run pool f));
  Stats.set_events_done stats !rounds;
  Stats.set_parallel stats ~rounds:!rounds ~max_frontier:!max_frontier
    ~items:!total_items;
  {
    Detection.outcome =
      (match !outcome with Some o -> o | None -> assert false);
    stats;
    sim_time = 0.0;
    events = !rounds;
    extras = { Detection.no_extras with snapshots = !snapshots_seen };
  }
