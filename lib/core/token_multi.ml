open Wcp_trace
open Wcp_sim

type leader = {
  merged_g : int array;
  merged_color : Messages.color array;
  mutable outstanding : int;
  (* Highest return hop merged per group: a replayed or regenerated
     [Group_return] repeats its hop number, and merging one twice would
     double-decrement [outstanding]. *)
  returns_seen : int array;
}

type assignment = Round_robin | Blocks

let detect ?network ?fault ?recorder ?(assignment = Round_robin)
    ?(options = Detection.default_options) ~groups ~seed comp spec =
  let n = Computation.n comp in
  let width = Spec.width spec in
  if groups < 1 || groups > width then
    invalid_arg "Token_multi.detect: groups out of range";
  let hops = ref 0 in
  let merges = ref 0 in
  let snapshots = ref 0 in
  let group_of =
    match assignment with
    | Round_robin -> fun k -> k mod groups
    | Blocks -> fun k -> min (groups - 1) (k * groups / width)
  in
  let leader_id = Run_common.extra_id ~n in
  let monitor_id k = Run_common.monitor_of ~n (Spec.proc spec k) in
  let monitors engine (w : Run_common.faults) ~outcome =
    (* Fetched once; tracing off means every hook below is one match. *)
    let recorder = Engine.recorder engine in
    (* Each monitor guards its own forwards; the leader may have one
       token in flight per group, so it owns one watchdog per group (a
       watchdog tracks a single token). *)
    let monitor_wds = Array.init width (fun _ -> w.Run_common.watchdog ()) in
    let leader_wds = Array.init groups (fun _ -> w.Run_common.watchdog ()) in
    (* The §3 monitors restricted to a group: a group token moves only
       to red monitors of its own group and otherwise returns to the
       leader. *)
    let hop, _ =
      Token_vc.routed engine ~n_app:n ~wcp_procs:(Spec.procs spec)
        ~net:w.Run_common.net ?recovery:w.Run_common.recovery ~stop:true
        ~delta:options.Detection.delta ~outcome ~hops ~snapshots
        {
          Token_vc.visits = (fun k j -> group_of j = group_of k);
          guard = (fun k -> monitor_wds.(k));
          token =
            (fun k ~seq g color ->
              Messages.Group_token { seq; g; color; group = group_of k });
          exhausted =
            (fun hop ctx k g color ->
              hop ctx ~narrate:false ~dst:leader_id
                (fun seq ->
                  Messages.Group_return { seq; g; color; group = group_of k })
                g);
        }
    in
    (* Leader: merge returned tokens, re-dispatch into groups that still
       contain red entries (paper §3.5). *)
    let ld =
      {
        merged_g = Array.make width 0;
        merged_color = Array.make width Messages.Red;
        outstanding = 0;
        returns_seen = Array.make groups 0;
      }
    in
    let dispatch ctx =
      incr merges;
      (match recorder with
      | None -> ()
      | Some r ->
          Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
            ~proc:(Engine.self ctx) (Wcp_obs.Event.Merged { round = !merges }));
      if Array.for_all (fun c -> c = Messages.Green) ld.merged_color then
        Run_common.declare outcome ctx
          (Detection.Detected
             (Cut.make ~procs:(Spec.procs spec)
                ~states:(Array.copy ld.merged_g)))
      else
        for gr = 0 to groups - 1 do
          let first_red = ref None in
          for j = width - 1 downto 0 do
            if group_of j = gr && ld.merged_color.(j) = Messages.Red then
              first_red := Some j
          done;
          match !first_red with
          | Some j ->
              ld.outstanding <- ld.outstanding + 1;
              let g = Array.copy ld.merged_g in
              let color = Array.copy ld.merged_color in
              hop ctx ?wd:leader_wds.(gr) ~dst:(monitor_id j)
                (fun seq -> Messages.Group_token { seq; g; color; group = gr })
                g
          | None -> ()
        done
    in
    let on_leader ctx ~src:_ msg =
      match msg with
      | Messages.Group_return { seq; g; color; group } ->
          if seq > ld.returns_seen.(group) then begin
            ld.returns_seen.(group) <- seq;
            Engine.charge_work ctx width;
            for j = 0 to width - 1 do
              if g.(j) > ld.merged_g.(j) then begin
                ld.merged_g.(j) <- g.(j);
                ld.merged_color.(j) <- color.(j)
              end
              else if g.(j) = ld.merged_g.(j) && color.(j) = Messages.Red then
                ld.merged_color.(j) <- Messages.Red
            done;
            ld.outstanding <- ld.outstanding - 1;
            if ld.outstanding = 0 then dispatch ctx
          end
      | Messages.Wd_reply { seq; received; holding } ->
          (* Route by sequence number: only the watchdog watching [seq]
             reacts, the rest ignore the reply. *)
          Array.iter
            (Option.iter (fun wd ->
                 Watchdog.on_reply wd ctx ~seq ~received ~holding))
            leader_wds
      | _ -> failwith "Token_multi: unexpected message at leader"
    in
    w.Run_common.net.Run_common.set_handler leader_id on_leader;
    { Run_common.start_id = leader_id; start_token = dispatch }
  in
  let result =
    Run_common.replay ?network ?fault ?recorder ~seed ~algo:"multi-token"
      ~width comp ~monitors
      ~app:
        (App_replay.vc ~delta:options.Detection.delta
           ~dst:(Run_common.monitor_of ~n) comp spec)
  in
  {
    result with
    extras =
      {
        result.extras with
        token_hops = !hops;
        snapshots = !snapshots;
        merges = !merges;
      };
  }
