open Wcp_trace
open Wcp_sim

type mon = {
  k : int;  (* spec index *)
  group : int;
  queue : Snapshot.vc Queue.t;
  decoder : Wire.snap_decoder;  (* delta-snapshot channel state *)
  wd : Watchdog.t option;  (* guards this monitor's forwards *)
  mutable app_done : bool;
  mutable held : (int array * Messages.color array) option;
  mutable last : Snapshot.vc option;
  mutable last_token_seq : int;
}

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

let rec detect ?network ?fault ?recorder ?(assignment = Round_robin)
    ?(ckpt_every = 1) ?(options = Detection.default_options) ~groups ~seed comp
    spec =
  if options.Detection.slice then
    Run_common.with_slice ?recorder ~keep_rest:false comp spec ~run:(fun sliced spec' ->
        detect ?network ?fault ?recorder ~assignment ~ckpt_every
          ~options:{ options with Detection.slice = false }
          ~groups ~seed sliced spec')
  else
  let { Detection.gated; delta; slice = _ } = options in
  let n = Computation.n comp in
  let width = Spec.width spec in
  if groups < 1 || groups > width then
    invalid_arg "Token_multi.detect: groups out of range";
  let fault =
    match fault with Some p when not (Fault.is_none p) -> Some p | _ -> None
  in
  let engine = Run_common.make_engine ?network ?fault ?recorder ~seed comp in
  Run_common.emit_run_meta engine ~algo:"multi-token" ~n ~width;
  (* Fetched once; tracing off means every hook below is one match. *)
  let recorder = Engine.recorder engine in
  let leader_id = Run_common.extra_id ~n in
  let outcome = ref None in
  let hops = ref 0 in
  let merges = ref 0 in
  let snapshots_seen = ref 0 in
  let chaos = Option.is_some fault in
  if ckpt_every < 1 then
    invalid_arg "Token_multi.detect: ckpt_every must be >= 1";
  let net, recovery =
    match fault with
    | None -> (Run_common.raw_net engine, None)
    | Some f when Fault.has_restarts f ->
        let net, transport = Token_vc.chaos_net_transport engine ~outcome in
        ( net,
          Some
            {
              Run_common.transport;
              restarts = Fault.restarts f;
              every = ckpt_every;
            } )
    | Some _ -> (Token_vc.chaos_net engine ~outcome, None)
  in
  (* Reprobing (monitor-liveness) watchdogs exist only under plans that
     restart someone; every other chaos run keeps its exact schedule. *)
  let wd_reprobe = Option.is_some recovery in
  let announce ctx o =
    if Option.is_none !outcome then begin
      outcome := Some o;
      Engine.stop ctx
    end
  in
  let bits = Messages.bits ~spec_width:width in
  let monitor_id k = Run_common.monitor_of ~n (Spec.proc spec k) in
  let meter = if delta then Some (Wire.token_meter ~width) else None in
  let token_bits ctx ~dst msg g =
    match meter with
    | Some mt -> Wire.token_bits mt ~src:(Engine.self ctx) ~dst g
    | None -> bits msg
  in
  let group_of =
    match assignment with
    | Round_robin -> fun k -> k mod groups
    | Blocks -> fun k -> min (groups - 1) (k * groups / width)
  in
  (* A group token hop, guarded by the sender's watchdog when running
     under chaos; [g]/[color] are deep-copied for regeneration since
     the receiver mutates the arrays it is sent. *)
  let send_group_token ctx ?wd ~dst ~group g color =
    incr hops;
    let seq = !hops in
    (match recorder with
    | None -> ()
    | Some r ->
        Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
          ~proc:(Engine.self ctx)
          (Wcp_obs.Event.Token_sent { seq; dst; g = Array.copy g }));
    let msg = Messages.Group_token { seq; g; color; group } in
    let hop_bits = token_bits ctx ~dst msg g in
    net.Run_common.send ctx ~bits:hop_bits ~dst msg;
    match wd with
    | None -> ()
    | Some wd ->
        let g' = Array.copy g and color' = Array.copy color in
        let payload =
          Messages.Group_token { seq; g = g'; color = color'; group }
        in
        (* A resend re-ships the originally encoded bytes. *)
        Watchdog.watch wd ctx
          ~token:(payload, hop_bits)
          ~seq ~dst
          ~resend:(fun ctx ->
            net.Run_common.send ctx ~bits:hop_bits ~dst
              (Messages.deep_copy payload))
          ()
  in
  let send_return ctx ~group g color =
    incr hops;
    let seq = !hops in
    let msg = Messages.Group_return { seq; g; color; group } in
    net.Run_common.send ctx
      ~bits:(token_bits ctx ~dst:leader_id msg g)
      ~dst:leader_id msg
  in
  (* Group-token processing: the §3 monitor algorithm, except the token
     may only move to red monitors of its own group and otherwise
     returns to the leader. *)
  let rec process ctx m g color =
    match color.(m.k) with
    | Messages.Red -> (
      match Queue.take_opt m.queue with
      | None ->
          if m.app_done then begin
            (match recorder with
            | None -> ()
            | Some r ->
                Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                  ~proc:(Engine.self ctx) Wcp_obs.Event.No_detection_declared);
            announce ctx Detection.No_detection
          end
          else m.held <- Some (g, color)
      | Some cand ->
          Engine.charge_work ctx 1;
          m.last <- Some cand;
          if cand.Snapshot.clock.(m.k) > g.(m.k) then begin
            g.(m.k) <- cand.Snapshot.clock.(m.k);
            color.(m.k) <- Messages.Green;
            match recorder with
            | None -> ()
            | Some r ->
                Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                  ~proc:(Engine.self ctx)
                  (Wcp_obs.Event.Candidate_advanced
                     { k = m.k; proc = Spec.proc spec m.k; state = g.(m.k) })
          end;
          process ctx m g color)
    | Messages.Green ->
      (match m.last with
      | Some cand ->
          Engine.charge_work ctx width;
          for j = 0 to width - 1 do
            if j <> m.k && cand.Snapshot.clock.(j) >= g.(j) then begin
              (match recorder with
              | None -> ()
              | Some r ->
                  Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                    ~proc:(Engine.self ctx)
                    (Wcp_obs.Event.Vc_advanced
                       {
                         by_k = m.k;
                         by_proc = Spec.proc spec m.k;
                         by_state = cand.Snapshot.state;
                         by_clock = Array.copy cand.Snapshot.clock;
                         victim_k = j;
                         victim_proc = Spec.proc spec j;
                         victim_state = g.(j);
                         witness = cand.Snapshot.clock.(j);
                       }));
              g.(j) <- cand.Snapshot.clock.(j);
              color.(j) <- Messages.Red
            end
          done
      | None -> ());
      let next_in_group = ref (-1) in
      for j = width - 1 downto 0 do
        match color.(j) with
        | Messages.Red -> if group_of j = m.group then next_in_group := j
        | Messages.Green -> ()
      done;
      let j = !next_in_group in
      if j >= 0 then
        send_group_token ctx ?wd:m.wd ~dst:(monitor_id j) ~group:m.group g
          color
      else send_return ctx ~group:m.group g color
  in
  let resume ctx m =
    match m.held with
    | Some (g, color) ->
        m.held <- None;
        process ctx m g color
    | None -> ()
  in
  let on_monitor m ctx ~src msg =
    match msg with
    | Messages.Snap_vc _ | Messages.Snap_vc_delta _ ->
        let s = Wire.decode_snap m.decoder msg in
        incr snapshots_seen;
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Snapshot_arrived { src; state = s.Snapshot.state }));
        Queue.add s m.queue;
        Engine.note_space ctx (Queue.length m.queue * width);
        resume ctx m
    | Messages.App_done ->
        m.app_done <- true;
        resume ctx m
    | Messages.Group_token { seq; g; color; group } ->
        assert (group = m.group);
        if seq > m.last_token_seq then begin
          m.last_token_seq <- seq;
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx) (Wcp_obs.Event.Token_received { seq }));
          process ctx m g color
        end
    | Messages.Wd_probe { seq } ->
        let reply =
          Messages.Wd_reply
            {
              seq;
              received = seq <= m.last_token_seq;
              holding = m.held <> None && seq = m.last_token_seq;
            }
        in
        Engine.send ctx ~bits:(bits reply) ~dst:src reply
    | Messages.Wd_reply { seq; received; holding } -> (
        match m.wd with
        | Some wd -> Watchdog.on_reply wd ctx ~seq ~received ~holding
        | None -> ())
    | _ -> failwith "Token_multi: unexpected message at monitor"
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
  (* The leader may have one token in flight per group, so it owns one
     watchdog per group (a watchdog tracks a single token). *)
  let leader_wds =
    if chaos then
      Array.init groups (fun _ -> Some (Watchdog.create ~reprobe:wd_reprobe ()))
    else Array.make groups None
  in
  let dispatch ctx =
    incr merges;
    (match recorder with
    | None -> ()
    | Some r ->
        Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
          ~proc:(Engine.self ctx) (Wcp_obs.Event.Merged { round = !merges }));
    if Array.for_all (fun c -> c = Messages.Green) ld.merged_color then begin
      (match recorder with
      | None -> ()
      | Some r ->
          Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
            ~proc:(Engine.self ctx)
            (Wcp_obs.Event.Detected
               {
                 procs = Array.copy (Spec.procs spec);
                 states = Array.copy ld.merged_g;
               }));
      announce ctx
        (Detection.Detected
           (Cut.make ~procs:(Spec.procs spec) ~states:(Array.copy ld.merged_g)))
    end
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
            send_group_token ctx ?wd:leader_wds.(gr) ~dst:(monitor_id j)
              ~group:gr (Array.copy ld.merged_g)
              (Array.copy ld.merged_color)
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
          (function
            | Some wd -> Watchdog.on_reply wd ctx ~seq ~received ~holding
            | None -> ())
          leader_wds
    | _ -> failwith "Token_multi: unexpected message at leader"
  in
  let monitors =
    Array.init width (fun k ->
        {
          k;
          group = group_of k;
          queue = Queue.create ();
          decoder = Wire.snap_decoder ~width;
          wd =
            (if chaos then Some (Watchdog.create ~reprobe:wd_reprobe ())
             else None);
          app_done = false;
          held = None;
          last = None;
          last_token_seq = 0;
        })
  in
  (* Crash recovery for the group monitors (the leader is not in the
     restart matrix): same capture/restore scheme as Token_vc, plus
     this monitor's own group watchdog. *)
  let maybe_capture =
    match recovery with
    | None -> None
    | Some r ->
        let cell_of : (int, mon) Hashtbl.t = Hashtbl.create 8 in
        Array.iter
          (fun m -> Hashtbl.replace cell_of (monitor_id m.k) m)
          monitors;
        let capture proc =
          let m = Hashtbl.find cell_of proc in
          let algo =
            Checkpoint.Multi
              {
                Checkpoint.v_queue = List.of_seq (Queue.to_seq m.queue);
                v_decoder = Wire.decoder_state m.decoder;
                v_app_done = m.app_done;
                v_held = m.held;
                v_last = m.last;
                v_last_seq = m.last_token_seq;
              }
          in
          let wd_state =
            match m.wd with
            | Some wd when Watchdog.seq wd > 0 -> (
                match Watchdog.token wd with
                | Some (payload, w_bits) ->
                    Some
                      {
                        Checkpoint.w_seq = Watchdog.seq wd;
                        w_dst = Watchdog.dst wd;
                        w_probes = Watchdog.probes wd;
                        w_bits;
                        w_payload = payload;
                      }
                | None -> None)
            | _ -> None
          in
          (algo, wd_state)
        in
        let restore ctx (c : Checkpoint.t) =
          let m = Hashtbl.find cell_of c.Checkpoint.proc in
          (match c.Checkpoint.algo with
          | Checkpoint.Multi s ->
              Queue.clear m.queue;
              List.iter (fun x -> Queue.add x m.queue) s.Checkpoint.v_queue;
              Wire.restore_decoder m.decoder s.Checkpoint.v_decoder;
              m.app_done <- s.Checkpoint.v_app_done;
              m.held <- s.Checkpoint.v_held;
              m.last <- s.Checkpoint.v_last;
              m.last_token_seq <- s.Checkpoint.v_last_seq
          | _ -> failwith "Token_multi: checkpoint algorithm mismatch");
          match (m.wd, c.Checkpoint.watchdog) with
          | Some wd, Some w when w.Checkpoint.w_seq >= Watchdog.seq wd ->
              let dst = w.Checkpoint.w_dst and bits = w.Checkpoint.w_bits in
              let payload = w.Checkpoint.w_payload in
              Watchdog.restore wd ctx ~token:(payload, bits)
                ~seq:w.Checkpoint.w_seq ~dst ~probes:w.Checkpoint.w_probes
                ~resend:(fun ctx ->
                  net.Run_common.send ctx ~bits ~dst
                    (Messages.deep_copy payload))
                ()
          | _ -> ()
        in
        Some
          (Run_common.wire_recovery engine r
             ~owns:(Hashtbl.mem cell_of)
             ~capture ~restore)
  in
  Array.iter
    (fun m ->
      let id = monitor_id m.k in
      match maybe_capture with
      | None -> net.Run_common.set_handler id (on_monitor m)
      | Some cap ->
          net.Run_common.set_handler id (fun ctx ~src msg ->
              on_monitor m ctx ~src msg;
              cap id ctx))
    monitors;
  net.Run_common.set_handler leader_id on_leader;
  App_replay.install engine comp
    ?net:(if chaos then Some net else None)
    ?app_bits:(if delta then Some (Wire.replay_app_bits comp spec) else None)
    ~snapshots:(fun p ->
      if Spec.mem spec p then Wire.encoded_stream ~gated ~delta comp spec ~proc:p
      else [])
    ~snapshot_dst:(fun p ->
      if Spec.mem spec p then Some (Run_common.monitor_of ~n p) else None)
    ~spec_width:width ();
  Engine.schedule_initial engine ~proc:leader_id ~at:0.0 (fun ctx ->
      dispatch ctx);
  let result =
    Run_common.finish ?fault engine ~outcome ~extras:Detection.no_extras
  in
  {
    result with
    extras =
      {
        result.extras with
        token_hops = !hops;
        snapshots = !snapshots_seen;
        merges = !merges;
      };
  }
