open Wcp_trace
open Wcp_clocks
open Wcp_sim

let log = Logs.Src.create "wcp.token-dd" ~doc:"direct-dependence token algorithm"

module Log = (val Logs.src_log log : Logs.LOG)

type mon = {
  proc : int;
  queue : Snapshot.dd Queue.t;
  mutable queue_words : int;
  mutable app_done : bool;
  mutable color : Messages.color;
  mutable g : int;
      (* clock of the current candidate; while red, the highest
         eliminated clock (states <= g can never join the cut) *)
  mutable next_red : int option;  (* red-chain successor (process id) *)
  mutable has_token : bool;
  mutable tentative : int option;
      (* last consumed candidate's clock; a valid new candidate once it
         exceeds [g]; committed into [g] only when the token is here *)
  mutable deps_pending : Dependence.t list;  (* discovered, not yet polled *)
  mutable polling : bool;  (* one poll in flight, awaiting its reply *)
  mutable last_token_seq : int;  (* highest token hop accepted (dedup) *)
}

let snapshot_words (s : Snapshot.dd) = 1 + (2 * List.length s.deps)

type monitors = Run_common.monitors

let install engine ~n_app ~parallel ?net ?watchdog ?check ?recovery
    ?(stop = true) ?(start_at = 0) ?(delta = true) ~outcome ~hops ~polls
    ~snapshots () =
  let net = match net with Some n -> n | None -> Run_common.raw_net engine in
  (* Fetched once; tracing off means every hook below is one match. *)
  let recorder = Engine.recorder engine in
  let n = n_app in
  if start_at < 0 || start_at >= n then
    invalid_arg "Token_dd.install: start_at out of range";
  let snapshots_seen = snapshots in
  let bits = Messages.bits ~spec_width:1 in
  let monitor_id p = Run_common.monitor_of ~n p in
  let monitors =
    Array.init n (fun proc ->
        {
          proc;
          queue = Queue.create ();
          queue_words = 0;
          app_done = false;
          color = Messages.Red;
          g = 0;
          (* Initial red chain, rotated so the token holder is at its
             head: start_at -> start_at+1 -> ... -> start_at-1. *)
          next_red =
            (if (proc + 1) mod n = start_at then None
             else Some ((proc + 1) mod n));
          has_token = false;
          tentative = None;
          deps_pending = [];
          polling = false;
          last_token_seq = 0;
        })
  in
  let detected_cut () =
    let states = Array.map (fun m -> m.g) monitors in
    Cut.make ~procs:(Array.init n Fun.id) ~states
  in
  (* The search loop shared by the token holder (Fig. 4) and, when
     [parallel], by prefetching red monitors (§4.5). One step per call
     chain: poll the next discovered dependence, else consume the next
     candidate, else commit/pass if the token is here. *)
  let is_red m = match m.color with Messages.Red -> true | _ -> false in
  let rec drive ctx m =
    if Option.is_some !outcome || m.polling then ()
    else
      match m.deps_pending with
      | d :: rest ->
          m.deps_pending <- rest;
          m.polling <- true;
          incr polls;
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx)
                (Wcp_obs.Event.Poll_sent
                   {
                     dst = monitor_id d.Dependence.src;
                     clock = d.Dependence.clock;
                   }));
          let msg = Messages.Poll { clock = d.Dependence.clock; next_red = m.next_red } in
          let poll_cost =
            if delta then
              Wire.poll_bits ~clock:d.Dependence.clock ~next_red:m.next_red
            else bits msg
          in
          net.Run_common.send ctx ~bits:poll_cost
            ~dst:(monitor_id d.Dependence.src) msg
      | [] -> (
          let tentative_valid =
            match m.tentative with Some c -> c > m.g | None -> false
          in
          if tentative_valid then begin
            if m.has_token then commit_and_pass ctx m
            (* else: prefetched and ready; wait for the token. *)
          end
          else if is_red m && (m.has_token || parallel) then
            match Queue.take_opt m.queue with
            | Some cand ->
                m.queue_words <- m.queue_words - snapshot_words cand;
                Engine.charge_work ctx (1 + List.length cand.Snapshot.deps);
                m.deps_pending <- cand.Snapshot.deps;
                m.tentative <- Some cand.Snapshot.state;
                drive ctx m
            | None ->
                (* This process can never produce a fresh candidate:
                   no cut at or before the end of the run satisfies the
                   WCP. *)
                if m.app_done then
                  Run_common.declare ~stop outcome ctx Detection.No_detection)

  and commit_and_pass ctx m =
    (match m.tentative with Some c -> m.g <- c | None -> assert false);
    m.tentative <- None;
    m.color <- Messages.Green;
    m.has_token <- false;
    (match recorder with
    | None -> ()
    | Some r ->
        Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
          ~proc:(Engine.self ctx)
          (Wcp_obs.Event.Candidate_advanced
             { k = m.proc; proc = m.proc; state = m.g }));
    (match check with
    | Some f ->
        f
          ~g:(Array.map (fun m -> m.g) monitors)
          ~color:(Array.map (fun m -> m.color) monitors)
          ~next_red:(Array.map (fun m -> m.next_red) monitors)
          ~next:m.next_red
    | None -> ());
    match m.next_red with
    | None ->
        Log.info (fun f ->
            f "t=%.3f WCP detected; chain empty at monitor %d" (Engine.time ctx)
              m.proc);
        Run_common.declare ~stop outcome ctx
          (Detection.Detected (detected_cut ()))
    | Some j ->
        m.next_red <- None;
        incr hops;
        let seq = !hops in
        Log.debug (fun f ->
            f "t=%.3f token %d -> %d (G=%d)" (Engine.time ctx) m.proc j m.g);
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Token_sent
                 { seq; dst = monitor_id j; g = [| m.g |] }));
        let msg = Messages.Dd_token { seq } in
        net.Run_common.send ctx ~bits:(bits msg) ~dst:(monitor_id j) msg;
        (match watchdog with
        | None -> ()
        | Some wd ->
            Watchdog.watch wd ctx
              ~token:(msg, bits msg)
              ~seq ~dst:(monitor_id j)
              ~resend:(fun ctx ->
                net.Run_common.send ctx ~bits:(bits msg) ~dst:(monitor_id j)
                  msg)
              ())
  in
  let on_message m ctx ~src msg =
    match msg with
    | Messages.Snap_dd _ | Messages.Snap_dd_packed _ ->
        let s = Wire.decode_dd msg in
        incr snapshots_seen;
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Snapshot_arrived { src; state = s.Snapshot.state }));
        Queue.add s m.queue;
        m.queue_words <- m.queue_words + snapshot_words s;
        Engine.note_space ctx m.queue_words;
        drive ctx m
    | Messages.App_done ->
        m.app_done <- true;
        drive ctx m
    | Messages.Dd_token { seq } ->
        (* Regenerated/duplicated tokens repeat a hop number; accepting
           one twice would put two tokens in circulation. *)
        if seq > m.last_token_seq then begin
          m.last_token_seq <- seq;
          m.has_token <- true;
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx) (Wcp_obs.Event.Token_received { seq }));
          drive ctx m
        end
    | Messages.Poll { clock; next_red } ->
        (* Fig. 5. *)
        Engine.charge_work ctx 1;
        let was_green = not (is_red m) in
        if clock >= m.g then begin
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx)
                (Wcp_obs.Event.Dd_eliminated
                   {
                     victim_proc = m.proc;
                     victim_state = m.g;
                     poll_clock = clock;
                     poller_proc = src - n;
                   }));
          m.color <- Messages.Red;
          m.g <- clock
        end;
        let became = is_red m && was_green in
        if became then m.next_red <- next_red;
        (match recorder with
        | None -> ()
        | Some r ->
            Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
              ~proc:(Engine.self ctx)
              (Wcp_obs.Event.Poll_replied { dst = src; became_red = became }));
        let reply = Messages.Poll_reply { became_red = became } in
        net.Run_common.send ctx ~bits:(bits reply) ~dst:src reply;
        (* A poll can invalidate a prefetched candidate or wake a newly
           red monitor; re-enter the search loop. *)
        if parallel then drive ctx m
    | Messages.Poll_reply { became_red } ->
        m.polling <- false;
        if became_red then begin
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx)
                (Wcp_obs.Event.Chain_extended
                   { after_proc = m.proc; proc = src - n }));
          m.next_red <- Some (src - n)
        end;
        drive ctx m
    | msg ->
        Run_common.watchdog_message ?watchdog ctx ~src
          ~last_seq:m.last_token_seq ~holding:m.has_token msg
  in
  let checkpoint =
    Run_common.install_monitors engine net ?recovery monitors
      ~id:(fun m -> monitor_id m.proc)
      ~watchdog:(fun _ -> watchdog)
      ~capture:(fun m ->
        Checkpoint.Dd
          {
            Checkpoint.d_queue = List.of_seq (Queue.to_seq m.queue);
            d_app_done = m.app_done;
            d_color = m.color;
            d_g = m.g;
            d_next_red = m.next_red;
            d_has_token = m.has_token;
            d_tentative = m.tentative;
            d_deps = m.deps_pending;
            d_polling = m.polling;
            d_last_seq = m.last_token_seq;
          })
      ~restore:(fun m -> function
        | Checkpoint.Dd s ->
            Queue.clear m.queue;
            List.iter (fun x -> Queue.add x m.queue) s.Checkpoint.d_queue;
            m.queue_words <-
              Queue.fold (fun acc x -> acc + snapshot_words x) 0 m.queue;
            m.app_done <- s.Checkpoint.d_app_done;
            m.color <- s.Checkpoint.d_color;
            m.g <- s.Checkpoint.d_g;
            m.next_red <- s.Checkpoint.d_next_red;
            m.has_token <- s.Checkpoint.d_has_token;
            m.tentative <- s.Checkpoint.d_tentative;
            m.deps_pending <- s.Checkpoint.d_deps;
            m.polling <- s.Checkpoint.d_polling;
            m.last_token_seq <- s.Checkpoint.d_last_seq
        | Checkpoint.Vc _ -> failwith "Token_dd: checkpoint algorithm mismatch")
      on_message
  in
  {
    Run_common.start_id = monitor_id start_at;
    start_token =
      (fun ctx ->
        (* The token starts at the chain head. *)
        monitors.(start_at).has_token <- true;
        drive ctx monitors.(start_at);
        (* Checkpoint the injected token: a restart must not restore a
           token-less seed. *)
        checkpoint monitors.(start_at) ctx);
  }

let start = Run_common.start

let check_invariants comp ~g ~color ~next_red ~next =
  let n = Computation.n comp in
  (* (i, s) ->_d (j, t): one message from i to j sent from state >= s
     and received entering state <= t (or same process, s < t). *)
  let directly_precedes i s j t =
    (i = j && s < t)
    || Array.exists
         (fun (msg : Computation.message) ->
           msg.Computation.src = i && msg.Computation.dst = j
           && msg.Computation.src_state >= s
           && msg.Computation.dst_state <= t)
         (Computation.messages comp)
  in
  for i = 0 to n - 1 do
    match color.(i) with
    | Messages.Red ->
        (* Lemma 4.2(1): an advanced red candidate is dominated. *)
        if g.(i) <> 0 then begin
          let dominated = ref false in
          for j = 0 to n - 1 do
            if j <> i && g.(j) <> 0 && directly_precedes i g.(i) j g.(j) then
              dominated := true
          done;
          if not !dominated then
            failwith
              (Printf.sprintf
                 "Lemma 4.2(1) violated: red (%d,%d) ->_d no candidate" i g.(i))
        end
    | Messages.Green ->
        (* Lemma 4.2(2): green candidates are pairwise ->_d-free. *)
        for j = 0 to n - 1 do
          if j <> i && color.(j) = Messages.Green
             && directly_precedes i g.(i) j g.(j)
          then
            failwith
              (Printf.sprintf
                 "Lemma 4.2(2) violated: green (%d,%d) ->_d green (%d,%d)" i
                 g.(i) j g.(j))
        done
  done;
  (* Lemma 4.2(3): the monitors on the red chain (reached from the
     committing monitor's successor) are exactly the red monitors. *)
  let on_chain = Array.make n false in
  let steps = ref 0 in
  let cursor = ref next in
  while !cursor <> None do
    incr steps;
    if !steps > n then failwith "Lemma 4.2(3) violated: red chain has a cycle";
    (match !cursor with
    | Some j ->
        if on_chain.(j) then
          failwith "Lemma 4.2(3) violated: monitor on the chain twice";
        on_chain.(j) <- true;
        cursor := next_red.(j)
    | None -> ())
  done;
  for i = 0 to n - 1 do
    if on_chain.(i) && color.(i) <> Messages.Red then
      failwith
        (Printf.sprintf "Lemma 4.2(3) violated: green monitor %d on the chain" i);
    if (not on_chain.(i)) && color.(i) = Messages.Red then
      failwith
        (Printf.sprintf "Lemma 4.2(3) violated: red monitor %d off the chain" i)
  done

let detect ?network ?fault ?recorder ?(parallel = false)
    ?(invariant_checks = false) ?start_at ?(options = Detection.default_options)
    ~seed comp spec =
  let delta = options.Detection.delta in
  let n = Computation.n comp in
  let hops = ref 0 in
  let polls = ref 0 in
  let snapshots = ref 0 in
  let check =
    (* The Lemma 4.2 statements quantify over quiescent protocol states;
       with prefetching (§4.5) a commit can race with in-flight polls,
       so the executable check is restricted to the sequential mode. *)
    if invariant_checks && not parallel then Some (check_invariants comp)
    else None
  in
  let result =
    Run_common.replay ?network ?fault ?recorder ~seed
      ~algo:(if parallel then "token-dd-par" else "token-dd")
      ~width:n comp
      ~monitors:(fun engine w ~outcome ->
        install engine ~n_app:n ~parallel ~net:w.Run_common.net
          ?watchdog:(w.Run_common.watchdog ()) ?check
          ?recovery:w.Run_common.recovery ?start_at ~delta ~outcome ~hops
          ~polls ~snapshots ())
      ~app:(fun engine net ->
        (* Application side: §4.1 snapshots, from every process. *)
        App_replay.install engine comp ~net
          ~snapshots:(fun p ->
            List.map
              (fun (s : Snapshot.dd) ->
                ( (s.state : int),
                  if delta then Wire.encode_dd ~state:s.state s.deps
                  else Messages.Snap_dd s ))
              (Snapshot.dd_stream comp spec ~proc:p))
          ~snapshot_dst:(fun p -> Some (Run_common.monitor_of ~n p))
          ~spec_width:1 ())
  in
  {
    result with
    extras =
      {
        result.extras with
        token_hops = !hops;
        polls = !polls;
        snapshots = !snapshots;
      };
  }
