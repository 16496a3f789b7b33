open Wcp_trace
open Wcp_sim

let log = Logs.Src.create "wcp.token-vc" ~doc:"vector-clock token algorithm"

module Log = (val Logs.src_log log : Logs.LOG)

type mon = {
  k : int;  (* spec index *)
  queue : Snapshot.vc Queue.t;
  decoder : Wire.snap_decoder;  (* delta-snapshot channel state *)
  mutable app_done : bool;
  (* Token parked here while we wait for a fresh candidate. *)
  mutable held : (int array * Messages.color array) option;
  mutable last : Snapshot.vc option;  (* last candidate consumed *)
  mutable last_token_seq : int;  (* highest token hop accepted (dedup) *)
}

type monitors = Run_common.monitors

type hop =
  Messages.t Engine.ctx ->
  ?wd:Watchdog.t ->
  ?narrate:bool ->
  dst:int ->
  (int -> Messages.t) ->
  int array ->
  unit

type route = {
  visits : int -> int -> bool;
  guard : int -> Watchdog.t option;
  token : int -> seq:int -> int array -> Messages.color array -> Messages.t;
  exhausted :
    hop -> Messages.t Engine.ctx -> int -> int array -> Messages.color array ->
    unit;
}

(* Executable check of Lemma 3.1 (parts 1-3) against the ground-truth
   computation; [g.(j) = 0] entries denote "no state selected yet" and
   are exempt, exactly as in the paper's statements. Runs once per
   token hop over width² state pairs, so it uses the unchecked
   happened-before: every non-zero [g.(j)] came from a snapshot of a
   real state and needs no bounds re-validation. *)
let check_invariants comp spec ~g ~color =
  let width = Spec.width spec in
  let state j = State.make ~proc:(Spec.proc spec j) ~index:g.(j) in
  let is_green j = match color.(j) with Messages.Green -> true | _ -> false in
  for i = 0 to width - 1 do
    (match color.(i) with
    | Messages.Red ->
        if g.(i) <> 0 then begin
          let dominated = ref false in
          for j = 0 to width - 1 do
            if j <> i && g.(j) <> 0
               && Computation.happened_before_unsafe comp (state i) (state j)
            then dominated := true
          done;
          if not !dominated then
            failwith
              (Printf.sprintf
                 "Lemma 3.1(1) violated: red state (%d,%d) precedes no candidate"
                 (Spec.proc spec i) g.(i))
        end
    | Messages.Green ->
        if g.(i) = 0 then failwith "Lemma 3.1: green entry with G = 0";
        for j = 0 to width - 1 do
          if j <> i && g.(j) <> 0
             && Computation.happened_before_unsafe comp (state i) (state j)
          then
            failwith
              (Printf.sprintf
                 "Lemma 3.1(2) violated: green state (%d,%d) precedes (%d,%d)"
                 (Spec.proc spec i) g.(i) (Spec.proc spec j) g.(j))
        done);
    (* Part 3 follows from part 2, but check it directly as well. *)
    for j = 0 to width - 1 do
      if i <> j && is_green i && is_green j
         && not (Computation.concurrent_unsafe comp (state i) (state j))
      then failwith "Lemma 3.1(3) violated: green candidates not concurrent"
    done
  done

let routed engine ~n_app ~wcp_procs ~net ?recovery ?check ~stop ~delta ~outcome
    ~hops ~snapshots route =
  (* Fetched once; every emission below is a single match when tracing
     is off (no closures, no event construction). *)
  let recorder = Engine.recorder engine in
  let width = Array.length wcp_procs in
  let bits = Messages.bits ~spec_width:width in
  let monitor_id k = Run_common.monitor_of ~n:n_app wcp_procs.(k) in
  (* One delta meter per run: every token edge, group returns
     included, is priced against the same per-edge caches. *)
  let meter = if delta then Some (Wire.token_meter ~width) else None in
  let hop ctx ?wd ?(narrate = true) ~dst token g =
    incr hops;
    let seq = !hops in
    (if narrate then
       match recorder with
       | None -> ()
       | Some r ->
           Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
             ~proc:(Engine.self ctx)
             (Wcp_obs.Event.Token_sent { seq; dst; g = Array.copy g }));
    let msg = token seq in
    let hop_bits =
      match meter with
      | Some mt -> Wire.token_bits mt ~src:(Engine.self ctx) ~dst g
      | None -> bits msg
    in
    net.Run_common.send ctx ~bits:hop_bits ~dst msg;
    match wd with
    | None -> ()
    | Some wd ->
        (* Deep-copy for regeneration: the receiver mutates the arrays
           of the copy it gets. A resend puts the same bytes back on
           the wire, so it re-charges [hop_bits] rather than re-running
           the (stateful) encoder. *)
        let payload = Messages.deep_copy msg in
        Watchdog.watch wd ctx ~token:(payload, hop_bits) ~seq ~dst
          ~resend:(fun ctx ->
            net.Run_common.send ctx ~bits:hop_bits ~dst
              (Messages.deep_copy payload))
          ()
  in
  (* Fig. 3, run by the monitor currently holding the token. *)
  let rec process ctx m g color =
    match color.(m.k) with
    | Messages.Red -> (
      match Queue.take_opt m.queue with
      | None ->
          if m.app_done then
            Run_common.declare ~stop outcome ctx Detection.No_detection
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
                     { k = m.k; proc = wcp_procs.(m.k); state = g.(m.k) })
          end;
          process ctx m g color)
    | Messages.Green ->
      (* A monitor turns green by consuming a candidate; one without a
         candidate has nothing to eliminate with, and passes the token
         on as it is. *)
      (match m.last with
      | None -> ()
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
                         by_proc = wcp_procs.(m.k);
                         by_state = cand.Snapshot.state;
                         by_clock = Array.copy cand.Snapshot.clock;
                         victim_k = j;
                         victim_proc = wcp_procs.(j);
                         victim_state = g.(j);
                         witness = cand.Snapshot.clock.(j);
                       }));
              g.(j) <- cand.Snapshot.clock.(j);
              color.(j) <- Messages.Red
            end
          done);
      (match check with Some f -> f ~g ~color | None -> ());
      let next = ref (-1) in
      for j = width - 1 downto 0 do
        match color.(j) with
        | Messages.Red -> if route.visits m.k j then next := j
        | Messages.Green -> ()
      done;
      let j = !next in
      if j >= 0 then begin
        Log.debug (fun f ->
            f "t=%.3f token %d -> %d" (Engine.time ctx) m.k j);
        hop ctx ?wd:(route.guard m.k) ~dst:(monitor_id j)
          (fun seq -> route.token m.k ~seq g color)
          g
      end
      else route.exhausted hop ctx m.k g color
  in
  let resume ctx m =
    match m.held with
    | Some (g, color) ->
        m.held <- None;
        process ctx m g color
    | None -> ()
  in
  let on_message m ctx ~src msg =
    match msg with
    | Messages.Snap_vc _ | Messages.Snap_vc_delta _ ->
        let s = Wire.decode_snap m.decoder msg in
        incr snapshots;
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
    | Messages.Vc_token { seq; g; color }
    | Messages.Group_token { seq; g; color; _ } ->
        (* Regenerated/duplicated tokens carry an already-seen hop
           number; processing one twice would corrupt the search. *)
        if seq > m.last_token_seq then begin
          m.last_token_seq <- seq;
          (match recorder with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx) (Wcp_obs.Event.Token_received { seq }));
          process ctx m g color
        end
    | msg ->
        Run_common.watchdog_message ?watchdog:(route.guard m.k) ctx ~src
          ~last_seq:m.last_token_seq ~holding:(m.held <> None) msg
  in
  let cells =
    Array.init width (fun k ->
        {
          k;
          queue = Queue.create ();
          decoder = Wire.snap_decoder ~width;
          app_done = false;
          held = None;
          last = None;
          last_token_seq = 0;
        })
  in
  let checkpoint =
    Run_common.install_monitors engine net ?recovery cells
      ~id:(fun m -> monitor_id m.k)
      ~watchdog:(fun m -> route.guard m.k)
      ~capture:(fun m ->
        Checkpoint.Vc
          {
            Checkpoint.v_queue = List.of_seq (Queue.to_seq m.queue);
            v_decoder = Wire.decoder_state m.decoder;
            v_app_done = m.app_done;
            v_held = m.held;
            v_last = m.last;
            v_last_seq = m.last_token_seq;
          })
      ~restore:(fun m -> function
        | Checkpoint.Vc s ->
            Queue.clear m.queue;
            List.iter (fun x -> Queue.add x m.queue) s.Checkpoint.v_queue;
            Wire.restore_decoder m.decoder s.Checkpoint.v_decoder;
            m.app_done <- s.Checkpoint.v_app_done;
            m.held <- s.Checkpoint.v_held;
            m.last <- s.Checkpoint.v_last;
            m.last_token_seq <- s.Checkpoint.v_last_seq
        | Checkpoint.Dd _ -> failwith "Token_vc: checkpoint algorithm mismatch")
      on_message
  in
  let start k =
    {
      Run_common.start_id = monitor_id k;
      start_token =
        (fun ctx ->
          (* The token starts fully red with G = 0: no state selected.
             §3.2: "the token can start on any process. Since the
             entire color vector is initialized to red, it must
             eventually visit every process at least once." *)
          process ctx cells.(k) (Array.make width 0)
            (Array.make width Messages.Red);
          (* The injected token is a handled message like any other: a
             restart before its first real delivery must not restore a
             token-less seed. *)
          checkpoint cells.(k) ctx);
    }
  in
  (hop, start)

let install engine ~n_app ~wcp_procs ?net ?watchdog ?check ?recovery
    ?(stop = true) ?(start_at = 0) ?(delta = true) ~outcome ~hops ~snapshots ()
    =
  let net = match net with Some n -> n | None -> Run_common.raw_net engine in
  let width = Array.length wcp_procs in
  if width = 0 then invalid_arg "Token_vc.install: empty WCP";
  if start_at < 0 || start_at >= width then
    invalid_arg "Token_vc.install: start_at out of range";
  Array.iteri
    (fun k p ->
      if p < 0 || p >= n_app then invalid_arg "Token_vc.install: bad process";
      if k > 0 && wcp_procs.(k - 1) >= p then
        invalid_arg "Token_vc.install: procs must be strictly increasing")
    wcp_procs;
  (* One token over every monitor: all green means detection. *)
  let route =
    {
      visits = (fun _ _ -> true);
      guard = (fun _ -> watchdog);
      token = (fun _ ~seq g color -> Messages.Vc_token { seq; g; color });
      exhausted =
        (fun _ ctx k g _ ->
          Log.info (fun f ->
              f "t=%.3f WCP detected at monitor %d" (Engine.time ctx) k);
          Run_common.declare ~stop outcome ctx
            (Detection.Detected
               (Cut.make ~procs:wcp_procs ~states:(Array.copy g))));
    }
  in
  let _, start =
    routed engine ~n_app ~wcp_procs ~net ?recovery ?check ~stop ~delta
      ~outcome ~hops ~snapshots route
  in
  start start_at

let start = Run_common.start

let detect ?network ?fault ?recorder ?(invariant_checks = false) ?start_at
    ?(options = Detection.default_options) ~seed comp spec =
  let hops = ref 0 in
  let snapshots = ref 0 in
  let check =
    if invariant_checks then Some (check_invariants comp spec) else None
  in
  let result =
    Run_common.replay ?network ?fault ?recorder ~seed ~algo:"token-vc"
      ~width:(Spec.width spec) comp
      ~monitors:(fun engine w ~outcome ->
        install engine ~n_app:(Computation.n comp) ~wcp_procs:(Spec.procs spec)
          ~net:w.Run_common.net ?watchdog:(w.Run_common.watchdog ()) ?check
          ?recovery:w.Run_common.recovery ?start_at
          ~delta:options.Detection.delta ~outcome ~hops ~snapshots ())
      ~app:
        (App_replay.vc ~delta:options.Detection.delta
           ~dst:(Run_common.monitor_of ~n:(Computation.n comp))
           comp spec)
  in
  {
    result with
    extras = { result.extras with token_hops = !hops; snapshots = !snapshots };
  }
