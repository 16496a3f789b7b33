open Wcp_trace
open Wcp_util
open Wcp_sim

type outcome = {
  online : Detection.outcome;
  recorded : Computation.t;
  wcp_procs : int array;
  sim_time : float;
  detection_time : float option;
}

(* Message kinds carried in App_data. *)
let k_request = 0
let k_grant = 1
let k_release = 2

type client = {
  id : int;
  instr : Instrument.t;
  mutable remaining : int;
}

let run ?(p_bug = 0.0) ~mode ~clients ~rounds ~seed () =
  if clients < 2 then invalid_arg "Live_mutex.run: need >= 2 clients";
  if rounds < 1 then invalid_arg "Live_mutex.run: need >= 1 round";
  let n = clients + 1 in
  let coord = 0 in
  let wcp_procs = [| 1; 2 |] in
  let engine = Run_common.make_engine_n ~seed ~n () in
  (* Side recording for validation; the monitors never see it. The
     engine executes events in a linearization of the causal order, so
     recording at event time through Builder is causally sound. *)
  let b = Builder.create ~n in
  let handles : (int, Builder.msg) Hashtbl.t = Hashtbl.create 64 in
  let next_key = ref 0 in
  let record_send ~src ~dst =
    let key = !next_key in
    incr next_key;
    Hashtbl.replace handles key (Builder.send b ~src ~dst);
    key
  in
  let record_recv ~dst key =
    match Hashtbl.find_opt handles key with
    | Some h ->
        Hashtbl.remove handles key;
        Builder.recv b ~dst h
    | None -> failwith "Live_mutex: unknown message key"
  in
  let instruments =
    Array.init n (fun proc -> Instrument.create ~mode ~n_app:n ~wcp_procs ~proc)
  in
  let send_app ctx ~src ~dst ~kind =
    let key = record_send ~src ~dst in
    let tag = Instrument.on_send instruments.(src) ctx in
    let msg = Messages.App_data { tag; kind; data = key } in
    Engine.send ctx ~bits:(Messages.bits ~spec_width:1 msg) ~dst msg
  in
  (* --- coordinator ------------------------------------------------ *)
  let pending = Queue.create () in
  let outstanding = ref 0 in
  let releases_seen = ref 0 in
  let rec try_grant ctx =
    if
      (not (Queue.is_empty pending))
      && (!outstanding = 0 || Rng.bernoulli (Engine.rng ctx) p_bug)
    then begin
      let c = Queue.pop pending in
      incr outstanding;
      send_app ctx ~src:coord ~dst:c ~kind:k_grant;
      try_grant ctx
    end
  in
  let coord_handler ctx ~src msg =
    match msg with
    | Messages.App_data { tag; kind; data } ->
        record_recv ~dst:coord data;
        Instrument.on_receive instruments.(coord) ctx ~src tag;
        if kind = k_request then Queue.add src pending
        else if kind = k_release then begin
          decr outstanding;
          incr releases_seen;
          if !releases_seen = clients * rounds then
            Instrument.finish instruments.(coord) ctx
        end
        else failwith "Live_mutex: coordinator got a grant";
        try_grant ctx
    | _ -> failwith "Live_mutex: unexpected message at coordinator"
  in
  (* --- clients ---------------------------------------------------- *)
  let think ctx = Rng.exponential (Engine.rng ctx) ~mean:0.4 in
  let request ctx (cl : client) =
    Engine.schedule ctx ~delay:(think ctx) (fun ctx ->
        send_app ctx ~src:cl.id ~dst:coord ~kind:k_request)
  in
  let client_handler (cl : client) ctx ~src msg =
    match msg with
    | Messages.App_data { tag; kind; data } when kind = k_grant ->
        record_recv ~dst:cl.id data;
        Instrument.on_receive cl.instr ctx ~src tag;
        (* Critical section: the monitored local predicate. *)
        Instrument.predicate_true cl.instr ctx;
        Builder.set_pred b ~proc:cl.id true;
        Engine.schedule ctx ~delay:(think ctx) (fun ctx ->
            send_app ctx ~src:cl.id ~dst:coord ~kind:k_release;
            cl.remaining <- cl.remaining - 1;
            if cl.remaining = 0 then Instrument.finish cl.instr ctx
            else request ctx cl)
    | _ -> failwith "Live_mutex: unexpected message at client"
  in
  Engine.set_handler engine coord coord_handler;
  Engine.schedule_initial engine ~proc:coord ~at:0.0 (fun ctx ->
      Instrument.start instruments.(coord) ctx);
  for c = 1 to clients do
    let cl = { id = c; instr = instruments.(c); remaining = rounds } in
    Engine.set_handler engine c (client_handler cl);
    Engine.schedule_initial engine ~proc:c ~at:0.0 (fun ctx ->
        Instrument.start cl.instr ctx;
        request ctx cl)
  done;
  (* --- online monitors (Fig. 1's monitoring plane) ----------------- *)
  let online = ref None in
  let hops = ref 0 and polls = ref 0 and snapshots = ref 0 in
  (match mode with
  | Instrument.Vc ->
      let monitors =
        Token_vc.install engine ~n_app:n ~wcp_procs ~stop:false ~outcome:online
          ~hops ~snapshots ()
      in
      Token_vc.start engine monitors
  | Instrument.Dd ->
      let monitors =
        Token_dd.install engine ~n_app:n ~parallel:false ~stop:false
          ~outcome:online ~hops ~polls ~snapshots ()
      in
      Token_dd.start engine monitors);
  (* Probe for the verdict's arrival time (1.0-unit granularity); the
     probe re-arms only while no verdict exists, so it cannot keep the
     engine alive forever. *)
  let detection_time = ref None in
  let probe_id = Run_common.extra_id ~n in
  let rec probe ctx =
    match !online with
    | Some _ -> detection_time := Some (Engine.time ctx)
    | None -> Engine.schedule ctx ~delay:1.0 probe
  in
  Engine.schedule_initial engine ~proc:probe_id ~at:1.0 probe;
  Engine.run engine;
  let recorded = Builder.finish b in
  match !online with
  | None -> failwith "Live_mutex: run ended without an online verdict"
  | Some online ->
      {
        online;
        recorded;
        wcp_procs;
        sim_time = Engine.now engine;
        detection_time = !detection_time;
      }
