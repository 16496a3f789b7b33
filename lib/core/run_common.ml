open Wcp_trace
open Wcp_sim

let monitor_of ~n p = n + p

let extra_id ~n = 2 * n

let default_network ~n =
  let fifo ~src ~dst =
    src < n && (dst = monitor_of ~n src || dst = extra_id ~n)
  in
  Network.create ~fifo ~latency:(Network.Uniform (0.5, 1.5)) ()

let make_engine_n ?network ?fault ?recorder ~seed ~n () =
  let network = match network with Some nw -> nw | None -> default_network ~n in
  Engine.create ~network ?fault ?recorder ~num_processes:((2 * n) + 1) ~seed ()

let make_engine ?network ?fault ?recorder ~seed comp =
  make_engine_n ?network ?fault ?recorder ~seed ~n:(Computation.n comp) ()

(* Every detector opens its recorded log with the same prologue so
   consumers can map engine ids to P_i / M_i roles. The "build" phase
   mark right after it opens the wiring/setup phase of the telemetry
   profile; [finish] closes it with the "detect" mark. *)
let emit_run_meta engine ~algo ~n ~width =
  match Engine.recorder engine with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Run_meta { algo; n; width });
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "build" })

type net = {
  send : Messages.t Engine.ctx -> bits:int -> dst:int -> Messages.t -> unit;
  set_handler :
    int -> (Messages.t Engine.ctx -> src:int -> Messages.t -> unit) -> unit;
}

let raw_net engine =
  {
    send = (fun ctx ~bits ~dst msg -> Engine.send ctx ~bits ~dst msg);
    set_handler = (fun id h -> Engine.set_handler engine id h);
  }

(* --- What the token detectors share -------------------------------- *)

let declare ?(stop = true) outcome ctx o =
  (match Engine.recorder_of ctx with
  | None -> ()
  | Some r -> (
      let emit body =
        Wcp_obs.Recorder.emit r ~time:(Engine.time ctx) ~proc:(Engine.self ctx)
          body
      in
      match o with
      | Detection.Detected cut ->
          emit
            (Wcp_obs.Event.Detected
               { procs = cut.Cut.procs; states = cut.Cut.states })
      | Detection.No_detection -> emit Wcp_obs.Event.No_detection_declared
      | Detection.Undetectable_crashed _ -> ()));
  if Option.is_none !outcome then begin
    outcome := Some o;
    if stop then Engine.stop ctx
  end

type monitors = {
  start_id : int;
  start_token : Messages.t Engine.ctx -> unit;
}

let start engine m =
  Engine.schedule_initial engine ~proc:m.start_id ~at:0.0 m.start_token

type recovery = {
  transport : Messages.t Transport.t;
  restarts : Fault.window list;
}

type faults = {
  net : net;
  watchdog : unit -> Watchdog.t option;
  recovery : recovery option;
}

(* Under a fault plan all protocol traffic rides the reliable
   transport, and an unreachable peer settles the run as
   [Undetectable_crashed]. Reprobing watchdogs, retained frames and
   checkpoints exist only under plans that actually restart someone,
   so every other run keeps its exact pre-recovery schedule. *)
let chaos_wiring engine ~fault ~outcome =
  let transport recovery =
    Transport.create ~recovery
      ~inject:(fun frame -> Messages.Frame frame)
      ~project:(function Messages.Frame f -> Some f | _ -> None)
      ~on_unreachable:(fun ctx ~dst ->
        declare outcome ctx (Detection.Undetectable_crashed [ dst ]))
      engine
  in
  let reliable t =
    {
      send = (fun ctx ~bits ~dst msg -> Transport.send t ctx ~bits ~dst msg);
      set_handler = (fun id h -> Transport.wire t id h);
    }
  in
  match fault with
  | None ->
      { net = raw_net engine; watchdog = (fun () -> None); recovery = None }
  | Some f when Fault.has_restarts f ->
      let t = transport true in
      {
        net = reliable t;
        watchdog = (fun () -> Some (Watchdog.create ~reprobe:true ()));
        recovery = Some { transport = t; restarts = Fault.restarts f };
      }
  | Some _ ->
      {
        net = reliable (transport false);
        watchdog = (fun () -> Some (Watchdog.create ()));
        recovery = None;
      }

(* The armed watchdog lease a monitor checkpoints: only the watch it
   armed itself (a shared watchdog belongs to the last forwarder). *)
let lease wd ~proc =
  match wd with
  | Some wd when Watchdog.seq wd > 0 && Watchdog.owner wd = proc -> (
      match Watchdog.token wd with
      | Some (w_payload, w_bits) ->
          Some
            {
              Checkpoint.w_seq = Watchdog.seq wd;
              w_dst = Watchdog.dst wd;
              w_probes = Watchdog.probes wd;
              w_bits;
              w_payload;
            }
      | None -> None)
  | _ -> None

(* Checkpoint every restarting monitor after each handled message, and
   rebuild it from the last checkpoint at each window's end. *)
let recoverable engine net (r : recovery) cells ~id ~watchdog ~capture
    ~restore =
  let cell_of = Hashtbl.create 8 in
  Array.iter (fun m -> Hashtbl.replace cell_of (id m) m) cells;
  let store : (int, string) Hashtbl.t = Hashtbl.create 4 in
  let snap ?ctx m =
    let proc = id m in
    let s =
      Checkpoint.encode
        {
          Checkpoint.proc;
          algo = capture m;
          transport = Transport.export_state r.transport ~proc;
          watchdog = lease (watchdog m) ~proc;
        }
    in
    Hashtbl.replace store proc s;
    match ctx with
    | None -> ()
    | Some ctx -> (
        Stats.note_checkpoint (Engine.stats_of ctx);
        match Engine.recorder_of ctx with
        | None -> ()
        | Some rc ->
            Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx) ~proc
              (Wcp_obs.Event.Checkpoint_taken { bytes = String.length s }))
  in
  let reload ctx m s =
    let proc = id m in
    let c = Checkpoint.decode s in
    restore m c.Checkpoint.algo;
    (match (watchdog m, c.Checkpoint.watchdog) with
    | Some wd, Some w when w.Checkpoint.w_seq >= Watchdog.seq wd ->
        (* Latest watch wins: a live watch with a newer hop means
           another monitor took over after this checkpoint. The resend
           closure is rebuilt from the checkpointed token bytes. *)
        let dst = w.Checkpoint.w_dst and bits = w.Checkpoint.w_bits in
        let payload = w.Checkpoint.w_payload in
        Watchdog.restore wd ctx ~token:(payload, bits) ~seq:w.Checkpoint.w_seq
          ~dst ~probes:w.Checkpoint.w_probes
          ~resend:(fun ctx ->
            net.send ctx ~bits ~dst (Messages.deep_copy payload))
          ()
    | _ -> ());
    Transport.restore_state r.transport ~proc c.Checkpoint.transport;
    Stats.note_restore (Engine.stats_of ctx);
    (match Engine.recorder_of ctx with
    | None -> ()
    | Some rc ->
        Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx) ~proc
          (Wcp_obs.Event.Restored { bytes = String.length s });
        Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx) ~proc:(-1)
          (Wcp_obs.Event.Phase_marked { name = "recovery" }));
    Transport.reconnect r.transport ctx ~proc
  in
  (* Seed every restarting monitor with its pre-run state, so a window
     that opens before the first handled message still restores. *)
  List.filter_map
    (fun (w : Fault.window) -> Hashtbl.find_opt cell_of w.Fault.proc)
    r.restarts
  |> List.sort_uniq (fun a b -> compare (id a) (id b))
  |> List.iter (fun m -> snap m);
  (* One restore timer per window, at its recovery time [until_t]. The
     timer was scheduled at setup, so at [until_t] it runs before any
     message the window deferred to the same instant (insertion
     order), and the deferred deliveries find the restored state. *)
  List.iter
    (fun (w : Fault.window) ->
      match (Hashtbl.find_opt cell_of w.Fault.proc, w.Fault.until_t) with
      | Some m, Some at ->
          Engine.schedule_initial engine ~proc:w.Fault.proc ~at (fun ctx ->
              Option.iter (reload ctx m) (Hashtbl.find_opt store w.Fault.proc))
      | _ -> ())
    r.restarts;
  fun m ctx -> if Hashtbl.mem store (id m) then snap ~ctx m

let install_monitors engine net ?recovery cells ~id ~watchdog ~capture
    ~restore handle =
  match recovery with
  | None ->
      Array.iter (fun m -> net.set_handler (id m) (handle m)) cells;
      fun _ _ -> ()
  | Some r ->
      let checkpoint =
        recoverable engine net r cells ~id ~watchdog ~capture ~restore
      in
      Array.iter
        (fun m ->
          net.set_handler (id m) (fun ctx ~src msg ->
              handle m ctx ~src msg;
              checkpoint m ctx))
        cells;
      checkpoint

let watchdog_message ?watchdog ctx ~src ~last_seq ~holding = function
  | Messages.Wd_probe { seq } ->
      let reply =
        Messages.Wd_reply
          {
            seq;
            received = seq <= last_seq;
            holding = holding && seq = last_seq;
          }
      in
      Engine.send ctx ~bits:(Messages.bits ~spec_width:1 reply) ~dst:src reply
  | Messages.Wd_reply { seq; received; holding } ->
      Option.iter
        (fun wd -> Watchdog.on_reply wd ctx ~seq ~received ~holding)
        watchdog
  | msg ->
      Format.kasprintf failwith "unexpected %a at monitor %d" Messages.pp msg
        (Engine.self ctx)

let finish ?fault engine ~outcome ~extras =
  (match Engine.recorder engine with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:(Engine.now engine) ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "detect" }));
  Engine.run engine;
  let result o =
    {
      Detection.outcome = o;
      stats = Engine.stats engine;
      sim_time = Engine.now engine;
      events = Engine.events_processed engine;
      extras;
    }
  in
  match !outcome with
  | Some o -> result o
  | None -> (
      (* The event queue drained with no announcement. Under a fault
         plan with permanent crashes this is the expected shape of a
         wedged protocol (e.g. a crashed application process starves
         its monitor forever): degrade gracefully instead of raising. *)
      match fault with
      | Some plan when Fault.permanently_crashed plan <> [] ->
          result (Detection.Undetectable_crashed (Fault.permanently_crashed plan))
      | _ -> failwith "detection run ended without an outcome")

(* The offline token run: the monitors are wired before the
   application replay schedules its events, and the token (or the
   multi-token leader) starts after both. *)
let replay ?network ?fault ?recorder ~seed ~algo ~width comp ~monitors ~app =
  let fault =
    match fault with Some p when not (Fault.is_none p) -> Some p | _ -> None
  in
  let engine = make_engine ?network ?fault ?recorder ~seed comp in
  emit_run_meta engine ~algo ~n:(Computation.n comp) ~width;
  let outcome = ref None in
  let faults = chaos_wiring engine ~fault ~outcome in
  let m = monitors engine faults ~outcome in
  app engine faults.net;
  start engine m;
  finish ?fault engine ~outcome ~extras:Detection.no_extras

let with_slicer ?recorder ~procs slicer ~run =
  (* The "slice" phase mark precedes the inner run's [Run_meta] — the
     slice is computed before any engine exists. Consumers treat
     leading phase marks as pre-run profile data (see Event.mli). *)
  (match recorder with
  | None -> ()
  | Some r ->
      Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1)
        (Wcp_obs.Event.Phase_marked { name = "slice" }));
  let sl = slicer () in
  let sliced = Wcp_slice.Slice.computation sl in
  let r : Detection.result = run sliced (Spec.make sliced procs) in
  {
    r with
    Detection.outcome =
      Detection.remap_outcome (Wcp_slice.Slice.remap_cut sl) r.Detection.outcome;
  }

let with_source ?recorder ~keep_rest src ~procs ~run =
  with_slicer ?recorder ~procs
    (fun () -> Wcp_slice.Slice.for_spec_source ~keep_rest src ~procs)
    ~run

let with_slice ?recorder ~keep_rest comp spec ~run =
  with_source ?recorder ~keep_rest
    (Computation.Stream.of_computation comp)
    ~procs:(Spec.procs spec) ~run
