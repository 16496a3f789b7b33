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

type announce = Detection.outcome -> unit

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

let reliable_net_transport ?rto ?backoff ?max_retries ?max_unacked ?recovery
    ?on_unreachable engine =
  let transport =
    Transport.create ?rto ?backoff ?max_retries ?max_unacked ?recovery
      ~inject:(fun frame -> Messages.Frame frame)
      ~project:(function Messages.Frame f -> Some f | _ -> None)
      ?on_unreachable engine
  in
  ( {
      send =
        (fun ctx ~bits ~dst msg -> Transport.send transport ctx ~bits ~dst msg);
      set_handler = (fun id h -> Transport.wire transport id h);
    },
    transport )

let reliable_net ?rto ?backoff ?max_retries ?on_unreachable engine =
  fst (reliable_net_transport ?rto ?backoff ?max_retries ?on_unreachable engine)

(* --- Crash-recovery wiring (Fault.Restart windows) ---------------- *)

type recovery = {
  transport : Messages.t Transport.t;
  restarts : Fault.window list;
  every : int;
}

let wire_recovery engine (r : recovery) ~owns ~capture ~restore =
  if r.every < 1 then invalid_arg "Run_common.wire_recovery: every must be >= 1";
  let store : (int, string) Hashtbl.t = Hashtbl.create 4 in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let procs =
    List.filter_map
      (fun (w : Fault.window) ->
        if owns w.Fault.proc then Some w.Fault.proc else None)
      r.restarts
    |> List.sort_uniq compare
  in
  let snap ?ctx proc =
    let algo, watchdog = capture proc in
    let c =
      {
        Checkpoint.proc;
        algo;
        transport = Transport.export_state r.transport ~proc;
        watchdog;
      }
    in
    let s = Checkpoint.encode c in
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
  (* Seed every restarting proc with its pre-run state, so a window
     that opens before the first handled message still restores. *)
  List.iter (fun p -> snap p) procs;
  (* One restore timer per window, at its recovery time [until_t]. The
     timer was scheduled at setup, so at [until_t] it runs before any
     message the window deferred to the same instant (insertion
     order), and the deferred deliveries find the restored state. *)
  List.iter
    (fun (w : Fault.window) ->
      if owns w.Fault.proc then
        match w.Fault.until_t with
        | None -> ()
        | Some at ->
            Engine.schedule_initial engine ~proc:w.Fault.proc ~at (fun ctx ->
                match Hashtbl.find_opt store w.Fault.proc with
                | None -> ()
                | Some s ->
                    let c = Checkpoint.decode s in
                    restore ctx c;
                    Transport.restore_state r.transport ~proc:w.Fault.proc
                      c.Checkpoint.transport;
                    Stats.note_restore (Engine.stats_of ctx);
                    (match Engine.recorder_of ctx with
                    | None -> ()
                    | Some rc ->
                        Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx)
                          ~proc:w.Fault.proc
                          (Wcp_obs.Event.Restored { bytes = String.length s });
                        Wcp_obs.Recorder.emit rc ~time:(Engine.time ctx)
                          ~proc:(-1)
                          (Wcp_obs.Event.Phase_marked { name = "recovery" }));
                    Transport.reconnect r.transport ctx ~proc:w.Fault.proc))
    r.restarts;
  fun proc ctx ->
    if Hashtbl.mem store proc then begin
      let k =
        (match Hashtbl.find_opt counts proc with Some k -> k | None -> 0) + 1
      in
      Hashtbl.replace counts proc k;
      if k mod r.every = 0 then snap ~ctx proc
    end

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
