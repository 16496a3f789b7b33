(* One streaming detection session: bounded ring + disk spill feeding
   an incremental slicer. Online algorithms hold their cut as events
   are fed; batch algorithms detect on the finished slice. See
   session.mli for the threading contract. *)

open Wcp_trace
open Wcp_core

module Slice = Wcp_slice.Slice

type config = {
  id : string;
  n : int;
  algo : string;
  procs : int array;
  seed : int64;
  groups : int;
  pred0 : bool array;
  metrics_every : float;
  ring : int;
  spill_path : string;
}

let event_bytes = Frame.event_bytes

(* --- online detection ---------------------------------------------- *)

(* Garg–Waldecker queue elimination on dense clocks: each
   predicate-true state of spec slot k is offered with its vector clock
   as the slicer enters it (column procs.(k) of a dense clock belongs
   to slot k). The first time every slot is filled the standing
   candidates form the least satisfying cut — held at the event that
   completed it, and the core with its queued clocks is dropped. *)
type cut = Seeking of Snapshot.vc Elimination.t | Held of int array * int

type detector =
  | Eliminating of {
      slot : int array;  (* process -> slot, -1 outside the spec *)
      mutable cut : cut;  (* Held: cut states, events fed *)
    }
  | Slicing of Detectors.t

(* A candidate only moves the core if its slot was empty. *)
let offer det k c ~events =
  match det with
  | Eliminating ({ cut = Seeking el; _ } as o) ->
      let empty = Option.is_none (Elimination.candidate el k) in
      Elimination.push el k c;
      if empty then begin
        ignore (Elimination.drive el : int);
        if Elimination.full el then o.cut <- Held (Elimination.states el, events)
      end
  | Eliminating { cut = Held _; _ } | Slicing _ -> ()

type t = {
  cfg : config;
  det : detector;
  builder : Slice.Incremental.builder;
  cur_pred : bool array;  (* worker-private backing of the keep policy *)
  mu : Mutex.t;
  (* ring (guarded by mu) *)
  rw0 : int array;
  rw1 : int array;
  mutable head : int;
  mutable live : int;
  (* spill (guarded by mu) *)
  mutable spill_fd : Unix.file_descr option;
  mutable spilling : bool;
  mutable sp_wbytes : int;  (* bytes written to the spill file *)
  mutable sp_rbytes : int;  (* bytes drained back out of it *)
  mutable sp_stage : Bytes.t;
  (* counters and lifecycle (guarded by mu) *)
  mutable received : int;
  mutable fedv : int;
  mutable last_credit : int;  (* fed count at the last credit line *)
  mutable finish_req : bool;
  mutable failed : string option;
  mutable resultv : Protocol.server_msg option;
  mutable delivered : bool;
  mutable sender : (Protocol.server_msg -> unit) option;
  mutable claimed : bool;  (* a live connection holds the session *)
  (* worker-private drain scratch *)
  mutable dw0 : int array;
  mutable dw1 : int array;
}

let fnv1a s =
  let h = ref (Int64.to_int 0xcbf29ce484222325L) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let create (cfg : config) =
  match Detectors.find cfg.algo with
  | Error _ as e -> e
  | Ok algo ->
      if cfg.n <= 0 then Error "n must be positive"
      else if Array.length cfg.pred0 <> cfg.n then Error "pred0 length <> n"
      else if cfg.groups < 1 then Error "groups must be positive"
      else if
        Array.length cfg.procs = 0
        || Array.exists (fun p -> p < 0 || p >= cfg.n) cfg.procs
      then Error "procs must be a nonempty subset of 0..n-1"
      else begin
        let procs =
          Array.of_list (List.sort_uniq compare (Array.to_list cfg.procs))
        in
        let cfg = { cfg with procs; ring = max 16 cfg.ring } in
        let member = Array.make cfg.n false in
        Array.iter (fun p -> member.(p) <- true) procs;
        let cur_pred = Array.copy cfg.pred0 in
        (* Batch algorithms: the policy of Slice.for_spec_source — spec
           processes keep their predicate-true states, the rest keep
           everything iff the algorithm's cuts span all N processes. The
           builder consults [keep] synchronously as each state is
           entered, so the mutable [cur_pred] cell always holds that
           state's flag. Online algorithms read clocks straight off the
           builder and keep no anchors at all. *)
        let keep =
          if algo.Detectors.online then fun ~proc:_ ~state:_ -> false
          else fun ~proc ~state:_ ->
            if member.(proc) then cur_pred.(proc) else algo.Detectors.keep_rest
        in
        let builder =
          Slice.Incremental.create ~n:cfg.n ~keep ~pred0:(fun p -> cfg.pred0.(p))
        in
        let det =
          if not algo.Detectors.online then Slicing algo
          else
            let slot = Array.make cfg.n (-1) in
            Array.iteri (fun k p -> slot.(p) <- k) procs;
            let det =
              Eliminating
                {
                  slot;
                  cut =
                    Seeking
                      (Elimination.create ~columns:procs
                         ~state:(fun (c : Snapshot.vc) -> c.state)
                         ~clock:(fun (c : Snapshot.vc) -> c.clock));
                }
            in
            Array.iteri
              (fun k p ->
                if cfg.pred0.(p) then
                  offer det k
                    {
                      Snapshot.state = 1;
                      clock = Slice.Incremental.clock builder ~proc:p;
                    }
                    ~events:0)
              procs;
            det
        in
        Ok
          {
            cfg;
            det;
            builder;
            cur_pred;
            mu = Mutex.create ();
            rw0 = Array.make cfg.ring 0;
            rw1 = Array.make cfg.ring 0;
            head = 0;
            live = 0;
            spill_fd = None;
            spilling = false;
            sp_wbytes = 0;
            sp_rbytes = 0;
            sp_stage = Bytes.create 0;
            received = 0;
            fedv = 0;
            last_credit = 0;
            finish_req = false;
            failed = None;
            resultv = None;
            delivered = false;
            sender = None;
            claimed = false;
            dw0 = [||];
            dw1 = [||];
          }
      end

let id t = t.cfg.id

let config t = t.cfg

let shard_key t = fnv1a t.cfg.id

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

(* --- spill file (all under t.mu) ---------------------------------- *)

let spill_file t =
  match t.spill_fd with
  | Some fd -> fd
  | None ->
      let fd =
        Unix.openfile t.cfg.spill_path
          [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
          0o600
      in
      t.spill_fd <- Some fd;
      fd

let ensure_stage t bytes =
  if Bytes.length t.sp_stage < bytes then
    t.sp_stage <- Bytes.create (max bytes 65536)

let fd_write_all fd b pos len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    match Unix.write fd b !off !left with
    | k ->
        off := !off + k;
        left := !left - k
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let fd_read_all fd b pos len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    match Unix.read fd b !off !left with
    | 0 -> failwith "session spill file truncated"
    | k ->
        off := !off + k;
        left := !left - k
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let spill_write t ~words ~metas pos count =
  let fd = spill_file t in
  let bytes = count * event_bytes in
  ensure_stage t bytes;
  for i = 0 to count - 1 do
    Frame.write_event t.sp_stage (i * event_bytes) ~word:words.(pos + i)
      ~meta:metas.(pos + i)
  done;
  ignore (Unix.lseek fd t.sp_wbytes Unix.SEEK_SET : int);
  fd_write_all fd t.sp_stage 0 bytes;
  t.sp_wbytes <- t.sp_wbytes + bytes

let spill_read t ~into_w ~into_m pos count =
  let fd = spill_file t in
  let bytes = count * event_bytes in
  ensure_stage t bytes;
  ignore (Unix.lseek fd t.sp_rbytes Unix.SEEK_SET : int);
  fd_read_all fd t.sp_stage 0 bytes;
  for i = 0 to count - 1 do
    into_w.(pos + i) <- Frame.event_word t.sp_stage (i * event_bytes);
    into_m.(pos + i) <- Frame.event_meta t.sp_stage (i * event_bytes)
  done;
  t.sp_rbytes <- t.sp_rbytes + bytes

let spill_reset t =
  (* ring empty and the spill fully drained: recycle the file so a
     long session's spill never grows without bound *)
  t.spilling <- false;
  t.sp_wbytes <- 0;
  t.sp_rbytes <- 0;
  match t.spill_fd with
  | None -> ()
  | Some fd -> ( try Unix.ftruncate fd 0 with Unix.Unix_error _ -> ())

(* --- connection side ---------------------------------------------- *)

let fail_locked t msg = if t.failed = None then t.failed <- Some msg

let fail t msg = locked t (fun () -> fail_locked t msg)

let abort t msg =
  locked t (fun () ->
      fail_locked t msg;
      (match (t.resultv, t.failed) with
      | None, Some m -> t.resultv <- Some (Protocol.Error_msg { message = m })
      | _ -> ());
      if t.delivered then None
      else begin
        t.delivered <- true;
        t.resultv
      end)

let push_batch t ~words ~metas k =
  if k > 0 then
    locked t (fun () ->
        if t.failed <> None then ()
        else if t.finish_req then
          fail_locked t "protocol error: events after finish"
        else begin
          let cap = t.cfg.ring in
          let bad = ref (-1) in
          for i = 0 to k - 1 do
            let p = metas.(i) lsr 1 in
            if p >= t.cfg.n then bad := p
          done;
          if !bad >= 0 then
            fail_locked t
              (Printf.sprintf "event process %d out of range (n=%d)" !bad
                 t.cfg.n)
          else begin
            let i = ref 0 in
            if not t.spilling then
              while !i < k && t.live < cap do
                let idx = (t.head + t.live) mod cap in
                t.rw0.(idx) <- words.(!i);
                t.rw1.(idx) <- metas.(!i);
                t.live <- t.live + 1;
                incr i
              done;
            if !i < k then begin
              t.spilling <- true;
              spill_write t ~words ~metas !i (k - !i)
            end;
            t.received <- t.received + k
          end
        end)

let request_finish t = locked t (fun () -> t.finish_req <- true)

let acked t = locked t (fun () -> t.received)

let credit_locked t = if t.spilling then 0 else t.cfg.ring - t.live

let credit t = locked t (fun () -> credit_locked t)

let attach_sender t w =
  locked t (fun () ->
      t.sender <- Some w;
      match (t.resultv, t.failed) with
      | Some r, _ when not t.delivered ->
          t.delivered <- true;
          Some r
      | None, Some m when not t.delivered ->
          t.delivered <- true;
          Some (Protocol.Error_msg { message = m })
      | _ -> None)

let detach_sender t =
  locked t (fun () ->
      t.sender <- None;
      t.claimed <- false)

let claim t =
  locked t (fun () ->
      let free = not t.claimed in
      t.claimed <- true;
      free)

let send t msg =
  match locked t (fun () -> t.sender) with
  | None -> ()
  | Some w -> (
      try w msg
      with Protocol.Disconnected -> locked t (fun () -> t.sender <- None))

(* --- worker side --------------------------------------------------- *)

type progress = Drained of int | Ready | Idle

let ensure_scratch t max =
  if Array.length t.dw0 < max then begin
    t.dw0 <- Array.make max 0;
    t.dw1 <- Array.make max 0
  end

let take_batch t max =
  locked t (fun () ->
      if t.resultv <> None then `Skip
      else if t.failed <> None then `Ready
      else begin
        ensure_scratch t max;
        let cap = t.cfg.ring in
        let j = ref 0 in
        while !j < max && t.live > 0 do
          t.dw0.(!j) <- t.rw0.(t.head);
          t.dw1.(!j) <- t.rw1.(t.head);
          t.head <- (t.head + 1) mod cap;
          t.live <- t.live - 1;
          incr j
        done;
        if !j < max && t.spilling && t.sp_rbytes < t.sp_wbytes then begin
          let avail = (t.sp_wbytes - t.sp_rbytes) / event_bytes in
          let c = min (max - !j) avail in
          spill_read t ~into_w:t.dw0 ~into_m:t.dw1 !j c;
          j := !j + c
        end;
        if t.live = 0 && t.spilling && t.sp_rbytes >= t.sp_wbytes then
          spill_reset t;
        if !j > 0 then `Batch !j
        else if t.finish_req && t.fedv = t.received then `Ready
        else `Idle
      end)

let feed_one t ~word ~meta =
  let proc = meta lsr 1 in
  let pred = meta land 1 = 1 in
  t.cur_pred.(proc) <- pred;
  if word land 1 = 1 then
    Slice.Incremental.on_receive t.builder ~proc ~msg:(word lsr 24) ~pred
  else
    Slice.Incremental.on_send t.builder ~proc
      ~dst:((word lsr 1) land Btrace.max_dst)
      ~msg:(word lsr 24) ~pred;
  match t.det with
  | Eliminating { slot; cut = Seeking _ } when pred && slot.(proc) >= 0 ->
      offer t.det slot.(proc)
        {
          Snapshot.state = Slice.Incremental.state t.builder ~proc;
          clock = Slice.Incremental.clock t.builder ~proc;
        }
        ~events:(Slice.Incremental.events_fed t.builder)
  | Eliminating _ | Slicing _ -> ()

let drain t ~max =
  match take_batch t max with
  | `Skip | `Idle -> Idle
  | `Ready -> Ready
  | `Batch k ->
      let fed_ok = ref 0 in
      (try
         for i = 0 to k - 1 do
           feed_one t ~word:t.dw0.(i) ~meta:t.dw1.(i);
           incr fed_ok
         done
       with Invalid_argument m | Failure m ->
         fail t (Printf.sprintf "bad event stream: %s" m));
      locked t (fun () -> t.fedv <- t.fedv + !fed_ok);
      Drained k

let fed t = locked t (fun () -> t.fedv)

let want_credit t =
  locked t (fun () ->
      t.sender <> None && t.fedv - t.last_credit >= t.cfg.ring / 2)

let credit_sent t = locked t (fun () -> t.last_credit <- t.fedv)

let completed t = locked t (fun () -> t.resultv <> None)

(* --- detection ----------------------------------------------------- *)

(* Batch: the offline slice → detect → remap sequence over the finished
   builder, so the served cut is byte-identical to the offline
   [wcpdetect detect] rendering of the same trace. *)
let run_batch t (d : Detectors.t) ~recorder =
  let r =
    Run_common.with_slicer ?recorder ~procs:t.cfg.procs
      (fun () -> Slice.Incremental.finish t.builder)
      ~run:(fun sliced spec ->
        d.run ?recorder ~options:Detection.default_options ~groups:t.cfg.groups
          ~seed:t.cfg.seed sliced spec)
  in
  ( r.Detection.outcome,
    r.Detection.events,
    Wcp_sim.Stats.total_sent r.Detection.stats,
    Wcp_sim.Stats.total_bits r.Detection.stats,
    r.Detection.extras.Detection.token_hops )

(* Online: the outcome was settled while the stream was fed; only the
   verdict is narrated, so a metrics session still gets a well-formed
   wcp-metrics/1 stream. No simulated network runs. *)
let run_online t cut ~recorder =
  let procs = t.cfg.procs in
  let outcome, events =
    match cut with
    | Held (states, events) ->
        (Detection.Detected (Cut.make ~procs ~states), events)
    | Seeking _ -> (Detection.No_detection, Slice.Incremental.events_fed t.builder)
  in
  (match recorder with
  | None -> ()
  | Some r ->
      let emit body = Wcp_obs.Recorder.emit r ~time:0.0 ~proc:(-1) body in
      emit
        (Wcp_obs.Event.Run_meta
           { algo = t.cfg.algo; n = t.cfg.n; width = Array.length procs });
      emit (Wcp_obs.Event.Phase_marked { name = "detect" });
      emit
        (match outcome with
        | Detection.Detected c ->
            Wcp_obs.Event.Detected { procs = c.Cut.procs; states = c.Cut.states }
        | Detection.No_detection | Detection.Undetectable_crashed _ ->
            Wcp_obs.Event.No_detection_declared));
  (outcome, events, 0, 0, 0)

let detect t ~on_metrics =
  let cfg = t.cfg in
  let msg =
    match locked t (fun () -> t.failed) with
    | Some m -> Protocol.Error_msg { message = m }
    | None -> (
        let recorder, close_tel =
          match on_metrics with
          | Some sink when cfg.metrics_every > 0. ->
              let tel =
                Wcp_obs.Telemetry.create ~every:cfg.metrics_every ~sink ()
              in
              let r = Wcp_obs.Recorder.create ~capacity:1 () in
              Wcp_obs.Telemetry.attach tel r;
              (Some r, fun () -> Wcp_obs.Telemetry.close tel)
          | _ -> (None, fun () -> ())
        in
        let t0 = Unix.gettimeofday () in
        match
          match t.det with
          | Eliminating { cut; _ } -> run_online t cut ~recorder
          | Slicing d -> run_batch t d ~recorder
        with
        | outcome, events, msgs, bits, hops ->
            close_tel ();
            let lat_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
            Protocol.Result
              {
                session = cfg.id;
                outcome = Format.asprintf "%a" Detection.pp_outcome outcome;
                events;
                msgs;
                bits;
                hops;
                lat_ns;
              }
        | exception e ->
            close_tel ();
            Protocol.Error_msg
              { message = "detection failed: " ^ Printexc.to_string e })
  in
  locked t (fun () -> t.resultv <- Some msg);
  msg

let deliver t =
  match
    locked t (fun () ->
        match (t.resultv, t.sender) with
        | Some r, Some w when not t.delivered ->
            t.delivered <- true;
            Some (w, r)
        | _ -> None)
  with
  | None -> ()
  | Some (w, r) -> (
      try w r
      with Protocol.Disconnected ->
        (* peer died between completing and delivery: keep the result
           for a reconnect *)
        locked t (fun () ->
            t.delivered <- false;
            t.sender <- None))

let delivered t = locked t (fun () -> t.delivered)

let close t =
  locked t (fun () ->
      (match t.spill_fd with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.spill_fd <- None
      | None -> ());
      try Unix.unlink t.cfg.spill_path with Unix.Unix_error _ | Sys_error _ -> ())
