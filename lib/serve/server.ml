(* The streaming detection service. See server.mli for the thread
   architecture. *)

open Wcp_trace

module Parallel = Wcp_util.Parallel

type config = {
  addr : Protocol.addr;
  domains : int option;
  ring : int;
  batch : int;
  spool_dir : string;
  max_sessions : int;
  drain_delay : float;
  gc_minor_words : int;
  log : string -> unit;
}

let default_config ~addr =
  {
    addr;
    domains = None;
    ring = 4096;
    batch = 1024;
    spool_dir = Filename.get_temp_dir_name ();
    max_sessions = 0;
    drain_delay = 0.;
    gc_minor_words = 4 * 1024 * 1024;
    log = ignore;
  }

(* Minor collections are stop-the-world across every domain in OCaml 5;
   at streaming rates the default 256k-word nursery makes the resulting
   barrier the dominant cost. [Gc.set] only affects the calling domain,
   so each shard worker raises its own nursery when it starts (see
   {!tune_gc}); callers owning the whole process (the [wcpdetect serve]
   daemon, benchmarks) should do the same on their main domain. *)
let tune_gc words =
  if words > 0 then begin
    let g = Gc.get () in
    if g.Gc.minor_heap_size < words then
      Gc.set { g with Gc.minor_heap_size = words }
  end

type entry = {
  sess : Session.t;
  shard : int;
  mutable queued : bool;  (* guarded by the shard's mutex *)
}

type shard = {
  smu : Mutex.t;
  scv : Condition.t;
  q : entry Queue.t;
}

type watcher = { wid : int; wfd : Unix.file_descr; wmu : Mutex.t }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  baddr : Protocol.addr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stopping : bool Atomic.t;
  sessions : (string, entry) Hashtbl.t;
  tmu : Mutex.t;  (* sessions table, spill-name counter, conn registry *)
  mutable spill_seq : int;
  mutable conn_fds : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable watchers : watcher list;
  mutable watcher_seq : int;
  mutable shards : shard array;
  cmu : Mutex.t;  (* completion counter *)
  mutable ncompleted : int;
}

let create cfg =
  Protocol.ignore_sigpipe ();
  let listen_fd = Protocol.listen cfg.addr in
  let baddr = Protocol.bound_addr listen_fd cfg.addr in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  {
    cfg;
    listen_fd;
    baddr;
    stop_r;
    stop_w;
    stopping = Atomic.make false;
    sessions = Hashtbl.create 16;
    tmu = Mutex.create ();
    spill_seq = 0;
    conn_fds = [];
    conn_threads = [];
    watchers = [];
    watcher_seq = 0;
    shards = [||];
    cmu = Mutex.create ();
    ncompleted = 0;
  }

let bound_addr t = t.baddr

let completed t =
  Mutex.lock t.cmu;
  let n = t.ncompleted in
  Mutex.unlock t.cmu;
  n

let stop t =
  if Atomic.compare_and_set t.stopping false true then begin
    t.cfg.log "stopping";
    (try ignore (Unix.write t.stop_w (Bytes.make 1 'x') 0 1 : int)
     with Unix.Unix_error _ -> ());
    Array.iter
      (fun sh ->
        Mutex.lock sh.smu;
        Condition.broadcast sh.scv;
        Mutex.unlock sh.smu)
      t.shards
  end

(* --- shard queue ---------------------------------------------------- *)

let notify t e =
  let sh = t.shards.(e.shard) in
  Mutex.lock sh.smu;
  if not e.queued then begin
    e.queued <- true;
    Queue.push e sh.q;
    Condition.signal sh.scv
  end;
  Mutex.unlock sh.smu

(* --- watchers ------------------------------------------------------- *)

let add_watcher t fd =
  Mutex.lock t.tmu;
  t.watcher_seq <- t.watcher_seq + 1;
  let w = { wid = t.watcher_seq; wfd = fd; wmu = Mutex.create () } in
  t.watchers <- w :: t.watchers;
  Mutex.unlock t.tmu;
  w

let remove_watcher t w =
  Mutex.lock t.tmu;
  t.watchers <- List.filter (fun x -> x.wid <> w.wid) t.watchers;
  Mutex.unlock t.tmu

let broadcast_metrics t line =
  Mutex.lock t.tmu;
  let ws = t.watchers in
  Mutex.unlock t.tmu;
  List.iter
    (fun w ->
      Mutex.lock w.wmu;
      (try Protocol.write_string w.wfd (line ^ "\n")
       with Protocol.Disconnected -> remove_watcher t w);
      Mutex.unlock w.wmu)
    ws

(* --- session lifecycle ---------------------------------------------- *)

let remove_session t e =
  Mutex.lock t.tmu;
  (match Hashtbl.find_opt t.sessions (Session.id e.sess) with
  | Some e' when e' == e -> Hashtbl.remove t.sessions (Session.id e.sess)
  | _ -> ());
  Mutex.unlock t.tmu;
  Session.close e.sess

let completion t e =
  Mutex.lock t.cmu;
  t.ncompleted <- t.ncompleted + 1;
  let fire = t.cfg.max_sessions > 0 && t.ncompleted >= t.cfg.max_sessions in
  Mutex.unlock t.cmu;
  if Session.delivered e.sess then remove_session t e;
  if fire then stop t

(* --- shard worker ---------------------------------------------------- *)

(* Drain up to [drain_visits] batches per queue visit before requeuing.
   Each wake of a shard worker costs a cross-thread signal and a context
   switch; amortising many batches over one wake keeps the ingest path
   off the scheduler. The bound keeps co-sharded sessions from starving
   behind one firehose session. *)
let drain_visits = 64

let detect_and_report t e =
  let sid = Session.id e.sess in
  t.cfg.log (Printf.sprintf "session %s: detecting" sid);
  let on_metrics line =
    Session.send e.sess (Protocol.Metrics { line });
    broadcast_metrics t line
  in
  let msg = Session.detect e.sess ~on_metrics:(Some on_metrics) in
  Session.deliver e.sess;
  (match msg with
  | Protocol.Result { outcome; events; lat_ns; _ } ->
      t.cfg.log
        (Printf.sprintf "session %s: %s (%d events, %.3fms)" sid outcome events
           (float_of_int lat_ns /. 1e6))
  | Protocol.Error_msg { message } ->
      t.cfg.log (Printf.sprintf "session %s: error: %s" sid message)
  | _ -> ());
  completion t e

let process t e =
  let rec go visits =
    match Session.drain e.sess ~max:t.cfg.batch with
    | Session.Idle -> ()
    | Session.Drained _ ->
        if t.cfg.drain_delay > 0. then Unix.sleepf t.cfg.drain_delay;
        if Session.want_credit e.sess then begin
          Session.send e.sess
            (Protocol.Credit
               {
                 acked = Session.acked e.sess;
                 credit = Session.credit e.sess;
               });
          Session.credit_sent e.sess
        end;
        if visits > 1 then go (visits - 1) else notify t e
    | Session.Ready -> detect_and_report t e
  in
  go drain_visits

let worker_loop t slot =
  tune_gc t.cfg.gc_minor_words;
  let sh = t.shards.(slot) in
  let rec loop () =
    Mutex.lock sh.smu;
    while Queue.is_empty sh.q && not (Atomic.get t.stopping) do
      Condition.wait sh.scv sh.smu
    done;
    if Queue.is_empty sh.q then Mutex.unlock sh.smu
    else begin
      let e = Queue.pop sh.q in
      e.queued <- false;
      Mutex.unlock sh.smu;
      (try process t e
       with ex ->
         t.cfg.log
           (Printf.sprintf "session %s: worker exception: %s"
              (Session.id e.sess) (Printexc.to_string ex)));
      loop ()
    end
  in
  loop ()

(* --- connection handling --------------------------------------------- *)

let make_sender fd =
  let wmu = Mutex.create () in
  fun msg ->
    Mutex.lock wmu;
    (try Protocol.write_string fd (Protocol.encode_server msg ^ "\n")
     with e ->
       Mutex.unlock wmu;
       raise e);
    Mutex.unlock wmu

let find_or_create t (h : Protocol.hello) =
  Mutex.lock t.tmu;
  match Hashtbl.find_opt t.sessions h.session with
  | Some e ->
      Mutex.unlock t.tmu;
      if Session.claim e.sess then Ok (e, false)
      else Error Protocol.session_busy
  | None ->
      t.spill_seq <- t.spill_seq + 1;
      let spill_path =
        Filename.concat t.cfg.spool_dir
          (Printf.sprintf "wcp-serve-%d-%d.spill" (Unix.getpid ()) t.spill_seq)
      in
      let cfg =
        {
          Session.id = h.session;
          n = h.n;
          algo = h.algo;
          procs = h.procs;
          seed = h.seed;
          groups = h.groups;
          pred0 = h.pred0;
          metrics_every = h.metrics_every;
          ring = t.cfg.ring;
          spill_path;
        }
      in
      let r =
        match Session.create cfg with
        | Ok sess ->
            let slots = Array.length t.shards in
            let shard = if slots = 0 then 0 else Session.shard_key sess mod slots in
            let e = { sess; shard; queued = false } in
            ignore (Session.claim sess : bool);
            Hashtbl.add t.sessions h.session e;
            Ok (e, true)
        | Error m -> Error m
      in
      Mutex.unlock t.tmu;
      r

(* JSONL-mode ingest: parse event lines in place out of the reader's
   buffer (no per-line string), stage into batch arrays, one
   Session.push_batch per batch. *)
let ingest_jsonl t e rd =
  let batch = max 1 t.cfg.batch in
  let words = Array.make batch 0 and metas = Array.make batch 0 in
  let cnt = ref 0 in
  let flush () =
    if !cnt > 0 then begin
      Session.push_batch e.sess ~words ~metas !cnt;
      cnt := 0;
      notify t e
    end
  in
  let rec loop () =
    if !cnt >= batch || ((not (Protocol.has_buffered_line rd)) && !cnt > 0)
    then flush ();
    match Protocol.read_line_span rd with
    | None ->
        flush ();
        `Eof
    | Some (_, _, 0) -> loop ()
    | Some (s, pos, len) -> (
        match Protocol.decode_client s ~pos ~len with
        | Ok (Protocol.Ev { proc; kind; dst; msg; pred }) -> (
            match
              if proc < 0 then invalid_arg "negative process id"
              else if kind = 1 then Btrace.pack_recv ~msg
              else Btrace.pack_send ~dst ~msg
            with
            | word ->
                words.(!cnt) <- word;
                metas.(!cnt) <- (proc lsl 1) lor (if pred then 1 else 0);
                incr cnt;
                loop ()
            | exception Invalid_argument m ->
                flush ();
                `Bad m)
        | Ok Protocol.Finish ->
            flush ();
            Session.request_finish e.sess;
            notify t e;
            `Finished
        | Ok _ -> `Bad "unexpected message during event ingest"
        | Error m -> `Bad ("bad event line: " ^ m))
  in
  loop ()

(* Binary-mode ingest: wcp-frame/1 chunks straight off the socket. *)
let ingest_binary t e rd =
  let batch = max 1 t.cfg.batch in
  let words = Array.make batch 0 and metas = Array.make batch 0 in
  let cnt = ref 0 in
  let flush () =
    if !cnt > 0 then begin
      Session.push_batch e.sess ~words ~metas !cnt;
      cnt := 0;
      notify t e
    end
  in
  let dec =
    Frame.decoder ~on_event:(fun ~proc ~pred ~word ->
        if !cnt >= batch then flush ();
        words.(!cnt) <- word;
        metas.(!cnt) <- (proc lsl 1) lor (if pred then 1 else 0);
        incr cnt)
  in
  let rec loop () =
    match Protocol.read_span rd with
    | None ->
        flush ();
        if Frame.pending_bytes dec > 0 then `Bad "truncated frame at EOF"
        else `Eof
    | Some (buf, pos, len) -> (
        match Frame.feed dec buf ~pos ~len with
        | () ->
            flush ();
            if Frame.finished dec then begin
              Session.request_finish e.sess;
              notify t e;
              `Finished
            end
            else loop ()
        | exception Frame.Error m ->
            flush ();
            `Bad ("bad frame stream: " ^ m))
  in
  loop ()

let drain_to_eof rd =
  let rec go () =
    match Protocol.read_span rd with Some _ -> go () | None -> ()
  in
  go ()

let handle_client t fd (h : Protocol.hello) rd =
  match find_or_create t h with
  | Error m ->
      (try
         Protocol.write_string fd
           (Protocol.encode_server (Protocol.Error_msg { message = m }) ^ "\n")
       with Protocol.Disconnected -> ())
  | Ok (e, fresh) -> (
      let sender = make_sender fd in
      t.cfg.log
        (Printf.sprintf "session %s: %s (%s)" h.session
           (if fresh then "opened" else "reconnected")
           (match h.frames with
           | Protocol.Jsonl -> "jsonl"
           | Protocol.Binary -> "binary"));
      (try
         sender
           (Protocol.Welcome
              {
                session = h.session;
                acked = Session.acked e.sess;
                credit = Session.credit e.sess;
              })
       with Protocol.Disconnected ->
         Session.detach_sender e.sess;
         raise Exit);
      match Session.attach_sender e.sess sender with
      | Some stored ->
          (* completed while disconnected: deliver and retire *)
          Session.detach_sender e.sess;
          (try sender stored with Protocol.Disconnected -> ());
          remove_session t e
      | None -> (
          let verdict =
            match h.frames with
            | Protocol.Jsonl -> ingest_jsonl t e rd
            | Protocol.Binary -> ingest_binary t e rd
          in
          match verdict with
          | `Bad m ->
              (match Session.abort e.sess m with
              | Some line -> (
                  try sender line with Protocol.Disconnected -> ())
              | None -> ());
              Session.detach_sender e.sess;
              t.cfg.log (Printf.sprintf "session %s: protocol error: %s" h.session m);
              remove_session t e
          | `Eof ->
              (* mid-stream disconnect: park for a reconnect *)
              Session.detach_sender e.sess;
              t.cfg.log
                (Printf.sprintf "session %s: disconnected at %d events"
                   h.session (Session.acked e.sess))
          | `Finished ->
              (* hold the connection until the result goes out and the
                 client hangs up (or the peer vanishes) *)
              drain_to_eof rd;
              Session.detach_sender e.sess;
              if Session.delivered e.sess then remove_session t e))

let handle_conn t fd =
  let rd = Protocol.reader fd in
  match Protocol.read_line_span rd with
  | None -> ()
  | Some (s, pos, len) -> (
      match Protocol.decode_client s ~pos ~len with
      | Ok (Protocol.Hello h) -> handle_client t fd h rd
      | Ok Protocol.Watch ->
          let w = add_watcher t fd in
          t.cfg.log "watcher attached";
          let rec go () =
            match Protocol.read_line rd with Some _ -> go () | None -> ()
          in
          go ();
          remove_watcher t w;
          t.cfg.log "watcher detached"
      | Ok _ ->
          (try
             Protocol.write_string fd
               (Protocol.encode_server
                  (Protocol.Error_msg { message = "expected hello or watch" })
               ^ "\n")
           with Protocol.Disconnected -> ())
      | Error m ->
          (try
             Protocol.write_string fd
               (Protocol.encode_server
                  (Protocol.Error_msg { message = "bad hello: " ^ m })
               ^ "\n")
           with Protocol.Disconnected -> ()))

let accept_loop t =
  let continue = ref true in
  while !continue && not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.) with
    | rs, _, _ ->
        if List.mem t.stop_r rs then continue := false
        else if List.mem t.listen_fd rs then begin
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              Mutex.lock t.tmu;
              t.conn_fds <- fd :: t.conn_fds;
              let th =
                Thread.create
                  (fun () ->
                    (try handle_conn t fd
                     with
                    | Exit -> ()
                    | ex ->
                        t.cfg.log
                          (Printf.sprintf "connection error: %s"
                             (Printexc.to_string ex)));
                    Mutex.lock t.tmu;
                    t.conn_fds <-
                      List.filter (fun f -> f <> fd) t.conn_fds;
                    Mutex.unlock t.tmu;
                    try Unix.close fd with Unix.Unix_error _ -> ())
                  ()
              in
              t.conn_threads <- th :: t.conn_threads;
              Mutex.unlock t.tmu
          | exception Unix.Unix_error ((EAGAIN | EINTR | ECONNABORTED), _, _)
            ->
              ()
          | exception Unix.Unix_error (EBADF, _, _) -> continue := false
        end
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (EBADF, _, _) -> continue := false
  done

let run t =
  Parallel.scoped_pool ?domains:t.cfg.domains (fun pool ->
      let slots = Parallel.pool_domains pool in
      t.shards <-
        Array.init slots (fun _ ->
            { smu = Mutex.create (); scv = Condition.create (); q = Queue.create () });
      t.cfg.log
        (Printf.sprintf "listening on %s (%d shard%s)"
           (Protocol.addr_to_string t.baddr)
           slots
           (if slots = 1 then "" else "s"));
      let acc = Thread.create accept_loop t in
      Parallel.run pool (fun ~slot ~slots:_ -> worker_loop t slot);
      Thread.join acc);
  (* wake any connection thread still parked in a read *)
  Mutex.lock t.tmu;
  let fds = t.conn_fds and ths = t.conn_threads in
  Mutex.unlock t.tmu;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds;
  List.iter Thread.join ths;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.baddr with
  | Protocol.Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  Mutex.lock t.tmu;
  let leftover = Hashtbl.fold (fun _ e acc -> e :: acc) t.sessions [] in
  Hashtbl.reset t.sessions;
  Mutex.unlock t.tmu;
  List.iter (fun e -> Session.close e.sess) leftover;
  t.cfg.log "stopped"
