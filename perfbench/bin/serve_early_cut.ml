(* serve-early-cut: the [wcpdetect serve] path. An in-process
   Wcp_serve.Server with one shard domain; one closed-loop client with
   one session in flight writes pre-encoded wcp-frame/1 bytes and reads
   the server's lines. Each input's first cut falls about a tenth of
   the way into a long stream (predicates hold only from 9% of the
   generator's events on, densely for one percent, sparsely after), so
   the time from the cut-completing frame to the announced cut is what
   online detection would shorten. *)

open Wcp_trace
open Wcp_core
open Wcp_serve
open Perfbench
open Workload
module Slice = Wcp_slice.Slice

let name = "serve-early-cut"

let write_layer = "frame.encode_ms"

let algo = "checker"

(* (processes, sends per process); see Btrace_replay.shapes. *)
let shapes = [| (16, 5_000); (24, 4_000); (32, 3_500) |]

let p_window = 0.5

let p_after = 0.05

let batch = 1024

type input = {
  n : int;
  procs : int array;
  pred0 : bool array;
  events : int;
  words : int array;  (* stream order: packed op word *)
  metas : int array;  (* stream order: (proc lsl 1) lor pred *)
  frames : Bytes.t;  (* every frame, then nothing: the sentinel is sent apart *)
  offs : int array;  (* frame f is frames.[offs.(f) .. offs.(f+1)) *)
  cut_frame : int;  (* the frame carrying the cut-completing event *)
  position : float;  (* stream fraction before that event *)
  oracle : Detection.outcome;
  expect : string;  (* the oracle cut as a result line spells it *)
}

type t = {
  inputs : input array;
  write_ms : float;
  dir : string;
  mutable server : (Server.t * unit Domain.t) option;
  mutable next_session : int;
}

let generate ~n ~m ~seed =
  let params =
    { Generator.n; sends_per_process = m; p_pred = p_window; p_recv = 0.5 }
  in
  let total = 2 * n * m in
  let lo = total * 9 / 100 and hi = total / 10 in
  let thin = Wcp_util.Rng.create (Int64.add seed 0x5eedL) in
  let b = Builder.create ~n in
  let seen = ref 0 in
  Generator.generate_into ~params ~seed
    ~send:(fun ~src ~dst ->
      incr seen;
      Builder.send b ~src ~dst)
    ~recv:(fun ~dst msg ->
      incr seen;
      Builder.recv b ~dst msg)
    ~set_pred:(fun ~proc v ->
      let v =
        if !seen < lo then false
        else if !seen < hi then v
        else v && Wcp_util.Rng.bernoulli thin (p_after /. p_window)
      in
      Builder.set_pred b ~proc v)
    ();
  Builder.finish b

let make_input ~n ~m ~seed ~write =
  let comp = generate ~n ~m ~seed in
  let oracle = Oracle.first_cut comp (Spec.all comp) in
  let src = Computation.Stream.of_computation comp in
  let events = Computation.total_states comp - n in
  let words = Array.make events 0 and metas = Array.make events 0 in
  let i = ref 0 in
  Locate.linearize src ~emit:(fun ~proc ~k:_ ~op ~state ->
      words.(!i) <- Btrace.pack_op op;
      metas.(!i) <-
        (proc lsl 1) lor if src.Computation.Stream.pred ~proc ~state then 1 else 0;
      incr i);
  let index =
    match oracle with
    | Detection.Detected cut -> (
        match Locate.completing_event src cut with
        | Some c -> c.Locate.index
        | None -> 0)
    | Detection.No_detection | Detection.Undetectable_crashed _ ->
        failwith "serve-early-cut: generated input has no cut"
  in
  let t0 = now () in
  let enc = Frame.encoder ~events:batch () in
  let out = Buffer.create ((events * Frame.event_bytes) + (events / batch * 8) + 8) in
  let offs = ref [ 0 ] in
  let flush () =
    if Frame.count enc > 0 then begin
      let b, len = Frame.contents enc in
      Buffer.add_subbytes out b 0 len;
      Frame.reset enc;
      offs := Buffer.length out :: !offs
    end
  in
  for j = 0 to events - 1 do
    let meta = metas.(j) in
    Frame.add_word enc ~proc:(meta lsr 1) ~pred:(meta land 1 = 1) ~word:words.(j);
    if Frame.is_full enc then flush ()
  done;
  flush ();
  let frames = Buffer.to_bytes out in
  write := !write +. ms t0 (now ());
  let pred0 = Array.init n (fun p -> src.Computation.Stream.pred ~proc:p ~state:1) in
  settle ();
  {
    n;
    procs = Array.init n Fun.id;
    pred0;
    events;
    words;
    metas;
    frames;
    offs = Array.of_list (List.rev !offs);
    cut_frame = index / batch;
    position = float_of_int index /. float_of_int events;
    oracle;
    expect = Format.asprintf "%a" Detection.pp_outcome oracle;
  }

let server_config dir =
  {
    (Server.default_config ~addr:(Protocol.Unix_sock (Filename.concat dir "sock")))
    with
    Server.domains = Some 1;
    spool_dir = dir;
    log = ignore;
  }

let setup ~dir ~seed =
  (* as the daemon does on the domain it owns *)
  Server.tune_gc (server_config dir).Server.gc_minor_words;
  let write = ref 0. in
  let inputs =
    rotation shapes (fun i (n, m) ->
        make_input ~n ~m ~seed:(input_seed seed i) ~write)
  in
  { inputs; write_ms = !write; dir; server = None; next_session = 0 }

let inputs t = Array.length t.inputs

let write_ms t = t.write_ms

let addr t =
  match t.server with
  | Some (srv, _) -> Server.bound_addr srv
  | None ->
      let srv = Server.create (server_config t.dir) in
      let dom = Domain.spawn (fun () -> Server.run srv) in
      t.server <- Some (srv, dom);
      Server.bound_addr srv

let close t =
  match t.server with
  | None -> ()
  | Some (srv, dom) ->
      Server.stop srv;
      Domain.join dom;
      t.server <- None

exception Session_error of string

let rec await rd =
  match Protocol.read_line_span rd with
  | None -> raise (Session_error "server closed the connection")
  | Some (s, pos, len) -> (
      match Protocol.decode_server s ~pos ~len with
      | Ok (Protocol.Result { outcome; lat_ns; _ }) -> (outcome, lat_ns)
      | Ok (Protocol.Error_msg { message }) -> raise (Session_error message)
      | Ok (Protocol.Welcome _ | Protocol.Credit _ | Protocol.Metrics _) -> await rd
      | Error m -> raise (Session_error ("bad server line: " ^ m)))

(* Consume the credit lines already here, without blocking, so neither
   side's socket buffer fills. *)
let drain_ready fd rd =
  let readable () =
    match Unix.select [ fd ] [] [] 0. with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  while Protocol.has_buffered_line rd || readable () do
    match Protocol.read_line_span rd with
    | None -> raise (Session_error "server closed the connection")
    | Some (s, pos, len) -> (
        match Protocol.decode_server s ~pos ~len with
        | Ok (Protocol.Credit _ | Protocol.Metrics _) -> ()
        | Ok (Protocol.Error_msg { message }) -> raise (Session_error message)
        | Ok (Protocol.Welcome _ | Protocol.Result _) ->
            raise (Session_error "unexpected line during ingest")
        | Error m -> raise (Session_error ("bad server line: " ^ m)))
  done

type served = {
  sv : verdict;
  tail_ms : float;  (* last frame written -> result read *)
  lat_ns : int;  (* the server's finish-time slice + detect *)
}

let serve t inp =
  let addr = addr t in
  t.next_session <- t.next_session + 1;
  let hello =
    Protocol.encode_client
      (Protocol.Hello
         {
           Protocol.session = Printf.sprintf "s%d" t.next_session;
           n = inp.n;
           algo;
           procs = inp.procs;
           seed = 1L;
           groups = 2;
           pred0 = inp.pred0;
           frames = Protocol.Binary;
           metrics_every = 0.;
         })
    ^ "\n"
  in
  let t0 = now () in
  let fd = Protocol.connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rd = Protocol.reader fd in
      Protocol.write_string fd hello;
      (match Protocol.read_line_span rd with
      | Some (s, pos, len) -> (
          match Protocol.decode_server s ~pos ~len with
          | Ok (Protocol.Welcome _) -> ()
          | Ok (Protocol.Error_msg { message }) -> raise (Session_error message)
          | Ok _ | Error _ -> raise (Session_error "expected welcome"))
      | None -> raise (Session_error "server closed the connection"));
      let t_cut = ref t0 in
      for f = 0 to Array.length inp.offs - 2 do
        if f = inp.cut_frame then t_cut := now ();
        Protocol.write_all fd inp.frames ~pos:inp.offs.(f)
          ~len:(inp.offs.(f + 1) - inp.offs.(f));
        drain_ready fd rd
      done;
      Protocol.write_all fd Frame.finish_frame ~pos:0
        ~len:(Bytes.length Frame.finish_frame);
      let t_last = now () in
      let outcome, lat_ns = await rd in
      let t1 = now () in
      {
        sv =
          {
            ok = outcome = inp.expect;
            ms = ms t0 t1;
            cut_ms = ms !t_cut t1;
            events = inp.events;
          };
        tail_ms = ms t_last t1;
        lat_ns;
      })

let verdict t i = (serve t t.inputs.(i)).sv

(* --- the server's layers, replayed in process on the same bytes ----- *)

(* Frame.decoder over the pre-encoded bytes in read-sized chunks,
   staging events into batch arrays as the connection thread does. *)
let decode_ms inp =
  let words = Array.make batch 0 and metas = Array.make batch 0 in
  let cnt = ref 0 in
  let dec =
    Frame.decoder ~on_event:(fun ~proc ~pred ~word ->
        if !cnt >= batch then cnt := 0;
        words.(!cnt) <- word;
        metas.(!cnt) <- (proc lsl 1) lor if pred then 1 else 0;
        incr cnt)
  in
  let total = Bytes.length inp.frames and chunk = 65536 in
  let t0 = now () in
  let pos = ref 0 in
  while !pos < total do
    let len = min chunk (total - !pos) in
    Frame.feed dec inp.frames ~pos:!pos ~len;
    pos := !pos + len
  done;
  ms t0 (now ())

(* Session.push_batch batch by batch, each followed by the drains that
   feed it to the session's incremental slice, as the worker does. *)
let push_drain_ms t inp =
  let cfg =
    {
      Session.id = "replay";
      n = inp.n;
      algo;
      procs = inp.procs;
      seed = 1L;
      groups = 2;
      pred0 = inp.pred0;
      metrics_every = 0.;
      ring = (server_config t.dir).Server.ring;
      spill_path = Filename.concat t.dir "replay.spill";
    }
  in
  let sess =
    match Session.create cfg with
    | Ok s -> s
    | Error m -> failwith ("replay session: " ^ m)
  in
  let words = Array.make batch 0 and metas = Array.make batch 0 in
  let push = ref 0. and drain = ref 0. in
  let j = ref 0 in
  while !j < inp.events do
    let k = min batch (inp.events - !j) in
    Array.blit inp.words !j words 0 k;
    Array.blit inp.metas !j metas 0 k;
    let t0 = now () in
    Session.push_batch sess ~words ~metas k;
    let t1 = now () in
    let rec go () =
      match Session.drain sess ~max:batch with
      | Session.Drained _ -> go ()
      | Session.Ready | Session.Idle -> ()
    in
    go ();
    let t2 = now () in
    push := !push +. ms t0 t1;
    drain := !drain +. ms t1 t2;
    j := !j + k
  done;
  let fed = Session.fed sess in
  Session.close sess;
  if fed <> inp.events then failwith "replay session: not every event fed";
  (!push, !drain)

(* The finish-time detect split in two: the same stream fed to a bare
   incremental slice (the session's keep policy), then
   Slice.Incremental.finish and the detector timed apart. *)
let finish_detect inp =
  let cur = Array.copy inp.pred0 in
  let keep ~proc ~state:_ = cur.(proc) in
  let b = Slice.Incremental.create ~n:inp.n ~keep ~pred0:(fun p -> inp.pred0.(p)) in
  for j = 0 to inp.events - 1 do
    let w = inp.words.(j) and meta = inp.metas.(j) in
    let proc = meta lsr 1 and pred = meta land 1 = 1 in
    cur.(proc) <- pred;
    match Btrace.unpack_op w with
    | Computation.Send { dst; msg } -> Slice.Incremental.on_send b ~proc ~dst ~msg ~pred
    | Computation.Recv { msg } -> Slice.Incremental.on_receive b ~proc ~msg ~pred
  done;
  let t0 = now () in
  let sl = Slice.Incremental.finish b in
  let t1 = now () in
  let sliced = Slice.computation sl in
  let spec = Spec.make sliced inp.procs in
  let td0 = now () in
  let r = detect algo sliced spec in
  let td1 = now () in
  let outcome = Detection.remap_outcome (Slice.remap_cut sl) r.Detection.outcome in
  (sl, r, Detection.outcome_equal outcome inp.oracle, ms t0 t1, ms td0 td1)

let traced t i =
  let inp = t.inputs.(i) in
  let mi0, ma0 = collections () in
  let s = serve t inp in
  let mi1, ma1 = collections () in
  let a0 = alloc_words () in
  let decode = decode_ms inp in
  let push, drain = push_drain_ms t inp in
  let sl, r, replay_ok, finish, detect_ms = finish_detect inp in
  let a1 = alloc_words () in
  let session_detect = float_of_int s.lat_ns /. 1e6 in
  let path = decode +. push +. drain +. session_detect in
  {
    v = { s.sv with ok = s.sv.ok && replay_ok };
    decode_ms = decode;
    detect_ms;
    engine_events = r.Detection.events;
    path_layers_ms = path;
    alloc_words = a1 -. a0;
    minor_gcs = mi1 - mi0;
    major_gcs = ma1 - ma0;
    extra =
      [
        ("frame.decode_ms", "ms", decode);
        ("session.push_ms", "ms", push);
        ("session.drain_ms", "ms", drain);
        ("slice.finish_ms", "ms", finish);
        ("detect.ms", "ms", detect_ms);
        ( "slice.retained_ratio",
          "ratio",
          float_of_int (Slice.retained_states sl)
          /. float_of_int (inp.events + inp.n) );
        ("session.detect_ms", "ms", session_detect);
        ("serve.tail_ms", "ms", s.tail_ms);
        ("serve.wait_ms", "ms", s.sv.ms -. path);
        ("cut.stream_position", "fraction", inp.position);
        ("gc.minor_collections", "count", float_of_int (mi1 - mi0));
      ];
  }
