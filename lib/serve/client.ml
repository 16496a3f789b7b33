(* wcp-serve/1 client: canonical linearization, batched transmission,
   result wait. See client.mli. *)

open Wcp_trace

type outcome = {
  outcome : string;
  events : int;
  msgs : int;
  bits : int;
  hops : int;
  lat_ns : int;
}

type verdict = Completed of outcome | Killed of int

exception Abort of string

exception Killed_exn of int

let handle_line ~on_metrics ~result line =
  match Protocol.decode_server line ~pos:0 ~len:(String.length line) with
  | Ok (Protocol.Credit _) -> ()
  | Ok (Protocol.Metrics { line }) -> (
      match on_metrics with Some f -> f line | None -> ())
  | Ok (Protocol.Result r) ->
      result :=
        Some
          {
            outcome = r.outcome;
            events = r.events;
            msgs = r.msgs;
            bits = r.bits;
            hops = r.hops;
            lat_ns = r.lat_ns;
          }
  | Ok (Protocol.Error_msg { message }) -> raise (Abort message)
  | Ok (Protocol.Welcome _) -> raise (Abort "unexpected second welcome")
  | Error m -> raise (Abort ("bad server line: " ^ m))

(* Drain whatever server lines are already here without blocking (so
   our writes never deadlock against an unread server buffer). *)
let drain_ready fd rd ~on_metrics ~result =
  let readable () =
    match Unix.select [ fd ] [] [] 0. with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (EINTR, _, _) -> false
  in
  let rec go () =
    if Protocol.has_buffered_line rd || readable () then
      match Protocol.read_line rd with
      | None -> raise (Abort "server closed the connection")
      | Some l ->
          handle_line ~on_metrics ~result l;
          go ()
  in
  go ()

let run_once ~frames ~batch ~rate ~kill_after ~retry ~metrics_every
    ~on_metrics ~groups ~addr ~session ~algo ~procs ~seed
    (src : Computation.Stream.source) =
  let batch = max 1 (min batch Frame.max_frame_events) in
  match Protocol.connect ~retry addr with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (Protocol.addr_to_string addr)
           (Unix.error_message e))
  | fd -> (
      let rd = Protocol.reader fd in
      let result = ref None in
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      let n = src.Computation.Stream.src_n in
      let pred0 =
        Array.init n (fun p -> src.Computation.Stream.pred ~proc:p ~state:1)
      in
      let hello =
        {
          Protocol.session;
          n;
          algo;
          procs;
          seed;
          groups;
          pred0;
          frames;
          metrics_every;
        }
      in
      match
        Protocol.write_string fd (Protocol.encode_client (Protocol.Hello hello) ^ "\n");
        let acked =
          match Protocol.read_line rd with
          | None -> raise (Abort "server closed the connection during hello")
          | Some l -> (
              match Protocol.decode_server l ~pos:0 ~len:(String.length l) with
              | Ok (Protocol.Welcome w) -> w.acked
              | Ok (Protocol.Error_msg { message }) -> raise (Abort message)
              | Ok _ -> raise (Abort "expected welcome")
              | Error m -> raise (Abort ("bad welcome line: " ^ m)))
        in
        (* transmission state *)
        let t0 = Unix.gettimeofday () in
        let idx = ref 0 (* global linearization index *) in
        let sent = ref 0 (* events sent on this connection *) in
        let enc = Frame.encoder ~events:batch () in
        let jbuf = Buffer.create (64 * batch) in
        let jcount = ref 0 in
        let flush () =
          (match frames with
          | Protocol.Binary ->
              if Frame.count enc > 0 then begin
                let b, len = Frame.contents enc in
                Protocol.write_all fd b ~pos:0 ~len;
                Frame.reset enc
              end
          | Protocol.Jsonl ->
              if !jcount > 0 then begin
                Protocol.write_string fd (Buffer.contents jbuf);
                Buffer.clear jbuf;
                jcount := 0
              end);
          drain_ready fd rd ~on_metrics ~result;
          if rate > 0. then begin
            let due = float_of_int !sent /. rate in
            let elapsed = Unix.gettimeofday () -. t0 in
            if due > elapsed then Unix.sleepf (due -. elapsed)
          end
        in
        let staged () =
          match frames with
          | Protocol.Binary -> Frame.count enc
          | Protocol.Jsonl -> !jcount
        in
        (* [kind] 0 = send, 1 = receive; [dst] is 0 for receives. *)
        let emit ~proc ~kind ~dst ~msg ~pred =
          if !idx >= acked then begin
            (match frames with
            | Protocol.Binary ->
                if kind = 0 then Frame.add_send enc ~proc ~dst ~msg ~pred
                else Frame.add_recv enc ~proc ~msg ~pred
            | Protocol.Jsonl ->
                Buffer.add_string jbuf
                  (Protocol.encode_client
                     (Protocol.Ev { proc; kind; dst; msg; pred }));
                Buffer.add_char jbuf '\n';
                incr jcount);
            incr sent;
            (match kill_after with
            | Some k when !sent >= k ->
                flush ();
                raise (Killed_exn !sent)
            | _ -> ());
            if staged () >= batch then flush ()
          end;
          incr idx
        in
        (match
           Computation.Stream.walk src
             ~send:(fun ~proc ~dst ~msg ~pred -> emit ~proc ~kind:0 ~dst ~msg ~pred)
             ~receive:(fun ~proc ~msg ~pred -> emit ~proc ~kind:1 ~dst:0 ~msg ~pred)
         with
        | () -> ()
        | exception Killed_exn k ->
            finally ();
            raise (Killed_exn k));
        flush ();
        (match frames with
        | Protocol.Binary ->
            Protocol.write_all fd Frame.finish_frame ~pos:0
              ~len:(Bytes.length Frame.finish_frame)
        | Protocol.Jsonl ->
            Protocol.write_string fd
              (Protocol.encode_client Protocol.Finish ^ "\n"));
        (* wait for the result *)
        let rec wait () =
          match !result with
          | Some o -> o
          | None -> (
              match Protocol.read_line rd with
              | None ->
                  raise (Abort "server closed the connection before the result")
              | Some l ->
                  handle_line ~on_metrics ~result l;
                  wait ())
        in
        wait ()
      with
      | o ->
          finally ();
          Ok (Completed o)
      | exception Killed_exn k -> Ok (Killed k)
      (* A run the walk refuses leaves its session as a killed client
         does: the connection drops without a finish. *)
      | exception Btrace.Corrupt m ->
          finally ();
          Error ("btrace: " ^ m)
      | exception Computation.Invalid m ->
          finally ();
          Error ("invalid computation: " ^ m)
      | exception Abort m ->
          finally ();
          Error m
      | exception Protocol.Disconnected ->
          finally ();
          Error "server closed the connection"
      | exception Unix.Unix_error (e, fn, _) ->
          finally ();
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

(* A [session_busy] refusal comes before any event is sent, so trying
   again is safe; it only outlasts [retry] if another client really
   holds the session. *)
let run_session ?(frames = Protocol.Binary) ?(batch = 1024) ?(rate = 0.)
    ?kill_after ?(retry = 0.) ?(metrics_every = 0.) ?on_metrics ?(groups = 2)
    ~addr ~session ~algo ~procs ~seed src =
  Protocol.ignore_sigpipe ();
  let deadline = Unix.gettimeofday () +. retry in
  let rec attempt () =
    match
      run_once ~frames ~batch ~rate ~kill_after ~retry ~metrics_every
        ~on_metrics ~groups ~addr ~session ~algo ~procs ~seed src
    with
    | Error m when m = Protocol.session_busy && Unix.gettimeofday () < deadline
      ->
        Unix.sleepf 0.05;
        attempt ()
    | r -> r
  in
  attempt ()

(* --- watching ------------------------------------------------------- *)

type watch = { wfd : Unix.file_descr; wrd : Protocol.reader }

let watch ?(retry = 0.) addr =
  Protocol.ignore_sigpipe ();
  let fd = Protocol.connect ~retry addr in
  Protocol.write_string fd (Protocol.encode_client Protocol.Watch ^ "\n");
  { wfd = fd; wrd = Protocol.reader fd }

let watch_poll w ~timeout =
  let collected = ref [] in
  let take_buffered () =
    while Protocol.has_buffered_line w.wrd do
      match Protocol.read_line w.wrd with
      | Some l -> collected := l :: !collected
      | None -> ()
      | exception End_of_file -> ()
    done
  in
  take_buffered ();
  if !collected <> [] then `Lines (List.rev !collected)
  else
    match Unix.select [ w.wfd ] [] [] timeout with
    | [], _, _ -> `Lines []
    | exception Unix.Unix_error (EINTR, _, _) -> `Lines []
    | _ -> (
        match Protocol.read_line w.wrd with
        | None -> `Eof
        | Some l ->
            take_buffered ();
            `Lines (l :: List.rev !collected))

let watch_close w = try Unix.close w.wfd with Unix.Unix_error _ -> ()
