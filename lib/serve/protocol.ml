(* wcp-serve/1 transport: addresses, buffered reads, message codec.
   See protocol.mli for the protocol description. *)

module Json = Wcp_obs.Export.Json

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefixed "unix:" then Ok (Unix_sock (after "unix:"))
  else if prefixed "tcp:" then begin
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "%S: expected tcp:HOST:PORT" s)
    | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "%S: expected tcp:HOST:PORT" s))
  end
  else
    Error
      (Printf.sprintf "%S: expected unix:PATH or tcp:HOST:PORT" s)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ | (exception Not_found) ->
          raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))

let sockaddr_of = function
  | Unix_sock p -> Unix.ADDR_UNIX p
  | Tcp (h, p) -> Unix.ADDR_INET (resolve_host h, p)

let listen ?(backlog = 64) addr =
  let dom = match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bound_addr fd = function
  | Unix_sock _ as a -> a
  | Tcp (h, _) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp (h, port)
      | Unix.ADDR_UNIX p -> Unix_sock p)

let connect ?(retry = 0.) addr =
  let deadline = Unix.gettimeofday () +. retry in
  let rec go () =
    let dom =
      match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr_of addr) with
    | () -> fd
    | exception
        Unix.Unix_error ((ECONNREFUSED | ENOENT | EAGAIN | EINTR), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        go ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go ()

exception Disconnected

let write_all fd b ~pos ~len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    match Unix.write fd b !off !left with
    | k ->
        off := !off + k;
        left := !left - k
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        raise Disconnected
  done

let write_string fd s =
  write_all fd (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let sigpipe_ignored = ref false

let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    sigpipe_ignored := true;
    match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | _ -> ()
    | exception (Invalid_argument _ | Sys_error _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Buffered reader                                                     *)
(* ------------------------------------------------------------------ *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable rstart : int;  (* first unconsumed byte *)
  mutable rstop : int;  (* end of valid bytes *)
  mutable eof : bool;
}

let reader fd = { fd; buf = Bytes.create 65536; rstart = 0; rstop = 0; eof = false }

let compact r =
  if r.rstart > 0 then begin
    let live = r.rstop - r.rstart in
    if live > 0 then Bytes.blit r.buf r.rstart r.buf 0 live;
    r.rstart <- 0;
    r.rstop <- live
  end

(* One blocking read; false at EOF. Connection resets read as EOF —
   the caller treats an abrupt peer death like a disconnect. *)
let refill r =
  if r.eof then false
  else begin
    if r.rstop = Bytes.length r.buf then begin
      compact r;
      if r.rstop = Bytes.length r.buf then begin
        let nb = Bytes.create (2 * Bytes.length r.buf) in
        Bytes.blit r.buf 0 nb 0 r.rstop;
        r.buf <- nb
      end
    end;
    let rec rd () =
      match Unix.read r.fd r.buf r.rstop (Bytes.length r.buf - r.rstop) with
      | k -> k
      | exception Unix.Unix_error (EINTR, _, _) -> rd ()
      | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> 0
    in
    let k = rd () in
    if k = 0 then begin
      r.eof <- true;
      false
    end
    else begin
      r.rstop <- r.rstop + k;
      true
    end
  end

let find_nl r from =
  let i = ref from in
  while !i < r.rstop && Bytes.unsafe_get r.buf !i <> '\n' do
    incr i
  done;
  if !i < r.rstop then Some !i else None

let has_buffered_line r = find_nl r r.rstart <> None

let rec read_line_span r =
  match find_nl r r.rstart with
  | Some i ->
      let span = (Bytes.unsafe_to_string r.buf, r.rstart, i - r.rstart) in
      r.rstart <- i + 1;
      Some span
  | None ->
      if refill r then read_line_span r
      else if r.rstart < r.rstop then begin
        (* final unterminated line *)
        let span = (Bytes.unsafe_to_string r.buf, r.rstart, r.rstop - r.rstart) in
        r.rstart <- r.rstop;
        Some span
      end
      else None

let read_line r =
  match read_line_span r with
  | None -> None
  | Some (s, pos, len) -> Some (String.sub s pos len)

let read_span r =
  if r.rstart < r.rstop || refill r then begin
    let span = (r.buf, r.rstart, r.rstop - r.rstart) in
    r.rstart <- r.rstop;
    Some span
  end
  else None

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type frames = Jsonl | Binary

type hello = {
  session : string;
  n : int;
  algo : string;
  procs : int array;
  seed : int64;
  groups : int;
  pred0 : bool array;
  frames : frames;
  metrics_every : float;
}

type client_msg =
  | Hello of hello
  | Watch
  | Ev of { proc : int; kind : int; dst : int; msg : int; pred : bool }
  | Finish

type server_msg =
  | Welcome of { session : string; acked : int; credit : int }
  | Credit of { acked : int; credit : int }
  | Metrics of { line : string }
  | Result of {
      session : string;
      outcome : string;
      events : int;
      msgs : int;
      bits : int;
      hops : int;
      lat_ns : int;
    }
  | Error_msg of { message : string }

let frames_to_string = function Jsonl -> "jsonl" | Binary -> "binary"

let frames_of_string = function
  | "jsonl" -> Jsonl
  | "binary" -> Binary
  | s -> Json.error "unknown framing %S" s

let obj_to_string o = Json.to_string (Json.Obj o)

let session_busy = "session busy: already has a live connection"

let encode_client = function
  | Hello h ->
      obj_to_string
        [
          ("type", Json.Str "hello");
          ("session", Json.Str h.session);
          ("n", Json.Int h.n);
          ("algo", Json.Str h.algo);
          ("procs", Json.of_int_array h.procs);
          ("seed", Json.Int (Int64.to_int h.seed));
          ("groups", Json.Int h.groups);
          ( "pred0",
            Json.of_int_array
              (Array.map (fun b -> if b then 1 else 0) h.pred0) );
          ("frames", Json.Str (frames_to_string h.frames));
          ("metrics_every", Json.Float h.metrics_every);
        ]
  | Watch -> obj_to_string [ ("type", Json.Str "watch") ]
  | Ev { proc; kind; dst; msg; pred } ->
      (* hand-rolled: this is the JSONL-mode per-event hot path *)
      let b = Buffer.create 64 in
      Buffer.add_string b {|{"type":"ev","p":|};
      Json.add_int b proc;
      Buffer.add_string b {|,"k":|};
      Json.add_int b kind;
      Buffer.add_string b {|,"d":|};
      Json.add_int b dst;
      Buffer.add_string b {|,"m":|};
      Json.add_int b msg;
      Buffer.add_string b {|,"f":|};
      Json.add_int b (if pred then 1 else 0);
      Buffer.add_char b '}';
      Buffer.contents b
  | Finish -> obj_to_string [ ("type", Json.Str "finish") ]

let encode_server = function
  | Welcome { session; acked; credit } ->
      obj_to_string
        [
          ("type", Json.Str "welcome");
          ("session", Json.Str session);
          ("acked", Json.Int acked);
          ("credit", Json.Int credit);
        ]
  | Credit { acked; credit } ->
      obj_to_string
        [
          ("type", Json.Str "credit");
          ("acked", Json.Int acked);
          ("credit", Json.Int credit);
        ]
  | Metrics { line } ->
      obj_to_string [ ("type", Json.Str "metrics"); ("line", Json.Str line) ]
  | Result { session; outcome; events; msgs; bits; hops; lat_ns } ->
      obj_to_string
        [
          ("type", Json.Str "result");
          ("session", Json.Str session);
          ("outcome", Json.Str outcome);
          ("events", Json.Int events);
          ("msgs", Json.Int msgs);
          ("bits", Json.Int bits);
          ("hops", Json.Int hops);
          ("lat_ns", Json.Int lat_ns);
        ]
  | Error_msg { message } ->
      obj_to_string [ ("type", Json.Str "error"); ("message", Json.Str message) ]

let member_default name default j =
  match j with
  | Json.Obj kvs -> ( match List.assoc_opt name kvs with Some v -> v | None -> default)
  | _ -> Json.error "expected an object"

let decode_with f s ~pos ~len =
  match f (Json.parse_range s ~pos ~len) with
  | v -> Ok v
  | exception Json.Error m -> Error m

let client_of_json j =
  match Json.(to_str (member "type" j)) with
  | "hello" ->
      let n = Json.(to_int (member "n" j)) in
      if n <= 0 then Json.error "hello: n must be positive";
      let pred0_ints = Json.(to_int_array (member "pred0" j)) in
      if Array.length pred0_ints <> n then
        Json.error "hello: pred0 has %d entries for n=%d"
          (Array.length pred0_ints) n;
      Hello
        {
          session = Json.(to_str (member "session" j));
          n;
          algo = Json.(to_str (member "algo" j));
          procs = Json.(to_int_array (member "procs" j));
          seed = Int64.of_int Json.(to_int (member "seed" j));
          groups = Json.(to_int (member_default "groups" (Int 2) j));
          pred0 = Array.map (fun i -> i <> 0) pred0_ints;
          frames = frames_of_string Json.(to_str (member "frames" j));
          metrics_every =
            Json.(to_float (member_default "metrics_every" (Float 0.) j));
        }
  | "watch" -> Watch
  | "ev" ->
      Ev
        {
          proc = Json.(to_int (member "p" j));
          kind = Json.(to_int (member "k" j));
          dst = Json.(to_int (member_default "d" (Int 0) j));
          msg = Json.(to_int (member "m" j));
          pred = Json.(to_int (member "f" j)) <> 0;
        }
  | "finish" -> Finish
  | t -> Json.error "unknown client message type %S" t

let server_of_json j =
  match Json.(to_str (member "type" j)) with
  | "welcome" ->
      Welcome
        {
          session = Json.(to_str (member "session" j));
          acked = Json.(to_int (member "acked" j));
          credit = Json.(to_int (member "credit" j));
        }
  | "credit" ->
      Credit
        {
          acked = Json.(to_int (member "acked" j));
          credit = Json.(to_int (member "credit" j));
        }
  | "metrics" -> Metrics { line = Json.(to_str (member "line" j)) }
  | "result" ->
      Result
        {
          session = Json.(to_str (member "session" j));
          outcome = Json.(to_str (member "outcome" j));
          events = Json.(to_int (member "events" j));
          msgs = Json.(to_int (member "msgs" j));
          bits = Json.(to_int (member "bits" j));
          hops = Json.(to_int (member "hops" j));
          lat_ns = Json.(to_int (member "lat_ns" j));
        }
  | "error" -> Error_msg { message = Json.(to_str (member "message" j)) }
  | t -> Json.error "unknown server message type %S" t

let decode_client s ~pos ~len = decode_with client_of_json s ~pos ~len

let decode_server s ~pos ~len = decode_with server_of_json s ~pos ~len
