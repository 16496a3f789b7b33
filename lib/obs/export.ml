(* Exporters for recorded event logs: a JSONL codec (one event per
   line — greppable, diffable, streamable) and the Chrome trace_event
   format so a run opens directly in Perfetto / chrome://tracing.

   The JSONL side is a full codec: [decode_line] inverts [encode_line]
   structurally, which is what the schema validator and the round-trip
   property tests lean on. *)

module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

  let escape_free s =
    let n = String.length s in
    let ok = ref true in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then ok := false
    done;
    !ok

  let rec add_nat buf v =
    if v >= 10 then add_nat buf (v / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (v mod 10)))

  (* [string_of_int] is a C call that allocates its result; telemetry
     writes ~24 integers per window line, so spell the digits out
     directly instead. *)
  let add_int buf v =
    if v < 0 then begin
      Buffer.add_char buf '-';
      if v = min_int then begin
        (* [-v] overflows; peel one digit first. *)
        add_nat buf (-(v / 10));
        add_nat buf (-(v mod 10))
      end
      else add_nat buf (-v)
    end
    else add_nat buf v

  let add_float buf f =
    (* Integral doubles are the overwhelming case on the telemetry
       path (window boundaries, sim timestamps); print them through
       the integer pipe — same bytes the %.17g branch would produce,
       an order of magnitude cheaper. *)
    if Float.is_integer f && Float.abs f < 1e15 then begin
      add_int buf (int_of_float f);
      Buffer.add_string buf ".0"
    end
    else begin
      (* %.17g round-trips any finite double. *)
      let s = Printf.sprintf "%.17g" f in
      Buffer.add_string buf s;
      if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
        Buffer.add_string buf ".0"
    end

  let rec emit buf = function
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float f -> add_float buf f
    | Str s ->
        Buffer.add_char buf '"';
        if escape_free s then Buffer.add_string buf s
        else
          String.iter
            (fun c ->
              match c with
              | '"' -> Buffer.add_string buf "\\\""
              | '\\' -> Buffer.add_string buf "\\\\"
              | '\n' -> Buffer.add_string buf "\\n"
              | '\t' -> Buffer.add_string buf "\\t"
              | '\r' -> Buffer.add_string buf "\\r"
              | c when Char.code c < 0x20 ->
                  Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
              | c -> Buffer.add_char buf c)
            s;
        Buffer.add_char buf '"'
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf (Str k);
            Buffer.add_char buf ':';
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    emit buf t;
    Buffer.contents buf

  (* Parse one JSON value out of [s.[base .. base+rlen-1]] without
     copying the range into its own string first — the batched decode
     loops (a JSONL document, the service's socket reader) hand every
     line over as offsets into one big buffer. Error offsets are
     reported relative to [base], so a failure names the same byte it
     always did when each line was its own string. *)
  let parse_range s ~pos:base ~len:rlen =
    if base < 0 || rlen < 0 || base + rlen > String.length s then
      invalid_arg "Json.parse_range: bad range";
    let len = base + rlen in
    let pos = ref base in
    let fail fmt =
      Printf.ksprintf (fun m -> error "at byte %d: %s" (!pos - base) m) fmt
    in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < len
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < len && s.[!pos] = c then incr pos else fail "expected %c" c
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= len && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "bad literal"
    in
    let number () =
      let start = !pos in
      let is_float = ref false in
      while
        !pos < len
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' -> true
        | '.' | 'e' | 'E' ->
            is_float := true;
            true
        | _ -> false
      do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      let bad what =
        pos := start;
        fail "%s" what
      in
      if tok = "" then bad (Printf.sprintf "unexpected character %C" s.[start]);
      match if !is_float then None else int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> bad (Printf.sprintf "bad number %S" tok))
    in
    let string_lit () =
      expect '"';
      (* Fast path: scan ahead for the closing quote; an escape-free
         literal (the overwhelming case on our own streams) is one
         [String.sub], no intermediate buffer. *)
      let scan = ref !pos in
      while
        !scan < len && s.[!scan] <> '"' && s.[!scan] <> '\\'
      do
        incr scan
      done;
      if !scan < len && s.[!scan] = '"' then begin
        let lit = String.sub s !pos (!scan - !pos) in
        pos := !scan + 1;
        lit
      end
      else begin
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= len then fail "unterminated escape";
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
                 let hex = String.sub s (!pos + 1) (min 4 (len - !pos - 1)) in
                 let is_hex = function
                   | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                   | _ -> false
                 in
                 if String.length hex < 4 || not (String.for_all is_hex hex)
                 then begin
                   decr pos;
                   fail "bad \\u escape %S" hex
                 end;
                 let code = int_of_string ("0x" ^ hex) in
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else fail "non-ASCII \\u escape unsupported";
                 pos := !pos + 4
             | c -> fail "bad escape \\%c" c);
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
      end
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or } in object"
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec items acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  items (v :: acc)
              | Some ']' ->
                  incr pos;
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ] in array"
            in
            items []
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some _ -> number ()
    in
    let v = value () in
    skip_ws ();
    if !pos <> len then error "trailing garbage at byte %d" (!pos - base);
    v

  let parse s = parse_range s ~pos:0 ~len:(String.length s)

  let member name = function
    | Obj kvs -> (
        match List.assoc_opt name kvs with
        | Some v -> v
        | None -> error "missing field %S" name)
    | _ -> error "not an object looking up %S" name

  let to_int = function
    | Int i -> i
    | j -> error "expected int, got %s" (to_string j)

  let to_float = function
    | Float f -> f
    | Int i -> float_of_int i
    | j -> error "expected number, got %s" (to_string j)

  let to_str = function
    | Str s -> s
    | j -> error "expected string, got %s" (to_string j)

  let to_bool = function
    | Bool b -> b
    | j -> error "expected bool, got %s" (to_string j)

  let to_int_array = function
    | Arr xs -> Array.of_list (List.map to_int xs)
    | j -> error "expected array, got %s" (to_string j)

  let of_int_array a = Arr (Array.to_list (Array.map (fun i -> Int i) a))
end

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let schema = "wcp-events/1"

let body_fields : Event.body -> (string * Json.t) list =
  let open Json in
  function
  | Event.Run_meta { algo; n; width } ->
      [ ("schema", Str schema); ("algo", Str algo); ("n", Int n);
        ("width", Int width) ]
  | Event.Sent { dst; bits } -> [ ("dst", Int dst); ("bits", Int bits) ]
  | Event.Delivered { src } -> [ ("src", Int src) ]
  | Event.Snapshot_arrived { src; state } ->
      [ ("src", Int src); ("state", Int state) ]
  | Event.Candidate_advanced { k; proc; state } ->
      [ ("k", Int k); ("p", Int proc); ("state", Int state) ]
  | Event.Vc_advanced
      { by_k; by_proc; by_state; by_clock; victim_k; victim_proc; victim_state;
        witness } ->
      [
        ("by_k", Int by_k);
        ("by_p", Int by_proc);
        ("by_state", Int by_state);
        ("by_clock", of_int_array by_clock);
        ("victim_k", Int victim_k);
        ("victim_p", Int victim_proc);
        ("victim_state", Int victim_state);
        ("witness", Int witness);
      ]
  | Event.Dd_eliminated { victim_proc; victim_state; poll_clock; poller_proc }
    ->
      [
        ("victim_p", Int victim_proc);
        ("victim_state", Int victim_state);
        ("poll_clock", Int poll_clock);
        ("poller_p", Int poller_proc);
      ]
  | Event.Chain_extended { after_proc; proc } ->
      [ ("after_p", Int after_proc); ("p", Int proc) ]
  | Event.Hb_eliminated
      { victim_k; victim_proc; victim_state; victim_clock; by_k; by_proc;
        by_state; by_clock } ->
      [
        ("victim_k", Int victim_k);
        ("victim_p", Int victim_proc);
        ("victim_state", Int victim_state);
        ("victim_clock", of_int_array victim_clock);
        ("by_k", Int by_k);
        ("by_p", Int by_proc);
        ("by_state", Int by_state);
        ("by_clock", of_int_array by_clock);
      ]
  | Event.Channel_eliminated { channel; victim_proc; victim_state } ->
      [
        ("channel", Str channel);
        ("victim_p", Int victim_proc);
        ("victim_state", Int victim_state);
      ]
  | Event.Token_sent { seq; dst; g } ->
      [ ("hop", Int seq); ("dst", Int dst); ("g", of_int_array g) ]
  | Event.Token_received { seq } -> [ ("hop", Int seq) ]
  | Event.Token_regenerated { seq; dst } ->
      [ ("hop", Int seq); ("dst", Int dst) ]
  | Event.Poll_sent { dst; clock } ->
      [ ("dst", Int dst); ("clock", Int clock) ]
  | Event.Poll_replied { dst; became_red } ->
      [ ("dst", Int dst); ("became_red", Bool became_red) ]
  | Event.Probe_sent { seq; dst } -> [ ("hop", Int seq); ("dst", Int dst) ]
  | Event.Retransmitted { dst; frame_seq } ->
      [ ("dst", Int dst); ("frame_seq", Int frame_seq) ]
  | Event.Merged { round } -> [ ("round", Int round) ]
  | Event.Round_advanced { round; frontier; eliminated } ->
      [
        ("round", Int round);
        ("frontier", of_int_array frontier);
        ("eliminated", Int eliminated);
      ]
  | Event.Checkpoint_taken { bytes } -> [ ("bytes", Int bytes) ]
  | Event.Restored { bytes } -> [ ("bytes", Int bytes) ]
  | Event.Resync_requested { peer; expected } ->
      [ ("peer", Int peer); ("expected", Int expected) ]
  | Event.Replayed { dst; from_seq; count } ->
      [ ("dst", Int dst); ("from_seq", Int from_seq); ("count", Int count) ]
  | Event.Watchdog_stood_down { seq; dst } ->
      [ ("hop", Int seq); ("dst", Int dst) ]
  | Event.Phase_marked { name } -> [ ("name", Str name) ]
  | Event.Detected { procs; states } ->
      [ ("procs", of_int_array procs); ("states", of_int_array states) ]
  | Event.No_detection_declared -> []

let to_json (e : Event.t) =
  Json.Obj
    (("seq", Json.Int e.seq)
    :: ("t", Json.Float e.time)
    :: ("proc", Json.Int e.proc)
    :: ("type", Json.Str (Event.kind e.body))
    :: body_fields e.body)

let encode_line e = Json.to_string (to_json e)

let body_of_json ~kind j =
  let open Json in
  let i name = to_int (member name j) in
  let arr name = to_int_array (member name j) in
  match kind with
  | "run_meta" ->
      let s = to_str (member "schema" j) in
      if s <> schema then Json.error "schema %S, expected %S" s schema;
      Event.Run_meta
        { algo = to_str (member "algo" j); n = i "n"; width = i "width" }
  | "sent" -> Event.Sent { dst = i "dst"; bits = i "bits" }
  | "delivered" -> Event.Delivered { src = i "src" }
  | "snapshot" -> Event.Snapshot_arrived { src = i "src"; state = i "state" }
  | "candidate" ->
      Event.Candidate_advanced { k = i "k"; proc = i "p"; state = i "state" }
  | "vc_advanced" ->
      Event.Vc_advanced
        {
          by_k = i "by_k";
          by_proc = i "by_p";
          by_state = i "by_state";
          by_clock = arr "by_clock";
          victim_k = i "victim_k";
          victim_proc = i "victim_p";
          victim_state = i "victim_state";
          witness = i "witness";
        }
  | "dd_eliminated" ->
      Event.Dd_eliminated
        {
          victim_proc = i "victim_p";
          victim_state = i "victim_state";
          poll_clock = i "poll_clock";
          poller_proc = i "poller_p";
        }
  | "chain_extended" ->
      Event.Chain_extended { after_proc = i "after_p"; proc = i "p" }
  | "hb_eliminated" ->
      Event.Hb_eliminated
        {
          victim_k = i "victim_k";
          victim_proc = i "victim_p";
          victim_state = i "victim_state";
          victim_clock = arr "victim_clock";
          by_k = i "by_k";
          by_proc = i "by_p";
          by_state = i "by_state";
          by_clock = arr "by_clock";
        }
  | "channel_eliminated" ->
      Event.Channel_eliminated
        {
          channel = to_str (member "channel" j);
          victim_proc = i "victim_p";
          victim_state = i "victim_state";
        }
  | "token_sent" ->
      Event.Token_sent { seq = i "hop"; dst = i "dst"; g = arr "g" }
  | "token_received" -> Event.Token_received { seq = i "hop" }
  | "token_regenerated" ->
      Event.Token_regenerated { seq = i "hop"; dst = i "dst" }
  | "poll_sent" -> Event.Poll_sent { dst = i "dst"; clock = i "clock" }
  | "poll_replied" ->
      Event.Poll_replied
        { dst = i "dst"; became_red = to_bool (member "became_red" j) }
  | "probe_sent" -> Event.Probe_sent { seq = i "hop"; dst = i "dst" }
  | "retransmit" ->
      Event.Retransmitted { dst = i "dst"; frame_seq = i "frame_seq" }
  | "merge" -> Event.Merged { round = i "round" }
  | "round" ->
      Event.Round_advanced
        {
          round = i "round";
          frontier = arr "frontier";
          eliminated = i "eliminated";
        }
  | "recovery/ckpt" -> Event.Checkpoint_taken { bytes = i "bytes" }
  | "recovery/restore" -> Event.Restored { bytes = i "bytes" }
  | "recovery/resync" ->
      Event.Resync_requested { peer = i "peer"; expected = i "expected" }
  | "recovery/replay" ->
      Event.Replayed { dst = i "dst"; from_seq = i "from_seq"; count = i "count" }
  | "wd_stand_down" -> Event.Watchdog_stood_down { seq = i "hop"; dst = i "dst" }
  | "phase" -> Event.Phase_marked { name = to_str (member "name" j) }
  | "detected" -> Event.Detected { procs = arr "procs"; states = arr "states" }
  | "no_detection" -> Event.No_detection_declared
  | k -> Json.error "unknown event type %S" k

let of_json j =
  let open Json in
  let kind = to_str (member "type" j) in
  {
    Event.seq = to_int (member "seq" j);
    time = to_float (member "t" j);
    proc = to_int (member "proc" j);
    body = body_of_json ~kind j;
  }

let decode_range s ~pos ~len =
  match of_json (Json.parse_range s ~pos ~len) with
  | e -> Ok e
  | exception Json.Error m -> Error m

let decode_line line = decode_range line ~pos:0 ~len:(String.length line)

let jsonl events =
  let buf = Buffer.create 65536 in
  Array.iter
    (fun e ->
      Json.emit buf (to_json e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let of_jsonl s =
  (* Walk newline offsets and decode each line in place — no per-line
     substring, no [split_on_char] list. A large log parses with one
     allocation per *event*, not per line + per event. *)
  let slen = String.length s in
  let rec go lineno pos acc =
    if pos >= slen then Ok (Array.of_list (List.rev acc))
    else
      let nl =
        match String.index_from_opt s pos '\n' with
        | Some i -> i
        | None -> slen
      in
      if nl = pos && nl = slen - 1 && pos > 0 then
        (* trailing newline after the last event line *)
        Ok (Array.of_list (List.rev acc))
      else
        match decode_range s ~pos ~len:(nl - pos) with
        | Ok e -> go (lineno + 1) (nl + 1) (e :: acc)
        | Error m -> Error (Printf.sprintf "line %d: %s" lineno m)
  in
  go 1 0 []

(* ------------------------------------------------------------------ *)
(* Chrome trace_event format (Perfetto / chrome://tracing)             *)
(* ------------------------------------------------------------------ *)

(* One simulated time unit is rendered as one millisecond (ts is in
   microseconds); everything lives in pid 0 with one thread per engine
   process. The interval structure — token hops in flight, elimination
   rounds, recovery windows, retransmit bursts — is derived by [Span]
   and rendered as complete ("X") slices; the remaining algorithm,
   watchdog and recovery events are named instants ("i") carrying
   their structured JSONL fields as args. *)

let chrome_ts t = t *. 1000.0

let thread_name ~n proc =
  if n > 0 && proc >= 0 && proc < n then Printf.sprintf "P%d (app)" proc
  else if n > 0 && proc >= n && proc < 2 * n then
    Printf.sprintf "M%d (monitor)" (proc - n)
  else if n > 0 && proc = 2 * n then "leader/checker"
  else Printf.sprintf "proc %d" proc

let chrome events =
  let open Json in
  let n =
    Array.fold_left
      (fun acc (e : Event.t) ->
        match e.body with Event.Run_meta { n; _ } -> n | _ -> acc)
      0 events
  in
  let procs = Hashtbl.create 16 in
  Array.iter
    (fun (e : Event.t) ->
      if e.proc >= 0 then Hashtbl.replace procs e.proc ())
    events;
  let meta =
    Hashtbl.fold (fun proc () acc -> proc :: acc) procs []
    |> List.sort compare
    |> List.map (fun proc ->
           Obj
             [
               ("name", Str "thread_name");
               ("ph", Str "M");
               ("pid", Int 0);
               ("tid", Int proc);
               ("args", Obj [ ("name", Str (thread_name ~n proc)) ]);
             ])
  in
  (* Duration slices from the derived span tree. *)
  let slices =
    Span.of_events events
    |> List.map (fun (s : Span.t) ->
           Obj
             [
               ("name", Str s.name);
               ("cat", Str (Span.kind_name s.kind));
               ("ph", Str "X");
               ("ts", Float (chrome_ts s.t0));
               ("dur", Float (chrome_ts (s.t1 -. s.t0)));
               ("pid", Int 0);
               ("tid", Int (max 0 s.proc));
               ("args", Obj (List.map (fun (k, v) -> (k, Int v)) s.args));
             ])
  in
  let detail e = Format.asprintf "%a" Event.pp_body e in
  let instants =
    Array.to_list events
    |> List.concat_map (fun (e : Event.t) ->
           match e.body with
           | Event.Sent _ | Event.Delivered _ ->
               (* Engine-level traffic is too dense for instants; it is
                  recoverable from the JSONL log when needed. *)
               []
           | Event.Token_sent _ | Event.Token_received _
           | Event.Round_advanced _ ->
               (* Slice endpoints: the token and round slices carry
                  these, so instants would only double-draw them. *)
               []
           | body ->
               let cat =
                 if Event.is_elimination body then "elimination"
                 else Event.kind body
               in
               [
                 Obj
                   [
                     ("name", Str (Event.kind body));
                     ("cat", Str cat);
                     ("ph", Str "i");
                     ("ts", Float (chrome_ts e.time));
                     ("pid", Int 0);
                     ("tid", Int (max 0 e.proc));
                     ("s", Str "t");
                     ( "args",
                       Obj (("detail", Str (detail body)) :: body_fields body)
                     );
                   ];
               ])
  in
  to_string
    (Obj
       [
         ("traceEvents", Arr (meta @ slices @ instants));
         ("displayTimeUnit", Str "ms");
       ])

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s
