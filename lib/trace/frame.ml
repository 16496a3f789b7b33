(* wcp-frame/1: length-prefixed binary event framing (DESIGN.md §13).

   Frame = 4-byte LE payload length + payload; payload = 16 bytes per
   event (two LE u64 words: the packed Btrace op word, then
   (proc lsl 1) lor pred). L = 0 is the end-of-stream sentinel. *)

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let event_bytes = 16

let max_frame_events = 4096

let header_bytes = 4

(* Byte-at-a-time u64 access: no boxing, no Int64 round-trip — the
   per-event cost is a handful of shifts either way. *)

let set_u64 b off v =
  for k = 0 to 7 do
    Bytes.unsafe_set b (off + k) (Char.unsafe_chr ((v lsr (8 * k)) land 0xff))
  done

let get_u64 b off =
  let byte k = Char.code (Bytes.unsafe_get b (off + k)) in
  let hi = byte 7 in
  if hi land 0x80 <> 0 then error "event word at byte %d has bit 63 set" off;
  byte 0
  lor (byte 1 lsl 8)
  lor (byte 2 lsl 16)
  lor (byte 3 lsl 24)
  lor (byte 4 lsl 32)
  lor (byte 5 lsl 40)
  lor (byte 6 lsl 48)
  lor (hi lsl 56)

let write_event b off ~word ~meta =
  set_u64 b off word;
  set_u64 b (off + 8) meta

let event_word b off = get_u64 b off

let event_meta b off = get_u64 b (off + 8)

let set_u32 b off v =
  for k = 0 to 3 do
    Bytes.unsafe_set b (off + k) (Char.unsafe_chr ((v lsr (8 * k)) land 0xff))
  done

let get_u32 b off =
  let byte k = Char.code (Bytes.unsafe_get b (off + k)) in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)
(* ------------------------------------------------------------------ *)

type encoder = { ebuf : Bytes.t; ecap : int; mutable ecount : int }

let encoder ?(events = 256) () =
  let ecap = max 1 (min events max_frame_events) in
  { ebuf = Bytes.create (header_bytes + (event_bytes * ecap)); ecap; ecount = 0 }

let count e = e.ecount

let is_full e = e.ecount >= e.ecap

let add_word e ~proc ~pred ~word =
  if e.ecount >= e.ecap then error "frame full (%d events)" e.ecap;
  if word < 0 then error "op word has bit 63 set";
  if proc < 0 then error "negative process id";
  write_event e.ebuf
    (header_bytes + (event_bytes * e.ecount))
    ~word ~meta:((proc lsl 1) lor (if pred then 1 else 0));
  e.ecount <- e.ecount + 1

let add_send e ~proc ~dst ~msg ~pred =
  add_word e ~proc ~pred ~word:(Btrace.pack_send ~dst ~msg)

let add_recv e ~proc ~msg ~pred =
  add_word e ~proc ~pred ~word:(Btrace.pack_recv ~msg)

let contents e =
  set_u32 e.ebuf 0 (event_bytes * e.ecount);
  (e.ebuf, header_bytes + (event_bytes * e.ecount))

let reset e = e.ecount <- 0

let finish_frame =
  let b = Bytes.make header_bytes '\000' in
  Bytes.unsafe_to_string b |> Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

type decoder = {
  on_event : proc:int -> pred:bool -> word:int -> unit;
  mutable pend : Bytes.t;  (* unconsumed tail, compacted to offset 0 *)
  mutable plen : int;
  mutable fin : bool;
}

let decoder ~on_event =
  { on_event; pend = Bytes.create 4096; plen = 0; fin = false }

let finished d = d.fin

let pending_bytes d = d.plen

let ensure_room d extra =
  let need = d.plen + extra in
  if need > Bytes.length d.pend then begin
    let cap = ref (Bytes.length d.pend) in
    while !cap < need do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit d.pend 0 b 0 d.plen;
    d.pend <- b
  end

let decode_events d buf ~pos ~len =
  let stop = pos + len in
  let off = ref pos in
  while !off < stop do
    let word = event_word buf !off in
    let meta = event_meta buf !off in
    d.on_event ~proc:(meta lsr 1) ~pred:(meta land 1 = 1) ~word;
    off := !off + event_bytes
  done

let feed d buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Frame.feed: bad range";
  ensure_room d len;
  Bytes.blit buf pos d.pend d.plen len;
  d.plen <- d.plen + len;
  let off = ref 0 in
  let continue = ref true in
  while !continue do
    if d.plen - !off < header_bytes then continue := false
    else begin
      let payload = get_u32 d.pend !off in
      if payload > event_bytes * max_frame_events then
        error "frame payload of %d bytes exceeds the %d-event cap" payload
          max_frame_events;
      if payload mod event_bytes <> 0 then
        error "frame payload of %d bytes is not a whole number of events"
          payload;
      if d.plen - !off - header_bytes < payload then continue := false
      else begin
        if payload = 0 then begin
          if d.fin then error "second end-of-stream sentinel";
          d.fin <- true
        end
        else begin
          if d.fin then error "events after the end-of-stream sentinel";
          decode_events d d.pend ~pos:(!off + header_bytes) ~len:payload
        end;
        off := !off + header_bytes + payload
      end
    end
  done;
  if !off > 0 then begin
    let rest = d.plen - !off in
    if rest > 0 then Bytes.blit d.pend !off d.pend 0 rest;
    d.plen <- rest
  end
