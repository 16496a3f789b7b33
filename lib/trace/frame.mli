(** wcp-frame/1: length-prefixed binary framing for streamed events —
    the hot-path wire format of the detection service (DESIGN.md §13).

    A frame is a 4-byte little-endian payload length [L] followed by
    [L] payload bytes; [L] must be a multiple of {!event_bytes} and at
    most [{!max_frame_events} * {!event_bytes}]. Each event is two
    little-endian u64 words:
    - word 0: the packed {!Btrace} op word ({!Btrace.pack_send} /
      {!Btrace.pack_recv}) — byte-identical to the on-disk ops
      sections, so a served event and a stored event are the same
      bits;
    - word 1: [(proc lsl 1) lor pred] — the acting process and the
      predicate flag of the state the event enters.

    A zero-length frame ([L = 0]) is the end-of-stream sentinel (the
    service's [finish] mark); events after it are an error. Both
    words must have bit 63 clear so decoded values are native OCaml
    ints.

    The encoder batches 64–256 events per frame (configurable), so one
    [write] syscall amortizes over the whole batch; the decoder accepts
    arbitrary byte chunks (whatever [read] returned) and invokes an
    int-only callback per event — the decode loop allocates nothing. *)

exception Error of string
(** Structurally broken frame data (oversized or misaligned payload
    length, a word with bit 63 set, events after the finish
    sentinel). *)

val event_bytes : int
(** [16]. *)

val max_frame_events : int
(** [4096] — the hard cap a decoder enforces; encoders default to
    256. *)

(** {2 Event records} *)

val write_event : Bytes.t -> int -> word:int -> meta:int -> unit
(** Write one 16-byte event record at byte offset [off]: the op
    [word], then [meta = (proc lsl 1) lor pred], as little-endian
    u64s. The frame encoder and the service's spill file both write
    through it. *)

val event_word : Bytes.t -> int -> int

val event_meta : Bytes.t -> int -> int
(** The two words of the event record at byte offset [off].
    @raise Error if the word has bit 63 set. *)

(** {2 Encoding} *)

type encoder
(** A reusable single-frame staging buffer. *)

val encoder : ?events:int -> unit -> encoder
(** [events] (default 256) is the frame capacity in events, clamped to
    [1 .. max_frame_events]. *)

val count : encoder -> int
(** Events staged in the current frame. *)

val is_full : encoder -> bool

val add_word : encoder -> proc:int -> pred:bool -> word:int -> unit
(** Stage one event from an already-packed {!Btrace} op word.
    @raise Error if the frame is full or a word has bit 63 set. *)

val add_send : encoder -> proc:int -> dst:int -> msg:int -> pred:bool -> unit
(** [add_word] of {!Btrace.pack_send}. *)

val add_recv : encoder -> proc:int -> msg:int -> pred:bool -> unit
(** [add_word] of {!Btrace.pack_recv}. *)

val contents : encoder -> Bytes.t * int
(** The wire image of the staged frame: the encoder's internal buffer
    (header patched in place) and the byte length to write — valid
    until the next [add_*]/{!reset}. Writing the bytes and calling
    {!reset} is a flush. *)

val reset : encoder -> unit

val finish_frame : Bytes.t
(** The 4-byte end-of-stream sentinel ([L = 0]). *)

(** {2 Decoding} *)

type decoder

val decoder :
  on_event:(proc:int -> pred:bool -> word:int -> unit) -> decoder
(** [on_event] receives the acting process, the entered state's
    predicate flag, and the packed op word (split it with bit 0 /
    {!Btrace.unpack_op}); field ranges beyond the frame invariants are
    the caller's to validate. *)

val feed : decoder -> Bytes.t -> pos:int -> len:int -> unit
(** Consume one received chunk: complete frames invoke [on_event] per
    event in order, a trailing partial frame is buffered for the next
    call.
    @raise Error on structural damage; the decoder is then poisoned. *)

val finished : decoder -> bool
(** Has the end-of-stream sentinel been decoded? Subsequent events
    raise {!Error}. *)

val pending_bytes : decoder -> int
(** Bytes buffered awaiting a frame completion — nonzero at
    connection EOF means a truncated stream. *)
