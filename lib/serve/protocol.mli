(** wcp-serve/1: the detection service's wire protocol (DESIGN.md §13).

    A connection speaks newline-delimited JSON control lines (the
    {!Export.Json} codec — the same minimal tree as wcp-events/1 and
    wcp-metrics/1). A client opens with a [hello] (or [watch]) line;
    the server answers [welcome] and from then on emits [credit],
    [metrics], [result] and [error] lines. Events travel either as
    [ev] control lines (JSONL mode) or — after the hello — as raw
    wcp-frame/1 binary frames ({!Frame}), selected by the hello's
    [frames] field. The [finish] mark is the [finish] line in JSONL
    mode and the zero-length sentinel frame in binary mode.

    Reconnection is cumulative-ack: [welcome.acked] is the number of
    events the server has durably accepted for that session (ring or
    spill); a resuming client replays its deterministic linearization
    and skips that many events. No other resume state exists.

    This module is the transport layer only: address parsing
    ([unix:PATH] / [tcp:HOST:PORT]), listen/connect helpers, a
    buffered reader whose line reads hand out spans of its internal
    buffer (so the JSONL ingest path parses in place via
    {!Export.Json.parse_range} — no per-line allocation), robust
    writes, and the message codecs. *)

(** {2 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

val parse_addr : string -> (addr, string) result
(** [unix:PATH] or [tcp:HOST:PORT]. *)

val addr_to_string : addr -> string
(** Inverse of {!parse_addr}. *)

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Bind and listen. A stale unix-socket path is unlinked first; TCP
    sockets get [SO_REUSEADDR]. @raise Unix.Unix_error on failure. *)

val bound_addr : Unix.file_descr -> addr -> addr
(** The address actually bound — resolves [tcp:HOST:0] to the kernel-
    assigned port (for tests); unix addresses pass through. *)

val connect : ?retry:float -> addr -> Unix.file_descr
(** Connect, retrying connection-refused / not-yet-bound errors every
    50ms for up to [retry] seconds (default 0: one attempt).
    @raise Unix.Unix_error once the deadline passes. *)

exception Disconnected
(** The peer went away mid-write ([EPIPE] / connection reset). *)

val write_all : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> unit
(** Loop over partial writes. @raise Disconnected on a dead peer. *)

val write_string : Unix.file_descr -> string -> unit

val ignore_sigpipe : unit -> unit
(** Idempotently set [SIGPIPE] to ignore so dead peers surface as
    {!Disconnected} instead of killing the process. *)

(** {2 Buffered reading} *)

type reader
(** A growable read buffer over a file descriptor. Not thread-safe. *)

val reader : Unix.file_descr -> reader

val read_line_span : reader -> (string * int * int) option
(** The next newline-terminated line as [(buf, pos, len)] — a span of
    the reader's internal buffer (newline excluded), valid only until
    the next reader call. [None] at EOF. A final unterminated line is
    returned as-is. Blocks for more input as needed. *)

val read_line : reader -> string option
(** [read_line_span] copied out to a fresh string. *)

val has_buffered_line : reader -> bool
(** Whether a complete line is already buffered — a batched ingest
    loop flushes staged work before letting the reader block. *)

val read_span : reader -> (Bytes.t * int * int) option
(** Raw-mode read for the binary framing: whatever is buffered (else
    one blocking [read]), consumed and returned as a span of the
    internal buffer; [None] at EOF. Valid until the next reader
    call. *)

(** {2 Messages} *)

type frames = Jsonl | Binary

type hello = {
  session : string;  (** session id; reconnects present the same id *)
  n : int;  (** process count *)
  algo : string;  (** algorithm key, as the [-a] CLI flag *)
  procs : int array;  (** predicate scope (sorted, deduped) *)
  seed : int64;
  groups : int;  (** multi-token group count *)
  pred0 : bool array;  (** length [n]: initial per-process predicate *)
  frames : frames;
  metrics_every : float;  (** wcp-metrics/1 cadence in seconds; 0 = off *)
}

type client_msg =
  | Hello of hello
  | Watch  (** observe the server's metrics lines; sends no events *)
  | Ev of { proc : int; kind : int; dst : int; msg : int; pred : bool }
      (** one event in JSONL mode; [kind] 0 = send, 1 = receive
          ([dst] is meaningful only for sends) *)
  | Finish  (** end of events; the [result] line follows *)

type server_msg =
  | Welcome of { session : string; acked : int; credit : int }
  | Credit of { acked : int; credit : int }
      (** flow control: [acked] events durably accepted, [credit]
          free in-memory window (advisory — the server spills rather
          than blocks, so ignoring credit costs disk, not deadlock) *)
  | Metrics of { line : string }
      (** one raw wcp-metrics/1 line from the session's detection *)
  | Result of {
      session : string;
      outcome : string;
          (** [Detection.pp_outcome] rendering, byte-identical to the
              offline [wcpdetect detect] cut for every algorithm *)
      events : int;
          (** batch algorithms: discrete events the engine-simulated
              detector processed; online ones ([checker], [parallel]):
              stream events fed when the outcome was determined — the
              cut-completing event's index + 1, or every event for
              [no detection] *)
      msgs : int;  (** simulated detector messages; 0 online *)
      bits : int;  (** their wire bits; 0 online *)
      hops : int;  (** token hops; 0 for the checkers *)
      lat_ns : int;
          (** the server's finish-time work, finish sentinel to
              outcome: slice + detect for batch algorithms, rendering
              the held cut (about 0) online *)
    }
  | Error_msg of { message : string }

val session_busy : string
(** The [error] message refusing a [hello] for a session that still has
    a live connection. A client reconnecting right after its previous
    connection died may see it before the server has reaped that
    connection, so it is worth retrying. *)

val encode_client : client_msg -> string
(** One JSON line, no trailing newline. *)

val encode_server : server_msg -> string

val decode_client : string -> pos:int -> len:int -> (client_msg, string) result
(** Decode a client line held as a buffer range (no copy). *)

val decode_server : string -> pos:int -> len:int -> (server_msg, string) result
