(** Exporters for recorded event logs.

    Two formats:
    - {b JSONL}: one JSON object per event, a full codec —
      [decode_line] structurally inverts [encode_line], which the
      schema validator and the round-trip tests rely on. Output is
      byte-deterministic for a given event sequence.
    - {b Chrome [trace_event]}: a single JSON document that opens in
      Perfetto or [chrome://tracing]; the {!Span}-derived interval
      structure (token hops, elimination rounds, recovery windows,
      retransmit bursts) becomes duration slices, every other
      algorithm/watchdog/recovery event a named instant carrying its
      structured fields as args. Export only — there is no decoder. *)

val schema : string
(** Event-log schema tag (["wcp-events/1"]), carried by the
    [run_meta] event. *)

(** Minimal JSON tree shared by every JSONL codec in the plane
    ({!encode_line} here, the [wcp-metrics/1] codec in {!Telemetry}).
    [emit]/[parse] invert each other on the subset we generate. *)
module Json : sig
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  val error : ('a, unit, string, 'b) format4 -> 'a

  val emit : Buffer.t -> t -> unit

  val add_int : Buffer.t -> int -> unit
  (** Exactly the bytes [emit] writes for [Int i], without the
      intermediate [string_of_int] allocation. *)

  val add_float : Buffer.t -> float -> unit
  (** Exactly the bytes [emit] writes for [Float f] — exposed so
      hand-rolled hot-path encoders (the telemetry window line) can
      stay byte-compatible with the generic emitter. *)

  val to_string : t -> string

  val parse : string -> t
  (** @raise Error on malformed input or trailing garbage, and on
      nothing else: the message names the byte offset and, for a bad
      number or [\u] escape, the offending token. *)

  val parse_range : string -> pos:int -> len:int -> t
  (** {!parse} of [s.[pos .. pos+len-1]] without copying the range out
      first — the batched decode loops (a JSONL document, the
      service's socket reader) parse each line in place out of one
      big buffer. Escape-free string literals (the overwhelming case)
      are a single [String.sub]. Error offsets are relative to [pos],
      so diagnostics match what {!parse} on the extracted line would
      say.
      @raise Error as {!parse}; [Invalid_argument] on a bad range. *)

  val member : string -> t -> t
  (** @raise Error when missing or not an object. *)

  val to_int : t -> int

  val to_float : t -> float
  (** Accepts ints. *)

  val to_str : t -> string

  val to_bool : t -> bool

  val to_int_array : t -> int array

  val of_int_array : int array -> t
end

(** {2 JSONL} *)

val encode_line : Event.t -> string
(** One event as a single JSON line (no trailing newline). *)

val decode_line : string -> (Event.t, string) result
(** Inverse of {!encode_line}; also accepts semantically equal JSON
    (field order, int-valued floats). Errors name the offending byte
    or field. *)

val decode_range : string -> pos:int -> len:int -> (Event.t, string) result
(** {!decode_line} on a line held as a range of a larger buffer
    (see {!Json.parse_range}); no per-line string is allocated. *)

val jsonl : Event.t array -> string
(** All events, one per line, trailing newline included. *)

val of_jsonl : string -> (Event.t array, string) result
(** Parse a whole JSONL document; errors are prefixed with the
    1-based line number. *)

(** {2 Chrome trace_event} *)

val chrome : Event.t array -> string
(** The whole log as a [{"traceEvents": [...]}] document: thread-name
    metadata, then {!Span.of_events} duration slices, then instants. *)

(** {2 Files} *)

val write_file : string -> string -> unit

val read_file : string -> string
