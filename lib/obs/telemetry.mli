(** Always-on telemetry plane: sliding-window aggregation over a live
    event stream.

    A [Telemetry.t] consumes {!Event.t} values one at a time — in
    practice as a {!Recorder.attach_tap} on a (possibly tiny) recorder
    — and emits a deterministic [wcp-metrics/1] JSONL stream through
    its sink {e while the run is still going}:

    - a [meta] prologue copied from the run's [Run_meta] event;
    - one [window] line per elapsed sim-time interval ([every] units):
      per-window event/elimination/hop/poll/retransmit/checkpoint
      counts, exact window hop-latency p50/p95, and cumulative health
      gauges (retransmits, regenerations, checkpoints, watchdog
      stand-downs) sampled at the window boundary;
    - one [phase] line per completed run phase (delimited by
      {!Event.Phase_marked} marks): sim-time extent, events and
      GC-allocated bytes attributed to the phase;
    - a [total] trailer on {!close}.

    Everything is driven by event {e sim} timestamps — the plane never
    reads wall clocks or the engine's RNG, so an attached telemetry tap
    cannot perturb a run, and equal seeds give byte-identical streams.

    The same data feeds a cumulative {!Metrics} registry, exposable at
    any moment as a Prometheus text page ({!prometheus}). *)

type t

val schema : string
(** ["wcp-metrics/1"]. *)

val default_every : float
(** [5.0] sim-time units per window. *)

val create :
  ?every:float -> ?alloc:(unit -> float) -> sink:(string -> unit) -> unit -> t
(** [sink] receives one JSONL line at a time (no trailing newline).
    [every] (default {!default_every}) is the window width in sim-time
    units. [alloc] (default [Gc.allocated_bytes]) samples cumulative
    allocated bytes for the per-phase profile; pass [fun () -> 0.] to
    strip allocation data from the stream (e.g. when replaying a log
    post-hoc, where the numbers would be meaningless).
    @raise Invalid_argument if [every <= 0]. *)

val attach : t -> Recorder.t -> unit
(** [Recorder.attach_tap r (feed t)]. *)

val feed : t -> Event.t -> unit
(** Consume one event: close any windows its timestamp has passed
    (emitting their lines), then tally it. Events must arrive in
    nondecreasing time order, which recorder emission order
    guarantees. No-op after {!close}. *)

val close : t -> unit
(** Flush the final partial window (if nonempty) and the open phase,
    then emit the [total] trailer. Idempotent. *)

val registry : t -> Metrics.t
(** The live cumulative registry behind the stream (counters plus the
    full-run hop-latency histogram). *)

val prometheus : t -> string
(** [Metrics.to_prometheus (registry t)]: the current cumulative state
    as a Prometheus text exposition page. *)

val lines : t -> int
(** Lines handed to the sink so far. *)

(** {2 The [wcp-metrics/1] codec}

    [decode_line] structurally inverts [encode_line]; both are total
    on the lines this module emits, and the stream is
    byte-deterministic for a fixed event sequence (allocation sampling
    aside — see [alloc] above). *)

type window = {
  idx : int;  (** 0-based window index *)
  t0 : float;  (** window start (inclusive), [idx * every] *)
  t1 : float;  (** window end (exclusive) *)
  events : int;
  elims : int;
  hops : int;
  polls : int;
  snapshots : int;
  retx : int;
  probes : int;
  regens : int;
  ckpts : int;
  restores : int;
  replays : int;
  stand_downs : int;
  hop_p50 : float;  (** exact window hop-latency median (0 if no hops) *)
  hop_p95 : float;
  cum_events : int;  (** cumulative gauges at the window boundary *)
  cum_elims : int;
  cum_retx : int;
  cum_regens : int;
  cum_ckpts : int;
  cum_stand_downs : int;
}

type phase = {
  phase : string;
  p_t0 : float;
  p_t1 : float;
  alloc_bytes : int;  (** bytes GC-allocated while the phase was open *)
  p_events : int;  (** events tallied while the phase was open *)
}

type line =
  | Meta of { algo : string; n : int; width : int; every : float }
  | Window of window
  | Phase of phase
  | Total of { windows : int; events : int; elims : int; hops : int;
               phases : int }

val to_json : line -> Export.Json.t
(** The JSON tree behind {!encode_line}. Exposed so the tests can pin
    the hand-rolled window fast path against the generic emitter:
    [encode_line l = Export.Json.to_string (to_json l)] for every
    line shape. *)

val encode_line : line -> string
(** One stream line as JSON (no trailing newline). Window lines take a
    direct buffer-write fast path; the bytes are identical to
    [Export.Json.to_string (to_json l)]. Safe to call from any domain:
    no scratch state is shared between calls or between taps. *)

val decode_line : string -> (line, string) result
(** Inverse of {!encode_line}; errors name the offending field. *)

val decode : string -> (line list, string) result
(** Parse a whole stream; errors are prefixed with the 1-based line
    number. *)

val equal_line : line -> line -> bool
