(** Span trees derived from recorded event logs.

    A recorded log is a flat list of instants; the interesting
    structures — a token hop in flight, an elimination round, a
    crash-recovery window, a retransmit burst — are {e intervals}.
    [of_events] reconstructs them:

    - {b token}: each token send (or watchdog regeneration) paired
      with the acceptance of the same hop number, on the sender's
      track. Regenerated sends refresh the start, so under chaos the
      span is "last send to acceptance". {!Metrics.of_events} reads
      its hop latency from these spans.
    - {b round}: the interval between consecutive parallel-checker
      [Round_advanced] events (the first round starts at the log's
      first event).
    - {b recovery}: from a monitor's [Restored] event to the last
      reconnect-handshake event of the same episode (its
      [Resync_requested]s and the [Replayed]s addressed to it).
    - {b retx-burst}: maximal groups of transport retransmits from one
      process with inter-arrival gaps of at most {!burst_gap}.

    Spans power {!Export.chrome}'s duration slices and the per-kind
    p50/p95 columns in the bench schema. Derivation is pure and
    deterministic: equal logs give equal span lists. *)

type kind = Token | Round | Recovery | Retx_burst

type t = {
  kind : kind;
  name : string;  (** Chrome slice name, e.g. ["token #3"] *)
  proc : int;  (** engine process id owning the track *)
  t0 : float;
  t1 : float;  (** [t1 >= t0]; zero-width spans are legal *)
  args : (string * int) list;  (** structured slice arguments *)
}

val kind_name : kind -> string
(** ["token" | "round" | "recovery" | "retx-burst"]. *)

val burst_gap : float
(** [2.0] sim-time units: retransmits further apart than this start a
    new burst. *)

val of_events : Event.t array -> t list
(** All spans of every kind, in derivation order (tokens and bursts by
    completion, rounds by round number, recoveries by restore time). *)

val durations : kind -> t list -> float array
(** The [t1 - t0] extents of the spans of one kind, in order. *)

val percentile : float array -> float -> float
(** Exact rank percentile of a sample (sorts a copy); 0 when empty. *)
