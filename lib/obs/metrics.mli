(** Run metrics derived from a recorded event log: plain counts and two
    log-scaled histograms.

    Histograms use power-of-two buckets, giving a factor-2 resolution
    everywhere on the axis with a fixed 64-word footprint; min/max/sum
    are tracked exactly, so the mean and the extreme quantiles are
    exact and interior quantiles are within 2x. *)

type histogram

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]; 0 when empty. Exact at the
    extremes, within a factor of 2 in the interior. *)

val hist_max : histogram -> float
(** 0 when empty. *)

type summary = {
  hop_latency : histogram;
      (** the extent of each token span ({!Span.of_events}): last send
          to acceptance, in sim time *)
  elims_per_hop : histogram;  (** eliminations between token acceptances *)
  eliminations : int;
  hops : int;
  polls : int;
  retransmits : int;
  regenerations : int;
  rounds : int;  (** parallel-checker frontier rounds *)
}

val of_events : Event.t array -> summary
(** Replay a recorded log. Deterministic: equal logs give equal
    metrics. *)

val pp : Format.formatter -> summary -> unit
(** One line per metric: the six counts, then the two histograms
    (count, mean, p50, p95 and max). *)
