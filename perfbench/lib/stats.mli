(** Sample statistics for the timing benchmark.

    Percentiles are nearest-rank and refuse to report a tail that too
    few samples stand behind: a p90 needs at least {!min_beyond}
    samples above it, so at least 100 samples in all. Rates are
    aggregates (total work over total timed seconds), never means of
    per-sample rates. *)

val min_beyond : int
(** [10]: samples that must lie strictly above a reported percentile. *)

val percentile : pct:int -> float array -> (float, string) result
(** [percentile ~pct xs] is the nearest-rank [pct]-th percentile of
    [xs]: the [ceil (pct * n / 100)]-th smallest sample. [Error] (with
    the sample count) when fewer than {!min_beyond} samples lie beyond
    that rank.
    @raise Invalid_argument unless [1 <= pct <= 99]. *)

val samples_for : pct:int -> int
(** The fewest samples {!percentile} accepts for [pct] (100 for p90,
    20 for p50). *)

val median : float array -> float
(** Plain midpoint (mean of the two middle samples for an even count)
    of a small, non-empty sample set, such as a few repeated set-ups.
    @raise Invalid_argument on an empty array. *)

val mean : float array -> float
(** @raise Invalid_argument on an empty array. *)

val rate : events:int -> seconds:float -> float
(** Aggregate throughput: [events / seconds], where [seconds] is the
    total timed time of the run.
    @raise Invalid_argument if [seconds <= 0]. *)

val line : name:string -> unit:string -> count:int -> float -> string
(** One human-readable metric line: name, value, unit and the number
    of samples behind it. *)
