(** Online centralized detection of Generalized Conjunctive Predicates
    (Garg, Chase, Mitchell & Kilgore [6]).

    The online companion of {!Gcp.detect}: every application process —
    all [N] of them, because channel states need a full cut — streams
    GCP snapshots (full vector clock plus per-channel send/receive
    counters) to a central checker over FIFO channels. The checker is
    the centralized checker's process ({!Checker_centralized.run}, over
    full clocks) with one more elimination rule:
    - a candidate that happened before another candidate can never
      satisfy the conjunction (the WCP rule, {!Elimination});
    - at a consistent candidate cut, a false {e counting} channel
      predicate eliminates its forced endpoint's candidate (linearity,
      see {!Gcp}).

    Detection halts at the first consistent cut where every local and
    every channel predicate holds — the same cut {!Gcp.detect} computes
    offline (asserted by the test suite). *)

open Wcp_trace
open Wcp_sim

val detect :
  ?network:Network.t ->
  ?recorder:Wcp_obs.Recorder.t ->
  seed:int64 ->
  channels:Gcp.channel_predicate list ->
  Computation.t ->
  Spec.t ->
  Detection.result
(** Snapshots ship dense: the GCP checker has no delta encoding.
    Only the pure-WCP instance ([channels = []]) may run on a slice
    ({!Run_common.with_slice} with [keep_rest], the cut spanning all
    [N]): channel predicates count in-flight application messages,
    which a slice's synthetic skeleton does not preserve.
    @raise Invalid_argument if a channel predicate is not count-based
    ({!Gcp.count_based}) or names an unknown process. *)
