(** Local snapshots — the application-to-monitor messages.

    Fig. 2 (vector-clock algorithm) and §4.1 (direct-dependence
    algorithm) define when an application process reports to its
    monitor: whenever the local predicate is true in a state, at most
    once per state (the [firstflag] discipline means one snapshot per
    interval between communication events). This module derives, from
    a recorded computation, exactly the snapshot sequence each
    application process would emit, so the replay driver can inject
    them into the simulation at the right causal points.

    Invariant: each stream is sorted by state index, which is also the
    FIFO order in which the monitor must consume it. *)

open Wcp_trace
open Wcp_clocks

type vc = { state : int; clock : int array }
(** Vector-clock snapshot: the emitting state's index and its vector
    clock {e projected onto the spec processes} ([Spec.width] entries),
    which is all the algorithm transmits (paper: message size O(n)). *)

type dd = { state : int; deps : Dependence.t list }
(** Direct-dependence snapshot: the emitting state's scalar clock
    (equal to its index) and all direct dependences recorded since the
    previous snapshot of this process (§4.1: the list is reset after
    each snapshot). *)

val vc_stream : ?gated:bool -> Computation.t -> Spec.t -> proc:int -> vc list
(** Snapshots emitted by spec process [proc]: one per predicate-true
    state, thinned by interval gating when [gated] (the default; every
    detector ships gated streams, and [~gated:false] is the test
    suite's reference for the thinning).

    Gating ships a candidate only if the process performed a send since
    the previously shipped candidate (the first candidate always
    ships). This is sound: if no send of process [i] separates
    candidates [c < c'], then for every state [t] of another process
    [t → c ⟹ t → c'] (clock monotonicity along [i]'s timeline) and
    [c → t ⟺ c' → t] (the only way [i]'s states become visible to
    others is via a send, and none lies in [[c, c'-1]]), so [c] is
    consistent with every global state [c'] is — the least consistent
    cut never needs [c']. Detected outcome and cut are unchanged; only
    message and bit counts drop. *)

val dd_stream : Computation.t -> Spec.t -> proc:int -> dd list
(** Snapshots emitted by process [proc] under the direct-dependence
    algorithm. All [N] processes participate (§4); processes outside
    the spec have the trivially-true predicate, so {e every} state of
    theirs is a candidate. Interval gating (see {!vc_stream}) applies
    here too; the dependences recorded at skipped
    candidates fold into the next shipped snapshot, so no causal
    information is lost. *)

val gcp_stream :
  Computation.t ->
  Spec.t ->
  channels:(int * int) list ->
  proc:int ->
  (int * int array * int array) list
(** Snapshots for the online GCP checker ([6]): for each candidate
    state of [proc] (predicate-true states for spec processes, every
    state otherwise), its full [N]-wide vector clock and one counter
    per channel — the number of messages [proc] has sent on the channel
    before that state when it is the channel's source, received at that
    state when it is its destination, [0] when it is neither. Returned
    as [(state, clock, counts)] triples. *)

val total_dd_deps : Computation.t -> Spec.t -> int
(** Total dependences carried by all dd snapshot streams (for bits
    accounting and the §4.4 bound checks). *)
