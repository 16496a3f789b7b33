(** Detection outcomes and run results.

    All detectors — offline oracles and online distributed algorithms —
    report through this common vocabulary so tests and benchmarks can
    compare them uniformly. *)

open Wcp_trace
open Wcp_sim

type outcome =
  | Detected of Cut.t
      (** The first (pointwise-least) consistent cut satisfying the
          WCP. For the direct-dependence algorithm the cut spans all
          [N] processes; for the others it spans the spec processes. *)
  | No_detection
      (** The WCP holds in no consistent cut of this (finite) run. *)
  | Undetectable_crashed of int list
      (** Graceful degradation under a fault plan: the listed engine
          processes (see the {!result.stats} id layout) crashed
          permanently or became unreachable, so the protocol cannot
          decide the predicate. Reported instead of hanging. *)

type options = {
  delta : bool;
      (** delta/packed wire encoding and accounting (DESIGN.md §9) *)
}
(** Per-run knobs shared by every detector entry point. Slicing is not
    one of them: it runs before any detector, see {!Detectors.sliced}. *)

val default_options : options
(** [{ delta = true }]. *)

type extras = {
  token_hops : int;  (** times the token changed monitor *)
  polls : int;  (** §4 poll messages issued *)
  snapshots : int;  (** local snapshots delivered to monitors *)
  merges : int;  (** §3.5 leader merge rounds *)
}

val no_extras : extras

type result = {
  outcome : outcome;
  stats : Stats.t;
      (** per-engine-process costs; application processes occupy ids
          [0..N-1], monitor of process [p] is [N+p], id [2N] is the
          checker / multi-token leader *)
  sim_time : float;  (** simulated time at which the run ended *)
  events : int;  (** discrete events processed by the engine *)
  extras : extras;
}

val outcome_equal : outcome -> outcome -> bool

val remap_outcome : (Cut.t -> Cut.t) -> outcome -> outcome
(** Apply a cut transformation to a [Detected] outcome (identity on
    the other outcomes) — e.g. a slice's dense-coordinate remap. *)

val project_outcome : Spec.t -> outcome -> outcome
(** Restrict a [Detected] cut to the spec processes (identity on the
    other outcomes); used to compare the direct-dependence algorithm's
    [N]-wide cut against the oracle. *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_result : Format.formatter -> result -> unit
(** One-line summary: outcome, message totals, work, hops. *)
