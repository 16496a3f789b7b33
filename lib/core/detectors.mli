(** The detector table: one record per detection algorithm, keyed by
    the name users type.

    Every place that turns an algorithm name into a run — the CLI, the
    streaming service's sessions, the bench harness and the tests —
    looks the name up here, so the six detectors are spelled, scoped
    and dispatched in one place. The replay-only oracles (the
    lattice oracle, Cooper–Marzullo, [Definitely]) are not detectors
    and are not in the table. *)

open Wcp_trace

type run =
  ?fault:Wcp_sim.Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  ?ckpt_every:int ->
  options:Detection.options ->
  groups:int ->
  ?domains:int ->
  seed:int64 ->
  Computation.t ->
  Spec.t ->
  Detection.result
(** The shared call shape. [groups] is the multi-token group count,
    clamped to the spec width; [domains] the parallel checker's
    fan-out (default {!Wcp_util.Parallel.default_domains}); both are
    ignored by the other detectors. [fault] and [ckpt_every] are the
    token algorithms' fault plan and checkpoint cadence (see
    {!Token_vc.detect}).
    @raise Invalid_argument if [fault] is given to a detector whose
    [faults] is [false]. *)

type t = {
  name : string;
      (** ["token-vc"], ["multi-token"], ["token-dd"], ["token-dd-par"],
          ["checker"] or ["parallel"] — also the [algo] of the run's
          [Run_meta] event *)
  keep_rest : bool;
      (** the detected cut spans all [N] processes, not just the spec:
          a slice must keep every state of the non-spec processes, and
          comparing against the oracle needs {!spec_outcome} *)
  online : bool;
      (** the streaming service eliminates candidates as events are fed
          and holds the cut at its completing event; otherwise it runs
          [run] on the finished slice *)
  faults : bool;  (** accepts a fault plan (runs on the reliable transport) *)
  run : run;
}

val all : t list
(** In the order above. *)

val names : string list

val find : string -> (t, string) result
(** The error names the unknown algorithm and lists {!names}. *)

val spec_outcome : t -> Spec.t -> Detection.outcome -> Detection.outcome
(** The outcome restricted to the spec processes: {!Detection.project_outcome}
    when [keep_rest], the identity otherwise. *)
