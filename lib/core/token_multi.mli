(** The multi-token parallel variant (paper §3.5).

    The spec monitors are partitioned into [g] groups (round-robin by
    spec index). One token per group runs the §3 algorithm restricted
    to its group: a group token is only ever forwarded to red monitors
    {e of its own group}; when none remain red (in that token's view)
    it returns to a leader process. Once all dispatched tokens are
    back, the leader merges them — for each entry the largest [G]
    wins, and an equal-valued red marking beats green — and either
    declares detection (all green) or re-dispatches a token into every
    group that still has a red member.

    The group monitors are {!Token_vc}'s Fig. 3 monitors under a
    {!Token_vc.route}: a token may visit only its own group, each
    monitor's watchdog guards its forwards, the token is a
    [Group_token], and a token whose group has no red member left
    returns to the leader. This module is the leader. Group tokens and
    returns share one hop counter and one delta meter per run.

    With [groups = 1] this degenerates to the single-token algorithm
    plus one leader round-trip. The point of the variant is wall-clock
    (simulated-time) parallelism, measured by experiment E3; totals for
    messages and work remain within a constant factor. *)

open Wcp_trace
open Wcp_sim

type assignment =
  | Round_robin  (** spec index [k] joins group [k mod groups] *)
  | Blocks  (** contiguous spec-index ranges, one per group *)

val detect :
  ?network:Network.t ->
  ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  ?assignment:assignment ->
  ?options:Detection.options ->
  groups:int ->
  seed:int64 ->
  Computation.t ->
  Spec.t ->
  Detection.result
(** [assignment] (default {!Round_robin}) is the §3.5 partition of the
    monitors into groups — the paper leaves it open; bench E10 ablates
    the choice. [fault] as in {!Token_vc.detect}: reliable transport,
    a watchdog on every forward (one per monitor, one per group at the
    leader), graceful [Undetectable_crashed] degradation, and
    checkpointed crash recovery for the group monitors under
    [Fault.Restart] windows (the leader is not restartable).
    [options] as in {!Token_vc.detect}: the wire encoding ([delta])
    changes bits only, never detection behaviour.
    @raise Invalid_argument if [groups < 1] or [groups > Spec.width]. *)
