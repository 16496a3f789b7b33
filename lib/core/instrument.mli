(** Live application-side instrumentation — the paper's Fig. 1
    deployment.

    {!Token_vc.detect} and friends replay a {e recorded} computation.
    This module instead instruments a {e running} application process
    inside the simulation engine, implementing exactly the Fig. 2
    (vector-clock mode) and §4.1 (direct-dependence mode) application
    algorithms: clock maintenance, message tagging, the [firstflag]
    snapshot discipline, and the end-of-run marker. Pair it with
    {!Token_vc.install} or {!Token_dd.install} on the monitor side and
    no trace ever needs to exist.

    Protocol contract for the instrumented process:
    - call {!start} once from its first scheduled event;
    - call {!on_send} immediately before each application send and ship
      the returned {!tag} inside the message;
    - call {!on_receive} with the received tag immediately after each
      application receive;
    - call {!predicate_true} whenever its local predicate holds (each
      call is cheap; only the first per state emits a snapshot);
    - call {!finish} when it will communicate no more.

    In direct-dependence mode, processes whose [proc] is not in
    [wcp_procs] carry the trivially-true predicate (§4 requires all [N]
    processes to participate), so the instrument emits their snapshots
    automatically at every state change; in vector-clock mode they emit
    nothing. *)

open Wcp_sim

type mode = Vc | Dd

type tag = Messages.tag
(** Clock tag to piggyback on application messages: the [n]-entry
    vector clock in [Vc] mode (Fig. 2), the sender's scalar clock in
    [Dd] mode (§4.1). Ship it inside {!Messages.App_data}. *)

type t

val create :
  mode:mode -> n_app:int -> wcp_procs:int array -> proc:int -> t
(** One instrument per application process. [wcp_procs]: sorted,
    distinct ids of the processes carrying local predicates.

    Snapshots are interval-gated: one is shipped only when the process
    has performed a send since the last shipped snapshot (the first
    one always ships). Dropping the other candidates never changes the
    detected cut — see {!Snapshot.vc_stream} for the argument — and in
    [Dd] mode their direct dependences stay in the accumulator and
    ride along with the next shipped snapshot.

    Snapshots ship encoded: hybrid delta/dense over the FIFO channel
    to the monitor in [Vc] mode ({!Wire.encode_snap}), packed
    dependence words in [Dd] mode ({!Wire.encode_dd}); the
    {!Token_vc.install} / {!Token_dd.install} monitors decode every
    form transparently. Live slicing is the monitor side's business
    ({!Wcp_slice.Slice.Incremental}). *)

val state_index : t -> int
(** Current local state (1-based interval index). *)

val tag_bits : t -> int
(** Wire size of a tag under the DESIGN.md accounting (for charging on
    sends). *)

val start : t -> Messages.t Engine.ctx -> unit
(** Announce the initial state (emits the state-1 snapshot for
    trivially-true processes in [Dd] mode). *)

val on_send : t -> Messages.t Engine.ctx -> tag
(** Fig. 2 send rule: returns the tag for the outgoing message, then
    advances into the next local state. *)

val on_receive : t -> Messages.t Engine.ctx -> src:int -> tag -> unit
(** Fig. 2 receive rule: merge the tag, advance into the next local
    state (recording the direct dependence in [Dd] mode). *)

val predicate_true : t -> Messages.t Engine.ctx -> unit
(** The local predicate holds in the current state; emits a snapshot to
    the monitor unless one was already sent for this state
    ([firstflag]). No-op for processes outside [wcp_procs]. *)

val finish : t -> Messages.t Engine.ctx -> unit
(** Send the end-of-run marker to the monitor (idempotent). *)
