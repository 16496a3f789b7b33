(** A recorded distributed computation (one run of a distributed
    program, paper §2).

    Each of the [n] processes executes a sequence of communication
    events (sends and receives). The interval between two consecutive
    events is a {e local state}; process [i] with [e] events has
    [e + 1] states, indexed 1-based (see {!State}). Every state carries
    the truth value of that process's local predicate — the only part
    of the program state the detection algorithms need.

    Derived data computed once at construction time:
    - the vector clock of every state (Fig. 2 discipline);
    - the scalar clock of every state (§4.1) — identically the state's
      index, since the counter is incremented on every send/receive;
    - the direct dependence (§4.1) recorded at each receive.

    Construction validates that the run is causally sound, by
    {!Stream.walk}: message ids are dense, every message is sent
    exactly once, to another process, and received exactly once, by
    the addressed process, and the send precedes the receive in some
    linearization (no causal cycles). *)

open Wcp_clocks

type op =
  | Send of { dst : int; msg : int }
  | Recv of { msg : int }
      (** One communication event. [msg] identifiers are global,
          dense, and 0-based. *)

type message = {
  id : int;
  src : int;
  src_state : int;  (** state of [src] from which the message was sent *)
  dst : int;
  dst_state : int;  (** state of [dst] entered upon receipt *)
}

type t

exception Invalid of string
(** Raised by {!of_raw}, {!Stream.walk} (and the codec) on causally
    unsound input. *)

val of_raw : ops:op list array -> pred:bool array array -> t
(** [of_raw ~ops ~pred] builds a computation from per-process event
    lists. [pred.(i)] must have length [List.length ops.(i) + 1]: one
    truth value per state.
    @raise Invalid if the run is not a valid computation. *)

val of_arrays : ops:op array array -> pred:bool array array -> t
(** Like {!of_raw} but from per-process event {e arrays}, which the
    computation takes ownership of — the caller must not mutate them
    afterwards. The allocation-lean entry point used by
    {!Builder.finish}; [of_raw] is a copying wrapper around it. *)

val n : t -> int
(** Number of processes. *)

val num_states : t -> int -> int
(** Number of states of process [i] (at least 1). *)

val total_states : t -> int

val ops : t -> int -> op list
(** Communication events of process [i], in order. *)

val messages : t -> message array
(** All messages, indexed by id. *)

val pred : t -> State.t -> bool
(** Truth of the local predicate in the given state. *)

val vc : t -> State.t -> Vector_clock.t
(** Vector clock of the given state (full [n]-sized vector). *)

val dep_at : t -> State.t -> Dependence.t option
(** The direct dependence recorded at the transition {e into} the given
    state: [Some {src; clock}] iff that transition was the receipt of a
    message sent by [src] from its state [clock]. [None] for state 1
    and for states entered by a send. *)

val happened_before : t -> State.t -> State.t -> bool
(** Lamport's happened-before between local states, answered from the
    vector clocks in O(1). *)

val concurrent : t -> State.t -> State.t -> bool
(** Neither state happened before the other. States of the same
    process are never concurrent (unless equal, which is also not
    concurrent). *)

(** {2 Unchecked variants}

    Same answers as {!vc} / {!happened_before} / {!concurrent} but
    without re-validating that the states exist. For inner loops that
    query many states already known to be in range (e.g. the executable
    Lemma 3.1 / 4.2 invariant checks, which run per token hop).
    Out-of-range states are undefined behaviour (array bounds aside). *)

val vc_unsafe : t -> State.t -> Vector_clock.t

val happened_before_unsafe : t -> State.t -> State.t -> bool

val concurrent_unsafe : t -> State.t -> State.t -> bool

val candidates : t -> int -> int list
(** Indices of process [i]'s states whose local predicate is true —
    exactly the states for which the Fig. 2 application process emits a
    local snapshot. *)

val max_events_per_process : t -> int
(** The paper's [m]: the largest number of messages sent or received by
    any single process. *)

val sends_in : t -> proc:int -> lo:int -> hi:int -> bool
(** [sends_in t ~proc ~lo ~hi] is [true] iff process [proc] performs a
    send while in some state [s] with [lo <= s <= hi] (bounds are
    clamped to the valid state range; an empty range is [false]).
    Answered in O(1) from a prefix-sum table. This is the query behind
    interval gating: a candidate state may be skipped exactly when no
    send separates it from the previously shipped candidate. *)

val reflag : t -> pred:(proc:int -> state:int -> bool) -> t
(** The same communication structure with different local-predicate
    flags — used to hand a derived WCP (e.g. one DNF disjunct of a
    boolean predicate) to the detection machinery. Clocks and
    dependences are shared, not recomputed. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line shape summary (process count, states, messages). *)

(** {2 Streaming access}

    A [Stream.source] is the minimal random-access view of a recorded
    run that the replay/detection side needs: the per-process event
    scripts and per-state predicate flags, behind accessor functions
    instead of materialised arrays. The dense [t] adapts to one
    trivially ({!Stream.of_computation}); the binary trace store
    ({!Btrace}) serves one straight off an mmap'd file, so a slice can
    be built — and detection run — without ever holding the dense
    computation (its vector clocks dominate the footprint) in memory. *)
module Stream : sig
  type source = {
    src_n : int;  (** number of processes *)
    num_ops : int -> int;  (** events of process [i] *)
    op : proc:int -> k:int -> op;  (** [k]-th event (0-based) of [proc] *)
    pred : proc:int -> state:int -> bool;
        (** predicate flag of the 1-based [state] of [proc] *)
  }

  val of_computation : t -> source
  (** Dense adapter: accessors index the existing arrays (no copying).
      Out-of-range cursor reads — a process id outside [0..n-1], an
      event index past [num_ops], a state outside [1..num_ops+1] —
      raise a named [Invalid_argument], mirroring the [Corrupt]
      errors of the {!Btrace} cursor. *)

  val walk :
    source ->
    send:(proc:int -> dst:int -> msg:int -> pred:bool -> unit) ->
    receive:(proc:int -> msg:int -> pred:bool -> unit) ->
    unit
  (** The canonical linearization of a recorded run, and its one
      soundness check. Round-robin over processes, each runs until it
      blocks on a receive whose message is not in flight; [send] and
      [receive] see every event once, in that order, with [pred] the
      flag of the state the event enters. Each event and each flag
      past state 1 is read once (a blocked receive keeps its message
      id); the initial flags are the caller's to read. The per-id
      record is one 4-byte off-heap slot per id a sound run can name
      (⌈E/2⌉ for E events), so no allocation scales with an id's
      value. {!of_arrays}, the slicer and the service client all
      linearize through it.
      @raise Invalid on a negative id, a send to a process out of
      range or to itself, ids that are not dense, a message sent
      twice, received by a process other than its addressee, received
      twice or never received, a receive of a message never sent, or
      a causal cycle. An error may read the source again to name the
      defect. *)

  val materialize : source -> t
  (** Pull every event and flag through the cursor and build (and
      re-validate) the dense computation.
      @raise Invalid if the streamed run is causally unsound. *)
end
