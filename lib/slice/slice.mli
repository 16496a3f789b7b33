(** Computation slicing: an offline (and incremental) preprocessing
    pass that shrinks a recorded computation before detection
    (DESIGN.md §10; Mittal–Garg computation slicing, adapted to the
    conjunctive/WCP setting of Garg–Chase).

    The slice retains, per process, only the {e anchor} states the
    detectors can ever place in a cut — predicate-true states for
    processes carrying a local predicate, every state for processes a
    caller asks to keep whole (the direct-dependence and GCP
    algorithms span all [N] processes) — and replaces the runs of
    skipped events between anchors with a synthetic {e causal
    skeleton}: one message per irredundant happened-before edge
    between retained states. Redundant edges are pruned twice over —
    an edge already implied by the target's previous anchor is
    dropped (chain pruning), and among the remaining sources of one
    target only the happened-before-maximal ones are kept (cover
    pruning) — so the skeleton is the transitive reduction of the
    dense happened-before relation restricted to anchors.

    Soundness (proof sketch in DESIGN.md §10): happened-before
    between anchors is preserved {e exactly} — every kept edge is a
    true dense relation, and every dense relation between anchors is
    recovered by the transitive closure of kept edges plus process
    order — and each gap lays out the sends leaving one anchor before
    the receives entering the next, so no spurious causality is
    introduced. Consistency of a cut over anchors is a pure
    happened-before property, hence the least satisfying cut of the
    slice is the image of the least satisfying cut of the dense
    computation, and every detector returns the same answer on both
    (after {!remap_cut}). Consecutive anchors with an empty gap are
    causally indistinguishable with respect to every retained state
    and collapse into one slice state; {!remap_cut} maps it back to
    the earliest member. *)

open Wcp_trace

type t
(** A computed slice: the reduced computation plus the per-process
    state maps needed to translate cuts back to dense coordinates. *)

val make : Computation.t -> keep:(proc:int -> state:int -> bool) -> t
(** [make comp ~keep] slices [comp], retaining exactly the states
    [keep] selects. The slice's predicate flag at a retained state is
    the dense flag (the OR over a collapsed class). Implemented as
    {!of_source} over {!Computation.Stream.of_computation}, so the
    dense and streamed paths produce identical slices by
    construction. *)

val of_source :
  Computation.Stream.source -> keep:(proc:int -> state:int -> bool) -> t
(** {!make} over a streaming cursor: events and flags are pulled one
    at a time, in {!Computation.Stream.walk}'s order, so slicing an
    mmap'd {!Btrace} source holds only the slice itself — never the
    dense computation — in memory. Each event and each flag is read
    once (two source reads per event), a flag at the moment the event
    entering its state is consumed. The walk is the dense reader's
    check, so a streamed source is held to the same soundness rules
    as {!Computation.of_arrays}.
    @raise Computation.Invalid as {!Computation.Stream.walk}, in the
    same words. *)

val for_spec : ?keep_rest:bool -> Computation.t -> procs:int array -> t
(** The detector-facing policy: processes in [procs] retain their
    predicate-true states; the others retain every state when
    [keep_rest] (direct-dependence / GCP, whose cuts span all
    processes) and nothing otherwise (vc-family, default). *)

val for_spec_source :
  ?keep_rest:bool -> Computation.Stream.source -> procs:int array -> t
(** {!for_spec} over a streaming cursor (see {!of_source}, whose reads
    and checks it shares: the keep policy decides on the flag the feed
    has just read).
    @raise Computation.Invalid as {!of_source}. *)

val computation : t -> Computation.t
(** The sliced computation — a well-formed [Computation.t] every
    detector accepts unchanged. *)

val dense_state : t -> proc:int -> int -> int
(** [dense_state t ~proc s] maps slice state [s] of [proc] back to
    dense coordinates: the earliest dense anchor of its class for
    anchor states (exact), the following anchor for synthetic gap
    states (these never appear in a detected cut for a process whose
    anchors are its candidates), clamped to the nearest anchor at the
    ends. Processes with no retained state map to dense state 1. *)

val slice_state : t -> proc:int -> int -> int option
(** The forward map: the slice state representing a retained dense
    state, [None] if that state was not retained. *)

val remap_cut : t -> Cut.t -> Cut.t
(** {!dense_state} applied to every entry of a detected cut. *)

val retained_states : t -> int
(** Total anchors across all processes (before gap-state padding). *)

val skeleton_messages : t -> int
(** Synthetic messages realising the causal skeleton. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line reduction summary. *)

(** {2 Incremental construction}

    The same pass as an online builder: feed communication events in
    any causally consistent order (a receive after its send — the
    order any live execution or streamed JSONL log already delivers)
    and the anchors and skeleton edges are computed as events arrive.
    An event costs O(n): a clock copy into the message table for a
    send, a clock merge for a receive, and one int-keyed table
    operation each way. A new anchor costs work only over the clock
    entries that grew since the process's previous anchor: each such
    entry advances a per-(process, process) cursor over the other
    process's anchors, which only moves forward (amortised O(1) per
    anchor it passes), and cover pruning compares the surviving
    sources pairwise. Edge decisions depend only on already-fed
    history, so slicing a prefix and extending it agrees with slicing
    the whole — the property the live [Instrument] path and a
    streaming front end need. [make] is this builder fed from the
    recorded computation. *)
module Incremental : sig
  type slice := t

  type builder

  val create :
    n:int ->
    keep:(proc:int -> state:int -> bool) ->
    pred0:(int -> bool) ->
    builder
  (** [pred0 p] is the dense predicate flag of process [p]'s initial
      state (state 1), which exists before any event. *)

  val on_send : builder -> proc:int -> dst:int -> msg:int -> pred:bool -> unit
  (** Process [proc] sent message [msg] to [dst], entering a new local
      state whose dense predicate flag is [pred]. [msg] must not be in
      flight; [dst] is kept with it until it is received.
      @raise Invalid_argument on a negative [msg], an [msg] already in
      flight, a [dst] out of range or a self-send. *)

  val on_receive : builder -> proc:int -> msg:int -> pred:bool -> unit
  (** Process [proc] received [msg], entering a new state flagged
      [pred].
      @raise Invalid_argument if [msg] is not in flight (the feed must
      be causally consistent) or was sent to a process other than
      [proc]. *)

  val events_fed : builder -> int

  val retained : builder -> int
  (** Anchors so far. *)

  val state : builder -> proc:int -> int
  (** The dense index of [proc]'s current state (1 before its first
      event). *)

  val clock : builder -> proc:int -> int array
  (** A copy of the dense vector clock of [proc]'s current state:
      entry [i] is the latest state of process [i] in its causal past,
      so (i, s) happened before (j, t), i <> j, iff
      [(clock b ~proc:j).(i) >= s] taken while [j] was at [t]. *)

  val finish : builder -> slice
  (** Materialise the slice from the accumulated anchors and edges.
      O(slice size); the builder must not be fed afterwards. Messages
      still in flight are legal here (a served stream may end with
      them) and leave no trace in the slice. *)
end
