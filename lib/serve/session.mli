(** One streaming detection session: a bounded in-memory ingest ring
    with disk spill, feeding an incremental slice builder and a
    detector (DESIGN.md §13).

    The detector is online or batch, per algorithm. The online ones
    ([checker], [parallel]) offer the dense clock of every
    predicate-true spec state, as it is fed, to {!Wcp_core.Elimination}
    and hold the cut the moment its completing event is fed; they keep
    no slice anchors, and {!detect} only renders the held outcome. The
    token algorithms have no honest online form: they slice as events
    are fed and run the engine-simulated detector on the finished slice
    ({!Wcp_core.Run_common.with_slicer}).

    Threading contract: {!push_batch}, {!request_finish}, {!abort},
    {!claim}, {!attach_sender} and {!detach_sender} may be called from any
    thread (the server's connection threads); {!drain} and {!detect}
    must only ever be called by the session's owning shard worker —
    the builder and scratch buffers are worker-private. Counters and
    the ring are guarded by an internal mutex; the builder needs no
    lock because only the worker touches it (the shard queue's mutex
    orders the handoff).

    Backpressure is shed, not imposed: when the ring is full the
    overflow goes to a per-session spill file in arrival order, so a
    slow drain (or a deliberately slow worker) costs disk instead of
    heap — the E22 slow-client arm pins the resident-size cap this
    buys. [acked] counts events accepted into ring or spill: they
    survive a client disconnect, which is what makes the cumulative-
    ack reconnect story of wcp-serve/1 work. *)

type config = {
  id : string;
  n : int;  (** process count *)
  algo : string;  (** a {!Wcp_core.Detectors} name *)
  procs : int array;  (** predicate scope *)
  seed : int64;
  groups : int;
  pred0 : bool array;  (** length [n] *)
  metrics_every : float;  (** wcp-metrics/1 cadence; 0 = off *)
  ring : int;  (** in-memory ring capacity, in events *)
  spill_path : string;  (** spill file (created lazily, unlinked on close) *)
}

type t

val create : config -> (t, string) result
(** Validates the config (known algorithm, procs within range, at
    least one group) and builds the incremental slicer. *)

val id : t -> string

val config : t -> config

val shard_key : t -> int
(** Deterministic non-negative hash of the session id — the server
    maps it to a domain slot, giving every session a stable
    domain affinity (so per-session output is byte-identical however
    many other sessions run). *)

(** {2 Connection side} *)

val push_batch : t -> words:int array -> metas:int array -> int -> unit
(** Accept [k] decoded events ([words.(i)] = packed op word,
    [metas.(i)] = [(proc lsl 1) lor pred]) under one lock
    acquisition: into the ring while it has room, spilled to disk
    beyond that. Events after a finish request are a protocol error.
    @raise Failure on a structurally invalid event (bad proc). *)

val request_finish : t -> unit
(** No more events; run detection once everything fed. Idempotent. *)

val abort : t -> string -> Protocol.server_msg option
(** Poison the session from its connection (protocol violation, decode
    error) and claim its terminal line: the first failure becomes the
    stored [Error] line unless a terminal line was already stored.
    Returns that line if it was not yet delivered — the caller writes
    it itself, and it is marked delivered — else [None]. *)

val acked : t -> int
(** Events durably accepted (ring + spill), for [welcome]/[credit]. *)

val credit : t -> int
(** Free ring capacity right now (0 while spilling) — the advisory
    window advertised to the client. *)

val attach_sender : t -> (Protocol.server_msg -> unit) -> Protocol.server_msg option
(** Install the live connection's writer (called with the session
    lock held, so a concurrent completion cannot slip between check
    and install). Returns the stored [Result]/[Error] line if the
    session already completed while disconnected — the caller sends
    it and closes; it is marked delivered. *)

val detach_sender : t -> unit
(** The connection is done with the session (died, or finished): it
    releases its {!claim}, and metrics/credit/result lines are stored
    or dropped until a reconnect. *)

val claim : t -> bool
(** Take the session for a connection, atomically: [false] if another
    live connection already holds it (a second concurrent [hello] for
    the same id is refused, not queued). Held from the [hello] until
    {!detach_sender}, so a reconnect cannot slip in before the holder
    has attached its writer or pushed its last events. *)

val send : t -> Protocol.server_msg -> unit
(** Write through the attached sender, if any; a dead peer detaches
    it. Never called with the session lock held. *)

(** {2 Worker side} *)

type progress =
  | Drained of int  (** events fed to the builder this visit; more may remain *)
  | Ready
      (** detect now: finish requested and every accepted event fed,
          or the session failed (its [Error] line is due) *)
  | Idle  (** nothing to do (no data, or the terminal line is stored) *)

val drain : t -> max:int -> progress
(** Feed up to [max] queued events (ring first, then spill, preserving
    arrival order) into the slice builder — and, for an online
    algorithm, each predicate-true spec state into the elimination
    until the cut is held. Every event is fed even after that, so a
    stream that turns malformed later is still rejected. A feed or push
    error (an out-of-range process; a receive of a message not in
    flight or addressed elsewhere; a self-send, an out-of-range
    destination or an id already in flight — see
    {!Wcp_slice.Slice.Incremental.on_send}) poisons the session, and
    the next drain reports {!Ready} so the error goes out as its
    terminal line without waiting for finish. A stream may end with
    messages still in flight. *)

val fed : t -> int
(** Events fed to the builder so far. *)

val want_credit : t -> bool
(** Whether enough progress accumulated since the last credit line
    that the worker should send one (ring-half granularity). *)

val credit_sent : t -> unit

val completed : t -> bool

val detect : t -> on_metrics:(string -> unit) option -> Protocol.server_msg
(** Store and return the session's terminal line: the [Error] line of a
    failed session; else the [Result]. Online algorithms render the
    cut held during {!drain} ([No_detection] if none was); batch ones
    run the detector over the finished slice with the offline
    sequence's own code. Either way the served cut is byte-identical
    to [wcpdetect detect] on the same trace.
    [on_metrics] receives raw wcp-metrics/1 lines (capacity-1
    recorder, bounded memory); an online session's stream narrates
    just the verdict. Worker-only; call once, on {!Ready}. *)

val deliver : t -> unit
(** Send the stored result through the live connection, exactly once:
    marked delivered on success, kept for a reconnect if the peer died
    first. No-op without a stored result or a sender. *)

val delivered : t -> bool

val close : t -> unit
(** Release the spill file. Idempotent. *)
