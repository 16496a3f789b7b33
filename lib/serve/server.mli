(** The streaming detection service (DESIGN.md §13): a long-running
    daemon multiplexing many concurrent wcp-serve/1 sessions.

    Architecture — three thread populations over one domain pool:
    - an {e accept} thread parked in [select] on the listener and a
      stop pipe;
    - one {e connection} thread per socket (system threads on the
      accepting domain: they only do I/O and batched decode, so they
      interleave under the runtime lock), pushing decoded events into
      the session's ring via {!Session.push_batch} — one lock
      acquisition per batch, not per event;
    - {e shard workers}, one per domain of a {!Wcp_util.Parallel}
      scoped pool, each owning the sessions whose
      {!Session.shard_key} maps to its slot. A worker drains rings
      into slice builders — online algorithms eliminate candidates as
      they drain, batch ones detect on the slice at finish — and sends
      each session's terminal [result]/[error] line. The stable
      session→domain affinity keeps every session's slicing and
      detection on one domain, so per-session results are
      byte-identical whatever else the server is doing (detection is
      deterministic by seed; affinity removes even scheduling
      jitter from the telemetry interleaving).

    Flow control is shed-not-block: a session whose worker lags spills
    to disk ({!Session}), so slow clients cost a file, never the heap;
    [credit] lines advise well-behaved clients of the live window. *)

type config = {
  addr : Protocol.addr;
  domains : int option;  (** worker shard count; default {!Wcp_util.Parallel.default_domains} *)
  ring : int;  (** per-session ring capacity in events (default 4096) *)
  batch : int;  (** events per drain visit / decode flush (default 1024) *)
  spool_dir : string;  (** spill files live here *)
  max_sessions : int;
      (** stop after this many sessions complete with a [result] or a
          worker-reported [error]; 0 = run until {!stop} *)
  drain_delay : float;
      (** artificial pause (seconds) after each drained batch — a
          deliberately slow worker for spill/backpressure tests and
          the E22 slow arm; 0 in production *)
  gc_minor_words : int;
      (** nursery size (words) each shard-worker domain sets for itself
          at startup — minor collections are stop-the-world across all
          domains in OCaml 5, so the default 256k-word nursery throttles
          streaming ingest; 0 leaves the runtime default (default 4M
          words). Only worker domains are touched: a process that owns
          its main domain (the [wcpdetect serve] daemon, benchmarks)
          should apply the same setting there itself. *)
  log : string -> unit;  (** one line per lifecycle event *)
}

val default_config : addr:Protocol.addr -> config

val tune_gc : int -> unit
(** [tune_gc words] grows the calling domain's nursery to at least
    [words] (no-op when [words <= 0] or the nursery is already that
    big). Shard workers call it on their own domains; a daemon or
    benchmark that owns the process should call it on the main domain
    with [config.gc_minor_words]. *)

type t

val create : config -> t
(** Bind and listen (the socket is live — clients may connect before
    {!run} starts draining). @raise Unix.Unix_error on bind failure. *)

val bound_addr : t -> Protocol.addr
(** The listening address, with a kernel-assigned TCP port resolved. *)

val run : t -> unit
(** Serve until {!stop} (or [max_sessions] results): reserves the
    domain pool, starts the accept thread, runs the shard workers,
    and on shutdown joins every thread and releases every socket,
    spill file and the unix socket path. Call once. *)

val stop : t -> unit
(** Idempotent, callable from any thread (or a signal handler via a
    self-pipe — this only sets a flag, writes a byte and signals
    condition variables). Live connections are shut down; {!run}
    returns once everything joined. *)

val completed : t -> int
(** Sessions that have produced a result so far. *)
