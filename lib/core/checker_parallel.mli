(** Domain-parallel predicate detection (the sixth detector).

    Garg's round-based work-optimal parallel algorithm (arXiv
    2008.12516): the per-slot candidate streams are materialized once,
    then frontier rounds alternate a threshold computation (per column
    [k], the largest [k]-entry among the {e other} slots' frontier
    clocks) with an "advance slot [k] past its locally-eliminated
    candidates" sweep. A candidate [a] at slot [k] is eliminated
    exactly when [a.clock.(k) <= M_k] — the same happened-before rule
    as [Checker_centralized] — so by confluence of the elimination
    rule the reported cut is the unique least satisfying cut,
    {e byte-identical} to the centralized checker and to
    [Oracle.first_cut]. The per-slot advances are independent and are
    fanned across a [Parallel.scoped_pool] reserved once per
    detection, so rounds hit a barrier but never respawn domains; the
    output is byte-identical at any domain count (experiment E18 pins
    this, DESIGN.md §11 gives the work/span argument).

    No discrete-event engine runs underneath: snapshot streams are
    priced at the same wire costs (same gated streams, same encoder,
    same bits), but [sim_time] is 0 and there are no
    network/fault knobs. [Stats] carries the per-round counters
    (rounds, max frontier breadth, work items) via
    [Stats.set_parallel]. *)

val detect :
  ?recorder:Wcp_obs.Recorder.t ->
  ?options:Detection.options ->
  ?domains:int ->
  seed:int64 ->
  Wcp_trace.Computation.t ->
  Spec.t ->
  Detection.result
(** [domains] defaults to {!Wcp_util.Parallel.default_domains} and is
    clamped to the spec width; [d < 1] is an [Invalid_argument].
    [options.delta] selects the snapshot encoding, as for
    {!Checker_centralized.detect}. [seed] is ignored — the
    algorithm is deterministic — and exists only so all six detectors
    share a call shape. When a [recorder] is attached the run emits
    [Run_meta], per-elimination [Hb_eliminated], per-round
    [Round_advanced], and the final verdict, with the round number as
    the timestamp. *)
