(** The direct-dependence WCP detection algorithm (paper §4, Figs 4–5)
    and its parallel variant (§4.5).

    No vector clocks: application processes tag messages with a scalar
    clock (the sender's state index) and report, in each local
    snapshot, the {e direct dependences} — (sender, clock) pairs of
    messages received since the previous snapshot. Because every one of
    the [N] processes participates (processes without a local predicate
    have the trivially-true one), checking only direct dependences
    suffices for cut consistency (Lemma 4.1).

    The monitors share an {e empty} token and keep the candidate cut
    distributed: each monitor holds its own [G] (scalar clock of its
    candidate) and [color]. Red monitors form a linked list — the red
    chain — threaded through per-monitor [next_red] pointers, with the
    token holder at the head. The holder consumes candidates until one
    advances past its [G], then polls the monitor of every collected
    dependence: a poll that turns its target red splices the target
    into the chain right after the holder. When the chain is empty the
    [G] values form the first consistent cut satisfying the WCP
    (Theorems 4.3–4.4).

    Costs (§4.4, checked by the tests and bench E4): at most [Nm]
    token moves, [Nm] polls (plus replies), [O(Nm)] bits and — the
    point of the algorithm — [O(m)] work and space on {e every}
    process.

    With [parallel = true] (§4.5) red monitors prefetch: they search
    for their next candidate and poll its dependences {e before} the
    token arrives, splicing newly red monitors after themselves; a
    monitor still leaves the chain only when the token visits it, which
    keeps the chain intact (the paper's restriction). Totals are
    unchanged; simulated detection time drops (experiment E8).

    Erratum implemented: Fig. 4 never assigns [G := candidate.clock]
    when accepting a candidate, but Table 1, Lemma 4.2 and Theorem 4.3
    all require [M_i.G] to be the accepted candidate's clock; we
    perform the assignment (see DESIGN.md §3).

    Only the §4 protocol lives here. The fault wiring, the handler
    install with checkpointed recovery ({!Checkpoint.Dd}), the
    watchdog probe answer and the replay run are {!Run_common}'s, the
    same for every token detector. *)

open Wcp_trace
open Wcp_sim

type monitors

val install :
  Messages.t Engine.t ->
  n_app:int ->
  parallel:bool ->
  ?net:Run_common.net ->
  ?watchdog:Watchdog.t ->
  ?check:
    (g:int array ->
    color:Messages.color array ->
    next_red:int option array ->
    next:int option ->
    unit) ->
  ?recovery:Run_common.recovery ->
  ?stop:bool ->
  ?start_at:int ->
  ?delta:bool ->
  outcome:Detection.outcome option ref ->
  hops:int ref ->
  polls:int ref ->
  snapshots:int ref ->
  unit ->
  monitors
(** Install the Figs 4–5 monitor handlers for all [n_app] processes
    (the WCP's identity is immaterial to the monitors: they only see
    snapshot streams, which is why live monitoring needs no recorded
    computation). The engine must follow the {!Run_common} id layout.
    The detected cut spans all [n_app] processes. [stop], [net],
    [watchdog] and [recovery] as in {!Token_vc.install}. [delta]
    (default [true]) charges each §4 poll its packed one-word size
    ({!Wire.poll_bits})
    instead of the dense two words; the monitors decode both dd
    snapshot forms either way. *)

val start : Messages.t Engine.t -> monitors -> unit
(** Hand the token to the head of the initial red chain (the monitor of
    process [start_at], default 0; the chain is rotated so that monitor
    leads it) at time 0. Call before [Engine.run]. *)

val detect :
  ?network:Network.t ->
  ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  ?parallel:bool ->
  ?invariant_checks:bool ->
  ?start_at:int ->
  ?options:Detection.options ->
  seed:int64 ->
  Computation.t ->
  Spec.t ->
  Detection.result
(** The [Detected] cut spans all [N] processes; project it with
    {!Detection.project_outcome} to compare against the oracle.
    [fault] as in {!Token_vc.detect}: reliable transport + token
    watchdog + graceful [Undetectable_crashed] degradation, with
    checkpointed crash recovery under [Fault.Restart] windows.
    [options] as in {!Token_vc.detect}; for this algorithm [delta]
    packs §4.1 snapshot dependences ({!Wire.encode_dd}) and prices
    polls at their packed size ({!Wire.poll_bits}) — red-chain
    prefetch/poll traffic included ([~parallel:true], experiment E8).
    Because the cut spans all [N], its slice ({!Detectors.sliced})
    keeps {e every} state of the non-spec processes.
    [invariant_checks] re-validates Lemma 4.2(1-3) against the recorded
    computation at every commit point (sequential mode only; the
    statements quantify over quiescent protocol states, which
    prefetching deliberately abandons).
    @raise Failure if a checked invariant is violated. *)
