(** The single-token vector-clock WCP detection algorithm (paper §3,
    Figs 2–3).

    One token circulates among the [n] monitor processes of the spec.
    It carries the candidate cut [G] and a color vector: [color.(k) =
    Red] means state [(k, G.(k))] has been eliminated (it happened
    before some other candidate, Lemma 3.1), [Green] means no selected
    state is causally after it. The token is only ever sent to a red
    monitor; that monitor consumes fresh candidates from its
    application process until one advances past [G.(k)], turns itself
    green, then marks red every [j] whose candidate the new state
    causally dominates. All green ⇒ the cut is consistent and every
    local predicate holds: the WCP is detected, and by Theorem 3.2 the
    cut is the {e first} such cut.

    Costs (§3.4, checked by the test suite and bench E1): the token
    moves at most [nm] times, at most [2nm] messages total, [O(n²m)]
    total bits and work, but only [O(nm)] work and space on any one
    process.

    {2 Two ways to run it}

    {!detect} replays a recorded computation ({!Run_common.replay},
    with {!App_replay.vc} as the application side). {!install} +
    {!start} wire only the monitor side into an engine, for {e live}
    monitoring: application processes instrumented with {!Instrument}
    feed the monitors directly, the paper's Fig. 1 deployment.

    The monitors are written once, for a {!route}: {!install}'s route
    lets the token visit every monitor, and {!Token_multi} runs the
    same monitors under a route that keeps each group token inside its
    group. *)

open Wcp_trace
open Wcp_sim

type monitors

val install :
  Messages.t Engine.t ->
  n_app:int ->
  wcp_procs:int array ->
  ?net:Run_common.net ->
  ?watchdog:Watchdog.t ->
  ?check:(g:int array -> color:Messages.color array -> unit) ->
  ?recovery:Run_common.recovery ->
  ?stop:bool ->
  ?start_at:int ->
  ?delta:bool ->
  outcome:Detection.outcome option ref ->
  hops:int ref ->
  snapshots:int ref ->
  unit ->
  monitors
(** Install the Fig. 3 monitor handlers for the WCP over [wcp_procs]
    (sorted, distinct application process ids in [0..n_app)). The
    engine must follow the {!Run_common} id layout. [check], when
    given, is invoked with the token contents every time the token
    finishes processing at a monitor (used to assert Lemma 3.1 against
    a ground-truth computation). On termination the detecting monitor
    stores the result in [outcome] and, unless [stop] is [false], halts
    the engine (live monitors pass [~stop:false] so the application can
    run to completion).

    [net] (default {!Run_common.raw_net}) carries all monitor traffic;
    under a fault plan, pass the fields of {!Run_common.chaos_wiring}:
    its [net], a [watchdog] that guards every token hop against loss
    (lease probe + regeneration; see {!Watchdog}), and its [recovery],
    which checkpoints and deterministically restores the monitors in
    the plan's [Fault.Restart] windows (see
    {!Run_common.install_monitors}).

    [delta] (default [true]) charges each token hop its delta-encoded
    wire size ({!Wire.token_bits}) instead of the dense formula, and
    has the monitors decode {!Messages.Snap_vc_delta} snapshots (they
    always accept both snapshot forms). Purely a wire-cost matter:
    detection behaviour is identical either way. *)

val start : Messages.t Engine.t -> monitors -> unit
(** Schedule the initial (all-red, [G = 0]) token at the starting
    monitor ([start_at], a spec index, default the first) at time 0.
    §3.2: the token may start anywhere because the fully red color
    vector forces it to visit every monitor at least once. Call before
    [Engine.run]. *)

(** {2 Routed monitors (§3.5)}

    {!Token_multi}'s group monitors are these monitors under a route
    that keeps each token inside its group. *)

type hop =
  Messages.t Engine.ctx ->
  ?wd:Watchdog.t ->
  ?narrate:bool ->
  dst:int ->
  (int -> Messages.t) ->
  int array ->
  unit
(** [hop ctx ?wd ?narrate ~dst token g] sends [token seq] to [dst],
    where [seq] is the run's next hop number: it narrates the hop
    ([Token_sent], unless [narrate] is [false]), charges its
    delta-encoded size against the cut [g] (one meter per run), and
    has [wd] guard it. *)

type route = {
  visits : int -> int -> bool;
      (** [visits k j]: a token at spec index [k] may go to [j] *)
  guard : int -> Watchdog.t option;  (** the watchdog guarding [k]'s forwards *)
  token : int -> seq:int -> int array -> Messages.color array -> Messages.t;
      (** the token message [k] forwards *)
  exhausted :
    hop -> Messages.t Engine.ctx -> int -> int array -> Messages.color array ->
    unit;
      (** what [k] does with [(g, color)] when no red monitor it may
          visit is left; {!install}'s route declares the cut *)
}

val routed :
  Messages.t Engine.t ->
  n_app:int ->
  wcp_procs:int array ->
  net:Run_common.net ->
  ?recovery:Run_common.recovery ->
  ?check:(g:int array -> color:Messages.color array -> unit) ->
  stop:bool ->
  delta:bool ->
  outcome:Detection.outcome option ref ->
  hops:int ref ->
  snapshots:int ref ->
  route ->
  hop * (int -> monitors)
(** The monitors {!install} wires, under [route]: returns the run's
    {!hop} (for a leader that sends tokens of its own) and the start
    token injected at a spec index. *)

val detect :
  ?network:Network.t ->
  ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  ?invariant_checks:bool ->
  ?start_at:int ->
  ?options:Detection.options ->
  seed:int64 ->
  Computation.t ->
  Spec.t ->
  Detection.result
(** Replay the computation and run the detection protocol on top.

    [recorder] (default none) records the full causal trace of the run
    — snapshot arrivals, candidate advances, Fig. 3 eliminations with
    the witnessing vector-clock comparison, token hops, watchdog
    probes/regenerations — without perturbing the simulation (see
    {!Wcp_sim.Engine.create}).
    [invariant_checks] re-validates Lemma 3.1(1–3) against the recorded
    computation at every token processing step — an executable proof
    check (it reads the trace, so costs are not charged for it).

    [fault] (default none) runs the whole stack under deterministic
    chaos: all traffic rides the reliable transport, every token hop is
    watched by a {!Watchdog}, and a permanently crashed/unreachable
    peer yields [Undetectable_crashed] instead of a hang. Passing
    [Fault.none] is identical to omitting [fault]. When the plan has
    [Fault.Restart] windows the run additionally checkpoints each
    restarting monitor after every handled message (see
    {!Checkpoint}) and rebuilds it from the last checkpoint at window
    end, replaying unconsumed transport frames.

    [options] (default {!Detection.default_options}) bundles the
    per-run knobs shared by every detector. [options.delta] runs the
    wire-efficiency layer: snapshots ship hybrid delta/dense
    ({!Wire.encoded_stream}), token hops and application clock tags
    are charged their encoded size; with [delta = false] every payload
    and charge uses the dense formulas — the E16 baseline. The flag
    changes no message {e counts} and no RNG draws, so outcome,
    detected cut, hops and snapshot counts are identical across both
    settings; only [bits] differs. Snapshot streams are always
    interval-gated ({!Snapshot.vc_stream}). To detect on the
    computation slice, run the detector through
    {!Detectors.sliced}. *)
