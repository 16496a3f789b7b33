(** Shared wiring for the online detection runs.

    Engine process layout for a computation with [N] application
    processes:
    - ids [0 .. N-1]: application processes (trace replay);
    - ids [N .. 2N-1]: monitor of application process [p] is [N + p];
    - id [2N]: the centralized checker (for the baseline) or the
      multi-token leader (§3.5); idle otherwise.

    The default network gives every link an independent uniform latency
    and makes exactly the application→monitor and application→checker
    links FIFO, as required by §3.1; monitor-to-monitor traffic may be
    reordered freely.

    Every piece the token detectors would otherwise each repeat lives
    here once: settling the verdict, the fault-mode wiring, monitor
    handlers with checkpointed crash recovery, the watchdog's probe
    answer, and the offline replay run, whose [app] argument is the
    one place the application side plugs in. *)

open Wcp_trace
open Wcp_sim

val monitor_of : n:int -> int -> int
(** [monitor_of ~n p = n + p]. *)

val extra_id : n:int -> int
(** [2n]: checker / leader id. *)

val default_network : n:int -> Network.t

val make_engine :
  ?network:Network.t -> ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t -> seed:int64 -> Computation.t ->
  Messages.t Engine.t
(** Engine with [2N + 1] processes and the default network. [fault]
    (default none) switches on deterministic fault injection; see
    {!Wcp_sim.Fault}. [recorder] (default none) attaches the causal
    trace recorder; see {!Wcp_sim.Engine.create}. *)

val make_engine_n :
  ?network:Network.t -> ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t -> seed:int64 -> n:int -> unit ->
  Messages.t Engine.t
(** Same, for live systems that have no recorded computation. *)

val emit_run_meta :
  Messages.t Engine.t -> algo:string -> n:int -> width:int -> unit
(** Emit the [Run_meta] prologue event — followed by the ["build"]
    phase mark opening the wiring/setup phase of the telemetry
    profile — if the engine has a recorder (no-op otherwise). Every
    detector calls this once before wiring. *)

type net = {
  send : Messages.t Engine.ctx -> bits:int -> dst:int -> Messages.t -> unit;
  set_handler :
    int -> (Messages.t Engine.ctx -> src:int -> Messages.t -> unit) -> unit;
}
(** A pluggable delivery substrate: protocol code sends and installs
    handlers through one of these, so the same algorithm runs either
    directly on the engine or through the reliable transport. *)

val raw_net : Messages.t Engine.t -> net
(** Plain {!Engine.send} / {!Engine.set_handler}; byte-for-byte the
    pre-robustness behaviour, used whenever no fault plan is active. *)

(** {2 What the token detectors share} *)

val declare :
  ?stop:bool ->
  Detection.outcome option ref ->
  Messages.t Engine.ctx ->
  Detection.outcome ->
  unit
(** Narrate a [Detected] or [No_detection] verdict to the engine's
    recorder, store the verdict in [outcome] unless one is already
    there and, when it is stored, halt the engine unless [stop] is
    [false] (live monitors let the application run on). *)

type monitors = {
  start_id : int;  (** engine id that holds the first token *)
  start_token : Messages.t Engine.ctx -> unit;
}

val start : Messages.t Engine.t -> monitors -> unit
(** Schedule [start_token] at [start_id] at time 0. *)

type recovery = {
  transport : Messages.t Wcp_sim.Transport.t;
      (** the run's reliable transport, created in recovery mode *)
  restarts : Fault.window list;  (** the plan's [Restart] windows *)
}

type faults = {
  net : net;
  watchdog : unit -> Watchdog.t option;
      (** a fresh token watchdog, or [None] without a fault plan *)
  recovery : recovery option;
}

val chaos_wiring :
  Messages.t Engine.t ->
  fault:Fault.plan option ->
  outcome:Detection.outcome option ref ->
  faults
(** The fault-mode wiring of a token run. No plan: {!raw_net}, no
    watchdogs, no recovery. A plan: every message rides one
    {!Wcp_sim.Transport} (exactly-once FIFO per link, frames embedded
    as {!Messages.Frame}), and a peer that exhausts its retries
    settles [outcome] as [Undetectable_crashed]. A plan with
    [Fault.Restart] windows also retains acked frames for replay,
    makes the watchdogs reprobe silent peers, and returns the
    {!recovery} bundle; other plans keep their pre-recovery
    schedules. *)

val install_monitors :
  Messages.t Engine.t ->
  net ->
  ?recovery:recovery ->
  'm array ->
  id:('m -> int) ->
  watchdog:('m -> Watchdog.t option) ->
  capture:('m -> Checkpoint.algo) ->
  restore:('m -> Checkpoint.algo -> unit) ->
  ('m -> Messages.t Engine.ctx -> src:int -> Messages.t -> unit) ->
  'm -> Messages.t Engine.ctx -> unit
(** Install [handle m] as the handler of each monitor [m] at engine id
    [id m]. With [recovery], every monitor in a [Restart] window is
    checkpointed before the run and after {e every} handled message:
    its [capture], its transport flows and the watchdog lease it armed
    itself. At the window's end it is rebuilt from the last
    checkpoint: [restore], the lease (unless a newer watch is live),
    the flows, then the {!Wcp_sim.Transport.reconnect} handshake.
    Checkpoints cross that boundary only as encoded strings, so the
    codec itself is on the recovery path. The returned function takes
    a checkpoint now (a no-op without [recovery] or for a monitor that
    never restarts); call it after injecting the start token. *)

val watchdog_message :
  ?watchdog:Watchdog.t ->
  Messages.t Engine.ctx ->
  src:int ->
  last_seq:int ->
  holding:bool ->
  Messages.t ->
  unit
(** The watchdog half of a monitor's handler. A [Wd_probe] for hop
    [seq] is answered with whether this monitor accepted that hop
    ([seq <= last_seq]) and whether it still holds it ([holding], for
    [seq = last_seq]); a [Wd_reply] goes to [watchdog].
    @raise Failure on any other message. *)

val replay :
  ?network:Network.t ->
  ?fault:Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  seed:int64 ->
  algo:string ->
  width:int ->
  Computation.t ->
  monitors:
    (Messages.t Engine.t ->
    faults ->
    outcome:Detection.outcome option ref ->
    monitors) ->
  app:(Messages.t Engine.t -> net -> unit) ->
  Detection.result
(** One offline token run: the engine, the [Run_meta] prologue, the
    fault wiring, then [monitors], then [app] (the application side —
    {!App_replay} of the recorded computation), then the start token,
    then {!finish}. A [Fault.none] plan is no plan. *)

val finish :
  ?fault:Fault.plan ->
  Messages.t Engine.t ->
  outcome:Detection.outcome option ref ->
  extras:Detection.extras ->
  Detection.result
(** Emit the ["detect"] phase mark (when a recorder is attached), then
    run the engine and assemble the result. If the event queue drains
    without any announcement and [fault] contains permanent crash
    windows, the result is [Undetectable_crashed] over those processes
    (graceful degradation).
    @raise Failure if the queue drains without an announcement and no
    permanent crash explains it (a protocol bug, surfaced loudly for
    the test suite). *)

val with_slicer :
  ?recorder:Wcp_obs.Recorder.t ->
  procs:int array ->
  (unit -> Wcp_slice.Slice.t) ->
  run:(Computation.t -> Spec.t -> Detection.result) ->
  Detection.result
(** The slice → detect → remap sequence every sliced detection shares:
    emit the ["slice"] phase mark into [recorder] (it legally precedes
    the inner run's [Run_meta] — slicing happens before any engine
    exists), build the slice, run the detector on it with [procs] as
    the spec, and remap the detected cut back to dense coordinates.
    The served batch sessions call it with their finished incremental
    builder, so a served cut is the offline cut by construction. *)

val with_source :
  ?recorder:Wcp_obs.Recorder.t ->
  keep_rest:bool ->
  Computation.Stream.source ->
  procs:int array ->
  run:(Computation.t -> Spec.t -> Detection.result) ->
  Detection.result
(** {!with_slicer} over {!Wcp_slice.Slice.for_spec_source}: the slice is
    built straight from a streaming cursor, so detection over an mmap'd
    {!Wcp_trace.Btrace} reader never materialises the dense run.
    [keep_rest] is [true] for the algorithms whose cuts span all [N]
    processes (direct dependence, GCP); for the six detectors it is
    {!Detectors.t}'s [keep_rest]. *)

val with_slice :
  ?recorder:Wcp_obs.Recorder.t ->
  keep_rest:bool ->
  Computation.t ->
  Spec.t ->
  run:(Computation.t -> Spec.t -> Detection.result) ->
  Detection.result
(** {!with_source} over {!Computation.Stream.of_computation}, so the
    dense and streamed paths agree cut-for-cut. {!Detectors.sliced} is
    this wrapper around a detector's run, with its row's
    [keep_rest]. *)
