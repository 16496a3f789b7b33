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
    reordered freely. *)

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

type announce = Detection.outcome -> unit
(** Callback a monitor invokes exactly once to report the result and
    halt the simulation. *)

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

val reliable_net :
  ?rto:float ->
  ?backoff:float ->
  ?max_retries:int ->
  ?on_unreachable:(Messages.t Engine.ctx -> dst:int -> unit) ->
  Messages.t Engine.t ->
  net
(** All traffic rides one {!Wcp_sim.Transport} instance whose frames
    are embedded as {!Messages.Frame}: exactly-once FIFO delivery per
    link over a faulty network. [on_unreachable] fires when some flow
    exhausts its retries (a permanently crashed peer) — detectors use
    it to announce {!Detection.Undetectable_crashed}. *)

val reliable_net_transport :
  ?rto:float ->
  ?backoff:float ->
  ?max_retries:int ->
  ?max_unacked:int ->
  ?recovery:bool ->
  ?on_unreachable:(Messages.t Engine.ctx -> dst:int -> unit) ->
  Messages.t Engine.t ->
  net * Messages.t Wcp_sim.Transport.t
(** {!reliable_net}, but also hands back the transport itself so the
    crash-recovery layer can checkpoint flow state
    ({!Wcp_sim.Transport.export_state}) and drive the reconnect
    handshake after a [Fault.Restart]. [recovery] and [max_unacked] are
    passed through to {!Wcp_sim.Transport.create}. *)

(** {2 Crash-recovery wiring} *)

type recovery = {
  transport : Messages.t Wcp_sim.Transport.t;
      (** the run's reliable transport, created with [~recovery:true] *)
  restarts : Fault.window list;  (** the plan's [Restart] windows *)
  every : int;  (** capture after every [every]-th handled message *)
}

val wire_recovery :
  Messages.t Engine.t ->
  recovery ->
  owns:(int -> bool) ->
  capture:(int -> Checkpoint.algo * Checkpoint.wd_state option) ->
  restore:(Messages.t Engine.ctx -> Checkpoint.t -> unit) ->
  (int -> Messages.t Engine.ctx -> unit)
(** Wire checkpoint capture and deterministic restore for every
    [Restart] window whose proc satisfies [owns] (the detector's own
    monitor ids): seed an initial checkpoint per restarting proc,
    schedule a restore timer at each window's [until_t] (decode the
    stored checkpoint, hand it to [restore] for the algorithm and
    watchdog state, rebuild the transport flows, then run the
    {!Wcp_sim.Transport.reconnect} handshake), and return the
    capture hook the detector must call after {e every} handled
    monitor message — it encodes a fresh checkpoint every
    [every]-th message for restarting procs and no-ops for others.
    Checkpoints cross the capture/restore boundary only as encoded
    strings, so the codec itself is on the recovery path.
    @raise Invalid_argument if [every < 1]. *)

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
    processes (direct dependence, GCP). *)

val with_slice :
  ?recorder:Wcp_obs.Recorder.t ->
  keep_rest:bool ->
  Computation.t ->
  Spec.t ->
  run:(Computation.t -> Spec.t -> Detection.result) ->
  Detection.result
(** {!with_source} over {!Computation.Stream.of_computation}, so the
    dense and streamed paths agree cut-for-cut. Every
    [detect ?options] entry point with [options.slice = true] is this
    wrapper around its dense self. *)
