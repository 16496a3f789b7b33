(** The centralized checker baseline (Garg–Waldecker [7]).

    Every spec process sends its Fig. 2 local snapshots over a FIFO
    channel to a single checker process, which runs the advance-the-cut
    algorithm online: it queues each arriving snapshot in
    {!Elimination}, which keeps one candidate per process and
    eliminates any candidate that happened before another (comparing
    the O(n) vector clocks); detection is declared when the [n]
    candidates are pairwise concurrent.

    This is the algorithm the paper improves on: total work is the same
    [O(n²m)], but {e all} of it — and [O(n²m)] buffer space — lands on
    the one checker process (engine id [2N]), which is what experiment
    E2 measures against the token algorithm's [O(nm)] per-process
    bounds. {!run} is the checker process itself, shared with the GCP
    checker ({!Checker_gcp}). *)

open Wcp_trace
open Wcp_sim

val detect :
  ?network:Network.t -> ?recorder:Wcp_obs.Recorder.t ->
  ?options:Detection.options ->
  seed:int64 -> Computation.t -> Spec.t -> Detection.result
(** [recorder] (default none) records snapshot arrivals and every
    happened-before elimination with both candidates' vector clocks;
    see {!Wcp_sim.Engine.create}. [options] as in {!Token_vc.detect}:
    the wire encoding ([delta]) changes bits only, never detection
    behaviour. The application side is {!App_replay.vc}, the token
    detectors' own, with the checker as every snapshot's
    destination. *)

val run :
  ?network:Network.t ->
  ?recorder:Wcp_obs.Recorder.t ->
  seed:int64 ->
  algo:string ->
  procs:int array ->
  words:int ->
  state:('a -> int) ->
  clock:('a -> int array) ->
  decode:(int -> Messages.t -> 'a) ->
  app:(Messages.t Engine.t -> Run_common.net -> unit) ->
  ?on_full:(Messages.t Engine.ctx -> 'a Elimination.t -> bool) ->
  Computation.t ->
  Detection.result
(** One checker run: an engine whose checker process (engine id [2N])
    gets one slot per entry of [procs] (strictly increasing processes)
    and an {!Elimination} over candidates whose [clock] column [k]
    belongs to slot [k]. [app] wires the application replay over
    {!Run_common.raw_net}; it must send each process's snapshots and a
    final [App_done] to the checker; [decode k msg] turns a snapshot from slot [k]'s process
    into a candidate. Per arrival the checker narrates
    [Snapshot_arrived], queues the candidate and notes [words] per
    queued candidate as its space; each fill costs [width] work units,
    and each elimination is narrated as [Hb_eliminated]. At a full
    cut, [on_full] (default: none) may eliminate a candidate by a rule
    of its own and return [true]; otherwise the cut is [Detected]. A
    slot left empty with nothing more to come is [No_detection].
    [algo] names the run in its [Run_meta]. *)
