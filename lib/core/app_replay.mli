(** Application-process replay driver.

    Re-executes a recorded computation inside the discrete-event
    engine: each application process performs its sends and receives in
    trace order (buffering out-of-order arrivals, since application
    channels are not FIFO) and emits its local snapshots at the moment
    it enters each snapshot-bearing state, followed by a final
    [App_done] marker. Think-time between operations is sampled from
    the engine's PRNG so different seeds exercise different timings of
    the {e same} causal structure.

    The monitors therefore observe exactly what they would observe
    watching the original run live; they never look inside the recorded
    computation. *)

open Wcp_trace
open Wcp_sim

val install :
  Messages.t Engine.t ->
  Computation.t ->
  net:Run_common.net ->
  ?app_bits:(int -> int) ->
  snapshots:(int -> (int * Messages.t) list) ->
  snapshot_dst:(int -> int option) ->
  spec_width:int ->
  unit ->
  unit
(** [snapshots p] lists, for application process [p], the snapshot
    message to emit upon entering each listed state (ascending state
    order). [snapshot_dst p] is the engine id receiving [p]'s snapshots
    and final [App_done], or [None] if [p] reports to nobody.
    [spec_width] sizes the clock tag charged on application messages;
    [app_bits] (default the dense [Messages.bits] formula) overrides
    the per-message charge by id — used to price delta-encoded clock
    tags from a {!Wire.app_tag_plan}. The mean think time before each
    send is 0.3.

    [net] carries all application traffic ({!Run_common.raw_net}, or
    under a fault plan the reliable transport, without which a dropped
    application message would deadlock the script). *)

val vc :
  delta:bool ->
  dst:(int -> int) ->
  Computation.t ->
  Spec.t ->
  Messages.t Engine.t ->
  Run_common.net ->
  unit
(** The vc-family application side (Fig. 2): {!install} of each spec
    process [p]'s gated snapshot stream ({!Wire.encoded_stream}), sent
    with its [App_done] to [dst p]; the other processes report to
    nobody. With [delta], snapshots ship hybrid-encoded and
    application clock tags are charged their encoded size
    ({!Wire.replay_app_bits}); without it every charge is dense. The
    token detectors send to the monitors, the checker to itself. *)
