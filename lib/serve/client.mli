(** wcp-serve/1 client: stream a computation to a running detection
    service and collect the result — the library behind
    [wcpdetect feed] and the loopback tests/benches.

    The event order is the {e canonical linearization}
    ({!Wcp_trace.Computation.Stream.walk}): round-robin over
    processes, each blocking on its next receive until the matching
    send has been emitted — the walk [Slice.of_source] feeds the
    offline slicer from, so the server's incremental slice (and hence
    the served cut) is identical to the offline one by construction.
    Because the order is deterministic, reconnecting is just replaying
    it and skipping the [welcome.acked] prefix the server already
    holds. *)

open Wcp_trace

type outcome = {
  outcome : string;  (** [Detection.pp_outcome] rendering *)
  events : int;
  msgs : int;
  bits : int;
  hops : int;
  lat_ns : int;
}

type verdict =
  | Completed of outcome
  | Killed of int
      (** [kill_after] tripped: the connection was dropped abruptly
          after this many events had been sent on it (no finish) *)

val run_session :
  ?frames:Protocol.frames ->
  ?batch:int ->
  ?rate:float ->
  ?kill_after:int ->
  ?retry:float ->
  ?metrics_every:float ->
  ?on_metrics:(string -> unit) ->
  ?groups:int ->
  addr:Protocol.addr ->
  session:string ->
  algo:string ->
  procs:int array ->
  seed:int64 ->
  Computation.Stream.source ->
  (verdict, string) result
(** Stream the whole source and wait for the result.

    [frames] (default [Binary]) picks the wire encoding; [batch]
    (default 1024) the events per frame / per write. [rate] caps the
    send rate in events/second (0 = unlimited, the default). [retry]
    keeps retrying for that many seconds the initial connect (for
    racing a server that is still binding) and a {!Protocol.session_busy}
    refusal (for a reconnect racing the server's reaping of the dead
    previous connection). [kill_after k] drops the
    connection after [k] events — the reconnect test's first act.
    [metrics_every] asks the server for wcp-metrics/1 lines at that
    sim-time cadence, delivered to [on_metrics]. Credit lines are
    drained (and the advisory window ignored — the server sheds to
    disk, which is exactly what the slow-client bench arm measures).
    Errors (connection refused, server [error] line, early EOF) come
    back as [Error message]. So does a source the walk refuses, in
    [detect --stream]'s words (["btrace: ..."] for a {!Btrace.Corrupt}
    cursor, ["invalid computation: ..."] for a causally unsound run);
    its session is left as a killed client leaves it. *)

(** {2 Watching}

    A [watch] connection receives the server's raw wcp-metrics/1
    broadcast — every session's telemetry — newline-delimited;
    [wcpdetect top --follow] renders it live. *)

type watch

val watch : ?retry:float -> Protocol.addr -> watch

val watch_poll : watch -> timeout:float -> [ `Lines of string list | `Eof ]
(** Complete lines received within [timeout] seconds ([`Lines []] on
    a quiet interval). *)

val watch_close : watch -> unit
