(** The canonical event stream of a recorded run, and the event in it
    that completes a given cut.

    The stream order is the one [Slice.of_source] and the serve client
    use: round-robin over processes, each running until it blocks on a
    receive whose send has not been emitted yet. The library keeps
    that order private, so it is restated here. *)

open Wcp_trace

val linearize :
  Computation.Stream.source ->
  emit:(proc:int -> k:int -> op:Computation.op -> state:int -> unit) ->
  unit
(** Every event of the source once, in stream order. [k] is the
    event's 0-based index on its process and [state] the 1-based state
    it enters ([k + 2]).
    @raise Failure if some receive is never matched by a send. *)

type completing = {
  proc : int;
  state : int;  (** the cut state this event enters *)
  index : int;  (** 0-based position of the event in the stream *)
}

val completing_event : Computation.Stream.source -> Cut.t -> completing option
(** The stream event entering the cut state that appears last. Every
    state of the cut exists once that event has been fed, and not
    before, so the shortest stream prefix that holds the cut has
    [index + 1] events. [None] when every cut state is an initial
    state (the cut holds before any event). *)
