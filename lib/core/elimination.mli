(** Garg–Waldecker queue elimination [7]: the advance-the-cut rule of
    the centralized checker, its GCP extension ({!Checker_gcp}) and
    the streaming service's online sessions.

    Slot [k] holds at most one standing candidate and a FIFO queue of
    later candidates behind it. Candidate [a] of slot [k] happened
    before candidate [b] iff [(clock b).(columns.(k)) >= state a].
    After every {!drive} the standing candidates are pairwise
    concurrent and every empty slot has an empty queue. Offered in
    state order per slot, the candidates standing the first time every
    slot is filled form the least satisfying cut — the oracle's first
    cut. *)

type 'a t

val create :
  columns:int array -> state:('a -> int) -> clock:('a -> int array) -> 'a t
(** One slot per entry of [columns], which maps a slot to the clock
    column holding its process: the identity for width-projected or
    full clocks, the spec's processes for dense clocks. [state] and
    [clock] read a candidate's state index and vector clock. *)

val push : 'a t -> int -> 'a -> unit
(** Queue a candidate behind slot [k]'s earlier ones. *)

val drive : ?on_eliminate:(victim:int -> by:int -> unit) -> 'a t -> int
(** Fill every empty slot with a queued candidate, in slot order 0..w−1,
    and repeat the pass until one fills nothing. A fresh candidate is
    compared with every standing one in slot order: if the standing
    candidate saw it, the fresh one dies; otherwise, if it saw the
    standing one, that one dies. [on_eliminate] runs before each drop,
    while both candidates still stand. Returns the number of fills. *)

val candidate : 'a t -> int -> 'a option
(** Slot [k]'s standing candidate. *)

val eliminate : 'a t -> int -> unit
(** Drop slot [k]'s standing candidate (a rule other than happened
    before, such as a GCP channel predicate, ruled it out).
    @raise Invalid_argument if the slot is empty. *)

val full : 'a t -> bool
(** Every slot has a standing candidate. *)

val starved : 'a t -> finished:bool array -> bool
(** Some slot is empty, has nothing queued and will receive nothing
    more ([finished]): no satisfying cut remains. *)

val states : 'a t -> int array
(** The standing candidates' states, slot by slot.
    @raise Invalid_argument unless {!full}. *)
