(** Detection of arbitrary boolean predicates over local primitives.

    The paper restricts itself to conjunctions because "any boolean
    predicate can be detected using an algorithm that detects
    conjunctive predicates [7]" (§2). This module implements that
    reduction: a propositional formula over {e local primitives}
    (per-process state predicates) is normalised to DNF — negation is
    harmless because the negation of a local predicate is still local —
    and each disjunct, being a conjunction of local predicates, is
    handed to the WCP machinery. [Possibly(φ)] holds iff some disjunct
    is detectable.

    Note the caveat inherited from the reduction: across {e different}
    disjuncts there is no single "first cut" (the union of the
    disjuncts' satisfying-cut lattices is not meet-closed), so the
    verdict reports the first cut {e per satisfiable disjunct}. *)

open Wcp_trace

type expr

(** {2 Building formulas} *)

val prim : proc:int -> name:string -> holds:(int -> bool) -> expr
(** A local primitive: [holds k] decides the predicate in state [k]
    (1-based) of process [proc]. *)

val of_recorded_pred : Computation.t -> proc:int -> expr
(** The local predicate already recorded in the computation's flags
    for [proc] (the one the plain WCP machinery uses). *)

val const : bool -> expr

val not_ : expr -> expr

val and_ : expr list -> expr

val or_ : expr list -> expr

val pp : Format.formatter -> expr -> unit

(** {2 Normalisation} *)

type literal = {
  lit_proc : int;
  lit_name : string;
  lit_holds : int -> bool;  (** with negation already folded in *)
}

val dnf : ?max_disjuncts:int -> expr -> literal list list
(** Disjunctive normal form: a list of conjunctions of literals. The
    empty outer list is [false]; an empty inner list is [true].
    @raise Invalid_argument when the DNF exceeds [max_disjuncts]
    (default 512). *)

(** {2 Detection} *)

type disjunct_result = {
  index : int;  (** position in the DNF *)
  procs : int array;  (** processes the disjunct constrains *)
  first_cut : Cut.t option;  (** [None]: this disjunct is unsatisfiable *)
}

type verdict = {
  possibly : bool;  (** some consistent cut satisfies the formula *)
  disjuncts : disjunct_result list;
}

val eval : expr -> Computation.t -> Cut.t -> bool
(** Truth of the formula at a full-width consistent cut. *)

val detect : ?max_disjuncts:int -> Computation.t -> expr -> verdict
(** Run the WCP oracle on every DNF disjunct.
    @raise Invalid_argument on primitives naming unknown processes or
    on DNF blow-up. *)

val detect_online :
  ?max_disjuncts:int ->
  seed:int64 ->
  Computation.t ->
  expr ->
  verdict
(** The same verdict computed by the {e distributed} machinery: each
    disjunct's conjunction becomes the local-predicate flags of a
    reflagged computation ({!Computation.reflag}) and is detected by a
    full {!Token_vc} run on the simulator. Equal to {!detect} (asserted
    by the test suite); exists to demonstrate that the §2 reduction
    really does hand arbitrary boolean predicates to the paper's
    distributed algorithms unchanged. *)
