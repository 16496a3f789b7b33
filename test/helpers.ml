(* Shared generators and utilities for the test suites. *)

open Wcp_trace

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A random computation described by a compact tuple so qcheck can
   generate and print it: (n, sends_per_process, pred%, recv%, seed). *)
type comp_params = int * int * int * int * int

let gen_comp_params ~max_n ~max_sends : comp_params QCheck2.Gen.t =
  QCheck2.Gen.(
    tup5 (int_range 2 max_n) (int_range 0 max_sends) (int_range 0 100)
      (int_range 10 90) (int_range 0 1_000_000))

let build_comp ((n, sends, pred_pct, recv_pct, seed) : comp_params) =
  Generator.random
    ~params:
      {
        Generator.n;
        sends_per_process = sends;
        p_pred = float_of_int pred_pct /. 100.;
        p_recv = float_of_int recv_pct /. 100.;
      }
    ~seed:(Int64.of_int seed) ()

let gen_small_comp = QCheck2.Gen.map build_comp (gen_comp_params ~max_n:4 ~max_sends:5)

let gen_medium_comp =
  QCheck2.Gen.map build_comp (gen_comp_params ~max_n:6 ~max_sends:12)

(* All (proc, state) pairs of a computation. *)
let all_states comp =
  List.concat
    (List.init (Computation.n comp) (fun p ->
         List.init (Computation.num_states comp p) (fun k ->
             State.make ~proc:p ~index:(k + 1))))

(* A deterministic pseudo-random full-width cut of a computation. *)
let random_full_cut comp seed =
  let rng = Wcp_util.Rng.create (Int64.of_int seed) in
  Array.init (Computation.n comp) (fun p ->
      1 + Wcp_util.Rng.int rng (Computation.num_states comp p))

let outcome = Alcotest.testable Wcp_core.Detection.pp_outcome
    Wcp_core.Detection.outcome_equal

(* Whether [sub] occurs in [s]. *)
let contains s sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false
