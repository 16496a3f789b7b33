open Wcp_trace
open Wcp_sim
open Wcp_core

let qtest = Helpers.qtest

let gen_with_spec =
  QCheck2.Gen.(
    pair (Helpers.gen_comp_params ~max_n:6 ~max_sends:10) (int_range 0 10_000))

let make (params, sseed) =
  let comp = Helpers.build_comp params in
  let rng = Wcp_util.Rng.create (Int64.of_int sseed) in
  let width = 1 + Wcp_util.Rng.int rng (Computation.n comp) in
  let procs = Generator.random_procs rng ~n:(Computation.n comp) ~width in
  (comp, Spec.make comp procs, Int64.of_int sseed)

(* ------------------------------------------------------------------ *)
(* Centralized checker                                                 *)
(* ------------------------------------------------------------------ *)

let prop_checker_agreement =
  qtest ~count:250 "checker finds the oracle's first cut" gen_with_spec
    (fun input ->
      let comp, spec, seed = make input in
      let r = Checker_centralized.detect ~seed comp spec in
      Detection.outcome_equal r.outcome (Oracle.first_cut comp spec))

let prop_checker_centralizes_cost =
  qtest ~count:100 "all detection work and space land on the checker"
    gen_with_spec (fun input ->
      let comp, spec, seed = make input in
      let r = Checker_centralized.detect ~seed comp spec in
      let n = Computation.n comp in
      let ok = ref true in
      for p = 0 to n - 1 do
        let mon = Run_common.monitor_of ~n p in
        if Stats.work_of r.stats mon <> 0 then ok := false;
        if Stats.space_high_water r.stats mon <> 0 then ok := false
      done;
      !ok)

let prop_checker_space_bound =
  qtest ~count:100 "checker space within O(n²m) words" gen_with_spec
    (fun input ->
      let comp, spec, seed = make input in
      let r = Checker_centralized.detect ~seed comp spec in
      let n = Computation.n comp in
      let width = Spec.width spec in
      let m = Computation.max_events_per_process comp in
      Stats.space_high_water r.stats (Run_common.extra_id ~n)
      <= width * (m + 1) * (width + 1))

let prop_checker_determinism =
  qtest ~count:40 "identical seeds give identical runs" gen_with_spec
    (fun input ->
      let comp, spec, seed = make input in
      let a = Checker_centralized.detect ~seed comp spec in
      let b = Checker_centralized.detect ~seed comp spec in
      Detection.outcome_equal a.outcome b.outcome
      && a.sim_time = b.sim_time && a.events = b.events)

let test_checker_edge_cases () =
  let never = Helpers.build_comp (4, 6, 0, 50, 1) in
  let r = Checker_centralized.detect ~seed:1L never (Spec.all never) in
  Alcotest.check Helpers.outcome "never true" Detection.No_detection r.outcome;
  let always = Helpers.build_comp (4, 6, 100, 50, 2) in
  match (Checker_centralized.detect ~seed:2L always (Spec.all always)).outcome with
  | Detection.Detected cut ->
      Alcotest.(check string) "always true" "{0:1 1:1 2:1 3:1}"
        (Cut.to_string cut)
  | Detection.No_detection | Detection.Undetectable_crashed _ ->
      Alcotest.fail "expected detection"

let test_checker_workloads () =
  List.iter
    (fun w ->
      let spec = Spec.make w.Workloads.comp w.Workloads.procs in
      let r = Checker_centralized.detect ~seed:5L w.Workloads.comp spec in
      Alcotest.check Helpers.outcome w.Workloads.name
        (Oracle.first_cut w.Workloads.comp spec)
        r.outcome)
    (Workloads.all ~seed:777L)

(* ------------------------------------------------------------------ *)
(* Multi-token                                                         *)
(* ------------------------------------------------------------------ *)

let prop_multi_agreement_all_group_counts =
  qtest ~count:120 "multi-token agrees with the oracle for every g"
    gen_with_spec (fun input ->
      let comp, spec, seed = make input in
      let expected = Oracle.first_cut comp spec in
      let width = Spec.width spec in
      List.for_all
        (fun groups ->
          let r = Token_multi.detect ~groups ~seed comp spec in
          Detection.outcome_equal r.outcome expected)
        (List.filter (fun g -> g <= width) [ 1; 2; 3; width ]))

let prop_multi_assignment_agnostic =
  qtest ~count:80 "round-robin and block assignments agree" gen_with_spec
    (fun input ->
      let comp, spec, seed = make input in
      let expected = Oracle.first_cut comp spec in
      let groups = min 3 (Spec.width spec) in
      List.for_all
        (fun assignment ->
          let r = Token_multi.detect ~assignment ~groups ~seed comp spec in
          Detection.outcome_equal r.outcome expected)
        [ Token_multi.Round_robin; Token_multi.Blocks ])

let prop_multi_merges_counted =
  qtest ~count:60 "at least one merge round happens" gen_with_spec
    (fun input ->
      let comp, spec, seed = make input in
      let groups = min 2 (Spec.width spec) in
      let r = Token_multi.detect ~groups ~seed comp spec in
      r.extras.merges >= 1)

let prop_multi_determinism =
  qtest ~count:40 "identical seeds give identical runs" gen_with_spec
    (fun input ->
      let comp, spec, seed = make input in
      let groups = min 3 (Spec.width spec) in
      let a = Token_multi.detect ~groups ~seed comp spec in
      let b = Token_multi.detect ~groups ~seed comp spec in
      Detection.outcome_equal a.outcome b.outcome
      && a.sim_time = b.sim_time && a.extras.token_hops = b.extras.token_hops)

let test_multi_group_bounds () =
  let comp = Helpers.build_comp (4, 6, 50, 50, 3) in
  let spec = Spec.all comp in
  (match Token_multi.detect ~groups:0 ~seed:1L comp spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "groups=0 should be rejected");
  match Token_multi.detect ~groups:5 ~seed:1L comp spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "groups>width should be rejected"

let test_multi_edge_cases () =
  let never = Helpers.build_comp (4, 6, 0, 50, 1) in
  let r = Token_multi.detect ~groups:2 ~seed:1L never (Spec.all never) in
  Alcotest.check Helpers.outcome "never true" Detection.No_detection r.outcome;
  let always = Helpers.build_comp (4, 6, 100, 50, 2) in
  match
    (Token_multi.detect ~groups:4 ~seed:2L always (Spec.all always)).outcome
  with
  | Detection.Detected cut ->
      Alcotest.(check string) "always true, one group per monitor"
        "{0:1 1:1 2:1 3:1}" (Cut.to_string cut)
  | Detection.No_detection | Detection.Undetectable_crashed _ ->
      Alcotest.fail "expected detection"

let test_multi_workloads () =
  List.iter
    (fun w ->
      let spec = Spec.make w.Workloads.comp w.Workloads.procs in
      let groups = min 2 (Spec.width spec) in
      let r = Token_multi.detect ~groups ~seed:5L w.Workloads.comp spec in
      Alcotest.check Helpers.outcome w.Workloads.name
        (Oracle.first_cut w.Workloads.comp spec)
        r.outcome)
    (Workloads.all ~seed:999L)

(* ------------------------------------------------------------------ *)
(* The elimination core alone                                          *)
(* ------------------------------------------------------------------ *)

(* Every predicate-true state of the spec's processes is offered with
   its dense clock, in state order within a slot but in a random
   interleaving across slots, and the core is driven after each offer
   (to a fixed point: a second drive fills nothing). The states
   standing the first time every slot is filled are the oracle's first
   cut, whatever the interleaving. *)
let prop_elimination_interleavings =
  qtest ~count:250 "elimination: any interleaving yields the first cut"
    gen_with_spec (fun input ->
      let comp, spec, seed = make input in
      let procs = Spec.procs spec in
      let el = Elimination.create ~columns:procs ~state:fst ~clock:snd in
      let pending =
        Array.map
          (fun p ->
            List.map
              (fun s ->
                ( s,
                  Wcp_clocks.Vector_clock.to_array
                    (Computation.vc comp (State.make ~proc:p ~index:s)) ))
              (Computation.candidates comp p))
          procs
      in
      let rng = Wcp_util.Rng.create seed in
      let rec offer () =
        if Elimination.full el then
          Detection.Detected (Cut.make ~procs ~states:(Elimination.states el))
        else
          match
            List.filter
              (fun k -> pending.(k) <> [])
              (List.init (Array.length procs) Fun.id)
          with
          | [] -> Detection.No_detection
          | live ->
              let k = List.nth live (Wcp_util.Rng.int rng (List.length live)) in
              Elimination.push el k (List.hd pending.(k));
              pending.(k) <- List.tl pending.(k);
              ignore (Elimination.drive el : int);
              if Elimination.drive el <> 0 then
                QCheck2.Test.fail_report "drive stopped short of a fixed point";
              offer ()
      in
      Detection.outcome_equal (offer ()) (Oracle.first_cut comp spec))

(* ------------------------------------------------------------------ *)
(* Cross-algorithm: every detector finds the same answer                *)
(* ------------------------------------------------------------------ *)

let prop_all_algorithms_agree =
  qtest ~count:120 "every detector in the table returns the first cut"
    gen_with_spec (fun input ->
      let comp, spec, seed = make input in
      let expected = Oracle.first_cut comp spec in
      List.for_all
        (fun (d : Detectors.t) ->
          let r =
            d.run ~options:Detection.default_options ~groups:2 ~seed comp spec
          in
          Detection.outcome_equal expected
            (Detectors.spec_outcome d spec r.Detection.outcome))
        Detectors.all)

let () =
  Alcotest.run "checker_multi"
    [
      ( "checker",
        [
          prop_checker_agreement;
          prop_checker_centralizes_cost;
          prop_checker_space_bound;
          prop_checker_determinism;
          Alcotest.test_case "edge cases" `Quick test_checker_edge_cases;
          Alcotest.test_case "workloads" `Quick test_checker_workloads;
        ] );
      ( "multi-token",
        [
          prop_multi_agreement_all_group_counts;
          prop_multi_assignment_agnostic;
          prop_multi_merges_counted;
          prop_multi_determinism;
          Alcotest.test_case "group bounds" `Quick test_multi_group_bounds;
          Alcotest.test_case "edge cases" `Quick test_multi_edge_cases;
          Alcotest.test_case "workloads" `Quick test_multi_workloads;
        ] );
      ("elimination", [ prop_elimination_interleavings ]);
      ("cross-algorithm", [ prop_all_algorithms_agree ]);
    ]
