open Wcp_trace
open Wcp_core
open Wcp_lowerbound

let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Detector against real computations                                  *)
(* ------------------------------------------------------------------ *)

let prop_detector_matches_oracle =
  qtest ~count:250 "queue-model detector = oracle satisfiability"
    Helpers.gen_medium_comp (fun comp ->
      let spec = Spec.all comp in
      let world = World.of_computation comp spec in
      let answer, _ = Detector.run world in
      match (answer, Oracle.first_cut comp spec) with
      | Detector.Antichain heads, Detection.Detected cut ->
          (* The surviving heads are exactly the first cut. *)
          Array.for_all2 ( = ) heads
            (Array.init (Cut.width cut) (fun k -> (Cut.state cut k).State.index))
      | Detector.No_antichain, Detection.No_detection -> true
      | _ -> false)

let prop_detector_deletion_budget =
  qtest ~count:150 "detector deletes at most all candidate states"
    Helpers.gen_medium_comp (fun comp ->
      let spec = Spec.all comp in
      let world = World.of_computation comp spec in
      let _, trace = Detector.run world in
      let total_candidates =
        Array.fold_left
          (fun acc p -> acc + List.length (Computation.candidates comp p))
          0 (Spec.procs spec)
      in
      trace.Detector.deletions <= total_candidates
      && trace.Detector.rounds <= total_candidates + 1)

(* ------------------------------------------------------------------ *)
(* Adversary forces Ω(nm)                                              *)
(* ------------------------------------------------------------------ *)

let test_adversary_forces_bound () =
  List.iter
    (fun (n, m) ->
      let world, stats = Adversary.make ~n ~m in
      let answer, trace = Detector.run world in
      (match answer with
      | Detector.No_antichain -> ()
      | Detector.Antichain _ ->
          Alcotest.failf "n=%d m=%d: adversary should never concede" n m);
      let forced = (n * m) - n + 1 in
      Alcotest.(check int)
        (Printf.sprintf "n=%d m=%d deletions" n m)
        forced trace.Detector.deletions;
      Alcotest.(check int) "adversary saw every deletion" forced
        stats.Adversary.deletions;
      (* One deletion per round: rounds >= nm - n. *)
      if trace.Detector.rounds < (n * m) - n then
        Alcotest.failf "n=%d m=%d: only %d rounds" n m trace.Detector.rounds)
    [ (2, 1); (2, 5); (3, 4); (4, 10); (8, 8); (16, 4); (5, 40) ]

let test_adversary_serializes () =
  (* The detector deletes one head per S2 against the adversary even
     though it is allowed to delete many. *)
  let world, _ = Adversary.make ~n:6 ~m:6 in
  let _, trace = Detector.run world in
  Alcotest.(check int) "rounds = deletions (one per round)"
    trace.Detector.deletions trace.Detector.rounds

let test_adversary_comparison_count () =
  let n = 5 and m = 4 in
  let world, stats = Adversary.make ~n ~m in
  let _, trace = Detector.run world in
  Alcotest.(check int) "n(n-1)/2 comparisons per round"
    (trace.Detector.rounds * (n * (n - 1) / 2))
    stats.Adversary.comparisons_answered

let test_adversary_rejects_cheating () =
  let world, _ = Adversary.make ~n:3 ~m:3 in
  (* Deleting a head the adversary has not declared dominated: queue 2
     is never the low queue initially. *)
  match world.World.delete_heads [ 2 ] with
  | exception Adversary.Cheating _ -> ()
  | () -> Alcotest.fail "unsound deletion must raise Cheating"

let test_adversary_rejects_bulk_deletion () =
  let world, _ = Adversary.make ~n:3 ~m:3 in
  match world.World.delete_heads [ 0; 1 ] with
  | exception Adversary.Cheating _ -> ()
  | () -> Alcotest.fail "parallel deletion must raise Cheating"

let test_adversary_validation () =
  (match Adversary.make ~n:1 ~m:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n=1 rejected");
  match Adversary.make ~n:3 ~m:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "m=0 rejected"

(* The elimination core that serves plays the same game. A candidate
   is a queue's head, (slot, head id) with state 1, and column k of its
   clock is 1 iff the world says slot k's head precedes it, so the
   core's happened-before test is one S1 query. Each elimination is an
   S2 deletion of the victim's head, after which the victim's next head
   is queued behind its slot. *)
let test_adversary_against_elimination () =
  List.iter
    (fun (n, m) ->
      let world, stats = Adversary.make ~n ~m in
      let clock (s, id) =
        if world.World.head_id s <> id then
          Alcotest.failf "n=%d m=%d: candidate %d is not slot %d's head" n m
            id s;
        Array.init n (fun k ->
            if
              k <> s
              && world.World.remaining k > 0
              && world.World.compare_heads k s = World.Precedes
            then 1
            else 0)
      in
      let core =
        Elimination.create ~columns:(Array.init n Fun.id)
          ~state:(fun _ -> 1)
          ~clock
      in
      let queue_head k =
        if world.World.remaining k > 0 then
          Elimination.push core k (k, world.World.head_id k)
      in
      let on_eliminate ~victim ~by:_ =
        world.World.delete_heads [ victim ];
        queue_head victim
      in
      for k = 0 to n - 1 do
        queue_head k
      done;
      (match Elimination.drive ~on_eliminate core with
      | _ -> ()
      | exception Adversary.Cheating msg ->
          Alcotest.failf "n=%d m=%d: %s" n m msg);
      Alcotest.(check int)
        (Printf.sprintf "n=%d m=%d deletions" n m)
        ((n * m) - n + 1)
        stats.Adversary.deletions;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d m=%d starved" n m)
        true
        (Elimination.starved core
           ~finished:(Array.init n (fun k -> world.World.remaining k = 0))))
    [ (2, 1); (2, 3); (3, 3); (4, 4); (6, 6); (8, 16); (16, 16) ]

let test_world_of_computation_heads () =
  let b = Builder.create ~n:2 in
  Builder.set_pred b ~proc:0 true;
  Builder.set_pred b ~proc:1 true;
  let m = Builder.send b ~src:0 ~dst:1 in
  Builder.recv b ~dst:1 m;
  Builder.set_pred b ~proc:1 true;
  let comp = Builder.finish b in
  let spec = Spec.all comp in
  let w = World.of_computation comp spec in
  Alcotest.(check int) "remaining 0" 1 (w.World.remaining 0);
  Alcotest.(check int) "remaining 1" 2 (w.World.remaining 1);
  Alcotest.(check int) "head id" 1 (w.World.head_id 1);
  (match w.World.compare_heads 0 1 with
  | World.Incomparable -> ()
  | _ -> Alcotest.fail "initial states are concurrent");
  w.World.delete_heads [ 1 ];
  Alcotest.(check int) "head advanced" 2 (w.World.head_id 1);
  match w.World.compare_heads 0 1 with
  | World.Precedes -> ()
  | _ -> Alcotest.fail "(0,1) precedes (1,2) via the message"

(* ------------------------------------------------------------------ *)
(* Alternative deletion policies                                       *)
(* ------------------------------------------------------------------ *)

let prop_policies_agree =
  qtest ~count:150 "every deletion policy reaches the same verdict"
    QCheck2.Gen.(pair Helpers.gen_medium_comp (int_range 0 1000))
    (fun (comp, pseed) ->
      let spec = Spec.all comp in
      let verdict policy =
        let world = World.of_computation comp spec in
        match Detector.run ~policy world with
        | Detector.Antichain heads, _ -> Some heads
        | Detector.No_antichain, _ -> None
      in
      let greedy = verdict Detector.Greedy in
      let sequential = verdict Detector.One_at_a_time in
      let random =
        verdict
          (Detector.Random_subset (Wcp_util.Rng.create (Int64.of_int pseed)))
      in
      greedy = sequential && greedy = random)

let test_policies_against_adversary () =
  List.iter
    (fun (name, policy) ->
      let world, _ = Adversary.make ~n:6 ~m:8 in
      let answer, trace = Detector.run ~policy world in
      (match answer with
      | Detector.No_antichain -> ()
      | Detector.Antichain _ -> Alcotest.failf "%s: adversary conceded" name);
      let bound = (6 * 8) - 6 in
      if trace.Detector.deletions < bound then
        Alcotest.failf "%s: only %d deletions (< %d)" name
          trace.Detector.deletions bound)
    [
      ("greedy", Detector.Greedy);
      ("one-at-a-time", Detector.One_at_a_time);
      ("random", Detector.Random_subset (Wcp_util.Rng.create 4L));
    ]

let test_sequential_costs_more_rounds () =
  (* On a real computation the greedy policy can delete several heads
     per round; one-at-a-time never can, so it needs at least as many
     rounds. *)
  let comp = Helpers.build_comp (5, 10, 60, 50, 12) in
  let spec = Spec.all comp in
  let _, greedy = Detector.run ~policy:Detector.Greedy (World.of_computation comp spec) in
  let _, seq =
    Detector.run ~policy:Detector.One_at_a_time (World.of_computation comp spec)
  in
  Alcotest.(check bool) "sequential rounds >= greedy rounds" true
    (seq.Detector.rounds >= greedy.Detector.rounds);
  Alcotest.(check int) "same total deletions" greedy.Detector.deletions
    seq.Detector.deletions

let () =
  Alcotest.run "lowerbound"
    [
      ( "detector",
        [ prop_detector_matches_oracle; prop_detector_deletion_budget ] );
      ( "adversary",
        [
          Alcotest.test_case "forces nm - n + 1 deletions" `Quick
            test_adversary_forces_bound;
          Alcotest.test_case "serializes deletions" `Quick
            test_adversary_serializes;
          Alcotest.test_case "comparison count" `Quick
            test_adversary_comparison_count;
          Alcotest.test_case "rejects cheating" `Quick
            test_adversary_rejects_cheating;
          Alcotest.test_case "rejects bulk deletion" `Quick
            test_adversary_rejects_bulk_deletion;
          Alcotest.test_case "validation" `Quick test_adversary_validation;
          Alcotest.test_case "elimination core forced to nm - n + 1" `Quick
            test_adversary_against_elimination;
        ] );
      ( "world",
        [ Alcotest.test_case "computation heads" `Quick
            test_world_of_computation_heads ] );
      ( "policies",
        [
          prop_policies_agree;
          Alcotest.test_case "all forced by the adversary" `Quick
            test_policies_against_adversary;
          Alcotest.test_case "sequential needs more rounds" `Quick
            test_sequential_costs_more_rounds;
        ] );
    ]
