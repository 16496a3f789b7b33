(* Coverage for the cross-cutting plumbing: Detection outcomes and
   printers, Messages size accounting and printers, Run_common's
   engine layout and FIFO policy, and Spec projection. *)

open Wcp_trace
open Wcp_sim
open Wcp_core

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let cut procs states = Cut.make ~procs ~states

let test_outcome_equal () =
  let a = Detection.Detected (cut [| 0; 1 |] [| 1; 2 |]) in
  let b = Detection.Detected (cut [| 0; 1 |] [| 1; 2 |]) in
  let c = Detection.Detected (cut [| 0; 1 |] [| 2; 2 |]) in
  Alcotest.(check bool) "equal" true (Detection.outcome_equal a b);
  Alcotest.(check bool) "different states" false (Detection.outcome_equal a c);
  Alcotest.(check bool) "detected vs none" false
    (Detection.outcome_equal a Detection.No_detection);
  Alcotest.(check bool) "none vs none" true
    (Detection.outcome_equal Detection.No_detection Detection.No_detection)

let test_project_outcome () =
  let comp = Helpers.build_comp (4, 4, 50, 50, 1) in
  let spec = Spec.make comp [| 1; 3 |] in
  let full = Detection.Detected (cut [| 0; 1; 2; 3 |] [| 1; 2; 3; 4 |]) in
  (match Detection.project_outcome spec full with
  | Detection.Detected c ->
      Alcotest.(check string) "projection keeps spec entries" "{1:2 3:4}"
        (Cut.to_string c)
  | Detection.No_detection | Detection.Undetectable_crashed _ ->
      Alcotest.fail "projection lost the cut");
  (match Detection.project_outcome spec Detection.No_detection with
  | Detection.No_detection -> ()
  | _ -> Alcotest.fail "projection must preserve No_detection");
  (* Projecting a cut that misses a spec process is a programming
     error. *)
  let narrow = Detection.Detected (cut [| 0; 2 |] [| 1; 1 |]) in
  match Detection.project_outcome spec narrow with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing spec process should be rejected"

let test_pp_outcome () =
  Alcotest.(check string) "detected"
    "detected {0:3 2:1}"
    (Format.asprintf "%a" Detection.pp_outcome
       (Detection.Detected (cut [| 0; 2 |] [| 3; 1 |])));
  Alcotest.(check string) "none" "no detection"
    (Format.asprintf "%a" Detection.pp_outcome Detection.No_detection)

let test_pp_result () =
  let comp = Helpers.build_comp (3, 4, 60, 50, 2) in
  let spec = Spec.all comp in
  let r = Token_vc.detect ~seed:2L comp spec in
  let text = Format.asprintf "%a" Detection.pp_result r in
  List.iter
    (fun fragment ->
      if
        not
          (try
             ignore (Str.search_forward (Str.regexp_string fragment) text 0);
             true
           with Not_found -> false)
      then Alcotest.failf "pp_result missing %S in %S" fragment text)
    [ "msgs="; "bits="; "work="; "hops="; "t=" ]

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

let test_bits_accounting () =
  let check what expect msg =
    Alcotest.(check int) what expect (Messages.bits ~spec_width:3 msg)
  in
  check "app replay: payload + 3-word tag" (32 * 4)
    (Messages.App_msg { msg_id = 0 });
  check "vc snapshot: clock + state" (32 * 4)
    (Messages.Snap_vc { Snapshot.state = 1; clock = [| 1; 0; 0 |] });
  check "dd snapshot: 1 + 2 deps words" (32 * 5)
    (Messages.Snap_dd
       {
         Snapshot.state = 2;
         deps = [ { Wcp_clocks.Dependence.src = 0; clock = 1 };
                  { Wcp_clocks.Dependence.src = 1; clock = 1 } ];
       });
  check "token: G + colors" (32 * 6)
    (Messages.Vc_token
       { seq = 1; g = [| 0; 0; 0 |];
         color = [| Messages.Red; Messages.Red; Messages.Red |] });
  check "empty dd token" 32 (Messages.Dd_token { seq = 1 });
  check "poll: 2 words" 64 (Messages.Poll { clock = 5; next_red = Some 2 });
  check "poll reply: 1 bit" 1 (Messages.Poll_reply { became_red = true });
  check "gcp snapshot: 1 + clock + counts" (32 * 6)
    (Messages.Snap_gcp { state = 1; clock = [| 1; 0; 0 |]; counts = [| 0; 1 |] });
  check "live app data: 2 words + dd tag" (32 * 3)
    (Messages.App_data
       { tag = Messages.Dd_tag { src = 0; clock = 1 }; kind = 0; data = 0 });
  check "live app data: 2 words + vc tag" (32 * 5)
    (Messages.App_data { tag = Messages.Vc_tag [| 1; 2; 3 |]; kind = 0; data = 0 })

let test_messages_pp () =
  let show m = Format.asprintf "%a" Messages.pp m in
  Alcotest.(check string) "app" "app#7" (show (Messages.App_msg { msg_id = 7 }));
  Alcotest.(check string) "snap-vc" "snap-vc@3"
    (show (Messages.Snap_vc { Snapshot.state = 3; clock = [| 3 |] }));
  Alcotest.(check string) "dd token" "dd-token" (show (Messages.Dd_token { seq = 1 }));
  Alcotest.(check string) "poll" "poll(4,2)"
    (show (Messages.Poll { clock = 4; next_red = Some 2 }));
  Alcotest.(check string) "poll end" "poll(4,-)"
    (show (Messages.Poll { clock = 4; next_red = None }));
  Alcotest.(check string) "token"
    "token[1G 0R]"
    (show
       (Messages.Vc_token
          { seq = 1; g = [| 1; 0 |];
            color = [| Messages.Green; Messages.Red |] }))

(* ------------------------------------------------------------------ *)
(* Run_common                                                          *)
(* ------------------------------------------------------------------ *)

let test_layout () =
  Alcotest.(check int) "monitor of 3 in n=5" 8 (Run_common.monitor_of ~n:5 3);
  Alcotest.(check int) "extra id" 10 (Run_common.extra_id ~n:5)

let test_default_network_fifo () =
  let n = 4 in
  let nw = Run_common.default_network ~n in
  let rng = Wcp_util.Rng.create 7L in
  (* app -> own monitor is FIFO: delivery times never regress. *)
  let last = ref neg_infinity in
  for i = 0 to 49 do
    let at =
      Network.delivery_time nw rng ~src:1
        ~dst:(Run_common.monitor_of ~n 1)
        ~now:(float_of_int i *. 0.01)
    in
    if at < !last then Alcotest.fail "app->monitor link must be FIFO";
    last := at
  done;
  (* monitor -> monitor is not FIFO: reordering must eventually occur. *)
  let last = ref neg_infinity in
  let reordered = ref false in
  for _ = 1 to 200 do
    let at =
      Network.delivery_time nw rng
        ~src:(Run_common.monitor_of ~n 0)
        ~dst:(Run_common.monitor_of ~n 1)
        ~now:0.0
    in
    if at < !last then reordered := true;
    last := at
  done;
  Alcotest.(check bool) "monitor links may reorder" true !reordered

let test_finish_requires_outcome () =
  let engine = Run_common.make_engine_n ~seed:1L ~n:2 () in
  match Run_common.finish engine ~outcome:(ref None) ~extras:Detection.no_extras with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "finish without an outcome must fail loudly"

(* ------------------------------------------------------------------ *)
(* Cross-algorithm agreement                                           *)
(* ------------------------------------------------------------------ *)

(* The detector table: one entry per name users type, each unique, and
   every entry's run announces itself ([Run_meta]) under that name. *)
let test_table () =
  let typed =
    [
      "token-vc"; "multi-token"; "token-dd"; "token-dd-par"; "checker";
      "parallel";
    ]
  in
  Alcotest.(check (list string)) "names" typed Detectors.names;
  let comp = Helpers.build_comp (3, 3, 50, 50, 1) in
  let spec = Spec.all comp in
  List.iter
    (fun name ->
      match Detectors.find name with
      | Error m -> Alcotest.failf "lookup of %s failed: %s" name m
      | Ok d ->
          let recorder = Wcp_obs.Recorder.create () in
          ignore
            (d.run ~recorder ~options:Detection.default_options ~groups:2
               ~seed:1L comp spec);
          Alcotest.(check (list string))
            "Run_meta names the entry" [ name ]
            (List.filter_map
               (fun (e : Wcp_obs.Event.t) ->
                 match e.body with
                 | Wcp_obs.Event.Run_meta { algo; _ } -> Some algo
                 | _ -> None)
               (Array.to_list (Wcp_obs.Recorder.events recorder))))
    typed;
  (* A fault plan only means something on the simulated network. *)
  let fault = Fault.uniform ~seed:1L ~drop:0.1 () in
  List.iter
    (fun (d : Detectors.t) ->
      match
        d.run ~fault ~options:Detection.default_options ~groups:2 ~seed:1L
          comp spec
      with
      | _ -> if not d.faults then Alcotest.failf "%s took a fault plan" d.name
      | exception Invalid_argument _ ->
          if d.faults then Alcotest.failf "%s refused a fault plan" d.name)
    Detectors.all;
  match Detectors.find "token-multi" with
  | Ok _ -> Alcotest.fail "an unknown name was found"
  | Error m ->
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S lists %s" m name)
            true (Helpers.contains m name))
        typed

(* The detectors implement the same problem with very different
   machinery (Fig. 3 token, §3.5 multi-token, §4 direct-dependence
   token and its §4.5 prefetching variant, Garg–Waldecker checker,
   domain-parallel rounds). On any random computation every entry of
   the table must agree with the oracle — and therefore with each
   other — on the outcome, projected to the spec when its cut spans all
   N processes. *)
let all_outcomes ~seed comp spec =
  List.map
    (fun (d : Detectors.t) ->
      let r =
        d.run ~options:Detection.default_options ~groups:2 ~seed comp spec
      in
      (d.name, Detectors.spec_outcome d spec r.Detection.outcome))
    Detectors.all

let prop_algorithms_agree =
  Helpers.qtest ~count:60
    "vc, multi, dd, checker and parallel all match the oracle"
    QCheck2.Gen.(pair Helpers.gen_medium_comp (int_range 0 1000))
    (fun (comp, k) ->
      (* Every other run narrows the spec to a random subset, so the
         keep_rest projection is exercised, not just the identity. *)
      let n = Computation.n comp in
      let procs =
        if k mod 2 = 0 then Array.init n Fun.id
        else
          Array.of_list
            (List.filter (fun p -> p = k mod n || (p + k) mod 3 = 0)
               (List.init n Fun.id))
      in
      let spec = Spec.make comp procs in
      let expected = Oracle.first_cut comp spec in
      List.for_all
        (fun (name, got) ->
          Detection.outcome_equal expected got
          || QCheck2.Test.fail_reportf "%s disagrees with the oracle: %a vs %a"
               name Detection.pp_outcome got Detection.pp_outcome expected)
        (all_outcomes ~seed:7L comp spec))

(* The parallel checker's determinism contract: dense or sliced, at
   any domain count, the outcome is the oracle's least cut — and the
   cuts across domain counts are byte-identical (E18 pins the same
   property at bench scale). *)
let prop_parallel_checker_agrees =
  Helpers.qtest ~count:40
    "checker_parallel matches the oracle (dense and sliced, domains 1/2/4)"
    Helpers.gen_medium_comp (fun comp ->
      let spec = Spec.all comp in
      let expected = Oracle.first_cut comp spec in
      let parallel = Result.get_ok (Detectors.find "parallel") in
      List.for_all
        (fun slice ->
          let run = if slice then Detectors.sliced parallel else parallel.run in
          let outcomes =
            List.map
              (fun domains ->
                (run ~options:Detection.default_options ~groups:1 ~domains
                   ~seed:7L comp spec)
                  .Detection.outcome)
              [ 1; 2; 4 ]
          in
          List.for_all
            (fun got ->
              Detection.outcome_equal expected got
              || QCheck2.Test.fail_reportf
                   "parallel (slice=%b) disagrees with the oracle: %a vs %a"
                   slice Detection.pp_outcome got Detection.pp_outcome expected)
            outcomes
          (* Detected cuts must also be *identical*, not merely
             equivalent, across domain counts. *)
          && match outcomes with
             | o :: rest ->
                 List.for_all
                   (fun o' ->
                     Format.asprintf "%a" Detection.pp_outcome o'
                     = Format.asprintf "%a" Detection.pp_outcome o)
                   rest
             | [] -> true)
        [ false; true ])

(* Degenerate inputs must not crash and must still match the oracle:
   one process, an empty computation (no sends, no local states beyond
   the initial one), all-false and all-true predicates. *)
let test_parallel_checker_degenerate () =
  let build ~n ~sends ~pred_pct ~seed =
    Generator.random
      ~params:
        {
          Generator.n;
          sends_per_process = sends;
          p_pred = float_of_int pred_pct /. 100.;
          p_recv = 0.5;
        }
      ~seed:(Int64.of_int seed) ()
  in
  List.iter
    (fun (what, comp) ->
      let spec = Spec.all comp in
      let expected = Oracle.first_cut comp spec in
      List.iter
        (fun domains ->
          let r = Checker_parallel.detect ~domains ~seed:1L comp spec in
          Alcotest.check Helpers.outcome
            (Printf.sprintf "%s (domains=%d)" what domains)
            expected r.Detection.outcome)
        [ 1; 2; 4 ])
    [
      ("n=1", build ~n:1 ~sends:0 ~pred_pct:100 ~seed:3);
      ("empty computation", build ~n:3 ~sends:0 ~pred_pct:0 ~seed:4);
      ("all-false predicate", build ~n:4 ~sends:6 ~pred_pct:0 ~seed:5);
      ("all-true predicate", build ~n:4 ~sends:6 ~pred_pct:100 ~seed:6);
    ]

(* Bench anomaly, pinned: at n=32, seed=2 the E1 token-vc row detects
   while the E2 checker row reports "none". That is parameter skew, not
   an algorithm bug — E1 runs m=20 sends per process, E2 runs m=16. On
   each computation every algorithm agrees with the oracle, and only
   the extra sends of the m=20 trace make the predicate detectable. *)
let test_e2_anomaly_is_parameter_skew () =
  let comp_of ~m =
    Generator.random
      ~params:
        { Generator.n = 32; sends_per_process = m; p_pred = 0.3; p_recv = 0.5 }
      ~seed:2L ()
  in
  let agree_on what comp =
    let expected = Oracle.first_cut comp (Spec.all comp) in
    List.iter
      (fun (name, got) ->
        Alcotest.check Helpers.outcome
          (Printf.sprintf "%s: %s vs oracle" what name)
          expected got)
      (all_outcomes ~seed:2L comp (Spec.all comp));
    expected
  in
  (* E2's parameters: everyone, oracle included, says "none". *)
  (match agree_on "m=16 (E2)" (comp_of ~m:16) with
  | Detection.No_detection -> ()
  | o ->
      Alcotest.failf "m=16 must be a genuine no-detection, got %a"
        Detection.pp_outcome o);
  (* E1's parameters: the same generator seed detects. The two bench
     rows differ by [m] alone. *)
  match agree_on "m=20 (E1)" (comp_of ~m:20) with
  | Detection.Detected _ -> ()
  | o -> Alcotest.failf "m=20 must detect, got %a" Detection.pp_outcome o

let () =
  Alcotest.run "detection"
    [
      ( "outcomes",
        [
          Alcotest.test_case "outcome_equal" `Quick test_outcome_equal;
          Alcotest.test_case "project_outcome" `Quick test_project_outcome;
          Alcotest.test_case "pp_outcome" `Quick test_pp_outcome;
          Alcotest.test_case "pp_result" `Quick test_pp_result;
        ] );
      ( "messages",
        [
          Alcotest.test_case "bits accounting" `Quick test_bits_accounting;
          Alcotest.test_case "pp" `Quick test_messages_pp;
        ] );
      ( "agreement",
        [
          prop_algorithms_agree;
          prop_parallel_checker_agrees;
          Alcotest.test_case "parallel checker: degenerate inputs" `Quick
            test_parallel_checker_degenerate;
          Alcotest.test_case "E2 n=32 seed=2 anomaly is parameter skew"
            `Quick test_e2_anomaly_is_parameter_skew;
          Alcotest.test_case "detector table" `Quick test_table;
        ] );
      ( "run-common",
        [
          Alcotest.test_case "id layout" `Quick test_layout;
          Alcotest.test_case "default network fifo policy" `Quick
            test_default_network_fifo;
          Alcotest.test_case "finish requires outcome" `Quick
            test_finish_requires_outcome;
        ] );
    ]
