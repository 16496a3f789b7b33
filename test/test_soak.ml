(* Larger-scale soak runs: the same invariants as the unit suites, at
   sizes where bookkeeping bugs (queue growth, chain corruption,
   quadratic blow-ups hiding behind small constants) would surface.
   Marked [`Slow]; still seconds, not minutes. *)

open Wcp_trace
open Wcp_sim
open Wcp_core

let big_comp ~n ~m ~p_pred ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }
    ~seed ()

let test_large_agreement () =
  List.iter
    (fun seed ->
      let comp = big_comp ~n:30 ~m:30 ~p_pred:0.2 ~seed in
      let rng = Wcp_util.Rng.create seed in
      let procs = Generator.random_procs rng ~n:30 ~width:10 in
      let spec = Spec.make comp procs in
      let expected = Oracle.first_cut comp spec in
      let check name o =
        if not (Detection.outcome_equal o expected) then
          Alcotest.failf "%s mismatch at seed %Ld" name seed
      in
      check "vc" (Token_vc.detect ~invariant_checks:true ~seed comp spec).outcome;
      check "checker" (Checker_centralized.detect ~seed comp spec).outcome;
      check "multi"
        (Token_multi.detect ~groups:4 ~seed comp spec).outcome;
      check "dd"
        (Detection.project_outcome spec
           (Token_dd.detect ~invariant_checks:true ~seed comp spec).outcome);
      check "dd-par"
        (Detection.project_outcome spec
           (Token_dd.detect ~parallel:true ~seed comp spec).outcome))
    [ 1L; 2L; 3L ]

let test_large_dd_per_process_bounds () =
  (* O(m) per process must survive N = 80. *)
  let comp = big_comp ~n:80 ~m:15 ~p_pred:0.1 ~seed:9L in
  let spec = Spec.make comp [| 0; 40 |] in
  let r = Token_dd.detect ~seed:9L comp spec in
  let m = Computation.max_events_per_process comp in
  for p = 0 to 79 do
    let mon = Run_common.monitor_of ~n:80 p in
    if Stats.work_of r.stats mon > (3 * m) + 3 then
      Alcotest.failf "monitor %d work %d exceeds O(m)" p
        (Stats.work_of r.stats mon)
  done;
  Alcotest.check Helpers.outcome "agrees with oracle"
    (Oracle.first_cut comp spec)
    (Detection.project_outcome spec r.outcome)

let test_long_live_runs () =
  List.iter
    (fun mode ->
      for s = 1 to 3 do
        let seed = Int64.of_int (1000 + s) in
        let r = Live_mutex.run ~p_bug:0.3 ~mode ~clients:6 ~rounds:8 ~seed () in
        let spec = Spec.make r.Live_mutex.recorded r.Live_mutex.wcp_procs in
        let online =
          match mode with
          | Instrument.Vc -> r.Live_mutex.online
          | Instrument.Dd ->
              Detection.project_outcome spec r.Live_mutex.online
        in
        if
          not
            (Detection.outcome_equal online
               (Oracle.first_cut r.Live_mutex.recorded spec))
        then Alcotest.failf "live mismatch seed %Ld" seed
      done)
    [ Instrument.Vc; Instrument.Dd ]

let test_large_lowerbound () =
  let n = 64 and m = 64 in
  let world, _ = Wcp_lowerbound.Adversary.make ~n ~m in
  let answer, trace = Wcp_lowerbound.Detector.run world in
  Alcotest.(check bool) "no antichain" true
    (answer = Wcp_lowerbound.Detector.No_antichain);
  Alcotest.(check int) "forced deletions" ((n * m) - n + 1)
    trace.Wcp_lowerbound.Detector.deletions

let test_engine_throughput () =
  (* 200k-event ping-pong: the heap and dispatcher must stay sane. *)
  let e = Engine.create ~max_events:500_000 ~num_processes:2 ~seed:3L () in
  let count = ref 0 in
  let handler ctx ~src:_ () =
    incr count;
    if !count < 200_000 then Engine.send ctx ~dst:(1 - Engine.self ctx) ()
  in
  Engine.set_handler e 0 handler;
  Engine.set_handler e 1 handler;
  Engine.schedule_initial e ~proc:0 ~at:0.0 (fun ctx -> Engine.send ctx ~dst:1 ());
  Engine.run e;
  Alcotest.(check int) "all events processed" 200_000 !count

let test_large_gcp_equivalence () =
  let comp = big_comp ~n:10 ~m:15 ~p_pred:0.3 ~seed:4L in
  let spec = Spec.all comp in
  let channels =
    [ Gcp.empty ~src:0 ~dst:1; Gcp.at_most 2 ~src:2 ~dst:3; Gcp.at_least 1 ~src:4 ~dst:5 ]
  in
  let offline = Gcp.detect comp spec ~channels in
  let online = Checker_gcp.detect ~seed:4L ~channels comp spec in
  Alcotest.check Helpers.outcome "online = offline at scale" offline
    online.Detection.outcome

(* Chaos soak: every detector that accepts a fault plan, against the
   oracle across a matrix of sizes, drop rates and seeds. *)
let chaos_matrix ~sizes ~drops ~seeds =
  List.iter
    (fun (n, m) ->
      List.iter
        (fun drop ->
          List.iter
            (fun s ->
              let seed = Int64.of_int s in
              let comp = big_comp ~n ~m ~p_pred:0.2 ~seed in
              let spec = Spec.all comp in
              let fault =
                Fault.uniform ~seed ~drop ~dup:(drop /. 2.0) ~spike_p:0.1
                  ~spike_mean:3.0 ()
              in
              let expected = Oracle.first_cut comp spec in
              List.iter
                (fun (d : Detectors.t) ->
                  if d.faults then
                    let r =
                      d.run ~fault ~options:Detection.default_options
                        ~groups:4 ~seed comp spec
                    in
                    if
                      not
                        (Detection.outcome_equal expected
                           (Detectors.spec_outcome d spec r.outcome))
                    then
                      Alcotest.failf "%s mismatch: n=%d m=%d drop=%.2f seed=%d"
                        d.name n m drop s)
                Detectors.all)
            seeds)
        drops)
    sizes

let test_chaos_smoke () =
  chaos_matrix ~sizes:[ (6, 8) ] ~drops:[ 0.2 ] ~seeds:[ 1; 2 ]

let test_chaos_soak () =
  chaos_matrix
    ~sizes:[ (6, 10); (10, 12); (16, 10) ]
    ~drops:[ 0.1; 0.2; 0.3 ]
    ~seeds:[ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "soak"
    [
      ( "scale",
        [
          Alcotest.test_case "30-process agreement" `Slow test_large_agreement;
          Alcotest.test_case "80-process dd O(m) bounds" `Slow
            test_large_dd_per_process_bounds;
          Alcotest.test_case "long live runs" `Slow test_long_live_runs;
          Alcotest.test_case "64x64 lower bound" `Slow test_large_lowerbound;
          Alcotest.test_case "engine throughput" `Slow test_engine_throughput;
          Alcotest.test_case "gcp equivalence at scale" `Slow
            test_large_gcp_equivalence;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "chaos smoke" `Slow test_chaos_smoke;
          Alcotest.test_case "chaos matrix" `Slow test_chaos_soak;
        ] );
    ]
