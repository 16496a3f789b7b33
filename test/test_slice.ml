(* Computation slicing (Wcp_slice.Slice): the slice must be invisible
   to every detector. The properties here pin the contract of DESIGN.md
   §10: happened-before restricted to retained states survives exactly,
   the least satisfying cut of the slice maps back to the dense least
   cut, slicing is idempotent and independent of the (causally
   consistent) feed order, and the incremental builder agrees with the
   offline pass. *)

open Wcp_trace
open Wcp_core
open Wcp_slice

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let random_comp ~n ~m ~p_pred ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }
    ~seed ()

(* Random computation plus a random spec over a strict-or-full subset
   of its processes; sparse-ish predicates so slices actually shrink. *)
let gen_case =
  QCheck2.Gen.(
    map
      (fun (n, m, seed, dense_pred, width_frac) ->
        let n = 2 + n in
        let p_pred = if dense_pred then 0.5 else 0.1 in
        let comp = random_comp ~n ~m:(1 + m) ~p_pred ~seed:(Int64.of_int seed) in
        let width = max 1 (1 + (width_frac * (n - 1) / 100)) in
        let rng = Wcp_util.Rng.create (Int64.of_int (seed + 7)) in
        let procs = Generator.random_procs rng ~n ~width in
        (comp, procs))
      (tup5 (int_range 0 8) (int_range 0 12) (int_range 1 10_000) bool
         (int_range 0 99)))

let outcome = Alcotest.testable Detection.pp_outcome Detection.outcome_equal

(* Structural equality of computations: same scripts, same flags. *)
let same_computation a b =
  Computation.n a = Computation.n b
  && Array.for_all
       (fun p ->
         Computation.ops a p = Computation.ops b p
         && Computation.num_states a p = Computation.num_states b p
         && List.for_all
              (fun s ->
                let st = State.make ~proc:p ~index:s in
                Computation.pred a st = Computation.pred b st)
              (List.init (Computation.num_states a p) (fun i -> i + 1)))
       (Array.init (Computation.n a) (fun p -> p))

(* Same computation, same counts and the same back-map on every slice
   state. *)
let same_slice a b =
  let ca = Slice.computation a in
  same_computation ca (Slice.computation b)
  && Slice.retained_states a = Slice.retained_states b
  && Slice.skeleton_messages a = Slice.skeleton_messages b
  && List.for_all
       (fun p ->
         List.for_all
           (fun s ->
             Slice.dense_state a ~proc:p s = Slice.dense_state b ~proc:p s)
           (List.init (Computation.num_states ca p) (fun i -> i + 1)))
       (List.init (Computation.n ca) Fun.id)

(* --- Soundness: the oracle can't tell the difference --------------- *)

let oracle_agrees ~keep_rest (comp, procs) =
  let spec = Spec.make comp procs in
  let sl = Slice.for_spec ~keep_rest comp ~procs in
  let sliced = Slice.computation sl in
  let spec' = Spec.make sliced procs in
  let dense = Oracle.first_cut comp spec in
  let on_slice =
    Detection.remap_outcome (Slice.remap_cut sl)
      (Oracle.first_cut sliced spec')
  in
  Detection.outcome_equal dense on_slice

let prop_oracle_vc_policy =
  qtest ~count:80 "oracle: first cut on slice = dense first cut (spec-only)"
    gen_case
    (oracle_agrees ~keep_rest:false)

let prop_oracle_full_policy =
  qtest ~count:80 "oracle: first cut on slice = dense first cut (keep rest)"
    gen_case
    (oracle_agrees ~keep_rest:true)

(* --- Happened-before preservation --------------------------------- *)

let prop_hb_preserved =
  (* For retained states on distinct processes, dense happened-before
     and slice happened-before (through the forward map) coincide.
     Same-process anchors may share a slice state (collapsed classes),
     where slice hb is reflexively false — process order carries them. *)
  qtest "happened-before between anchors survives exactly" gen_case
    (fun (comp, procs) ->
      let sl = Slice.for_spec ~keep_rest:true comp ~procs in
      let sliced = Slice.computation sl in
      let n = Computation.n comp in
      let anchors =
        List.concat
          (List.init n (fun p ->
               List.filter_map
                 (fun s ->
                   match Slice.slice_state sl ~proc:p s with
                   | Some s' -> Some (p, s, s')
                   | None -> None)
                 (List.init (Computation.num_states comp p) (fun i -> i + 1))))
      in
      List.for_all
        (fun (p, s, s') ->
          List.for_all
            (fun (q, t, t') ->
              p = q
              || Computation.happened_before comp
                   (State.make ~proc:p ~index:s)
                   (State.make ~proc:q ~index:t)
                 = Computation.happened_before sliced
                     (State.make ~proc:p ~index:s')
                     (State.make ~proc:q ~index:t'))
            anchors)
        anchors)

let prop_skeleton_is_cover =
  (* An independent reference for the edge set: the skeleton has one
     message per covering pair of dense happened-before over retained
     states on distinct processes — (a, x) with a -> x and no retained
     c with a -> c -> x — counted here by brute force. With
     [prop_hb_preserved] this pins the edges exactly: an edge added or
     dropped changes the count or the relation. *)
  qtest ~count:300 "skeleton = covering pairs of hb over retained states"
    gen_case
    (fun (comp, procs) ->
      List.for_all
        (fun keep_rest ->
          let n = Computation.n comp in
          let member = Array.make n false in
          Array.iter (fun p -> member.(p) <- true) procs;
          let retained =
            Array.of_list
              (List.filter
                 (fun (st : State.t) ->
                   if member.(st.proc) then Computation.pred comp st
                   else keep_rest)
                 (Helpers.all_states comp))
          in
          let r = Array.length retained in
          let hb =
            Array.map
              (fun a -> Array.map (Computation.happened_before comp a) retained)
              retained
          in
          let covering = ref 0 in
          for a = 0 to r - 1 do
            for x = 0 to r - 1 do
              if
                hb.(a).(x)
                && retained.(a).State.proc <> retained.(x).State.proc
                && not
                     (Array.exists Fun.id
                        (Array.init r (fun c -> hb.(a).(c) && hb.(c).(x))))
              then incr covering
            done
          done;
          let sl = Slice.for_spec ~keep_rest comp ~procs in
          Slice.retained_states sl = r
          && Slice.skeleton_messages sl = !covering)
        [ false; true ])

let prop_maps_inverse =
  qtest "dense_state inverts slice_state on anchor classes" gen_case
    (fun (comp, procs) ->
      let sl = Slice.for_spec ~keep_rest:true comp ~procs in
      Array.for_all
        (fun p ->
          List.for_all
            (fun s ->
              match Slice.slice_state sl ~proc:p s with
              | None -> true
              | Some s' ->
                  (* The back-map lands on the earliest member of the
                     class, which is itself retained and maps forward
                     to the same slice state. *)
                  let d = Slice.dense_state sl ~proc:p s' in
                  d <= s && Slice.slice_state sl ~proc:p d = Some s')
            (List.init (Computation.num_states comp p) (fun i -> i + 1)))
        (Array.init (Computation.n comp) (fun p -> p)))

(* --- Idempotence and feed-order independence ----------------------- *)

let prop_idempotent =
  qtest "slicing a slice is the identity" gen_case (fun (comp, procs) ->
      List.for_all
        (fun keep_rest ->
          let sl = Slice.for_spec ~keep_rest comp ~procs in
          let once = Slice.computation sl in
          let sl2 = Slice.for_spec ~keep_rest once ~procs in
          same_computation once (Slice.computation sl2))
        [ false; true ])

let prop_feed_order_independent =
  (* [Slice.make] feeds round-robin 0..n-1; feed the same run through
     the incremental builder scanning processes in reverse instead. Any
     causally consistent order must build the same slice. *)
  qtest "incremental builder is feed-order independent" gen_case
    (fun (comp, procs) ->
      let n = Computation.n comp in
      let member = Array.make n false in
      Array.iter (fun p -> member.(p) <- true) procs;
      let keep ~proc ~state =
        if member.(proc) then
          Computation.pred comp (State.make ~proc ~index:state)
        else true
      in
      let pred p s = Computation.pred comp (State.make ~proc:p ~index:s) in
      let b = Slice.Incremental.create ~n ~keep ~pred0:(fun p -> pred p 1) in
      let scripts = Array.init n (fun p -> ref (Computation.ops comp p)) in
      let states = Array.make n 1 in
      let sent = Hashtbl.create 64 in
      let progress = ref true in
      while !progress do
        progress := false;
        for p = n - 1 downto 0 do
          match !(scripts.(p)) with
          | [] -> ()
          | Computation.Send { dst; msg } :: rest ->
              Hashtbl.replace sent msg ();
              states.(p) <- states.(p) + 1;
              Slice.Incremental.on_send b ~proc:p ~dst ~msg
                ~pred:(pred p states.(p));
              scripts.(p) := rest;
              progress := true
          | Computation.Recv { msg } :: rest ->
              if Hashtbl.mem sent msg then begin
                states.(p) <- states.(p) + 1;
                Slice.Incremental.on_receive b ~proc:p ~msg
                  ~pred:(pred p states.(p));
                scripts.(p) := rest;
                progress := true
              end
        done
      done;
      same_slice (Slice.Incremental.finish b)
        (Slice.for_spec ~keep_rest:true comp ~procs))

let test_builder_checks () =
  (* A served stream: a receive by anyone but the addressee, a reused
     in-flight id and a self-send are refused; a stream that ends with
     messages still in flight is a legal prefix. *)
  let b =
    Slice.Incremental.create ~n:3 ~keep:(fun ~proc:_ ~state:_ -> true)
      ~pred0:(fun _ -> false)
  in
  let refused name f =
    match f () with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  Slice.Incremental.on_send b ~proc:0 ~dst:1 ~msg:7 ~pred:false;
  refused "receive by a non-addressee" (fun () ->
      Slice.Incremental.on_receive b ~proc:2 ~msg:7 ~pred:false);
  refused "in-flight id reused" (fun () ->
      Slice.Incremental.on_send b ~proc:2 ~dst:1 ~msg:7 ~pred:false);
  refused "self-send" (fun () ->
      Slice.Incremental.on_send b ~proc:1 ~dst:1 ~msg:8 ~pred:false);
  let b =
    Slice.Incremental.create ~n:2 ~keep:(fun ~proc:_ ~state:_ -> true)
      ~pred0:(fun _ -> true)
  in
  Slice.Incremental.on_send b ~proc:0 ~dst:1 ~msg:3 ~pred:true;
  Slice.Incremental.on_send b ~proc:1 ~dst:0 ~msg:900 ~pred:false;
  Slice.Incremental.on_receive b ~proc:0 ~msg:900 ~pred:false;
  let sl = Slice.Incremental.finish b in
  Alcotest.(check int) "anchors" 5 (Slice.retained_states sl);
  Alcotest.(check int) "skeleton" 1 (Slice.skeleton_messages sl)

(* --- Every detector, dense vs sliced ------------------------------- *)

let detector_cases =
  (* Fixed shapes instead of QCheck: each case runs five discrete-event
     simulations. Sparse predicates so the slice is a real reduction. *)
  List.concat_map
    (fun seed ->
      List.map (fun n -> (n, seed)) [ 3; 5; 8 ])
    [ 1; 2; 3; 4 ]

let test_detectors_agree () =
  List.iter
    (fun (n, seed) ->
      let comp = random_comp ~n ~m:8 ~p_pred:0.15 ~seed:(Int64.of_int seed) in
      let seed = Int64.of_int seed in
      let spec = Spec.all comp in
      let procs = Spec.procs spec in
      let here name = Printf.sprintf "%s n=%d seed=%Ld" name n seed in
      (* vc-family policy: spec-proc anchors only *)
      let sl = Slice.for_spec ~keep_rest:false comp ~procs in
      let sliced = Slice.computation sl in
      let spec' = Spec.make sliced procs in
      let remap o = Detection.remap_outcome (Slice.remap_cut sl) o in
      let dense_vc = Token_vc.detect ~seed comp spec in
      Alcotest.check outcome (here "token-vc") dense_vc.Detection.outcome
        (remap (Token_vc.detect ~seed sliced spec').Detection.outcome);
      let groups = max 1 (n / 2) in
      Alcotest.check outcome (here "token-multi")
        (Token_multi.detect ~groups ~seed comp spec).Detection.outcome
        (remap
           (Token_multi.detect ~groups ~seed sliced spec').Detection.outcome);
      Alcotest.check outcome (here "checker")
        (Checker_centralized.detect ~seed comp spec).Detection.outcome
        (remap
           (Checker_centralized.detect ~seed sliced spec').Detection.outcome);
      (* N-wide-cut algorithms: keep the rest whole *)
      let slf = Slice.for_spec ~keep_rest:true comp ~procs in
      let slicedf = Slice.computation slf in
      let specf = Spec.make slicedf procs in
      let remapf o = Detection.remap_outcome (Slice.remap_cut slf) o in
      Alcotest.check outcome (here "token-dd")
        (Token_dd.detect ~seed comp spec).Detection.outcome
        (remapf (Token_dd.detect ~seed slicedf specf).Detection.outcome);
      Alcotest.check outcome (here "checker-gcp")
        (Checker_gcp.detect ~seed ~channels:[] comp spec).Detection.outcome
        (remapf
           (Checker_gcp.detect ~seed ~channels:[] slicedf specf)
             .Detection.outcome))
    detector_cases

let test_dd_partial_spec () =
  (* With a strict spec subset the dd cut spans all N processes; the
     spec entries must agree after remapping, compared via projection
     (non-spec entries are detector-internal frontier positions). *)
  List.iter
    (fun seed ->
      let comp = random_comp ~n:6 ~m:8 ~p_pred:0.2 ~seed:(Int64.of_int seed) in
      let procs = [| 0; 3 |] in
      let spec = Spec.make comp procs in
      let sl = Slice.for_spec ~keep_rest:true comp ~procs in
      let sliced = Slice.computation sl in
      let spec' = Spec.make sliced procs in
      let seed = Int64.of_int seed in
      let dense = Token_dd.detect ~seed comp spec in
      let on_slice = Token_dd.detect ~seed sliced spec' in
      Alcotest.check outcome
        (Printf.sprintf "dd partial spec seed=%Ld" seed)
        (Detection.project_outcome spec dense.Detection.outcome)
        (Detection.project_outcome spec
           (Detection.remap_outcome (Slice.remap_cut sl)
              on_slice.Detection.outcome)))
    [ 5; 6; 7; 8 ]

(* --- Reduction sanity ---------------------------------------------- *)

let test_reduction () =
  (* On a sparse-truth workload the slice must actually shrink — this
     is the whole point (bench E17 measures it end to end). *)
  let comp =
    random_comp ~n:16 ~m:12 ~p_pred:0.05 ~seed:7L
  in
  let procs = Spec.procs (Spec.all comp) in
  let sl = Slice.for_spec ~keep_rest:false comp ~procs in
  let dense_states = Computation.total_states comp in
  let slice_states = Computation.total_states (Slice.computation sl) in
  Alcotest.(check bool)
    (Printf.sprintf "slice shrinks (%d -> %d states)" dense_states
       slice_states)
    true
    (2 * slice_states <= dense_states)

(* --- Full-corpus sweep ----------------------------------------------- *)

(* Unlike [test_detectors_agree], which drives [Slice.for_spec] and the
   remap by hand, this sweep goes through the user-facing plumbing:
   [Detectors.sliced] for every detector in the table, and
   [Run_common.with_slice] for the pure-WCP GCP checker, must return
   the dense outcome — for the N-wide-cut detectors the whole cut, not
   its projection, so a wrong [keep_rest] shows — over sizes x
   densities x seeds x full and partial specs. *)
let corpus_sweep ~sizes ~densities ~seeds =
  List.iter
    (fun (n, m) ->
      List.iter
        (fun p_pred ->
          List.iter
            (fun s ->
              let seed = Int64.of_int s in
              let comp = random_comp ~n ~m ~p_pred ~seed in
              let specs =
                (* Full-width and a strict-subset spec (every other
                   process), skipping the subset when it would be the
                   whole spec anyway. *)
                Spec.all comp
                :: (if n < 2 then []
                    else
                      [
                        Spec.make comp
                          (Array.init ((n + 1) / 2) (fun i -> 2 * i));
                      ])
              in
              List.iter
                (fun spec ->
                  let w = Spec.width spec in
                  let here name =
                    Printf.sprintf "%s n=%d m=%d p=%.2f w=%d seed=%Ld" name n
                      m p_pred w seed
                  in
                  let agree name dense sliced =
                    Alcotest.check outcome (here name) dense sliced
                  in
                  List.iter
                    (fun (d : Detectors.t) ->
                      let outcome_of (run : Detectors.run) =
                        (run ~options:Detection.default_options
                           ~groups:(max 1 (w / 2)) ~domains:2 ~seed comp spec)
                          .Detection.outcome
                      in
                      agree d.name (outcome_of d.run)
                        (outcome_of (Detectors.sliced d)))
                    Detectors.all;
                  let gcp = Checker_gcp.detect ~seed ~channels:[] in
                  agree "checker-gcp" (gcp comp spec).Detection.outcome
                    (Run_common.with_slice ~keep_rest:true comp spec ~run:gcp)
                      .Detection.outcome)
                specs)
            seeds)
        densities)
    sizes

let test_corpus_smoke () =
  corpus_sweep ~sizes:[ (4, 6) ] ~densities:[ 0.15 ] ~seeds:[ 1; 2 ]

let test_corpus_full () =
  corpus_sweep
    ~sizes:[ (3, 8); (4, 10); (6, 10); (8, 12); (12, 10); (16, 10) ]
    ~densities:[ 0.02; 0.05; 0.15; 0.3; 0.6 ]
    ~seeds:[ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "slice"
    [
      ( "oracle",
        [
          prop_oracle_vc_policy;
          prop_oracle_full_policy;
          prop_hb_preserved;
          prop_skeleton_is_cover;
          prop_maps_inverse;
        ] );
      ( "structure",
        [
          prop_idempotent;
          prop_feed_order_independent;
          Alcotest.test_case "builder feed checks" `Quick test_builder_checks;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "all detectors, dense vs sliced" `Quick
            test_detectors_agree;
          Alcotest.test_case "dd partial spec" `Quick test_dd_partial_spec;
          Alcotest.test_case "sparse-truth reduction" `Quick test_reduction;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "sliced-path smoke" `Quick test_corpus_smoke;
          Alcotest.test_case "full corpus" `Quick test_corpus_full;
        ] );
    ]
