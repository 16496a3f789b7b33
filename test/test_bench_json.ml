(* The machine-readable bench harness: JSON round-trip, schema
   stability, the sparse row format, and the determinism contract
   (sequential and parallel sweeps must produce identical rows). Runs
   the smoke profile, so this doubles as an end-to-end exercise of the
   job runners inside `dune runtest`. *)

open Wcp_bench
module Json = Wcp_obs.Export.Json

let smoke_seq = lazy (Bench_json.run ~domains:1 Bench_json.Smoke)

let test_smoke_runs () =
  let results = Lazy.force smoke_seq in
  Alcotest.(check int) "all jobs ran"
    (List.length (Bench_json.jobs Bench_json.Smoke))
    (Array.length results);
  Array.iter
    (fun (r : Bench_json.row) ->
      (* E15 rows report the parallel-batch byte-identity check instead
         of a detection verdict; E17/E18 detections spell out the cut
         so the baseline pins it byte-for-byte. *)
      let detected_cut s =
        String.length s > 9 && String.sub s 0 9 = "detected "
      in
      let valid =
        if r.job.experiment = "E15" then r.outcome = "ok"
        else
          r.outcome = "detected" || r.outcome = "none"
          || detected_cut r.outcome
      in
      Alcotest.(check bool)
        (Bench_json.job_key r.job ^ " has an outcome")
        true valid;
      Alcotest.(check bool)
        (Bench_json.job_key r.job ^ " did simulation work")
        true
        (Bench_json.int_col r "events" > 0))
    results

let test_json_roundtrip () =
  let results = Lazy.force smoke_seq in
  let doc = Bench_json.emit ~profile:Bench_json.Smoke results in
  let profile, parsed = Bench_json.parse_doc doc in
  Alcotest.(check string) "profile survives" "smoke"
    (Bench_json.profile_name profile);
  Alcotest.(check int) "record count" (Array.length results)
    (Array.length parsed);
  Array.iteri
    (fun i r ->
      if not (r = results.(i)) then
        Alcotest.failf "record %d changed in the round-trip: %s" i
          (Bench_json.job_key r.Bench_json.job))
    parsed

let test_json_values () =
  (* Spot-check the emitted document is plain JSON other tools can
     read: parse with the generic parser and navigate by hand. *)
  let results = Lazy.force smoke_seq in
  let doc = Bench_json.emit ~profile:Bench_json.Smoke results in
  let j = Json.parse doc in
  let open Json in
  Alcotest.(check string) "schema" Bench_json.schema
    (to_str (member "schema" j));
  let first =
    match member "results" j with
    | Arr (r :: _) -> r
    | _ -> Alcotest.fail "results is not a nonempty array"
  in
  Alcotest.(check string) "experiment" "E1" (to_str (member "experiment" first));
  Alcotest.(check bool) "wall_ns is an int" true
    (match member "wall_ns" first with Int _ -> true | _ -> false)

let test_parallel_matches_sequential () =
  let seq = Lazy.force smoke_seq in
  let par = Bench_json.run ~domains:2 Bench_json.Smoke in
  Alcotest.(check int) "same length" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i s ->
      if not (Bench_json.deterministic_equal s par.(i)) then
        Alcotest.failf "parallel run diverged on %s"
          (Bench_json.job_key s.Bench_json.job))
    seq

let test_compare_runs_self () =
  let results = Lazy.force smoke_seq in
  Alcotest.(check (list string)) "self-compare is clean" []
    (Bench_json.compare_runs ~baseline:results ~current:results ())

let set_col (r : Bench_json.row) k v =
  Bench_json.row r.job r.outcome ~wall_ns:r.wall_ns ~alloc_bytes:r.alloc_bytes
    ((k, v) :: List.remove_assoc k r.cols)

let test_compare_runs_detects_drift () =
  let results = Lazy.force smoke_seq in
  let tampered = Array.map (fun r -> r) results in
  tampered.(0) <- set_col tampered.(0) "hops" (Json.Int 999_999);
  match Bench_json.compare_runs ~baseline:results ~current:tampered () with
  | [] -> Alcotest.fail "drifted metrics went unnoticed"
  | _ :: _ -> ()

(* ------------------------------------------------------------------ *)
(* Sparse rows                                                         *)
(* ------------------------------------------------------------------ *)

let job =
  {
    Bench_json.experiment = "E1";
    algo = "token-vc";
    n = 4;
    m = 5;
    p_pred = 0.3;
    seed = 1;
    param = 0;
  }

let sample =
  Bench_json.row job "detected" ~wall_ns:1234 ~alloc_bytes:0
    [
      ("hops", Json.Int 7);
      ("polls", Json.Int 0);
      ("sim_time", Json.Float 12.5);
      ("hop_p50", Json.Float 0.0);
      ("decode_ns", Json.Int 99);
    ]

let emit_one r = Bench_json.emit ~profile:Bench_json.Smoke [| r |]

let test_sparse_roundtrip () =
  let _, back = Bench_json.parse_doc (emit_one sample) in
  Alcotest.(check bool) "row survives the round-trip" true
    (back = [| sample |]);
  Alcotest.(check (list string))
    "columns in name order, zeros dropped" [ "decode_ns"; "hops"; "sim_time" ]
    (List.map fst sample.cols)

let test_zero_columns_absent () =
  let doc = emit_one sample in
  Alcotest.(check bool) "zero int column not on the wire" false
    (Helpers.contains doc "\"polls\"");
  Alcotest.(check bool) "zero float column not on the wire" false
    (Helpers.contains doc "\"hop_p50\"");
  Alcotest.(check bool) "zero core field kept" true
    (Helpers.contains doc "\"alloc_bytes\":0");
  let _, back = Bench_json.parse_doc doc in
  Alcotest.(check int) "absent int column reads 0" 0
    (Bench_json.int_col back.(0) "polls");
  Alcotest.(check (float 0.)) "absent float column reads 0" 0.0
    (Bench_json.float_col back.(0) "hop_p50");
  Alcotest.(check int) "never-computed column reads 0" 0
    (Bench_json.int_col back.(0) "par_rounds");
  Alcotest.(check int) "present column reads its value" 7
    (Bench_json.int_col back.(0) "hops")

let test_one_sided_column_drifts () =
  let extra = set_col sample "merges" (Json.Int 1) in
  Alcotest.(check (list string)) "added column" [ "merges" ]
    (Bench_json.drift sample extra);
  Alcotest.(check (list string)) "dropped column" [ "merges" ]
    (Bench_json.drift extra sample);
  Alcotest.(check bool) "not deterministic_equal" false
    (Bench_json.deterministic_equal sample extra)

let test_machine_columns_ignored () =
  let retimed =
    List.fold_left
      (fun r k -> set_col r k (Json.Int 424_242))
      { sample with wall_ns = 1; alloc_bytes = 2 }
      Bench_json.machine_columns
  in
  Alcotest.(check (list string))
    "no drift" [] (Bench_json.drift sample retimed);
  Alcotest.(check (list string)) "compare_runs is clean" []
    (Bench_json.compare_runs ~baseline:[| sample |] ~current:[| retimed |] ())

let test_drift_line_names_column () =
  let tampered = set_col sample "sim_time" (Json.Float 13.0) in
  match
    Bench_json.compare_runs ~baseline:[| sample |] ~current:[| tampered |] ()
  with
  | [ line ] ->
      Alcotest.(check bool)
        ("names the column and both values: " ^ line)
        true
        (Helpers.contains line "sim_time 12.5 -> 13.0"
        && not (Helpers.contains line "hops"))
  | lines ->
      Alcotest.failf "expected one failure line, got %d" (List.length lines)

let test_parse_errors () =
  let bad s =
    match Bench_json.parse_doc s with
    | _ -> Alcotest.failf "accepted malformed input %S" s
    | exception Json.Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,2,3]";
  bad "{\"schema\":\"other/9\",\"profile\":\"smoke\",\"results\":[]}"

let () =
  Alcotest.run "bench-json"
    [
      ( "harness",
        [
          Alcotest.test_case "smoke profile runs" `Quick test_smoke_runs;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json values" `Quick test_json_values;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "compare: self" `Quick test_compare_runs_self;
          Alcotest.test_case "compare: drift" `Quick
            test_compare_runs_detects_drift;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "rows round-trip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "zero columns absent, read as 0" `Quick
            test_zero_columns_absent;
          Alcotest.test_case "one-sided column drifts" `Quick
            test_one_sided_column_drifts;
          Alcotest.test_case "machine columns ignored" `Quick
            test_machine_columns_ignored;
          Alcotest.test_case "drift line names the column" `Quick
            test_drift_line_names_column;
        ] );
    ]
