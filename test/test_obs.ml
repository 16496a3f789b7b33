(* The observability plane: the JSONL codec round-trips arbitrary
   events (property), equal-seed traced runs are byte-identical,
   emitted logs validate against the wcp-events/1 schema, and
   attaching a recorder is invisible to the run it observes, over a
   bounded smoke and the full algorithm x size x seed corpus. *)

open Wcp_trace
open Wcp_sim
open Wcp_core
open Wcp_obs

(* ------------------------------------------------------------------ *)
(* Codec round-trip property                                           *)
(* ------------------------------------------------------------------ *)

let gen_body : Event.body QCheck2.Gen.t =
  let open QCheck2.Gen in
  let small = int_range 0 64 in
  let vec = array_size (int_range 0 6) (int_range 0 99) in
  let name = oneofl [ "token-vc"; "token-dd"; "gcp"; "c:0->1"; "\"q\"\n" ] in
  oneof
    [
      map3 (fun algo n width -> Event.Run_meta { algo; n; width }) name small
        small;
      map2 (fun dst bits -> Event.Sent { dst; bits }) small small;
      map (fun src -> Event.Delivered { src }) small;
      map2 (fun src state -> Event.Snapshot_arrived { src; state }) small small;
      map3
        (fun k proc state -> Event.Candidate_advanced { k; proc; state })
        small small small;
      map2
        (fun (by_k, by_proc, by_state, by_clock)
             (victim_k, victim_proc, victim_state, witness) ->
          Event.Vc_advanced
            {
              by_k;
              by_proc;
              by_state;
              by_clock;
              victim_k;
              victim_proc;
              victim_state;
              witness;
            })
        (quad small small small vec)
        (quad small small small small);
      map2
        (fun (victim_proc, victim_state) (poll_clock, poller_proc) ->
          Event.Dd_eliminated
            { victim_proc; victim_state; poll_clock; poller_proc })
        (pair small small) (pair small small);
      map2
        (fun after_proc proc -> Event.Chain_extended { after_proc; proc })
        small small;
      map2
        (fun (victim_k, victim_proc, victim_state, victim_clock)
             (by_k, by_proc, by_state, by_clock) ->
          Event.Hb_eliminated
            {
              victim_k;
              victim_proc;
              victim_state;
              victim_clock;
              by_k;
              by_proc;
              by_state;
              by_clock;
            })
        (quad small small small vec)
        (quad small small small vec);
      map3
        (fun channel victim_proc victim_state ->
          Event.Channel_eliminated { channel; victim_proc; victim_state })
        name small small;
      map3 (fun seq dst g -> Event.Token_sent { seq; dst; g }) small small vec;
      map (fun seq -> Event.Token_received { seq }) small;
      map2 (fun seq dst -> Event.Token_regenerated { seq; dst }) small small;
      map2 (fun dst clock -> Event.Poll_sent { dst; clock }) small small;
      map2
        (fun dst became_red -> Event.Poll_replied { dst; became_red })
        small bool;
      map2 (fun seq dst -> Event.Probe_sent { seq; dst }) small small;
      map2
        (fun dst frame_seq -> Event.Retransmitted { dst; frame_seq })
        small small;
      map (fun round -> Event.Merged { round }) small;
      map3
        (fun round frontier eliminated ->
          Event.Round_advanced { round; frontier; eliminated })
        small vec small;
      map2 (fun procs states -> Event.Detected { procs; states }) vec vec;
      map
        (fun name -> Event.Phase_marked { name })
        (oneofl [ "build"; "detect"; "slice"; "recovery" ]);
      return Event.No_detection_declared;
    ]

let gen_event : Event.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  map3
    (fun seq (time, proc) body -> { Event.seq; time; proc; body })
    (int_range 0 100_000)
    (pair (float_bound_inclusive 5000.0) (int_range (-1) 128))
    gen_body

let qtest ?(count = 500) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let codec_roundtrip =
  qtest "decode_line inverts encode_line" gen_event
    (Format.asprintf "%a" Event.pp)
    (fun e ->
      match Export.decode_line (Export.encode_line e) with
      | Error msg -> QCheck2.Test.fail_reportf "decode failed: %s" msg
      | Ok e' -> Event.equal e e')

let doc_roundtrip =
  qtest ~count:100 "of_jsonl inverts jsonl"
    QCheck2.Gen.(array_size (int_range 0 30) gen_event)
    (fun evs ->
      String.concat "\n"
        (Array.to_list (Array.map (Format.asprintf "%a" Event.pp) evs)))
    (fun evs ->
      match Export.of_jsonl (Export.jsonl evs) with
      | Error msg -> QCheck2.Test.fail_reportf "of_jsonl failed: %s" msg
      | Ok back ->
          Array.length back = Array.length evs
          && Array.for_all2 Event.equal back evs)

let test_decode_errors () =
  let bad s =
    match Export.decode_line s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed line %S" s
  in
  bad "";
  bad "{";
  bad "[1,2]";
  bad {|{"seq":0,"t":0.0,"proc":1}|};
  (* missing type *)
  bad {|{"seq":0,"t":0.0,"proc":1,"type":"no_such_kind"}|};
  bad {|{"seq":0,"t":0.0,"proc":1,"type":"sent","dst":3}|};
  (* missing bits *)
  let names_token s expected =
    match Export.decode_line s with
    | Error m -> Alcotest.(check string) s expected m
    | Ok _ -> Alcotest.failf "accepted malformed line %S" s
  in
  names_token {|{"seq":0,"t":1e+,"proc":1,"type":"no_detection"}|}
    {|at byte 13: bad number "1e+"|};
  names_token {|{"seq":0,"t":0.0,"proc":1,"type":"\uzzzz"}|}
    {|at byte 34: bad \u escape "zzzz"|}

(* ------------------------------------------------------------------ *)
(* Traced runs: determinism and invisibility                           *)
(* ------------------------------------------------------------------ *)

let comp_of ~n ~m ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred = 0.3; p_recv = 0.5 }
    ~seed ()

let run_traced algo ~n ~m ~seed =
  let comp = comp_of ~n ~m ~seed in
  let spec = Spec.all comp in
  let recorder = Recorder.create () in
  let d = Result.get_ok (Detectors.find algo) in
  ignore
    (d.run ~recorder ~options:Detection.default_options ~groups:2 ~seed comp
       spec);
  Recorder.events recorder

let test_equal_seed_byte_identical () =
  let a = run_traced "token-vc" ~n:6 ~m:10 ~seed:5L in
  let b = run_traced "token-vc" ~n:6 ~m:10 ~seed:5L in
  Alcotest.(check string) "same seed, same bytes" (Export.jsonl a)
    (Export.jsonl b);
  let c = run_traced "token-vc" ~n:6 ~m:10 ~seed:6L in
  Alcotest.(check bool) "different seed, different log" false
    (Export.jsonl a = Export.jsonl c)

let test_tracing_invisible () =
  List.iter
    (fun seed ->
      let comp = comp_of ~n:6 ~m:10 ~seed in
      let spec = Spec.all comp in
      let plain = Token_vc.detect ~seed comp spec in
      let recorder = Recorder.create () in
      let traced = Token_vc.detect ~recorder ~seed comp spec in
      Alcotest.check Helpers.outcome "same outcome" plain.outcome traced.outcome;
      Alcotest.(check int) "same messages"
        (Stats.total_sent plain.stats)
        (Stats.total_sent traced.stats);
      Alcotest.(check int) "same bits"
        (Stats.total_bits plain.stats)
        (Stats.total_bits traced.stats);
      Alcotest.(check int) "same work"
        (Stats.total_work plain.stats)
        (Stats.total_work traced.stats);
      Alcotest.(check int) "same events" plain.events traced.events;
      Alcotest.(check bool) "same sim time" true
        (plain.sim_time = traced.sim_time);
      Alcotest.(check bool) "recorder saw the run" true
        (Recorder.emitted recorder > 0))
    [ 1L; 2L; 3L ]

(* ------------------------------------------------------------------ *)
(* Schema validation (shared by the smoke and the gated corpus)        *)
(* ------------------------------------------------------------------ *)

let validate_log tag events =
  if Array.length events = 0 then Alcotest.failf "%s: empty log" tag;
  (* The serialised form must re-parse to the same events... *)
  (match Export.of_jsonl (Export.jsonl events) with
  | Error msg -> Alcotest.failf "%s: re-parse failed: %s" tag msg
  | Ok back ->
      if not (Array.for_all2 Event.equal back events) then
        Alcotest.failf "%s: log changed in the round-trip" tag);
  (* ...every line must be plain JSON any tool can read... *)
  String.split_on_char '\n' (Export.jsonl events)
  |> List.iteri (fun i line ->
         if line <> "" then
           match Export.Json.parse line with
           | exception Export.Json.Error msg ->
               Alcotest.failf "%s: line %d is not JSON: %s" tag (i + 1) msg
           | j ->
               let open Export.Json in
               let kind = to_str (member "type" j) in
               if not (List.mem kind Event.kinds) then
                 Alcotest.failf "%s: line %d has unknown type %s" tag (i + 1)
                   kind);
  (* ...and the event stream itself must be well-formed. Phase marks
     may precede [run_meta] (the slice phase legally runs before the
     detector announces itself); the first {e non-phase} event must be
     the meta line. *)
  (let rec check_opening i =
     if i >= Array.length events then
       Alcotest.failf "%s: log has no run_meta" tag
     else
       match events.(i).Event.body with
       | Event.Phase_marked _ -> check_opening (i + 1)
       | Event.Run_meta _ -> ()
       | b ->
           Alcotest.failf "%s: log opens with %s, not run_meta" tag
             (Event.kind b)
   in
   check_opening 0);
  let last_t = ref 0.0 in
  Array.iteri
    (fun i (e : Event.t) ->
      if e.Event.seq <> i then Alcotest.failf "%s: seq gap at %d" tag i;
      if e.Event.time < !last_t then
        Alcotest.failf "%s: time went backwards at event %d" tag i;
      last_t := e.Event.time;
      if e.Event.proc < -1 then Alcotest.failf "%s: bad proc at %d" tag i)
    events;
  (* The Chrome export of the same log must be a JSON document. *)
  match Export.Json.parse (Export.chrome events) with
  | exception Export.Json.Error msg ->
      Alcotest.failf "%s: chrome export is not JSON: %s" tag msg
  | j -> (
      match Export.Json.member "traceEvents" j with
      | Export.Json.Arr _ -> ()
      | _ -> Alcotest.failf "%s: chrome traceEvents is not an array" tag)

let corpus ~algos ~sizes ~seeds =
  List.iter
    (fun algo ->
      List.iter
        (fun (n, m) ->
          List.iter
            (fun s ->
              let seed = Int64.of_int s in
              let tag = Printf.sprintf "%s n=%d m=%d seed=%d" algo n m s in
              validate_log tag (run_traced algo ~n ~m ~seed))
            seeds)
        sizes)
    algos

let test_schema_smoke () =
  corpus ~algos:[ "token-vc"; "token-dd" ] ~sizes:[ (5, 8) ] ~seeds:[ 1 ]

let test_schema_corpus () =
  corpus ~algos:Detectors.names
    ~sizes:[ (4, 8); (8, 12); (12, 10) ]
    ~seeds:[ 1; 2; 3 ]

let () =
  Alcotest.run "obs"
    [
      ( "codec",
        [
          codec_roundtrip;
          doc_roundtrip;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_decode_errors;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "equal seeds, identical bytes" `Quick
            test_equal_seed_byte_identical;
          Alcotest.test_case "recording is invisible" `Quick
            test_tracing_invisible;
        ] );
      ( "schema",
        [
          Alcotest.test_case "emitted logs validate (smoke)" `Quick
            test_schema_smoke;
          Alcotest.test_case "full corpus" `Slow test_schema_corpus;
        ] );
    ]
