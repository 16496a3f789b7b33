(* The telemetry plane: the wcp-metrics/1 codec round-trips arbitrary
   lines (property), the hand-rolled window fast path emits exactly the
   generic emitter's bytes (property — promised by a comment in
   telemetry.ml), window/phase mechanics behave on a synthetic stream,
   equal-seed live streams are byte-identical, and an attached
   telemetry tap is invisible to the run it observes. The full
   algorithm x size x seed stream-validation corpus is gated behind
   WCP_TELEMETRY_CHECK=1 (make telemetry-check); a bounded smoke of
   the same check always runs. *)

open Wcp_trace
open Wcp_sim
open Wcp_core
open Wcp_obs

(* ------------------------------------------------------------------ *)
(* Line generators                                                     *)
(* ------------------------------------------------------------------ *)

(* Counts are semantically nonnegative, but the codec must survive any
   int the fields could ever carry — include the extremes to exercise
   the manual digit writer (min_int has no positive negation). *)
let gen_count : int QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [
      (8, int_range 0 1_000_000);
      (1, oneofl [ 0; 1; -1; max_int; min_int ]);
    ]

(* Times mix integral floats (the "42.0" fast path), short fractions,
   and the 1e15 boundary where the fast path hands back to %.17g. *)
let gen_time : float QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [
      (4, map float_of_int (int_range (-1000) 100_000));
      (4, float_bound_inclusive 5000.0);
      ( 1,
        oneofl
          [
            0.; -0.; 0.5; 0.1; 3.141592653589793; 1e15; -1e15; 1.5e15;
            999999999999999.; 4.9406564584124654e-324;
          ] );
    ]

let gen_name : string QCheck2.Gen.t =
  QCheck2.Gen.oneofl
    [ "build"; "detect"; "slice"; "recovery"; "token-vc"; "\"q\"\n\t\\" ]

let gen_window : Telemetry.window QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* idx = gen_count in
  let* t0 = gen_time in
  let* t1 = gen_time in
  let* events = gen_count in
  let* elims = gen_count in
  let* hops = gen_count in
  let* polls = gen_count in
  let* snapshots = gen_count in
  let* retx = gen_count in
  let* probes = gen_count in
  let* regens = gen_count in
  let* ckpts = gen_count in
  let* restores = gen_count in
  let* replays = gen_count in
  let* stand_downs = gen_count in
  let* hop_p50 = gen_time in
  let* hop_p95 = gen_time in
  let* cum_events = gen_count in
  let* cum_elims = gen_count in
  let* cum_retx = gen_count in
  let* cum_regens = gen_count in
  let* cum_ckpts = gen_count in
  let* cum_stand_downs = gen_count in
  return
    {
      Telemetry.idx;
      t0;
      t1;
      events;
      elims;
      hops;
      polls;
      snapshots;
      retx;
      probes;
      regens;
      ckpts;
      restores;
      replays;
      stand_downs;
      hop_p50;
      hop_p95;
      cum_events;
      cum_elims;
      cum_retx;
      cum_regens;
      cum_ckpts;
      cum_stand_downs;
    }

let gen_line : Telemetry.line QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [
      ( 1,
        let* algo = gen_name in
        let* n = gen_count in
        let* width = gen_count in
        let* every = gen_time in
        return (Telemetry.Meta { algo; n; width; every }) );
      (4, map (fun w -> Telemetry.Window w) gen_window);
      ( 2,
        let* phase = gen_name in
        let* p_t0 = gen_time in
        let* p_t1 = gen_time in
        let* alloc_bytes = gen_count in
        let* p_events = gen_count in
        return (Telemetry.Phase { phase; p_t0; p_t1; alloc_bytes; p_events })
      );
      ( 1,
        let* windows = gen_count in
        let* events = gen_count in
        let* elims = gen_count in
        let* hops = gen_count in
        let* phases = gen_count in
        return (Telemetry.Total { windows; events; elims; hops; phases }) );
    ]

let qtest ?(count = 500) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let codec_roundtrip =
  qtest "decode_line inverts encode_line" gen_line Telemetry.encode_line
    (fun l ->
      match Telemetry.decode_line (Telemetry.encode_line l) with
      | Error msg -> QCheck2.Test.fail_reportf "decode failed: %s" msg
      | Ok l' -> Telemetry.equal_line l l')

(* The per-window fast path in telemetry.ml bypasses the generic
   Json.emit; this is the property its comment promises. *)
let fast_path_bytes =
  qtest "encode_line matches the generic emitter" gen_line
    Telemetry.encode_line (fun l ->
      String.equal (Telemetry.encode_line l)
        (Export.Json.to_string (Telemetry.to_json l)))

let stream_roundtrip =
  qtest ~count:100 "decode inverts a whole stream"
    QCheck2.Gen.(list_size (int_range 0 30) gen_line)
    (fun ls -> String.concat "\n" (List.map Telemetry.encode_line ls))
    (fun ls ->
      let doc =
        String.concat "" (List.map (fun l -> Telemetry.encode_line l ^ "\n") ls)
      in
      match Telemetry.decode doc with
      | Error msg -> QCheck2.Test.fail_reportf "decode failed: %s" msg
      | Ok back ->
          List.length back = List.length ls
          && List.for_all2 Telemetry.equal_line back ls)

let test_decode_errors () =
  let bad s =
    match Telemetry.decode_line s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed line %S" s
  in
  bad "";
  bad "{";
  bad "[1]";
  bad {|{"type":"no_such_line"}|};
  bad {|{"type":"window","idx":0}|};
  (* missing fields *)
  bad {|{"type":"total","windows":1,"events":2,"elims":0,"hops":1}|}
(* missing phases *)

(* ------------------------------------------------------------------ *)
(* Window and phase mechanics on a synthetic stream                    *)
(* ------------------------------------------------------------------ *)

let collect () =
  let buf = Buffer.create 1024 in
  let tel =
    Telemetry.create
      ~alloc:(fun () -> 0.)
      ~sink:(fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      ()
  in
  (tel, fun () -> Buffer.contents buf)

let test_window_semantics () =
  let tel, contents = collect () in
  let seq = ref (-1) in
  let feed time body =
    incr seq;
    Telemetry.feed tel { Event.seq = !seq; time; proc = 0; body }
  in
  feed 0.0 (Event.Run_meta { algo = "token-vc"; n = 2; width = 2 });
  feed 0.5 (Event.Phase_marked { name = "build" });
  feed 1.0 (Event.Token_sent { seq = 0; dst = 1; g = [| 0; 0 |] });
  feed 2.0 (Event.Token_received { seq = 0 });
  (* Jumping to t=12 must close window 0 AND the empty window 1. *)
  feed 12.0 (Event.Phase_marked { name = "detect" });
  feed 13.0 Event.No_detection_declared;
  Telemetry.close tel;
  Telemetry.close tel;
  (* idempotent *)
  match Telemetry.decode (contents ()) with
  | Error msg -> Alcotest.failf "stream does not decode: %s" msg
  | Ok lines ->
      let windows =
        List.filter_map
          (function Telemetry.Window w -> Some w | _ -> None)
          lines
      in
      let phases =
        List.filter_map
          (function Telemetry.Phase p -> Some p | _ -> None)
          lines
      in
      Alcotest.(check (list int))
        "window indices are contiguous" [ 0; 1; 2 ]
        (List.map (fun w -> w.Telemetry.idx) windows);
      let w0 = List.nth windows 0 and w1 = List.nth windows 1 in
      Alcotest.(check int) "window 0 saw four events" 4 w0.Telemetry.events;
      Alcotest.(check int) "window 0 saw one hop" 1 w0.Telemetry.hops;
      Alcotest.(check (float 1e-9))
        "hop latency is received - sent" 1.0 w0.Telemetry.hop_p50;
      Alcotest.(check int) "skipped window is empty" 0 w1.Telemetry.events;
      Alcotest.(check (float 1e-9)) "windows are [5,10)" 5.0 w1.Telemetry.t0;
      Alcotest.(check (list string))
        "both phases closed" [ "build"; "detect" ]
        (List.map (fun p -> p.Telemetry.phase) phases);
      Alcotest.(check (float 1e-9))
        "build phase spans to the detect mark" 12.0
        (List.nth phases 0).Telemetry.p_t1;
      (match List.rev lines with
      | Telemetry.Total { windows = tw; events; phases = tp; _ } :: _ ->
          Alcotest.(check int) "total windows" 3 tw;
          Alcotest.(check int) "total events" 6 events;
          Alcotest.(check int) "total phases" 2 tp
      | _ -> Alcotest.fail "stream does not end with a total line");
      let page = Telemetry.prometheus tel in
      Alcotest.(check bool) "prometheus page has the event counter" true
        (let re = Str.regexp_string "wcp_events 6" in
         try
           ignore (Str.search_forward re page 0);
           true
         with Not_found -> false)

(* Taps on different domains share no encoder state: four domains each
   stream the same synthetic run (one window line per event) at once,
   and every stream must equal the sequential reference byte for byte. *)
let test_domains_share_nothing () =
  let stream () =
    let tel, contents = collect () in
    for i = 0 to 20_000 do
      Telemetry.feed tel
        { Event.seq = i; time = float_of_int i; proc = 0;
          body = Event.No_detection_declared }
    done;
    Telemetry.close tel;
    contents ()
  in
  let reference = stream () in
  List.init 4 (fun _ -> Domain.spawn stream)
  |> List.iteri (fun i d ->
         if Domain.join d <> reference then
           Alcotest.failf "domain %d: stream differs from the reference" i)

(* ------------------------------------------------------------------ *)
(* Live runs: invisibility, determinism, stream validation             *)
(* ------------------------------------------------------------------ *)

let comp_of ~n ~m ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred = 0.3; p_recv = 0.5 }
    ~seed ()

let detect algo ?recorder ~seed comp spec =
  (Result.get_ok (Detectors.find algo)).run ?recorder
    ~options:Detection.default_options ~groups:2 ~seed comp spec

(* A capacity-1 ring plus a telemetry tap is the bounded-memory
   always-on deployment the plane is built for; alloc sampling is
   stripped so the stream bytes depend on the event sequence alone. *)
let run_streamed algo ~n ~m ~seed =
  let comp = comp_of ~n ~m ~seed in
  let spec = Spec.all comp in
  let tel, contents = collect () in
  let recorder = Recorder.create ~capacity:1 () in
  Telemetry.attach tel recorder;
  let result = detect algo ~recorder ~seed comp spec in
  Telemetry.close tel;
  (result, contents (), Telemetry.lines tel)

let test_telemetry_invisible () =
  List.iter
    (fun seed ->
      let comp = comp_of ~n:6 ~m:10 ~seed in
      let spec = Spec.all comp in
      let plain = Token_vc.detect ~seed comp spec in
      let tapped, _, lines = run_streamed "token-vc" ~n:6 ~m:10 ~seed in
      Alcotest.check Helpers.outcome "same outcome" plain.outcome
        tapped.outcome;
      Alcotest.(check int) "same messages"
        (Stats.total_sent plain.stats)
        (Stats.total_sent tapped.stats);
      Alcotest.(check int) "same bits"
        (Stats.total_bits plain.stats)
        (Stats.total_bits tapped.stats);
      Alcotest.(check int) "same events" plain.events tapped.events;
      Alcotest.(check bool) "same sim time" true
        (plain.sim_time = tapped.sim_time);
      Alcotest.(check bool) "the plane saw the run" true (lines > 0))
    [ 1L; 2L; 3L ]

let test_stream_deterministic () =
  let _, a, _ = run_streamed "token-vc" ~n:6 ~m:10 ~seed:5L in
  let _, b, _ = run_streamed "token-vc" ~n:6 ~m:10 ~seed:5L in
  Alcotest.(check string) "same seed, same bytes" a b;
  let _, c, _ = run_streamed "token-vc" ~n:6 ~m:10 ~seed:6L in
  Alcotest.(check bool) "different seed, different stream" false (a = c)

(* Structural invariants every emitted stream must satisfy. *)
let validate_stream tag stream =
  match Telemetry.decode stream with
  | Error msg -> Alcotest.failf "%s: stream does not decode: %s" tag msg
  | Ok lines ->
      (* Re-encoding must reproduce the bytes (codec totality on real
         streams, not just generated lines). *)
      let re =
        String.concat ""
          (List.map (fun l -> Telemetry.encode_line l ^ "\n") lines)
      in
      if re <> stream then Alcotest.failf "%s: re-encode changed bytes" tag;
      let metas =
        List.filter (function Telemetry.Meta _ -> true | _ -> false) lines
      in
      if List.length metas <> 1 then
        Alcotest.failf "%s: expected exactly one meta line" tag;
      let windows =
        List.filter_map
          (function Telemetry.Window w -> Some w | _ -> None)
          lines
      in
      List.iteri
        (fun i w ->
          if w.Telemetry.idx <> i then
            Alcotest.failf "%s: window %d has idx %d" tag i w.Telemetry.idx;
          if w.Telemetry.t1 <= w.Telemetry.t0 then
            Alcotest.failf "%s: window %d is empty-width" tag i)
        windows;
      let rec cum_monotone last = function
        | [] -> ()
        | w :: rest ->
            if w.Telemetry.cum_events < last then
              Alcotest.failf "%s: cumulative gauge went backwards" tag;
            cum_monotone w.Telemetry.cum_events rest
      in
      cum_monotone 0 windows;
      let phase_count =
        List.length
          (List.filter (function Telemetry.Phase _ -> true | _ -> false) lines)
      in
      match List.rev lines with
      | Telemetry.Total { windows = tw; phases = tp; events; _ } :: _ ->
          if tw <> List.length windows then
            Alcotest.failf "%s: total says %d windows, stream has %d" tag tw
              (List.length windows);
          if tp <> phase_count then
            Alcotest.failf "%s: total says %d phases, stream has %d" tag tp
              phase_count;
          List.iter
            (fun w ->
              if w.Telemetry.cum_events > events then
                Alcotest.failf "%s: window gauge exceeds the total" tag)
            windows
      | _ -> Alcotest.failf "%s: stream does not end with a total line" tag

let corpus ~algos ~sizes ~seeds =
  List.iter
    (fun algo ->
      List.iter
        (fun (n, m) ->
          List.iter
            (fun s ->
              let seed = Int64.of_int s in
              let tag = Printf.sprintf "%s n=%d m=%d seed=%d" algo n m s in
              let _, stream, _ = run_streamed algo ~n ~m ~seed in
              validate_stream tag stream;
              let _, again, _ = run_streamed algo ~n ~m ~seed in
              if stream <> again then
                Alcotest.failf "%s: stream is not deterministic" tag)
            seeds)
        sizes)
    algos

let test_stream_smoke () =
  corpus ~algos:[ "token-vc"; "token-dd" ] ~sizes:[ (5, 8) ] ~seeds:[ 1 ]

let test_stream_corpus () =
  if Sys.getenv_opt "WCP_TELEMETRY_CHECK" = None then ()
  else
    corpus ~algos:Detectors.names
      ~sizes:[ (4, 8); (8, 12); (12, 10) ]
      ~seeds:[ 1; 2; 3 ]

let () =
  Alcotest.run "telemetry"
    [
      ( "codec",
        [
          codec_roundtrip;
          fast_path_bytes;
          stream_roundtrip;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_decode_errors;
        ] );
      ( "windows",
        [
          Alcotest.test_case "window and phase mechanics" `Quick
            test_window_semantics;
          Alcotest.test_case "taps on four domains" `Quick
            test_domains_share_nothing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tap is invisible" `Quick
            test_telemetry_invisible;
          Alcotest.test_case "equal seeds, identical bytes" `Quick
            test_stream_deterministic;
        ] );
      ( "streams",
        [
          Alcotest.test_case "emitted streams validate (smoke)" `Quick
            test_stream_smoke;
          Alcotest.test_case "full corpus (WCP_TELEMETRY_CHECK=1)" `Slow
            test_stream_corpus;
        ] );
    ]
