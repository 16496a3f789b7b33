(* wcp-btrace/1 (Wcp_trace.Btrace): the binary store must be an exact
   stand-in for the text codec. The properties here pin the contract of
   DESIGN.md §12: text <-> btrace <-> text round-trips are lossless (and
   re-encodes byte-identical), the streaming writer produces the same
   bytes as the dense encoder, every read path autodetects the magic,
   structural damage dies as [Btrace.Corrupt] (wrapped into a clean
   [Trace_codec.Parse_error] by the codec entry points), and a streamed
   detection run spells out the same first cut as the dense reference.
   A bounded smoke and the full corpus sweep both run. *)

open Wcp_trace
open Wcp_core

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let params ~n ~m ~p_pred =
  { Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }

let random_comp ~n ~m ~p_pred ~seed =
  Generator.random ~params:(params ~n ~m ~p_pred) ~seed ()

(* Random shapes, including n=1 (necessarily message-free) and m=0. *)
let gen_comp =
  QCheck2.Gen.(
    map
      (fun (n, m, seed, dense_pred) ->
        let n = 1 + n in
        let m = if n = 1 then 0 else m in
        let p_pred = if dense_pred then 0.5 else 0.1 in
        random_comp ~n ~m ~p_pred ~seed:(Int64.of_int seed))
      (tup4 (int_range 0 9) (int_range 0 15) (int_range 1 10_000) bool))

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

let with_temp_file suffix f =
  let path = Filename.temp_file "wcp_btrace_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Round trips --------------------------------------------------- *)

let prop_roundtrip_structural =
  qtest ~count:120 "btrace: decode (encode c) == c" gen_comp (fun comp ->
      same_computation comp (Btrace.decode (Btrace.encode comp)))

let prop_reencode_identity =
  qtest ~count:120 "btrace: re-encode is byte-identical" gen_comp (fun comp ->
      let img = Btrace.encode comp in
      String.equal img (Btrace.encode (Btrace.decode img)))

let prop_text_btrace_text =
  (* The full interchange loop: canonical text -> btrace -> canonical
     text must be byte-identical (so is the reverse, by the re-encode
     property above). *)
  qtest ~count:120 "text -> btrace -> text is byte-identical" gen_comp
    (fun comp ->
      let text = Trace_codec.encode comp in
      let comp' = Btrace.decode (Btrace.encode (Trace_codec.decode text)) in
      String.equal text (Trace_codec.encode comp'))

let prop_autodetect_decode =
  qtest ~count:60 "Trace_codec.decode autodetects the magic" gen_comp
    (fun comp ->
      same_computation comp (Trace_codec.decode (Btrace.encode comp)))

let prop_source_materialize =
  qtest ~count:60 "Stream.materialize (source r) == original" gen_comp
    (fun comp ->
      let r = Btrace.of_string (Btrace.encode comp) in
      same_computation comp (Computation.Stream.materialize (Btrace.source r)))

let prop_reader_accessors =
  qtest ~count:60 "reader header accessors match the computation" gen_comp
    (fun comp ->
      let img = Btrace.encode comp in
      let r = Btrace.of_string img in
      Btrace.num_processes r = Computation.n comp
      && Btrace.num_messages r = Array.length (Computation.messages comp)
      && Btrace.trace_bytes r = String.length img
      && Btrace.total_events r
         = Array.fold_left ( + ) 0
             (Array.init (Computation.n comp) (fun p ->
                  List.length (Computation.ops comp p))))

(* --- Streaming writer vs dense encoder ----------------------------- *)

let prop_writer_bytes =
  (* [Generator.random_btrace] streams through [Btrace.Writer] while
     [Generator.random] materialises through [Builder]; same params and
     seed must put the exact same bytes on disk as [Btrace.encode]. *)
  qtest ~count:30 "random_btrace file == encode (random ())"
    QCheck2.Gen.(tup3 (int_range 2 8) (int_range 1 40) (int_range 1 10_000))
    (fun (n, m, seed) ->
      let params = params ~n ~m ~p_pred:0.3 in
      let seed = Int64.of_int seed in
      with_temp_file ".btrace" (fun path ->
          let states, messages = Generator.random_btrace ~params ~seed path in
          let comp = Generator.random ~params ~seed () in
          states = Computation.total_states comp
          && messages = Array.length (Computation.messages comp)
          && String.equal (read_bytes path) (Btrace.encode comp)))

(* --- Structural damage --------------------------------------------- *)

let raises_corrupt f =
  match f () with
  | (_ : Computation.t) -> Alcotest.fail "expected Btrace.Corrupt"
  | exception Btrace.Corrupt _ -> ()

let set_u64 b off v =
  for k = 0 to 7 do
    Bytes.set b (off + k) (Char.chr ((v lsr (8 * k)) land 0xff))
  done

let test_corrupt_fixtures () =
  let comp = random_comp ~n:4 ~m:10 ~p_pred:0.3 ~seed:7L in
  let img = Btrace.encode comp in
  (* Truncated header: magic alone is not a file. *)
  raises_corrupt (fun () -> Btrace.decode (String.sub img 0 8));
  (* Truncated mid-section. *)
  raises_corrupt (fun () ->
      Btrace.decode (String.sub img 0 (String.length img - 5)));
  (* Trailing garbage after the last section. *)
  raises_corrupt (fun () -> Btrace.decode (img ^ "\x00"));
  (* Mutations: each writes one header/index field and must be caught
     by the eager open-time validation. *)
  let mutated off v =
    let b = Bytes.of_string img in
    set_u64 b off v;
    Bytes.to_string b
  in
  (* n = 0. *)
  raises_corrupt (fun () -> Btrace.decode (mutated 8 0));
  (* Absurd per-process event count (offset/size overflow bait). *)
  raises_corrupt (fun () -> Btrace.decode (mutated (32 + 8) max_int));
  (* total_ops disagreeing with the index. *)
  raises_corrupt (fun () -> Btrace.decode (mutated 24 1));
  (* A 64-bit field with the top bit set exceeds OCaml's int range. *)
  raises_corrupt (fun () ->
      let b = Bytes.of_string img in
      Bytes.set b 31 '\x80';
      Btrace.decode (Bytes.to_string b));
  (* Non-canonical section offset. *)
  raises_corrupt (fun () -> Btrace.decode (mutated 32 33))

let test_corrupt_wrapped_as_parse_error () =
  (* The text entry points present binary damage as a line-0
     Parse_error, never a bare Corrupt. *)
  let check_parse_error ~prefix f =
    match f () with
    | (_ : Computation.t) -> Alcotest.fail "expected Parse_error"
    | exception Trace_codec.Parse_error { line; message } ->
        Alcotest.(check int) "line" 0 line;
        if not (String.length message >= String.length prefix
                && String.sub message 0 (String.length prefix) = prefix)
        then
          Alcotest.failf "message %S does not start with %S" message prefix
  in
  let comp = random_comp ~n:3 ~m:6 ~p_pred:0.3 ~seed:3L in
  let img = Btrace.encode comp in
  let truncated = String.sub img 0 20 in
  check_parse_error ~prefix:"btrace: " (fun () -> Trace_codec.decode truncated);
  with_temp_file ".btrace" (fun path ->
      let oc = open_out_bin path in
      output_string oc truncated;
      close_out oc;
      check_parse_error ~prefix:"btrace: " (fun () ->
          Trace_codec.read_file path));
  (* Causal unsoundness in a structurally clean file: the writer does
     not validate, the reading side must. *)
  with_temp_file ".btrace" (fun path ->
      let w = Btrace.Writer.create path ~n:2 in
      let _msg = Btrace.Writer.send w ~src:0 ~dst:1 in
      Btrace.Writer.close w;
      check_parse_error ~prefix:"invalid computation: " (fun () ->
          Trace_codec.read_file path))

let test_writer_abort () =
  (* abort must leave neither the target nor the spill file behind. *)
  let path = Filename.temp_file "wcp_btrace_abort" ".btrace" in
  Sys.remove path;
  let w = Btrace.Writer.create path ~n:2 in
  let _ = Btrace.Writer.send w ~src:0 ~dst:1 in
  Btrace.Writer.abort w;
  Alcotest.(check bool) "no spill" false (Sys.file_exists (path ^ ".spill"));
  Alcotest.(check bool) "no target" false (Sys.file_exists path)

(* --- Streamed detection == dense detection ------------------------- *)

let outcome = Alcotest.testable Detection.pp_outcome Detection.outcome_equal

(* Mirror the CLI's [--stream] plumbing: slice straight off the mmap
   cursor, detect on the slice, remap the cut to dense coordinates. *)
let streamed_outcome reader ~procs ~detect ~keep_rest =
  (Run_common.with_source ~keep_rest (Btrace.source reader) ~procs
     ~run:(fun sliced spec' -> detect sliced spec'))
    .Detection.outcome

let stream_sweep ~sizes ~densities ~seeds =
  let seed = 1L in
  List.iter
    (fun (n, m) ->
      List.iter
        (fun p_pred ->
          List.iter
            (fun s ->
              let comp = random_comp ~n ~m ~p_pred ~seed:(Int64.of_int s) in
              let reader = Btrace.of_string (Btrace.encode comp) in
              let specs =
                Array.init n Fun.id
                :: (if n < 2 then []
                    else [ Array.init ((n + 1) / 2) (fun i -> 2 * i) ])
              in
              List.iter
                (fun procs ->
                  let spec = Spec.make comp procs in
                  let here name =
                    Printf.sprintf "%s n=%d m=%d p=%.2f w=%d seed=%d" name n m
                      p_pred (Array.length procs) s
                  in
                  let agree name dense streamed =
                    Alcotest.check outcome (here name) dense streamed
                  in
                  let groups = max 1 (Array.length procs / 2) in
                  List.iter
                    (fun (d : Detectors.t) ->
                      let run comp spec =
                        d.run ~options:Detection.default_options ~groups ~seed
                          comp spec
                      in
                      let project = Detectors.spec_outcome d spec in
                      agree d.name
                        (project (run comp spec).Detection.outcome)
                        (project
                           (streamed_outcome reader ~procs
                              ~keep_rest:d.keep_rest ~detect:run)))
                    Detectors.all)
                specs)
            seeds)
        densities)
    sizes

(* Causal unsoundness in structurally clean images, one per defect
   [Computation.Stream.walk] names: the dense reader, the walk the
   service client streams and the streamed path of [detect --stream]
   must refuse each in the same words, for every detector, instead of
   printing a cut or dying on an internal error. *)
let unsound_images () =
  let valid ops =
    Btrace.encode
      (Computation.of_raw ~ops
         ~pred:(Array.map (fun o -> Array.make (List.length o + 1) false) ops))
  in
  (* Overwrite event [k] of process [p] with [word]. *)
  let edit img edits =
    let b = Bytes.of_string img in
    List.iter
      (fun (p, k, word) ->
        let ops_off = Int64.to_int (String.get_int64_le img (32 + (24 * p))) in
        set_u64 b (ops_off + (8 * k)) word)
      edits;
    Bytes.to_string b
  in
  (* The header's message count, raised so an edited id stays in range. *)
  let with_msgs count img =
    let b = Bytes.of_string img in
    set_u64 b 16 count;
    Bytes.to_string b
  in
  let written n f =
    with_temp_file ".btrace" (fun path ->
        let w = Btrace.Writer.create path ~n in
        f w;
        Btrace.Writer.close w;
        read_bytes path)
  in
  let open Computation in
  [
    ( "message 0 addressed to 1 but received by 2",
      written 3 (fun w ->
          let msg = Btrace.Writer.send w ~src:0 ~dst:1 in
          Btrace.Writer.recv w ~dst:2 ~msg) );
    ( "message 0 never received",
      written 2 (fun w -> ignore (Btrace.Writer.send w ~src:0 ~dst:1)) );
    ( "process 0 blocked at event 0: causal cycle in trace",
      edit
        (valid
           [|
             [ Send { dst = 1; msg = 0 }; Recv { msg = 1 } ];
             [ Recv { msg = 0 }; Send { dst = 0; msg = 1 } ];
           |])
        [
          (0, 0, Btrace.pack_recv ~msg:1);
          (0, 1, Btrace.pack_send ~dst:1 ~msg:0);
        ] );
    ( "message 0 sent twice",
      edit
        (valid
           [|
             [ Send { dst = 1; msg = 0 }; Send { dst = 1; msg = 1 } ];
             [ Recv { msg = 0 }; Recv { msg = 1 } ];
           |])
        [ (0, 1, Btrace.pack_send ~dst:1 ~msg:0) ] );
    ( "message 0 is a self-send on 0",
      edit
        (valid [| [ Send { dst = 1; msg = 0 } ]; [ Recv { msg = 0 } ] |])
        [ (0, 0, Btrace.pack_send ~dst:0 ~msg:0) ] );
    (* The only message is number 5: the ids are not dense. *)
    ( "message id 0 never sent",
      with_msgs 6
        (edit
           (valid [| [ Send { dst = 1; msg = 0 } ]; [ Recv { msg = 0 } ] |])
           [
             (0, 0, Btrace.pack_send ~dst:1 ~msg:5);
             (1, 0, Btrace.pack_recv ~msg:5);
           ]) );
    (* Message 0 sent again after its receipt. *)
    ( "message 0 sent twice",
      edit
        (valid
           [|
             [ Send { dst = 1; msg = 0 }; Recv { msg = 1 }; Send { dst = 1; msg = 2 } ];
             [ Recv { msg = 0 }; Send { dst = 0; msg = 1 }; Recv { msg = 2 } ];
           |])
        [
          (0, 2, Btrace.pack_send ~dst:1 ~msg:0);
          (1, 2, Btrace.pack_recv ~msg:0);
        ] );
    (* A receive of message 7, above every sent id. *)
    ( "message id 7 never sent",
      with_msgs 8
        (edit
           (valid
              [|
                [ Send { dst = 1; msg = 0 }; Recv { msg = 1 } ];
                [ Recv { msg = 0 }; Send { dst = 0; msg = 1 } ];
              |])
           [ (0, 1, Btrace.pack_recv ~msg:7) ]) );
  ]

let test_unsound_streamed () =
  List.iter
    (fun (expected, img) ->
      (match Btrace.decode img with
      | (_ : Computation.t) -> Alcotest.failf "dense read accepted: %s" expected
      | exception Computation.Invalid m ->
          Alcotest.(check string) "dense" expected m);
      let reader = Btrace.of_string img in
      (* the walk alone, as the service client streams the file *)
      (match
         Computation.Stream.walk (Btrace.source reader)
           ~send:(fun ~proc:_ ~dst:_ ~msg:_ ~pred:_ -> ())
           ~receive:(fun ~proc:_ ~msg:_ ~pred:_ -> ())
       with
      | () -> Alcotest.failf "walk accepted: %s" expected
      | exception Computation.Invalid m ->
          Alcotest.(check string) "walk" expected m);
      let procs = Array.init (Btrace.num_processes reader) Fun.id in
      List.iter
        (fun (d : Detectors.t) ->
          let detect comp spec =
            d.run ~options:Detection.default_options ~groups:1 ~seed:1L comp
              spec
          in
          match
            streamed_outcome reader ~procs ~keep_rest:d.keep_rest ~detect
          with
          | (_ : Detection.outcome) ->
              Alcotest.failf "%s --stream accepted: %s" d.name expected
          | exception Computation.Invalid m ->
              Alcotest.(check string) (d.name ^ " --stream") expected m)
        Detectors.all)
    (unsound_images ())

let test_stream_smoke () =
  stream_sweep ~sizes:[ (4, 8); (5, 6) ] ~densities:[ 0.3 ] ~seeds:[ 1; 2 ]

let test_stream_full () =
  stream_sweep
    ~sizes:[ (2, 10); (3, 8); (4, 12); (8, 12); (16, 10) ]
    ~densities:[ 0.02; 0.1; 0.3; 0.6 ]
    ~seeds:[ 1; 2; 3; 4; 5 ]

(* --- Corpus convert round-trip ---------------------------------------- *)

let corpus_roundtrip () =
  (* dune runs tests from the build directory; the traces live in the
     source tree, two levels up. *)
  let dir =
    let candidates = [ "../../traces"; "../traces"; "traces" ] in
    match List.find_opt Sys.file_exists candidates with
    | Some d -> d
    | None -> Alcotest.fail "trace corpus directory not found"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun f ->
      let comp = Trace_codec.read_file (Filename.concat dir f) in
      let canon = Trace_codec.encode comp in
      let back = Trace_codec.decode (Btrace.encode comp) in
      Alcotest.(check string) f canon (Trace_codec.encode back))
    files

(* --- Cursor edge cases --------------------------------------------- *)

let corrupts name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Btrace.Corrupt" name
  | exception Btrace.Corrupt m ->
      Alcotest.(check bool) (name ^ ": message non-empty") true (m <> "")

(* The mmap cursor on degenerate and out-of-range inputs: an empty
   (single-process, zero-event) trace reads cleanly, and every read
   past the recorded shape dies as a named [Corrupt] — never a crash,
   never garbage bytes. *)
let test_source_cursor_edges () =
  let open Computation.Stream in
  (* single-process trace: necessarily message-free — one state, no ops *)
  let empty = random_comp ~n:1 ~m:0 ~p_pred:0.5 ~seed:7L in
  let s = Btrace.source (Btrace.of_string (Btrace.encode empty)) in
  Alcotest.(check int) "n" 1 s.src_n;
  Alcotest.(check int) "no events" 0 (s.num_ops 0);
  let (_ : bool) = s.pred ~proc:0 ~state:1 in
  corrupts "op on an empty process" (fun () -> s.op ~proc:0 ~k:0);
  corrupts "num_ops past n" (fun () -> s.num_ops 1);
  corrupts "num_ops negative" (fun () -> s.num_ops (-1));
  corrupts "pred state 0" (fun () -> s.pred ~proc:0 ~state:0);
  corrupts "pred past last state" (fun () -> s.pred ~proc:0 ~state:2);
  (* populated trace: cursor exactly past a process's ops *)
  let comp = random_comp ~n:4 ~m:6 ~p_pred:0.4 ~seed:11L in
  let s = Btrace.source (Btrace.of_string (Btrace.encode comp)) in
  let k = s.num_ops 0 in
  if k > 0 then begin
    let (_ : Computation.op) = s.op ~proc:0 ~k:(k - 1) in
    ()
  end;
  corrupts "op past total_ops" (fun () -> s.op ~proc:0 ~k);
  corrupts "op negative" (fun () -> s.op ~proc:0 ~k:(-1));
  corrupts "op proc out of range" (fun () -> s.op ~proc:4 ~k:0);
  corrupts "pred past last state" (fun () -> s.pred ~proc:0 ~state:(k + 2))

let () =
  Alcotest.run "btrace"
    [
      ( "roundtrip",
        [
          prop_roundtrip_structural;
          prop_reencode_identity;
          prop_text_btrace_text;
          prop_autodetect_decode;
          prop_source_materialize;
          prop_reader_accessors;
        ] );
      ("writer", [ prop_writer_bytes ]);
      ( "corrupt",
        [
          Alcotest.test_case "structural fixtures" `Quick test_corrupt_fixtures;
          Alcotest.test_case "wrapped as Parse_error" `Quick
            test_corrupt_wrapped_as_parse_error;
          Alcotest.test_case "writer abort cleans up" `Quick test_writer_abort;
        ] );
      ( "stream",
        [
          Alcotest.test_case "cursor edge cases" `Quick
            test_source_cursor_edges;
          Alcotest.test_case "dense vs streamed smoke" `Quick test_stream_smoke;
          Alcotest.test_case "unsound streams refused" `Quick
            test_unsound_streamed;
          Alcotest.test_case "full corpus" `Slow test_stream_full;
          Alcotest.test_case "corpus convert round-trip" `Quick
            corpus_roundtrip;
        ] );
    ]
