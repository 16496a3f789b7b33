open Wcp_trace
open Wcp_clocks

let qtest = Helpers.qtest

let st p k = State.make ~proc:p ~index:k

(* The worked example used throughout: three processes, four messages.

     P0:  s1 --a--> s2 --------------- r(d) --> s3
     P1:  s1 --r(a)--> s2 --b--> s3 --c--> s4
     P2:  s1 --r(b)--> s2 --d--> s3 --r(c)--> s4

   a: P0->P1, b: P1->P2, c: P1->P2, d: P2->P0. *)
let example () =
  let b = Builder.create ~n:3 in
  let a = Builder.send b ~src:0 ~dst:1 in
  Builder.recv b ~dst:1 a;
  let mb = Builder.send b ~src:1 ~dst:2 in
  Builder.recv b ~dst:2 mb;
  let mc = Builder.send b ~src:1 ~dst:2 in
  let md = Builder.send b ~src:2 ~dst:0 in
  Builder.recv b ~dst:2 mc;
  Builder.recv b ~dst:0 md;
  Builder.set_pred b ~proc:0 true;
  Builder.finish b

let test_shape () =
  let c = example () in
  Alcotest.(check int) "n" 3 (Computation.n c);
  Alcotest.(check int) "states P0" 3 (Computation.num_states c 0);
  Alcotest.(check int) "states P1" 4 (Computation.num_states c 1);
  Alcotest.(check int) "states P2" 4 (Computation.num_states c 2);
  Alcotest.(check int) "total" 11 (Computation.total_states c);
  Alcotest.(check int) "messages" 4 (Array.length (Computation.messages c));
  Alcotest.(check int) "max events" 3 (Computation.max_events_per_process c)

let test_vector_clocks () =
  let c = example () in
  let check_vc s expect =
    Alcotest.(check (array int))
      (State.to_string s) expect
      (Vector_clock.to_array (Computation.vc c s))
  in
  check_vc (st 0 1) [| 1; 0; 0 |];
  check_vc (st 0 2) [| 2; 0; 0 |];
  check_vc (st 1 1) [| 0; 1; 0 |];
  check_vc (st 1 2) [| 1; 2; 0 |];
  check_vc (st 1 3) [| 1; 3; 0 |];
  check_vc (st 1 4) [| 1; 4; 0 |];
  check_vc (st 2 2) [| 1; 2; 2 |];
  check_vc (st 2 3) [| 1; 2; 3 |];
  (* P2 receives c (sent from (1,3)) entering state 4. *)
  check_vc (st 2 4) [| 1; 3; 4 |];
  (* P0 receives d (sent from (2,2)) entering state 3. *)
  check_vc (st 0 3) [| 3; 2; 2 |]

let test_happened_before () =
  let c = example () in
  Alcotest.(check bool) "same process" true
    (Computation.happened_before c (st 1 1) (st 1 3));
  Alcotest.(check bool) "via message a" true
    (Computation.happened_before c (st 0 1) (st 1 2));
  Alcotest.(check bool) "transitive a;b" true
    (Computation.happened_before c (st 0 1) (st 2 2));
  Alcotest.(check bool) "not backwards" false
    (Computation.happened_before c (st 1 2) (st 0 1));
  Alcotest.(check bool) "d reaches P0" true
    (Computation.happened_before c (st 2 1) (st 0 3));
  Alcotest.(check bool) "concurrent pair" true
    (Computation.concurrent c (st 0 2) (st 1 2));
  Alcotest.(check bool) "state concurrent with itself is false" false
    (Computation.concurrent c (st 0 2) (st 0 2))

let test_dep_at () =
  let c = example () in
  Alcotest.(check bool) "initial state has no dep" true
    (Computation.dep_at c (st 0 1) = None);
  Alcotest.(check bool) "send creates no dep" true
    (Computation.dep_at c (st 0 2) = None);
  (match Computation.dep_at c (st 1 2) with
  | Some { Dependence.src = 0; clock = 1 } -> ()
  | _ -> Alcotest.fail "P1 state 2 should depend on (0,1)");
  (match Computation.dep_at c (st 2 4) with
  | Some { Dependence.src = 1; clock = 3 } -> ()
  | _ -> Alcotest.fail "P2 state 4 should depend on (1,3)");
  match Computation.dep_at c (st 0 3) with
  | Some { Dependence.src = 2; clock = 2 } -> ()
  | _ -> Alcotest.fail "P0 state 3 should depend on (2,2)"

let test_candidates () =
  let c = example () in
  Alcotest.(check (list int)) "P0 pred-true states" [ 3 ]
    (Computation.candidates c 0);
  Alcotest.(check (list int)) "P1 none" [] (Computation.candidates c 1)

let test_message_endpoints () =
  let c = example () in
  let m = (Computation.messages c).(3) in
  Alcotest.(check int) "src" 2 m.Computation.src;
  Alcotest.(check int) "src_state" 2 m.Computation.src_state;
  Alcotest.(check int) "dst" 0 m.Computation.dst;
  Alcotest.(check int) "dst_state" 3 m.Computation.dst_state

(* ------------------------------------------------------------------ *)
(* of_raw validation                                                   *)
(* ------------------------------------------------------------------ *)

let expect_invalid name ops pred =
  match Computation.of_raw ~ops ~pred with
  | exception Computation.Invalid _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid" name

let test_validation () =
  let send dst msg = Computation.Send { dst; msg } in
  let recv msg = Computation.Recv { msg } in
  expect_invalid "sent twice"
    [| [ send 1 0; send 1 0 ]; [ recv 0 ] |]
    [| [| false; false; false |]; [| false; false |] |];
  expect_invalid "received twice"
    [| [ send 1 0 ]; [ recv 0; recv 0 ] |]
    [| [| false; false |]; [| false; false; false |] |];
  expect_invalid "never received"
    [| [ send 1 0 ]; [] |]
    [| [| false; false |]; [| false |] |];
  expect_invalid "never sent"
    [| []; [ recv 0 ] |]
    [| [| false |]; [| false; false |] |];
  expect_invalid "wrong receiver: addressed to 1, received by 0"
    [| [ send 1 0; recv 0 ]; [] |]
    [| [| false; false; false |]; [| false |] |];
  expect_invalid "self send"
    [| [ send 0 0; recv 0 ]; [] |]
    [| [| false; false; false |]; [| false |] |];
  expect_invalid "causal cycle"
    [| [ recv 1; send 1 0 ]; [ recv 0; send 0 1 ] |]
    [| [| false; false; false |]; [| false; false; false |] |];
  expect_invalid "pred length mismatch"
    [| [ send 1 0 ]; [ recv 0 ] |]
    [| [| false |]; [| false; false |] |];
  expect_invalid "empty computation" [||] [||];
  expect_invalid "invalid dst"
    [| [ send 7 0 ]; [ recv 0 ] |]
    [| [| false; false |]; [| false; false |] |]

let test_zero_event_process () =
  let c =
    Computation.of_raw
      ~ops:[| []; [] |]
      ~pred:[| [| true |]; [| false |] |]
  in
  Alcotest.(check int) "one state each" 1 (Computation.num_states c 0);
  Alcotest.(check bool) "pred" true (Computation.pred c (st 0 1));
  Alcotest.(check bool) "initials concurrent" true
    (Computation.concurrent c (st 0 1) (st 1 1))

(* ------------------------------------------------------------------ *)
(* Properties on random computations                                   *)
(* ------------------------------------------------------------------ *)

let prop_vc_iff_hb =
  qtest ~count:100 "vector clocks characterise happened-before"
    Helpers.gen_small_comp (fun comp ->
      let states = Helpers.all_states comp in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              if State.equal a b then true
              else
                let hb = Computation.happened_before comp a b in
                let vc_lt =
                  Vector_clock.lt (Computation.vc comp a) (Computation.vc comp b)
                in
                if a.State.proc = b.State.proc then
                  hb = (a.State.index < b.State.index)
                else hb = vc_lt)
            states)
        states)

let prop_vc_property_2 =
  (* Paper §3.1, property 2: "Let v be a vector on P_i. Then, for any j
     different from i, (j, v[j]) -> (i, v[i])". *)
  qtest ~count:100 "§3.1 property 2 of vector clocks" Helpers.gen_small_comp
    (fun comp ->
      List.for_all
        (fun (s : State.t) ->
          let v = Computation.vc comp s in
          let n = Computation.n comp in
          let rec ok j =
            j = n
            || ((j = s.State.proc
                || Vector_clock.get v j = 0
                || Computation.happened_before comp
                     (State.make ~proc:j ~index:(Vector_clock.get v j))
                     s)
               && ok (j + 1))
          in
          ok 0)
        (Helpers.all_states comp))

let prop_hb_transitive =
  qtest ~count:60 "happened-before is transitive" Helpers.gen_small_comp
    (fun comp ->
      let states = Array.of_list (Helpers.all_states comp) in
      let k = Array.length states in
      let ok = ref true in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          for l = 0 to k - 1 do
            if
              Computation.happened_before comp states.(i) states.(j)
              && Computation.happened_before comp states.(j) states.(l)
              && not (Computation.happened_before comp states.(i) states.(l))
            then ok := false
          done
        done
      done;
      !ok)

let prop_hb_irreflexive_antisymmetric =
  qtest ~count:100 "happened-before is a strict order" Helpers.gen_small_comp
    (fun comp ->
      let states = Helpers.all_states comp in
      List.for_all
        (fun a ->
          (not (Computation.happened_before comp a a))
          && List.for_all
               (fun b ->
                 not
                   (Computation.happened_before comp a b
                   && Computation.happened_before comp b a))
               states)
        states)

let prop_message_causality =
  qtest ~count:100 "every message's send precedes its receive"
    Helpers.gen_medium_comp (fun comp ->
      Array.for_all
        (fun (m : Computation.message) ->
          Computation.happened_before comp
            (st m.Computation.src m.Computation.src_state)
            (st m.Computation.dst m.Computation.dst_state))
        (Computation.messages comp))

let prop_dep_matches_messages =
  qtest ~count:100 "dep_at mirrors the message table" Helpers.gen_medium_comp
    (fun comp ->
      Array.for_all
        (fun (m : Computation.message) ->
          match Computation.dep_at comp (st m.Computation.dst m.Computation.dst_state) with
          | Some { Dependence.src; clock } ->
              src = m.Computation.src && clock = m.Computation.src_state
          | None -> false)
        (Computation.messages comp))

(* ------------------------------------------------------------------ *)
(* Cut                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cut_validation () =
  let chk name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  chk "empty" (fun () -> Cut.make ~procs:[||] ~states:[||]);
  chk "length mismatch" (fun () -> Cut.make ~procs:[| 0; 1 |] ~states:[| 1 |]);
  chk "unsorted" (fun () -> Cut.make ~procs:[| 1; 0 |] ~states:[| 1; 1 |]);
  chk "duplicate" (fun () -> Cut.make ~procs:[| 1; 1 |] ~states:[| 1; 1 |]);
  chk "state zero" (fun () -> Cut.make ~procs:[| 0 |] ~states:[| 0 |])

let test_cut_consistency () =
  let c = example () in
  let cut states = Cut.over_all c states in
  Alcotest.(check bool) "initial cut consistent" true
    (Cut.consistent c (cut [| 1; 1; 1 |]));
  (* (0,1) happened before (1,2) via message a. *)
  Alcotest.(check bool) "inconsistent cut" false
    (Cut.consistent c (cut [| 1; 2; 1 |]));
  Alcotest.(check int) "violations listed" 1
    (List.length (Cut.violations c (cut [| 1; 2; 1 |])));
  Alcotest.(check bool) "later consistent cut" true
    (Cut.consistent c (cut [| 2; 2; 1 |]))

let test_cut_satisfies () =
  let c = example () in
  (* Only (0,3) has a true predicate; over procs [|0|]. *)
  let good = Cut.make ~procs:[| 0 |] ~states:[| 3 |] in
  let bad = Cut.make ~procs:[| 0 |] ~states:[| 2 |] in
  Alcotest.(check bool) "satisfying" true (Cut.satisfies c good);
  Alcotest.(check bool) "pred false" false (Cut.satisfies c bad)

let test_cut_order () =
  let a = Cut.make ~procs:[| 0; 2 |] ~states:[| 1; 4 |] in
  let b = Cut.make ~procs:[| 0; 2 |] ~states:[| 2; 4 |] in
  let c = Cut.make ~procs:[| 0; 1 |] ~states:[| 2; 4 |] in
  Alcotest.(check bool) "leq" true (Cut.pointwise_leq a b);
  Alcotest.(check bool) "not geq" false (Cut.pointwise_leq b a);
  Alcotest.(check bool) "different procs incomparable" false
    (Cut.pointwise_leq b c);
  Alcotest.(check bool) "equal" true (Cut.equal a a);
  Alcotest.(check string) "pp" "{0:1 2:4}" (Cut.to_string a)

let prop_cut_consistency_via_violations =
  qtest ~count:100 "consistent iff no violations" Helpers.gen_small_comp
    (fun comp ->
      List.for_all
        (fun seed ->
          let cut = Cut.over_all comp (Helpers.random_full_cut comp seed) in
          Cut.consistent comp cut = (Cut.violations comp cut = []))
        [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let comp_equal a b =
  Computation.n a = Computation.n b
  && List.for_all
       (fun p ->
         Computation.ops a p = Computation.ops b p
         && List.for_all
              (fun k ->
                Computation.pred a (st p k) = Computation.pred b (st p k))
              (List.init (Computation.num_states a p) (fun k -> k + 1)))
       (List.init (Computation.n a) Fun.id)

let prop_codec_roundtrip =
  qtest ~count:150 "encode/decode round-trips" Helpers.gen_medium_comp
    (fun comp -> comp_equal comp (Trace_codec.decode (Trace_codec.encode comp)))

let test_codec_example () =
  let c = example () in
  let text = Trace_codec.encode c in
  Alcotest.(check bool) "mentions header" true
    (String.length text > 12 && String.sub text 0 12 = "wcp-trace v1");
  let c' = Trace_codec.decode text in
  Alcotest.(check bool) "roundtrip" true (comp_equal c c')

let test_codec_comments_and_blanks () =
  let text =
    "# a comment\nwcp-trace v1\n\nn 2\nops 0 S1:0  # trailing comment\n\
     pred 0 1 0\nops 1 R:0\npred 1 0 1\n"
  in
  let c = Trace_codec.decode text in
  Alcotest.(check int) "n" 2 (Computation.n c);
  Alcotest.(check bool) "pred (0,1)" true (Computation.pred c (st 0 1));
  Alcotest.(check bool) "pred (1,2)" true (Computation.pred c (st 1 2))

let test_codec_errors () =
  let expect_parse name text =
    match Trace_codec.decode text with
    | exception Trace_codec.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Parse_error" name
  in
  expect_parse "bad version" "wcp-trace v9\nn 1\nops 0\npred 0 0\n";
  expect_parse "missing header" "n 1\nops 0\npred 0 0\n";
  expect_parse "ops before n" "wcp-trace v1\nops 0\n";
  expect_parse "bad flag" "wcp-trace v1\nn 1\nops 0\npred 0 2\n";
  expect_parse "unknown directive" "wcp-trace v1\nn 1\nfrobnicate\n";
  expect_parse "bad op token" "wcp-trace v1\nn 2\nops 0 X:1\npred 0 0 0\n";
  expect_parse "no n" "wcp-trace v1\n";
  match Trace_codec.decode "wcp-trace v1\nn 2\nops 0 S1:0\npred 0 0 0\nops 1\npred 1 0\n" with
  | exception Trace_codec.Parse_error { line; message } ->
      (* Causally unsound traces surface as Parse_error attributed to
         the ops line that introduced the offending message. *)
      Alcotest.(check int) "attributed line" 3 line;
      Alcotest.(check string) "wrapped message"
        "invalid computation: message 0 never received" message
  | _ -> Alcotest.fail "unreceived message should be a wrapped Parse_error"

let prop_codec_never_crashes =
  (* Decoding arbitrary bytes must either succeed or raise one of the
     two declared exceptions — never anything else. *)
  Helpers.qtest ~count:500 "decode of junk raises only declared exceptions"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun junk ->
      match Trace_codec.decode junk with
      | _ -> true
      | exception Trace_codec.Parse_error _ -> true
      | exception Computation.Invalid _ -> true
      | exception _ -> false)

let prop_codec_mutation_never_crashes =
  (* Mutating a VALID trace is the nastier fuzz case: almost-correct
     input exercises the deep validation paths. *)
  Helpers.qtest ~count:300 "single-byte mutations of valid traces are safe"
    QCheck2.Gen.(tup3 Helpers.gen_small_comp (int_range 0 10_000) (char_range '\000' '\255'))
    (fun (comp, pos, c) ->
      let text = Bytes.of_string (Trace_codec.encode comp) in
      if Bytes.length text = 0 then true
      else begin
        Bytes.set text (pos mod Bytes.length text) c;
        match Trace_codec.decode (Bytes.to_string text) with
        | _ -> true
        | exception Trace_codec.Parse_error _ -> true
        | exception Computation.Invalid _ -> true
        | exception _ -> false
      end)

let test_codec_file_io () =
  let c = example () in
  let path = Filename.temp_file "wcp" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_codec.write_file path c;
      Alcotest.(check bool) "file roundtrip" true
        (comp_equal c (Trace_codec.read_file path)))

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_builder_misuse () =
  let b = Builder.create ~n:2 in
  let m = Builder.send b ~src:0 ~dst:1 in
  Builder.recv b ~dst:1 m;
  (match Builder.recv b ~dst:1 m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double receive should fail");
  let m2 = Builder.send b ~src:0 ~dst:1 in
  (match Builder.recv b ~dst:0 m2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong receiver should fail");
  match Builder.send b ~src:0 ~dst:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self send should fail"

let test_builder_current_state () =
  let b = Builder.create ~n:2 in
  Alcotest.(check int) "initial" 1 (Builder.current_state b ~proc:0);
  let m = Builder.send b ~src:0 ~dst:1 in
  Alcotest.(check int) "after send" 2 (Builder.current_state b ~proc:0);
  Builder.recv b ~dst:1 m;
  Alcotest.(check int) "after recv" 2 (Builder.current_state b ~proc:1);
  Builder.internal b ~proc:0;
  Alcotest.(check int) "internal creates no state" 2
    (Builder.current_state b ~proc:0)

let test_builder_unreceived () =
  let b = Builder.create ~n:2 in
  let (_ : Builder.msg) = Builder.send b ~src:0 ~dst:1 in
  match Builder.finish b with
  | exception Computation.Invalid _ -> ()
  | _ -> Alcotest.fail "unreceived message should fail finish"

(* --- Stream cursor edge cases -------------------------------------- *)

let invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument m ->
      let mentions_stream =
        String.length m >= 18 && String.sub m 0 18 = "Computation.Stream"
      in
      Alcotest.(check bool) (name ^ ": names Stream") true mentions_stream

(* A cursor racing past the recorded extent must die with a named
   [Invalid_argument], never an anonymous index error — the in-memory
   twin of [Btrace]'s [Corrupt] discipline. *)
let test_stream_cursor_edges () =
  let open Computation.Stream in
  (* empty single-process computation: one state, no events *)
  let b = Builder.create ~n:1 in
  let s = of_computation (Builder.finish b) in
  Alcotest.(check int) "n" 1 s.src_n;
  Alcotest.(check int) "no events" 0 (s.num_ops 0);
  let (_ : bool) = s.pred ~proc:0 ~state:1 in
  invalid "op on an empty process" (fun () -> s.op ~proc:0 ~k:0);
  invalid "num_ops past n" (fun () -> s.num_ops 1);
  invalid "num_ops negative" (fun () -> s.num_ops (-1));
  invalid "pred state 0" (fun () -> s.pred ~proc:0 ~state:0);
  invalid "pred past last state" (fun () -> s.pred ~proc:0 ~state:2);
  (* the worked example: cursor exactly past a process's ops *)
  let s = of_computation (example ()) in
  let k = s.num_ops 0 in
  let (_ : Computation.op) = s.op ~proc:0 ~k:(k - 1) in
  let (_ : bool) = s.pred ~proc:0 ~state:(k + 1) in
  invalid "op past total_ops" (fun () -> s.op ~proc:0 ~k);
  invalid "op negative" (fun () -> s.op ~proc:0 ~k:(-1));
  invalid "op proc out of range" (fun () -> s.op ~proc:3 ~k:0);
  invalid "pred past last state" (fun () -> s.pred ~proc:0 ~state:(k + 2))

(* --- The walk ---------------------------------------------------------- *)

(* A reference round-robin loop: each process runs until its next
   receive names a message not yet sent, and passes repeat while any
   process moved. Events come out as (proc, kind, dst, msg, pred). *)
let reference_order comp =
  let n = Computation.n comp in
  let ops = Array.init n (fun p -> Array.of_list (Computation.ops comp p)) in
  let cursor = Array.make n 0 in
  let sent = Hashtbl.create 16 in
  let out = ref [] in
  let moved = ref true in
  while !moved do
    moved := false;
    for p = 0 to n - 1 do
      let blocked = ref false in
      while (not !blocked) && cursor.(p) < Array.length ops.(p) do
        let k = cursor.(p) in
        let pred = Computation.pred comp (State.make ~proc:p ~index:(k + 2)) in
        match ops.(p).(k) with
        | Computation.Send { dst; msg } ->
            Hashtbl.replace sent msg ();
            out := (p, 0, dst, msg, pred) :: !out;
            cursor.(p) <- k + 1;
            moved := true
        | Computation.Recv { msg } when Hashtbl.mem sent msg ->
            out := (p, 1, 0, msg, pred) :: !out;
            cursor.(p) <- k + 1;
            moved := true
        | Computation.Recv _ -> blocked := true
      done
    done
  done;
  List.rev !out

let prop_walk_order =
  Helpers.qtest "walk visits events in the reference round-robin order"
    Helpers.gen_medium_comp (fun comp ->
      let out = ref [] in
      Computation.Stream.walk (Computation.Stream.of_computation comp)
        ~send:(fun ~proc ~dst ~msg ~pred -> out := (proc, 0, dst, msg, pred) :: !out)
        ~receive:(fun ~proc ~msg ~pred -> out := (proc, 1, 0, msg, pred) :: !out);
      List.rev !out = reference_order comp)

(* Refusing a run must not cost memory in proportion to the ids it
   names: 72 bytes naming message 2,000,000 stay well under 1 MB. *)
let test_walk_bounded () =
  let text =
    "wcp-trace v1\nn 2\nops 0 S1:2000000\npred 0 0 0\nops 1 R:2000000\npred 1 0 0\n"
  in
  Alcotest.(check int) "trace size" 72 (String.length text);
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  (match Trace_codec.decode text with
  | _ -> Alcotest.fail "non-dense ids accepted"
  | exception Trace_codec.Parse_error { message; _ } ->
      Alcotest.(check string) "refusal"
        "invalid computation: message id 0 never sent" message);
  let used = Gc.allocated_bytes () -. before in
  if used >= 1e6 then Alcotest.failf "refusal allocated %.0f bytes" used

let () =
  Alcotest.run "computation"
    [
      ( "example",
        [
          Alcotest.test_case "shape" `Quick test_shape;
          Alcotest.test_case "vector clocks" `Quick test_vector_clocks;
          Alcotest.test_case "happened-before" `Quick test_happened_before;
          Alcotest.test_case "dep_at" `Quick test_dep_at;
          Alcotest.test_case "candidates" `Quick test_candidates;
          Alcotest.test_case "message endpoints" `Quick test_message_endpoints;
        ] );
      ( "validation",
        [
          Alcotest.test_case "of_raw rejects bad traces" `Quick test_validation;
          Alcotest.test_case "zero-event processes" `Quick
            test_zero_event_process;
        ] );
      ( "properties",
        [
          prop_vc_iff_hb;
          prop_vc_property_2;
          prop_hb_transitive;
          prop_hb_irreflexive_antisymmetric;
          prop_message_causality;
          prop_dep_matches_messages;
        ] );
      ( "cut",
        [
          Alcotest.test_case "validation" `Quick test_cut_validation;
          Alcotest.test_case "consistency" `Quick test_cut_consistency;
          Alcotest.test_case "satisfies" `Quick test_cut_satisfies;
          Alcotest.test_case "ordering and pp" `Quick test_cut_order;
          prop_cut_consistency_via_violations;
        ] );
      ( "codec",
        [
          prop_codec_roundtrip;
          prop_codec_never_crashes;
          prop_codec_mutation_never_crashes;
          Alcotest.test_case "example roundtrip" `Quick test_codec_example;
          Alcotest.test_case "comments and blanks" `Quick
            test_codec_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "file io" `Quick test_codec_file_io;
        ] );
      ( "builder",
        [
          Alcotest.test_case "misuse" `Quick test_builder_misuse;
          Alcotest.test_case "current_state" `Quick test_builder_current_state;
          Alcotest.test_case "unreceived message" `Quick test_builder_unreceived;
        ] );
      ( "stream",
        [
          Alcotest.test_case "cursor edge cases" `Quick
            test_stream_cursor_edges;
          prop_walk_order;
          Alcotest.test_case "refusal bounded by input size" `Quick
            test_walk_bounded;
        ] );
    ]
