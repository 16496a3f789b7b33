open Wcp_trace
open Wcp_core

let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Instrument unit mechanics (no engine interaction needed for the
   clock discipline itself — we use a tiny engine to obtain a ctx).    *)
(* ------------------------------------------------------------------ *)

(* Run [f] inside a one-shot engine event so it has a valid ctx. *)
let with_ctx n f =
  let engine = Run_common.make_engine_n ~seed:1L ~n () in
  (* Swallow anything the instruments emit toward monitors. *)
  for p = 0 to (2 * n) do
    Wcp_sim.Engine.set_handler engine p (fun _ ~src:_ _ -> ())
  done;
  Wcp_sim.Engine.schedule_initial engine ~proc:0 ~at:0.0 (fun ctx -> f ctx);
  Wcp_sim.Engine.run engine

let test_vc_clock_discipline () =
  with_ctx 3 (fun ctx ->
      let wcp_procs = [| 0; 2 |] in
      let a = Instrument.create ~mode:Instrument.Vc ~n_app:3 ~wcp_procs ~proc:0 in
      let c = Instrument.create ~mode:Instrument.Vc ~n_app:3 ~wcp_procs ~proc:2 in
      let relay =
        Instrument.create ~mode:Instrument.Vc ~n_app:3 ~wcp_procs ~proc:1
      in
      Alcotest.(check int) "initial state" 1 (Instrument.state_index a);
      (* a -> relay -> c: the projected clock must flow through the
         non-spec relay. *)
      let t1 = Instrument.on_send a ctx in
      Alcotest.(check int) "a advanced" 2 (Instrument.state_index a);
      Instrument.on_receive relay ctx ~src:0 t1;
      let t2 = Instrument.on_send relay ctx in
      Instrument.on_receive c ctx ~src:1 t2;
      (* c's next send tag must show a's first state. *)
      match Instrument.on_send c ctx with
      | Messages.Vc_tag v ->
          Alcotest.(check (array int)) "projected clock at c" [| 1; 2 |] v
      | Messages.Dd_tag _ -> Alcotest.fail "expected a vc tag")

let test_dd_tags () =
  with_ctx 2 (fun ctx ->
      let wcp_procs = [| 0 |] in
      let a = Instrument.create ~mode:Instrument.Dd ~n_app:2 ~wcp_procs ~proc:0 in
      let b = Instrument.create ~mode:Instrument.Dd ~n_app:2 ~wcp_procs ~proc:1 in
      let t1 = Instrument.on_send a ctx in
      (match t1 with
      | Messages.Dd_tag { src = 0; clock = 1 } -> ()
      | _ -> Alcotest.fail "dd tag should carry (0,1)");
      Instrument.on_receive b ctx ~src:0 t1;
      let t2 = Instrument.on_send a ctx in
      match t2 with
      | Messages.Dd_tag { src = 0; clock = 2 } -> ()
      | _ -> Alcotest.fail "dd tag should carry (0,2)")

let test_tag_mismatches () =
  with_ctx 2 (fun ctx ->
      let wcp = [| 0 |] in
      let vc = Instrument.create ~mode:Instrument.Vc ~n_app:2 ~wcp_procs:wcp ~proc:0 in
      let dd = Instrument.create ~mode:Instrument.Dd ~n_app:2 ~wcp_procs:wcp ~proc:1 in
      (match
         Instrument.on_receive vc ctx ~src:1
           (Messages.Dd_tag { src = 1; clock = 1 })
       with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "mode mismatch should fail");
      (match Instrument.on_receive dd ctx ~src:0 (Messages.Vc_tag [| 1 |]) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "mode mismatch should fail");
      match
        Instrument.on_receive dd ctx ~src:0
          (Messages.Dd_tag { src = 1; clock = 1 })
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "tag/sender mismatch should fail")

let test_create_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected rejection"
  in
  bad (fun () ->
      Instrument.create ~mode:Instrument.Vc ~n_app:2 ~wcp_procs:[||] ~proc:0);
  bad (fun () ->
      Instrument.create ~mode:Instrument.Vc ~n_app:2 ~wcp_procs:[| 1; 0 |]
        ~proc:0);
  bad (fun () ->
      Instrument.create ~mode:Instrument.Vc ~n_app:2 ~wcp_procs:[| 0 |] ~proc:7)

(* ------------------------------------------------------------------ *)
(* End-to-end live monitoring (Fig. 1): online verdict vs the oracle
   on the simultaneously recorded computation.                         *)
(* ------------------------------------------------------------------ *)

let verify_live ~mode ~p_bug ~seed =
  let r = Live_mutex.run ~p_bug ~mode ~clients:3 ~rounds:3 ~seed () in
  let spec = Spec.make r.Live_mutex.recorded r.Live_mutex.wcp_procs in
  let expected = Oracle.first_cut r.Live_mutex.recorded spec in
  let online =
    match mode with
    | Instrument.Vc -> r.Live_mutex.online
    | Instrument.Dd -> Detection.project_outcome spec r.Live_mutex.online
  in
  if not (Detection.outcome_equal online expected) then
    Alcotest.failf "live %s seed=%Ld: online %a vs oracle %a"
      (match mode with Instrument.Vc -> "vc" | Instrument.Dd -> "dd")
      seed Detection.pp_outcome online Detection.pp_outcome expected;
  expected

let test_live_vc_correct_runs () =
  for s = 1 to 15 do
    let o = verify_live ~mode:Instrument.Vc ~p_bug:0.0 ~seed:(Int64.of_int s) in
    if o <> Detection.No_detection then
      Alcotest.fail "correct mutex must never trip the monitor"
  done

let test_live_vc_buggy_runs () =
  let detected = ref 0 in
  for s = 1 to 15 do
    match verify_live ~mode:Instrument.Vc ~p_bug:0.5 ~seed:(Int64.of_int s) with
    | Detection.Detected _ -> incr detected
    | Detection.No_detection | Detection.Undetectable_crashed _ -> ()
  done;
  if !detected = 0 then Alcotest.fail "no buggy run tripped the monitor"

let test_live_dd_correct_runs () =
  for s = 21 to 35 do
    let o = verify_live ~mode:Instrument.Dd ~p_bug:0.0 ~seed:(Int64.of_int s) in
    if o <> Detection.No_detection then
      Alcotest.fail "correct mutex must never trip the monitor"
  done

let test_live_dd_buggy_runs () =
  let detected = ref 0 in
  for s = 21 to 35 do
    match verify_live ~mode:Instrument.Dd ~p_bug:0.5 ~seed:(Int64.of_int s) with
    | Detection.Detected _ -> incr detected
    | Detection.No_detection | Detection.Undetectable_crashed _ -> ()
  done;
  if !detected = 0 then Alcotest.fail "no buggy run tripped the monitor"

let test_live_detection_time_recorded () =
  (* A detectable run must carry a detection timestamp no later than
     the end of the run. *)
  let rec hunt s =
    if s > 40 then Alcotest.fail "no detectable seed found"
    else
      let r =
        Live_mutex.run ~p_bug:0.6 ~mode:Instrument.Vc ~clients:3 ~rounds:3
          ~seed:(Int64.of_int s) ()
      in
      match (r.Live_mutex.online, r.Live_mutex.detection_time) with
      | Detection.Detected _, Some t ->
          if t > r.Live_mutex.sim_time then
            Alcotest.fail "detection after the end of the run"
      | Detection.Detected _, None ->
          Alcotest.fail "detected but no detection time"
      | (Detection.No_detection | Detection.Undetectable_crashed _), _ ->
          hunt (s + 1)
  in
  hunt 1

let test_live_recording_is_valid () =
  (* The side recording must itself be a causally sound computation
     with the expected shape. *)
  let r =
    Live_mutex.run ~p_bug:0.3 ~mode:Instrument.Vc ~clients:4 ~rounds:2
      ~seed:99L ()
  in
  let comp = r.Live_mutex.recorded in
  Alcotest.(check int) "processes" 5 (Computation.n comp);
  (* requests + grants + releases: 3 messages per CS entry. *)
  Alcotest.(check int) "messages" (3 * 4 * 2)
    (Array.length (Computation.messages comp));
  (* every client has exactly [rounds] predicate-true states *)
  for c = 1 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "CS states of client %d" c)
      2
      (List.length (Computation.candidates comp c))
  done

let prop_live_matches_oracle =
  qtest ~count:60 "live online verdict always matches the oracle"
    QCheck2.Gen.(
      tup3 (int_range 0 10_000) (int_range 0 100) (int_range 0 1))
    (fun (seed, bug_pct, mode_bit) ->
      let mode = if mode_bit = 0 then Instrument.Vc else Instrument.Dd in
      let p_bug = float_of_int bug_pct /. 100. in
      ignore (verify_live ~mode ~p_bug ~seed:(Int64.of_int seed));
      true)

(* ------------------------------------------------------------------ *)
(* A second live protocol, written inline: client-server with the WCP
   spanning ALL clients ("every client blocked"), monitored online by
   Token_vc. Exercises the projected-clock plumbing at width > 2 with
   the (non-spec) server relaying causality between the clients.       *)
(* ------------------------------------------------------------------ *)

let live_client_server ~clients ~requests ~seed =
  let n = clients + 1 in
  let server = 0 in
  let wcp_procs = Array.init clients (fun i -> i + 1) in
  let engine = Run_common.make_engine_n ~seed ~n () in
  let b = Builder.create ~n in
  let handles = Hashtbl.create 64 in
  let next_key = ref 0 in
  let instr =
    Array.init n (fun proc ->
        Instrument.create ~mode:Instrument.Vc ~n_app:n ~wcp_procs ~proc)
  in
  let send_app ctx ~src ~dst ~kind =
    let key = !next_key in
    incr next_key;
    Hashtbl.replace handles key (Builder.send b ~src ~dst);
    let tag = Instrument.on_send instr.(src) ctx in
    let msg = Messages.App_data { tag; kind; data = key } in
    Wcp_sim.Engine.send ctx ~bits:(Messages.bits ~spec_width:clients msg) ~dst
      msg
  in
  let recv_app ctx ~dst ~src tag key =
    (match Hashtbl.find_opt handles key with
    | Some h ->
        Hashtbl.remove handles key;
        Builder.recv b ~dst h
    | None -> failwith "unknown key");
    Instrument.on_receive instr.(dst) ctx ~src tag
  in
  let remaining = Array.make n requests in
  let request ctx c =
    Wcp_sim.Engine.schedule ctx
      ~delay:(Wcp_util.Rng.exponential (Wcp_sim.Engine.rng ctx) ~mean:0.3)
      (fun ctx ->
        send_app ctx ~src:c ~dst:server ~kind:0;
        (* Blocked on the server: the monitored predicate. *)
        Instrument.predicate_true instr.(c) ctx;
        Builder.set_pred b ~proc:c true)
  in
  let client_handler c ctx ~src msg =
    match msg with
    | Messages.App_data { tag; kind = 1; data } ->
        recv_app ctx ~dst:c ~src tag data;
        remaining.(c) <- remaining.(c) - 1;
        if remaining.(c) = 0 then Instrument.finish instr.(c) ctx
        else request ctx c
    | _ -> failwith "client: unexpected message"
  in
  let served = ref 0 in
  let server_handler ctx ~src msg =
    match msg with
    | Messages.App_data { tag; kind = 0; data } ->
        recv_app ctx ~dst:server ~src tag data;
        send_app ctx ~src:server ~dst:src ~kind:1;
        incr served;
        if !served = clients * requests then
          Instrument.finish instr.(server) ctx
    | _ -> failwith "server: unexpected message"
  in
  Wcp_sim.Engine.set_handler engine server server_handler;
  for c = 1 to clients do
    Wcp_sim.Engine.set_handler engine c (client_handler c);
    Wcp_sim.Engine.schedule_initial engine ~proc:c ~at:0.0 (fun ctx ->
        Instrument.start instr.(c) ctx;
        request ctx c)
  done;
  let online = ref None in
  let hops = ref 0 and snapshots = ref 0 in
  let monitors =
    Token_vc.install engine ~n_app:n ~wcp_procs ~stop:false ~outcome:online
      ~hops ~snapshots ()
  in
  Token_vc.start engine monitors;
  Wcp_sim.Engine.run engine;
  match !online with
  | None -> Alcotest.fail "live client-server ended without a verdict"
  | Some verdict -> (verdict, Builder.finish b, wcp_procs)

let test_live_wide_spec () =
  for s = 1 to 12 do
    let seed = Int64.of_int (500 + s) in
    let verdict, recorded, wcp_procs =
      live_client_server ~clients:4 ~requests:3 ~seed
    in
    let spec = Spec.make recorded wcp_procs in
    let expected = Oracle.first_cut recorded spec in
    if not (Detection.outcome_equal verdict expected) then
      Alcotest.failf "wide live spec mismatch at seed %Ld: %a vs %a" seed
        Detection.pp_outcome verdict Detection.pp_outcome expected
  done

let () =
  Alcotest.run "instrument"
    [
      ( "mechanics",
        [
          Alcotest.test_case "vc clock discipline" `Quick
            test_vc_clock_discipline;
          Alcotest.test_case "dd tags" `Quick test_dd_tags;
          Alcotest.test_case "tag mismatches" `Quick test_tag_mismatches;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "live-monitoring",
        [
          Alcotest.test_case "vc: correct runs are silent" `Quick
            test_live_vc_correct_runs;
          Alcotest.test_case "vc: buggy runs trip" `Quick
            test_live_vc_buggy_runs;
          Alcotest.test_case "dd: correct runs are silent" `Quick
            test_live_dd_correct_runs;
          Alcotest.test_case "dd: buggy runs trip" `Quick
            test_live_dd_buggy_runs;
          Alcotest.test_case "detection time recorded" `Quick
            test_live_detection_time_recorded;
          Alcotest.test_case "recording is valid" `Quick
            test_live_recording_is_valid;
          Alcotest.test_case "wide-spec live client-server" `Quick
            test_live_wide_spec;
          prop_live_matches_oracle;
        ] );
    ]
