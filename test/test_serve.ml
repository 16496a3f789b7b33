(* wcp-serve/1 (Wcp_serve): bounded loopback smoke for the streaming
   detection service. A real server runs in-process on a unix socket in
   a temp dir; real clients stream real traces at it. The contract
   under test is DESIGN.md §13's headline: the served outcome is
   byte-identical to the offline streamed detection of the same trace,
   for every algorithm, both framings, through the spill path, and
   across a kill-and-reconnect. [make serve-check] exercises the same
   contract end-to-end through the CLI binaries. *)

open Wcp_trace
open Wcp_core
open Wcp_serve

let random_comp ~n ~m ~p_pred ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred; p_recv = 0.5 }
    ~seed ()

let algos =
  [ "token-vc"; "multi-token"; "token-dd"; "token-dd-par"; "checker"; "parallel" ]

(* The offline reference: the CLI's [--stream] path (slice off a
   cursor, detect, remap) with each algorithm's offline detector,
   written out here independently of [Session]'s algorithm table, so
   any disagreement is the service's fault, not a shared mistake. *)
let offline_outcome comp ~algo ~procs ~seed ~groups =
  let keep_rest =
    match algo with "token-dd" | "token-dd-par" -> true | _ -> false
  in
  let options = Detection.default_options in
  let r =
    Run_common.with_source ~keep_rest
      (Computation.Stream.of_computation comp)
      ~procs
      ~run:(fun sliced spec ->
        match algo with
        | "token-vc" -> Token_vc.detect ~options ~seed sliced spec
        | "multi-token" ->
            Token_multi.detect ~options
              ~groups:(min groups (Spec.width spec))
              ~seed sliced spec
        | "token-dd" -> Token_dd.detect ~options ~seed sliced spec
        | "token-dd-par" ->
            Token_dd.detect ~options ~parallel:true ~seed sliced spec
        | "checker" -> Checker_centralized.detect ~options ~seed sliced spec
        | "parallel" -> Checker_parallel.detect ~options ~seed sliced spec
        | a -> Alcotest.failf "unknown algo %s" a)
  in
  Format.asprintf "%a" Detection.pp_outcome r.Detection.outcome

(* Spin up a server on a fresh unix socket, run [f addr], then stop,
   join, and verify the spool is clean: every spill file must have
   been recycled and unlinked by the time the server is down. *)
let with_server ?(ring = 4096) ?(drain_delay = 0.) f =
  let dir = Filename.temp_file "wcp-serve-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let addr = Protocol.Unix_sock (Filename.concat dir "sock") in
  let cfg =
    {
      (Server.default_config ~addr) with
      ring;
      drain_delay;
      spool_dir = dir;
      log = ignore;
    }
  in
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th;
      let leftover = Sys.readdir dir in
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        leftover;
      Unix.rmdir dir;
      Alcotest.(check (array string)) "spool clean after shutdown" [||] leftover)
    (fun () -> f addr)

let feed ?frames ?batch ?kill_after ?metrics_every ?on_metrics ~addr ~session
    ~algo comp =
  let n = Computation.n comp in
  Client.run_session ?frames ?batch ?kill_after ?metrics_every ?on_metrics
    ~retry:5. ~addr ~session ~algo
    ~procs:(Array.init n Fun.id)
    ~seed:1L
    (Computation.Stream.of_computation comp)

let served_outcome label = function
  | Ok (Client.Completed o) -> o.Client.outcome
  | Ok (Client.Killed k) -> Alcotest.failf "%s: killed at %d" label k
  | Error m -> Alcotest.failf "%s: %s" label m

(* --- every algorithm, both framings -------------------------------- *)

let test_algos_vs_offline () =
  let comp = random_comp ~n:6 ~m:12 ~p_pred:0.3 ~seed:5L in
  let procs = Array.init 6 Fun.id in
  with_server (fun addr ->
      List.iter
        (fun algo ->
          let expect =
            offline_outcome comp ~algo ~procs ~seed:1L ~groups:2
          in
          let got =
            served_outcome algo (feed ~addr ~session:("bin-" ^ algo) ~algo comp)
          in
          Alcotest.(check string) (algo ^ " (binary)") expect got)
        algos;
      (* jsonl framing must spell out the same cut *)
      let expect = offline_outcome comp ~algo:"token-vc" ~procs ~seed:1L ~groups:2 in
      let got =
        served_outcome "token-vc jsonl"
          (feed ~frames:Protocol.Jsonl ~addr ~session:"jsonl-vc"
             ~algo:"token-vc" comp)
      in
      Alcotest.(check string) "token-vc (jsonl)" expect got)

(* --- tiny ring: the spill path ------------------------------------- *)

(* the arms of the path-specific tests below: one batch algorithm,
   one online *)
let arms = [ "token-vc"; "checker" ]

let test_spill () =
  let comp = random_comp ~n:6 ~m:40 ~p_pred:0.2 ~seed:9L in
  let procs = Array.init 6 Fun.id in
  (* a 16-slot ring and an artificially slow worker force overflow to
     disk; the result must not notice (with_server then asserts the
     spill file was recycled and unlinked) *)
  with_server ~ring:16 ~drain_delay:0.002 (fun addr ->
      List.iter
        (fun algo ->
          let expect = offline_outcome comp ~algo ~procs ~seed:1L ~groups:2 in
          let got =
            served_outcome ("spill " ^ algo)
              (feed ~batch:32 ~addr ~session:("spill-" ^ algo) ~algo comp)
          in
          Alcotest.(check string) (algo ^ " outcome through spill") expect got)
        arms)

(* --- kill mid-stream, reconnect, replay from ack ------------------- *)

let test_reconnect () =
  let comp = random_comp ~n:6 ~m:20 ~p_pred:0.3 ~seed:3L in
  let procs = Array.init 6 Fun.id in
  with_server (fun addr ->
      List.iter
        (fun algo ->
          let expect = offline_outcome comp ~algo ~procs ~seed:1L ~groups:2 in
          let session = "rc-" ^ algo in
          (match feed ~kill_after:25 ~addr ~session ~algo comp with
          | Ok (Client.Killed k) ->
              Alcotest.(check bool) "killed after >= 25" true (k >= 25)
          | Ok (Client.Completed _) -> Alcotest.fail "kill_after did not trip"
          | Error m -> Alcotest.failf "kill leg: %s" m);
          (* same session id: the server acks the prefix it holds and
             the client replays only the tail of the canonical
             linearization *)
          let got =
            served_outcome ("reconnect " ^ algo) (feed ~addr ~session ~algo comp)
          in
          Alcotest.(check string) (algo ^ " outcome after reconnect") expect got)
        arms)

(* --- concurrent sessions, one shared server ------------------------ *)

let test_concurrent () =
  let comp = random_comp ~n:5 ~m:15 ~p_pred:0.3 ~seed:7L in
  let procs = Array.init 5 Fun.id in
  with_server (fun addr ->
      let results = Array.make 3 (Error "unset") in
      let feeders =
        Array.init 3 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  feed ~addr
                    ~session:(Printf.sprintf "conc-%d" i)
                    ~algo:"token-vc" comp)
              ())
      in
      Array.iter Thread.join feeders;
      let expect =
        offline_outcome comp ~algo:"token-vc" ~procs ~seed:1L ~groups:2
      in
      Array.iteri
        (fun i r ->
          Alcotest.(check string)
            (Printf.sprintf "session %d" i)
            expect
            (served_outcome (Printf.sprintf "conc-%d" i) r))
        results)

(* --- telemetry on the session socket ------------------------------- *)

let test_metrics () =
  let comp = random_comp ~n:6 ~m:12 ~p_pred:0.3 ~seed:5L in
  with_server (fun addr ->
      List.iter
        (fun algo ->
          let lines = ref [] in
          let r =
            feed ~metrics_every:1.
              ~on_metrics:(fun l -> lines := l :: !lines)
              ~addr ~session:("tel-" ^ algo) ~algo comp
          in
          let (_ : string) = served_outcome ("metrics session " ^ algo) r in
          Alcotest.(check bool) (algo ^ " got metrics lines") true (!lines <> []);
          List.iter
            (fun l ->
              match Wcp_obs.Telemetry.decode_line l with
              | Ok (_ : Wcp_obs.Telemetry.line) -> ()
              | Error m -> Alcotest.failf "bad wcp-metrics/1 line %S: %s" l m)
            !lines)
        arms)

(* --- a poisoned session answers ------------------------------------ *)

(* A raw JSONL client: hello, one poisoned event, finish. The server
   must answer welcome and then the error line within a bounded wait,
   whether the event fails when pushed (process out of range) or when
   the worker drains it (receive of a message never sent, self-send). *)
let test_poisoned () =
  let wait_s = 5. in
  let answer addr ~session ~algo ev =
    let fd = Protocol.connect ~retry:5. addr in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let hello =
          Protocol.Hello
            {
              Protocol.session;
              n = 2;
              algo;
              procs = [| 0; 1 |];
              seed = 1L;
              groups = 2;
              pred0 = [| false; false |];
              frames = Protocol.Jsonl;
              metrics_every = 0.;
            }
        in
        List.iter
          (fun m ->
            Protocol.write_string fd (Protocol.encode_client m ^ "\n"))
          [ hello; ev; Protocol.Finish ];
        let rd = Protocol.reader fd in
        let deadline = Unix.gettimeofday () +. wait_s in
        let rec next () =
          let left = deadline -. Unix.gettimeofday () in
          if (not (Protocol.has_buffered_line rd)) && left > 0. then
            ignore (Unix.select [ fd ] [] [] left : _ * _ * _);
          if not (Protocol.has_buffered_line rd) then
            match Unix.select [ fd ] [] [] 0. with
            | [], _, _ ->
                Alcotest.failf "%s: no answer within %.0f s" session wait_s
            | _ -> read ()
          else read ()
        and read () =
          match Protocol.read_line rd with
          | None -> Alcotest.failf "%s: connection closed without an error" session
          | Some l -> (
              match Protocol.decode_server l ~pos:0 ~len:(String.length l) with
              | Ok (Protocol.Welcome _ | Protocol.Credit _) -> next ()
              | Ok (Protocol.Error_msg { message }) -> message
              | Ok _ -> Alcotest.failf "%s: unexpected line %s" session l
              | Error m -> Alcotest.failf "%s: bad line: %s" session m)
        in
        next ())
  in
  with_server (fun addr ->
      List.iter
        (fun algo ->
          let push =
            answer addr ~session:("push-" ^ algo) ~algo
              (Protocol.Ev { proc = 5; kind = 0; dst = 1; msg = 1; pred = false })
          in
          Alcotest.(check string)
            (algo ^ ": push-time error")
            "event process 5 out of range (n=2)" push;
          let drain =
            answer addr ~session:("drain-" ^ algo) ~algo
              (Protocol.Ev { proc = 0; kind = 1; dst = 0; msg = 42; pred = false })
          in
          Alcotest.(check bool)
            (algo ^ ": drain-time error names the stream: " ^ drain)
            true
            (String.starts_with ~prefix:"bad event stream" drain);
          let self_send =
            answer addr ~session:("self-" ^ algo) ~algo
              (Protocol.Ev { proc = 0; kind = 0; dst = 0; msg = 1; pred = false })
          in
          Alcotest.(check bool)
            (algo ^ ": a self-send is refused: " ^ self_send)
            true
            (String.starts_with ~prefix:"bad event stream" self_send))
        arms)

(* --- a btrace the walk refuses --------------------------------------- *)

(* A structurally broken btrace (an id at or above the header's count)
   and a causally unsound one (an id sent twice) are refused mid-stream
   in [detect --stream]'s words, leaving their sessions as a killed
   client does; the same server then answers a valid session. *)
let test_refused_btrace () =
  let open Computation in
  let comp =
    of_raw
      ~ops:
        [|
          [ Send { dst = 1; msg = 0 }; Send { dst = 1; msg = 1 } ];
          [ Recv { msg = 0 }; Recv { msg = 1 } ];
        |]
      ~pred:[| [| false; true; false |]; [| false; true; true |] |]
  in
  let img = Btrace.encode comp in
  (* [img] with event [k] of process [p] overwritten by [word] *)
  let edited ~p ~k word =
    let b = Bytes.of_string img in
    let ops_off = Int64.to_int (String.get_int64_le img (32 + (24 * p))) in
    Bytes.set_int64_le b (ops_off + (8 * k)) (Int64.of_int word);
    Btrace.source (Btrace.of_string (Bytes.to_string b))
  in
  with_server (fun addr ->
      let run ~session src =
        Client.run_session ~retry:5. ~addr ~session ~algo:"token-vc"
          ~procs:[| 0; 1 |] ~seed:1L src
      in
      let refused ~session expected src =
        match run ~session src with
        | Error m -> Alcotest.(check string) session expected m
        | Ok _ -> Alcotest.failf "%s: accepted" session
      in
      refused ~session:"corrupt"
        "btrace: process 1 event 1: message 7 out of range"
        (edited ~p:1 ~k:1 (Btrace.pack_recv ~msg:7));
      refused ~session:"unsound" "invalid computation: message 0 sent twice"
        (edited ~p:0 ~k:1 (Btrace.pack_send ~dst:1 ~msg:0));
      Alcotest.(check string)
        "valid session after the refusals"
        (offline_outcome comp ~algo:"token-vc" ~procs:[| 0; 1 |] ~seed:1L
           ~groups:2)
        (served_outcome "valid"
           (run ~session:"valid" (Btrace.source (Btrace.of_string img)))))

(* --- control lines name a malformed token ---------------------------- *)

let test_decode_errors () =
  let names_token line expected =
    match Protocol.decode_client line ~pos:0 ~len:(String.length line) with
    | Error m -> Alcotest.(check string) line expected m
    | Ok _ -> Alcotest.failf "accepted malformed line %S" line
  in
  names_token {|{"type":"ev","p":0,"k":1,"m":-,"f":0}|} {|at byte 29: bad number "-"|};
  names_token {|{"type":"\u+123"}|} {|at byte 9: bad \u escape "+123"|}

(* --- a config the detector cannot run is refused at hello ---------- *)

(* multi-token needs at least one group: the hello itself is answered
   with the error, so no event is ever accepted for the session. *)
let test_groups_refused () =
  with_server (fun addr ->
      let fd = Protocol.connect ~retry:5. addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let hello =
            Protocol.Hello
              {
                Protocol.session = "groups-0";
                n = 2;
                algo = "multi-token";
                procs = [| 0; 1 |];
                seed = 1L;
                groups = 0;
                pred0 = [| false; false |];
                frames = Protocol.Jsonl;
                metrics_every = 0.;
              }
          in
          Protocol.write_string fd (Protocol.encode_client hello ^ "\n");
          match Protocol.read_line (Protocol.reader fd) with
          | None -> Alcotest.fail "connection closed without an answer"
          | Some l -> (
              match Protocol.decode_server l ~pos:0 ~len:(String.length l) with
              | Ok (Protocol.Error_msg { message }) ->
                  Alcotest.(check string) "hello refused" "groups must be positive"
                    message
              | Ok _ -> Alcotest.failf "hello accepted: %s" l
              | Error m -> Alcotest.failf "bad line: %s" m)))

(* --- the online path, in process ------------------------------------ *)

(* The computation as wcp-frame/1 event words in the client's
   canonical order, with the stream index of the event entering each
   state ([-1] for initial states). *)
let event_stream comp =
  let n = Computation.n comp in
  let words = ref [] and metas = ref [] and idx = ref 0 in
  let state = Array.make n 1 in
  let entered =
    Array.init n (fun p -> Array.make (Computation.num_states comp p + 1) (-1))
  in
  let emit ~proc word ~pred =
    words := word :: !words;
    metas := ((proc lsl 1) lor Bool.to_int pred) :: !metas;
    state.(proc) <- state.(proc) + 1;
    entered.(proc).(state.(proc)) <- !idx;
    incr idx
  in
  Computation.Stream.walk (Computation.Stream.of_computation comp)
    ~send:(fun ~proc ~dst ~msg ~pred ->
      emit ~proc (Btrace.pack_send ~dst ~msg) ~pred)
    ~receive:(fun ~proc ~msg ~pred -> emit ~proc (Btrace.pack_recv ~msg) ~pred);
  (Array.of_list (List.rev !words), Array.of_list (List.rev !metas), entered)

let spool =
  lazy
    (let dir = Filename.temp_file "wcp-session-test" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     at_exit (fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ());
     dir)

(* One session driven through push_batch/drain as the server drives
   it: chunks of the given sizes (cycled), draining after every
   [drain_every]-th push (at most [max] events per drain) — a small
   ring makes the undrained pushes spill. Returns the terminal line. *)
let run_in_process ~algo ~procs ~pred0 ~n ?(ring = 16) ?(chunks = [ 7 ])
    ?(drain_every = 1) ?(max = 32) (words, metas) =
  let cfg =
    {
      Session.id = "inproc";
      n;
      algo;
      procs;
      seed = 1L;
      groups = 2;
      pred0;
      metrics_every = 0.;
      ring;
      spill_path = Filename.concat (Lazy.force spool) "inproc.spill";
    }
  in
  let s =
    match Session.create cfg with
    | Ok s -> s
    | Error m -> Alcotest.failf "Session.create: %s" m
  in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      let rec drain () =
        match Session.drain s ~max with
        | Session.Drained _ -> drain ()
        | Session.Ready | Session.Idle -> ()
      in
      let total = Array.length words in
      let pos = ref 0 and pushes = ref 0 in
      let chunks = Array.of_list chunks in
      while !pos < total do
        let k = min (chunks.(!pushes mod Array.length chunks)) (total - !pos) in
        Session.push_batch s ~words:(Array.sub words !pos k)
          ~metas:(Array.sub metas !pos k) k;
        pos := !pos + k;
        incr pushes;
        if !pushes mod drain_every = 0 then drain ()
      done;
      Session.request_finish s;
      let rec finish () =
        match Session.drain s ~max with
        | Session.Drained _ -> finish ()
        | Session.Ready -> Session.detect s ~on_metrics:None
        | Session.Idle -> Alcotest.fail "session idle before ready"
      in
      finish ())

let online_algos = [ "checker"; "parallel" ]

(* (computation, procs mask, chunk sizes, drain cadence, drain max) *)
let gen_online_case =
  QCheck2.Gen.(
    tup5
      (Helpers.gen_comp_params ~max_n:7 ~max_sends:16)
      (int_range 1 127)
      (list_size (int_range 1 4) (int_range 1 40))
      (int_range 1 3) (int_range 1 64))

let procs_of_mask n mask =
  match List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id) with
  | [] -> [| 0 |]
  | ps -> Array.of_list ps

(* The count an online result must report for a held cut: the
   cut-completing event's index + 1. [None] when there is no cut (the
   result then counts every event). *)
let completing_count comp ~procs ~entered =
  let r =
    Run_common.with_source ~keep_rest:false
      (Computation.Stream.of_computation comp)
      ~procs
      ~run:(fun sliced spec -> Checker_centralized.detect ~seed:1L sliced spec)
  in
  match r.Detection.outcome with
  | Detection.Detected c ->
      Some
        (1
        + Array.fold_left max (-1)
            (Array.mapi (fun k p -> entered.(p).(c.Cut.states.(k))) c.Cut.procs))
  | Detection.No_detection | Detection.Undetectable_crashed _ -> None

let prop_online (params, mask, chunks, drain_every, max) =
  let comp = Helpers.build_comp params in
  let n = Computation.n comp in
  let procs = procs_of_mask n mask in
  let pred0 = Array.init n (fun p -> Computation.pred comp (State.make ~proc:p ~index:1)) in
  let words, metas, entered = event_stream comp in
  let count = completing_count comp ~procs ~entered in
  let expect_events = Option.value count ~default:(Array.length words) in
  List.for_all
    (fun algo ->
      let offline = offline_outcome comp ~algo ~procs ~seed:1L ~groups:2 in
      let run stream =
        run_in_process ~algo ~procs ~pred0 ~n ~chunks ~drain_every ~max stream
      in
      (match run (words, metas) with
      | Protocol.Result r ->
          if r.outcome <> offline then
            QCheck2.Test.fail_reportf "%s: online %s, offline %s" algo r.outcome
              offline;
          if r.events <> expect_events then
            QCheck2.Test.fail_reportf "%s: events %d, want %d" algo r.events
              expect_events;
          if r.msgs <> 0 || r.bits <> 0 || r.hops <> 0 then
            QCheck2.Test.fail_reportf "%s: online result priced a network" algo
      | Protocol.Error_msg { message } ->
          QCheck2.Test.fail_reportf "%s: error %s" algo message
      | _ -> QCheck2.Test.fail_reportf "%s: not a terminal line" algo);
      (* the same stream turned malformed after its cut — a receive of
         a message never sent — must still be rejected *)
      Option.is_none count
      ||
      let bad_w = Array.append words [| Btrace.pack_recv ~msg:1_000_000 |] in
      let bad_m = Array.append metas [| 0 |] in
      match run (bad_w, bad_m) with
      | Protocol.Error_msg { message }
        when String.starts_with ~prefix:"bad event stream" message ->
          true
      | Protocol.Error_msg { message } ->
          QCheck2.Test.fail_reportf "%s: wrong error %s" algo message
      | _ ->
          QCheck2.Test.fail_reportf "%s: malformed tail after the cut accepted"
            algo)
    online_algos

(* Latency flat in stream length, stated as a count: a held cut
   reports the completing event's index + 1, and a 10x longer tail
   after the same prefix changes neither the cut nor that count. *)
let test_flat_events () =
  List.iter
    (fun seed ->
      let comp = random_comp ~n:6 ~m:30 ~p_pred:0.3 ~seed in
      let n = Computation.n comp in
      let procs = Array.init n Fun.id in
      let pred0 = Array.init n (fun p -> Computation.pred comp (State.make ~proc:p ~index:1)) in
      let words, metas, entered = event_stream comp in
      let total = Array.length words in
      let expect_events =
        match completing_count comp ~procs ~entered with
        | Some c -> c
        | None -> Alcotest.failf "seed %Ld: fixture has no cut" seed
      in
      (* the tail: 10x the stream in fresh send/receive pairs *)
      let fresh = 1 + Array.fold_left (fun a w -> max a (w lsr 24)) 0 words in
      let pairs = 5 * total in
      let tail_w = Array.make (2 * pairs) 0 and tail_m = Array.make (2 * pairs) 0 in
      for i = 0 to pairs - 1 do
        let p = i mod n and q = (i + 1) mod n and msg = fresh + i in
        let pred = if i mod 3 = 0 then 1 else 0 in
        tail_w.(2 * i) <- Btrace.pack_send ~dst:q ~msg;
        tail_m.(2 * i) <- (p lsl 1) lor pred;
        tail_w.((2 * i) + 1) <- Btrace.pack_recv ~msg;
        tail_m.((2 * i) + 1) <- (q lsl 1) lor pred
      done;
      List.iter
        (fun algo ->
          let result stream =
            match
              run_in_process ~algo ~procs ~pred0 ~n ~ring:4096 ~chunks:[ 1024 ]
                stream
            with
            | Protocol.Result r -> (r.outcome, r.events)
            | _ -> Alcotest.failf "%s: no result" algo
          in
          let short = result (words, metas) in
          let long =
            result (Array.append words tail_w, Array.append metas tail_m)
          in
          let label = Printf.sprintf "%s seed %Ld" algo seed in
          Alcotest.(check (pair string int))
            (label ^ ": cut and completing index + 1")
            (offline_outcome comp ~algo ~procs ~seed:1L ~groups:2, expect_events)
            short;
          Alcotest.(check (pair string int)) (label ^ ": 10x tail") short long)
        online_algos)
    [ 2L; 11L; 23L ]

let () =
  Alcotest.run "serve"
    [
      ( "loopback",
        [
          Alcotest.test_case "every algo == offline" `Quick
            test_algos_vs_offline;
          Alcotest.test_case "spill path" `Quick test_spill;
          Alcotest.test_case "kill and reconnect" `Quick test_reconnect;
          Alcotest.test_case "concurrent sessions" `Quick test_concurrent;
          Alcotest.test_case "metrics stream" `Quick test_metrics;
          Alcotest.test_case "poisoned session answers" `Quick test_poisoned;
          Alcotest.test_case "refused btrace streams" `Quick test_refused_btrace;
          Alcotest.test_case "control lines name a bad token" `Quick
            test_decode_errors;
          Alcotest.test_case "groups < 1 refused at hello" `Quick
            test_groups_refused;
        ] );
      ( "online",
        [
          Helpers.qtest "online outcome == offline" gen_online_case
            prop_online;
          Alcotest.test_case "events flat in stream length" `Quick
            test_flat_events;
        ] );
    ]
