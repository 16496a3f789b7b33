(* Crash recovery: the checkpoint codec, deterministic resume, and the
   restart-heals matrix — every token detector, crashed mid-protocol
   and rebuilt from its checkpoint, must still report the exact first
   cut of the fault-free oracle. *)

open Wcp_trace
open Wcp_clocks
open Wcp_core
open Wcp_sim
module G = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Checkpoint generators                                               *)
(* ------------------------------------------------------------------ *)

let gen_int = G.int_range 0 9_999
let gen_iarr = G.array_size (G.int_range 0 5) gen_int
let gen_color = G.oneofl [ Messages.Red; Messages.Green ]
let gen_colors = G.array_size (G.int_range 0 5) gen_color

let gen_vc_snap =
  G.map2
    (fun state clock -> ({ state; clock } : Snapshot.vc))
    gen_int gen_iarr

let gen_dep =
  G.map2 (fun src clock -> ({ src; clock } : Dependence.t)) gen_int gen_int

let gen_dd_snap =
  G.map2
    (fun state deps -> ({ state; deps } : Snapshot.dd))
    gen_int
    (G.list_size (G.int_range 0 4) gen_dep)

(* One of every payload constructor, so the codec's message layer is
   exercised across its whole tag space. *)
let gen_base_msg =
  G.oneof
    [
      G.map (fun msg_id -> Messages.App_msg { msg_id }) gen_int;
      G.map3
        (fun v kind data ->
          Messages.App_data { tag = Messages.Vc_tag v; kind; data })
        gen_iarr gen_int gen_int;
      G.map3
        (fun src clock data ->
          Messages.App_data
            { tag = Messages.Dd_tag { src; clock }; kind = 1; data })
        gen_int gen_int gen_int;
      G.map (fun s -> Messages.Snap_vc s) gen_vc_snap;
      G.map2
        (fun state delta -> Messages.Snap_vc_delta { state; delta })
        gen_int gen_iarr;
      G.map (fun s -> Messages.Snap_dd s) gen_dd_snap;
      G.map2
        (fun state deps -> Messages.Snap_dd_packed { state; deps })
        gen_int gen_iarr;
      G.map3
        (fun state clock counts -> Messages.Snap_gcp { state; clock; counts })
        gen_int gen_iarr gen_iarr;
      G.pure Messages.App_done;
      G.map3
        (fun seq g color -> Messages.Vc_token { seq; g; color })
        gen_int gen_iarr gen_colors;
      G.map3
        (fun seq g (color, group) ->
          Messages.Group_token { seq; g; color; group })
        gen_int gen_iarr (G.pair gen_colors gen_int);
      G.map3
        (fun seq g (color, group) ->
          Messages.Group_return { seq; g; color; group })
        gen_int gen_iarr (G.pair gen_colors gen_int);
      G.map (fun seq -> Messages.Dd_token { seq }) gen_int;
      G.map2
        (fun clock next_red -> Messages.Poll { clock; next_red })
        gen_int (G.option gen_int);
      G.map (fun became_red -> Messages.Poll_reply { became_red }) G.bool;
      G.map (fun seq -> Messages.Wd_probe { seq }) gen_int;
      G.map3
        (fun seq received holding -> Messages.Wd_reply { seq; received; holding })
        gen_int G.bool G.bool;
    ]

let gen_msg =
  G.oneof
    [
      gen_base_msg;
      G.map2
        (fun seq payload -> Messages.Frame (Transport.Data { seq; payload }))
        gen_int gen_base_msg;
      G.map2
        (fun cum era -> Messages.Frame (Transport.Ack { cum; era }))
        gen_int gen_int;
      G.map2
        (fun expected era ->
          Messages.Frame (Transport.Reconnect { expected; era }))
        gen_int gen_int;
    ]

let gen_vc_mon =
  G.map
    (fun (v_queue, v_decoder, v_app_done, v_held, v_last, v_last_seq) ->
      {
        Checkpoint.v_queue;
        v_decoder;
        v_app_done;
        v_held;
        v_last;
        v_last_seq;
      })
    (G.tup6
       (G.list_size (G.int_range 0 4) gen_vc_snap)
       gen_iarr G.bool
       (G.option (G.pair gen_iarr gen_colors))
       (G.option gen_vc_snap) gen_int)

let gen_dd_mon =
  G.map2
    (fun (d_queue, d_app_done, d_color, d_g, d_next_red)
         (d_has_token, d_tentative, d_deps, d_polling, d_last_seq) ->
      {
        Checkpoint.d_queue;
        d_app_done;
        d_color;
        d_g;
        d_next_red;
        d_has_token;
        d_tentative;
        d_deps;
        d_polling;
        d_last_seq;
      })
    (G.tup5
       (G.list_size (G.int_range 0 4) gen_dd_snap)
       G.bool gen_color gen_int (G.option gen_int))
    (G.tup5 G.bool (G.option gen_int)
       (G.list_size (G.int_range 0 4) gen_dep)
       G.bool gen_int)

let gen_algo =
  G.oneof
    [
      G.map (fun m -> Checkpoint.Vc m) gen_vc_mon;
      G.map (fun m -> Checkpoint.Dd m) gen_dd_mon;
    ]

let gen_wd =
  G.map
    (fun (w_seq, w_dst, w_probes, w_bits, w_payload) ->
      { Checkpoint.w_seq; w_dst; w_probes; w_bits; w_payload })
    (G.tup5 gen_int gen_int gen_int gen_int gen_msg)

let gen_tx =
  G.map
    (fun (tx_dst, tx_next_seq, tx_base, tx_frames, tx_era) ->
      { Transport.tx_dst; tx_next_seq; tx_base; tx_frames; tx_era })
    (G.tup5 gen_int gen_int gen_int
       (G.list_size (G.int_range 0 3) (G.tup3 gen_int gen_msg gen_int))
       gen_int)

let gen_rx =
  G.map
    (fun (rx_src, rx_expected, rx_era) ->
      { Transport.rx_src; rx_expected; rx_era })
    (G.tup3 gen_int gen_int gen_int)

let gen_transport =
  G.map2
    (fun st_txs st_rxs -> { Transport.st_txs; st_rxs })
    (G.list_size (G.int_range 0 3) gen_tx)
    (G.list_size (G.int_range 0 3) gen_rx)

let gen_ckpt =
  G.map
    (fun (proc, algo, transport, watchdog) ->
      { Checkpoint.proc; algo; transport; watchdog })
    (G.tup4 gen_int gen_algo gen_transport (G.option gen_wd))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip =
  Helpers.qtest ~count:500 "decode inverts encode" gen_ckpt (fun c ->
      Checkpoint.equal c (Checkpoint.decode (Checkpoint.encode c)))

let rejects f =
  match f () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed checkpoint must be rejected"

let test_codec_rejects_malformed () =
  let c =
    {
      Checkpoint.proc = 3;
      algo =
        Checkpoint.Vc
          {
            Checkpoint.v_queue = [];
            v_decoder = [| 1; 2; 3 |];
            v_app_done = false;
            v_held = None;
            v_last = None;
            v_last_seq = 2;
          };
      transport = { Transport.st_txs = []; st_rxs = [] };
      watchdog = None;
    }
  in
  let s = Checkpoint.encode c in
  rejects (fun () -> Checkpoint.decode "");
  rejects (fun () -> Checkpoint.decode "bogus/9 1 2 3");
  rejects (fun () -> Checkpoint.decode (s ^ " 7"));
  (* Truncation: drop the last token of the stream. *)
  rejects (fun () ->
      Checkpoint.decode (String.sub s 0 (String.rindex s ' ')));
  rejects (fun () -> Checkpoint.decode (Checkpoint.version ^ " 0 4"))

(* The algo variant keeps its wcp-ckpt/1 number: 0 for a vc monitor,
   2 for a dd monitor. The numbers in between name no variant, so a
   stream carrying one is refused rather than read as a monitor of
   another kind. *)
let codec_tags_stable =
  Helpers.qtest ~count:200 "algo tags 0 (vc) and 2 (dd); 1 and 3 refused"
    gen_ckpt (fun c ->
      let toks =
        Array.of_list (String.split_on_char ' ' (Checkpoint.encode c))
      in
      let tag =
        match c.Checkpoint.algo with Checkpoint.Vc _ -> "0" | Dd _ -> "2"
      in
      let with_tag t =
        let toks = Array.copy toks in
        toks.(2) <- t;
        String.concat " " (Array.to_list toks)
      in
      let refused t =
        match Checkpoint.decode (with_tag t) with
        | exception Failure _ -> true
        | _ -> false
      in
      String.equal toks.(2) tag && refused "1" && refused "3")

(* ------------------------------------------------------------------ *)
(* Restart heals: detector matrix against the fault-free oracle        *)
(* ------------------------------------------------------------------ *)

(* Mid-protocol restart of the monitor of application process 0: its
   in-memory state is destroyed at [from_t] and rebuilt from its last
   checkpoint at [until_t]. *)
let restart_plan comp ~from_t ~until_t =
  let n = Computation.n comp in
  Fault.make
    ~windows:
      [ Fault.window ~kind:Fault.Restart ~proc:(n + 0) ~from_t ~until_t () ]
    ()

(* Every detector that accepts a fault plan, its cut restricted to the
   spec (multi-token with up to four groups). *)
let recovered ~fault ~seed comp spec =
  List.filter_map
    (fun (d : Detectors.t) ->
      if not d.faults then None
      else
        let r =
          d.run ~fault ~options:Detection.default_options ~groups:4 ~seed comp
            spec
        in
        Some (d.name, Detectors.spec_outcome d spec r.Detection.outcome))
    Detectors.all

let test_restart_heals_matrix () =
  List.iter
    (fun (params, s) ->
      let comp = Helpers.build_comp params in
      let spec = Spec.all comp in
      let expected = Oracle.first_cut comp spec in
      let fault = restart_plan comp ~from_t:2.0 ~until_t:10.0 in
      let seed = Int64.of_int s in
      List.iter
        (fun (name, outcome) ->
          Alcotest.check Helpers.outcome
            (Format.asprintf "%s heals %a seed %d" name Computation.pp_summary
               comp s)
            expected outcome)
        (recovered ~fault ~seed comp spec))
    [
      ((8, 6, 50, 50, 21), 1);
      ((16, 5, 50, 50, 22), 2);
      ((32, 4, 40, 50, 23), 3);
    ]

(* Early restarts: every watched monitor in turn, destroyed around the
   time the injected start token reaches it and rebuilt eight time
   units later. The checkpoint taken after every handled message
   includes that token, so each fault-accepting detector still reports
   the oracle's cut. *)
let test_early_restart_heals () =
  let comp = Helpers.build_comp (4, 8, 30, 50, 4) in
  let n = Computation.n comp in
  let spec = Spec.all comp in
  let expected = Oracle.first_cut comp spec in
  List.iter
    (fun p ->
      List.iter
        (fun from_t ->
          let fault =
            Fault.make
              ~windows:
                [
                  Fault.window ~kind:Fault.Restart ~proc:(n + p) ~from_t
                    ~until_t:(from_t +. 8.0) ();
                ]
              ()
          in
          List.iter
            (fun (name, outcome) ->
              Alcotest.check Helpers.outcome
                (Printf.sprintf "%s heals monitor %d restarted at %.1f" name
                   (n + p) from_t)
                expected outcome)
            (recovered ~fault ~seed:42L comp spec))
        [ 0.5; 1.0; 2.0; 3.0 ])
    (List.init n Fun.id)

(* The restore must actually happen: checkpoint and restore counters
   are live, and the run still matches the oracle. *)
let test_restart_counters () =
  let comp = Helpers.build_comp (8, 6, 50, 50, 21) in
  let spec = Spec.all comp in
  let fault = restart_plan comp ~from_t:1.0 ~until_t:8.0 in
  let r = Token_vc.detect ~fault ~seed:1L comp spec in
  Alcotest.check Helpers.outcome "verdict preserved"
    (Oracle.first_cut comp spec) r.Detection.outcome;
  let st = r.Detection.stats in
  Alcotest.(check bool) "checkpoints taken" true (Stats.checkpoints st > 0);
  Alcotest.(check int) "one restore" 1 (Stats.restores st)

(* Recovery observables stay zero when nobody restarts. *)
let test_no_restart_zero_counters () =
  let comp = Helpers.build_comp (4, 5, 40, 60, 13) in
  let spec = Spec.all comp in
  let r =
    Token_vc.detect ~fault:(Fault.uniform ~seed:7L ~drop:0.2 ()) ~seed:7L comp
      spec
  in
  let st = r.Detection.stats in
  Alcotest.(check int) "no checkpoints" 0 (Stats.checkpoints st);
  Alcotest.(check int) "no restores" 0 (Stats.restores st);
  Alcotest.(check int) "no replay" 0 (Stats.replayed st)

(* Deterministic resume: equal seeds reproduce a restart run bit for
   bit, recovery counters included. *)
let test_restart_deterministic () =
  let comp = Helpers.build_comp (8, 6, 50, 50, 21) in
  let spec = Spec.all comp in
  let run () =
    let fault = restart_plan comp ~from_t:1.5 ~until_t:9.0 in
    let r = Token_dd.detect ~fault ~seed:11L comp spec in
    Format.asprintf "%a | sent=%d retx=%d replayed=%d ckpts=%d restores=%d t=%.9f"
      Detection.pp_outcome r.Detection.outcome
      (Stats.total_sent r.Detection.stats)
      (Stats.total_retransmits r.Detection.stats)
      (Stats.replayed r.Detection.stats)
      (Stats.checkpoints r.Detection.stats)
      (Stats.restores r.Detection.stats)
      r.Detection.sim_time
  in
  Alcotest.(check string) "bit-identical restart run" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Recovery soak                                                       *)
(* ------------------------------------------------------------------ *)

(* Seeded crash/restart loop over random computations, windows and
   link chaos, every fault-accepting detector on each. *)
let test_recovery_soak () =
  for i = 1 to 60 do
    let params =
      (3 + (i mod 5), 3 + (i mod 6), i * 17 mod 101, 30 + (i * 7 mod 60), 500 + i)
    in
    let comp = Helpers.build_comp params in
    let n = Computation.n comp in
    let spec = Spec.all comp in
    let expected = Oracle.first_cut comp spec in
    let from_t = 0.5 +. float_of_int (i mod 4) in
    let until_t = from_t +. 4.0 +. float_of_int (i mod 5) in
    let windows =
      [ Fault.window ~kind:Fault.Restart ~proc:(n + (i mod n)) ~from_t ~until_t () ]
    in
    let drop = if i mod 2 = 0 then 0.15 else 0.0 in
    let fault =
      Fault.uniform ~seed:(Int64.of_int (97 * i)) ~drop ~windows ()
    in
    let seed = Int64.of_int (31 * i) in
    List.iter
      (fun (name, outcome) ->
        Alcotest.check Helpers.outcome
          (Format.asprintf "soak %d: %s %a" i name Computation.pp_summary comp)
          expected outcome)
      (recovered ~fault ~seed comp spec)
  done

let () =
  Alcotest.run "recovery"
    [
      ( "codec",
        [
          codec_roundtrip;
          Alcotest.test_case "malformed streams rejected" `Quick
            test_codec_rejects_malformed;
          codec_tags_stable;
        ] );
      ( "restart-heals",
        [
          Alcotest.test_case "matrix: every token detector, n in {8,16,32}"
            `Quick test_restart_heals_matrix;
          Alcotest.test_case "early restart of every monitor" `Quick
            test_early_restart_heals;
          Alcotest.test_case "checkpoint/restore counters live" `Quick
            test_restart_counters;
          Alcotest.test_case "restart-free runs stay untouched" `Quick
            test_no_restart_zero_counters;
          Alcotest.test_case "deterministic resume" `Quick
            test_restart_deterministic;
        ] );
      ( "soak",
        [ Alcotest.test_case "seeded crash/restart loop" `Quick test_recovery_soak ] );
    ]
