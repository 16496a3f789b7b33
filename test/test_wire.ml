(* The wire-efficiency layer (Wcp_core.Wire): hybrid snapshot codec,
   interval gating, token meter and app-tag plan. The properties here
   pin the bits-accounting model: what the encoder charges is what a
   decoder replaying the same channel reconstructs, encoded forms never
   exceed their dense fallbacks, and gating thins candidate streams
   without ever touching the first candidate of an interval. *)

open Wcp_trace
open Wcp_core

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let random_comp ~n ~m ~seed =
  Generator.random
    ~params:{ Generator.n; sends_per_process = m; p_pred = 0.3; p_recv = 0.5 }
    ~seed ()

let gen_comp =
  QCheck2.Gen.(
    map
      (fun (n, m, seed) ->
        random_comp ~n:(2 + n) ~m:(1 + m) ~seed:(Int64.of_int seed))
      (triple (int_range 0 10) (int_range 0 12) (int_range 1 10_000)))

(* --- Snapshot codec ---------------------------------------------- *)

let prop_codec_roundtrip =
  qtest "encoded stream decodes back to the exact gated candidates"
    gen_comp (fun comp ->
      let spec = Spec.all comp in
      let width = Spec.width spec in
      Array.for_all
        (fun p ->
          let dec = Wire.snap_decoder ~width in
          let decoded =
            List.map
              (fun (_, msg) -> Wire.decode_snap dec msg)
              (Wire.encoded_stream ~delta:true comp spec ~proc:p)
          in
          decoded = Snapshot.vc_stream comp spec ~proc:p)
        (Spec.procs spec))

let prop_encoded_never_larger =
  (* The hybrid choice: every shipped snapshot is charged at most the
     dense size, and the charge is exactly [Messages.bits] of what is
     on the wire (encoded size == decoded-replay size, since the
     decoder sees the same message). *)
  qtest "hybrid snapshots never exceed the dense charge" gen_comp
    (fun comp ->
      let spec = Spec.all comp in
      let width = Spec.width spec in
      let dense = 32 * (width + 1) in
      Array.for_all
        (fun p ->
          List.for_all
            (fun (_, msg) -> Messages.bits ~spec_width:width msg <= dense)
            (Wire.encoded_stream ~delta:true comp spec ~proc:p))
        (Spec.procs spec))

(* --- Interval gating --------------------------------------------- *)

let prop_gating_keeps_first =
  qtest "gating never drops the first interval candidate" gen_comp
    (fun comp ->
      let spec = Spec.all comp in
      Array.for_all
        (fun p ->
          let all = Snapshot.vc_stream ~gated:false comp spec ~proc:p in
          let gated = Snapshot.vc_stream ~gated:true comp spec ~proc:p in
          match (all, gated) with
          | [], [] -> true
          | first :: _, kept :: _ -> first = kept
          | _ -> false)
        (Spec.procs spec))

let prop_gating_send_separated =
  (* The dominance argument needs a send of the process between any two
     shipped candidates; and gating must be a pure thinning (every
     shipped candidate was a candidate). *)
  qtest "consecutive shipped candidates are separated by a send"
    gen_comp (fun comp ->
      let spec = Spec.all comp in
      Array.for_all
        (fun p ->
          let all = Snapshot.vc_stream ~gated:false comp spec ~proc:p in
          let gated = Snapshot.vc_stream ~gated:true comp spec ~proc:p in
          List.for_all (fun (s : Snapshot.vc) -> List.mem s all) gated
          &&
          let rec ok = function
            | (a : Snapshot.vc) :: (b : Snapshot.vc) :: rest ->
                Computation.sends_in comp ~proc:p ~lo:a.Snapshot.state
                  ~hi:(b.Snapshot.state - 1)
                && ok (b :: rest)
            | _ -> true
          in
          ok gated)
        (Spec.procs spec))

(* --- Token meter -------------------------------------------------- *)

let test_token_meter () =
  let width = 8 in
  let meter = Wire.token_meter ~width in
  let dense = Wire.dense_token_bits ~width in
  let g = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let b1 = Wire.token_bits meter ~src:0 ~dst:1 g in
  Alcotest.(check bool) "first hop at most dense" true (b1 <= dense);
  (* Same vector on the same edge again: nothing changed, so only the
     header word and the packed color vector are charged. *)
  let b2 = Wire.token_bits meter ~src:0 ~dst:1 g in
  Alcotest.(check int) "unchanged vector is header + colors"
    (32 * (1 + Wire.packed_color_words ~width))
    b2;
  (* A different edge keeps its own base, so the same vector is a full
     delta there. *)
  let b3 = Wire.token_bits meter ~src:1 ~dst:2 g in
  Alcotest.(check bool) "fresh edge pays the full delta" true (b3 > b2)

(* --- Application-tag plan ----------------------------------------- *)

let prop_app_plan_bounded =
  qtest "app-tag plan entries sit between header-only and dense"
    gen_comp (fun comp ->
      let spec = Spec.all comp in
      let width = Spec.width spec in
      let plan = Wire.app_tag_plan comp spec in
      let lookup = Wire.replay_app_bits comp spec in
      let ok = ref (Array.length plan = Array.length (Computation.messages comp)) in
      Array.iteri
        (fun id bits ->
          if bits < 32 * 2 || bits > 32 * (1 + width) then ok := false;
          if lookup id <> bits then ok := false)
        plan;
      !ok)

(* --- End-to-end ablation ------------------------------------------ *)

let test_delta_ablation () =
  (* ?delta changes no message counts and no RNG draws: outcome, hops
     and snapshot counts are identical across both settings; only the
     bits drop. This is the unit-size version of bench E16. *)
  List.iter
    (fun seed ->
      let comp = random_comp ~n:6 ~m:10 ~seed in
      let spec = Spec.all comp in
      let a =
        Token_vc.detect ~options:{ Detection.delta = true } ~seed comp spec
      in
      let b =
        Token_vc.detect ~options:{ Detection.delta = false } ~seed comp spec
      in
      Alcotest.(check bool)
        "same outcome" true
        (Detection.outcome_equal a.outcome b.outcome);
      Alcotest.(check int) "same hops" b.extras.Detection.token_hops
        a.extras.Detection.token_hops;
      Alcotest.(check int) "same snapshots" b.extras.Detection.snapshots
        a.extras.Detection.snapshots;
      Alcotest.(check bool) "delta bits never larger" true
        (Wcp_sim.Stats.total_bits a.stats <= Wcp_sim.Stats.total_bits b.stats))
    [ 1L; 2L; 3L ]

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          prop_codec_roundtrip;
          prop_encoded_never_larger;
          Alcotest.test_case "token meter" `Quick test_token_meter;
          prop_app_plan_bounded;
        ] );
      ( "gating",
        [
          prop_gating_keeps_first;
          prop_gating_send_separated;
        ] );
      ( "ablation",
        [ Alcotest.test_case "delta on/off" `Quick test_delta_ablation ] );
    ]
