(* The timing benchmark's own helpers: tail-percentile refusal and
   aggregate rates, the cut-completing-event locator (checked against
   the incremental slice plus a detector on every stream prefix), and
   the timed-phase peak-RSS reset. *)

open Wcp_trace
open Wcp_core
open Perfbench
module Slice = Wcp_slice.Slice

(* --- statistics ----------------------------------------------------- *)

let samples k = Array.init k (fun i -> float_of_int (i + 1))

let test_percentile_refusal () =
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.samples_for ~pct:90);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.samples_for ~pct:50);
  (match Stats.percentile ~pct:90 (samples 99) with
  | Ok v -> Alcotest.failf "p90 of 99 samples accepted (%g)" v
  | Error _ -> ());
  (match Stats.percentile ~pct:50 (samples 19) with
  | Ok v -> Alcotest.failf "p50 of 19 samples accepted (%g)" v
  | Error _ -> ());
  (* nearest rank: the 90th of 1..100, the 50th of 100..1 *)
  Alcotest.(check (result (float 0.) string))
    "p90 of 100" (Ok 90.)
    (Stats.percentile ~pct:90 (samples 100));
  let rev = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (result (float 0.) string))
    "p50 ignores order" (Ok 50.)
    (Stats.percentile ~pct:50 rev)

let test_rate_and_line () =
  (* three verdicts of 1000 events in 0.5 s, 0.25 s and 0.25 s:
     3000 events / 1 s, not the 6000/s mean of per-verdict rates *)
  Alcotest.(check (float 1e-9))
    "total over total" 3000.
    (Stats.rate ~events:3000 ~seconds:1.0);
  Alcotest.check_raises "no timed seconds"
    (Invalid_argument "Stats.rate: no timed seconds") (fun () ->
      ignore (Stats.rate ~events:1 ~seconds:0.));
  Alcotest.(check (float 0.)) "median of set-ups" 2. (Stats.median [| 3.; 1.; 2. |]);
  let l = Stats.line ~name:"verdict_ms_p50" ~unit:"ms" ~count:150 12.5 in
  let has sub =
    let n = String.length sub and m = String.length l in
    let rec go i = i + n <= m && (String.sub l i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the metric" true (has "verdict_ms_p50");
  Alcotest.(check bool) "gives the unit" true (has " ms ");
  Alcotest.(check bool) "gives the sample count" true (has "(n=150)")

(* --- cut-completing-event locator ----------------------------------- *)

(* The first [len] stream events through an incremental slice (the
   vc-family keep policy the served checker uses), then the checker on
   the finished slice, remapped to dense coordinates. *)
let prefix_outcome comp ~procs ~len =
  let src = Computation.Stream.of_computation comp in
  let n = Computation.n comp in
  let member = Array.make n false in
  Array.iter (fun p -> member.(p) <- true) procs;
  let pred p s = src.Computation.Stream.pred ~proc:p ~state:s in
  let keep ~proc ~state = member.(proc) && pred proc state in
  let b = Slice.Incremental.create ~n ~keep ~pred0:(fun p -> pred p 1) in
  let fed = ref 0 in
  Locate.linearize src ~emit:(fun ~proc ~k:_ ~op ~state ->
      if !fed < len then begin
        match op with
        | Computation.Send { dst; msg } ->
            Slice.Incremental.on_send b ~proc ~dst ~msg ~pred:(pred proc state)
        | Computation.Recv { msg } ->
            Slice.Incremental.on_receive b ~proc ~msg ~pred:(pred proc state)
      end;
      incr fed);
  let sl = Slice.Incremental.finish b in
  let sliced = Slice.computation sl in
  let r = Checker_centralized.detect ~seed:1L sliced (Spec.make sliced procs) in
  Detection.remap_outcome (Slice.remap_cut sl) r.Detection.outcome

let test_locator () =
  let checked = ref 0 in
  for seed = 1 to 40 do
    let n = 3 + (seed mod 4) in
    let params =
      {
        Generator.n;
        sends_per_process = 4 + (seed mod 7);
        p_pred = (if seed mod 2 = 0 then 0.2 else 0.35);
        p_recv = 0.5;
      }
    in
    let comp = Generator.random ~params ~seed:(Int64.of_int seed) () in
    let procs =
      if seed mod 3 = 0 then Array.init (n - 1) (fun i -> i + 1)
      else Array.init n Fun.id
    in
    match Oracle.first_cut comp (Spec.make comp procs) with
    | Detection.No_detection | Detection.Undetectable_crashed _ -> ()
    | Detection.Detected cut as reference ->
        incr checked;
        let located =
          match
            Locate.completing_event (Computation.Stream.of_computation comp) cut
          with
          | None -> 0
          | Some c -> c.Locate.index + 1
        in
        let total = Computation.total_states comp - n in
        let rec shortest len =
          if len > total then Alcotest.failf "seed %d: no prefix yields the cut" seed
          else if
            Detection.outcome_equal reference (prefix_outcome comp ~procs ~len)
          then len
          else shortest (len + 1)
        in
        Alcotest.(check int)
          (Printf.sprintf "seed %d: located prefix = shortest detecting prefix" seed)
          (shortest 0) located
  done;
  Alcotest.(check bool) "enough detected traces" true (!checked >= 20)

(* --- peak RSS -------------------------------------------------------- *)

let test_peak_reset () =
  if not (Rss.reset_peak ()) then Alcotest.skip ();
  let kb () =
    match Rss.peak_kb () with Some v -> v | None -> Alcotest.fail "no VmHWM"
  in
  let before = kb () in
  let block = Bytes.make (32 * 1024 * 1024) 'x' in
  let after = kb () in
  ignore (Sys.opaque_identity block);
  if after - before < 24 * 1024 then
    Alcotest.failf "a 32 MiB allocation after the reset moved VmHWM by %d KiB"
      (after - before)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile refusal" `Quick test_percentile_refusal;
          Alcotest.test_case "rate and line" `Quick test_rate_and_line;
        ] );
      ("locate", [ Alcotest.test_case "prefix property" `Quick test_locator ]);
      ("rss", [ Alcotest.test_case "peak reset" `Quick test_peak_reset ]);
    ]
