(* Reproduction harness: regenerates every evaluation artefact of
   Garg & Chase (ICDCS 1995). The paper is analytical, so each table
   is a measured check of a §3.4 / §3.5 / §4.4 / §5 claim (see
   DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured commentary). Every table is a view of Bench_json
   rows: what it prints is what `make perf-check` gates.

   Usage:  dune exec bench/main.exe               (tables, fresh run + micro)
           dune exec bench/main.exe -- tables [FILE]
                    (every table, from the wcp-bench document FILE or
                    from a fresh full run)
           dune exec bench/main.exe -- e1 .. e22  (one table, fresh run)
           dune exec bench/main.exe -- micro      (Bechamel E13 only)

   Machine-readable mode (see EXPERIMENTS.md and Bench_json):
           dune exec bench/main.exe -- json [--smoke] [--seq]
                                            [--domains K] [--out FILE]
           dune exec bench/main.exe -- perf-check BASELINE [CURRENT]
                                                  [--subset]
   (--subset: CURRENT may cover only part of BASELINE — the
   bench-smoke gate — but every job it does cover must match.)         *)

module B = Wcp_bench.Bench_json

let line = String.make 78 '-'

let header title claim =
  Printf.printf "\n%s\n%s\n%s\n%s\n" line title claim line

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(* A table prints one line per group of the rows it reads; each column
   is a function of the group's rows. A column that reads an arm the
   group lacks prints "-". *)
type table = {
  id : string;
  title : string;
  claim : string;
  rows : B.job -> bool;
  group : B.job -> B.job;  (* rows with equal images share a line *)
  cols : (string * (B.row list -> string)) list;
}

exception Missing

let int c (r : B.row) = B.int_col r c
let flt c (r : B.row) = B.float_col r c
let first = function r :: _ -> r | [] -> raise Missing
let yes b = if b then "yes" else "NO"
let ms ns = float_of_int ns /. 1e6

(* Means over the group's rows (its seeds); integer means truncate. *)
let mean_i f = function
  | [] -> raise Missing
  | rs -> List.fold_left (fun a r -> a + f r) 0 rs / List.length rs

let mean_f f = function
  | [] -> raise Missing
  | rs ->
      List.fold_left (fun a r -> a +. f r) 0.0 rs
      /. float_of_int (List.length rs)

(* Arms: the group's rows of one experiment, algorithm or param value. *)
let where p = List.filter (fun (r : B.row) -> p r.job)
let exp e (j : B.job) = j.experiment = e
let algo a = where (fun j -> j.algo = a)
let param k = where (fun j -> j.param = k)

(* Cells: an arm's mean of a row expression ([ci], [cf]), the mean of
   a row column ([col]), a job coordinate the group shares ([cj], [cs]),
   the ratio of two arms' means of a column ([ratio]). *)
let ci ?(arm = Fun.id) (f : B.row -> int) rs = string_of_int (mean_i f (arm rs))

let cf ?(arm = Fun.id) fmt (f : B.row -> float) rs =
  Printf.sprintf fmt (mean_f f (arm rs))

let col ?arm h c = (h, ci ?arm (int c))
let cj h f = (h, fun rs -> string_of_int (f (first rs : B.row).job))
let cs h f = (h, fun rs -> f (first rs : B.row).job)

let ratio c a b rs =
  let v arm = mean_i (int c) (arm rs) in
  Printf.sprintf "%.2f" (float_of_int (v a) /. float_of_int (max 1 (v b)))

(* Every row of a nonempty arm satisfies [p]. *)
let holds ?(arm = Fun.id) (p : B.row -> bool) rs =
  let rs = arm rs in
  ignore (first rs);
  List.for_all p rs

let all ?arm p rs = yes (holds ?arm p rs)

let oracle_ok (r : B.row) = r.outcome <> "oracle-mismatch"

(* The group's (param 0, param 1) rows, paired by seed. *)
let pairs rs =
  match
    List.filter_map
      (fun (a : B.row) ->
        List.find_opt
          (fun (b : B.row) -> b.job.param <> 0 && b.job.seed = a.job.seed)
          rs
        |> Option.map (fun b -> (a, b)))
      (param 0 rs)
  with
  | [] -> raise Missing
  | ps -> ps

(* Each seed's two arms spell the same outcome. *)
let same_cut rs =
  yes (List.for_all (fun ((a : B.row), (b : B.row)) -> a.outcome = b.outcome) (pairs rs))

let seedless (j : B.job) = { j with seed = 0 }
let armless (j : B.job) = { j with seed = 0; algo = "" }
let paramless (j : B.job) = { j with seed = 0; param = 0 }
let n = cj "n" (fun j -> j.n)
let m = cj "m" (fun j -> j.m)
let algo_col = cs "algo" (fun j -> j.algo)
let wall_ms r = ms r.B.wall_ns

(* E1's 2nm and E4's 3Nm message bounds, m the longest process's event
   count. *)
let bound k (r : B.row) = k * r.job.n * (int "max_events" r + 1)

let tables =
  [
    { id = "E1"; rows = exp "E1"; group = seedless;
      title = "token-vc scaling (paper §3.4)";
      claim = "claim: <= 2nm monitor messages; O(n^2 m) total work/bits; O(nm) per process";
      cols =
        [ n; m; col "states" "states"; col "hops" "hops";
          ("mon-msgs", ci (fun r -> int "hops" r + int "snapshots" r));
          ("2nm", ci (bound 2)); col "work" "work";
          ( "work/n2m",
            cf "%.3f" (fun r ->
                float_of_int (int "work" r) /. float_of_int (bound r.job.n r)) );
          col "max-work" "max_work" ] };
    { id = "E2"; rows = exp "E2"; group = armless;
      title = "space and work skew: checker [7] vs token-vc (paper §3.4)";
      claim = "claim: checker needs O(n^2 m) words on ONE process; token-vc O(nm) each";
      cols =
        [ n;
          col ~arm:(algo "checker") "chk-space" "monitor_space";
          col ~arm:(algo "token-vc") "tok-space" "monitor_space";
          ("ratio", ratio "monitor_space" (algo "checker") (algo "token-vc"));
          col ~arm:(algo "checker") "chk-max-work" "max_work";
          col ~arm:(algo "token-vc") "tok-max-work" "max_work" ] };
    { id = "E3"; rows = exp "E3"; group = seedless;
      title = "multi-token parallelism (paper §3.5)";
      claim = "claim: g tokens work concurrently; detection (simulated) time drops with g";
      cols =
        [ cj "g" (fun j -> j.param); ("sim-time", cf "%.1f" (flt "sim_time"));
          col "hops" "hops"; col "merges" "merges"; col "msgs" "messages" ] };
    { id = "E4"; rows = exp "E4"; group = seedless;
      title = "token-dd scaling (paper §4.4)";
      claim = "claim: <= 3Nm monitor messages, O(Nm) bits, O(m) work & space per process";
      cols =
        [ cj "N" (fun j -> j.n); m; col "polls" "polls"; col "hops" "hops";
          ("mon-msgs", ci (fun r -> (2 * int "polls" r) + int "hops" r));
          ("3Nm", ci (bound 3)); col "bits" "monitor_bits";
          col "max-work" "max_work"; col "max-spc" "monitor_space" ] };
    { id = "E5"; rows = exp "E5"; group = armless;
      title = "vc vs dd crossover (paper §1/§4/§6)";
      claim = "claim: dd's O(Nm) beats vc's O(n^2 m) once n^2 >> N  (here N = 64, so n ~ 8)";
      cols =
        [ cj "n" (fun j -> j.param);
          col ~arm:(algo "token-vc") "vc-bits" "bits";
          col ~arm:(algo "token-dd") "dd-bits" "bits";
          ( "winner",
            fun rs ->
              let bits a = mean_i (int "bits") (algo a rs) in
              if bits "token-vc" < bits "token-dd" then "vc" else "dd" );
          col ~arm:(algo "token-vc") "vc-mon-bits" "monitor_bits";
          col ~arm:(algo "token-dd") "dd-mon-bits" "monitor_bits";
          col ~arm:(algo "token-vc") "vc-work" "work";
          col ~arm:(algo "token-dd") "dd-work" "work" ] };
    { id = "E6"; rows = exp "E6"; group = Fun.id;
      title = "adversary lower bound (paper §5, Theorem 5.1)";
      claim = "claim: any S1/S2 algorithm is forced through >= nm - n sequential deletions";
      cols =
        [ n; m; col "rounds" "events"; col "deletions" "work";
          cj "nm-n" (fun j -> (j.n * j.m) - j.n);
          ( "ratio",
            cf "%.3f" (fun r ->
                float_of_int (int "work" r)
                /. float_of_int (max 1 ((r.job.n * r.job.m) - r.job.n))) ) ] };
    { id = "E7"; rows = exp "E7"; group = (fun j -> { j with algo = "" });
      title = "agreement matrix: all detectors vs the oracle (Figs 2-5)";
      claim = "claim: every algorithm halts with the FIRST cut satisfying the WCP";
      cols =
        cs "workload" (fun j ->
            if j.param = 0 then Printf.sprintf "random p=%g" j.p_pred
            else List.nth (B.e7_workload_names ()) (j.param - 1))
        :: ( "outcome",
             fun rs ->
               match List.find_opt oracle_ok rs with
               | Some { B.outcome = "detected"; _ } -> "detect"
               | Some { B.outcome = "none"; _ } -> "none"
               | Some { B.outcome = "undetectable"; _ } -> "crash"
               | _ -> "?" )
        :: List.map
             (fun a ->
               ( a,
                 fun rs -> if holds ~arm:(algo a) oracle_ok rs then "ok" else "FAIL" ))
             Wcp_core.Detectors.names };
    { id = "E8"; rows = exp "E8"; group = armless;
      title = "prefetching dd variant (paper §4.5)";
      claim = "claim: overlapping candidate search with the token shrinks detection time";
      cols =
        [ cj "N" (fun j -> j.n);
          ("seq-time", cf ~arm:(algo "token-dd") "%.1f" (flt "sim_time"));
          ("par-time", cf ~arm:(algo "token-dd-par") "%.1f" (flt "sim_time"));
          ( "speedup",
            fun rs ->
              let t a = mean_f (flt "sim_time") (algo a rs) in
              Printf.sprintf "%.2f" (t "token-dd" /. t "token-dd-par") );
          col ~arm:(algo "token-dd") "seq-polls" "polls";
          col ~arm:(algo "token-dd-par") "par-polls" "polls" ] };
    { id = "E9"; rows = exp "E9"; group = seedless;
      title = "chaos matrix: detection under message loss";
      claim =
        "claim: with retransmission and a token watchdog, every run finds the \
         fault-free first cut";
      cols =
        algo_col
        :: cs "drop" (fun j -> Printf.sprintf "%d%%" j.param)
        :: List.map
             (fun (h, c) -> (h, cf "%.1f" (fun r -> float_of_int (int c r))))
             [ ("retransmits", "retransmits"); ("dup-suppressed", "dups_suppressed");
               ("net-drop", "net_dropped"); ("net-dup", "net_duplicated") ]
        @ [ col "msgs" "messages"; ("sim-time", cf "%.1f" (flt "sim_time"));
            ("agree", all oracle_ok) ] };
    { id = "E10";
      rows = (fun j -> exp "E10" j || (exp "E3" j && List.mem j.param [ 2; 4; 8 ]));
      group = (fun j -> { j with seed = 0; experiment = "" });
      title = "ablation: multi-token group assignment (design choice, §3.5)";
      claim =
        "the paper leaves the monitor partition open; round-robin (E3's rows) vs \
         contiguous blocks";
      cols =
        [ cj "g" (fun j -> j.param);
          ("rr-time", cf ~arm:(where (exp "E3")) "%.1f" (flt "sim_time"));
          ("blocks-time", cf ~arm:(where (exp "E10")) "%.1f" (flt "sim_time"));
          col ~arm:(where (exp "E3")) "rr-hops" "hops";
          col ~arm:(where (exp "E10")) "blocks-hops" "hops" ] };
    { id = "E11"; rows = exp "E11"; group = armless;
      title = "ablation: latency model sensitivity";
      claim = "verdicts are latency-independent; detection time scales with the model";
      cols =
        [ cs "latency" (fun j -> fst (List.nth B.e11_latencies j.param));
          ("vc-time", cf ~arm:(algo "token-vc") "%.1f" (flt "sim_time"));
          ("dd-time", cf ~arm:(algo "token-dd") "%.1f" (flt "sim_time"));
          ("agree", all oracle_ok) ] };
    { id = "E12"; rows = exp "E12"; group = armless;
      title = "ablation: token starting position (§3.2)";
      claim = "\"the token can start on any process\": verdicts identical, hop counts shift";
      cols =
        [ cj "start" (fun j -> j.param);
          col ~arm:(algo "token-vc") "vc-hops" "hops";
          col ~arm:(algo "token-dd") "dd-hops" "hops";
          ("agree", all oracle_ok) ] };
    { id = "E14"; rows = (fun j -> exp "E1" j && j.seed = 1); group = Fun.id;
      title = "tracing: events an attached recorder captures (E1 rows, seed 1)";
      claim =
        "claim: recording is invisible to the engine; its cost is in the micro \
         suite (e14 tests)";
      cols = [ n; m; col "events" "trace_events" ] };
    { id = "E15"; rows = exp "E15"; group = Fun.id;
      title = "multicore throughput: detection sessions/sec vs domains";
      claim = "claim: Parallel.map output is byte-identical at any domain count; wall drops";
      cols =
        [ cj "domains" (fun j -> j.param);
          ("sessions", fun _ -> string_of_int B.e15_sessions);
          ("wall-ms", cf "%.1f" wall_ms);
          ("sess/s", cf "%.0f" (fun r -> float_of_int B.e15_sessions /. (wall_ms r /. 1e3)));
          ("identical", all (fun r -> r.outcome = "ok")) ] };
    { id = "E16"; rows = exp "E16"; group = paramless;
      title = "delta encoding: wire bits vs the dense baseline";
      claim =
        "claim: sparse clock updates make delta+gating cut bits >= 2x at n=32; \
         cuts identical";
      cols =
        [ algo_col; n;
          col ~arm:(param 0) "dense-bits" "bits";
          col ~arm:(param 1) "delta-bits" "bits";
          ("ratio", ratio "bits" (param 0) (param 1));
          ( "same-cut",
            fun rs ->
              (* Everything but the priced bits agrees. *)
              yes
                (List.for_all
                   (fun (a, b) -> B.drift ~except:[ "bits"; "monitor_bits" ] a b = [])
                   (pairs rs)) ) ] };
    { id = "E17"; rows = exp "E17"; group = paramless;
      title = "computation slicing: detect on the slice vs the dense run";
      claim =
        "claim: sparse truth (p_pred=0.02) cuts events examined >= 2x at n=32; \
         cuts identical";
      cols =
        [ algo_col; n; cs "p" (fun j -> Printf.sprintf "%g" j.p_pred);
          col ~arm:(param 1) "slice-state" "slice_states";
          col ~arm:(param 0) "dense-event" "events";
          col ~arm:(param 1) "slice-event" "events";
          ("ratio", ratio "events" (param 0) (param 1));
          ("same-cut", same_cut) ] };
    { id = "E18"; rows = exp "E18"; group = (fun j -> { j with algo = ""; param = 0 });
      title = "domain-parallel checker: wall-clock crossover vs centralized";
      claim = "claim: byte-identical cuts at every domain count; parallel wins at n>=64";
      cols =
        (n :: ("checker-ms", cf ~arm:(algo "checker") "%.2f" wall_ms)
         :: List.map
              (fun d ->
                ( Printf.sprintf "d=%d-ms" d,
                  cf ~arm:(where (fun j -> j.algo = "parallel" && j.param = d)) "%.2f"
                    wall_ms ))
              [ 1; 2; 4; 8 ])
        @ [ ( "speedup",
              fun rs ->
                let best =
                  List.fold_left (fun a r -> Float.min a (wall_ms r)) Float.infinity
                    (algo "parallel" rs)
                in
                Printf.sprintf "%.2f" (wall_ms (first (algo "checker" rs)) /. best) );
            col ~arm:(where (fun j -> j.algo = "parallel" && j.param = 1)) "rounds"
              "par_rounds";
            ( "same-cut",
              fun rs ->
                (* Every domain count spells the checker's cut, with the same
                   round shape. *)
                let ck = first (algo "checker" rs) and par = algo "parallel" rs in
                let p1 = first par in
                yes
                  (List.for_all
                     (fun (p : B.row) -> p.outcome = ck.outcome && B.drift p1 p = [])
                     par) ) ] };
    { id = "E19"; rows = exp "E19"; group = paramless;
      title = "crash recovery: mid-protocol monitor restart vs fault-free run";
      claim =
        "claim: the recovered run's first cut is byte-identical to the \
         fault-free oracle for every token algorithm";
      cols =
        [ algo_col; n;
          ("ref-t", cf ~arm:(param 0) "%.2f" (flt "sim_time"));
          ("rec-t", cf ~arm:(param 1) "%.2f" (flt "sim_time"));
          ("rec-lat", cf ~arm:(param 1) "%.2f" (flt "recovery_latency"));
          col ~arm:(param 1) "replayed" "replayed";
          col ~arm:(param 1) "retx" "retransmits";
          ("same-cut", same_cut) ] };
    { id = "E20"; rows = exp "E20"; group = paramless;
      title = "always-on telemetry: capacity-1 ring + metrics stream vs bare";
      claim =
        "claim: the stream is byte-deterministic and leaves the cut unchanged; \
         its cost is in the micro suite (e20 tests)";
      cols =
        [ n; col ~arm:(param 1) "lines" "telemetry_lines"; ("agree", same_cut);
          ("deter", all ~arm:(param 1) (fun r -> r.outcome <> "telemetry-mismatch")) ] };
    { id = "E21"; rows = exp "E21"; group = (fun j -> { j with param = 0 });
      title = "binary trace store: mmap'd streamed replay vs dense text decode";
      claim =
        "claim: btrace shrinks the on-disk trace and its decode time while \
         the streamed cut stays byte-identical to the dense reference";
      cols =
        [ algo_col; n; m; cj "seed" (fun j -> j.seed);
          col ~arm:(param 0) "txt-bytes" "trace_bytes";
          col ~arm:(param 1) "bt-bytes" "trace_bytes";
          ("txt-dec", cf ~arm:(param 0) "%.2fms" (fun r -> ms (int "decode_ns" r)));
          ("bt-dec", cf ~arm:(param 1) "%.2fms" (fun r -> ms (int "decode_ns" r)));
          col ~arm:(param 1) "peak-words" "peak_words";
          ("same-cut", same_cut) ] };
    { id = "E22"; rows = exp "E22"; group = Fun.id;
      title = "streaming detection service: domain-sharded sessions over a socket";
      claim =
        "claim: served cuts are byte-identical to offline streamed detection \
         while batched ingest sustains high aggregate events/sec and slow \
         clients shed to disk, not heap";
      cols =
        [ algo_col; cj "sess" (fun j -> j.param / 1000);
          cj "dom" (fun j -> j.param / 10 mod 100);
          cs "mode" (fun j ->
              match j.param mod 10 with 0 -> "bin" | 1 -> "jsonl" | _ -> "slow");
          n; m; ("events/sec", cf "%.0f" (flt "events_per_sec"));
          ("lat-p50", cf "%.1fms" (fun r -> ms (int "lat_p50_ns" r)));
          ("lat-p95", cf "%.1fms" (fun r -> ms (int "lat_p95_ns" r)));
          col "peak-words" "peak_words";
          ("cut-ok", all (fun r -> not (String.starts_with ~prefix:"mismatch" r.outcome)))
        ] };
  ]

(* The table's rows, grouped in order of first appearance. *)
let groups t rows =
  Array.fold_left
    (fun acc (r : B.row) ->
      if not (t.rows r.job) then acc
      else
        let k = t.group r.job in
        if List.mem_assoc k acc then
          List.map (fun (k', rs) -> (k', if k' = k then r :: rs else rs)) acc
        else (k, [ r ]) :: acc)
    [] rows
  |> List.rev_map (fun (_, rs) -> List.rev rs)

(* One table as a padded markdown table. *)
let render rows t =
  header (Printf.sprintf "%-3s %s" t.id t.title) t.claim;
  let lines =
    List.map fst t.cols
    :: List.map
         (fun g -> List.map (fun (_, c) -> try c g with Missing -> "-") t.cols)
         (groups t rows)
  in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map (fun _ -> 3) t.cols)
      lines
  in
  let print cells =
    print_endline
      ("| " ^ String.concat " | " (List.map2 (Printf.sprintf "%*s") widths cells)
     ^ " |")
  in
  print (List.hd lines);
  print_endline
    ("|" ^ String.concat "|" (List.map (fun w -> String.make (w + 1) '-' ^ ":") widths)
   ^ "|");
  List.iter print (List.tl lines)

let render_all rows = List.iter (render rows) tables

(* ------------------------------------------------------------------ *)
(* E13: Bechamel micro-benchmarks                                      *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "E13 CPU micro-benchmarks (Bechamel)"
    "wall-clock cost of one full detection run per algorithm (fixed \
     workload); e14/e20: the E1 workload at n = 32 with each observer";
  let open Bechamel in
  let open Wcp_core in
  let random_comp ~n ~m ~seed =
    Wcp_trace.Generator.random
      ~params:{ n; sends_per_process = m; p_pred = 0.3; p_recv = 0.5 }
      ~seed ()
  in
  let comp = random_comp ~n:8 ~m:12 ~seed:5L in
  let spec = Spec.make comp [| 0; 2; 4; 6 |] in
  let e1 = random_comp ~n:32 ~m:20 ~seed:1L in
  let e1_spec = Spec.all e1 in
  let e1_run ?recorder () =
    ignore (Token_vc.detect ?recorder ~seed:1L e1 e1_spec)
  in
  let mk name f = Test.make ~name (Staged.stage f) in
  let test =
    Test.make_grouped ~name:"detect"
      [
        mk "oracle" (fun () -> ignore (Oracle.first_cut comp spec));
        mk "checker" (fun () ->
            ignore (Checker_centralized.detect ~seed:5L comp spec));
        mk "token-vc" (fun () -> ignore (Token_vc.detect ~seed:5L comp spec));
        mk "multi-token" (fun () ->
            ignore (Token_multi.detect ~groups:2 ~seed:5L comp spec));
        mk "token-dd" (fun () -> ignore (Token_dd.detect ~seed:5L comp spec));
        mk "token-dd-par" (fun () ->
            ignore (Token_dd.detect ~parallel:true ~seed:5L comp spec));
        mk "checker-parallel d=4" (fun () ->
            ignore (Checker_parallel.detect ~domains:4 ~seed:5L comp spec));
        (* The pooled fan-out itself: with the scoped pool warm this is
           dispatch + barrier cost, no domain spawns (satellite of the
           E18 work; Parallel.spawns stays flat across iterations). *)
        mk "parallel-map d=4 (pooled)" (fun () ->
            ignore
              (Wcp_util.Parallel.map ~domains:4
                 (fun x -> x * x)
                 (Array.init 256 Fun.id)));
        mk "lower-bound n=16 m=16" (fun () ->
            let world, _ = Wcp_lowerbound.Adversary.make ~n:16 ~m:16 in
            ignore (Wcp_lowerbound.Detector.run world));
        (* E14/E20: what each observer adds to the E1 run at n = 32. *)
        mk "e14 bare n=32" (fun () -> e1_run ());
        mk "e14 recorder n=32" (fun () ->
            e1_run ~recorder:(Wcp_obs.Recorder.create ()) ());
        mk "e20 ring-1 tap n=32" (fun () ->
            let recorder = Wcp_obs.Recorder.create ~capacity:1 () in
            Wcp_obs.Recorder.attach_tap recorder (fun (_ : Wcp_obs.Event.t) ->
                ());
            e1_run ~recorder ());
        mk "e20 telemetry n=32" (fun () ->
            let buf = Buffer.create 4096 in
            let tel =
              Wcp_obs.Telemetry.create ~sink:(Buffer.add_string buf) ()
            in
            let recorder = Wcp_obs.Recorder.create ~capacity:1 () in
            Wcp_obs.Telemetry.attach tel recorder;
            e1_run ~recorder ();
            Wcp_obs.Telemetry.close tel);
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) tbl [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-32s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        (List.sort compare rows))
    results

(* ------------------------------------------------------------------ *)
(* Machine-readable harness (JSON) and the perf-regression gate        *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: main.exe [tables [FILE] | EXPERIMENT | micro\n\
    \                | json [--smoke] [--seq] [--domains K] [--out FILE]\n\
    \                | perf-check BASELINE [CURRENT] [--subset]]\n\
     EXPERIMENT: %s\n"
    (String.concat " " (List.map (fun t -> String.lowercase_ascii t.id) tables));
  exit 2

let json_mode args =
  let rec parse profile domains out = function
    | [] -> (profile, domains, out)
    | "--smoke" :: rest -> parse B.Smoke domains out rest
    | "--seq" :: rest -> parse profile (Some 1) out rest
    | "--domains" :: k :: rest -> (
        match int_of_string_opt k with
        | Some d when d > 0 -> parse profile (Some d) out rest
        | _ -> usage ())
    | "--out" :: f :: rest -> parse profile domains (Some f) rest
    | _ -> usage ()
  in
  let profile, domains, out = parse B.Full None None args in
  let results = B.run ?domains profile in
  let doc = B.emit ~profile results in
  match out with
  | None -> print_string doc
  | Some f ->
      let oc = open_out f in
      output_string oc doc;
      close_out oc;
      Printf.printf "wrote %d results to %s\n" (Array.length results) f

let parse_file f =
  match In_channel.with_open_bin f In_channel.input_all with
  | exception Sys_error msg ->
      Printf.eprintf "bench: cannot read %s\n" msg;
      Printf.eprintf "  (generate a baseline with: make bench-json)\n";
      exit 1
  | s -> (
      match B.parse_doc s with
      | exception Wcp_obs.Export.Json.Error msg ->
          Printf.eprintf "bench: %s is not a wcp-bench document (%s)\n" f msg;
          exit 1
      | doc -> doc)

(* E22 absolute service gates, applied to whichever E22 rows the
   current run actually executed (the smoke profile carries only the
   cheap cut rows, so they are vacuous under `make bench-smoke`):
   the throughput row (>= 8 sessions at n >= 32) must sustain at least
   [e22_min_eps] aggregate ingest events/sec, and the slow-client arm
   (mode 2) must hold its sampled heap growth under
   [e22_slow_peak_cap_words] — shedding to disk is the whole point. *)
let e22_min_eps = 1.0e6
let e22_slow_peak_cap_words = 8_000_000

let e22_gates current =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  Array.iter
    (fun (r : B.row) ->
      if r.job.experiment = "E22" then begin
        let sessions = r.job.param / 1000 and mode = r.job.param mod 10 in
        let eps = B.float_col r "events_per_sec" in
        let peak = B.int_col r "peak_words" in
        if mode <> 2 && sessions >= 8 && r.job.n >= 32 && eps < e22_min_eps
        then
          err "E22 throughput gate: %.0f events/sec < %.0f (%s)" eps
            e22_min_eps (B.job_key r.job);
        if mode = 2 && peak > e22_slow_peak_cap_words then
          err "E22 slow-client heap gate: peak %d words > %d (%s)" peak
            e22_slow_peak_cap_words (B.job_key r.job)
      end)
    current;
  List.rev !errors

let perf_check args =
  let subset = List.mem "--subset" args in
  let args = List.filter (fun a -> a <> "--subset") args in
  let baseline_file, current =
    match args with
    | [ b ] ->
        (* No current file: re-run the baseline's profile now. *)
        let profile, _ = parse_file b in
        (b, B.run profile)
    | [ b; c ] ->
        let _, current = parse_file c in
        (b, current)
    | _ -> usage ()
  in
  let _, baseline = parse_file baseline_file in
  let errors =
    B.compare_runs ~subset ~baseline ~current () @ e22_gates current
  in
  match errors with
  | [] ->
      Printf.printf "perf-check: OK (%d jobs match %s%s)\n"
        (Array.length (if subset then current else baseline))
        baseline_file
        (if subset then ", subset mode" else "")
  | errors ->
      List.iter (fun e -> Printf.eprintf "perf-check: %s\n" e) errors;
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      render_all (B.run B.Full);
      micro ()
  | [ "tables" ] -> render_all (B.run B.Full)
  | [ "tables"; file ] -> render_all (snd (parse_file file))
  | [ "micro" ] -> micro ()
  | "json" :: args -> json_mode args
  | "perf-check" :: args -> perf_check args
  | [ e ] -> (
      match List.find_opt (fun t -> String.lowercase_ascii t.id = e) tables with
      | Some t -> render (B.run ~only:t.rows B.Full) t
      | None -> usage ())
  | _ -> usage ()
