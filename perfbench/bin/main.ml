(* The timing benchmark: one workload per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR

   Builds the workload's inputs from the seed (several times, to time
   set-up), compacts the heap, resets the peak-RSS mark, runs one
   untimed warm-up verdict per input, then cycles the inputs for S
   seconds (longer if needed to reach the 100 verdicts a p90 needs).
   Every verdict is checked against the reference cut. The last line
   of standard output is the JSON result: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. *)

open Perfbench

let workloads : (module Workload.S) list =
  [ (module Btrace_replay); (module Text_detect); (module Serve_early_cut) ]

let setups = 3

type tally = { mutable attempted : int; mutable failed : int }

(* One checked verdict; an exception is a failed operation too. *)
let checked tally ~ok f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | x when ok x -> Some x
  | _ ->
      tally.failed <- tally.failed + 1;
      None
  | exception e ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "perfbench: verdict failed: %s\n%!" (Printexc.to_string e);
      None

(* Cycle the inputs until [seconds] have passed and at least
   [min_samples] verdicts succeeded, giving up at three times the
   budget. Whole cycles keep every input's share of the samples equal
   to within one. *)
let cycle ~inputs ~seconds ~min_samples tally ~ok f =
  let start = Workload.now () in
  let deadline = start +. seconds and give_up = start +. (3. *. seconds) in
  let out = ref [] and count = ref 0 and i = ref 0 in
  while
    let t = Workload.now () in
    (t < deadline || !count < min_samples) && t < give_up
  do
    (match checked tally ~ok (fun () -> f (!i mod inputs)) with
    | Some x ->
        out := x :: !out;
        incr count
    | None -> ());
    incr i
  done;
  Array.of_list (List.rev !out)

type metric = { name : string; unit : string; value : float; count : int }

let print_metric m =
  print_endline
    ("metric " ^ Stats.line ~name:m.name ~unit:m.unit ~count:m.count m.value)

let pct_metric ~name ~pct xs =
  match Stats.percentile ~pct xs with
  | Ok v -> Some { name; unit = "ms"; value = v; count = Array.length xs }
  | Error e ->
      Printf.printf "metric %s not reported: %s\n" name e;
      None

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: a metric is not a finite number"

let json_result tally metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " fields)

let end_to_end ~setup_s (vs : Workload.verdict array) =
  let ms = Array.map (fun (v : Workload.verdict) -> v.ms) vs in
  let cut = Array.map (fun (v : Workload.verdict) -> v.cut_ms) vs in
  let events =
    Array.fold_left (fun a (v : Workload.verdict) -> a + v.events) 0 vs
  in
  let seconds = Array.fold_left ( +. ) 0. ms /. 1000. in
  let peak =
    match Rss.peak_kb () with Some kb -> float_of_int kb /. 1024. | None -> 0.
  in
  List.filter_map Fun.id
    [
      Some
        {
          name = "setup_s";
          unit = "s";
          value = Stats.median setup_s;
          count = setups;
        };
      pct_metric ~name:"verdict_ms_p50" ~pct:50 ms;
      pct_metric ~name:"verdict_ms_p90" ~pct:90 ms;
      (if seconds > 0. then
         Some
           {
             name = "events_per_s";
             unit = "events/s";
             value = Stats.rate ~events ~seconds;
             count = Array.length vs;
           }
       else None);
      pct_metric ~name:"cut_latency_ms_p50" ~pct:50 cut;
      pct_metric ~name:"cut_latency_ms_p90" ~pct:90 cut;
      Some { name = "peak_rss_mb"; unit = "MB"; value = peak; count = 1 };
    ]

(* Per-layer: means over the traced verdicts, so layer times add up
   and the remainder is exact. *)
let per_layer ~write_ms ~untraced (ts : Workload.traced array) =
  let n = Array.length ts in
  let mean f = Stats.mean (Array.map f ts) in
  let traced_ms = Array.map (fun (t : Workload.traced) -> t.v.ms) ts in
  let untraced_ms = Array.map (fun (v : Workload.verdict) -> v.ms) untraced in
  let traced_p50 = Stats.median traced_ms
  and untraced_p50 = Stats.median untraced_ms in
  let overhead = traced_p50 -. untraced_p50 in
  let remainder = Stats.mean traced_ms -. mean (fun t -> t.path_layers_ms) in
  let events =
    Array.fold_left (fun a (t : Workload.traced) -> a + t.v.events) 0 ts
  in
  let words =
    Array.fold_left (fun a (t : Workload.traced) -> a +. t.alloc_words) 0. ts
  in
  Printf.printf
    "trace overhead: traced p50 %.3f ms - untraced p50 %.3f ms = %.3f ms\n"
    traced_p50 untraced_p50 overhead;
  Printf.printf
    "remainder: mean verdict %.3f ms - mean of its layers %.3f ms = %.3f ms\n"
    (Stats.mean traced_ms)
    (mean (fun t -> t.path_layers_ms))
    remainder;
  let m name unit value = { name; unit; value; count = n } in
  [
    {
      name = "write.ms";
      unit = "ms";
      value = Stats.median write_ms;
      count = setups;
    };
    m "decode.ms" "ms" (mean (fun t -> t.decode_ms));
    m "detect.ms" "ms" (mean (fun t -> t.detect_ms));
    m "detect.engine_events" "count"
      (mean (fun t -> float_of_int t.engine_events));
    m "alloc.words_per_event" "words" (words /. float_of_int events);
    m "gc.minor_collections" "count" (mean (fun t -> float_of_int t.minor_gcs));
    m "gc.major_collections" "count" (mean (fun t -> float_of_int t.major_gcs));
    m "remainder.ms" "ms" remainder;
    m "trace.overhead_ms" "ms" overhead;
  ]

(* Every workload-specific layer sample, averaged by name (every
   traced verdict of a workload reports the same names in the same
   order): printed with units and counts, and once more as one JSON
   line. *)
let workload_layers (module W : Workload.S) ~write_ms
    (ts : Workload.traced array) =
  let layer k (name, unit, _) =
    let xs =
      Array.map
        (fun (t : Workload.traced) ->
          let _, _, v = List.nth t.extra k in
          v)
        ts
    in
    { name; unit; value = Stats.mean xs; count = Array.length xs }
  in
  let write =
    {
      name = W.write_layer;
      unit = "ms";
      value = Stats.median write_ms;
      count = setups;
    }
  in
  let ls = write :: List.mapi layer ts.(0).extra in
  List.iter
    (fun l ->
      print_endline
        ("layer " ^ Stats.line ~name:l.name ~unit:l.unit ~count:l.count l.value))
    ls;
  Printf.printf "{\"workload\": %S, \"layers\": {%s}}\n" W.name
    (String.concat ", "
       (List.map
          (fun l ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"n\": %d}"
              l.name (json_number l.value) l.unit l.count)
          ls))

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o700
  end

let run (module W : Workload.S) ~seed ~seconds ~trace ~work =
  let setup_s = Array.make setups 0. and write_ms = Array.make setups 0. in
  let last = ref None in
  for k = 0 to setups - 1 do
    Option.iter
      (fun (x, dir) ->
        W.close x;
        remove_tree dir)
      !last;
    last := None;
    let dir = Filename.concat work (Printf.sprintf "setup%d" k) in
    mkdir_p dir;
    let t0 = Workload.now () in
    let x = W.setup ~dir ~seed in
    setup_s.(k) <- Workload.now () -. t0;
    write_ms.(k) <- W.write_ms x;
    last := Some (x, dir)
  done;
  let x, _ = Option.get !last in
  Fun.protect
    ~finally:(fun () -> W.close x)
    (fun () ->
      let tally = { attempted = 0; failed = 0 } in
      let inputs = W.inputs x in
      let verdict_ok (v : Workload.verdict) = v.ok in
      let traced_ok (t : Workload.traced) = t.v.ok in
      Gc.compact ();
      if not (Rss.reset_peak ()) then
        prerr_endline
          "perfbench: cannot reset VmHWM; peak_rss_mb covers the whole run";
      for i = 0 to inputs - 1 do
        ignore (checked tally ~ok:verdict_ok (fun () -> W.verdict x i))
      done;
      let metrics =
        if not trace then begin
          let vs =
            cycle ~inputs ~seconds ~min_samples:(Stats.samples_for ~pct:90) tally
              ~ok:verdict_ok (W.verdict x)
          in
          let ms = end_to_end ~setup_s vs in
          List.iter print_metric ms;
          ms
        end
        else begin
          let min_samples = Stats.samples_for ~pct:50 in
          let untraced =
            cycle ~inputs ~seconds:(0.4 *. seconds) ~min_samples tally
              ~ok:verdict_ok (W.verdict x)
          in
          let ts =
            cycle ~inputs ~seconds:(0.6 *. seconds) ~min_samples tally
              ~ok:traced_ok (W.traced x)
          in
          if ts = [||] || untraced = [||] then []
          else begin
            workload_layers (module W) ~write_ms ts;
            let ms = per_layer ~write_ms ~untraced ts in
            List.iter print_metric ms;
            ms
          end
        end
      in
      Printf.printf "verdicts: failed %d / attempted %d (%s)\n" tally.failed
        tally.attempted W.name;
      print_endline (json_result tally metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let work = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed seconds");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end (0) or per-layer (1) metrics" );
      ("--work", Arg.Set_string work, "DIR scratch directory for the inputs");
    ]
  in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let chosen =
    List.find_opt (fun (module W : Workload.S) -> W.name = !workload) workloads
  in
  match chosen with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (want %s)\n" !workload
        (String.concat ", "
           (List.map (fun (module W : Workload.S) -> W.name) workloads));
      exit 2
  | Some _ when !work = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline ("perfbench: " ^ usage);
      exit 2
  | Some w ->
      Wcp_serve.Protocol.ignore_sigpipe ();
      mkdir_p !work;
      Fun.protect
        ~finally:(fun () -> remove_tree !work)
        (fun () ->
          run w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
            ~work:!work)
