open Wcp_util

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_copy_independent () =
  let a = Rng.create 7L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b);
  (* advancing the copy further must not affect the original *)
  let b' = Rng.copy a in
  ignore (Rng.next_int64 b');
  ignore (Rng.next_int64 b');
  Alcotest.(check int64) "original unaffected" (Rng.next_int64 a)
    (Rng.next_int64 (Rng.copy a))

let test_split_diverges () =
  let a = Rng.create 3L in
  let b = Rng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "split stream differs" true !differs

let test_bernoulli_extremes () =
  let r = Rng.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli r 1.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 always false" false (Rng.bernoulli r 0.0)
  done

let test_exponential_positive () =
  let r = Rng.create 11L in
  for _ = 1 to 1000 do
    let x = Rng.exponential r ~mean:2.0 in
    if x < 0.0 then Alcotest.fail "exponential sample negative"
  done

let test_exponential_mean () =
  let r = Rng.create 13L in
  let k = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to k do
    total := !total +. Rng.exponential r ~mean:3.0
  done;
  let mean = !total /. float_of_int k in
  if mean < 2.7 || mean > 3.3 then
    Alcotest.failf "exponential mean %.3f too far from 3.0" mean

let test_pick_singleton () =
  let r = Rng.create 17L in
  Alcotest.(check int) "singleton" 9 (Rng.pick r [| 9 |])

let prop_int_bounds =
  qtest "int within bounds"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 1000))
    (fun (bound, seed) ->
      let r = Rng.create (Int64.of_int seed) in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_float_bounds =
  qtest "float within bounds"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r = Rng.create (Int64.of_int seed) in
      let x = Rng.float r 10.0 in
      x >= 0.0 && x < 10.0)

let prop_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck2.Gen.(pair (list_size (int_range 0 50) int) (int_range 0 1000))
    (fun (l, seed) ->
      let r = Rng.create (Int64.of_int seed) in
      let a = Array.of_list l in
      Rng.shuffle r a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_int_uniformish () =
  (* All residues of a small modulus appear. *)
  let r = Rng.create 23L in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 8) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let int_heap () = Heap.create ~cmp:compare

let test_heap_empty () =
  let h = int_heap () in
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_ordering () =
  let h = int_heap () in
  List.iter (Heap.add h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_heap_duplicates () =
  let h = int_heap () in
  List.iter (Heap.add h) [ 4; 4; 4; 1; 1 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check (list int)) "sorted" [ 1; 1; 4; 4; 4 ] (Heap.to_sorted_list h)

let test_heap_to_sorted_nondestructive () =
  let h = int_heap () in
  List.iter (Heap.add h) [ 3; 1; 2 ];
  ignore (Heap.to_sorted_list h);
  Alcotest.(check int) "length preserved" 3 (Heap.length h);
  Alcotest.(check (option int)) "min preserved" (Some 1) (Heap.peek h)

let test_heap_clear () =
  let h = int_heap () in
  List.iter (Heap.add h) [ 1; 2 ];
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Heap.add h 5;
  Alcotest.(check (option int)) "usable after clear" (Some 5) (Heap.peek h)

let prop_heap_sorts =
  qtest "heap drain equals sort"
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun l ->
      let h = int_heap () in
      List.iter (Heap.add h) l;
      Heap.to_sorted_list h = List.sort compare l)

let prop_heap_interleaved =
  qtest "interleaved add/pop respects order"
    QCheck2.Gen.(list_size (int_range 0 100) (option int))
    (fun ops ->
      (* None = pop, Some x = add x; model with a sorted list. *)
      let h = int_heap () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Heap.add h x;
              model := List.sort compare (x :: !model);
              true
          | None -> (
              match (Heap.pop h, !model) with
              | None, [] -> true
              | Some x, m :: rest ->
                  model := rest;
                  x = m
              | _ -> false))
        ops)

let test_heap_custom_order () =
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.add h) [ 1; 5; 3 ];
  Alcotest.(check (option int)) "max-heap" (Some 5) (Heap.peek h)

(* ------------------------------------------------------------------ *)
(* Flat (struct-of-arrays) heap                                        *)
(* ------------------------------------------------------------------ *)

let prop_flat_heap_sorts =
  qtest "flat heap drains keys in order, FIFO on ties"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 20))
    (fun keys ->
      let h = Heap.Flat.create () in
      List.iteri
        (fun seq k -> Heap.Flat.add h ~at:(float_of_int k) ~seq (seq, k))
        keys;
      (* Drain; check keys ascend and equal keys come out in insertion
         order (the engine's determinism depends on this). *)
      let ok = ref true in
      let last_at = ref neg_infinity and last_seq = ref (-1) in
      while not (Heap.Flat.is_empty h) do
        let at = Heap.Flat.min_at h in
        let seq, k = Heap.Flat.pop_exn h in
        if float_of_int k <> at then ok := false;
        if at < !last_at then ok := false;
        if at = !last_at && seq < !last_seq then ok := false;
        last_at := at;
        last_seq := seq
      done;
      !ok)

let test_flat_heap_clear () =
  let h = Heap.Flat.create () in
  Heap.Flat.add h ~at:1.0 ~seq:0 "x";
  Heap.Flat.clear h;
  Alcotest.(check bool) "cleared" true (Heap.Flat.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.Flat.length h)

(* ------------------------------------------------------------------ *)
(* Parallel map                                                        *)
(* ------------------------------------------------------------------ *)

let collatz_len n0 =
  let rec go n acc =
    if n <= 1 then acc
    else go (if n mod 2 = 0 then n / 2 else (3 * n) + 1) (acc + 1)
  in
  go (max 1 n0) 0

let prop_parallel_map_deterministic =
  qtest ~count:50 "Parallel.map = Array.map at every domain count"
    QCheck2.Gen.(pair (array_size (int_range 0 40) (int_range 0 10_000))
                   (int_range 1 8))
    (fun (xs, domains) ->
      let expected = Array.map collatz_len xs in
      Parallel.map ~domains collatz_len xs = expected)

let test_parallel_map_list () =
  Alcotest.(check (list int)) "map_list keeps order"
    [ 2; 4; 6; 8 ]
    (Parallel.map_list ~domains:3 (fun x -> 2 * x) [ 1; 2; 3; 4 ])

let test_parallel_exception () =
  match
    Parallel.map ~domains:4
      (fun x -> if x = 7 then failwith "boom" else x)
      [| 1; 2; 7; 4; 5 |]
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "first error wins" "boom" m

let test_parallel_empty () =
  Alcotest.(check int) "empty input" 0
    (Array.length (Parallel.map ~domains:4 (fun x -> x) [||]))

let test_parallel_domains_exceed_items () =
  (* The pool is clamped to the item count; asking for far more domains
     than items must neither crash nor reorder. *)
  Alcotest.(check (list int)) "more domains than items"
    [ 10; 20; 30 ]
    (Parallel.map_list ~domains:64 (fun x -> 10 * x) [ 1; 2; 3 ])

let test_parallel_bad_domains () =
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Parallel.map: domains must be >= 1") (fun () ->
      ignore (Parallel.map ~domains:0 (fun x -> x) [| 1 |]))

let test_parallel_first_exception_by_index () =
  (* Index 1 fails slowly, index 3 fails immediately: the contract is
     that the FIRST exception by input index — not by completion time —
     is the one re-raised, so "early" must win even though "late" is
     thrown first on the wall clock. *)
  let slow_boom x =
    if x = 1 then begin
      let t = Sys.time () in
      while Sys.time () -. t < 0.02 do () done;
      failwith "early"
    end
    else if x = 3 then failwith "late"
    else x
  in
  match Parallel.map ~domains:2 slow_boom [| 0; 1; 2; 3; 4 |] with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m ->
      Alcotest.(check string) "lowest index wins" "early" m

let test_parallel_pool_no_respawn () =
  (* The pool is persistent: after a warm-up call, repeated maps at the
     same (or smaller) domain count must not spawn a single new domain
     — the hot path parks and wakes workers instead. *)
  let xs = Array.init 64 Fun.id in
  ignore (Parallel.map ~domains:4 collatz_len xs);
  let before = Parallel.spawns () in
  for _ = 1 to 25 do
    ignore (Parallel.map ~domains:4 collatz_len xs);
    ignore (Parallel.map ~domains:2 collatz_len xs)
  done;
  Alcotest.(check int) "no per-call domain spawn" before (Parallel.spawns ())

let test_scoped_pool_run () =
  (* The barrier primitive under the parallel checker: every slot runs
     exactly once per [run], writes land before [run] returns, and the
     reservation is reusable across many rounds. *)
  Parallel.scoped_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "pool width" 3 (Parallel.pool_domains pool);
      let seen = Array.make 3 0 in
      for _round = 1 to 10 do
        (* Alcotest's checks are not domain-safe: record on the
           workers, check after the barrier. *)
        let widths = Array.make 3 0 in
        Parallel.run pool (fun ~slot ~slots ->
            widths.(slot) <- slots;
            seen.(slot) <- seen.(slot) + 1);
        Alcotest.(check (array int)) "slots" [| 3; 3; 3 |] widths
      done;
      Alcotest.(check (array int)) "each slot ran every round"
        [| 10; 10; 10 |] seen);
  (* Exceptions cross the barrier: first by slot number. *)
  Parallel.scoped_pool ~domains:2 (fun pool ->
      match
        Parallel.run pool (fun ~slot ~slots:_ ->
            if slot = 0 then failwith "slot0" else failwith "slot1")
      with
      | () -> Alcotest.fail "expected exception"
      | exception Failure m ->
          Alcotest.(check string) "lowest slot wins" "slot0" m)

let test_scoped_pool_nested () =
  (* A map inside another map's worker must not deadlock on the shared
     pool; the inner scope falls back to private domains. *)
  let inner x = Array.fold_left ( + ) 0 (Parallel.map ~domains:2 collatz_len
                                           (Array.init 8 (fun i -> x + i))) in
  let a = Parallel.map ~domains:2 inner (Array.init 6 (fun i -> 100 * i)) in
  let b = Array.map inner (Array.init 6 (fun i -> 100 * i)) in
  Alcotest.(check (array int)) "nested maps deterministic" b a

let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value ~default:"" old))
    f

let test_parallel_env_parsing () =
  with_env "WCP_DOMAINS" "3" (fun () ->
      Alcotest.(check int) "well-formed value" 3 (Parallel.default_domains ()));
  with_env "WCP_DOMAINS" " 5 " (fun () ->
      Alcotest.(check int) "whitespace trimmed" 5 (Parallel.default_domains ()));
  List.iter
    (fun bad ->
      with_env "WCP_DOMAINS" bad (fun () ->
          Alcotest.check_raises
            (Printf.sprintf "WCP_DOMAINS=%S rejected" bad)
            (Invalid_argument "WCP_DOMAINS must be a positive integer")
            (fun () -> ignore (Parallel.default_domains ()))))
    [ "0"; "-2"; "many"; "2.5" ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "exponential positive" `Quick
            test_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "pick singleton" `Quick test_pick_singleton;
          Alcotest.test_case "int uniform-ish" `Quick test_int_uniformish;
          prop_int_bounds;
          prop_float_bounds;
          prop_shuffle_permutation;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "to_sorted nondestructive" `Quick
            test_heap_to_sorted_nondestructive;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "custom order" `Quick test_heap_custom_order;
          prop_heap_sorts;
          prop_heap_interleaved;
          prop_flat_heap_sorts;
          Alcotest.test_case "flat clear" `Quick test_flat_heap_clear;
        ] );
      ( "parallel",
        [
          prop_parallel_map_deterministic;
          Alcotest.test_case "map_list order" `Quick test_parallel_map_list;
          Alcotest.test_case "exception propagates" `Quick
            test_parallel_exception;
          Alcotest.test_case "empty" `Quick test_parallel_empty;
          Alcotest.test_case "domains > items" `Quick
            test_parallel_domains_exceed_items;
          Alcotest.test_case "bad domain count" `Quick
            test_parallel_bad_domains;
          Alcotest.test_case "first exception by index" `Quick
            test_parallel_first_exception_by_index;
          Alcotest.test_case "WCP_DOMAINS parsing" `Quick
            test_parallel_env_parsing;
          Alcotest.test_case "pool: no per-call respawn" `Quick
            test_parallel_pool_no_respawn;
          Alcotest.test_case "scoped pool barrier" `Quick test_scoped_pool_run;
          Alcotest.test_case "scoped pool nesting" `Quick
            test_scoped_pool_nested;
        ] );
    ]
