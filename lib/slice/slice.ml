open Wcp_trace

(* Minimal growable vector (no stdlib Dynarray dependency). *)
type 'a vec = { mutable arr : 'a array; mutable len : int }

let vec_create () = { arr = [||]; len = 0 }

let vec_push v x =
  (if v.len = Array.length v.arr then
     let cap = max 8 (2 * Array.length v.arr) in
     let arr = Array.make cap x in
     Array.blit v.arr 0 arr 0 v.len;
     v.arr <- arr);
  v.arr.(v.len) <- x;
  v.len <- v.len + 1

(* One retained state. [avc] is its dense vector clock: the whole edge
   computation is happened-before queries between retained states, and
   (i, s) hb (j, t) for i <> j iff vc(j, t).(i) >= s. *)
type anchor = {
  dense : int;
  flag : bool;  (* dense predicate value at this state *)
  avc : int array;
  in_edges : int array;
      (* (src proc, src anchor ordinal) pairs, flattened, src asc *)
}

type t = {
  sliced : Computation.t;
  dense_of : int array array;  (* per proc: slice state (1-based) - 1 -> dense *)
  anchor_dense : int array array;  (* per proc: ordinal -> dense state, asc *)
  anchor_image : int array array;  (* per proc: ordinal -> slice state *)
  retained : int;
  edges : int;
}

let computation t = t.sliced

let retained_states t = t.retained

let skeleton_messages t = t.edges

let dense_state t ~proc s =
  if proc < 0 || proc >= Array.length t.dense_of then
    invalid_arg "Slice.dense_state: no such process";
  let m = t.dense_of.(proc) in
  if s < 1 || s > Array.length m then
    invalid_arg "Slice.dense_state: state out of range";
  m.(s - 1)

let slice_state t ~proc s =
  if proc < 0 || proc >= Array.length t.anchor_dense then
    invalid_arg "Slice.slice_state: no such process";
  let d = t.anchor_dense.(proc) in
  (* Greatest ordinal with dense <= s, then check for exact hit. *)
  let lo = ref 0 and hi = ref (Array.length d - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if d.(mid) <= s then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !found >= 0 && d.(!found) = s then Some t.anchor_image.(proc).(!found)
  else None

let remap_cut t cut =
  let procs = Array.copy cut.Cut.procs in
  let states =
    Array.mapi (fun k s -> dense_state t ~proc:procs.(k) s) cut.Cut.states
  in
  Cut.make ~procs ~states

let pp_stats ppf t =
  Format.fprintf ppf "slice: %d anchors, %d skeleton msgs, %d slice states"
    t.retained t.edges
    (Computation.total_states t.sliced)

module Itbl = Hashtbl.Make (Int)

module Incremental = struct
  type pstate = {
    vc : int array;  (* dense vector clock of the current state *)
    mutable state : int;  (* current dense state index *)
    anchors : anchor vec;
    mutable last_avc : int array;  (* clock of the latest anchor, or 0s *)
  }

  type builder = {
    n : int;
    keep : int -> int -> bool -> bool;  (* proc, state, its flag *)
    procs : pstate array;
    tags : int array Itbl.t;
        (* in-flight msg -> sender clock, destination in slot [n] *)
    (* Clock arrays retired by [on_receive], reused by the next
       [on_send] instead of a fresh [Array.copy]. Every send otherwise
       allocates an n-word minor block, which at streaming rates makes
       the minor GC the dominant cost; the pool caps out at the peak
       number of in-flight messages. *)
    mutable tag_pool : int array list;
    cursor : int array;
        (* [p * n + i]: the latest anchor ordinal of [i] in the causal
           past of [p]'s latest anchor, -1 for none *)
    src_proc : int array;  (* [add_anchor] scratch, one slot per source *)
    src_ord : int array;
    src_kept : bool array;
    mutable events : int;
    mutable nretained : int;
    mutable nedges : int;
  }

  let events_fed b = b.events

  let retained b = b.nretained

  let state b ~proc = b.procs.(proc).state

  let clock b ~proc = Array.copy b.procs.(proc).vc

  (* The current state of [p] was just retained: compute its skeleton
     in-edges. For each other process [i], the candidate source is the
     latest retained state of [i] visible here (the greatest anchor <=
     vc.(i) — everything at or below vc.(i) has already been fed, so
     the answer can never change as more events arrive). An edge is
     dropped when the previous anchor of [p] already sees the source
     (chain pruning), and among the survivors only the
     happened-before-maximal sources are kept (cover pruning): both
     prunings only discard edges recoverable from kept ones by
     transitivity, so happened-before restricted to anchors is
     preserved exactly.

     Entry [i] is only looked at when vc.(i) grew past the previous
     anchor's: otherwise its source is the previous anchor's, which
     chain pruning drops. vc.(i) only grows, so the candidate ordinal
     only moves forward, and a per-(p, i) cursor finds it in amortised
     O(1) per anchor of [i]. *)
  let add_anchor b p flag =
    let n = b.n in
    let ps = b.procs.(p) in
    let vc = ps.vc and last = ps.last_avc in
    let nsrc = ref 0 in
    for i = 0 to n - 1 do
      let x = vc.(i) in
      if i <> p && x > last.(i) then begin
        let anc = b.procs.(i).anchors in
        let c = ref b.cursor.((p * n) + i) in
        while !c + 1 < anc.len && anc.arr.(!c + 1).dense <= x do
          incr c
        done;
        b.cursor.((p * n) + i) <- !c;
        if !c >= 0 && anc.arr.(!c).dense > last.(i) then begin
          b.src_proc.(!nsrc) <- i;
          b.src_ord.(!nsrc) <- !c;
          incr nsrc
        end
      end
    done;
    let nsrc = !nsrc in
    let nkept = ref 0 in
    for s = 0 to nsrc - 1 do
      let i = b.src_proc.(s) in
      let d = b.procs.(i).anchors.arr.(b.src_ord.(s)).dense in
      let covered = ref false and s' = ref 0 in
      while (not !covered) && !s' < nsrc do
        (if !s' <> s then
           let k = b.src_proc.(!s') in
           covered := b.procs.(k).anchors.arr.(b.src_ord.(!s')).avc.(i) >= d);
        incr s'
      done;
      b.src_kept.(s) <- not !covered;
      if not !covered then incr nkept
    done;
    let in_edges = Array.make (2 * !nkept) 0 in
    let e = ref 0 in
    for s = 0 to nsrc - 1 do
      if b.src_kept.(s) then begin
        in_edges.(!e) <- b.src_proc.(s);
        in_edges.(!e + 1) <- b.src_ord.(s);
        e := !e + 2
      end
    done;
    let avc = Array.copy vc in
    vec_push ps.anchors { dense = ps.state; flag; avc; in_edges };
    ps.last_avc <- avc;
    b.nretained <- b.nretained + 1;
    b.nedges <- b.nedges + !nkept

  let make ~n ~keep ~pred0 =
    if n < 1 then invalid_arg "Slice.Incremental.create: n < 1";
    let zeros = Array.make n 0 in
    let b =
      {
        n;
        keep;
        procs =
          Array.init n (fun p ->
              let vc = Array.make n 0 in
              vc.(p) <- 1;
              { vc; state = 1; anchors = vec_create (); last_avc = zeros });
        tags = Itbl.create 64;
        tag_pool = [];
        cursor = Array.make (n * n) (-1);
        src_proc = Array.make n 0;
        src_ord = Array.make n 0;
        src_kept = Array.make n false;
        events = 0;
        nretained = 0;
        nedges = 0;
      }
    in
    for p = 0 to n - 1 do
      let flag = pred0 p in
      if keep p 1 flag then add_anchor b p flag
    done;
    b

  let create ~n ~keep ~pred0 =
    make ~n ~keep:(fun proc state _ -> keep ~proc ~state) ~pred0

  let enter_state b p pred =
    let ps = b.procs.(p) in
    ps.vc.(p) <- ps.vc.(p) + 1;
    ps.state <- ps.state + 1;
    b.events <- b.events + 1;
    if b.keep p ps.state pred then add_anchor b p pred

  (* The feed primitives: the recorded-run walk has checked the event,
     and [on_send]/[on_receive] check a served one. *)

  let send b p ~dst ~msg ~pred =
    let tag =
      match b.tag_pool with
      | t :: rest ->
          b.tag_pool <- rest;
          Array.blit b.procs.(p).vc 0 t 0 b.n;
          t
      | [] -> Array.append b.procs.(p).vc [| 0 |]
    in
    tag.(b.n) <- dst;
    Itbl.add b.tags msg tag;
    enter_state b p pred

  let receive b p ~msg tag ~pred =
    Itbl.remove b.tags msg;
    let vc = b.procs.(p).vc in
    for k = 0 to b.n - 1 do
      if tag.(k) > vc.(k) then vc.(k) <- tag.(k)
    done;
    b.tag_pool <- tag :: b.tag_pool;
    enter_state b p pred

  let check_proc b proc =
    if proc < 0 || proc >= b.n then invalid_arg "Slice: bad process"

  let on_send b ~proc ~dst ~msg ~pred =
    check_proc b proc;
    let refuse fmt =
      Printf.ksprintf
        (fun m -> invalid_arg ("Slice.Incremental.on_send: " ^ m))
        fmt
    in
    if msg < 0 then refuse "negative message id %d" msg;
    if dst < 0 || dst >= b.n then
      refuse "message %d sent to invalid process %d" msg dst;
    if dst = proc then refuse "message %d is a self-send on %d" msg proc;
    if Itbl.mem b.tags msg then refuse "message %d sent twice" msg;
    send b proc ~dst ~msg ~pred

  let on_receive b ~proc ~msg ~pred =
    check_proc b proc;
    match Itbl.find_opt b.tags msg with
    | Some tag when tag.(b.n) = proc -> receive b proc ~msg tag ~pred
    | Some tag ->
        invalid_arg
          (Printf.sprintf
             "Slice.Incremental.on_receive: message %d addressed to %d but \
              received by %d"
             msg tag.(b.n) proc)
    | None -> invalid_arg "Slice.Incremental.on_receive: receive before send"

  (* Materialisation. Skeleton messages get canonical identifiers —
     ascending by (target proc, target anchor, source proc) — so the
     receives entering one anchor are a contiguous id range, and each
     process's script is laid out anchor by anchor: the sends leaving
     the previous anchor first, then the receives entering this one
     (sends carry exactly the past of their source anchor only if no
     later receive precedes them on the timeline). Consecutive anchors
     separated by no event collapse into one slice state. *)
  let finish b =
    let n = b.n in
    let anchors j = b.procs.(j).anchors in
    (* Out-edges bucketed by source anchor, by counting: [start.(i)]
       first holds each bucket's start; filling in id order advances
       [start.(i).(ord)] to the end of bucket [ord], after which bucket
       [t] is [start.(i).(t - 1), start.(i).(t)) (from 0 for t = 0). *)
    let start = Array.init n (fun i -> Array.make ((anchors i).len + 1) 0) in
    let nrecv = Array.make n 0 in
    for j = 0 to n - 1 do
      let anc = anchors j in
      for t = 0 to anc.len - 1 do
        let e = anc.arr.(t).in_edges in
        nrecv.(j) <- nrecv.(j) + (Array.length e / 2);
        for k = 0 to (Array.length e / 2) - 1 do
          let c = start.(e.(2 * k)) and ord = e.((2 * k) + 1) in
          c.(ord + 1) <- c.(ord + 1) + 1
        done
      done
    done;
    Array.iter
      (fun c ->
        for t = 1 to Array.length c - 1 do
          c.(t) <- c.(t) + c.(t - 1)
        done)
      start;
    let nsend = Array.map (fun c -> c.(Array.length c - 1)) start in
    let out_dst = Array.map (fun m -> Array.make m 0) nsend in
    let out_id = Array.map (fun m -> Array.make m 0) nsend in
    let id = ref 0 in
    for j = 0 to n - 1 do
      let anc = anchors j in
      for t = 0 to anc.len - 1 do
        let e = anc.arr.(t).in_edges in
        for k = 0 to (Array.length e / 2) - 1 do
          let i = e.(2 * k) and ord = e.((2 * k) + 1) in
          let pos = start.(i).(ord) in
          out_dst.(i).(pos) <- j;
          out_id.(i).(pos) <- !id;
          start.(i).(ord) <- pos + 1;
          incr id
        done
      done
    done;
    let ops = Array.make n [||] in
    let preds = Array.make n [||] in
    let anchor_dense = Array.make n [||] in
    let anchor_image = Array.make n [||] in
    let dense_of = Array.make n [||] in
    let first_recv = ref 0 in
    for j = 0 to n - 1 do
      let anc = anchors j in
      let c = start.(j) in
      let script =
        Array.make (nrecv.(j) + nsend.(j)) (Computation.Recv { msg = 0 })
      in
      let flags = Array.make (Array.length script + 1) false in
      let len = ref 0 in
      let emit op =
        script.(!len) <- op;
        incr len
      in
      let emit_sends lo hi =
        for s = lo to hi - 1 do
          emit
            (Computation.Send { dst = out_dst.(j).(s); msg = out_id.(j).(s) })
        done
      in
      let recv = ref !first_recv in
      let images = Array.make anc.len 0 in
      let denses = Array.make anc.len 0 in
      (* [lo, hi): the sends leaving the previous anchor, still pending *)
      let lo = ref 0 and hi = ref 0 in
      for t = 0 to anc.len - 1 do
        let a = anc.arr.(t) in
        let nin = Array.length a.in_edges / 2 in
        if nin > 0 || !hi > !lo then begin
          emit_sends !lo !hi;
          for r = !recv to !recv + nin - 1 do
            emit (Computation.Recv { msg = r })
          done;
          recv := !recv + nin
        end;
        images.(t) <- !len + 1;
        denses.(t) <- a.dense;
        if a.flag then flags.(!len) <- true;
        lo := (if t = 0 then 0 else c.(t - 1));
        hi := c.(t)
      done;
      emit_sends !lo !hi;
      first_recv := !recv;
      ops.(j) <- script;
      preds.(j) <- flags;
      anchor_dense.(j) <- denses;
      anchor_image.(j) <- images;
      (* Back-map: anchor states to the earliest dense member of their
         class, gap states to the following anchor, clamped at the
         trailing end. *)
      let s_total = !len + 1 in
      let dmap = Array.make s_total 1 in
      if anc.len > 0 then begin
        let prev = ref 0 in
        let t = ref 0 in
        while !t < anc.len do
          let v = images.(!t) in
          let d = denses.(!t) in
          while !t < anc.len && images.(!t) = v do
            incr t
          done;
          for s = !prev + 1 to v do
            dmap.(s - 1) <- d
          done;
          prev := v
        done;
        let last = denses.(anc.len - 1) in
        for s = !prev + 1 to s_total do
          dmap.(s - 1) <- last
        done
      end;
      dense_of.(j) <- dmap
    done;
    {
      sliced = Computation.of_arrays ~ops ~pred:preds;
      dense_of;
      anchor_dense;
      anchor_image;
      retained = b.nretained;
      edges = b.nedges;
    }
end

(* Feed a recorded run to the builder in the walk's order, handing
   [keep] each state with the flag the walk has just read, so a btrace
   source never materialises the run. *)
let feed (src : Computation.Stream.source) ~keep =
  let b =
    Incremental.make ~n:src.src_n ~keep ~pred0:(fun p ->
        src.pred ~proc:p ~state:1)
  in
  Computation.Stream.walk src
    ~send:(fun ~proc ~dst ~msg ~pred -> Incremental.send b proc ~dst ~msg ~pred)
    ~receive:(fun ~proc ~msg ~pred ->
      Incremental.receive b proc ~msg (Itbl.find b.tags msg) ~pred);
  Incremental.finish b

let of_source src ~keep =
  feed src ~keep:(fun proc state _ -> keep ~proc ~state)

let make comp ~keep = of_source (Computation.Stream.of_computation comp) ~keep

(* The detector-facing policy, on the flag the feed has just read. *)
let keep_for_spec ~n ~procs ~keep_rest =
  let member = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n then invalid_arg "Slice.for_spec: bad process";
      member.(p) <- true)
    procs;
  fun proc _ flag -> if member.(proc) then flag else keep_rest

let for_spec_source ?(keep_rest = false) src ~procs =
  feed src
    ~keep:(keep_for_spec ~n:src.Computation.Stream.src_n ~procs ~keep_rest)

let for_spec ?(keep_rest = false) comp ~procs =
  for_spec_source ~keep_rest (Computation.Stream.of_computation comp) ~procs
