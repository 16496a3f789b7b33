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

let vec_get v i = v.arr.(i)

(* One retained state. [avc] is its dense vector clock: the whole edge
   computation is happened-before queries between retained states, and
   (i, s) hb (j, t) for i <> j iff vc(j, t).(i) >= s. *)
type anchor = {
  dense : int;
  flag : bool;  (* dense predicate value at this state *)
  avc : int array;
  in_edges : (int * int) list;  (* (src proc, src anchor ordinal), src asc *)
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

module Incremental = struct
  type pstate = {
    vc : int array;  (* dense vector clock of the current state *)
    mutable state : int;  (* current dense state index *)
    anchors : anchor vec;
  }

  type builder = {
    n : int;
    keep : proc:int -> state:int -> bool;
    procs : pstate array;
    tags : (int, int array) Hashtbl.t;  (* in-flight msg -> sender clock *)
    (* Clock arrays retired by [on_receive], reused by the next
       [on_send] instead of a fresh [Array.copy]. Every send otherwise
       allocates an n-word minor block, which at streaming rates makes
       the minor GC the dominant cost; the pool caps out at the peak
       number of in-flight messages. *)
    mutable tag_pool : int array list;
    mutable events : int;
    mutable nretained : int;
    mutable nedges : int;
  }

  let events_fed b = b.events

  let retained b = b.nretained

  let state b ~proc = b.procs.(proc).state

  let clock b ~proc = Array.copy b.procs.(proc).vc

  (* Greatest anchor ordinal of [ps] with [dense <= x], or -1. *)
  let anchor_below ps x =
    let lo = ref 0 and hi = ref (ps.anchors.len - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if (vec_get ps.anchors mid).dense <= x then begin
        found := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !found

  (* The current state of [p] was just retained: compute its skeleton
     in-edges. For each other process [i], the candidate source is the
     latest retained state of [i] visible here (pred_i = the greatest
     anchor <= vc.(i) — everything at or below vc.(i) has already been
     fed, so the answer can never change as more events arrive). An
     edge is dropped when the previous anchor of [p] already sees the
     source (chain pruning), and among the survivors only the
     happened-before-maximal sources are kept (cover pruning): both
     prunings only discard edges recoverable from kept ones by
     transitivity, so happened-before restricted to anchors is
     preserved exactly. *)
  let add_anchor b p flag =
    let ps = b.procs.(p) in
    let prev =
      if ps.anchors.len > 0 then Some (vec_get ps.anchors (ps.anchors.len - 1))
      else None
    in
    let sources = ref [] in
    for i = b.n - 1 downto 0 do
      if i <> p then
        let ord = anchor_below b.procs.(i) ps.vc.(i) in
        if ord >= 0 then begin
          let a = vec_get b.procs.(i).anchors ord in
          let implied =
            match prev with Some pa -> pa.avc.(i) >= a.dense | None -> false
          in
          if not implied then sources := (i, ord, a) :: !sources
        end
    done;
    let sources = !sources in
    let kept =
      List.filter
        (fun (i, _, (a : anchor)) ->
          not
            (List.exists
               (fun (k, _, (ak : anchor)) -> k <> i && ak.avc.(i) >= a.dense)
               sources))
        sources
    in
    vec_push ps.anchors
      {
        dense = ps.state;
        flag;
        avc = Array.copy ps.vc;
        in_edges = List.map (fun (i, ord, _) -> (i, ord)) kept;
      };
    b.nretained <- b.nretained + 1;
    b.nedges <- b.nedges + List.length kept

  let create ~n ~keep ~pred0 =
    if n < 1 then invalid_arg "Slice.Incremental.create: n < 1";
    let b =
      {
        n;
        keep;
        procs =
          Array.init n (fun p ->
              let vc = Array.make n 0 in
              vc.(p) <- 1;
              { vc; state = 1; anchors = vec_create () });
        tags = Hashtbl.create 64;
        tag_pool = [];
        events = 0;
        nretained = 0;
        nedges = 0;
      }
    in
    for p = 0 to n - 1 do
      if keep ~proc:p ~state:1 then add_anchor b p (pred0 p)
    done;
    b

  let enter_state b p pred =
    let ps = b.procs.(p) in
    ps.vc.(p) <- ps.vc.(p) + 1;
    ps.state <- ps.state + 1;
    b.events <- b.events + 1;
    if b.keep ~proc:p ~state:ps.state then add_anchor b p pred

  let on_send b ~proc ~dst:_ ~msg ~pred =
    if proc < 0 || proc >= b.n then invalid_arg "Slice: bad process";
    if Hashtbl.mem b.tags msg then
      invalid_arg "Slice.Incremental.on_send: message id reused";
    let tag =
      match b.tag_pool with
      | t :: rest ->
          b.tag_pool <- rest;
          Array.blit b.procs.(proc).vc 0 t 0 b.n;
          t
      | [] -> Array.copy b.procs.(proc).vc
    in
    Hashtbl.replace b.tags msg tag;
    enter_state b proc pred

  let on_receive b ~proc ~msg ~pred =
    if proc < 0 || proc >= b.n then invalid_arg "Slice: bad process";
    let tag =
      match Hashtbl.find_opt b.tags msg with
      | Some tg -> tg
      | None -> invalid_arg "Slice.Incremental.on_receive: receive before send"
    in
    Hashtbl.remove b.tags msg;
    let ps = b.procs.(proc) in
    for k = 0 to b.n - 1 do
      if tag.(k) > ps.vc.(k) then ps.vc.(k) <- tag.(k)
    done;
    b.tag_pool <- tag :: b.tag_pool;
    enter_state b proc pred

  (* Materialisation. Skeleton messages get canonical identifiers —
     ascending by (target proc, target anchor, source proc) — and each
     process's script is laid out anchor by anchor: the sends leaving
     the previous anchor first, then the receives entering this one
     (sends carry exactly the past of their source anchor only if no
     later receive precedes them on the timeline). Consecutive anchors
     separated by no event collapse into one slice state. *)
  let finish b =
    let n = b.n in
    let next_id = ref 0 in
    let recvs_of =
      Array.map (fun ps -> Array.make ps.anchors.len []) b.procs
    in
    let out = Array.map (fun ps -> Array.make ps.anchors.len []) b.procs in
    for j = 0 to n - 1 do
      let anc = b.procs.(j).anchors in
      for t = 0 to anc.len - 1 do
        List.iter
          (fun (i, ord) ->
            let id = !next_id in
            incr next_id;
            recvs_of.(j).(t) <- id :: recvs_of.(j).(t);
            out.(i).(ord) <- (j, id) :: out.(i).(ord))
          (vec_get anc t).in_edges
      done
    done;
    let ops = Array.make n [||] in
    let preds = Array.make n [||] in
    let anchor_dense = Array.make n [||] in
    let anchor_image = Array.make n [||] in
    let dense_of = Array.make n [||] in
    for j = 0 to n - 1 do
      let anc = b.procs.(j).anchors in
      let opbuf = vec_create () in
      let predbuf = vec_create () in
      vec_push predbuf false;
      let cur = ref 1 in
      let pending = ref [] in
      let emit_send (dstp, id) =
        vec_push opbuf (Computation.Send { dst = dstp; msg = id });
        incr cur;
        vec_push predbuf false
      in
      let emit_recv id =
        vec_push opbuf (Computation.Recv { msg = id });
        incr cur;
        vec_push predbuf false
      in
      let images = Array.make anc.len 0 in
      let denses = Array.make anc.len 0 in
      for t = 0 to anc.len - 1 do
        let a = vec_get anc t in
        let recvs = List.rev recvs_of.(j).(t) in
        if recvs <> [] || !pending <> [] then begin
          List.iter emit_send !pending;
          pending := [];
          List.iter emit_recv recvs
        end;
        images.(t) <- !cur;
        denses.(t) <- a.dense;
        if a.flag then predbuf.arr.(!cur - 1) <- true;
        pending := List.rev out.(j).(t)
      done;
      List.iter emit_send !pending;
      ops.(j) <- Array.sub opbuf.arr 0 opbuf.len;
      preds.(j) <- Array.sub predbuf.arr 0 predbuf.len;
      anchor_dense.(j) <- denses;
      anchor_image.(j) <- images;
      (* Back-map: anchor states to the earliest dense member of their
         class, gap states to the following anchor, clamped at the
         trailing end. *)
      let s_total = !cur in
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

let of_source (src : Computation.Stream.source) ~keep =
  let n = src.Computation.Stream.src_n in
  let pred p s = src.Computation.Stream.pred ~proc:p ~state:s in
  let b = Incremental.create ~n ~keep ~pred0:(fun p -> pred p 1) in
  (* Feed the recorded run in a causally consistent order: round-robin
     over processes, blocking each on its next unsatisfied receive —
     the same linearisation [Computation.of_arrays] validates with.
     Events are pulled through the cursor one at a time, so a btrace
     source never materialises the run. *)
  let nops = Array.init n src.Computation.Stream.num_ops in
  let cursor = Array.make n 0 in
  let states = Array.make n 1 in
  let progress = ref true in
  while !progress do
    progress := false;
    for p = 0 to n - 1 do
      let continue = ref true in
      while !continue do
        if cursor.(p) >= nops.(p) then continue := false
        else
          match src.Computation.Stream.op ~proc:p ~k:cursor.(p) with
          | Computation.Send { dst; msg } ->
              states.(p) <- states.(p) + 1;
              Incremental.on_send b ~proc:p ~dst ~msg ~pred:(pred p states.(p));
              cursor.(p) <- cursor.(p) + 1;
              progress := true
          | Computation.Recv { msg } ->
              if Hashtbl.mem b.Incremental.tags msg then begin
                states.(p) <- states.(p) + 1;
                Incremental.on_receive b ~proc:p ~msg ~pred:(pred p states.(p));
                cursor.(p) <- cursor.(p) + 1;
                progress := true
              end
              else continue := false
      done
    done
  done;
  Array.iteri
    (fun p c ->
      if c <> nops.(p) then failwith "Slice.make: computation not drained")
    cursor;
  Incremental.finish b

let make comp ~keep = of_source (Computation.Stream.of_computation comp) ~keep

let keep_for_spec (src : Computation.Stream.source) ~procs ~keep_rest =
  let n = src.Computation.Stream.src_n in
  let member = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n then invalid_arg "Slice.for_spec: bad process";
      member.(p) <- true)
    procs;
  fun ~proc ~state ->
    if member.(proc) then src.Computation.Stream.pred ~proc ~state
    else keep_rest

let for_spec_source ?(keep_rest = false) src ~procs =
  of_source src ~keep:(keep_for_spec src ~procs ~keep_rest)

let for_spec ?(keep_rest = false) comp ~procs =
  for_spec_source ~keep_rest (Computation.Stream.of_computation comp) ~procs
