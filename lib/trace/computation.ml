open Wcp_clocks

type op = Send of { dst : int; msg : int } | Recv of { msg : int }

type message = {
  id : int;
  src : int;
  src_state : int;
  dst : int;
  dst_state : int;
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

type source = {
  src_n : int;
  num_ops : int -> int;
  op : proc:int -> k:int -> op;
  pred : proc:int -> state:int -> bool;
}

(* Per-id slots of [walk]. A sound run of E events names exactly the
   ids 0..E/2-1, so ⌈E/2⌉ slots cover every legal id and nothing is
   sized by an id's value. One 4-byte off-heap word each: [free] until
   the send runs, [dst + 1] while in flight, [gone] once received. *)
let free = 0

let gone = -1

(* A send named an id past the slots, so the ids are not dense: name
   the first id below them that no event sends, as the dense pairing
   does. If every one is sent there are more sends than receives, and
   one of them is never received. Error path only, so one more pass
   over the source is fine. *)
let not_dense src ~ids =
  let seen = Bytes.make ids '\000' in
  for p = 0 to src.src_n - 1 do
    for k = 0 to src.num_ops p - 1 do
      let msg, bit =
        match src.op ~proc:p ~k with
        | Send { msg; _ } -> (msg, 1)
        | Recv { msg } -> (msg, 2)
      in
      if msg >= 0 && msg < ids then
        Bytes.set seen msg (Char.chr (Char.code (Bytes.get seen msg) lor bit))
    done
  done;
  let missing bit =
    let id = ref 0 in
    while !id < ids && Char.code (Bytes.get seen !id) land bit <> 0 do
      incr id
    done;
    !id
  in
  let unsent = missing 1 in
  if unsent < ids then invalid "message id %d never sent" unsent;
  invalid "message %d never received" (missing 2)

(* [p] is blocked for good on a receive of [w]: name the defect. Error
   path only, so one more pass over the source is fine. *)
let stuck src ~slot ~cursor p w =
  let sends = ref 0 in
  for q = 0 to src.src_n - 1 do
    for k = 0 to src.num_ops q - 1 do
      match src.op ~proc:q ~k with
      | Send { msg; _ } when msg = w -> incr sends
      | Send _ | Recv _ -> ()
    done
  done;
  if !sends > 1 then invalid "message %d sent twice" w;
  if slot w <> free then invalid "message %d received twice" w;
  if !sends = 0 then invalid "message id %d never sent" w;
  invalid "process %d blocked at event %d: causal cycle in trace" p cursor.(p)

let walk src ~send ~receive =
  let n = src.src_n in
  let nops = Array.init n src.num_ops in
  let ids = (Array.fold_left ( + ) 0 nops + 1) / 2 in
  let slots = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout ids in
  Bigarray.Array1.fill slots (Int32.of_int free);
  let slot msg =
    if msg < ids then Int32.to_int (Bigarray.Array1.unsafe_get slots msg)
    else free
  in
  let set msg v = Bigarray.Array1.unsafe_set slots msg (Int32.of_int v) in
  let cursor = Array.make n 0 in
  let waiting = Array.make n (-1) in  (* message a blocked receive awaits *)
  let in_flight = ref 0 in
  let recv p k msg =
    let s = slot msg in
    if s > 0 then begin
      if s - 1 <> p then
        invalid "message %d addressed to %d but received by %d" msg (s - 1) p;
      set msg gone;
      decr in_flight;
      waiting.(p) <- -1;
      receive ~proc:p ~msg ~pred:(src.pred ~proc:p ~state:(k + 2));
      true
    end
    else begin
      waiting.(p) <- msg;
      false
    end
  in
  (* Consume event [k] of [p] if it is enabled. A blocked receive keeps
     its message id, so no event is read twice. *)
  let step p k =
    if waiting.(p) >= 0 then recv p k waiting.(p)
    else
      match src.op ~proc:p ~k with
      | Send { dst; msg } ->
          if msg < 0 then invalid "negative message id %d" msg;
          if dst < 0 || dst >= n then
            invalid "message %d sent to invalid process %d" msg dst;
          if dst = p then invalid "message %d is a self-send on %d" msg p;
          if msg >= ids then not_dense src ~ids;
          if slot msg <> free then invalid "message %d sent twice" msg;
          set msg (dst + 1);
          incr in_flight;
          send ~proc:p ~dst ~msg ~pred:(src.pred ~proc:p ~state:(k + 2));
          true
      | Recv { msg } ->
          if msg < 0 then invalid "receive of unknown message %d" msg;
          recv p k msg
  in
  let progress = ref true in
  while !progress do
    progress := false;
    for p = 0 to n - 1 do
      while cursor.(p) < nops.(p) && step p cursor.(p) do
        cursor.(p) <- cursor.(p) + 1;
        progress := true
      done
    done
  done;
  Array.iteri
    (fun p k -> if k < nops.(p) then stuck src ~slot ~cursor p waiting.(p))
    cursor;
  if !in_flight > 0 then begin
    let id = ref 0 in
    while slot !id <= free do
      incr id
    done;
    invalid "message %d never received" !id
  end

type t = {
  n : int;
  ops : op array array;
  pred : bool array array;
  messages : message array;
  vcs : Vector_clock.t array array;
  deps : Dependence.t option array array;
  max_events : int;
  send_prefix : int array array;
      (* send_prefix.(i).(s) = number of sends process i performs at
         states <= s (the op at position p executes at state p + 1), so
         "any send in [lo, hi]" is one subtraction. *)
}

(* The walk plus the Fig. 2 clock of every state and the §4.1 direct
   dependence at every receive. The message tables have the walk's
   ⌈E/2⌉ slots, one per message once the walk has found E even. *)
let of_arrays ~ops ~pred =
  let n = Array.length ops in
  if n = 0 then invalid "empty computation";
  if Array.length pred <> n then
    invalid "pred has %d rows for %d processes" (Array.length pred) n;
  Array.iteri
    (fun i row ->
      let expect = Array.length ops.(i) + 1 in
      if Array.length row <> expect then
        invalid "process %d: %d predicate flags for %d states"
          i (Array.length row) expect)
    pred;
  let clock = Array.init n (fun i -> Vector_clock.make ~n ~owner:i) in
  (* Slot 0 holds the initial clock; the event entering state [s]
     writes slot [s - 1], and a process's own clock entry is its
     state. *)
  let vcs = Array.init n (fun i -> Array.make (Array.length ops.(i) + 1) clock.(i)) in
  let deps = Array.init n (fun i -> Array.make (Array.length ops.(i) + 1) None) in
  let num_msgs = (Array.fold_left (fun acc o -> acc + Array.length o) 0 ops + 1) / 2 in
  let msg_vc = Array.make num_msgs clock.(0) in  (* the sender's clock *)
  let msg_src = Array.make num_msgs 0 in
  let messages =
    Array.make num_msgs { id = 0; src = 0; src_state = 0; dst = 0; dst_state = 0 }
  in
  walk
    {
      src_n = n;
      num_ops = (fun i -> Array.length ops.(i));
      op = (fun ~proc ~k -> ops.(proc).(k));
      pred = (fun ~proc ~state -> pred.(proc).(state - 1));
    }
    ~send:(fun ~proc:i ~dst:_ ~msg ~pred:_ ->
      msg_vc.(msg) <- clock.(i);
      msg_src.(msg) <- i;
      clock.(i) <- Vector_clock.tick clock.(i) ~owner:i;
      vcs.(i).(Vector_clock.get clock.(i) i - 1) <- clock.(i))
    ~receive:(fun ~proc:i ~msg ~pred:_ ->
      (* Fig. 2 receive rule via the in-place ops: one fresh array per
         state instead of one per step. *)
      let v = Vector_clock.copy clock.(i) in
      Vector_clock.merge_into ~into:v msg_vc.(msg);
      Vector_clock.tick_into v ~owner:i;
      clock.(i) <- v;
      let src = msg_src.(msg) and dst_state = Vector_clock.get v i in
      let src_state = Vector_clock.get msg_vc.(msg) src in
      vcs.(i).(dst_state - 1) <- v;
      deps.(i).(dst_state - 1) <- Some Dependence.{ src; clock = src_state };
      messages.(msg) <- { id = msg; src; src_state; dst = i; dst_state });
  let max_events =
    Array.fold_left (fun acc o -> max acc (Array.length o)) 0 ops
  in
  let send_prefix =
    Array.map
      (fun proc_ops ->
        let p = Array.make (Array.length proc_ops + 2) 0 in
        Array.iteri
          (fun k op ->
            p.(k + 1) <-
              (p.(k) + match op with Send _ -> 1 | Recv _ -> 0))
          proc_ops;
        p.(Array.length proc_ops + 1) <- p.(Array.length proc_ops);
        p)
      ops
  in
  { n; ops; pred; messages; vcs; deps; max_events; send_prefix }

let of_raw ~ops ~pred =
  of_arrays ~ops:(Array.map Array.of_list ops) ~pred:(Array.map Array.copy pred)

let n t = t.n

let num_states t i = Array.length t.ops.(i) + 1

let total_states t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + num_states t i
  done;
  !total

let ops t i = Array.to_list t.ops.(i)

let messages t = t.messages

let check_state t (s : State.t) =
  if s.proc < 0 || s.proc >= t.n then invalid "no process %d" s.proc;
  if s.index < 1 || s.index > num_states t s.proc then
    invalid "process %d has no state %d" s.proc s.index

let pred t (s : State.t) =
  check_state t s;
  t.pred.(s.proc).(s.index - 1)

let vc_unsafe t (s : State.t) = t.vcs.(s.proc).(s.index - 1)

let vc t (s : State.t) =
  check_state t s;
  vc_unsafe t s

let dep_at t (s : State.t) =
  check_state t s;
  t.deps.(s.proc).(s.index - 1)

let happened_before_unsafe t (a : State.t) (b : State.t) =
  if a.proc = b.proc then a.index < b.index
  else Vector_clock.get (vc_unsafe t b) a.proc >= a.index

let happened_before t (a : State.t) (b : State.t) =
  check_state t a;
  check_state t b;
  happened_before_unsafe t a b

let concurrent_unsafe t a b =
  (not (State.equal a b))
  && (not (happened_before_unsafe t a b))
  && not (happened_before_unsafe t b a)

let concurrent t a b =
  check_state t a;
  check_state t b;
  concurrent_unsafe t a b

let candidates t i =
  let states = num_states t i in
  let rec collect k acc =
    if k < 1 then acc
    else collect (k - 1) (if t.pred.(i).(k - 1) then k :: acc else acc)
  in
  collect states []

let max_events_per_process t = t.max_events

let sends_in t ~proc ~lo ~hi =
  if proc < 0 || proc >= t.n then invalid "no process %d" proc;
  let p = t.send_prefix.(proc) in
  let states = num_states t proc in
  let lo = max lo 1 and hi = min hi states in
  lo <= hi && p.(hi) - p.(lo - 1) > 0

let reflag t ~pred =
  let fresh =
    Array.init t.n (fun p ->
        Array.init (num_states t p) (fun k -> pred ~proc:p ~state:(k + 1)))
  in
  { t with pred = fresh }

let pp_summary ppf t =
  Format.fprintf ppf "computation: %d processes, %d states, %d messages"
    t.n (total_states t) (Array.length t.messages)

module Stream = struct
  type nonrec source = source = {
    src_n : int;
    num_ops : int -> int;
    op : proc:int -> k:int -> op;
    pred : proc:int -> state:int -> bool;
  }

  let walk = walk

  (* The accessors bound-check explicitly so a cursor racing past the
     recorded extent (e.g. a streaming consumer misreading a count)
     fails with a named error, never an anonymous [Index_out_of_bounds]
     — the same discipline [Btrace.source] applies with [Corrupt]. *)
  let of_computation t =
    let check_proc who i =
      if i < 0 || i >= t.n then
        invalid_arg (Printf.sprintf "Computation.Stream.%s: no process %d" who i)
    in
    {
      src_n = t.n;
      num_ops =
        (fun i ->
          check_proc "num_ops" i;
          Array.length t.ops.(i));
      op =
        (fun ~proc ~k ->
          check_proc "op" proc;
          if k < 0 || k >= Array.length t.ops.(proc) then
            invalid_arg
              (Printf.sprintf "Computation.Stream.op: process %d has no event %d"
                 proc k);
          Array.unsafe_get t.ops.(proc) k);
      pred =
        (fun ~proc ~state ->
          check_proc "pred" proc;
          if state < 1 || state > Array.length t.pred.(proc) then
            invalid_arg
              (Printf.sprintf
                 "Computation.Stream.pred: process %d has no state %d" proc
                 state);
          Array.unsafe_get t.pred.(proc) (state - 1));
    }

  let materialize s =
    let ops =
      Array.init s.src_n (fun i ->
          Array.init (s.num_ops i) (fun k -> s.op ~proc:i ~k))
    in
    let pred =
      Array.init s.src_n (fun i ->
          Array.init (s.num_ops i + 1) (fun k ->
              s.pred ~proc:i ~state:(k + 1)))
    in
    of_arrays ~ops ~pred
end
