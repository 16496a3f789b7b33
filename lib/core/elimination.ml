(* Garg–Waldecker queue elimination: see elimination.mli. *)

type 'a t = {
  columns : int array;  (* slot -> clock column *)
  state : 'a -> int;
  clock : 'a -> int array;
  queues : 'a Queue.t array;
  cands : 'a option array;
  mutable filled : int;
}

let create ~columns ~state ~clock =
  let width = Array.length columns in
  {
    columns;
    state;
    clock;
    queues = Array.init width (fun _ -> Queue.create ());
    cands = Array.make width None;
    filled = 0;
  }

let push t k c = Queue.add c t.queues.(k)

let candidate t k = t.cands.(k)

let eliminate t k =
  if Option.is_none t.cands.(k) then
    invalid_arg "Elimination.eliminate: empty slot";
  t.cands.(k) <- None;
  t.filled <- t.filled - 1

(* [a], standing in slot [k], happened before [b]. *)
let hb t k a b = (t.clock b).(t.columns.(k)) >= t.state a

(* Compare the fresh candidate against every standing one; whichever
   side happened before the other dies. Standing candidates are
   pairwise concurrent by induction, so at most the fresh candidate
   dies, possibly killing several stale peers first. *)
let fill t ~on_eliminate k =
  let c = Queue.pop t.queues.(k) in
  t.cands.(k) <- Some c;
  t.filled <- t.filled + 1;
  let l = ref 0 in
  while Option.is_some t.cands.(k) && !l < Array.length t.cands do
    (if !l <> k then
       match t.cands.(!l) with
       | Some other ->
           if hb t k c other then begin
             on_eliminate ~victim:k ~by:!l;
             eliminate t k
           end
           else if hb t !l other c then begin
             on_eliminate ~victim:!l ~by:k;
             eliminate t !l
           end
       | None -> ());
    incr l
  done

let drive ?(on_eliminate = fun ~victim:_ ~by:_ -> ()) t =
  let fills = ref 0 in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    for k = 0 to Array.length t.cands - 1 do
      if Option.is_none t.cands.(k) && not (Queue.is_empty t.queues.(k)) then begin
        fill t ~on_eliminate k;
        incr fills;
        progressed := true
      end
    done
  done;
  !fills

let full t = t.filled = Array.length t.cands

let starved t ~finished =
  Array.exists Fun.id
    (Array.mapi
       (fun k q ->
         Option.is_none t.cands.(k) && Queue.is_empty q && finished.(k))
       t.queues)

let states t =
  Array.map
    (function
      | Some c -> t.state c
      | None -> invalid_arg "Elimination.states: not full")
    t.cands
