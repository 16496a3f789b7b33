open Wcp_trace

let linearize (src : Computation.Stream.source) ~emit =
  let n = src.Computation.Stream.src_n in
  let nops = Array.init n src.Computation.Stream.num_ops in
  let cursor = Array.make n 0 in
  let sent : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let progress = ref true in
  while !progress do
    progress := false;
    for p = 0 to n - 1 do
      let continue = ref true in
      while !continue do
        let k = cursor.(p) in
        if k >= nops.(p) then continue := false
        else begin
          let op = src.Computation.Stream.op ~proc:p ~k in
          let ready =
            match op with
            | Computation.Send { msg; _ } ->
                Hashtbl.replace sent msg ();
                true
            | Computation.Recv { msg } ->
                Hashtbl.mem sent msg
                && begin
                     Hashtbl.remove sent msg;
                     true
                   end
          in
          if ready then begin
            cursor.(p) <- k + 1;
            emit ~proc:p ~k ~op ~state:(k + 2);
            progress := true
          end
          else continue := false
        end
      done
    done
  done;
  Array.iteri
    (fun p c ->
      if c <> nops.(p) then
        failwith
          (Printf.sprintf
             "Locate.linearize: process %d blocks on an unmatched receive" p))
    cursor

type completing = { proc : int; state : int; index : int }

let completing_event (src : Computation.Stream.source) (cut : Cut.t) =
  let target = Array.make src.Computation.Stream.src_n 0 in
  Array.iteri (fun i p -> target.(p) <- cut.Cut.states.(i)) cut.Cut.procs;
  let last = ref None and index = ref 0 in
  linearize src ~emit:(fun ~proc ~k:_ ~op:_ ~state ->
      if state = target.(proc) then last := Some { proc; state; index = !index };
      incr index);
  !last
