open Wcp_trace
open Wcp_clocks

type vc = { state : int; clock : int array }

type dd = { state : int; deps : Dependence.t list }

(* Interval gating: candidate [c'] may be skipped when the previously
   shipped candidate [c] of the same process is separated from it by no
   send (no send at a state in [c, c' - 1]). Then for any state [t] of
   another process, [t → c ⟹ t → c'] (clock monotonicity) and
   [c → t ⟺ c' → t] (any V_t[i] is a send state of [i], hence < c or
   ≥ c'), so [c] is consistent with everything [c'] is: the least
   consistent cut never needs the skipped candidate. The first
   candidate always ships. *)
let gate_candidates comp ~proc candidates =
  let rec go last = function
    | [] -> []
    | c :: rest -> (
        match last with
        | Some l when not (Computation.sends_in comp ~proc ~lo:l ~hi:(c - 1))
          ->
            go last rest
        | _ -> c :: go (Some c) rest)
  in
  go None candidates

let vc_stream ?(gated = true) comp spec ~proc =
  if not (Spec.mem spec proc) then
    invalid_arg "Snapshot.vc_stream: not a spec process";
  let candidates = Computation.candidates comp proc in
  let candidates =
    if gated then gate_candidates comp ~proc candidates else candidates
  in
  List.map
    (fun s ->
      let st = State.make ~proc ~index:s in
      { state = s; clock = Spec.project spec (Computation.vc comp st) })
    candidates

(* A process's candidate states under the dd algorithm: its
   predicate-true states if it carries a local predicate, every state
   otherwise (trivially-true predicate). *)
let dd_candidates comp spec ~proc =
  if Spec.mem spec proc then Computation.candidates comp proc
  else List.init (Computation.num_states comp proc) (fun k -> k + 1)

let dd_stream comp spec ~proc =
  let candidates =
    gate_candidates comp ~proc (dd_candidates comp spec ~proc)
  in
  (* Walk states 1..last candidate, accumulating the dependence
     recorded at each state entry; drain the accumulator into each
     candidate's snapshot. *)
  let rec walk next_state = function
    | [] -> []
    | c :: rest ->
        let rec gather s acc =
          if s > c then List.rev acc
          else
            let acc =
              match Computation.dep_at comp (State.make ~proc ~index:s) with
              | Some d -> d :: acc
              | None -> acc
            in
            gather (s + 1) acc
        in
        { state = c; deps = gather next_state [] } :: walk (c + 1) rest
  in
  walk 1 candidates

let gcp_stream comp spec ~channels ~proc =
  let msgs = Computation.messages comp in
  let counts_at s =
    List.map
      (fun (src, dst) ->
        if proc = src then
          Array.fold_left
            (fun acc (m : Computation.message) ->
              if m.Computation.src = src && m.Computation.dst = dst
                 && m.Computation.src_state < s
              then acc + 1
              else acc)
            0 msgs
        else if proc = dst then
          Array.fold_left
            (fun acc (m : Computation.message) ->
              if m.Computation.src = src && m.Computation.dst = dst
                 && m.Computation.dst_state <= s
              then acc + 1
              else acc)
            0 msgs
        else 0)
      channels
    |> Array.of_list
  in
  List.map
    (fun s ->
      let st = State.make ~proc ~index:s in
      ( s,
        Wcp_clocks.Vector_clock.to_array (Computation.vc comp st),
        counts_at s ))
    (dd_candidates comp spec ~proc)

let total_dd_deps comp spec =
  let total = ref 0 in
  for p = 0 to Computation.n comp - 1 do
    List.iter
      (fun s -> total := !total + List.length s.deps)
      (dd_stream comp spec ~proc:p)
  done;
  !total
