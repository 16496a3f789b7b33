open Wcp_trace
open Wcp_sim

type outcome =
  | Detected of Cut.t
  | No_detection
  | Undetectable_crashed of int list

type options = { delta : bool }

let default_options = { delta = true }

type extras = { token_hops : int; polls : int; snapshots : int; merges : int }

let no_extras = { token_hops = 0; polls = 0; snapshots = 0; merges = 0 }

type result = {
  outcome : outcome;
  stats : Stats.t;
  sim_time : float;
  events : int;
  extras : extras;
}

let outcome_equal a b =
  match (a, b) with
  | Detected c1, Detected c2 -> Cut.equal c1 c2
  | No_detection, No_detection -> true
  | Undetectable_crashed p1, Undetectable_crashed p2 ->
      List.sort_uniq compare p1 = List.sort_uniq compare p2
  | (Detected _ | No_detection | Undetectable_crashed _), _ -> false

let remap_outcome f = function
  | Detected cut -> Detected (f cut)
  | (No_detection | Undetectable_crashed _) as o -> o

let project_outcome spec = function
  | No_detection -> No_detection
  | Undetectable_crashed procs -> Undetectable_crashed procs
  | Detected cut ->
      let states =
        Array.map
          (fun p ->
            (* Find p's entry in the (wider) cut. *)
            let rec find k =
              if k >= Cut.width cut then
                invalid_arg "Detection.project_outcome: cut misses spec process"
              else
                let s = Cut.state cut k in
                if s.State.proc = p then s.State.index else find (k + 1)
            in
            find 0)
          (Spec.procs spec)
      in
      Detected (Cut.make ~procs:(Spec.procs spec) ~states)

let pp_outcome ppf = function
  | Detected cut -> Format.fprintf ppf "detected %a" Cut.pp cut
  | No_detection -> Format.pp_print_string ppf "no detection"
  | Undetectable_crashed procs ->
      Format.fprintf ppf "undetectable (crashed:%a)"
        (fun ppf ->
          List.iter (fun p -> Format.fprintf ppf " %d" p))
        (List.sort_uniq compare procs)

let pp_result ppf r =
  Format.fprintf ppf
    "%a | msgs=%d bits=%d work=%d max-work=%d max-space=%d hops=%d polls=%d \
     snaps=%d t=%.2f ev=%d"
    pp_outcome r.outcome (Stats.total_sent r.stats) (Stats.total_bits r.stats)
    (Stats.total_work r.stats) (Stats.max_work r.stats)
    (Stats.max_space r.stats) r.extras.token_hops r.extras.polls
    r.extras.snapshots r.sim_time r.events
