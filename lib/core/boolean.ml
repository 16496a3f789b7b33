open Wcp_trace

type prim_t = { proc : int; name : string; holds : int -> bool }

type expr =
  | Prim of prim_t
  | Const of bool
  | Not of expr
  | And of expr list
  | Or of expr list

let prim ~proc ~name ~holds = Prim { proc; name; holds }

let of_recorded_pred comp ~proc =
  if proc < 0 || proc >= Computation.n comp then
    invalid_arg "Boolean.of_recorded_pred: no such process";
  Prim
    {
      proc;
      name = Printf.sprintf "l_%d" proc;
      holds = (fun k -> Computation.pred comp (State.make ~proc ~index:k));
    }

let const b = Const b

let not_ e = Not e

let and_ es = And es

let or_ es = Or es

let rec pp ppf = function
  | Prim { proc; name; _ } -> Format.fprintf ppf "%s@%d" name proc
  | Const b -> Format.pp_print_bool ppf b
  | Not e -> Format.fprintf ppf "¬(%a)" pp e
  | And es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ∧ ")
           pp)
        es
  | Or es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ∨ ")
           pp)
        es

type literal = { lit_proc : int; lit_name : string; lit_holds : int -> bool }

let literal_of_prim ~negated { proc; name; holds } =
  if negated then
    {
      lit_proc = proc;
      lit_name = "¬" ^ name;
      lit_holds = (fun k -> not (holds k));
    }
  else { lit_proc = proc; lit_name = name; lit_holds = holds }

(* DNF via negation-normal-form recursion. Disjunctions are lists of
   conjunctions; conjunctions are literal lists. *)
let dnf ?(max_disjuncts = 512) expr =
  let check ds =
    if List.length ds > max_disjuncts then
      invalid_arg "Boolean.dnf: disjunct blow-up";
    ds
  in
  let rec go negated = function
    | Const b -> if b <> negated then [ [] ] else []
    | Prim p -> [ [ literal_of_prim ~negated p ] ]
    | Not e -> go (not negated) e
    | And es when not negated -> conj_all negated es
    | And es -> check (List.concat_map (go negated) es)
    | Or es when not negated -> check (List.concat_map (go negated) es)
    | Or es -> conj_all negated es
  and conj_all negated es =
    (* Cartesian product of the operands' DNFs. *)
    List.fold_left
      (fun acc e ->
        let d = go negated e in
        check (List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) d) acc))
      [ [] ] es
  in
  go false expr

type disjunct_result = {
  index : int;
  procs : int array;
  first_cut : Cut.t option;
}

type verdict = { possibly : bool; disjuncts : disjunct_result list }

let rec eval expr comp cut =
  match expr with
  | Const b -> b
  | Not e -> not (eval e comp cut)
  | And es -> List.for_all (fun e -> eval e comp cut) es
  | Or es -> List.exists (fun e -> eval e comp cut) es
  | Prim { proc; holds; _ } ->
      let w = Cut.width cut in
      let rec find k =
        if k = w then invalid_arg "Boolean.eval: cut misses a primitive's process"
        else
          let s = Cut.state cut k in
          if s.State.proc = proc then holds s.State.index else find (k + 1)
      in
      find 0

let check_procs comp expr =
  let n = Computation.n comp in
  let rec go = function
    | Prim { proc; _ } ->
        if proc < 0 || proc >= n then
          invalid_arg "Boolean.detect: primitive names an unknown process"
    | Const _ -> ()
    | Not e -> go e
    | And es | Or es -> List.iter go es
  in
  go expr

let detect_disjunct comp index lits =
  match lits with
  | [] ->
      (* The empty conjunction is [true]: the initial cut witnesses it
         (initial states are always pairwise concurrent). *)
      let procs = Array.init (Computation.n comp) Fun.id in
      let states = Array.make (Computation.n comp) 1 in
      { index; procs; first_cut = Some (Cut.make ~procs ~states) }
  | _ ->
      (* Conjoin same-process literals into one local predicate. *)
      let by_proc = Hashtbl.create 8 in
      List.iter
        (fun l ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt by_proc l.lit_proc)
          in
          Hashtbl.replace by_proc l.lit_proc (l :: prev))
        lits;
      let procs =
        Hashtbl.fold (fun p _ acc -> p :: acc) by_proc []
        |> List.sort compare |> Array.of_list
      in
      let candidates p =
        let group = Hashtbl.find by_proc p in
        List.filter
          (fun k -> List.for_all (fun l -> l.lit_holds k) group)
          (List.init (Computation.num_states comp p) (fun i -> i + 1))
      in
      let first_cut =
        match Oracle.first_cut_with comp ~procs ~candidates with
        | Detection.Detected cut -> Some cut
        | Detection.No_detection | Detection.Undetectable_crashed _ -> None
      in
      { index; procs; first_cut }

let detect_disjunct_online ~seed comp index lits =
  match lits with
  | [] ->
      let procs = Array.init (Computation.n comp) Fun.id in
      let states = Array.make (Computation.n comp) 1 in
      { index; procs; first_cut = Some (Cut.make ~procs ~states) }
  | _ ->
      let by_proc = Hashtbl.create 8 in
      List.iter
        (fun l ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt by_proc l.lit_proc)
          in
          Hashtbl.replace by_proc l.lit_proc (l :: prev))
        lits;
      let procs =
        Hashtbl.fold (fun p _ acc -> p :: acc) by_proc []
        |> List.sort compare |> Array.of_list
      in
      (* The disjunct's conjunction becomes ordinary local-predicate
         flags; the distributed algorithm needs nothing else. *)
      let derived =
        Computation.reflag comp ~pred:(fun ~proc ~state ->
            match Hashtbl.find_opt by_proc proc with
            | None -> false
            | Some group -> List.for_all (fun l -> l.lit_holds state) group)
      in
      let spec = Spec.make derived procs in
      let r = Token_vc.detect ~seed derived spec in
      let first_cut =
        match r.Detection.outcome with
        | Detection.Detected cut -> Some cut
        | Detection.No_detection | Detection.Undetectable_crashed _ -> None
      in
      { index; procs; first_cut }

let detect_online ?max_disjuncts ~seed comp expr =
  check_procs comp expr;
  let disjuncts =
    List.mapi (detect_disjunct_online ~seed comp) (dnf ?max_disjuncts expr)
  in
  {
    possibly = List.exists (fun d -> d.first_cut <> None) disjuncts;
    disjuncts;
  }

let detect ?max_disjuncts comp expr =
  check_procs comp expr;
  let disjuncts =
    List.mapi (detect_disjunct comp) (dnf ?max_disjuncts expr)
  in
  {
    possibly = List.exists (fun d -> d.first_cut <> None) disjuncts;
    disjuncts;
  }
