(* The detector table: see detectors.mli. *)

open Wcp_trace

type run =
  ?fault:Wcp_sim.Fault.plan ->
  ?recorder:Wcp_obs.Recorder.t ->
  ?ckpt_every:int ->
  options:Detection.options ->
  groups:int ->
  ?domains:int ->
  seed:int64 ->
  Computation.t ->
  Spec.t ->
  Detection.result

type t = {
  name : string;
  keep_rest : bool;
  online : bool;
  faults : bool;
  run : run;
}

(* The checkers run no simulated network, so there is nothing for a
   fault plan to act on. *)
let no_fault name = function
  | None -> ()
  | Some _ -> invalid_arg (name ^ ": fault injection needs a token algorithm")

let all =
  let token ?(keep_rest = false) name run =
    { name; keep_rest; online = false; faults = true; run }
  in
  let checker name run =
    { name; keep_rest = false; online = true; faults = false; run }
  in
  [
    token "token-vc"
      (fun ?fault ?recorder ?ckpt_every ~options ~groups:_ ?domains:_ ~seed c s ->
        Token_vc.detect ?fault ?recorder ?ckpt_every ~options ~seed c s);
    token "multi-token"
      (fun ?fault ?recorder ?ckpt_every ~options ~groups ?domains:_ ~seed c s ->
        Token_multi.detect ?fault ?recorder ?ckpt_every ~options
          ~groups:(min groups (Spec.width s))
          ~seed c s);
    token ~keep_rest:true "token-dd"
      (fun ?fault ?recorder ?ckpt_every ~options ~groups:_ ?domains:_ ~seed c s ->
        Token_dd.detect ?fault ?recorder ?ckpt_every ~options ~seed c s);
    token ~keep_rest:true "token-dd-par"
      (fun ?fault ?recorder ?ckpt_every ~options ~groups:_ ?domains:_ ~seed c s ->
        Token_dd.detect ?fault ?recorder ?ckpt_every ~options ~parallel:true
          ~seed c s);
    checker "checker"
      (fun ?fault ?recorder ?ckpt_every:_ ~options ~groups:_ ?domains:_ ~seed c s ->
        no_fault "checker" fault;
        Checker_centralized.detect ?recorder ~options ~seed c s);
    checker "parallel"
      (fun ?fault ?recorder ?ckpt_every:_ ~options ~groups:_ ?domains ~seed c s ->
        no_fault "parallel" fault;
        Checker_parallel.detect ?recorder ~options ?domains ~seed c s);
  ]

let names = List.map (fun d -> d.name) all

let find name =
  match List.find_opt (fun d -> d.name = name) all with
  | Some d -> Ok d
  | None ->
      Error
        (Printf.sprintf "unknown detection algorithm %S (want one of %s)" name
           (String.concat ", " names))

let spec_outcome d spec outcome =
  if d.keep_rest then Detection.project_outcome spec outcome else outcome
