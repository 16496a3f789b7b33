(* What every workload hands the runner, and the helpers they share. *)

open Wcp_core

(* One verdict: the input opened, detected and compared with the
   reference cut computed at set-up. *)
type verdict = {
  ok : bool;  (* outcome equals Oracle.first_cut of the input *)
  ms : float;  (* input opened -> outcome held in dense coordinates *)
  cut_ms : float;  (* cut-completing event available -> outcome held *)
  events : int;  (* dense events of the input *)
}

(* One traced verdict. The layer fields name what every workload has;
   [extra] carries the workload's own per-layer samples. *)
type traced = {
  v : verdict;  (* timed around the verdict path only *)
  decode_ms : float;  (* bytes -> events *)
  detect_ms : float;  (* the detector call alone *)
  engine_events : int;
  path_layers_ms : float;
      (* layer times that tile the verdict path; verdict minus this is
         the remainder *)
  alloc_words : float;  (* words allocated by the measured layers *)
  minor_gcs : int;
  major_gcs : int;
  extra : (string * string * float) list;  (* name, unit, value *)
}

module type S = sig
  type t

  val name : string

  val setup : dir:string -> seed:int -> t
  (** Generate the inputs, write them through the repository's own
      writers into [dir], and compute their reference cuts. *)

  val inputs : t -> int

  val write_ms : t -> float
  (** Time the set-up spent in the writer, summed over the inputs. *)

  val write_layer : string
  (** Per-layer name of {!write_ms}. *)

  val verdict : t -> int -> verdict

  val traced : t -> int -> traced

  val close : t -> unit
end

let now = Unix.gettimeofday

let ms t0 t1 = (t1 -. t0) *. 1000.

(* Gc.allocated_bytes in words. On OCaml 5 a promoted word counts in
   both the minor and the major total; the definition is the same on
   both sides of any comparison. *)
let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* Collect the set-up's dense computations before the next input is
   built, so set-up never holds more than one of them and leaves a
   small heap behind for the timed phase. *)
let settle () = Gc.full_major ()

(* Derive an input's generator seed from the run seed and its slot. *)
let input_seed seed i = Int64.of_int ((seed * 1000) + i)

(* A workload's inputs: [copies] independently seeded inputs of every
   shape, shapes interleaved. Verdict times cluster by shape; several
   inputs per cluster average out how much one seed's content moves a
   cluster, so the percentiles move less from seed to seed. *)
let copies = 3

let rotation shapes f =
  let k = Array.length shapes in
  Array.init (copies * k) (fun i -> f i shapes.(i mod k))

let keep_rest = function "token-dd" -> true | _ -> false

let detect ?recorder algo comp spec =
  let options = Detection.default_options in
  match algo with
  | "token-vc" -> Token_vc.detect ?recorder ~options ~seed:1L comp spec
  | "token-dd" -> Token_dd.detect ?recorder ~options ~seed:1L comp spec
  | "checker" -> Checker_centralized.detect ?recorder ~options ~seed:1L comp spec
  | a -> invalid_arg ("perfbench: no detector " ^ a)
