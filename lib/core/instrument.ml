open Wcp_clocks
open Wcp_sim

type mode = Vc | Dd

type tag = Messages.tag

type t = {
  mode : mode;
  n_app : int;
  proc : int;
  spec_index : int;  (* index of [proc] in [wcp_procs], or -1 *)
  width : int;
  clock : int array;  (* Vc mode: the n-entry projected vector clock *)
  mutable scalar : int;  (* 1-based local state index (both modes) *)
  deps : Dependence.accumulator;  (* Dd mode: since the last snapshot *)
  encoder : Wire.snap_encoder;  (* Vc mode delta channel state *)
  mutable firstflag : bool;
  mutable gate_open : bool;
      (* true iff a send happened since the last emitted snapshot (or
         none was ever emitted): the interval-gating condition. *)
  mutable finished : bool;
}

let create ~mode ~n_app ~wcp_procs ~proc =
  if proc < 0 || proc >= n_app then invalid_arg "Instrument.create: bad proc";
  let width = Array.length wcp_procs in
  if width = 0 then invalid_arg "Instrument.create: empty WCP";
  let spec_index = ref (-1) in
  Array.iteri
    (fun k p ->
      if k > 0 && wcp_procs.(k - 1) >= p then
        invalid_arg "Instrument.create: procs must be strictly increasing";
      if p < 0 || p >= n_app then invalid_arg "Instrument.create: bad spec proc";
      if p = proc then spec_index := k)
    wcp_procs;
  let clock = Array.make width 0 in
  if !spec_index >= 0 then clock.(!spec_index) <- 1;
  {
    mode;
    n_app;
    proc;
    spec_index = !spec_index;
    width;
    clock;
    scalar = 1;
    deps = Dependence.create_accumulator ();
    encoder = Wire.snap_encoder ~width;
    firstflag = true;
    gate_open = true;
    finished = false;
  }

let state_index t = t.scalar

let tag_bits t = match t.mode with Vc -> 32 * t.width | Dd -> 32

let monitor_id t = Run_common.monitor_of ~n:t.n_app t.proc

let snapshot_message t =
  match t.mode with
  | Vc -> Wire.encode_snap t.encoder ~state:t.scalar t.clock
  | Dd -> Wire.encode_dd ~state:t.scalar (Dependence.drain t.deps)

let spec_width t = match t.mode with Vc -> t.width | Dd -> 1

let emit t ctx =
  if t.finished then invalid_arg "Instrument: snapshot after finish";
  let msg = snapshot_message t in
  Engine.send ctx ~bits:(Messages.bits ~spec_width:(spec_width t) msg)
    ~dst:(monitor_id t) msg;
  t.firstflag <- false;
  t.gate_open <- false

(* The [firstflag] discipline (one snapshot per state) composed with
   interval gating (ship only if a send happened since the last shipped
   snapshot; the very first snapshot always ships because the gate
   starts open). *)
let may_emit t = t.firstflag && t.gate_open

let predicate_true t ctx =
  if t.spec_index >= 0 && may_emit t then emit t ctx

(* §4 gives processes without a local predicate the trivially-true
   one: in Dd mode they snapshot on every state entry (gating permitting). *)
let auto_emit t ctx =
  match t.mode with
  | Dd -> if t.spec_index < 0 && may_emit t then emit t ctx
  | Vc -> ()

let start t ctx = auto_emit t ctx

(* Entering a new local state: a send or receive just happened. *)
let advance t ctx =
  t.scalar <- t.scalar + 1;
  if t.spec_index >= 0 then t.clock.(t.spec_index) <- t.clock.(t.spec_index) + 1;
  t.firstflag <- true;
  auto_emit t ctx

let on_send t ctx =
  if t.finished then invalid_arg "Instrument: send after finish";
  let tag =
    match t.mode with
    | Vc -> Messages.Vc_tag (Array.copy t.clock)
    | Dd -> Messages.Dd_tag { src = t.proc; clock = t.scalar }
  in
  (* The send happens while still in the current state, so it re-opens
     the gate for the next candidate even if a snapshot of this very
     state was already shipped. *)
  t.gate_open <- true;
  advance t ctx;
  tag

let on_receive t ctx ~src tag =
  if t.finished then invalid_arg "Instrument: receive after finish";
  (match (t.mode, tag) with
  | Vc, Messages.Vc_tag v ->
      if Array.length v <> t.width then
        invalid_arg "Instrument.on_receive: tag width mismatch";
      for k = 0 to t.width - 1 do
        if v.(k) > t.clock.(k) then t.clock.(k) <- v.(k)
      done
  | Dd, Messages.Dd_tag { src = tag_src; clock } ->
      if tag_src <> src then
        invalid_arg "Instrument.on_receive: tag does not match sender";
      Dependence.record t.deps { Dependence.src; clock }
  | Vc, Messages.Dd_tag _ | Dd, Messages.Vc_tag _ ->
      invalid_arg "Instrument.on_receive: tag mode mismatch");
  advance t ctx

let finish t ctx =
  if not t.finished then begin
    (* In Vc mode only spec processes have a listening monitor. *)
    (match t.mode with
    | Dd ->
        Engine.send ctx
          ~bits:(Messages.bits ~spec_width:1 Messages.App_done)
          ~dst:(monitor_id t) Messages.App_done
    | Vc ->
        if t.spec_index >= 0 then
          Engine.send ctx
            ~bits:(Messages.bits ~spec_width:t.width Messages.App_done)
            ~dst:(monitor_id t) Messages.App_done);
    t.finished <- true
  end
