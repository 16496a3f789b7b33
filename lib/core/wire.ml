open Wcp_trace
open Wcp_clocks

let word = 32

let packed_color_words ~width = (width + 31) / 32

(* On the wire a delta entry is ONE packed word: 10-bit index + 22-bit
   value (the dense form spends a full word per component, so packing
   the pair is what makes the delta pay off even at moderate change
   counts). [packable] rejects vectors the packed format cannot carry —
   width over 1024 or a clock component at 2^22, both far beyond any
   trace this harness can build — and every caller then falls back to
   the dense form, so the accounting never understates a real wire. *)
let packable ~width delta =
  width <= 1024
  &&
  let ok = ref true in
  Array.iteri
    (fun i x -> if i land 1 = 1 && x >= 0x40_0000 then ok := false)
    delta;
  !ok

let pairs_words delta = Array.length delta / 2

(* --- Snapshot codec (materialised on the wire) ------------------- *)

(* One encoder per (application process -> monitor) channel. The
   channel is FIFO (raw replay network) or in-order exactly-once
   (reliable transport), so sender and receiver walk the same sequence
   of clocks and their bases never diverge. *)

type snap_encoder = { mutable tx : int array }

let snap_encoder ~width = { tx = Array.make width 0 }

let encode_snap enc ~state clock =
  let width = Array.length enc.tx in
  if Array.length clock <> width then
    invalid_arg "Wire.encode_snap: clock width mismatch";
  let delta = Vector_clock.encode_delta ~base:enc.tx clock in
  enc.tx <- Array.copy clock;
  (* Hybrid: ship the delta only when strictly smaller than the dense
     form under the DESIGN.md word accounting (state word + one packed
     word per changed entry + pair count, vs state word + width). *)
  if
    packable ~width delta
    && word * (2 + pairs_words delta) < word * (width + 1)
  then Messages.Snap_vc_delta { state; delta }
  else Messages.Snap_vc { Snapshot.state; clock = Array.copy clock }

type snap_decoder = { mutable rx : int array }

let snap_decoder ~width = { rx = Array.make width 0 }

(* The decoder is channel-stateful: a monitor checkpoint must carry it,
   or a replayed [Snap_vc_delta] would be decoded against the wrong
   base after a restore. *)
let decoder_state dec = Array.copy dec.rx

let restore_decoder dec base = dec.rx <- Array.copy base

let decode_snap dec msg =
  match msg with
  | Messages.Snap_vc s ->
      dec.rx <- Array.copy s.Snapshot.clock;
      s
  | Messages.Snap_vc_delta { state; delta } ->
      let clock = Vector_clock.decode_delta ~base:dec.rx delta in
      dec.rx <- Array.copy clock;
      { Snapshot.state; clock }
  | _ -> invalid_arg "Wire.decode_snap: not a vc snapshot"

(* --- Direct-dependence snapshot codec ---------------------------- *)

(* §4.1 snapshots are already small — a state word plus (src, clock)
   pairs — but each pair fits the same 10/22-bit packed word the vc
   delta uses (src is a process id, clock a scalar state index), so
   packing halves the per-dependence cost. Stateless: deps carry
   absolute values, so no channel cache and no FIFO requirement. *)

let dd_packable deps =
  List.for_all
    (fun (d : Wcp_clocks.Dependence.t) ->
      d.Dependence.src < 1024 && d.Dependence.clock < 0x40_0000 && d.Dependence.clock >= 0)
    deps

let encode_dd ~state deps =
  if dd_packable deps then
    Messages.Snap_dd_packed
      {
        state;
        deps =
          Array.of_list
            (List.map
               (fun (d : Wcp_clocks.Dependence.t) ->
                 (d.Dependence.src lsl 22) lor d.Dependence.clock)
               deps);
      }
  else Messages.Snap_dd { Snapshot.state; deps }

let decode_dd = function
  | Messages.Snap_dd s -> s
  | Messages.Snap_dd_packed { state; deps } ->
      {
        Snapshot.state;
        deps =
          Array.to_list
            (Array.map
               (fun w ->
                 { Dependence.src = w lsr 22; clock = w land 0x3F_FFFF })
               deps);
      }
  | _ -> invalid_arg "Wire.decode_dd: not a dd snapshot"

(* --- Poll accounting (accounting only) --------------------------- *)

(* A §4 poll carries a scalar clock and the red-chain successor: a
   21-bit clock and an 11-bit successor (with one sentinel value for
   [None]) share one word; anything larger falls back to the dense
   two-word form. Polls stay materialised as {!Messages.Poll} inside
   the simulation — this prices the encoded form, exactly like the
   token meter. *)
let poll_bits ~clock ~next_red =
  let nr = match next_red with None -> 0 | Some p -> p + 1 in
  if clock >= 0 && clock < 0x20_0000 && nr < 0x800 then word else word * 2

(* Each spec process's interval-gated snapshot stream as replay-ready
   (state, message) pairs, hybrid-encoded when [delta]. Shared by the
   three vc-family detectors. *)
let encoded_stream ~delta comp spec ~proc =
  let width = Spec.width spec in
  let stream = Snapshot.vc_stream comp spec ~proc in
  if delta then
    let enc = snap_encoder ~width in
    List.map
      (fun (s : Snapshot.vc) ->
        (s.Snapshot.state, encode_snap enc ~state:s.Snapshot.state s.Snapshot.clock))
      stream
  else
    List.map (fun (s : Snapshot.vc) -> (s.Snapshot.state, Messages.Snap_vc s)) stream

(* --- Token wire-size meter (accounting only) --------------------- *)

(* Tokens carry their dense [g]/[color] arrays inside the simulation
   (exactly like the clock tag of a replayed {!Messages.App_msg}, which
   is accounted for but never materialised); the meter computes what an
   encoded token would cost on the wire and keeps the per-edge sender
   cache. Token hops on a given (holder -> next) edge are causally
   serialised — a monitor cannot forward the token again before the
   previous hop on that edge was consumed — so the receiver's cache
   would deterministically mirror the sender's. *)

type token_meter = {
  width : int;
  edges : (int * int, int array) Hashtbl.t;  (* (src, dst) -> last g *)
}

let token_meter ~width = { width; edges = Hashtbl.create 16 }

let dense_token_bits ~width = word * 2 * width

let token_bits meter ~src ~dst g =
  if Array.length g <> meter.width then
    invalid_arg "Wire.token_bits: width mismatch";
  let key = (src, dst) in
  let base =
    match Hashtbl.find_opt meter.edges key with
    | Some b -> b
    | None -> Array.make meter.width 0
  in
  let delta = Vector_clock.encode_delta ~base g in
  Hashtbl.replace meter.edges key (Array.copy g);
  (* Encoded form: pair count + one packed word per changed entry +
     bit-packed color vector; dense fallback is the unchanged pre-delta
     formula. *)
  let encoded =
    if packable ~width:meter.width delta then
      word * (1 + pairs_words delta + packed_color_words ~width:meter.width)
    else max_int
  in
  min encoded (dense_token_bits ~width:meter.width)

(* --- Application-tag accounting (replay) ------------------------- *)

(* A replayed App_msg charges [word * (1 + spec_width)]: one payload
   word plus the projected clock tag it would carry (the tag itself is
   never materialised — the monitors never see application traffic).
   Under delta encoding the tag on a channel is shipped as the
   difference from the previous tag on the same channel
   (Singhal–Kshemkalyani): the plan below replays every channel in
   sender order over the recorded computation and prices each message
   id once, so the replay driver can charge the encoded size. *)

let app_tag_plan comp spec =
  let width = Spec.width spec in
  let msgs = Computation.messages comp in
  let plan = Array.make (Array.length msgs) 0 in
  let bases : (int * int, int array) Hashtbl.t = Hashtbl.create 16 in
  (* Per sender, messages in ascending [src_state] = the order they are
     shipped, which is FIFO per (src, dst) channel. *)
  let by_sender = Array.to_list msgs in
  let by_sender =
    List.sort
      (fun (a : Computation.message) (b : Computation.message) ->
        compare (a.src, a.src_state, a.id) (b.src, b.src_state, b.id))
      by_sender
  in
  List.iter
    (fun (m : Computation.message) ->
      let tag =
        Spec.project spec
          (Computation.vc comp (State.make ~proc:m.src ~index:m.src_state))
      in
      let key = (m.src, m.dst) in
      let base =
        match Hashtbl.find_opt bases key with
        | Some b -> b
        | None -> Array.make width 0
      in
      let delta = Vector_clock.encode_delta ~base tag in
      Hashtbl.replace bases key tag;
      let dense = word * (1 + width) in
      let encoded =
        if packable ~width delta then word * (2 + pairs_words delta)
        else max_int
      in
      plan.(m.id) <- min encoded dense)
    by_sender;
  plan

let replay_app_bits comp spec =
  let plan = app_tag_plan comp spec in
  fun msg_id -> plan.(msg_id)
