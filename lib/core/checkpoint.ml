open Wcp_clocks

let version = "wcp-ckpt/1"

type vc_mon = {
  v_queue : Snapshot.vc list;
  v_decoder : int array;
  v_app_done : bool;
  v_held : (int array * Messages.color array) option;
  v_last : Snapshot.vc option;
  v_last_seq : int;
}

type dd_mon = {
  d_queue : Snapshot.dd list;
  d_app_done : bool;
  d_color : Messages.color;
  d_g : int;
  d_next_red : int option;
  d_has_token : bool;
  d_tentative : int option;
  d_deps : Dependence.t list;
  d_polling : bool;
  d_last_seq : int;
}

type algo = Vc of vc_mon | Dd of dd_mon

type wd_state = {
  w_seq : int;
  w_dst : int;
  w_probes : int;
  w_bits : int;
  w_payload : Messages.t;
}

type t = {
  proc : int;
  algo : algo;
  transport : Messages.t Wcp_sim.Transport.state;
  watchdog : wd_state option;
}

let equal (a : t) (b : t) = a = b

(* --- Encoder ------------------------------------------------------ *)

(* The stream is whitespace-separated integers after the version
   header: every structured value flattens to tags, lengths and
   fields. No floats anywhere — monitor state is exact, so a decoded
   checkpoint reproduces the captured state bit for bit. *)

let eint b n =
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int n)

let ebool b v = eint b (if v then 1 else 0)

let ecolor b = function Messages.Red -> eint b 0 | Messages.Green -> eint b 1

let eopt f b = function
  | None -> eint b 0
  | Some v ->
      eint b 1;
      f b v

let earr f b a =
  eint b (Array.length a);
  Array.iter (f b) a

let elist f b l =
  eint b (List.length l);
  List.iter (f b) l

let eiarr b a = earr eint b a

let esnap_vc b (s : Snapshot.vc) =
  eint b s.Snapshot.state;
  eiarr b s.Snapshot.clock

let edep b (d : Dependence.t) =
  eint b d.Dependence.src;
  eint b d.Dependence.clock

let esnap_dd b (s : Snapshot.dd) =
  eint b s.Snapshot.state;
  elist edep b s.Snapshot.deps

let etag b = function
  | Messages.Vc_tag v ->
      eint b 0;
      eiarr b v
  | Messages.Dd_tag { src; clock } ->
      eint b 1;
      eint b src;
      eint b clock

let rec emsg b = function
  | Messages.App_msg { msg_id } ->
      eint b 0;
      eint b msg_id
  | Messages.App_data { tag; kind; data } ->
      eint b 1;
      etag b tag;
      eint b kind;
      eint b data
  | Messages.Snap_vc s ->
      eint b 2;
      esnap_vc b s
  | Messages.Snap_vc_delta { state; delta } ->
      eint b 3;
      eint b state;
      eiarr b delta
  | Messages.Snap_dd s ->
      eint b 4;
      esnap_dd b s
  | Messages.Snap_dd_packed { state; deps } ->
      eint b 5;
      eint b state;
      eiarr b deps
  | Messages.Snap_gcp { state; clock; counts } ->
      eint b 6;
      eint b state;
      eiarr b clock;
      eiarr b counts
  | Messages.App_done -> eint b 7
  | Messages.Vc_token { seq; g; color } ->
      eint b 8;
      eint b seq;
      eiarr b g;
      earr ecolor b color
  | Messages.Group_token { seq; g; color; group } ->
      eint b 9;
      eint b seq;
      eiarr b g;
      earr ecolor b color;
      eint b group
  | Messages.Group_return { seq; g; color; group } ->
      eint b 10;
      eint b seq;
      eiarr b g;
      earr ecolor b color;
      eint b group
  | Messages.Dd_token { seq } ->
      eint b 11;
      eint b seq
  | Messages.Poll { clock; next_red } ->
      eint b 12;
      eint b clock;
      eopt eint b next_red
  | Messages.Poll_reply { became_red } ->
      eint b 13;
      ebool b became_red
  | Messages.Wd_probe { seq } ->
      eint b 14;
      eint b seq
  | Messages.Wd_reply { seq; received; holding } ->
      eint b 15;
      eint b seq;
      ebool b received;
      ebool b holding
  | Messages.Frame f -> (
      eint b 16;
      match f with
      | Wcp_sim.Transport.Data { seq; payload } ->
          eint b 0;
          eint b seq;
          emsg b payload
      | Wcp_sim.Transport.Ack { cum; era } ->
          eint b 1;
          eint b cum;
          eint b era
      | Wcp_sim.Transport.Reconnect { expected; era } ->
          eint b 2;
          eint b expected;
          eint b era)

let evc_mon b m =
  elist esnap_vc b m.v_queue;
  eiarr b m.v_decoder;
  ebool b m.v_app_done;
  eopt
    (fun b (g, color) ->
      eiarr b g;
      earr ecolor b color)
    b m.v_held;
  eopt esnap_vc b m.v_last;
  eint b m.v_last_seq

let edd_mon b m =
  elist esnap_dd b m.d_queue;
  ebool b m.d_app_done;
  ecolor b m.d_color;
  eint b m.d_g;
  eopt eint b m.d_next_red;
  ebool b m.d_has_token;
  eopt eint b m.d_tentative;
  elist edep b m.d_deps;
  ebool b m.d_polling;
  eint b m.d_last_seq

(* Tags 1 and 3 are unassigned: the two variants keep the numbers
   they have always had on the wire. *)
let ealgo b = function
  | Vc m ->
      eint b 0;
      evc_mon b m
  | Dd m ->
      eint b 2;
      edd_mon b m

let etx b (s : Messages.t Wcp_sim.Transport.tx_state) =
  eint b s.Wcp_sim.Transport.tx_dst;
  eint b s.tx_next_seq;
  eint b s.tx_base;
  eint b s.tx_era;
  elist
    (fun b (seq, payload, bits) ->
      eint b seq;
      eint b bits;
      emsg b payload)
    b s.tx_frames

let erx b (s : Wcp_sim.Transport.rx_state) =
  eint b s.Wcp_sim.Transport.rx_src;
  eint b s.rx_expected;
  eint b s.rx_era

let ewd b w =
  eint b w.w_seq;
  eint b w.w_dst;
  eint b w.w_probes;
  eint b w.w_bits;
  emsg b w.w_payload

let encode t =
  let b = Buffer.create 256 in
  Buffer.add_string b version;
  eint b t.proc;
  ealgo b t.algo;
  elist etx b t.transport.Wcp_sim.Transport.st_txs;
  elist erx b t.transport.Wcp_sim.Transport.st_rxs;
  eopt ewd b t.watchdog;
  Buffer.contents b

(* --- Decoder ------------------------------------------------------ *)

type reader = { toks : string array; mutable pos : int }

let fail msg = failwith ("Checkpoint.decode: " ^ msg)

let next r =
  if r.pos >= Array.length r.toks then fail "truncated checkpoint"
  else begin
    let t = r.toks.(r.pos) in
    r.pos <- r.pos + 1;
    t
  end

let dint r =
  let t = next r in
  match int_of_string_opt t with
  | Some n -> n
  | None -> fail (Printf.sprintf "expected an integer, got %S" t)

let dbool r =
  match dint r with
  | 0 -> false
  | 1 -> true
  | n -> fail (Printf.sprintf "expected a boolean, got %d" n)

let dcolor r =
  match dint r with
  | 0 -> Messages.Red
  | 1 -> Messages.Green
  | n -> fail (Printf.sprintf "bad color tag %d" n)

let dopt f r = match dint r with 0 -> None | _ -> Some (f r)

let dlen r =
  let n = dint r in
  if n < 0 then fail (Printf.sprintf "negative length %d" n);
  n

let darr f r = Array.init (dlen r) (fun _ -> f r)

let dlist f r = List.init (dlen r) (fun _ -> f r)

let diarr r = darr dint r

let dsnap_vc r =
  let state = dint r in
  { Snapshot.state; clock = diarr r }

let ddep r =
  let src = dint r in
  { Dependence.src; clock = dint r }

let dsnap_dd r =
  let state = dint r in
  { Snapshot.state; deps = dlist ddep r }

let dtag r =
  match dint r with
  | 0 -> Messages.Vc_tag (diarr r)
  | 1 ->
      let src = dint r in
      Messages.Dd_tag { src; clock = dint r }
  | n -> fail (Printf.sprintf "bad tag variant %d" n)

let rec dmsg r =
  match dint r with
  | 0 -> Messages.App_msg { msg_id = dint r }
  | 1 ->
      let tag = dtag r in
      let kind = dint r in
      Messages.App_data { tag; kind; data = dint r }
  | 2 -> Messages.Snap_vc (dsnap_vc r)
  | 3 ->
      let state = dint r in
      Messages.Snap_vc_delta { state; delta = diarr r }
  | 4 -> Messages.Snap_dd (dsnap_dd r)
  | 5 ->
      let state = dint r in
      Messages.Snap_dd_packed { state; deps = diarr r }
  | 6 ->
      let state = dint r in
      let clock = diarr r in
      Messages.Snap_gcp { state; clock; counts = diarr r }
  | 7 -> Messages.App_done
  | 8 ->
      let seq = dint r in
      let g = diarr r in
      Messages.Vc_token { seq; g; color = darr dcolor r }
  | 9 ->
      let seq = dint r in
      let g = diarr r in
      let color = darr dcolor r in
      Messages.Group_token { seq; g; color; group = dint r }
  | 10 ->
      let seq = dint r in
      let g = diarr r in
      let color = darr dcolor r in
      Messages.Group_return { seq; g; color; group = dint r }
  | 11 -> Messages.Dd_token { seq = dint r }
  | 12 ->
      let clock = dint r in
      Messages.Poll { clock; next_red = dopt dint r }
  | 13 -> Messages.Poll_reply { became_red = dbool r }
  | 14 -> Messages.Wd_probe { seq = dint r }
  | 15 ->
      let seq = dint r in
      let received = dbool r in
      Messages.Wd_reply { seq; received; holding = dbool r }
  | 16 -> (
      match dint r with
      | 0 ->
          let seq = dint r in
          Messages.Frame (Wcp_sim.Transport.Data { seq; payload = dmsg r })
      | 1 ->
          let cum = dint r in
          Messages.Frame (Wcp_sim.Transport.Ack { cum; era = dint r })
      | 2 ->
          let expected = dint r in
          Messages.Frame (Wcp_sim.Transport.Reconnect { expected; era = dint r })
      | n -> fail (Printf.sprintf "bad frame variant %d" n))
  | n -> fail (Printf.sprintf "bad message variant %d" n)

let dvc_mon r =
  let v_queue = dlist dsnap_vc r in
  let v_decoder = diarr r in
  let v_app_done = dbool r in
  let v_held =
    dopt
      (fun r ->
        let g = diarr r in
        (g, darr dcolor r))
      r
  in
  let v_last = dopt dsnap_vc r in
  { v_queue; v_decoder; v_app_done; v_held; v_last; v_last_seq = dint r }

let ddd_mon r =
  let d_queue = dlist dsnap_dd r in
  let d_app_done = dbool r in
  let d_color = dcolor r in
  let d_g = dint r in
  let d_next_red = dopt dint r in
  let d_has_token = dbool r in
  let d_tentative = dopt dint r in
  let d_deps = dlist ddep r in
  let d_polling = dbool r in
  {
    d_queue;
    d_app_done;
    d_color;
    d_g;
    d_next_red;
    d_has_token;
    d_tentative;
    d_deps;
    d_polling;
    d_last_seq = dint r;
  }

let dalgo r =
  match dint r with
  | 0 -> Vc (dvc_mon r)
  | 2 -> Dd (ddd_mon r)
  | n -> fail (Printf.sprintf "bad algo variant %d" n)

let dtx r =
  let tx_dst = dint r in
  let tx_next_seq = dint r in
  let tx_base = dint r in
  let tx_era = dint r in
  let tx_frames =
    dlist
      (fun r ->
        let seq = dint r in
        let bits = dint r in
        (seq, dmsg r, bits))
      r
  in
  { Wcp_sim.Transport.tx_dst; tx_next_seq; tx_base; tx_frames; tx_era }

let drx r =
  let rx_src = dint r in
  let rx_expected = dint r in
  { Wcp_sim.Transport.rx_src; rx_expected; rx_era = dint r }

let dwd r =
  let w_seq = dint r in
  let w_dst = dint r in
  let w_probes = dint r in
  let w_bits = dint r in
  { w_seq; w_dst; w_probes; w_bits; w_payload = dmsg r }

let decode s =
  let toks =
    String.split_on_char ' ' s
    |> List.filter (fun t -> t <> "")
    |> Array.of_list
  in
  let r = { toks; pos = 0 } in
  let v = next r in
  if v <> version then fail (Printf.sprintf "unsupported version %S" v);
  let proc = dint r in
  let algo = dalgo r in
  let st_txs = dlist dtx r in
  let st_rxs = dlist drx r in
  let watchdog = dopt dwd r in
  if r.pos <> Array.length r.toks then fail "trailing garbage";
  { proc; algo; transport = { Wcp_sim.Transport.st_txs; st_rxs }; watchdog }
