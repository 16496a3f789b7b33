open Wcp_trace
open Wcp_util
open Wcp_sim

type proc_state = {
  mutable dst_monitor : int option;  (* cleared once App_done is sent *)
  mutable script : Computation.op list;
  mutable pending_snaps : (int * Messages.t) list;
  mutable state_index : int;
  buffered : (int, unit) Hashtbl.t;  (* application messages arrived early *)
  mutable blocked : bool;  (* current op is a receive we cannot satisfy yet *)
}

let think = 0.3

let install engine comp ~net ?app_bits ~snapshots ~snapshot_dst ~spec_width ()
    =
  let n = Computation.n comp in
  let app_bits =
    match app_bits with
    | Some f -> f
    | None ->
        fun msg_id ->
          Messages.bits ~spec_width (Messages.App_msg { msg_id })
  in
  let emit_snapshot ctx st =
    match (st.dst_monitor, st.pending_snaps) with
    | Some dst, (s, msg) :: rest when s = st.state_index ->
        st.pending_snaps <- rest;
        net.Run_common.send ctx ~bits:(Messages.bits ~spec_width msg) ~dst msg
    | _ -> ()
  in
  let enter_next_state ctx st =
    st.state_index <- st.state_index + 1;
    emit_snapshot ctx st
  in
  (* Execute script operations until blocked on a receive or done. *)
  let rec step ctx st =
    match st.script with
    | [] -> (
        match st.dst_monitor with
        | Some dst ->
            st.dst_monitor <- None;
            net.Run_common.send ctx
              ~bits:(Messages.bits ~spec_width Messages.App_done)
              ~dst Messages.App_done
        | None -> ())
    | Computation.Send { dst; msg } :: rest ->
        let delay = Rng.exponential (Engine.rng ctx) ~mean:think in
        Engine.schedule ctx ~delay (fun ctx ->
            net.Run_common.send ctx ~bits:(app_bits msg) ~dst
              (Messages.App_msg { msg_id = msg });
            st.script <- rest;
            enter_next_state ctx st;
            step ctx st)
    | Computation.Recv { msg } :: rest ->
        if Hashtbl.mem st.buffered msg then begin
          Hashtbl.remove st.buffered msg;
          st.script <- rest;
          enter_next_state ctx st;
          step ctx st
        end
        else st.blocked <- true
  in
  let on_message st ctx ~src:_ msg =
    match msg with
    | Messages.App_msg { msg_id } ->
        Hashtbl.replace st.buffered msg_id ();
        Engine.note_space ctx (Hashtbl.length st.buffered);
        if st.blocked then begin
          match st.script with
          | Computation.Recv { msg } :: _ when Hashtbl.mem st.buffered msg ->
              st.blocked <- false;
              step ctx st
          | _ -> ()
        end
    | _ -> failwith "App_replay: application received a monitor message"
  in
  for p = 0 to n - 1 do
    let st =
      {
        dst_monitor = snapshot_dst p;
        script = Computation.ops comp p;
        pending_snaps = snapshots p;
        state_index = 1;
        buffered = Hashtbl.create 16;
        blocked = false;
      }
    in
    net.Run_common.set_handler p (on_message st);
    Engine.schedule_initial engine ~proc:p ~at:0.0 (fun ctx ->
        emit_snapshot ctx st;
        step ctx st)
  done

let vc ~delta ~dst comp spec engine net =
  install engine comp ~net
    ?app_bits:(if delta then Some (Wire.replay_app_bits comp spec) else None)
    ~snapshots:(fun p ->
      if Spec.mem spec p then Wire.encoded_stream ~delta comp spec ~proc:p
      else [])
    ~snapshot_dst:(fun p -> if Spec.mem spec p then Some (dst p) else None)
    ~spec_width:(Spec.width spec) ()
