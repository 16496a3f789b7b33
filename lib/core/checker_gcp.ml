open Wcp_trace
open Wcp_sim

type candidate = { state : int; clock : int array; counts : int array }

let detect ?network ?recorder ~seed ~channels comp spec =
  let n = Computation.n comp in
  let holds =
    List.map
      (fun cp ->
        match Gcp.count_based cp with
        | Some f -> f
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Checker_gcp: %s is not a counting predicate" (Gcp.name cp)))
      channels
    |> Array.of_list
  in
  let endpoints = Array.of_list (List.map Gcp.endpoints channels) in
  Array.iter
    (fun (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        invalid_arg "Checker_gcp: channel endpoint out of range")
    endpoints;
  let forced = Array.of_list (List.map Gcp.forced_endpoint channels) in
  let names = Array.of_list (List.map Gcp.name channels) in
  (* At a full, pairwise-concurrent candidate cut, find a violated
     channel predicate and eliminate its forced endpoint. *)
  let channel_eliminate ctx el =
    let cand p = Option.get (Elimination.candidate el p) in
    let rec scan c =
      if c = Array.length endpoints then false
      else begin
        Engine.charge_work ctx 1;
        let s, d = endpoints.(c) in
        let in_flight = (cand s).counts.(c) - (cand d).counts.(c) in
        if holds.(c) in_flight then scan (c + 1)
        else begin
          (match Engine.recorder_of ctx with
          | None -> ()
          | Some r ->
              Wcp_obs.Recorder.emit r ~time:(Engine.time ctx)
                ~proc:(Engine.self ctx)
                (Wcp_obs.Event.Channel_eliminated
                   {
                     channel = names.(c);
                     victim_proc = forced.(c);
                     victim_state = (cand forced.(c)).state;
                   }));
          Elimination.eliminate el forced.(c);
          true
        end
      end
    in
    scan 0
  in
  let checker = Run_common.extra_id ~n in
  let channel_pairs = Array.to_list endpoints in
  Checker_centralized.run ?network ?recorder ~seed ~algo:"gcp"
    ~procs:(Array.init n Fun.id)
    ~words:(n + Array.length endpoints + 1)
    ~state:(fun c -> c.state)
    ~clock:(fun c -> c.clock)
    ~decode:(fun _ -> function
      | Messages.Snap_gcp { state; clock; counts } -> { state; clock; counts }
      | _ -> failwith "Checker_gcp: unexpected message")
    ~app:(fun engine net ->
      App_replay.install engine comp ~net
        ~snapshots:(fun p ->
          List.map
            (fun (state, clock, counts) ->
              (state, Messages.Snap_gcp { state; clock; counts }))
            (Snapshot.gcp_stream comp spec ~channels:channel_pairs ~proc:p))
        ~snapshot_dst:(fun _ -> Some checker)
        ~spec_width:n ())
    ~on_full:channel_eliminate comp
