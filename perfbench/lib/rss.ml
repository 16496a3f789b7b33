let reset_peak () =
  match open_out_gen [ Open_wronly ] 0 "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
          close_out_noerr oc;
          false)

let status_kb field =
  let prefix = field ^ ":" in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.starts_with ~prefix l ->
            let rest =
              String.sub l (String.length prefix)
                (String.length l - String.length prefix)
            in
            Scanf.sscanf_opt rest " %d" Fun.id
        | _ -> find ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) find

let peak_kb () = status_kb "VmHWM"
