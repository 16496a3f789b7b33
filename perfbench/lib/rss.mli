(** This process's resident-set size, from Linux [/proc/self]. *)

val reset_peak : unit -> bool
(** Write [5] to [/proc/self/clear_refs], which resets the
    high-water mark ([VmHWM]) to the current resident size, so a
    later {!peak_kb} covers only what came after. [false] where the
    kernel refuses (the mark then still covers the whole process). *)

val peak_kb : unit -> int option
(** [VmHWM]: the resident high-water mark, in KiB. *)
