(** Versioned, serializable monitor checkpoints (DESIGN.md recovery
    model).

    A checkpoint is everything one monitor process needs to resume
    after a {!Wcp_sim.Fault.Restart}: its per-algorithm detector
    state, the {!Wcp_sim.Transport} flow state of every link it
    touches (send/receive cursors plus the retransmission buffer), and
    its armed {!Watchdog} lease, if any.

    The wire form is the version header ["wcp-ckpt/1"] followed by a
    whitespace-separated stream of integers — every structured value
    flattens to tags, lengths and fields, and there are no floats, so
    [decode (encode t)] reproduces [t] exactly (QCheck-pinned in the
    test suite).

    Capture discipline ({!Run_common.install_monitors}): a restarting
    monitor is checkpointed before the run and {e after} every message
    it handles, the injected start token included. A restore is
    therefore an exact state transfer — the checkpoint equals the
    post-message state, nothing is re-executed, and the transport
    reconnect handshake replays only frames the restored state has
    genuinely not consumed. *)

open Wcp_clocks

val version : string
(** ["wcp-ckpt/1"]. *)

(** Monitor state of the Fig. 3 monitor ({!Token_vc}, and so also a
    group monitor of {!Token_multi} — the group is static
    configuration, not state). *)
type vc_mon = {
  v_queue : Snapshot.vc list;  (** pending candidates, FIFO order *)
  v_decoder : int array;  (** delta-snapshot channel cache *)
  v_app_done : bool;
  v_held : (int array * Messages.color array) option;
      (** token parked here awaiting a candidate *)
  v_last : Snapshot.vc option;  (** last candidate consumed *)
  v_last_seq : int;  (** highest token hop accepted *)
}

(** Monitor state of the direct-dependence algorithm ({!Token_dd}). *)
type dd_mon = {
  d_queue : Snapshot.dd list;
  d_app_done : bool;
  d_color : Messages.color;
  d_g : int;
  d_next_red : int option;
  d_has_token : bool;
  d_tentative : int option;
  d_deps : Dependence.t list;  (** discovered, not yet polled *)
  d_polling : bool;
  d_last_seq : int;
}

type algo = Vc of vc_mon | Dd of dd_mon

(** An armed watchdog lease: the watched hop, its destination, probes
    burned so far, and the exact token bytes to regenerate ([w_bits]
    is the originally charged wire size — a resend re-ships the same
    bytes). The resend {e closure} is not serializable; the restoring
    detector rebuilds one from [w_payload]. *)
type wd_state = {
  w_seq : int;
  w_dst : int;
  w_probes : int;
  w_bits : int;
  w_payload : Messages.t;
}

type t = {
  proc : int;  (** engine id of the checkpointed monitor *)
  algo : algo;
  transport : Messages.t Wcp_sim.Transport.state;
  watchdog : wd_state option;
}

val encode : t -> string

val decode : string -> t
(** @raise Failure on a malformed or version-mismatched stream. *)

val equal : t -> t -> bool
(** Structural equality (the codec round-trip invariant). *)
