(** Wire-efficiency layer: delta-encoded payloads and encoded-size
    accounting (DESIGN.md wire model).

    Three independent savings over the dense formats, all enabled by
    default and switchable off (for A/B measurement, bench E16) via the
    detectors' [?delta] flag:

    - {b snapshots} — materialised: the application side ships
      {!Messages.Snap_vc_delta} (sparse index/value pairs against the
      previous snapshot on the same process→monitor channel) whenever
      that is strictly smaller than the dense {!Messages.Snap_vc}, and
      the monitor decodes it back with a per-channel cache;
    - {b tokens} — accounted: the token keeps its dense [g]/[color]
      arrays inside the simulation, but each hop is charged the size of
      its encoded form (delta of [g] against the last token shipped on
      the same edge, plus a bit-packed color vector), with the dense
      formula as a floor-less fallback;
    - {b application clock tags} — accounted: replayed application
      messages charge the Singhal–Kshemkalyani delta of their projected
      clock tag against the previous message on the same channel
      (the tag was already account-only, see {!Messages.App_msg}).

    Soundness of a shared base: every channel involved is either FIFO
    by construction (application→monitor on the replay network),
    delivered in-order exactly-once (reliable transport under a fault
    plan), or causally serialised (token edges — a holder cannot
    forward again before the previous hop on that edge was consumed).
    Deltas carry absolute values, so decoding a duplicate (e.g. a
    regenerated token) is idempotent.

    Packed pairs: on the wire each (index, value) delta entry is one
    32-bit word — 10-bit index, 22-bit value — where the dense form
    spends a full word per component. Entries the packed layout cannot
    carry (width over 1024, or a clock component reaching 2^22, both
    far beyond anything this harness can generate) force the dense
    fallback, so the accounting never understates a real wire. *)

open Wcp_trace

val word : int
(** The DESIGN.md accounting word: 32 bits. *)

val packed_color_words : width:int -> int
(** Words needed for a bit-packed color vector: [ceil (width / 32)]. *)

(** {2 Snapshot codec} *)

type snap_encoder
(** Sender-side state of one application→monitor channel: the last
    clock shipped on it (initially all-zero). *)

val snap_encoder : width:int -> snap_encoder

val encode_snap : snap_encoder -> state:int -> int array -> Messages.t
(** Hybrid encode of the snapshot [{state; clock}]: the smaller of
    {!Messages.Snap_vc_delta} and dense {!Messages.Snap_vc} under the
    word accounting. Updates the channel cache either way. *)

type snap_decoder
(** Receiver-side mirror of {!snap_encoder}. *)

val snap_decoder : width:int -> snap_decoder

val decode_snap : snap_decoder -> Messages.t -> Snapshot.vc
(** Decode either snapshot form back to a dense candidate, updating
    the channel cache.
    @raise Invalid_argument on any other message. *)

val decoder_state : snap_decoder -> int array
(** Copy of the decoder's channel cache (the clock of the last
    snapshot decoded), for inclusion in a monitor checkpoint. *)

val restore_decoder : snap_decoder -> int array -> unit
(** Overwrite the channel cache from a checkpoint, so delta snapshots
    replayed after a restore decode against the right base. *)

(** {2 Direct-dependence snapshot codec} *)

val encode_dd : state:int -> Wcp_clocks.Dependence.t list -> Messages.t
(** Hybrid encode of a §4.1 snapshot: {!Messages.Snap_dd_packed} with
    one 10-bit-src/22-bit-clock word per dependence when every
    dependence fits, dense {!Messages.Snap_dd} otherwise. Stateless
    (dependences are absolute), so it needs no channel cache. *)

val decode_dd : Messages.t -> Snapshot.dd
(** Decode either dd-snapshot form back to the dense record.
    @raise Invalid_argument on any other message. *)

val poll_bits : clock:int -> next_red:int option -> int
(** Encoded wire size of a §4 {!Messages.Poll}: one word when the
    scalar clock fits 21 bits and the successor 11 (with a [None]
    sentinel), the dense two words otherwise. Accounting only — polls
    are materialised as {!Messages.Poll} either way. *)

val encoded_stream :
  delta:bool -> Computation.t -> Spec.t -> proc:int -> (int * Messages.t) list
(** The interval-gated {!Snapshot.vc_stream} of a spec process as
    replay-ready [(state, message)] pairs — hybrid-encoded when
    [delta], dense {!Messages.Snap_vc} otherwise. Shared by the
    vc-family detectors. *)

(** {2 Token wire-size meter} *)

type token_meter
(** Per-edge caches for every (holder → next monitor) token edge of one
    detection run. *)

val token_meter : width:int -> token_meter

val dense_token_bits : width:int -> int
(** The unchanged dense token formula, [2 · width] words — the E16
    baseline. *)

val token_bits : token_meter -> src:int -> dst:int -> int array -> int
(** [token_bits meter ~src ~dst g] is the wire size of the token
    carrying cut [g] on edge [(src, dst)]: the delta-plus-packed-colors
    encoding if smaller, the dense formula otherwise. Updates the
    edge cache. A watchdog {e resend} of the same token must re-charge
    the originally computed size (same bytes on the wire), not call
    this again. *)

(** {2 Application-tag accounting} *)

val app_tag_plan : Computation.t -> Spec.t -> int array
(** [app_tag_plan comp spec] prices every application message of the
    recorded computation under delta-encoded clock tags: entry
    [msg_id] is the bits to charge for that {!Messages.App_msg}
    (payload word + encoded tag, never more than the dense
    [word * (1 + width)]). Channels are replayed in sender order,
    matching the FIFO shipping order of the live system. *)

val replay_app_bits : Computation.t -> Spec.t -> int -> int
(** {!app_tag_plan} as a lookup closure, the shape
    {!App_replay.install}'s [?app_bits] expects. *)
