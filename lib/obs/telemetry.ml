(* Sliding-window telemetry over a live event stream. Window
   boundaries are sim-time multiples of [every]; an incoming event
   whose timestamp has crossed the current boundary first closes (and
   emits) every window it skipped, so the stream has one line per
   interval regardless of event density. All aggregation keys off the
   event stream alone — no wall clock, no RNG — which is what makes
   the stream byte-deterministic for a fixed seed. *)

let schema = "wcp-metrics/1"

let default_every = 5.0

(* ------------------------------------------------------------------ *)
(* Stream line types and codec                                         *)
(* ------------------------------------------------------------------ *)

type window = {
  idx : int;
  t0 : float;
  t1 : float;
  events : int;
  elims : int;
  hops : int;
  polls : int;
  snapshots : int;
  retx : int;
  probes : int;
  regens : int;
  ckpts : int;
  restores : int;
  replays : int;
  stand_downs : int;
  hop_p50 : float;
  hop_p95 : float;
  cum_events : int;
  cum_elims : int;
  cum_retx : int;
  cum_regens : int;
  cum_ckpts : int;
  cum_stand_downs : int;
}

type phase = {
  phase : string;
  p_t0 : float;
  p_t1 : float;
  alloc_bytes : int;
  p_events : int;
}

type line =
  | Meta of { algo : string; n : int; width : int; every : float }
  | Window of window
  | Phase of phase
  | Total of { windows : int; events : int; elims : int; hops : int;
               phases : int }

let equal_line (a : line) (b : line) = a = b

open Export.Json

let to_json = function
  | Meta { algo; n; width; every } ->
      Obj
        [
          ("schema", Str schema);
          ("type", Str "meta");
          ("algo", Str algo);
          ("n", Int n);
          ("width", Int width);
          ("every", Float every);
        ]
  | Window w ->
      Obj
        [
          ("type", Str "window");
          ("idx", Int w.idx);
          ("t0", Float w.t0);
          ("t1", Float w.t1);
          ("events", Int w.events);
          ("elims", Int w.elims);
          ("hops", Int w.hops);
          ("polls", Int w.polls);
          ("snaps", Int w.snapshots);
          ("retx", Int w.retx);
          ("probes", Int w.probes);
          ("regens", Int w.regens);
          ("ckpts", Int w.ckpts);
          ("restores", Int w.restores);
          ("replays", Int w.replays);
          ("wd_stand_downs", Int w.stand_downs);
          ("hop_p50", Float w.hop_p50);
          ("hop_p95", Float w.hop_p95);
          ("cum_events", Int w.cum_events);
          ("cum_elims", Int w.cum_elims);
          ("cum_retx", Int w.cum_retx);
          ("cum_regens", Int w.cum_regens);
          ("cum_ckpts", Int w.cum_ckpts);
          ("cum_wd_stand_downs", Int w.cum_stand_downs);
        ]
  | Phase p ->
      Obj
        [
          ("type", Str "phase");
          ("name", Str p.phase);
          ("t0", Float p.p_t0);
          ("t1", Float p.p_t1);
          ("alloc_bytes", Int p.alloc_bytes);
          ("events", Int p.p_events);
        ]
  | Total { windows; events; elims; hops; phases } ->
      Obj
        [
          ("type", Str "total");
          ("windows", Int windows);
          ("events", Int events);
          ("elims", Int elims);
          ("hops", Int hops);
          ("phases", Int phases);
        ]

(* Window lines are the stream's per-interval steady-state cost, so
   they bypass the generic [Json.emit] (which builds a 24-pair [Obj]
   per line) for direct buffer writes. The bytes are identical — a
   QCheck property pins [encode_line l = to_string (to_json l)] for
   every line shape. [buf] is the caller's: each tap owns one, so taps
   on different domains never share a buffer. *)
let encode_window buf w =
  Buffer.clear buf;
  let int k v =
    Buffer.add_string buf k;
    add_int buf v
  in
  let flt k v =
    Buffer.add_string buf k;
    add_float buf v
  in
  int {|{"type":"window","idx":|} w.idx;
  flt {|,"t0":|} w.t0;
  flt {|,"t1":|} w.t1;
  int {|,"events":|} w.events;
  int {|,"elims":|} w.elims;
  int {|,"hops":|} w.hops;
  int {|,"polls":|} w.polls;
  int {|,"snaps":|} w.snapshots;
  int {|,"retx":|} w.retx;
  int {|,"probes":|} w.probes;
  int {|,"regens":|} w.regens;
  int {|,"ckpts":|} w.ckpts;
  int {|,"restores":|} w.restores;
  int {|,"replays":|} w.replays;
  int {|,"wd_stand_downs":|} w.stand_downs;
  flt {|,"hop_p50":|} w.hop_p50;
  flt {|,"hop_p95":|} w.hop_p95;
  int {|,"cum_events":|} w.cum_events;
  int {|,"cum_elims":|} w.cum_elims;
  int {|,"cum_retx":|} w.cum_retx;
  int {|,"cum_regens":|} w.cum_regens;
  int {|,"cum_ckpts":|} w.cum_ckpts;
  int {|,"cum_wd_stand_downs":|} w.cum_stand_downs;
  Buffer.add_char buf '}';
  Buffer.contents buf

let encode_line = function
  | Window w -> encode_window (Buffer.create 512) w
  | l -> to_string (to_json l)

let of_json j =
  let i name = to_int (member name j) in
  let f name = to_float (member name j) in
  let s name = to_str (member name j) in
  match s "type" with
  | "meta" ->
      let sc = s "schema" in
      if sc <> schema then error "schema %S, expected %S" sc schema;
      Meta { algo = s "algo"; n = i "n"; width = i "width"; every = f "every" }
  | "window" ->
      Window
        {
          idx = i "idx";
          t0 = f "t0";
          t1 = f "t1";
          events = i "events";
          elims = i "elims";
          hops = i "hops";
          polls = i "polls";
          snapshots = i "snaps";
          retx = i "retx";
          probes = i "probes";
          regens = i "regens";
          ckpts = i "ckpts";
          restores = i "restores";
          replays = i "replays";
          stand_downs = i "wd_stand_downs";
          hop_p50 = f "hop_p50";
          hop_p95 = f "hop_p95";
          cum_events = i "cum_events";
          cum_elims = i "cum_elims";
          cum_retx = i "cum_retx";
          cum_regens = i "cum_regens";
          cum_ckpts = i "cum_ckpts";
          cum_stand_downs = i "cum_wd_stand_downs";
        }
  | "phase" ->
      Phase
        {
          phase = s "name";
          p_t0 = f "t0";
          p_t1 = f "t1";
          alloc_bytes = i "alloc_bytes";
          p_events = i "events";
        }
  | "total" ->
      Total
        {
          windows = i "windows";
          events = i "events";
          elims = i "elims";
          hops = i "hops";
          phases = i "phases";
        }
  | k -> error "unknown line type %S" k

let decode_line line =
  match of_json (parse line) with
  | l -> Ok l
  | exception Error m -> Result.Error m
  | exception Failure m -> Result.Error m

let decode src =
  let lines = String.split_on_char '\n' src in
  let rec go lineno acc = function
    | [] | [ "" ] -> Ok (List.rev acc)
    | line :: rest -> (
        match decode_line line with
        | Ok l -> go (lineno + 1) (l :: acc) rest
        | Result.Error m -> Result.Error (Printf.sprintf "line %d: %s" lineno m))
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Live aggregation                                                    *)
(* ------------------------------------------------------------------ *)

(* All-float record: flat float storage — no boxing, no write barrier —
   for the two floats the feed path touches on every event. *)
type hot = { mutable wt1 : float; mutable last : float }

(* Field order matters: [feed] runs between engine events with a cold
   cache, so everything it touches per event (the closed flag, the
   window accumulators, the [hot] cell) sits at the front of the
   record, packed into as few cache lines as possible; the per-window
   and per-phase machinery follows. *)
type t = {
  mutable closed : bool;
  mutable w_events : int;
  hot : hot;
  mutable w_elims : int;
  mutable w_hops : int;
  mutable w_polls : int;
  mutable w_snaps : int;
  mutable w_retx : int;
  mutable w_probes : int;
  mutable w_regens : int;
  mutable w_ckpts : int;
  mutable w_restores : int;
  mutable w_replays : int;
  mutable w_wd : int;
  mutable w_lat : float list;  (* window hop latencies, newest first *)
  (* Send time of token [seq], indexed directly: seqs are the dense
     hop counter, so a doubling array beats a hashtable on the hot
     per-hop path. *)
  mutable sent_at : float array;
  h_hop : Metrics.histogram;  (* cumulative, for the Prometheus page *)
  every : float;
  sink : string -> unit;
  window_buf : Buffer.t;  (* scratch for [encode_window] *)
  alloc : unit -> float;
  reg : Metrics.t;
  c_events : Metrics.counter;
  c_elims : Metrics.counter;
  c_hops : Metrics.counter;
  c_polls : Metrics.counter;
  c_snaps : Metrics.counter;
  c_retx : Metrics.counter;
  c_probes : Metrics.counter;
  c_regens : Metrics.counter;
  c_ckpts : Metrics.counter;
  c_restores : Metrics.counter;
  c_replays : Metrics.counter;
  c_wd : Metrics.counter;
  mutable widx : int;
  mutable windows_emitted : int;
  (* open phase *)
  mutable ph_name : string option;
  mutable ph_t0 : float;
  mutable ph_alloc0 : float;
  mutable ph_events0 : int;
  mutable phases_emitted : int;
  mutable lines : int;
}

let create ?(every = default_every) ?(alloc = Gc.allocated_bytes)
    ~sink () =
  if every <= 0.0 then invalid_arg "Telemetry.create: every must be > 0";
  let reg = Metrics.create () in
  {
    closed = false;
    w_events = 0;
    hot = { wt1 = every; last = 0.0 };
    w_elims = 0;
    w_hops = 0;
    w_polls = 0;
    w_snaps = 0;
    w_retx = 0;
    w_probes = 0;
    w_regens = 0;
    w_ckpts = 0;
    w_restores = 0;
    w_replays = 0;
    w_wd = 0;
    w_lat = [];
    sent_at = Array.make 64 nan;
    h_hop = Metrics.histogram reg "token_hop_latency";
    every;
    sink;
    window_buf = Buffer.create 512;
    alloc;
    reg;
    c_events = Metrics.counter reg "events";
    c_elims = Metrics.counter reg "eliminations";
    c_hops = Metrics.counter reg "token_hops";
    c_polls = Metrics.counter reg "polls";
    c_snaps = Metrics.counter reg "snapshots";
    c_retx = Metrics.counter reg "retransmits";
    c_probes = Metrics.counter reg "wd_probes";
    c_regens = Metrics.counter reg "token_regenerations";
    c_ckpts = Metrics.counter reg "checkpoints";
    c_restores = Metrics.counter reg "restores";
    c_replays = Metrics.counter reg "replays";
    c_wd = Metrics.counter reg "wd_stand_downs";
    widx = 0;
    windows_emitted = 0;
    ph_name = None;
    ph_t0 = 0.0;
    ph_alloc0 = 0.0;
    ph_events0 = 0;
    phases_emitted = 0;
    lines = 0;
  }

let registry t = t.reg

let prometheus t = Metrics.to_prometheus t.reg

let lines t = t.lines

let send t line =
  t.lines <- t.lines + 1;
  t.sink
    (match line with
    | Window w -> encode_window t.window_buf w
    | l -> encode_line l)

(* The registry counters are flushed from the window accumulators at
   window boundaries (keeping the per-event path to one field
   increment); the live total is the flushed count plus the open
   window. *)
let cum_events t = Metrics.count t.c_events + t.w_events

(* Exact rank quantile of a small sample. *)
let quantile_of q xs =
  match xs with
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let close_window t =
  Metrics.incr ~by:t.w_events t.c_events;
  Metrics.incr ~by:t.w_elims t.c_elims;
  Metrics.incr ~by:t.w_hops t.c_hops;
  Metrics.incr ~by:t.w_polls t.c_polls;
  Metrics.incr ~by:t.w_snaps t.c_snaps;
  Metrics.incr ~by:t.w_retx t.c_retx;
  Metrics.incr ~by:t.w_probes t.c_probes;
  Metrics.incr ~by:t.w_regens t.c_regens;
  Metrics.incr ~by:t.w_ckpts t.c_ckpts;
  Metrics.incr ~by:t.w_restores t.c_restores;
  Metrics.incr ~by:t.w_replays t.c_replays;
  Metrics.incr ~by:t.w_wd t.c_wd;
  let w =
    {
      idx = t.widx;
      t0 = t.hot.wt1 -. t.every;
      t1 = t.hot.wt1;
      events = t.w_events;
      elims = t.w_elims;
      hops = t.w_hops;
      polls = t.w_polls;
      snapshots = t.w_snaps;
      retx = t.w_retx;
      probes = t.w_probes;
      regens = t.w_regens;
      ckpts = t.w_ckpts;
      restores = t.w_restores;
      replays = t.w_replays;
      stand_downs = t.w_wd;
      hop_p50 = quantile_of 0.5 t.w_lat;
      hop_p95 = quantile_of 0.95 t.w_lat;
      cum_events = Metrics.count t.c_events;
      cum_elims = Metrics.count t.c_elims;
      cum_retx = Metrics.count t.c_retx;
      cum_regens = Metrics.count t.c_regens;
      cum_ckpts = Metrics.count t.c_ckpts;
      cum_stand_downs = Metrics.count t.c_wd;
    }
  in
  send t (Window w);
  t.windows_emitted <- t.windows_emitted + 1;
  t.widx <- t.widx + 1;
  t.hot.wt1 <- t.hot.wt1 +. t.every;
  t.w_events <- 0;
  t.w_elims <- 0;
  t.w_hops <- 0;
  t.w_polls <- 0;
  t.w_snaps <- 0;
  t.w_retx <- 0;
  t.w_probes <- 0;
  t.w_regens <- 0;
  t.w_ckpts <- 0;
  t.w_restores <- 0;
  t.w_replays <- 0;
  t.w_wd <- 0;
  t.w_lat <- []

let close_phase t ~at =
  match t.ph_name with
  | None -> ()
  | Some name ->
      let p =
        {
          phase = name;
          p_t0 = t.ph_t0;
          p_t1 = at;
          alloc_bytes = int_of_float (t.alloc () -. t.ph_alloc0);
          p_events = cum_events t - t.ph_events0;
        }
      in
      send t (Phase p);
      t.phases_emitted <- t.phases_emitted + 1;
      t.ph_name <- None

let note_sent t seq time =
  let len = Array.length t.sent_at in
  if seq >= len then begin
    let a = Array.make (max (2 * len) (seq + 1)) nan in
    Array.blit t.sent_at 0 a 0 len;
    t.sent_at <- a
  end;
  t.sent_at.(seq) <- time

let open_phase t ~name ~at =
  t.ph_name <- Some name;
  t.ph_t0 <- at;
  t.ph_alloc0 <- t.alloc ();
  t.ph_events0 <- cum_events t

(* The per-event path. Everything here is a handful of field
   increments: cumulative registry counters are flushed at window
   boundaries (see [close_window]), the elimination test is folded
   into the one body match, and [last_time] lives in an unboxed float
   cell, so an attached plane costs the engine a closure call and some
   integer stores per event. *)
let feed t (e : Event.t) =
  if not t.closed then begin
    (* Close every window the event's timestamp has passed. *)
    while e.time >= t.hot.wt1 do
      close_window t
    done;
    t.hot.last <- e.time;
    t.w_events <- t.w_events + 1;
    match e.body with
    | Event.Vc_advanced _ | Event.Dd_eliminated _ | Event.Hb_eliminated _
    | Event.Channel_eliminated _ ->
        t.w_elims <- t.w_elims + 1
    | Event.Run_meta { algo; n; width } ->
        send t (Meta { algo; n; width; every = t.every })
    | Event.Phase_marked { name } ->
        close_phase t ~at:e.time;
        open_phase t ~name ~at:e.time
    | Event.Token_sent { seq; _ } -> note_sent t seq e.time
    | Event.Token_regenerated { seq; _ } ->
        note_sent t seq e.time;
        t.w_regens <- t.w_regens + 1
    | Event.Token_received { seq } ->
        t.w_hops <- t.w_hops + 1;
        let t0 = if seq < Array.length t.sent_at then t.sent_at.(seq) else nan in
        if not (Float.is_nan t0) then begin
          let d = e.time -. t0 in
          Metrics.observe t.h_hop d;
          t.w_lat <- d :: t.w_lat
        end
    | Event.Poll_sent _ -> t.w_polls <- t.w_polls + 1
    | Event.Snapshot_arrived _ -> t.w_snaps <- t.w_snaps + 1
    | Event.Retransmitted _ -> t.w_retx <- t.w_retx + 1
    | Event.Probe_sent _ -> t.w_probes <- t.w_probes + 1
    | Event.Checkpoint_taken _ -> t.w_ckpts <- t.w_ckpts + 1
    | Event.Restored _ -> t.w_restores <- t.w_restores + 1
    | Event.Replayed _ -> t.w_replays <- t.w_replays + 1
    | Event.Watchdog_stood_down _ -> t.w_wd <- t.w_wd + 1
    | _ -> ()
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.w_events > 0 then close_window t;
    close_phase t ~at:t.hot.last;
    send t
      (Total
         {
           windows = t.windows_emitted;
           events = Metrics.count t.c_events;
           elims = Metrics.count t.c_elims;
           hops = Metrics.count t.c_hops;
           phases = t.phases_emitted;
         })
  end

let attach t r = Recorder.attach_tap r (fun e -> feed t e)
