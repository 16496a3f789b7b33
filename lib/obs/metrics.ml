(* Run metrics derived from a recorded event log: see metrics.mli. *)

(* Power-of-two buckets: bucket [i] holds observations [v] with
   [2^(i - bucket_offset - 1) < v <= 2^(i - bucket_offset)], so the
   resolution is a factor of two anywhere on the axis. Bucket 0
   additionally absorbs zero and negative observations. *)
type histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let num_buckets = 64

let bucket_offset = 24 (* buckets reach down to 2^-25: sub-microsecond *)

let histogram () =
  {
    buckets = Array.make num_buckets 0;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let bucket_of v =
  if v <= 0.0 then 0
  else
    let e = snd (Float.frexp v) in
    (* v in (2^(e-1), 2^e]; frexp returns e with v = m * 2^e, and for
       exact powers of two m = 0.5, so the upper bound is inclusive. *)
    max 0 (min (num_buckets - 1) (e + bucket_offset))

let bucket_upper i =
  if i = 0 then 0.0 else Float.ldexp 1.0 (i - bucket_offset)

let observe h v =
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let hist_max h = if h.count = 0 then 0.0 else h.max_v

let hist_min h = if h.count = 0 then 0.0 else h.min_v

let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

(* Quantile from the bucket cumulative counts: the reported value is
   the upper bound of the bucket holding the q-th observation, clamped
   into the exact observed range — within 2x of the true quantile by
   construction, and exact at the extremes. *)
let quantile h q =
  if h.count = 0 then 0.0
  else if q <= 0.0 then hist_min h
  else if q >= 1.0 then hist_max h
  else begin
    let rank = int_of_float (ceil (q *. float_of_int h.count)) in
    let rank = max 1 (min h.count rank) in
    let cum = ref 0 and bucket = ref (num_buckets - 1) in
    (try
       for i = 0 to num_buckets - 1 do
         cum := !cum + h.buckets.(i);
         if !cum >= rank then begin
           bucket := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min h.max_v (Float.max h.min_v (bucket_upper !bucket))
  end

type summary = {
  hop_latency : histogram;
  elims_per_hop : histogram;
  eliminations : int;
  hops : int;
  polls : int;
  retransmits : int;
  regenerations : int;
  rounds : int;
}

let of_events events =
  let hop_latency = histogram () and elims_per_hop = histogram () in
  Array.iter (observe hop_latency)
    (Span.durations Span.Token (Span.of_events events));
  let eliminations = ref 0 and hops = ref 0 and polls = ref 0 in
  let retransmits = ref 0 and regenerations = ref 0 and rounds = ref 0 in
  let elims_since_hop = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      if Event.is_elimination e.body then begin
        incr eliminations;
        incr elims_since_hop
      end;
      match e.body with
      | Event.Token_regenerated _ -> incr regenerations
      | Event.Token_received _ ->
          incr hops;
          observe elims_per_hop (float_of_int !elims_since_hop);
          elims_since_hop := 0
      | Event.Poll_sent _ -> incr polls
      | Event.Retransmitted _ -> incr retransmits
      | Event.Round_advanced _ -> incr rounds
      | _ -> ())
    events;
  {
    hop_latency;
    elims_per_hop;
    eliminations = !eliminations;
    hops = !hops;
    polls = !polls;
    retransmits = !retransmits;
    regenerations = !regenerations;
    rounds = !rounds;
  }

let pp ppf s =
  let count name v = Format.fprintf ppf "%-28s %d@." name v in
  let hist name h =
    Format.fprintf ppf "%-28s n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f@."
      name h.count (mean h) (quantile h 0.5) (quantile h 0.95) (hist_max h)
  in
  count "parallel_rounds" s.rounds;
  count "token_regenerations" s.regenerations;
  count "retransmits" s.retransmits;
  count "polls" s.polls;
  count "token_hops" s.hops;
  count "eliminations" s.eliminations;
  hist "eliminations_per_hop" s.elims_per_hop;
  hist "token_hop_latency" s.hop_latency
