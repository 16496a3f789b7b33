let min_beyond = 10

let check_pct pct =
  if pct < 1 || pct > 99 then invalid_arg "Stats: percentile outside 1..99"

(* 1-based nearest rank in integer arithmetic: in floats,
   [ceil (0.9 *. 100.)] is 91, which would cost p90 its tenth sample. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

let beyond ~pct n = n - rank ~pct n

let samples_for ~pct =
  check_pct pct;
  let rec go n = if beyond ~pct n >= min_beyond then n else go (n + 1) in
  go 1

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile ~pct xs =
  check_pct pct;
  let n = Array.length xs in
  if beyond ~pct n < min_beyond then
    Error
      (Printf.sprintf "p%d refused: %d samples leave %d beyond it, need %d" pct
         n
         (max 0 (beyond ~pct n))
         min_beyond)
  else Ok (sorted xs).(rank ~pct n - 1)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let rate ~events ~seconds =
  if not (seconds > 0.) then invalid_arg "Stats.rate: no timed seconds";
  float_of_int events /. seconds

let line ~name ~unit ~count v =
  Printf.sprintf "%-36s %16.6f %-9s (n=%d)" name v unit count
