(** Machine-readable benchmark harness.

    Runs the E1-E9 and E15-E22 experiment sweeps as independent jobs
    (fanned out over domains with {!Wcp_util.Parallel}), records one
    row per job, and serialises the lot as a stable JSON document
    suitable for committing as a regression baseline (see
    [BENCH_1.json] and EXPERIMENTS.md, "Machine-readable runs").

    A row carries only the columns its experiment's runner computed.
    Every column except the {!machine_columns} is a deterministic
    function of the job parameters: two runs of the same profile — on
    any machine, at any domain count — agree on them exactly, and
    {!compare_runs} enforces this against a committed baseline. *)

type job = {
  experiment : string;  (** "E1".."E9", "E15".."E22" *)
  algo : string;
      (** a {!Wcp_core.Detectors} name, or "adversary" (E6) *)
  n : int;
  m : int;
  p_pred : float;
  seed : int;
  param : int;
      (** groups (E3), spec width (E5), drop %% (E9), domain count
          (E15, E18's parallel arm), delta flag 0/1 (E16), slice flag
          0/1 (E17), restart flag 0/1 (E19), btrace-streamed flag 0/1
          (E21), [sessions*1000 + domains*10 + mode] with mode 0
          binary / 1 jsonl / 2 slow-client (E22), else 0 *)
}

type row = {
  job : job;
  outcome : string;
      (** "detected" or "none"; for E15, "ok" iff the parallel batch
          was byte-identical to its sequential reference, else
          "mismatch". E17–E22 spell the detected cut out in dense
          coordinates (e.g. ["detected {0:6 1:3}"]), so the baseline
          pins the sliced arm to the dense arm's exact cut (E17), every
          domain count to the centralized checker's cut (E18), the
          crash-recovery arm to the fault-free reference's cut (E19),
          the telemetry-attached arm to the bare one (E20), the
          btrace-streamed replay to the text/dense reference (E21) and
          the served cut to the offline one (E22). *)
  wall_ns : int;  (** machine-dependent *)
  alloc_bytes : int;  (** machine-dependent (GC promotion noise) *)
  cols : (string * Wcp_obs.Export.Json.t) list;
      (** The runner's nonzero columns ([Int] or [Float]) in name
          order; a missing column reads as zero. EXPERIMENTS.md lists
          the columns each experiment carries. *)
}

val row :
  job -> string -> wall_ns:int -> alloc_bytes:int ->
  (string * Wcp_obs.Export.Json.t) list -> row
(** [row job outcome ~wall_ns ~alloc_bytes cols]: drops the zero
    columns and sorts the rest by name. *)

val int_col : row -> string -> int
(** A column's value, 0 when absent. *)

val float_col : row -> string -> float

val machine_columns : string list
(** The wall-clock and GC-state derived columns: [wall_ns],
    [alloc_bytes], [slice_ns], [decode_ns], [peak_words],
    [events_per_sec], [lat_p50_ns] and [lat_p95_ns]. No determinism
    comparison looks at them. *)

type profile = Full | Smoke

val profile_name : profile -> string

val jobs : profile -> job list

val run_job : job -> row
(** Run one job to completion in the calling domain. *)

val run : ?domains:int -> profile -> row array
(** All jobs of the profile, in declaration order, fanned out with
    {!Wcp_util.Parallel.map} ([domains = 1] runs sequentially). The
    deterministic columns do not depend on [domains]. *)

val e15_sessions : int
(** Sessions per E15 throughput batch; sessions/sec for an E15 row is
    [e15_sessions /. (wall_ns / 1e9)]. The batch runs under
    {!Wcp_util.Parallel.map} with [job.param] domains, and its
    per-session summaries are compared against a sequential reference
    run (see [outcome]). *)

val schema : string
(** Document schema tag, ["wcp-bench/11"]; bench_json.ml keeps the
    history of what each version changed. *)

val emit : profile:profile -> row array -> string
(** JSON document, one row per line. *)

val parse_doc : string -> profile * row array
(** @raise Wcp_obs.Export.Json.Error on malformed input or schema
    mismatch. *)

val drift : ?except:string list -> row -> row -> string list
(** The deterministic columns on which two rows differ — a column
    missing on one side counts as zero — plus ["outcome"] when the
    outcomes differ. Skips the {!machine_columns} and [except]. The
    jobs are not compared. *)

val deterministic_equal : row -> row -> bool
(** Same job and no {!drift}. *)

val job_key : job -> string
(** Human-readable identity used to match baseline and current runs. *)

val compare_runs :
  ?tolerance:float -> ?subset:bool -> baseline:row array ->
  current:row array -> unit -> string list
(** Failure lines, empty when [current] reproduces every deterministic
    column of [baseline] and no experiment's total wall time regressed
    by more than [tolerance] (default 0.20). A drifted job's line names
    each differing column with both values. With [~subset:true] the
    coverage direction flips: every [current] job must exist in
    [baseline] (jobs the current run skipped are fine), and wall totals
    count only the jobs the current run executed — the
    [make bench-smoke] mode, checking a smoke run against the committed
    full baseline. *)
