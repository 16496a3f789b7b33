# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench tables bench-json perf-check bench-smoke check chaos-soak recovery-soak trace-check telemetry-check btrace-check serve-check slice-check examples clean

# Committed machine-readable baseline (see EXPERIMENTS.md).
BENCH_BASELINE ?= BENCH_1.json

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

tables:
	dune exec bench/main.exe -- tables

# Regenerate the JSON benchmark baseline (all E1-E8 sweeps, fanned out
# over domains; deterministic fields are domain-count independent).
bench-json:
	dune exec bench/main.exe -- json --out $(BENCH_BASELINE)

# Re-run the sweeps and fail if any deterministic metric drifted from
# the committed baseline, or wall time regressed > 20% per experiment.
perf-check:
	dune exec bench/main.exe -- perf-check $(BENCH_BASELINE)

# Fast wire-regression gate: run the smoke profile (every smoke job is
# also a full job, including a tiny E15/E16/E17 slice) and
# subset-compare it against the committed full baseline. Seconds, not
# minutes.
bench-smoke:
	dune exec bench/main.exe -- json --smoke --seq --out _build/bench-smoke.json
	dune exec bench/main.exe -- perf-check $(BENCH_BASELINE) _build/bench-smoke.json --subset

# Everything a PR should pass: build, tests, the smoke perf gate, and
# the CLI-level store/telemetry/service gates.
check: build test bench-smoke trace-check btrace-check telemetry-check serve-check

# Full chaos matrix (drop rate x size x seed, token-vc + token-dd vs
# the fault-free oracle). A bounded smoke of the same test always runs
# inside `make test`; this target unlocks the whole sweep.
chaos-soak:
	WCP_CHAOS_SOAK=1 dune exec test/test_soak.exe -- test chaos

# Seeded crash/restart loop: every token algorithm under a mid-run
# monitor Restart composed with link loss, across sizes x windows x
# seeds, each run checked against the fault-free oracle. A bounded
# smoke of the same loop always runs inside `make test`; this target
# unlocks the full matrix.
recovery-soak:
	WCP_RECOVERY_SOAK=1 dune exec test/test_recovery.exe -- test soak

# Validate emitted JSONL event logs against the wcp-events/1 schema
# (codec round-trip, run_meta header, seq/time monotonicity, Chrome
# export well-formedness) across the full algorithm x size x seed
# corpus. A bounded smoke of the same validation always runs inside
# `make test`; this target unlocks the whole sweep.
trace-check:
	WCP_TRACE_CHECK=1 dune exec test/test_obs.exe -- test schema

# Telemetry-plane gate. First unlock the full in-process
# stream-validation corpus in test_telemetry (codec totality, window
# invariants, in-process determinism), then prove the wcp-metrics/1
# stream byte-deterministic ACROSS processes: the same trace, seed and
# algorithm through two separate CLI invocations must produce
# byte-identical streams — including the per-phase alloc_bytes profile,
# which is allocation-schedule (not wall-clock) derived. A bounded
# smoke of the in-process half always runs inside `make test`.
telemetry-check:
	WCP_TELEMETRY_CHECK=1 dune exec test/test_telemetry.exe -- test streams
	@dune build bin/wcpdetect.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	wcp=_build/default/bin/wcpdetect.exe; \
	for n in 4 8; do \
	  $$wcp generate -n $$n -m 12 --p-pred 0.3 --seed $$n -o $$tmp/t$$n.trace >/dev/null; \
	  for algo in token-vc token-dd checker; do \
	    $$wcp detect $$tmp/t$$n.trace -a $$algo --metrics-out $$tmp/a.jsonl --metrics-every 5 >/dev/null; \
	    $$wcp detect $$tmp/t$$n.trace -a $$algo --metrics-out $$tmp/b.jsonl --metrics-every 5 >/dev/null; \
	    cmp -s $$tmp/a.jsonl $$tmp/b.jsonl \
	      || { echo "telemetry-check: $$algo n=$$n stream drifted"; exit 1; }; \
	    echo "telemetry-check: $$algo n=$$n OK ($$(wc -l < $$tmp/a.jsonl) lines)"; \
	  done; \
	done; \
	$$wcp chaos $$tmp/t8.trace -a token-vc --restart 4@2-10 --metrics-out $$tmp/a.jsonl >/dev/null; \
	$$wcp chaos $$tmp/t8.trace -a token-vc --restart 4@2-10 --metrics-out $$tmp/b.jsonl >/dev/null; \
	cmp -s $$tmp/a.jsonl $$tmp/b.jsonl \
	  || { echo "telemetry-check: chaos/restart stream drifted"; exit 1; }; \
	echo "telemetry-check: chaos/restart OK"

# Binary-trace-store gate. First unlock the full streamed-vs-dense
# agreement corpus in test_btrace (round-trips, writer/encoder byte
# identity, corrupt fixtures), then prove the two stores interchangeable
# THROUGH THE CLI: text -> btrace -> text convert round-trips must be
# byte-identical (and the btrace byte-identical to the generator's
# direct-to-disk stream), and `detect --stream` over the mmap'd file
# must spell out the same cut as the dense text path for every
# algorithm. A bounded smoke of the in-process half always runs inside
# `make test`.
btrace-check:
	WCP_BTRACE_CHECK=1 dune exec test/test_btrace.exe -- test stream
	@dune build bin/wcpdetect.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	wcp=_build/default/bin/wcpdetect.exe; \
	for n in 4 8; do \
	  $$wcp generate -n $$n -m 12 --p-pred 0.3 --seed $$n -o $$tmp/t$$n.trace >/dev/null; \
	  $$wcp generate -n $$n -m 12 --p-pred 0.3 --seed $$n -o $$tmp/t$$n.btrace >/dev/null; \
	  $$wcp convert $$tmp/t$$n.trace -o $$tmp/conv$$n.btrace >/dev/null; \
	  cmp -s $$tmp/t$$n.btrace $$tmp/conv$$n.btrace \
	    || { echo "btrace-check: n=$$n streamed file != converted text"; exit 1; }; \
	  $$wcp convert $$tmp/t$$n.btrace -o $$tmp/back$$n.trace >/dev/null; \
	  cmp -s $$tmp/t$$n.trace $$tmp/back$$n.trace \
	    || { echo "btrace-check: n=$$n convert round-trip drifted"; exit 1; }; \
	  echo "btrace-check: n=$$n convert round-trip OK ($$(wc -c < $$tmp/t$$n.btrace) bytes)"; \
	  for algo in token-vc token-dd checker; do \
	    $$wcp detect $$tmp/t$$n.trace -a $$algo | cut -d'|' -f1 > $$tmp/dense.out; \
	    $$wcp detect $$tmp/t$$n.btrace -a $$algo --stream | cut -d'|' -f1 > $$tmp/stream.out; \
	    cmp -s $$tmp/dense.out $$tmp/stream.out \
	      || { echo "btrace-check: $$algo n=$$n streamed cut != dense cut"; exit 1; }; \
	    echo "btrace-check: $$algo n=$$n streamed cut OK ($$(cat $$tmp/stream.out))"; \
	  done; \
	done

# Streaming-service gate (DESIGN.md §13): a real `wcpdetect serve`
# daemon on a loopback unix socket, fed by real `wcpdetect feed`
# clients. The served cut must be byte-identical to the offline
# `wcpdetect detect` cut for every algorithm and size, and a client
# killed mid-stream must reconnect and finish with the same cut
# (replay from the server's ack). --sessions 9 makes the daemon count
# its results and exit by itself, so the target cannot leak a server.
# The same contract runs bounded and in-process inside `make test`
# (test_serve).
serve-check:
	@dune build bin/wcpdetect.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	wcp=_build/default/bin/wcpdetect.exe; \
	$$wcp serve --listen unix:$$tmp/sock --spool $$tmp --sessions 9 --silent & \
	srv=$$!; \
	for n in 4 8; do \
	  $$wcp generate -n $$n -m 12 --p-pred 0.3 --seed $$n -o $$tmp/t$$n.trace >/dev/null; \
	  for algo in token-vc token-dd checker parallel; do \
	    $$wcp detect $$tmp/t$$n.trace -a $$algo \
	      | cut -d'|' -f1 | sed 's/[[:space:]]*$$//' > $$tmp/offline.out; \
	    $$wcp feed $$tmp/t$$n.trace --connect unix:$$tmp/sock -a $$algo \
	      --session s$$n-$$algo > $$tmp/served.out \
	      || { echo "serve-check: feed $$algo n=$$n failed"; kill $$srv 2>/dev/null; exit 1; }; \
	    cmp -s $$tmp/offline.out $$tmp/served.out \
	      || { echo "serve-check: $$algo n=$$n served cut != offline cut"; kill $$srv 2>/dev/null; exit 1; }; \
	    echo "serve-check: $$algo n=$$n OK ($$(cat $$tmp/served.out))"; \
	  done; \
	done; \
	$$wcp feed $$tmp/t8.trace --connect unix:$$tmp/sock -a token-vc \
	  --session rc --kill-after 30 >/dev/null 2>&1; \
	$$wcp detect $$tmp/t8.trace -a token-vc \
	  | cut -d'|' -f1 | sed 's/[[:space:]]*$$//' > $$tmp/offline.out; \
	$$wcp feed $$tmp/t8.trace --connect unix:$$tmp/sock -a token-vc \
	  --session rc > $$tmp/served.out \
	  || { echo "serve-check: reconnect feed failed"; kill $$srv 2>/dev/null; exit 1; }; \
	cmp -s $$tmp/offline.out $$tmp/served.out \
	  || { echo "serve-check: reconnect served cut != offline cut"; kill $$srv 2>/dev/null; exit 1; }; \
	echo "serve-check: kill-and-reconnect OK ($$(cat $$tmp/served.out))"; \
	wait $$srv || { echo "serve-check: server exited non-zero"; exit 1; }

# Full-corpus slicing agreement sweep: every detector, dense vs sliced
# (--slice / Detection.options ~slice:true), across sizes x predicate
# densities x seeds x full and partial specs — outcomes must be
# identical with cuts in dense coordinates. A bounded smoke of the same
# sweep always runs inside `make test`; this target unlocks the whole
# corpus.
slice-check:
	WCP_SLICE_CHECK=1 dune exec test/test_slice.exe -- test corpus

examples:
	@for e in quickstart mutual_exclusion database_locks \
	  algorithm_comparison distributed_debugging online_monitoring \
	  channel_monitor boolean_predicates deadlock_detection bank_audit; do \
	  echo "==== $$e ===="; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
