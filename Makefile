# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench tables bench-json perf-check bench-smoke check telemetry-check btrace-check serve-check examples clean

# Committed machine-readable baseline (see EXPERIMENTS.md).
BENCH_BASELINE ?= BENCH_1.json

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Every bench table, rendered from the committed baseline's rows
# (instant); `make bench` renders a fresh run instead.
tables:
	dune exec bench/main.exe -- tables $(BENCH_BASELINE)

# Regenerate the JSON benchmark baseline (every experiment's full-profile
# jobs, fanned out over domains; deterministic fields are domain-count
# independent).
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

# Everything a PR should pass: build, tests (the full chaos, recovery,
# event-schema, telemetry-stream and btrace corpora included), the
# smoke perf gate, the CLI-level store/telemetry/service gates and
# the examples.
check: build test bench-smoke btrace-check telemetry-check serve-check examples

# Telemetry-plane gate: prove the wcp-metrics/1 stream
# byte-deterministic ACROSS processes. The same trace, seed and
# algorithm through two separate CLI invocations must produce
# byte-identical streams — including the per-phase alloc_bytes profile,
# which is allocation-schedule (not wall-clock) derived — for every
# detector, and for every token detector under a monitor restart with
# link loss. The in-process stream corpus runs inside `make test`.
telemetry-check:
	@dune build bin/wcpdetect.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	wcp=_build/default/bin/wcpdetect.exe; \
	for n in 4 8; do \
	  $$wcp generate -n $$n -m 12 --p-pred 0.3 --seed $$n -o $$tmp/t$$n.trace >/dev/null; \
	  for algo in token-vc multi-token token-dd token-dd-par checker parallel; do \
	    $$wcp detect $$tmp/t$$n.trace -a $$algo --metrics-out $$tmp/a.jsonl --metrics-every 5 >/dev/null; \
	    $$wcp detect $$tmp/t$$n.trace -a $$algo --metrics-out $$tmp/b.jsonl --metrics-every 5 >/dev/null; \
	    cmp -s $$tmp/a.jsonl $$tmp/b.jsonl \
	      || { echo "telemetry-check: $$algo n=$$n stream drifted"; exit 1; }; \
	    echo "telemetry-check: $$algo n=$$n OK ($$(wc -l < $$tmp/a.jsonl) lines)"; \
	  done; \
	done; \
	for algo in token-vc multi-token token-dd token-dd-par; do \
	  $$wcp chaos $$tmp/t8.trace -a $$algo --restart 12@2-10 --drop 0.1 --metrics-out $$tmp/a.jsonl >/dev/null; \
	  $$wcp chaos $$tmp/t8.trace -a $$algo --restart 12@2-10 --drop 0.1 --metrics-out $$tmp/b.jsonl >/dev/null; \
	  cmp -s $$tmp/a.jsonl $$tmp/b.jsonl \
	    || { echo "telemetry-check: $$algo chaos/restart stream drifted"; exit 1; }; \
	  echo "telemetry-check: $$algo chaos/restart OK"; \
	done

# Binary-trace-store gate: prove the two stores interchangeable
# THROUGH THE CLI: text -> btrace -> text convert round-trips must be
# byte-identical (and the btrace byte-identical to the generator's
# direct-to-disk stream), and `detect --stream` over the mmap'd file
# must spell out the same cut as the dense text path for every
# algorithm. The in-process streamed-vs-dense corpus (round-trips,
# writer/encoder byte identity, corrupt fixtures) runs inside
# `make test`.
btrace-check:
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
	  for algo in token-vc multi-token token-dd token-dd-par checker parallel; do \
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
# `wcpdetect detect` cut for every algorithm and size, fed from the
# text trace and from the btrace the client streams through its cursor,
# and a client killed mid-stream must reconnect and finish with the
# same cut (replay from the server's ack). --sessions 25 (six
# algorithms at two sizes from two formats, plus the reconnect) makes
# the daemon count its results and exit by itself, so the target
# cannot leak a server. A second, idle daemon must exit 0 within 5 s
# of a TERM; it is killed with -9 before the target fails, so the
# target cannot hang either.
# The same contract runs bounded and in-process inside `make test`
# (test_serve).
serve-check:
	@dune build bin/wcpdetect.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	wcp=_build/default/bin/wcpdetect.exe; \
	$$wcp serve --listen unix:$$tmp/sock --spool $$tmp --sessions 25 --silent & \
	srv=$$!; \
	for n in 4 8; do \
	  $$wcp generate -n $$n -m 12 --p-pred 0.3 --seed $$n -o $$tmp/t$$n.trace >/dev/null; \
	  $$wcp generate -n $$n -m 12 --p-pred 0.3 --seed $$n -o $$tmp/t$$n.btrace >/dev/null; \
	  for algo in token-vc multi-token token-dd token-dd-par checker parallel; do \
	    $$wcp detect $$tmp/t$$n.trace -a $$algo \
	      | cut -d'|' -f1 | sed 's/[[:space:]]*$$//' > $$tmp/offline.out; \
	    for f in trace btrace; do \
	      $$wcp feed $$tmp/t$$n.$$f --connect unix:$$tmp/sock -a $$algo \
	        --session s$$n-$$f-$$algo > $$tmp/served.out \
	        || { echo "serve-check: feed $$algo n=$$n $$f failed"; kill $$srv 2>/dev/null; exit 1; }; \
	      cmp -s $$tmp/offline.out $$tmp/served.out \
	        || { echo "serve-check: $$algo n=$$n $$f served cut != offline cut"; kill $$srv 2>/dev/null; exit 1; }; \
	      echo "serve-check: $$algo n=$$n $$f OK ($$(cat $$tmp/served.out))"; \
	    done; \
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
	wait $$srv || { echo "serve-check: server exited non-zero"; exit 1; }; \
	$$wcp serve --listen unix:$$tmp/idle --spool $$tmp --silent > $$tmp/idle.out & \
	idle=$$!; i=0; \
	while [ ! -S $$tmp/idle ] && [ $$i -lt 50 ]; do sleep 0.1; i=$$((i+1)); done; \
	kill -TERM $$idle; i=0; \
	while kill -0 $$idle 2>/dev/null && [ $$i -lt 50 ]; do sleep 0.1; i=$$((i+1)); done; \
	if kill -0 $$idle 2>/dev/null; then \
	  kill -9 $$idle; echo "serve-check: idle server outlived TERM by 5 s"; exit 1; fi; \
	wait $$idle || { echo "serve-check: idle server exited non-zero on TERM"; exit 1; }; \
	echo "serve-check: TERM stops an idle server OK ($$(cat $$tmp/idle.out))"

# Run every example; the first one that exits non-zero fails the
# target. Their complete outputs are pinned by test/examples.t.
examples:
	@for e in quickstart mutual_exclusion database_locks \
	  algorithm_comparison distributed_debugging online_monitoring \
	  channel_monitor boolean_predicates deadlock_detection bank_audit; do \
	  echo "==== $$e ===="; \
	  dune exec examples/$$e.exe || { echo "examples: $$e failed"; exit 1; }; \
	  echo; done

clean:
	dune clean
