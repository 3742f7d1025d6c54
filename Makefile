PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-chaos test-fork-determinism test-ksm-park test-probes test-shard bench bench-quick bench-shard bench-smoke lint trace-smoke matrix-smoke probes-smoke obs-report

test:
	$(PYTHON) -m pytest -x -q --durations=10

# The quick inner loop: everything except the whole-fleet chaos runs
# and anything marked slow.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow and not chaos"

# Just the fault-injection property/determinism suite (CI runs this on
# a second Python and uploads the ChaosReport artifact).
test-chaos:
	$(PYTHON) -m pytest -x -q -m chaos --durations=10

# The snapshot layer's correctness bar: a branch forked off a warmed
# fleet must fingerprint byte-identically to the same branch run cold,
# the engine-level snapshot contract and its guards (unresumable
# process at the first fork, fork after the captured engine ran) must
# hold, and every hand-written __deepcopy__ must keep every field and
# equal the generic copy by value.  CI runs this as its own named step
# so snapshot and copy regressions surface by name in the Actions
# summary.
test-fork-determinism:
	$(PYTHON) -m pytest tests/test_fleet_fanout.py -x -q -k determinism
	$(PYTHON) -m pytest tests/test_snapshot.py -x -q
	$(PYTHON) -m pytest tests/test_deepcopy_fields.py -x -q

# The KSM parking oracle: an idle ksmd parked on the memory epochs must
# match a polling ksmd (one wake every sleep_millisecs) on seeded
# fleets, a chaos plan, a warm-fork branch, stop/start while parked and
# a write at exactly a wake boundary.
test-ksm-park:
	$(PYTHON) -m pytest tests/test_ksm_park.py -x -q

# The probe-catalog suite: the conformance kit (every registered probe
# × every contract check), the differential pins against the
# pre-catalog detection path, the ledger-consistency properties, and
# the edge cases.
test-probes:
	$(PYTHON) -m pytest tests/test_probe_conformance.py \
		tests/test_probes_differential.py tests/test_probes_score.py \
		tests/test_probes_edges.py -x -q --durations=5

# The sharded-core suite: protocol-level mesh tests plus the
# serial-vs-sharded differential pins (CI's shard-smoke job runs this
# on every push; the chaos-marked members also run under test-chaos).
test-shard:
	$(PYTHON) -m pytest -x -q -m shard --durations=5

# Just the sharded-scaling benchmark entry: one warmed 16x192 fleet
# branched serial and 4-way sharded, gated on the deterministic
# critical-path speedup and the sync-message budget (the gates live in
# the sharded_sweep_16x row of benchmarks/perf_report.py, which also
# says why the raw wall ratio is recorded but not gated).  Writes
# build/bench-shard.json and exits 1 on any fingerprint or gate failure.
bench-shard:
	mkdir -p build
	$(PYTHON) -c "import sys; sys.path.insert(0, 'benchmarks'); \
		from perf_report import run_report; \
		sys.exit(run_report(['sharded_sweep_16x'], 'build/bench-shard.json'))"

# The CI probes smoke: score the small grid and diff against the
# checked-in expected scores — `repro probes score --expected` exits 1
# on any drift (scores are virtual-time state, so the pin holds on
# every machine).  Re-pin by pointing --report-out at the expected
# file after an intentional change.
probes-smoke:
	mkdir -p build
	$(PYTHON) -m repro probes score --seed 7 --hosts 2 --tenants 4 \
		--churn 0 --pages 6 --wait 6.0 \
		--report-out build/probes-score.json \
		--expected examples/probes/score_smoke.expected.json

# ruff (configured in pyproject.toml) when available; otherwise fall
# back to a byte-compile pass so the target still catches syntax errors
# on minimal toolchains.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

bench:
	$(PYTHON) benchmarks/perf_report.py

bench-quick:
	$(PYTHON) benchmarks/perf_report.py --quick

# The repo benchmark's API guard: one short traced fan-out rep through
# perfbench (warm_fleet, WarmFleet.branch and every entry point
# perfbench/layers.py wraps).  run.py exits 0 even when units fail, so
# the target checks that its last JSON line reports "correct": true.
bench-smoke:
	mkdir -p build
	$(PYTHON) perfbench/run.py --workload fleet_fanout_4x12 --seed 42 \
		--seconds 1 --trace 1 > build/bench-smoke.jsonl
	$(PYTHON) -c "import json, sys; \
		last = json.loads(open('build/bench-smoke.jsonl').read().splitlines()[-1]); \
		print('bench-smoke: correct=%s failed=%s/%s' \
			% (last.get('correct'), last.get('failed'), last.get('attempted'))); \
		sys.exit(0 if last.get('correct') is True else 1)"

# Traced end-to-end run + schema validation of the exported trace.
# CI runs this and uploads the build/trace-smoke/ run bundle as an
# artifact (open its trace.json in ui.perfetto.dev).
trace-smoke:
	mkdir -p build
	$(PYTHON) -m repro --seed 42 --obs-out build/trace-smoke/ \
		detect --pages 12
	$(PYTHON) -m repro.obs.validate build/trace-smoke/trace.json \
		--require vm_exit --require ksm.pass --require migration. \
		--require detect.

# The analysis smoke: trace the same seeded fleet sweep twice, analyze
# both traces (attribution, critical path, per-tenant probe overhead,
# flamegraph), and diff the two summaries — `repro obs diff` exits 1 on
# any drift, so this doubles as a determinism gate for the whole
# trace -> analysis pipeline.  Each summary embeds the metrics.json of
# its bundle.  CI uploads the bundles, the flamegraph + diff report.
obs-report:
	mkdir -p build
	$(PYTHON) -m repro --seed 42 --obs-out build/obs-a/ fleet sweep
	$(PYTHON) -m repro --seed 42 --obs-out build/obs-b/ fleet sweep
	$(PYTHON) -m repro.obs.validate build/obs-a/trace.json
	$(PYTHON) -m repro.obs.validate build/obs-b/trace.json
	$(PYTHON) -m repro obs report build/obs-a/trace.json \
		--json build/obs-a.summary.json
	$(PYTHON) -m repro obs report build/obs-b/trace.json \
		--json build/obs-b.summary.json
	$(PYTHON) -m repro obs critical-path build/obs-a/trace.json
	$(PYTHON) -m repro obs flame build/obs-a/trace.json -o build/obs-a.folded
	$(PYTHON) -m repro obs diff build/obs-a.summary.json \
		build/obs-b.summary.json --report-out build/obs-diff.json

# The CI matrix smoke: expand + run the 12-variant chaos grid across a
# 2-worker pool and diff against the checked-in expectations (exit 1 on
# any fingerprint drift; re-pin with `repro matrix pin`).
matrix-smoke:
	mkdir -p build
	$(PYTHON) -m repro matrix expand examples/matrices/chaos_grid.cfg
	$(PYTHON) -m repro matrix run examples/matrices/chaos_grid.cfg \
		--processes 2 --report-out build/matrix-smoke.json
