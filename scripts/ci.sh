#!/usr/bin/env bash
# CI entry point: tier-1 suite first (the gate), then the fast lane.
#
#   scripts/ci.sh          # tier-1 + fast lane
#   scripts/ci.sh fast     # fast lane only (-m "not slow")
#   scripts/ci.sh tier1    # tier-1 gate only
#   scripts/ci.sh chaos    # chaos lane only (-m chaos fault-injection scenarios)
#   scripts/ci.sh taxonomy # anomaly-taxonomy lane (-m taxonomy injector/sweep tests)
#   scripts/ci.sh daemon   # serving daemon + shm ring suites + replay smoke
#   scripts/ci.sh executor # executor conformance suite (2-worker daemons)
#   scripts/ci.sh lifecycle # drift-triggered refit + hot-swap suites + CLI smoke
#   scripts/ci.sh drift    # drift monitor: bitwise KS property suite + robustness tests
#   scripts/ci.sh backend  # dtype policy, compiled-plan conformance, plan cache, end-to-end parity
#   scripts/ci.sh bench    # inference throughput benchmark (non-gating)
#
# The tier-1 gate is the canonical `PYTHONPATH=src python -m pytest -x -q`
# run from ROADMAP.md. The fast lane re-runs the suite without the `slow`
# marker (wall-clock-sensitive tests like the telemetry overhead guard),
# which is the loop to use while iterating locally.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

lane="${1:-all}"

run_tier1() {
    echo "== tier-1 gate: full test suite =="
    python -m pytest -x -q
}

run_fast() {
    echo '== fast lane: -m "not slow" =='
    python -m pytest -x -q -m "not slow"
}

run_chaos() {
    echo '== chaos lane: -m chaos =='
    python -m pytest -x -q -m chaos
}

run_taxonomy() {
    # The anomaly-taxonomy lane: injector semantics + property tests plus
    # a tiny cross-family sweep (2 families, smoke-scale splits), so the
    # taxonomy subsystem can be gated without paying for the full grid.
    echo '== taxonomy lane: -m taxonomy =='
    python -m pytest -x -q -m taxonomy
}

run_daemon() {
    # The always-on serving lane: daemon parity/failure tests and the
    # ring-buffer property suite spin up real worker pools over shared
    # memory, and the soak test cycles 25 daemon lifecycles across fork
    # and spawn. Includes the `slow`-marked pieces (2-worker replay
    # smoke, soak) that the fast lane skips, plus a shrunken open-loop
    # traffic replay through the bench harness as an end-to-end smoke.
    echo '== daemon lane: serving daemon + shm rings + replay smoke =='
    python -m pytest -x -q tests/serving/test_daemon.py \
        tests/serving/test_ring_properties.py \
        tests/serving/test_daemon_soak.py
    python scripts/bench_replay.py --smoke --out /tmp/bench_replay_smoke.json
}

run_executor() {
    # The execution-layer lane: the conformance suite holds both
    # executors (inline / daemon) to one contract — bitwise parity with
    # inline incl. post-swap, infra faults demoting down the chain
    # without touching the breaker, model faults propagating into it,
    # update_spec visibility, idempotent close — with a real 2-worker
    # daemon, plus the pipeline's executor= argument and the zero-copy
    # result-read regressions the daemon path depends on.
    echo '== executor lane: conformance across execution paths =='
    python -m pytest -x -q tests/serving/test_executor_conformance.py \
        tests/serving/test_pipeline.py tests/serving/test_zero_copy.py
}

run_lifecycle() {
    # The continual-learning lane: drift-triggered refit + zero-downtime
    # hot-swap. Covers the LifecycleManager loop, the hot-swap integration
    # suite (inline, owned-daemon and caller-owned-daemon pipelines,
    # bitwise post-swap parity, concurrent-traffic atomicity, rollback),
    # drift-monitor robustness regressions, checkpoint housekeeping, and
    # the swap-phase chaos scenarios. Ends with a CLI drift-replay smoke
    # on a tiny split.
    echo '== lifecycle lane: drift-triggered refit + hot-swap =='
    python -m pytest -x -q tests/lifecycle \
        tests/serving/test_hotswap.py tests/serving/test_drift.py \
        tests/resilience/test_checkpoint.py tests/resilience/test_faultinject.py
    python -m pytest -x -q -m chaos tests/serving/test_chaos.py -k Swap
    python -m repro.cli lifecycle --dataset kddcup99 --scale 0.02 \
        --refit-epochs 2 --json /tmp/lifecycle_smoke.json
}

run_drift() {
    # The drift-monitor lane: DriftMonitor.check evaluates the KS
    # statistic only at the batch's own points, and the Hypothesis suite
    # holds it bitwise to the grid-based ks_statistic oracle (ties,
    # NaN/inf, signed zeros, constant and all-non-finite columns,
    # subsampled references, taxonomy-shifted batches); the robustness
    # tests pin skip rules, the exact-mass rule and fit validation.
    echo '== drift lane: bitwise KS property suite + robustness =='
    python -m pytest -x -q tests/serving/test_drift_properties.py \
        tests/serving/test_drift.py
}

run_backend() {
    # The numeric-kernel lane: the dtype policy (float64 training,
    # opt-in per-thread float32 inference), compiled-vs-graph parity on
    # dense and one-hot batches up to 2048 rows, the out= contract, the
    # compiled-plan conformance cases, the weight-keyed plan cache, and
    # the end-to-end parity suite over TargAD and the baselines.
    echo '== backend lane: dtype policy, compiled-plan conformance, plan cache, parity =='
    python -m pytest -x -q tests/backend tests/nn/test_compile_inference.py \
        tests/nn/test_backend_conformance.py tests/nn/test_plan_cache.py \
        tests/test_inference_parity.py
}

run_bench() {
    # Non-gating: records graph vs compiled inference throughput in
    # BENCH_inference.json for trend tracking; never fails the build.
    # A compiled-speedup regression below the recorded baseline floors
    # (scripts/bench_baseline.json) is announced loudly — a GitHub
    # ::warning annotation when supported, stderr always — but still
    # does not gate.
    echo '== bench lane: inference throughput (non-gating) =='
    python scripts/bench_inference.py || echo "bench lane failed (non-gating)"
    python scripts/bench_replay.py || echo "replay bench failed (non-gating)"
    python - <<'EOF' || true
import json, sys
from pathlib import Path

try:
    baseline = json.loads(Path("scripts/bench_baseline.json").read_text())
    payload = json.loads(Path("BENCH_inference.json").read_text())
except OSError as exc:
    print(f"bench baseline check skipped: {exc}", file=sys.stderr)
    raise SystemExit(0)
speedups = {
    row["workload"]: row.get("speedup_compiled_vs_graph")
    for row in payload["results"]
}
for workload in ("autoencoder_fallback", "classifier_head"):
    floor = baseline.get(f"{workload}_speedup_min")
    got = speedups.get(workload)
    if floor is None or got is None:
        continue
    if got < floor:
        message = (
            f"compiled inference speedup regression: {workload} at "
            f"{got}x, baseline floor {floor}x (non-gating)"
        )
        # GitHub-style annotation so the regression is loud in CI UIs;
        # plain stderr everywhere else.
        print(f"::warning title=bench regression::{message}")
        print(f"WARNING: {message}", file=sys.stderr)
    else:
        print(f"bench check: {workload} {got}x >= floor {floor}x")

# Latency-under-load rows from bench_replay.py: the daemon's best
# throughput speedup over the single-process baseline must stay above
# its recorded floor, and every replay row must carry latency data.
replay = payload.get("traffic_replay")
floor = baseline.get("replay_daemon_speedup_min")
if replay and floor is not None:
    best = replay.get("daemon_speedup_best")
    if best is None or best < floor:
        message = (
            f"traffic-replay regression: daemon best speedup {best}x "
            f"under load, baseline floor {floor}x (non-gating)"
        )
        print(f"::warning title=bench regression::{message}")
        print(f"WARNING: {message}", file=sys.stderr)
    else:
        print(f"bench check: replay daemon {best}x >= floor {floor}x")
    for row in replay.get("results", ()):
        for mode in ("single", "daemon"):
            d = row.get(mode)
            if d is None:
                continue
            if not d.get("latency_p99_ms"):
                message = (
                    f"traffic-replay row {row.get('workload')}/{mode} "
                    "missing p99 latency (non-gating)"
                )
                print(f"::warning title=bench regression::{message}")
                print(f"WARNING: {message}", file=sys.stderr)
EOF
}

case "$lane" in
    tier1) run_tier1 ;;
    fast)  run_fast ;;
    chaos) run_chaos ;;
    taxonomy) run_taxonomy ;;
    daemon) run_daemon ;;
    executor) run_executor ;;
    lifecycle) run_lifecycle ;;
    drift) run_drift ;;
    backend) run_backend ;;
    bench) run_bench ;;
    all)   run_tier1; run_fast ;;
    *)     echo "usage: scripts/ci.sh [tier1|fast|chaos|taxonomy|daemon|executor|lifecycle|drift|backend|bench|all]" >&2; exit 2 ;;
esac
