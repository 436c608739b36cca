"""Latency under load: open-loop traffic replay, single-process vs daemon.

Extends ``BENCH_inference.json`` with a ``traffic_replay`` section (and a
``drift_recovery`` section — see below). Where
``bench_inference.py`` measures peak rows/sec through a perfectly fed
scorer, this bench replays a seeded open-loop workload (Poisson
arrivals, mixed batch sizes — see :mod:`repro.serving.replay`) against

- ``single`` — call-per-request ``score_batch``, the pre-daemon serving
  primary: requests queue behind each other, every one pays the full
  per-call fixed cost;
- ``daemon`` — a :class:`~repro.serving.daemon.ServingDaemon` with the
  spec resident in a long-lived worker and shared-memory ring transport:
  concurrent arrivals are coalesced into fused scoring calls.

Reported per (workload, mode): p50/p95/p99/max latency **against the
scheduled arrival time** (queueing delay counts — the open-loop rule),
achieved rows/sec, and the daemon-vs-single speedup. Both modes replay
byte-identical traffic from the same seed.

The ``drift_recovery`` section replays the lifecycle drift scenario
(:mod:`repro.lifecycle.replay`): warm traffic, then a covariate-shifted
regime, through a :class:`~repro.lifecycle.manager.LifecycleManager`.
Reported: batches to drift detection, detection→hot-swap wall-clock
latency, and the live model's AUPRC on the shifted regime before drift,
at detection, and after the swap (the accuracy-recovery curve).

Each workload runs in its own subprocess with BLAS/OMP pools pinned to
one thread, matching ``bench_inference.py`` methodology. Non-gating: the
ci.sh ``bench`` lane tracks trends and warns on regression below the
floors in ``scripts/bench_baseline.json``.

Usage::

    PYTHONPATH=src python scripts/bench_replay.py [--out PATH] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Replay workloads: (rate_rps, n_requests, batch_mix, daemon_workers).
#: Rates deliberately oversubscribe a one-CPU host — latency under
#: saturation is the number this bench exists to record.
WORKLOADS = {
    # Many tiny requests at ~4x the single-process service capacity:
    # the per-call fixed-cost regime where micro-batching pays the most
    # and the call-per-request baseline visibly queues.
    "small_spray": dict(rate_rps=8000.0, n_requests=4000,
                        batch_mix=((32, 1.0),), daemon_workers=1),
    # Mixed sizes at ~2x capacity: closer to a real traffic mix, still
    # saturated enough that latency reflects queueing, not service time.
    "mixed_load": dict(rate_rps=2500.0, n_requests=1500,
                       batch_mix=((16, 0.5), (64, 0.35), (256, 0.15)),
                       daemon_workers=1),
}

#: --smoke shrinks every workload to a few-second sanity pass (CI lane).
SMOKE_SCALE = 0.2

POOL_ROWS = 4096

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _fit_tiny_model():
    """The bench_inference classifier_head model: tiny, fast, real."""
    from repro.core.config import TargADConfig
    from repro.core.model import TargAD

    rng = np.random.default_rng(0)
    n_features, m, k = 32, 3, 2
    X_unlabeled = np.vstack([
        rng.normal(size=(600, n_features)),
        rng.normal(3.0, 1.0, size=(60, n_features)),
    ])
    X_labeled = rng.normal(5.0, 1.0, size=(48, n_features))
    y_labeled = rng.integers(0, m, size=48)
    model = TargAD(TargADConfig(
        k=k, clf_hidden=(64, 32), clf_epochs=3, ae_epochs=5, random_state=0,
    ))
    model.fit(X_unlabeled, X_labeled, y_labeled)
    return model, n_features


def _measure(name: str, smoke: bool) -> dict:
    from repro.serving.daemon import ServingDaemon
    from repro.serving.replay import ReplaySpec, build_schedule, replay_daemon, replay_sync
    from repro.serving.sharding import build_scoring_spec

    params = WORKLOADS[name]
    n_requests = params["n_requests"]
    if smoke:
        n_requests = max(int(n_requests * SMOKE_SCALE), 50)
    spec = ReplaySpec(
        name=name, rate_rps=params["rate_rps"], n_requests=n_requests,
        batch_mix=tuple(tuple(e) for e in params["batch_mix"]), seed=7,
    )
    model, n_features = _fit_tiny_model()
    rng = np.random.default_rng(1)
    X_pool = rng.normal(size=(POOL_ROWS, n_features))
    schedule = build_schedule(spec, POOL_ROWS)

    # Warm the compiled plan, then replay single-process.
    model.score_batch(X_pool[:64], strategy="ed")
    single = replay_sync(spec, schedule, X_pool,
                         lambda X: model.score_batch(X, strategy="ed"))

    scoring_spec = build_scoring_spec(model, "ed")
    with ServingDaemon(scoring_spec,
                       n_workers=params["daemon_workers"]) as daemon:
        daemon.score(X_pool[:64])  # warm the worker's plan cache
        result = replay_daemon(spec, schedule, X_pool, daemon)

    return {
        "workload": name,
        "rate_rps": spec.rate_rps,
        "n_requests": spec.n_requests,
        "batch_mix": [list(e) for e in spec.batch_mix],
        "daemon_workers": params["daemon_workers"],
        "single": single.to_dict(),
        "daemon": result.to_dict(),
        "daemon_speedup_vs_single": round(
            result.rows_per_sec / single.rows_per_sec, 2
        ) if single.rows_per_sec else 0.0,
        "daemon_p99_vs_single": round(
            single.percentile_ms(99) / max(result.percentile_ms(99), 1e-9), 2
        ),
    }


def _measure_drift(smoke: bool) -> dict:
    """Lifecycle drift scenario: detection + swap latency + recovery."""
    from repro.core.config import TargADConfig
    from repro.core.model import TargAD
    from repro.lifecycle import (
        DriftPolicy, LifecycleManager, drift_replay, make_split_oracle,
        shift_regime,
    )
    from repro.serving import ScoringPipeline

    rng = np.random.default_rng(3)
    n_features, m = 16, 2
    scale = SMOKE_SCALE if smoke else 1.0

    def population(n_normal, n_target, shuffle_seed):
        X = np.vstack([
            rng.normal(size=(n_normal, n_features)),
            rng.normal(4.0, 1.0, size=(n_target, n_features)),
        ])
        y = np.concatenate([
            np.zeros(n_normal, dtype=np.int64),
            np.ones(n_target, dtype=np.int64),
        ])
        order = np.random.default_rng(shuffle_seed).permutation(len(X))
        return X[order], y[order]

    n_unlabeled = max(int(800 * scale), 200)
    X_unlabeled, _ = population(n_unlabeled, n_unlabeled // 12, 0)
    X_labeled = rng.normal(4.0, 1.0, size=(32, n_features))
    y_labeled = rng.integers(0, m, size=32)
    X_val, y_val = population(max(int(240 * scale), 80), 24, 1)
    X_warm, _ = population(max(int(320 * scale), 120), 12, 2)

    model = TargAD(TargADConfig(
        k=2, clf_hidden=(32, 16), clf_epochs=5, ae_epochs=5, random_state=0,
    ))
    t0 = time.perf_counter()
    model.fit(X_unlabeled, X_labeled, y_labeled)
    fit_seconds = time.perf_counter() - t0

    pipe = ScoringPipeline(model, policy="f1", drift_threshold=0.3)
    pipe.calibrate(X_val, y_val, X_reference=X_unlabeled)

    X_new, y_new = population(max(int(480 * scale), 200), 48, 3)
    X_shifted = shift_regime(X_new, shift=3.0, seed=4)
    half = len(X_shifted) // 2
    oracle = make_split_oracle(X_shifted[:half], y_new[:half])
    manager = LifecycleManager(
        pipe, X_unlabeled, X_labeled, y_labeled, X_val, y_val,
        oracle=oracle,
        policy=DriftPolicy(confirm_checks=2, cooldown_batches=8,
                           label_budget=16, refit_epochs=3,
                           min_auprc_ratio=0.5),
        seed=0,
    )
    result = drift_replay(
        manager, X_warm, X_shifted[:half], X_shifted[half:], y_new[half:],
        batch_rows=48,
    )
    payload = result.to_dict()
    payload["fit_seconds"] = round(fit_seconds, 3)
    payload["generation"] = manager.pipeline.generation
    return payload


def _run_worker(name: str, smoke: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(THREAD_ENV)
    cmd = [sys.executable, __file__, "--worker", name]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=REPO_ROOT, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"replay worker {name!r} exited with {proc.returncode}"
        )
    return json.loads(proc.stdout)


def run(smoke: bool) -> dict:
    results = [_run_worker(name, smoke) for name in WORKLOADS]
    return {
        "pool_rows": POOL_ROWS,
        "smoke": smoke,
        "thread_env": dict(THREAD_ENV),
        "results": results,
        # Headline: best observed daemon-vs-single throughput under load.
        "daemon_speedup_best": max(
            r["daemon_speedup_vs_single"] for r in results
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_inference.json",
                        help="BENCH json to extend with the traffic_replay section")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken few-second replay (CI smoke)")
    parser.add_argument("--worker",
                        choices=sorted(WORKLOADS) + ["drift_recovery"],
                        help="internal: measure one workload, print JSON")
    args = parser.parse_args()
    if args.worker == "drift_recovery":
        print(json.dumps(_measure_drift(args.smoke)))
        return
    if args.worker:
        print(json.dumps(_measure(args.worker, args.smoke)))
        return
    start = time.perf_counter()
    section = run(args.smoke)
    drift = _run_worker("drift_recovery", args.smoke)
    payload = {}
    if args.out.exists():
        payload = json.loads(args.out.read_text())
    payload["traffic_replay"] = section
    payload["drift_recovery"] = drift
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote traffic_replay + drift_recovery sections to {args.out} "
          f"({time.perf_counter() - start:.1f}s)")
    for row in section["results"]:
        for mode in ("single", "daemon"):
            d = row[mode]
            print(f"  {row['workload']:>14}/{mode:<7} "
                  f"p50={d['latency_p50_ms']:>9.2f}ms "
                  f"p99={d['latency_p99_ms']:>9.2f}ms "
                  f"{d['rows_per_sec']:>12,.0f} rows/s")
        print(f"  {row['workload']:>14} daemon speedup "
              f"{row['daemon_speedup_vs_single']}x throughput, "
              f"{row['daemon_p99_vs_single']}x p99")
    print(f"  headline: daemon {section['daemon_speedup_best']}x vs "
          "single-process under load")
    dts = drift.get("detection_to_swap_seconds")
    print(f"  drift recovery: detected after {drift['batches_to_detection']} "
          f"drifted batch(es), detection->swap "
          + (f"{dts:.2f}s" if dts is not None else "n/a")
          + f", AUPRC {drift['auprc_before_drift']:.3f} -> "
          f"{drift['auprc_final']:.3f} "
          f"({'recovered' if drift['recovered'] else 'NOT recovered'})")


if __name__ == "__main__":
    main()
