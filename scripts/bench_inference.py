"""Inference throughput: autodiff graph path vs compiled graph-free path.

Measures rows/sec through ``forward_in_batches`` — the entry point every
read path in the repository uses — for two workloads:

- ``classifier_head`` — the TargAD classifier MLP that scores every
  serving batch (``score_batch``/``decision_function``). This is the
  primary serving workload and the headline number.
- ``autoencoder_fallback`` — the candidate-selection autoencoder (encoder
  and decoder as one plan) the degraded fallback scores with. Its wider matmuls are BLAS-bound,
  so the compiled path's allocation savings matter less.

Three variants per forward workload, interleaved inside a single timing
loop so clock drift and CPU frequency scaling hit all variants equally:

- ``graph``        — Tensor graph forward (``force_graph_forward()``)
- ``compiled``     — compiled float64 plan (the serving default)
- ``compiled_f32`` — compiled float32 plan (opt-in reduced precision)

Each workload runs in its own subprocess. This is deliberate: the graph
path's throughput depends on allocator history (glibc raises its mmap
threshold after large frees, which can double the speed of the graph
path's per-op temporary allocations), so measuring workloads back to
back in one process lets the first workload change what the second one
measures. A fresh process per workload is both isolated and what a
fresh serving process actually experiences. Worker subprocesses run
with BLAS/OMP thread pools pinned to one thread (the payload records
the pinning and the host's ``cpu_count``), so numbers compare across
runs instead of tracking whatever thread count the host BLAS picked.

A ``drift_check`` section times ``DriftMonitor.check`` against the
grid-based oracle — a per-feature ``ks_statistic`` loop (exact-mass rule
on constant reference columns) — on unsw_nb15 at scale 0.05 (196
features) with the 2,000-row reference the end-to-end benchmark uses, at
64 / 256 / 1024 / 2048 rows. The two are timed in interleaved repeats
and reported as median and interquartile range; the worker asserts the
monitor's statistics equal the oracle's bitwise before timing.

Merges its keys into ``BENCH_inference.json`` at the repo root: the file
is read, this bench's top-level keys (including ``drift_check``) are
replaced, and every other section (``traffic_replay`` /
``drift_recovery`` from ``bench_replay.py``) is kept. Non-gating: the
ci.sh ``bench`` lane runs this for trend tracking, not as a pass/fail
check.

Usage::

    PYTHONPATH=src python scripts/bench_inference.py [--repeats 9] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
BATCH_SIZE = 2048
ROWS = 16384

#: name -> mlp() layer sizes (all take 32 input features).
WORKLOADS = {
    # TargAD classifier head: features -> m + k logits (Eq. 9 inputs).
    "classifier_head": [32, 64, 32, 5],
    # Candidate-selection AE, encoder+decoder as one plan (Eq. 2 read path).
    "autoencoder_fallback": [32, 64, 16, 64, 32],
}

#: Batch sizes of the drift_check section.
DRIFT_ROWS = (64, 256, 1024, 2048)
DRIFT_REFERENCE_ROWS = 2000

#: Pin every BLAS/OMP pool to one thread in worker subprocesses so the
#: numbers measure the code, not the host's implicit thread count.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _measure(name: str, repeats: int) -> dict:
    """Best-of-``repeats`` rows/sec per variant, variants interleaved."""
    from repro.backend import inference_precision
    from repro.nn import force_graph_forward, forward_in_batches
    from repro.nn.layers import mlp

    sizes = WORKLOADS[name]
    rng = np.random.default_rng(0)
    output_activation = "relu" if name == "autoencoder_fallback" else "linear"
    model = mlp(sizes, activation="relu",
                output_activation=output_activation, rng=rng)
    X = rng.normal(size=(ROWS, sizes[0]))

    def once() -> float:
        start = time.perf_counter()
        forward_in_batches(model, X, batch_size=BATCH_SIZE)
        return time.perf_counter() - start

    # Warm every variant (first call allocates plan buffers / graph arrays).
    with force_graph_forward():
        once()
    once()
    with inference_precision(np.float32):
        once()
    best = {"graph": float("inf"), "compiled": float("inf"), "f32": float("inf")}
    for _ in range(repeats):
        with force_graph_forward():
            best["graph"] = min(best["graph"], once())
        best["compiled"] = min(best["compiled"], once())
        with inference_precision(np.float32):
            best["f32"] = min(best["f32"], once())
    return {
        "workload": name,
        "rows": ROWS,
        "graph_rows_per_sec": round(ROWS / best["graph"], 1),
        "compiled_rows_per_sec": round(ROWS / best["compiled"], 1),
        "compiled_f32_rows_per_sec": round(ROWS / best["f32"], 1),
        "speedup_compiled_vs_graph": round(best["graph"] / best["compiled"], 2),
        "speedup_f32_vs_graph": round(best["graph"] / best["f32"], 2),
    }


def _oracle_statistics(reference: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-feature drift statistics from the grid-based ``ks_statistic``."""
    from repro.serving.drift import _CONST_ATOL, _CONST_RTOL, ks_statistic

    stats = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        ref = reference[:, j][np.isfinite(reference[:, j])]
        values = X[:, j][np.isfinite(X[:, j])]
        if len(ref) == 0 or len(values) == 0:
            continue
        if ref.min() == ref.max():
            moved = ~np.isclose(values, ref[0], rtol=_CONST_RTOL, atol=_CONST_ATOL)
            stats[j] = float(moved.mean())
        else:
            stats[j] = ks_statistic(ref, values)
    return stats


def _quartiles_ms(seconds: list) -> dict:
    q25, q50, q75 = np.percentile(np.asarray(seconds) * 1e3, [25, 50, 75])
    return {"median_ms": round(q50, 3), "iqr_ms": round(q75 - q25, 3),
            "q25_ms": round(q25, 3), "q75_ms": round(q75, 3)}


def _measure_drift(repeats: int) -> dict:
    """``DriftMonitor.check`` vs the oracle loop, interleaved, per batch size."""
    from repro.data import load_dataset
    from repro.serving.drift import DriftMonitor

    split = load_dataset("unsw_nb15", scale=0.05, random_state=0)
    rng = np.random.default_rng(0)
    pick = rng.choice(len(split.X_unlabeled), size=DRIFT_REFERENCE_ROWS, replace=False)
    reference = split.X_unlabeled[np.sort(pick)]
    pool = np.vstack([split.X_val, split.X_test])
    monitor = DriftMonitor().fit(reference)
    rows_out = []
    for rows in DRIFT_ROWS:
        X = pool[rng.integers(0, len(pool), rows)]
        got = monitor.check(X).statistics
        expected = _oracle_statistics(monitor._reference, X)
        if not np.array_equal(got.view(np.uint64), expected.view(np.uint64)):
            raise AssertionError(f"DriftMonitor.check differs from ks_statistic at {rows} rows")
        times = {"check": [], "oracle": []}
        for _ in range(repeats):
            start = time.perf_counter()
            monitor.check(X)
            times["check"].append(time.perf_counter() - start)
            start = time.perf_counter()
            _oracle_statistics(monitor._reference, X)
            times["oracle"].append(time.perf_counter() - start)
        check, oracle = _quartiles_ms(times["check"]), _quartiles_ms(times["oracle"])
        rows_out.append({
            "rows": rows,
            "check": check,
            "oracle_loop": oracle,
            "speedup_median": round(oracle["median_ms"] / check["median_ms"], 2),
            # The check's slow quartile is below the oracle's fast one.
            "faster_outside_iqr": bool(check["q75_ms"] < oracle["q25_ms"]),
            "bitwise_equal": True,
        })
    return {
        "workload": "drift_check",
        "dataset": "unsw_nb15 scale=0.05",
        "features": int(reference.shape[1]),
        "reference_rows": int(len(monitor._reference)),
        "results": rows_out,
    }


def _git_sha() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, cwd=REPO_ROOT).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "scripts"],
                               capture_output=True, text=True, check=True,
                               cwd=REPO_ROOT).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    return sha + ("+dirty" if dirty else "")


def _run_worker(name: str, repeats: int) -> dict:
    """Run one measurement in a fresh, BLAS-pinned subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", name,
         "--repeats", str(repeats)],
        capture_output=True, text=True, check=True,
        cwd=REPO_ROOT, env=env,
    )
    return json.loads(proc.stdout)


def run(repeats: int) -> dict:
    results = [_run_worker(name, repeats) for name in WORKLOADS]
    drift = _run_worker("drift_check", repeats)
    drift.update(repeats=repeats, cpu_count=os.cpu_count(),
                 thread_env=dict(THREAD_ENV), git_sha=_git_sha())
    serving = [r for r in results if r["workload"] == "classifier_head"]
    return {
        "benchmark": "inference_throughput",
        "repeats": repeats,
        "batch_size": BATCH_SIZE,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": dict(THREAD_ENV),
        "results": results,
        # Headline: the serving scoring path every batch goes through.
        "serving_speedup_compiled_vs_graph": min(
            r["speedup_compiled_vs_graph"] for r in serving
        ),
        "serving_speedup_f32_vs_graph": min(
            r["speedup_f32_vs_graph"] for r in serving
        ),
        "drift_check": drift,
    }


def merge_into(path: Path, payload: dict) -> None:
    """Replace this bench's top-level keys in ``path``, keep the rest."""
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_inference.json")
    parser.add_argument("--worker",
                        choices=sorted(WORKLOADS) + ["drift_check"],
                        help="internal: measure one workload, print JSON")
    args = parser.parse_args()
    if args.worker == "drift_check":
        print(json.dumps(_measure_drift(args.repeats)))
        return
    if args.worker:
        print(json.dumps(_measure(args.worker, args.repeats)))
        return
    payload = run(args.repeats)
    merge_into(args.out, payload)
    print(f"merged inference_throughput keys into {args.out}")
    for row in payload["results"]:
        print(
            f"  {row['workload']:>20} rows={row['rows']:<6} "
            f"graph {row['graph_rows_per_sec']:>12,.0f} r/s  "
            f"compiled {row['compiled_rows_per_sec']:>12,.0f} r/s  "
            f"({row['speedup_compiled_vs_graph']}x, "
            f"f32 {row['speedup_f32_vs_graph']}x)"
        )
    for row in payload.get("drift_check", {}).get("results", ()):
        print(
            f"  {'drift_check':>20} rows={row['rows']:<6} "
            f"check {row['check']['median_ms']:>8.2f} ms  "
            f"oracle {row['oracle_loop']['median_ms']:>8.2f} ms  "
            f"({row['speedup_median']}x)"
        )
    print(
        "  serving headline: "
        f"{payload['serving_speedup_compiled_vs_graph']}x compiled, "
        f"{payload['serving_speedup_f32_vs_graph']}x float32"
    )


if __name__ == "__main__":
    main()
