"""Inference throughput: autodiff graph path vs compiled graph-free path.

Measures rows/sec through ``forward_in_batches`` — the entry point every
read path in the repository uses — for two workloads:

- ``classifier_head`` — the TargAD classifier MLP that scores every
  serving batch (``score_batch``/``decision_function``). This is the
  primary serving workload and the headline number.
- ``autoencoder_fallback`` — the fused candidate-selection autoencoder
  the degraded fallback scores with. Its wider matmuls are BLAS-bound,
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

Merges its keys into ``BENCH_inference.json`` at the repo root: the file
is read, this bench's top-level keys are replaced, and every other
section (``traffic_replay`` / ``drift_recovery`` from
``bench_replay.py``) is kept. Non-gating: the ci.sh ``bench`` lane runs
this for trend tracking, not as a pass/fail check.

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
    # Candidate-selection AE, encoder+decoder fused (Eq. 2 read path).
    "autoencoder_fallback": [32, 64, 16, 64, 32],
}

#: Backend-comparison workloads: the SQB one-hot regime (a small dense
#: numeric prefix followed by wide one-hot categorical blocks) at the
#: 182-feature width, through the TargAD classifier-head and AE-fallback
#: shapes. These batches are where the tiled backend's sparse-aware
#: first-layer kernel replaces most of the first matmul with per-row
#: weight gathers; dense workloads above stay on the reference numbers.
BACKEND_WORKLOADS = {
    "sqb_onehot_head": [182, 64, 32, 5],
    "sqb_onehot_ae": [182, 128, 32, 128, 182],
}
ONEHOT_DENSE_FEATURES = 20
ONEHOT_BLOCKS = (122, 40)

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
        "backend": "numpy",
        "rows": ROWS,
        "graph_rows_per_sec": round(ROWS / best["graph"], 1),
        "compiled_rows_per_sec": round(ROWS / best["compiled"], 1),
        "compiled_f32_rows_per_sec": round(ROWS / best["f32"], 1),
        "speedup_compiled_vs_graph": round(best["graph"] / best["compiled"], 2),
        "speedup_f32_vs_graph": round(best["graph"] / best["f32"], 2),
    }


def _make_onehot_batch(rng, rows: int) -> np.ndarray:
    """An SQB-regime batch: dense numeric prefix + Zipf one-hot blocks."""
    d = ONEHOT_DENSE_FEATURES + sum(ONEHOT_BLOCKS)
    X = np.zeros((rows, d))
    X[:, :ONEHOT_DENSE_FEATURES] = rng.normal(size=(rows, ONEHOT_DENSE_FEATURES))
    off = ONEHOT_DENSE_FEATURES
    for b in ONEHOT_BLOCKS:
        p = (1.0 / np.arange(1, b + 1)) ** 1.2
        idx = rng.choice(b, size=rows, p=p / p.sum())
        X[np.arange(rows), off + idx] = 1.0
        off += b
    return X


def _measure_backend_compare(name: str, repeats: int) -> dict:
    """Compiled rows/sec under the numpy vs tiled backend, interleaved.

    Both backends run the identical compiled plan structure on the same
    one-hot batches; the tiled backend's sparse fused kernel is asserted
    to both fire (``sparse_hits``) and agree with the reference output to
    its published 1e-9 parity tolerance before any timing is trusted.
    """
    from repro.backend import get_backend, use_backend
    from repro.nn import forward_in_batches
    from repro.nn.layers import mlp

    sizes = BACKEND_WORKLOADS[name]
    rng = np.random.default_rng(0)
    output_activation = "relu" if name == "sqb_onehot_ae" else "linear"
    model = mlp(sizes, activation="relu",
                output_activation=output_activation, rng=rng)
    X = _make_onehot_batch(rng, ROWS)

    def once() -> float:
        start = time.perf_counter()
        forward_in_batches(model, X, batch_size=BATCH_SIZE)
        return time.perf_counter() - start

    tiled = get_backend("tiled")
    reference = forward_in_batches(model, X, batch_size=BATCH_SIZE)
    hits_before = tiled.sparse_hits
    with use_backend("tiled"):
        got = forward_in_batches(model, X, batch_size=BATCH_SIZE)
    if tiled.sparse_hits == hits_before:
        raise RuntimeError(f"{name}: tiled sparse path never fired")
    np.testing.assert_allclose(got, reference, atol=tiled.parity_atol, rtol=0)

    best = {"numpy": float("inf"), "tiled": float("inf")}
    for _ in range(repeats):
        best["numpy"] = min(best["numpy"], once())
        with use_backend("tiled"):
            best["tiled"] = min(best["tiled"], once())
    return {
        "workload": name,
        "backend": "numpy+tiled",
        "rows": ROWS,
        "onehot_blocks": list(ONEHOT_BLOCKS),
        "numpy_rows_per_sec": round(ROWS / best["numpy"], 1),
        "tiled_rows_per_sec": round(ROWS / best["tiled"], 1),
        "speedup_tiled_vs_numpy": round(best["numpy"] / best["tiled"], 2),
    }


def run(repeats: int) -> dict:
    results = []
    for name in [*WORKLOADS, *BACKEND_WORKLOADS]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.update(THREAD_ENV)
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", name,
             "--repeats", str(repeats)],
            capture_output=True, text=True, check=True,
            cwd=REPO_ROOT, env=env,
        )
        results.append(json.loads(proc.stdout))
    serving = [r for r in results if r["workload"] == "classifier_head"]
    compares = [r for r in results if r["workload"] in BACKEND_WORKLOADS]
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
        # Best tiled-backend win on the SQB one-hot workloads (the
        # bench_baseline.json floor checks this, non-gating).
        "tiled_speedup_vs_numpy_max": max(
            r["speedup_tiled_vs_numpy"] for r in compares
        ),
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
                        choices=sorted([*WORKLOADS, *BACKEND_WORKLOADS]),
                        help="internal: measure one workload, print JSON")
    args = parser.parse_args()
    if args.worker in BACKEND_WORKLOADS:
        print(json.dumps(_measure_backend_compare(args.worker, args.repeats)))
        return
    if args.worker:
        print(json.dumps(_measure(args.worker, args.repeats)))
        return
    payload = run(args.repeats)
    merge_into(args.out, payload)
    print(f"merged inference_throughput keys into {args.out}")
    for row in payload["results"]:
        if row["workload"] in BACKEND_WORKLOADS:
            print(
                f"  {row['workload']:>20} rows={row['rows']:<6} "
                f"numpy={row['numpy_rows_per_sec']:>12,.0f} r/s  "
                f"tiled={row['tiled_rows_per_sec']:>12,.0f} r/s  "
                f"({row['speedup_tiled_vs_numpy']}x)"
            )
            continue
        print(
            f"  {row['workload']:>20} rows={row['rows']:<6} "
            f"graph={row['graph_rows_per_sec']:>12,.0f} r/s  "
            f"compiled={row['compiled_rows_per_sec']:>12,.0f} r/s  "
            f"({row['speedup_compiled_vs_graph']}x, "
            f"f32 {row['speedup_f32_vs_graph']}x)"
        )
    print(
        "  serving headline: "
        f"{payload['serving_speedup_compiled_vs_graph']}x compiled, "
        f"{payload['serving_speedup_f32_vs_graph']}x float32, "
        f"tiled-vs-numpy {payload['tiled_speedup_vs_numpy_max']}x (one-hot)"
    )


if __name__ == "__main__":
    main()
