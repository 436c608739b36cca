"""End-to-end benchmark of TargAD fit and ScoringPipeline serving.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serve_drift --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Every metric is printed by name with its unit,
followed by the environment and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, notes, layer split) goes to
``.bench_build/perfbench/results/`` and traced spans to
``.bench_build/perfbench/traces/``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

#: BLAS/OpenMP pools pinned to one thread: with the two cores shared by
#: the load generator, the daemon worker and OpenBLAS threads, fit slows
#: several-fold from oversubscription.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_build" / "perfbench"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(args) -> dict:
    import numpy as np

    from repro.backend import active_backend

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": getattr(active_backend(), "name", type(active_backend()).__name__),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that the output checks catch perturbed outputs")
    args = parser.parse_args(argv)

    for key, value in THREAD_ENV.items():
        os.environ[key] = value
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.selftest:
        from checks import self_test

        failures = self_test()
        for failure in failures:
            print(f"selftest FAILED: {failure}")
        print("selftest passed" if not failures else "selftest failed")
        return 1 if failures else 0

    from workloads import DAEMON_LAYER_UNITS, E2E_UNITS, LAYER_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), str(WORKDIR))

    units = dict(LAYER_UNITS) if args.trace else dict(E2E_UNITS)
    if args.trace and args.workload == "serve_daemon":
        units.update(DAEMON_LAYER_UNITS)
    source = outcome.layers if args.trace else outcome.metrics
    missing = [name for name in units if name not in source]
    if missing:
        outcome.correct = False
        outcome.notes["missing_metrics"] = missing
    metrics = {
        name: {"value": float(source.get(name, float("nan"))), "unit": unit}
        for name, unit in units.items()
    }
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    correct = outcome.correct and outcome.failed == 0 and outcome.attempted > 0
    env = environment(args)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'error_rate':40s} {error_rate:14.6g} ratio "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for problem, count in outcome.problems.most_common():
        print(f"  failure: {problem} (x{count})")
    if outcome.split:
        print("  self time by layer, as a share of traced wall time and of the root spans:")
        ranked = sorted(outcome.split.items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in ranked:
            print(f"    {name:38s} {row['self_s']:10.4f} s {100 * row['share_of_wall']:6.1f}%"
                  f" {100 * row['share_of_root']:6.1f}%  ({row['calls']} calls)")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    for key, value in outcome.notes.items():
        print(f"  note.{key} = {value}")

    record = {
        "env": env, "metrics": metrics, "error_rate": error_rate,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": dict(outcome.problems), "notes": outcome.notes,
        "layer_split": outcome.split, "correct": correct, "samples": outcome.samples,
    }
    results = WORKDIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=float))

    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
