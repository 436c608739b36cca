"""The bench scripts share one BENCH file and must not erase each other.

``scripts/bench_inference.py`` and ``scripts/bench_replay.py`` each own
some top-level keys of ``BENCH_inference.json``. Either one rewriting
the file wholesale drops the other's sections, so both merge.
"""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_inference_keeps_foreign_sections(tmp_path, monkeypatch):
    bench = _load("bench_inference")
    out = tmp_path / "BENCH_inference.json"
    replay = {"daemon_speedup_best": 2.2, "results": []}
    out.write_text(json.dumps({
        "traffic_replay": replay,
        "drift_recovery": {"recovered": True},
        "results": ["stale row"],
    }))
    fresh = {
        "benchmark": "inference_throughput",
        "results": [],
        "serving_speedup_compiled_vs_graph": 3.0,
        "serving_speedup_f32_vs_graph": 4.0,
    }
    monkeypatch.setattr(bench, "run", lambda repeats: dict(fresh))
    monkeypatch.setattr(sys, "argv", ["bench_inference.py", "--out", str(out)])
    bench.main()

    written = json.loads(out.read_text())
    assert written["traffic_replay"] == replay
    assert written["drift_recovery"] == {"recovered": True}
    for key, value in fresh.items():
        assert written[key] == value  # own keys replaced, not appended


def test_bench_inference_creates_missing_file(tmp_path):
    bench = _load("bench_inference")
    out = tmp_path / "BENCH_inference.json"
    bench.merge_into(out, {"benchmark": "inference_throughput"})
    assert json.loads(out.read_text()) == {"benchmark": "inference_throughput"}


def test_bench_inference_writes_drift_check_section(tmp_path, monkeypatch):
    bench = _load("bench_inference")
    out = tmp_path / "BENCH_inference.json"
    replay = {"daemon_speedup_best": 2.2, "results": []}
    out.write_text(json.dumps({
        "traffic_replay": replay,
        "drift_recovery": {"recovered": True},
        "drift_check": {"results": ["stale row"]},
    }))
    drift_rows = [{"rows": 64, "check": {"median_ms": 2.0},
                   "oracle_loop": {"median_ms": 20.0}, "speedup_median": 10.0}]

    def fake_worker(name, repeats):
        if name == "drift_check":
            return {"workload": "drift_check", "results": drift_rows}
        return {"workload": name, "rows": 16, "graph_rows_per_sec": 1.0,
                "compiled_rows_per_sec": 3.0, "speedup_compiled_vs_graph": 3.0,
                "speedup_f32_vs_graph": 4.0}

    monkeypatch.setattr(bench, "_run_worker", fake_worker)
    monkeypatch.setattr(sys, "argv", ["bench_inference.py", "--out", str(out),
                                      "--repeats", "3"])
    bench.main()

    written = json.loads(out.read_text())
    assert written["traffic_replay"] == replay
    assert written["drift_recovery"] == {"recovered": True}
    drift = written["drift_check"]
    assert drift["results"] == drift_rows  # replaced, not appended
    assert drift["repeats"] == 3
    assert drift["cpu_count"] >= 1
    assert drift["git_sha"]
    assert drift["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_bench_drift_oracle_matches_monitor():
    import numpy as np

    from repro.serving import DriftMonitor

    bench = _load("bench_inference")
    rng = np.random.default_rng(0)
    reference = np.round(rng.normal(size=(300, 4)), 1)
    reference[:, 3] = 2.0
    X = np.round(rng.normal(0.2, 1.0, size=(50, 4)), 1)
    X[:5, 0] = np.nan
    monitor = DriftMonitor().fit(reference)
    expected = bench._oracle_statistics(monitor._reference, X)
    got = monitor.check(X).statistics
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_bench_drift_worker_output_is_json():
    bench = _load("bench_inference")
    payload = json.loads(json.dumps(bench._measure_drift(repeats=1)))
    assert [row["rows"] for row in payload["results"]] == list(bench.DRIFT_ROWS)
    assert payload["features"] == 196 and payload["reference_rows"] == 2000
    assert all(row["bitwise_equal"] for row in payload["results"])
