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
