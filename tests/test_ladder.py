"""Tests for ``tools/ladder.py``, the runner that times whole ``napx
solve`` processes on a seeded instance ladder."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ladder", Path(__file__).resolve().parents[1] / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def test_smoke_tier_writes_a_bench_file(tmp_path):
    """One run of the two-rung smoke tier writes ``BENCH_smoke.json`` with
    the machine, and per rung its runs, exit code, wall times, peak RSS
    and the solution document's grid and work counts."""
    assert ladder.main(["smoke", "--runs", "1", "--dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert {k: doc[k] for k in ("format", "version", "label", "tiers", "runs")} == {
        "format": "napx-ladder", "version": 1, "label": "smoke",
        "tiers": ["smoke"], "runs": 1}
    assert set(doc["machine"]) == {"cpu_count", "python", "numpy", "platform"}
    assert doc["machine"]["cpu_count"] >= 1 and doc["machine"]["numpy"]
    assert [r["name"] for r in doc["rungs"]] == ["yule-n16-e0.3",
                                                 "caterpillar-n16-e0.3"]
    for rung in doc["rungs"]:
        assert rung["tier"] == "smoke" and rung["n"] == 16 and rung["seed"] == 1
        assert rung["exit"] == 0 and rung["error"] is None
        (run,) = rung["runs"]
        assert run["exit"] == 0
        assert 0 < rung["wall_s_min"] == rung["wall_s_median"] == run["wall_s"]
        assert 0 < rung["peak_rss_mb"] == run["peak_rss_mb"]
        sol = rung["solution"]
        assert set(sol) == set(ladder.SOLUTION_FIELDS)
        assert sol["t"] >= 1 and sol["k"] >= 1
        assert sol["candidate_pairs"] > 0 and sol["table_cells"] > 0
        assert 0 < sol["wall_s"] < run["wall_s"]
