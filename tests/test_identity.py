"""Tests for ``tools/identity.py``, the check that results are bit for bit
those of a git revision."""

import importlib.util
import json
from pathlib import Path

from napx import solver

from util import data_path

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

_SMALL_BATCHES = {"PAIR_LIMIT": 4096, "BATCH_PAIRS": 8}
_CASES = [
    identity.gen_case("yule", 16, 1, 0.1),
    dict(identity.gen_case("yule", 16, 1, 0.1), limits=_SMALL_BATCHES),
    dict(identity.gen_case("caterpillar", 9, 0, 0.3),
         limits={"PAIR_LIMIT": 3}),
    identity.text_case("tiny_b", Path(data_path("tiny_b.nap.json")).read_text(),
                       "json", 0.1),
]


def test_dump_twice_gives_equal_lines():
    """Dumping a corpus of four cases twice in one process gives equal
    lines: a solve, the same solve in batches of at most 8 pairs, which
    keeps every contract field, a combine refused above a patched pair
    limit (exit 3) and an input refused (exit 2). The patched limits are
    restored after each case."""
    limits = solver.PAIR_LIMIT, solver.BATCH_PAIRS
    first = list(identity.dump_lines(_CASES))
    second = list(identity.dump_lines(_CASES))
    assert first == second
    assert (solver.PAIR_LIMIT, solver.BATCH_PAIRS) == limits
    lines = [json.loads(line) for line in first]
    assert [line["contract"]["exit"] for line in lines] == [0, 0, 3, 2]
    assert lines[0]["contract"] == lines[1]["contract"]
    assert lines[1]["limits"] == _SMALL_BATCHES
    assert "above the limit of 3" in lines[2]["contract"]["message"]
    assert identity.first_difference(first, second) is None


def test_first_difference_names_the_solve_and_the_field():
    """A changed contract field is reported with its solve and its name,
    the first such field in report order; a changed note is not a
    difference, nor is anything when the dumps agree."""
    before = list(identity.dump_lines(_CASES[:2]))
    changed = json.loads(before[1])
    changed["contract"]["scores"] = "0" * 64
    changed["contract"]["selection"] = []
    after = [before[0], json.dumps(changed)]
    report = identity.first_difference(before, after)
    assert report.startswith("solve 1 (yule-n16-s1, epsilon 0.1")
    assert "scores differs" in report and "selection" not in report
    noted = json.loads(before[0])
    noted["notes"]["stats"]["table_cells"] += 1
    assert identity.first_difference(before, [json.dumps(noted), before[1]]) is None
    assert "1 and 2 solves" in identity.first_difference(before[:1], before)
