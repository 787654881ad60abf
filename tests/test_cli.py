"""Tests for the command line interface, run in process via main()."""

import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import napx.cli
from napx.baselines import BRUTE_FORCE_LIMIT
from napx.cli import BENCH_COLUMNS, _ratio, main
from napx.errors import InternalError
from napx.generators import GenSpec, generate
from napx.io import (SolutionDocument, load_instance, parse_solution,
                     write_instance, write_solution)
from napx.model import validate_instance
from napx.newick import fmt_float

from util import data_path

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def no_generate(monkeypatch):
    """Fail the test if the CLI generates an instance."""
    def refuse(spec):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(napx.cli, "generate", refuse)


# ------------------------------------------------------------------------- #
#  solve / exact / pg
# ------------------------------------------------------------------------- #

def test_solve_writes_solution(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", data_path("hand.nap.json"),
                     "--epsilon", "0.2", "--out", str(out))
    assert code == 0
    doc = parse_solution(out.read_text())
    assert doc.solver == "napx"
    assert doc.budget == 2
    assert doc.evaluated_score >= doc.reported_score - 1e-6
    assert doc.params["epsilon"] == 0.2
    assert "wall_s" in doc.stats


def test_solve_stdout_and_oracle(capsys):
    code, out, _ = run(capsys, "solve", data_path("hand.nap.json"), "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["ratio"] >= 0.9
    assert doc["stats"]["oracle_score"] >= doc["evaluated_score"] - 1e-9


def test_exact_and_pg(tmp_path, capsys):
    code, out, _ = run(capsys, "exact", data_path("hand.nap.json"))
    assert code == 0
    assert json.loads(out)["solver"] == "exact"

    code, out, _ = run(capsys, "pg", data_path("unit.nap.nwk"))
    assert code == 0
    doc = json.loads(out)
    assert doc["solver"] == "pg"
    assert doc["reported_score"] == doc["evaluated_score"]


def test_pg_restriction_exit_code(capsys):
    code, _, err = run(capsys, "pg", data_path("hand.nap.json"))
    assert code == 3
    assert "a=0" in err


def test_pg_invalid_instance_outside_restriction_exits_2(capsys):
    """An instance that is both invalid (a > b) and outside a = 0, b = 1 is
    bad input first: exit 2, not the restriction's exit 3."""
    code, _, err = run(capsys, "pg", data_path("bad_semantics.nap.json"))
    assert code == 2
    assert "exceeds" in err
    assert "violated by" not in err


def test_solve_oracle_too_large_is_refused_before_solving(tmp_path, capsys,
                                                          monkeypatch):
    """An oracle over more taxa than exhaustive search takes exits 3, with
    the message of exact, before any table is built; a bad epsilon is
    still reported first, with exit 2."""
    n = BRUTE_FORCE_LIMIT + 1
    path = tmp_path / "big.nap.json"
    path.write_text(write_instance(generate(GenSpec(n=n, topology="yule", seed=1)),
                                   "json"))

    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(napx.cli, "solve", no_solve)
    code, out, err = run(capsys, "solve", str(path), "--oracle")
    assert code == 3
    assert out == ""
    assert err == (f"error: brute force is capped at {BRUTE_FORCE_LIMIT} taxa, "
                   f"instance has {n}\n")
    _, _, exact_err = run(capsys, "exact", str(path))
    assert exact_err == err

    code, _, err = run(capsys, "solve", str(path), "--oracle", "--epsilon", "1.5")
    assert code == 2
    assert "epsilon" in err


# ------------------------------------------------------------------------- #
#  gen
# ------------------------------------------------------------------------- #

def test_gen_to_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "g.nap.nwk"
    code, _, _ = run(capsys, "gen", "--topology", "caterpillar", "-n", "5",
                     "--seed", "9", "--out", str(out))
    assert code == 0
    inst, meta = load_instance(str(out))
    assert inst.tree.n_leaves == 5
    assert meta == {"name": "caterpillar-n5-s9", "seed": 9}

    code, text, _ = run(capsys, "gen", "--topology", "yule", "-n", "4",
                        "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["format"] == "nap-instance"
    assert len(doc["taxa"]) == 4


def test_gen_deterministic_bytes(tmp_path, capsys):
    _, a, _ = run(capsys, "gen", "--topology", "yule", "-n", "6", "--seed", "2")
    _, b, _ = run(capsys, "gen", "--topology", "yule", "-n", "6", "--seed", "2")
    assert a == b


def test_gen_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "gen", "--topology", "yule", "-n", "4",
                         "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--topology", "yule", "-n", "131073", "--seed", "1"],
    ["bench", "--sizes", "131073"],
    ["bench", "--sizes", "4,131073", "--seeds", "0-999999"],
], ids=["gen", "bench", "bench-after-a-small-size"])
def test_generation_above_the_size_limit_exits_3_at_once(argv, no_generate, capsys):
    """More leaves than GEN_LIMIT is refused work: exit 3 before any
    instance is generated, and neither a million seeds nor the leaves are
    ever held in memory."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == "error: generating is capped at 131072 leaves, got n=131073\n"
    assert peak < 1 << 20


def test_gen_checks_the_out_suffix_before_generating(tmp_path, no_generate, capsys):
    """An --out without an instance suffix exits 2 before any draw, even
    at a size that takes seconds to generate, and creates no file."""
    target = tmp_path / "x.txt"
    assert run(capsys, "gen", "--topology", "yule", "-n", "131072", "--seed", "1",
               "--out", str(target)) == (
        2, "", f"error: cannot tell the format of {str(target)!r} from its "
               "suffix; expected .nap.json or .nap.nwk\n")
    assert not target.exists()


def test_bench_seed_ranges_run_in_order(monkeypatch, capsys):
    """Seed tokens are kept as ranges and run in the order given."""
    seen: list[int] = []

    def spy(spec):
        seen.append(spec.seed)
        return generate(spec)

    monkeypatch.setattr(napx.cli, "generate", spy)
    code, _, _ = run(capsys, "bench", "--sizes", "3", "--topologies", "yule",
                     "--seeds", "4-6,1,2-2", "--solvers", "pg")
    assert code == 0
    assert seen == [4, 5, 6, 1, 2]
    assert napx.cli._parse_seeds("0-999999,3") == [range(1000000), range(3, 4)]


def test_gen_cost_bound_beyond_int64_exits_2(capsys):
    """numpy draws costs as int64: a higher upper bound is bad input."""
    code, out, err = run(capsys, "gen", "--topology", "yule", "-n", "4",
                         "--seed", "1", "--c-range", "1",
                         "100000000000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "c_range" in err


# ------------------------------------------------------------------------- #
#  eval
# ------------------------------------------------------------------------- #

def test_eval_feasible(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    run(capsys, "solve", data_path("hand.nap.json"), "--out", str(sol))
    code, out, _ = run(capsys, "eval", data_path("hand.nap.json"), str(sol))
    assert code == 0
    assert "feasible: yes" in out


def test_eval_infeasible_exit_code(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    run(capsys, "solve", data_path("hand.nap.json"), "--out", str(sol))
    doc = json.loads(sol.read_text())
    doc["selected"] = ["u", "v", "w"]        # cost 4 over budget 2
    sol.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", data_path("hand.nap.json"), str(sol))
    assert code == 3
    assert "feasible: no" in out


def test_eval_rejects_a_repeated_id(tmp_path, capsys):
    """A solution that lists one taxon twice is malformed, not the set
    without the repeat: eval names the id and exits 2."""
    sol = tmp_path / "sol.json"
    run(capsys, "solve", data_path("hand.nap.json"), "--out", str(sol))
    doc = json.loads(sol.read_text())
    doc["selected"] = ["u", "v", "u"]
    sol.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", data_path("hand.nap.json"), str(sol))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'u' more than once" in err


@pytest.mark.parametrize("verb", ["solve", "exact"])
def test_eval_untouched_solution_prints_no_note(verb, tmp_path, capsys):
    """Branch lengths near 1e5 put the score past 12 significant digits of
    absolute precision: the file's rounded score still matches."""
    inst = data_path("long_lengths.nap.json")
    sol = tmp_path / "sol.json"
    assert run(capsys, verb, inst, "--out", str(sol))[0] == 0
    assert json.loads(sol.read_text())["evaluated_score"] > 1e5
    code, out, _ = run(capsys, "eval", inst, str(sol))
    assert code == 0
    assert "note:" not in out


@pytest.mark.parametrize("name,fragment", [
    ("bad_semantics.nap.json", "exceeds b"),
    ("missing_taxon.nap.json", "has no taxon record"),
])
def test_eval_rejects_an_invalid_instance(name, fragment, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text(write_solution(SolutionDocument(
        solver="napx", budget=2, selected=("u",), total_cost=1,
        reported_score=0.0, evaluated_score=0.0)))
    code, out, err = run(capsys, "eval", data_path(name), str(sol))
    assert code == 2
    assert err.startswith("error:") and fragment in err
    assert out == ""


def test_eval_notes_a_changed_score(tmp_path, capsys):
    inst = data_path("long_lengths.nap.json")
    sol = tmp_path / "sol.json"
    run(capsys, "solve", inst, "--out", str(sol))
    doc = json.loads(sol.read_text())
    doc["evaluated_score"] += 0.01
    sol.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", inst, str(sol))
    assert code == 0
    assert "note: solution file claimed evaluated_score" in out


# ------------------------------------------------------------------------- #
#  bench
# ------------------------------------------------------------------------- #

def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--sizes", "5,6", "--topologies", "yule",
                     "--seeds", "0-1", "--epsilon", "0.3", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == BENCH_COLUMNS
    # 2 sizes x 2 seeds x 3 solvers
    assert len(rows) == 12
    for row in rows:
        assert row["schema_version"] == "1"
        if row["solver"] == "napx":
            assert row["k"] and row["t"] and row["fast_path"]
            assert float(row["ratio"]) >= 0.7
        if row["solver"] == "exact":
            assert float(row["ratio"]) == 1.0
        if row["solver"] == "pg":
            # random instances violate the restriction; error is recorded
            assert row["error"]
            assert row["reported_score"] == ""


def test_bench_restricted_instances_let_pg_run(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "5", "--topologies",
                       "caterpillar", "--seeds", "0", "--solvers", "pg,exact")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    pg_row = [r for r in rows if r["solver"] == "pg"][0]
    assert pg_row["error"]                    # default generator taxa a > 0


def test_baselines_are_looked_up_at_call_time(monkeypatch, capsys):
    """A replaced ``napx.cli.brute_force`` or ``napx.cli.pardi_goldman``
    (as a tracer installs) is the one the exact, pg and bench verbs run."""
    import napx.cli

    calls = []

    def spy(name, real):
        def wrapper(instance):
            calls.append(name)
            return real(instance)
        return wrapper

    monkeypatch.setattr(napx.cli, "brute_force",
                        spy("exact", napx.cli.brute_force))
    monkeypatch.setattr(napx.cli, "pardi_goldman",
                        spy("pg", napx.cli.pardi_goldman))
    assert run(capsys, "pg", data_path("unit.nap.nwk"))[0] == 0
    assert run(capsys, "exact", data_path("hand.nap.json"))[0] == 0
    assert calls == ["pg", "exact"]
    assert run(capsys, "bench", "--sizes", "5", "--topologies", "yule",
               "--seeds", "0", "--solvers", "pg,exact")[0] == 0
    assert calls == ["pg", "exact", "pg", "exact"]


@pytest.mark.parametrize("eps", ["2", "0", "1", "-0.5", "nan"])
def test_bench_refuses_bad_epsilon_before_generating(eps, no_generate, capsys):
    """An epsilon outside (0, 1) is an invalid parameter: exit 2 with the
    message of solve, and no instance generated or row written."""
    code, out, err = run(capsys, "bench", "--sizes", "5", "--epsilon", eps)
    assert code == 2
    assert out == ""
    assert "error: epsilon must be strictly between 0 and 1" in err


def test_bench_writes_each_instance_before_the_next(tmp_path, monkeypatch, capsys):
    """The header and an instance's rows are on disk, flushed, before the
    next instance is generated."""
    out = tmp_path / "bench.csv"
    seen: list[list[str]] = []

    def spy(spec):
        if spec.seed == 1:
            seen.extend(csv.reader(out.read_text().splitlines()))
        return generate(spec)

    monkeypatch.setattr(napx.cli, "generate", spy)
    code, _, _ = run(capsys, "bench", "--sizes", "5", "--topologies", "yule",
                     "--seeds", "0-1", "--solvers", "napx,exact,pg",
                     "--out", str(out))
    assert code == 0
    assert seen[0] == BENCH_COLUMNS
    assert [(row[1], row[9]) for row in seen[1:]] == [
        ("yule-n5-s0", "napx"), ("yule-n5-s0", "exact"), ("yule-n5-s0", "pg")]
    assert list(csv.reader(out.read_text().splitlines()))[:4] == seen


def test_bench_unwritable_out_exits_2_before_generating(tmp_path, no_generate, capsys):
    target = tmp_path / "missing" / "bench.csv"
    code, out, err = run(capsys, "bench", "--sizes", "5", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def test_bench_ratio_is_taken_from_the_rounded_scores(capsys):
    """``ratio`` divides the 12-digit scores that the row shows: on
    yule-n8-s20, yule-n12-s19 and caterpillar-n5-s17 at epsilon 0.3 the
    full-precision quotient differs from it in the last digit."""
    code, out, _ = run(capsys, "bench", "--sizes", "5,8,12", "--seeds", "17,19-20",
                       "--epsilon", "0.3", "--solvers", "napx,exact")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert {"yule-n8-s20", "yule-n12-s19", "caterpillar-n5-s17"} <= {
        row["instance"] for row in rows}
    assert all(row["oracle_score"] for row in rows)
    for row in rows:
        assert row["ratio"] == fmt_float(_ratio(float(row["evaluated_score"]),
                                                float(row["oracle_score"])))


def test_bench_rejects_unknown_solver(capsys):
    code, _, err = run(capsys, "bench", "--sizes", "5", "--solvers", "magic")
    assert code == 2
    assert "magic" in err


@pytest.mark.parametrize("argv,line", [
    (["--sizes", ""], "empty size list: ''"),
    (["--sizes", "x"], "bad size 'x'"),
    (["--sizes", "5", "--seeds", "5-3"], "bad seed token '5-3'; use N or LO-HI"),
    (["--sizes", "5", "--seeds", "a"], "bad seed token 'a'; use N or LO-HI"),
    (["--sizes", "5", "--topologies", "tree"], "unknown topology 'tree'"),
    (["--sizes", "3", "--seeds", f"0-2000,{2**128}"],
     f"seed must be in [0, 2**128), got {2**128}"),
], ids=["empty-sizes", "bad-size", "reversed-seeds", "bad-seed", "bad-topology",
        "seed-out-of-range"])
def test_bench_refuses_bad_lists(argv, line, no_generate, capsys):
    """Every list is checked, each seed token at both ends, before the
    header and before any instance is generated, so no CSV is half written."""
    assert run(capsys, "bench", *argv) == (2, "", f"error: {line}\n")


# ------------------------------------------------------------------------- #
#  Exit codes
# ------------------------------------------------------------------------- #

@pytest.mark.parametrize("path", [
    "bad_syntax.nap.nwk", "bad_header.nap.nwk",
    "bad_annotation.nap.nwk", "bad_json.nap.json",
])
def test_parse_failures_exit_2(path, capsys):
    code, _, err = run(capsys, "solve", data_path(path))
    assert code == 2
    assert "error:" in err


def test_validation_failure_exits_2(capsys):
    code, _, err = run(capsys, "solve", data_path("bad_semantics.nap.json"))
    assert code == 2
    assert "exceeds" in err


def test_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "solve", "nowhere.nap.json")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "BAD.nap.json"], ["exact", "BAD.nap.nwk"], ["pg", "BAD.nap.json"],
    ["eval", "BAD.nap.json", "SOLUTION"], ["eval", "INSTANCE", "BAD.json"],
], ids=["solve", "exact", "pg", "eval-instance", "eval-solution"])
def test_file_not_utf8_exits_2(argv, tmp_path, capsys):
    """Bytes that are not UTF-8 (here a UTF-16 byte order mark) are bad
    input with an error line, in every file a verb reads."""
    sol = tmp_path / "sol.json"
    run(capsys, "solve", data_path("hand.nap.json"), "--out", str(sol))
    paths = {"INSTANCE": data_path("hand.nap.json"), "SOLUTION": str(sol)}
    for arg in argv[1:]:
        if arg.startswith("BAD"):
            paths[arg] = str(tmp_path / arg)
            (tmp_path / arg).write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, argv[0], *[paths[a] for a in argv[1:]])
    assert code == 2
    assert err.startswith("error: cannot read") and "utf-8" in err
    assert out == ""


_JSON_CONSTANTS = ["NaN", "Infinity", "-Infinity"]
_FLOAT_OVERFLOWS = ["9" * 400, "1e999", "-1e999"]


@pytest.mark.parametrize("raw", ["9" * 400, "9" * 5000, "[" * 100_000,
                                 *_JSON_CONSTANTS, "1e999", "-1e999"],
                         ids=["float-overflow", "int-digits", "deep-nesting",
                              "nan", "inf", "minus-inf", "literal-overflow",
                              "minus-literal-overflow"])
@pytest.mark.parametrize("argv", [
    ["solve", "BAD.nap.json"], ["exact", "BAD.nap.json"], ["pg", "BAD.nap.json"],
    ["eval", "BAD.nap.json", "SOLUTION"], ["eval", "INSTANCE", "BAD.json"],
], ids=["solve", "exact", "pg", "eval-instance", "eval-solution"])
def test_unreadable_json_exits_2(raw, argv, tmp_path, capsys):
    """A float field holding a number beyond the float range (an integer
    or a literal such as 1e999, which Python's JSON reader turns into
    inf), an integer of more digits than Python's JSON reader takes,
    nesting deeper than the recursion limit, and the NaN, Infinity and
    -Infinity that Python's JSON reader takes but RFC 8259 does not, are
    bad input with an error line, in every file a verb reads. The value
    stands for a taxon's ``a`` in an instance and for both scores in a
    solution. A constant or an overflow fails to parse, with its own
    message, before validation sees it."""
    sol = tmp_path / "sol.json"
    run(capsys, "solve", data_path("hand.nap.json"), "--out", str(sol))
    paths = {"INSTANCE": data_path("hand.nap.json"), "SOLUTION": str(sol)}
    for arg in argv[1:]:
        if arg.startswith("BAD"):
            instance = arg.endswith(".nap.json")
            doc = json.loads(Path(paths["INSTANCE" if instance else "SOLUTION"])
                             .read_text())
            if instance:
                doc["taxa"][sorted(doc["taxa"])[0]]["a"] = "RAW"
            else:
                doc["reported_score"] = doc["evaluated_score"] = "RAW"
            paths[arg] = str(tmp_path / arg)
            (tmp_path / arg).write_text(json.dumps(doc).replace('"RAW"', raw))
    code, out, err = run(capsys, argv[0], *[paths[a] for a in argv[1:]])
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    if raw in _JSON_CONSTANTS:
        assert err == f"error: {raw} is not a JSON number (RFC 8259)\n"
    if raw in _FLOAT_OVERFLOWS:
        assert err.endswith(" is too large for a float\n")


@pytest.mark.parametrize("doc,edit,message", [
    ("instance", lambda d: [d], "top level must be a JSON object"),
    ("instance", lambda d: {**d, "newick": 5}, "newick must be a string"),
    ("instance", lambda d: {**d, "taxa": []}, "taxa must be an object"),
    ("instance", lambda d: {**d, "name": 5}, "name must be a string, got 5"),
    ("solution", lambda d: {**d, "selected": [1]},
     "selected must be a list of taxon ids"),
    ("solution", lambda d: {**d, "params": []}, "params must be an object or null"),
    ("solution", lambda d: {**d, "stats": 1}, "stats must be an object or null"),
    ("solution", lambda d: {**d, "instance": 5}, "instance must be a string or null"),
    ("solution", lambda d: {**d, "solver": None}, "solver must be a string, got None"),
    ("solution", lambda d: {**d, "solver": ["x"]},
     "solver must be a string, got ['x']"),
], ids=["instance-array", "newick", "taxa", "name",
        "selected", "params", "stats", "solution-instance", "solver-null",
        "solver-list"])
def test_misshapen_document_exits_2(doc, edit, message, tmp_path, capsys):
    """A document of the right syntax whose top level or fields have the
    wrong JSON type is bad input, refused with the reader's message: an
    instance through solve and eval, a solution through eval."""
    paths = {"instance": data_path("hand.nap.json"), "solution": str(tmp_path / "sol.json")}
    run(capsys, "solve", paths["instance"], "--out", paths["solution"])
    bad = tmp_path / ("bad.nap.json" if doc == "instance" else "bad.json")
    bad.write_text(json.dumps(edit(json.loads(Path(paths[doc]).read_text()))))
    paths[doc] = str(bad)
    runs = [["eval", paths["instance"], paths["solution"]]]
    if doc == "instance":
        runs.append(["solve", paths["instance"]])
    for argv in runs:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_unwritable_output_exits_2(tmp_path, capsys):
    """An --out that names a directory cannot be written: solve and gen
    exit 2 with an error line that names the path."""
    code, out, err = run(capsys, "solve", data_path("hand.nap.json"),
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    target = tmp_path / "x.nap.json"
    target.mkdir()
    code, out, err = run(capsys, "gen", "--topology", "yule", "-n", "4",
                         "--seed", "1", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def test_internal_error_exits_4(monkeypatch, capsys):
    """A broken invariant is reported as an internal error, exit 4."""
    def broken(*args, **kwargs):
        raise InternalError("invariant failed")

    monkeypatch.setattr(napx.cli, "solve", broken)
    assert run(capsys, "solve", data_path("hand.nap.json")) == (
        4, "", "internal error: invariant failed\n")


def test_bad_epsilon_exits_2(capsys):
    code, _, _ = run(capsys, "solve", data_path("hand.nap.json"),
                     "--epsilon", "1.5")
    assert code == 2


def test_epsilon_below_float_resolution_exits_2(capsys):
    """At epsilon 1e-300 the grid ratio (1 - epsilon)**(1/(2h)) rounds to
    1.0: the run ends with exit 2 and an error naming epsilon and the
    height of the tree, 3."""
    code, out, err = run(capsys, "solve", data_path("hand.nap.json"),
                         "--epsilon", "1e-300")
    assert code == 2
    assert out == ""
    assert err.startswith("error: epsilon 1e-300 is too small for a tree of "
                          "height 3:")


def test_subnormal_b_exits_2(capsys):
    """A taxon with b = 5e-324 needs k = 537 and n**(k+1) overflows: the
    run ends with a parameter error, not a traceback."""
    code, out, err = run(capsys, "solve", data_path("tiny_b.nap.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too small" in err


def test_huge_budget_solves(capsys):
    """A budget of 10**18 on two taxa of cost 1 is capped at their total
    cost, 2, by normalization: the run buys both."""
    code, out, err = run(capsys, "solve", data_path("huge_budget.nap.json"))
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["budget"] == 10**18
    assert doc["selected"] == ["t0", "t1"]


@pytest.mark.parametrize("verb,code", [("solve", 3), ("exact", 0)])
def test_budget_beyond_int64(verb, code, capsys):
    """Costs of 2**63 and 1 under a budget of 2**64 normalize to a budget
    of 2**63 + 1, past the 64-bit costs of the solver's tables, which
    refuses the run; exhaustive search needs no table."""
    got, out, err = run(capsys, verb, data_path("beyond_int64.nap.json"))
    assert got == code
    if code == 3:
        assert out == ""
        assert err.startswith("error:") and "64-bit" in err
    else:
        assert json.loads(out)["selected"] == ["t0", "t1"]


@pytest.mark.parametrize("verb,code", [("pg", 0), ("solve", 0), ("exact", 0)])
def test_big_costs_restricted(verb, code, capsys):
    """Costs near 10**12 leave a normalized budget of 2 * 10**12, which
    the frontier tables of solve and pg hold in a few cells; all three
    solvers agree."""
    got, out, err = run(capsys, verb, data_path("big_costs_restricted.nap.json"))
    assert got == code
    doc = json.loads(out)
    assert doc["selected"] == ["t1", "t2"]
    assert doc["evaluated_score"] == 5.5


def _big_tree(tmp_path, length: str, above: str, survival: str) -> str:
    """The newick instance ((x, y), z) of budget 2: x and y of the given
    length under an edge of length ``above``, z of length 1, and every
    taxon of cost 1 with the ``survival`` a and b."""
    path = tmp_path / "big.nap.nwk"
    path.write_text(f"[&budget=2]\n((x[&{survival},c=1]:{length},"
                    f"y[&{survival},c=1]:{length}):{above},"
                    f"z[&{survival},c=1]:1.0);\n")
    return str(path)


@pytest.mark.parametrize("verb", ["solve", "pg", "exact", "eval"])
def test_lengths_above_the_float_bound_exit_2(verb, tmp_path, capsys):
    """Lengths of 1e308 sum past half the largest float, where a score
    could overflow: every verb refuses the instance at validation, with
    one error line that names the total and no output, and no warning."""
    path = _big_tree(tmp_path, "1e308", "1e308", "a=0,b=1")
    sol = tmp_path / "sol.json"
    sol.write_text(write_solution(SolutionDocument(
        solver="napx", budget=2, selected=("x",), total_cost=1,
        reported_score=1.0, evaluated_score=1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, verb, path,
                             *([str(sol)] if verb == "eval" else []))
    assert (code, out) == (2, "")
    assert err == ("error: invalid instance: branch lengths sum to inf, above "
                   f"{sys.float_info.max / 2!r}, half the largest float\n")


@pytest.mark.parametrize("verb,survival", [
    ("solve", "a=0.1,b=0.9"), ("exact", "a=0.1,b=0.9"), ("pg", "a=0,b=1")])
def test_lengths_near_the_float_bound_solve(verb, survival, tmp_path, capsys):
    """Lengths that sum to 8.8e307, just under the bound, solve with no
    warning and finite scores, into a document that the strict reader
    takes and that eval accepts."""
    path = _big_tree(tmp_path, "4e307", "8e306", survival)
    sol = tmp_path / "sol.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, verb, path, "--out", str(sol)) == (0, "", "")
        doc = parse_solution(sol.read_text())
        assert doc.selected == ("x", "y")
        assert math.isfinite(doc.reported_score)
        assert math.isfinite(doc.evaluated_score) and doc.evaluated_score > 7e307
        code, out, err = run(capsys, "eval", path, str(sol))
    assert (code, err) == (0, "")
    assert out.endswith("feasible: yes\n")


def test_pg_budget_beyond_int64(tmp_path, capsys):
    """The restricted program shares the solver's tables and so their
    64-bit cost guard."""
    path = tmp_path / "big.nap.json"
    path.write_text(json.dumps({
        "format": "nap-instance", "version": 1, "budget": 2**64,
        "newick": "(t0:1,t1:1);",
        "taxa": {"t0": {"a": 0, "b": 1, "c": 2**63},
                 "t1": {"a": 0, "b": 1, "c": 1}},
    }))
    code, out, err = run(capsys, "pg", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "64-bit" in err


def test_unsavable_instance_solves_to_nothing(tmp_path, capsys):
    """When every taxon has b = 0 no conservation helps: solve exits 0
    with the empty selection and builds no table."""
    path = tmp_path / "dead.nap.json"
    path.write_text(json.dumps({
        "format": "nap-instance", "version": 1, "budget": 2,
        "newick": "(x:1,y:2);",
        "taxa": {"x": {"a": 0, "b": 0, "c": 1}, "y": {"a": 0, "b": 0, "c": 1}},
    }))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["selected"] == []
    assert doc["evaluated_score"] == 0.0
    assert "t" not in doc["params"]


def test_python_m_napx_runs_cli():
    proc = subprocess.run([sys.executable, "-m", "napx", "solve",
                           data_path("hand.nap.json"), "--epsilon", "0.3"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["solver"] == "napx"


def test_closed_stdout_exits_2_with_one_error_line():
    """A reader that closes stdout early ends the run with exit 2 and one
    error line, not a traceback. bench keeps writing after the reader is
    gone, so its next flush meets the closed pipe."""
    proc = subprocess.Popen([sys.executable, "-m", "napx", "bench", "--sizes", "5",
                             "--seeds", "0-3000", "--solvers", "napx",
                             "--topologies", "yule"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert proc.stdout.readline().startswith("schema_version,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2, err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write stdout: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_stdout_closed_at_start_exits_2_with_one_error_line():
    """With fd 1 closed before it starts, Python gives the process no
    ``sys.stdout`` at all; writing the solution there is an output that
    cannot be written, exit 2 with one error line and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "napx", "solve",
                           data_path("hand.nap.json")],
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          preexec_fn=lambda: os.close(1),
                          env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write stdout: stdout is closed\n"


def test_out_of_memory_exits_3_with_one_error_line(tmp_path):
    """A solve that runs out of memory, here a 2048-leaf Yule tree at
    epsilon 0.1 under a 150 MB address-space cap on its own process, exits
    3 with one error line in napx's words, since a ``MemoryError`` carries
    no text, and no traceback. One thread for OpenBLAS lets numpy import
    under the cap on a machine with many cores."""
    path = tmp_path / "yule-2048.nap.json"
    assert main(["gen", "--topology", "yule", "-n", "2048", "--seed", "1",
                 "--out", str(path)]) == 0
    cap = 150 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "napx", "solve", str(path), "--epsilon", "0.1"],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        env={**os.environ, "PYTHONPATH": SRC_DIR, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error: out of memory while running solve\n"
    assert proc.stdout == ""


# a sitecustomize module that makes importing napx.solver run out of memory
NO_MEMORY_FOR_SOLVER = '''import sys


class NoMemory:
    def find_spec(self, name, path=None, target=None):
        if name == "napx.solver":
            raise MemoryError
        return None


sys.meta_path.insert(0, NoMemory())
'''


def test_out_of_memory_while_loading_exits_3_with_one_error_line(tmp_path):
    """Running out of memory while ``python -m napx`` imports the solver,
    before ``main`` can catch anything, exits 3 with one error line and no
    traceback. A ``sitecustomize`` hook on the child's path raises the
    ``MemoryError``, as an address-space cap just above what numpy's
    import needs can."""
    (tmp_path / "sitecustomize.py").write_text(NO_MEMORY_FOR_SOLVER)
    proc = subprocess.run([sys.executable, "-m", "napx", "solve",
                           data_path("hand.nap.json")],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join([str(tmp_path), SRC_DIR])})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error: out of memory while loading napx\n"
    assert proc.stdout == ""


def test_usage_error_returns_argparse_code(capsys):
    assert run(capsys, "unknown-verb")[0] == 2
    assert run(capsys)[0] == 2


# ------------------------------------------------------------------------- #
#  Property: every document solves or fails with an exit code
# ------------------------------------------------------------------------- #

_BAD_VALUES = [-1, -0.5, 1.5, 0, 1, "0.5", None, True, [], {}, 5e-324, 1e-300,
               float("nan"), float("inf"), 10**18, 2**70, 10**400]

# values json.dumps cannot write, spliced into the text: an integer of more
# digits than Python converts, and nesting past the recursion limit
_RAW_VALUES = ["9" * 5000, "[" * 100_000]


@st.composite
def _instance_docs(draw, restricted=False):
    """A generated .nap.json document, left valid or given one mutation;
    ``restricted`` generates every taxon with a = 0 and b = 1."""
    ranges = {"a_range": (0.0, 0.0), "b_range": (1.0, 1.0)} if restricted else {}
    spec = GenSpec(n=draw(st.integers(1, 8)),
                   topology=draw(st.sampled_from(["yule", "caterpillar"])),
                   seed=draw(st.integers(0, 10_000)),
                   budget=draw(st.none() | st.integers(0, 12)), **ranges)
    doc = json.loads(write_instance(generate(spec), "json", name=spec.name))
    tid = draw(st.sampled_from(sorted(doc["taxa"])))
    kind = draw(st.sampled_from(["valid", "drop_key", "extra_key", "budget",
                                 "taxon_field", "drop_taxon", "extra_taxon",
                                 "newick", "truncate", "raw_value"]))
    if kind == "drop_key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "extra_key":
        doc["extra"] = 1
    elif kind == "budget":
        doc["budget"] = draw(st.sampled_from(_BAD_VALUES))
    elif kind == "taxon_field":
        doc["taxa"][tid][draw(st.sampled_from("abc"))] = \
            draw(st.sampled_from(_BAD_VALUES))
    elif kind == "drop_taxon":
        del doc["taxa"][tid]
    elif kind == "extra_taxon":
        doc["taxa"]["zz"] = {"a": 0.1, "b": 0.9, "c": 1}
    elif kind == "newick":
        nwk = doc["newick"]
        cut = draw(st.integers(0, len(nwk)))
        doc["newick"] = draw(st.sampled_from([
            nwk[:cut], nwk[:cut] + nwk[cut + 1:], nwk.replace(":", ":-", 1),
            nwk.replace(tid, "", 1), "(" + nwk, nwk + nwk]))
    elif kind == "raw_value":
        field = draw(st.sampled_from(["budget", "a", "b", "c"]))
        (doc if field == "budget" else doc["taxa"][tid])[field] = "RAW"
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "raw_value":
        text = text.replace('"RAW"', draw(st.sampled_from(_RAW_VALUES)))
    return text


def _run_document(tmp_path_factory, verb, text, *options):
    """Run ``verb`` on a document: it either succeeds (0) or fails with an
    ``error:`` line and exit 2, 3 or 4; no exception escapes main(). A
    solver writes its answer with ``--out``; ``eval`` takes a solution file
    in ``options`` and prints its verdict, exit 3 meaning infeasible."""
    work = tmp_path_factory.mktemp("doc")
    path = work / "inst.nap.json"
    path.write_text(text)
    out = work / "sol.json"
    argv = [verb, str(path), *options]
    if verb != "eval":
        argv += ["--out", str(out)]
    err, printed = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(printed):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if verb == "eval" and code in (0, 3):
        validate_instance(load_instance(path)[0])
        verdict = "yes" if code == 0 else "no"
        assert printed.getvalue().endswith(f"feasible: {verdict}\n")
    elif code == 0:
        doc = parse_solution(out.read_text())
        assert doc.total_cost <= doc.budget
    else:
        assert err.getvalue().startswith(("error:", "internal error:"))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(text=_instance_docs(), epsilon=st.sampled_from(["0.3", "0.5", "0.9", "1.5"]))
def test_solve_any_document_exits_with_a_code(tmp_path_factory, text, epsilon):
    _run_document(tmp_path_factory, "solve", text, "--epsilon", epsilon)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(text=_instance_docs(),
       selected=st.lists(st.sampled_from(["t00", "t01", "t02", "zz"]),
                         unique=True, max_size=3))
def test_eval_any_document_exits_with_a_code(tmp_path_factory, text, selected):
    """eval validates the instance before scoring: a verdict is printed only
    for a valid instance, and a bad one fails with an exit code."""
    sol = tmp_path_factory.mktemp("sol") / "sol.json"
    sol.write_text(write_solution(SolutionDocument(
        solver="napx", budget=0, selected=tuple(selected), total_cost=0,
        reported_score=0.0, evaluated_score=0.0)))
    _run_document(tmp_path_factory, "eval", text, str(sol))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(text=_instance_docs(restricted=True))
def test_pg_any_document_exits_with_a_code(tmp_path_factory, text):
    """The same mutations of a = 0, b = 1 documents, through pg and solve:
    a huge budget or cost must not reach a table allocation."""
    _run_document(tmp_path_factory, "pg", text)
    _run_document(tmp_path_factory, "solve", text)
