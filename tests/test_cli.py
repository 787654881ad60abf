"""Tests for the command line interface, run in process via main()."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from napx.cli import BENCH_COLUMNS, main
from napx.generators import GenSpec, generate
from napx.io import (SolutionDocument, load_instance, parse_solution,
                     write_instance, write_solution)
from napx.model import validate_instance

from util import data_path

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_bench_rejects_unknown_solver(capsys):
    code, _, err = run(capsys, "bench", "--sizes", "5", "--solvers", "magic")
    assert code == 2
    assert "magic" in err


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


def test_bad_epsilon_exits_2(capsys):
    code, _, _ = run(capsys, "solve", data_path("hand.nap.json"),
                     "--epsilon", "1.5")
    assert code == 2


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


def test_usage_error_returns_argparse_code(capsys):
    assert run(capsys, "unknown-verb")[0] == 2
    assert run(capsys)[0] == 2


# ------------------------------------------------------------------------- #
#  Property: every document solves or fails with an exit code
# ------------------------------------------------------------------------- #

_BAD_VALUES = [-1, -0.5, 1.5, 0, 1, "0.5", None, True, [], {}, 5e-324, 1e-300,
               float("nan"), float("inf"), 10**18, 2**70]


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
                                 "newick", "truncate"]))
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
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
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
