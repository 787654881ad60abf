"""Command line interface.

Verbs:

``solve``
    Run the approximation solver on one instance file.
``exact``
    Run exhaustive search (small instances only).
``pg``
    Run the exact solver for certain conservation (a = 0, b = 1).
``gen``
    Generate a random instance.
``bench``
    Sweep generated instances across solvers and emit a CSV report.
``eval``
    Re-score a solution file against an instance and check feasibility.

Exit codes: 0 success, 2 bad input (syntax, validation, parameters),
3 refused work (restriction violated, instance too large for the method,
infeasible solution in ``eval``), 4 internal error. ``eval`` validates the
instance as the solvers do, so an invalid instance exits 2 there too. An
instance in which no taxon can be helped solves to the empty selection
with exit 0.
"""

from __future__ import annotations

import argparse
import csv
import sys
from io import StringIO
from pathlib import Path
from time import perf_counter

from .baselines import brute_force, pardi_goldman
from .errors import InputError, NapError, RestrictionError, SizeLimitError
from .generators import TOPOLOGIES, GenSpec, generate
from .io import (SolutionDocument, instance_format_for, load_instance,
                 load_solution, save_instance, write_instance, write_solution)
from .model import Instance, make_conservation_set, validate_instance
from .newick import fmt_float
from .solver import solve

SOLVERS = ("napx", "exact", "pg")

BENCH_COLUMNS = [
    "schema_version", "instance", "topology", "n", "B", "h", "epsilon",
    "k", "t", "solver", "fast_path", "wall_s", "reported_score",
    "evaluated_score", "oracle_score", "ratio", "error",
]

BENCH_SCHEMA_VERSION = "1"


# ------------------------------------------------------------------------- #
#  Small helpers
# ------------------------------------------------------------------------- #

def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _csv_list(raw: str, what: str) -> list[str]:
    items = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not items:
        raise InputError(f"empty {what} list: {raw!r}")
    return items


def _parse_seeds(raw: str) -> list[int]:
    """Parse a seed set such as ``0-9`` or ``0,3,17`` or ``0-3,10``."""
    seeds: list[int] = []
    for tok in _csv_list(raw, "seed"):
        lo, sep, hi = tok.partition("-")
        try:
            if sep:
                lo_i, hi_i = int(lo), int(hi)
                if hi_i < lo_i:
                    raise ValueError
                seeds.extend(range(lo_i, hi_i + 1))
            else:
                seeds.append(int(tok))
        except ValueError:
            raise InputError(f"bad seed token {tok!r}; use N or LO-HI") from None
    return seeds


def _baseline(verb: str):
    """The exact solver behind ``verb``, looked up by its module-level name
    at each call, so a replaced ``brute_force`` or ``pardi_goldman`` (a
    tracer's wrapper, a test's stub) is the one that runs."""
    return {"exact": brute_force, "pg": pardi_goldman}[verb]


def _ratio(evaluated: float, oracle: float) -> float:
    return evaluated / oracle if oracle > 0 else 1.0


def _solution_doc(solver: str, instance: Instance, name: str | None,
                  selected, total_cost: int, reported: float,
                  evaluated: float, params: dict | None,
                  stats: dict | None) -> SolutionDocument:
    return SolutionDocument(
        solver=solver,
        budget=int(instance.budget),
        selected=tuple(sorted(selected)),
        total_cost=int(total_cost),
        reported_score=float(reported),
        evaluated_score=float(evaluated),
        instance=name,
        params=params,
        stats=stats,
    )


# ------------------------------------------------------------------------- #
#  Verbs
# ------------------------------------------------------------------------- #

def _cmd_solve(args: argparse.Namespace) -> int:
    instance, meta = load_instance(args.instance)
    t0 = perf_counter()
    sol = solve(instance, epsilon=args.epsilon)
    wall = perf_counter() - t0

    params: dict = {"epsilon": float(sol.epsilon)}
    if sol.params is not None:
        params.update(alpha=sol.params.alpha, p_min=sol.params.p_min,
                      t=sol.params.t, k=sol.params.k)
    stats: dict = dict(sol.stats)
    stats["wall_s"] = wall
    if args.oracle:
        oracle = brute_force(instance)
        stats["oracle_score"] = oracle.score
        stats["ratio"] = _ratio(sol.selection.score, oracle.score)

    doc = _solution_doc("napx", instance, meta.get("name"),
                        sol.selection.selected, sol.selection.total_cost,
                        sol.reported_score, sol.selection.score,
                        params, stats)
    _emit(write_solution(doc), args.out)
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    instance, meta = load_instance(args.instance)
    t0 = perf_counter()
    best = _baseline(args.command)(instance)
    wall = perf_counter() - t0
    doc = _solution_doc(args.command, instance, meta.get("name"),
                        best.selected, best.total_cost, best.score,
                        best.score, None, {"wall_s": wall})
    _emit(write_solution(doc), args.out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    kwargs: dict = {}
    if args.a_range is not None:
        kwargs["a_range"] = tuple(args.a_range)
    if args.b_range is not None:
        kwargs["b_range"] = tuple(args.b_range)
    if args.c_range is not None:
        kwargs["c_range"] = tuple(args.c_range)
    spec = GenSpec(n=args.n, topology=args.topology, seed=args.seed,
                   budget=args.budget, **kwargs)
    instance = generate(spec)
    if args.out is not None:
        save_instance(instance, args.out, name=spec.name, seed=spec.seed)
        return 0
    text = write_instance(instance, args.format, name=spec.name,
                          seed=spec.seed)
    sys.stdout.write(text)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    instance, _ = load_instance(args.instance)
    validate_instance(instance)
    doc = load_solution(args.solution)
    chosen = make_conservation_set(instance, doc.selected)
    feasible = chosen.total_cost <= instance.budget
    lines = [
        "selected: " + (", ".join(sorted(chosen.selected)) or "(none)"),
        f"total_cost: {chosen.total_cost}",
        f"budget: {instance.budget}",
        f"evaluated_score: {fmt_float(chosen.score)}",
    ]
    # solution files store scores at 12 significant digits
    if fmt_float(chosen.score) != fmt_float(doc.evaluated_score):
        lines.append("note: solution file claimed evaluated_score "
                     f"{fmt_float(doc.evaluated_score)}")
    lines.append("feasible: " + ("yes" if feasible else "no"))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if feasible else 3


# ------------------------------------------------------------------------- #
#  Benchmark sweep
# ------------------------------------------------------------------------- #

def _bench_row(**kw) -> dict:
    row = {col: "" for col in BENCH_COLUMNS}
    row["schema_version"] = BENCH_SCHEMA_VERSION
    row.update(kw)
    return row


def _run_one(solver: str, instance: Instance, epsilon: float) -> dict:
    """Run one solver on one instance; returns partial row fields."""
    t0 = perf_counter()
    try:
        if solver == "napx":
            sol = solve(instance, epsilon=epsilon)
            wall = perf_counter() - t0
            out = {
                "wall_s": fmt_float(wall),
                "reported_score": fmt_float(sol.reported_score),
                "evaluated_score": fmt_float(sol.selection.score),
                "fast_path": str(sol.stats.get("fast_combines", 0)),
            }
            if sol.params is not None:
                out["k"] = str(sol.params.k)
                out["t"] = str(sol.params.t)
            return out
        best = _baseline(solver)(instance)
        wall = perf_counter() - t0
        return {
            "wall_s": fmt_float(wall),
            "reported_score": fmt_float(best.score),
            "evaluated_score": fmt_float(best.score),
        }
    except NapError as exc:
        wall = perf_counter() - t0
        return {"wall_s": fmt_float(wall), "error": str(exc)}


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = []
    for tok in _csv_list(args.sizes, "size"):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise InputError(f"bad size {tok!r}") from None
    topologies = _csv_list(args.topologies, "topology")
    for topo in topologies:
        if topo not in TOPOLOGIES:
            raise InputError(f"unknown topology {topo!r}")
    solvers = _csv_list(args.solvers, "solver")
    for s in solvers:
        if s not in SOLVERS:
            raise InputError(f"unknown solver {s!r}; choose from "
                             + ", ".join(SOLVERS))
    seeds = _parse_seeds(args.seeds)

    rows: list[dict] = []
    for topo in topologies:
        for n in sizes:
            for seed in seeds:
                spec = GenSpec(n=n, topology=topo, seed=seed)
                instance = generate(spec)
                base = {
                    "instance": spec.name,
                    "topology": topo,
                    "n": str(n),
                    "B": str(instance.budget),
                    "h": str(instance.tree.height),
                    "epsilon": fmt_float(args.epsilon),
                }
                batch: list[dict] = []
                oracle: float | None = None
                for solver in solvers:
                    result = _run_one(solver, instance, args.epsilon)
                    row = _bench_row(solver=solver, **base, **result)
                    batch.append(row)
                    if solver == "exact" and not row["error"]:
                        oracle = float(row["evaluated_score"])
                if oracle is not None:
                    for row in batch:
                        if row["error"] or not row["evaluated_score"]:
                            continue
                        row["oracle_score"] = fmt_float(oracle)
                        row["ratio"] = fmt_float(
                            _ratio(float(row["evaluated_score"]), oracle))
                rows.extend(batch)

    buf = StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return 0


# ------------------------------------------------------------------------- #
#  Parser and entry points
# ------------------------------------------------------------------------- #

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="napx",
        description="Budgeted conservation of phylogenetic diversity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the approximation solver")
    p.add_argument("instance", help="instance file (.nap.json or .nap.nwk)")
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="approximation slack in (0, 1); default 0.1")
    p.add_argument("--out", default=None, help="solution file (default stdout)")
    p.add_argument("--oracle", action="store_true",
                   help="also run exhaustive search and report the ratio")
    p.set_defaults(func=_cmd_solve)

    for verb, help_text in (("exact", "run exhaustive search"),
                            ("pg", "run the exact solver for a=0, b=1")):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("instance")
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--topology", choices=TOPOLOGIES, required=True)
    p.add_argument("-n", type=int, required=True, help="number of leaves")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="budget; default is a third of total cost, rounded up")
    p.add_argument("--a-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--b-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--c-range", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--out", default=None,
                   help="output file; format from suffix (.json or .nwk)")
    p.add_argument("--format", choices=("json", "nwk"), default="json",
                   help="stdout format when --out is not given")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="benchmark solvers on generated instances")
    p.add_argument("--sizes", required=True, help="leaf counts, e.g. 8,12,16")
    p.add_argument("--topologies", default=",".join(TOPOLOGIES))
    p.add_argument("--seeds", default="0-4", help="e.g. 0-9 or 0,3,17")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--solvers", default=",".join(SOLVERS))
    p.add_argument("--out", default=None, help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("eval", help="re-score a solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0

    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RestrictionError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NapError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
