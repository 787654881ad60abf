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

``solve``, ``exact`` and ``pg`` share one handler, and every solver run,
those verbs' and each ``bench`` row's, goes through :func:`_run`. It times
the solver call alone into ``stats["wall_s"]`` (parsing, ``--oracle`` and
writing are outside it) and builds the solution document; a bench row
takes its fields from that document. All output goes through ``io.open_text``.

Exit codes: 0 success, 2 bad input (syntax, validation, parameters, an
output that cannot be written, a closed stdout), 3 refused work (restriction
violated, instance too large for the method, memory ran out, infeasible
solution in ``eval``), 4 internal error. ``eval`` validates the instance as
the solvers do, so an invalid instance exits 2 there too. An instance in
which no taxon can be helped solves to the empty selection with exit 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from itertools import chain
from time import perf_counter

from .baselines import brute_force, check_brute_force_size, pardi_goldman
from .errors import InputError, NapError, RestrictionError, SizeLimitError
from .generators import TOPOLOGIES, GenSpec, generate
from .io import (SolutionDocument, instance_format_for, load_instance,
                 load_solution, open_text, write_instance, write_solution)
from .model import Instance, make_conservation_set, validate_instance
from .newick import fmt_float, round12
from .solver import check_epsilon, solve

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
    with open_text(out) as fh:
        fh.write(text)


def _csv_list(raw: str, what: str) -> list[str]:
    items = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not items:
        raise InputError(f"empty {what} list: {raw!r}")
    return items


def _parse_seeds(raw: str) -> list[range]:
    """Parse a seed set such as ``0-9`` or ``0,3,17`` or ``0-3,10`` into
    one range per token, which the caller iterates lazily."""
    seeds: list[range] = []
    for tok in _csv_list(raw, "seed"):
        lo, sep, hi = tok.partition("-")
        try:
            lo_i = int(lo)
            hi_i = int(hi) if sep else lo_i
            if hi_i < lo_i:
                raise ValueError
        except ValueError:
            raise InputError(f"bad seed token {tok!r}; use N or LO-HI") from None
        seeds.append(range(lo_i, hi_i + 1))
    return seeds


def _ratio(evaluated: float, oracle: float) -> float:
    return evaluated / oracle if oracle > 0 else 1.0


def _run(solver: str, instance: Instance, epsilon: float | None,
         name: str | None = None) -> SolutionDocument:
    """Run one solver on ``instance`` into its solution document, with the
    time of the solver call alone in ``stats["wall_s"]``. ``epsilon`` is
    for ``napx``; the exact solvers take none and report no params."""
    t0 = perf_counter()
    result = (solve(instance, epsilon=epsilon) if solver == "napx" else
              (brute_force if solver == "exact" else pardi_goldman)(instance))
    wall = perf_counter() - t0
    if solver == "napx":
        chosen, reported = result.selection, result.reported_score
        params: dict | None = {"epsilon": float(result.epsilon)}
        if result.params is not None:
            params.update(alpha=result.params.alpha, p_min=result.params.p_min,
                          t=result.params.t, k=result.params.k)
        stats = {**result.stats, "wall_s": wall}
    else:
        chosen, reported, params, stats = result, result.score, None, {"wall_s": wall}
    return SolutionDocument(
        solver=solver,
        budget=int(instance.budget),
        selected=tuple(sorted(chosen.selected)),
        total_cost=int(chosen.total_cost),
        reported_score=float(reported),
        evaluated_score=float(chosen.score),
        instance=name,
        params=params,
        stats=stats,
    )


# ------------------------------------------------------------------------- #
#  Verbs
# ------------------------------------------------------------------------- #

def _cmd_run(args: argparse.Namespace) -> int:
    """``solve``, ``exact`` and ``pg``: run ``args.solver`` on one file."""
    instance, meta = load_instance(args.instance)
    if args.oracle:
        # refuse an oracle too large to run before the tables are built,
        # and a bad epsilon before that, as solve would
        check_epsilon(args.epsilon)
        check_brute_force_size(instance)
    doc = _run(args.solver, instance, args.epsilon, meta.get("name"))
    if args.oracle:
        oracle = brute_force(instance)
        doc.stats["oracle_score"] = oracle.score
        doc.stats["ratio"] = _ratio(doc.evaluated_score, oracle.score)
    _emit(write_solution(doc), args.out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    kwargs = {name: tuple(pair) for name in ("a_range", "b_range", "c_range")
              if (pair := getattr(args, name)) is not None}
    spec = GenSpec(n=args.n, topology=args.topology, seed=args.seed,
                   budget=args.budget, **kwargs)
    fmt = args.format if args.out is None else instance_format_for(args.out)
    instance = generate(spec)
    _emit(write_instance(instance, fmt, name=spec.name, seed=spec.seed), args.out)
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
    _emit("\n".join(lines) + "\n", None)
    return 0 if feasible else 3


# ------------------------------------------------------------------------- #
#  Benchmark sweep
# ------------------------------------------------------------------------- #

def _attempt(solver: str, instance: Instance,
             epsilon: float) -> SolutionDocument | dict:
    """Run one bench solver: its solution document, or, where it raised a
    NapError, the row fields that record the error and the time to it."""
    t0 = perf_counter()
    try:
        return _run(solver, instance, epsilon)
    except NapError as exc:
        return {"solver": solver, "wall_s": fmt_float(perf_counter() - t0),
                "error": str(exc)}


def _bench_row(base: dict, result: SolutionDocument | dict,
               oracle: float | None) -> dict:
    """One CSV row from an :func:`_attempt` result. A column that does not
    apply is None, which the CSV writes blank. The ratio is taken from the
    12-digit scores the row shows."""
    if isinstance(result, dict):
        return {**base, **result}
    params = result.params or {}
    score = round12(result.evaluated_score)
    return {**base, "solver": result.solver, "k": params.get("k"),
            "t": params.get("t"), "fast_path": result.stats.get("fast_combines"),
            "wall_s": fmt_float(result.stats["wall_s"]),
            "reported_score": fmt_float(result.reported_score),
            "evaluated_score": fmt_float(score),
            "oracle_score": None if oracle is None else fmt_float(oracle),
            "ratio": None if oracle is None else fmt_float(_ratio(score, oracle))}


def _cmd_bench(args: argparse.Namespace) -> int:
    check_epsilon(args.epsilon)     # refused before any instance is generated
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
    # a spec checks each size, then each seed token's ends, before the header
    checks = [(n, 0) for n in sizes] + [(1, r[i]) for r in seeds for i in (0, -1)]
    for n, seed in checks:
        GenSpec(n=n, topology=TOPOLOGIES[0], seed=seed)

    specs = (GenSpec(n=n, topology=topo, seed=seed) for topo in topologies
             for n in sizes for seed in chain.from_iterable(seeds))
    with open_text(args.out) as out:
        writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for spec in specs:
            instance = generate(spec)
            base = {"schema_version": BENCH_SCHEMA_VERSION, "instance": spec.name,
                    "topology": spec.topology, "n": spec.n, "B": instance.budget,
                    "h": instance.tree.height, "epsilon": fmt_float(args.epsilon)}
            results = [_attempt(s, instance, args.epsilon) for s in solvers]
            oracle = next((round12(r.evaluated_score) for r in results
                           if isinstance(r, SolutionDocument) and r.solver == "exact"),
                          None)
            writer.writerows(_bench_row(base, r, oracle) for r in results)
            out.flush()     # an interrupted run keeps every finished instance
    return 0


# ------------------------------------------------------------------------- #
#  Parser and entry points
# ------------------------------------------------------------------------- #

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
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
    p.set_defaults(func=_cmd_run, solver="napx")

    for verb, help_text in (("exact", "run exhaustive search"),
                            ("pg", "run the exact solver for a=0, b=1")):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("instance")
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_run, solver=verb, epsilon=None, oracle=False)

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
    try:
        args = _parser().parse_args(argv)
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
    except MemoryError:     # it carries no text of its own
        print(f"error: out of memory while running {args.command}",
              file=sys.stderr)
        return 3
    except NapError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:  # pragma: no cover
    """Run :func:`main` as a process. Output left in stdout's buffer after
    its reader has closed goes to ``os.devnull``, so that the interpreter's
    last flush does not print a second error."""
    code = main(sys.argv[1:])
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
