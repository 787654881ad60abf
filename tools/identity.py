"""Check that napx's results are bit for bit those of a git revision.

    python tools/identity.py dump CORPUS [--src DIR]
    python tools/identity.py compare REV CORPUS

``dump`` solves every case of a named corpus with the napx package under
``--src`` (default: this checkout's ``src``) and writes one JSON line per
solve. A line holds the case, its epsilon and any patched solver limits,
then two groups of fields:

``contract``
    what a change must keep: a sha256 of each field of every stored table
    (``costs``, ``rows``, ``scores``, ``left``, ``right``, and the table's
    ``start`` and ``size`` in the store), taken edge by edge with the
    edge id and dtype; the sorted selection; ``repr`` of the reported
    score; the exit code the command line would give (0 when solved) and
    the message of a refusal.
``notes``
    what is printed but not compared: the solver's stats and grid
    parameters, the selection's cost and exact score.

``compare`` runs ``dump`` twice, each in its own process: on this
working tree's ``src``, and on ``src`` as revision REV holds it,
exported with ``git archive`` into a temporary directory that is removed
afterwards. It prints the first solve whose contract fields differ and
the first differing field, and exits 1; when none differs it prints a
summary and exits 0. It exits 2 when a dump fails. Compare against a
revision on the same machine rather than a pinned hash: the grid and the
rounding go through ``np.power`` and ``np.log``, whose last bits may
differ between CPUs.

Corpora:

``quick``
    small instances of every kind below, for a check on each commit.
``contract``
    the acceptance corpus (4-10 leaves, epsilon 0.2 and 0.5); the
    ladder (Yule and caterpillar, n 16-256, epsilon 0.3 and 0.1); the
    benchmark workloads' instances at seeds 1 and 2; Yule and
    caterpillar trees with n in {1, 2, 3, 5, 9, 16, 33, 64, 128, 256},
    seeds 0 and 1, default ranges, a = 0 with b = 1, every b = 0, costs
    0-3 and costs 1-40; tie-heavy trees of unit lengths and equal taxa;
    and the instance files under ``tests/data``.
``limits``
    the ``contract`` corpus twice, with ``PAIR_LIMIT`` and
    ``BATCH_PAIRS`` patched low: small batches that cut most tree
    heights into several passes, and a low pair limit that refuses large
    combines and filters most batches edge by edge.

Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TABLE_FIELDS = ("costs", "rows", "scores", "left", "right", "start", "size")
# contract fields in the order compare reports them
CONTRACT = ("exit", "message") + TABLE_FIELDS + ("selection", "reported_score")

SIZES = (1, 2, 3, 5, 9, 16, 33, 64, 128, 256)
RANGES = {
    "default": {},
    "a0b1": {"a_range": (0.0, 0.0), "b_range": (1.0, 1.0)},
    "b0": {"a_range": (0.0, 0.0), "b_range": (0.0, 0.0)},
    "c0-3": {"c_range": (0, 3)},
    "c1-40": {"c_range": (1, 40)},
}
# (a, b, c) of every taxon of a tie-heavy tree
TIES = ((0.1, 0.9, 1), (0.0, 1.0, 1), (0.5, 0.5, 1), (0.2, 0.6, 0))
LIMITS = ({"PAIR_LIMIT": 4096, "BATCH_PAIRS": 8},
          {"PAIR_LIMIT": 512, "BATCH_PAIRS": 1 << 14})


# ------------------------------------------------------------------------- #
#  Corpora
# ------------------------------------------------------------------------- #

def gen_case(topology: str, n: int, seed: int, epsilon: float, **ranges) -> dict:
    """A case solving ``GenSpec(n, topology, seed, **ranges)``."""
    spec = {"topology": topology, "n": n, "seed": seed, **ranges}
    name = f"{topology}-n{n}-s{seed}" + "".join(
        f"-{k}={v}" for k, v in sorted(ranges.items()))
    return {"name": name, "epsilon": epsilon, "gen": spec}


def text_case(name: str, text: str, fmt: str, epsilon: float) -> dict:
    """A case solving the instance that ``text`` holds in format ``fmt``."""
    return {"name": name, "epsilon": epsilon, "text": text, "fmt": fmt}


def _tie_text(shape: str, n: int, a: float, b: float, c: int) -> str:
    """A tree of n taxa, every edge of length 1 and every taxon (a, b, c),
    balanced or a caterpillar, as an instance document."""
    labels = [f"t{i:03d}" for i in range(n)]

    def clade(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return f"{labels[lo]}:1"
        mid = (lo + hi) // 2 if shape == "balanced" else hi - 1
        return f"({clade(lo, mid)},{clade(mid, hi)}):1"

    doc = {"format": "nap-instance", "version": 1, "budget": max(1, n // 2),
           "newick": clade(0, n)[:-2] + ";",
           "taxa": {t: {"a": a, "b": b, "c": c} for t in labels}}
    return json.dumps(doc, sort_keys=True)


def _ties(sizes) -> list[dict]:
    return [text_case(f"ties-{shape}-n{n}-a{a}-b{b}-c{c}",
                      _tie_text(shape, n, a, b, c), "json", eps)
            for shape in ("balanced", "caterpillar") for n in sizes
            for a, b, c in TIES for eps in (0.3, 0.1)]


def _acceptance(count: int, epsilons) -> list[dict]:
    return [gen_case(topology, 4 + i % 7, i, eps, budget=2 + i % 7)
            for topology in ("yule", "caterpillar") for i in range(count)
            for eps in epsilons]


def _ladder(sizes) -> list[dict]:
    return [gen_case(topology, n, 1, eps) for topology in ("yule", "caterpillar")
            for n in sizes for eps in (0.3, 0.1)]


def _grid(sizes, seeds, ranges, epsilons) -> list[dict]:
    return [gen_case(topology, n, seed, eps, **RANGES[r])
            for topology in ("yule", "caterpillar") for n in sizes
            for seed in seeds for r in ranges for eps in epsilons]


def _workloads(seeds) -> list[dict]:
    """The benchmark workloads' instances, with the generator seeds the
    benchmark picks for each of ``seeds``, and its failing instance."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    import workloads

    cases = []
    for name, specs in workloads.WORKLOADS.items():
        for seed in seeds:
            gseeds = workloads.find_seeds(name, seed)
            for s in specs:
                a_range, b_range = s.survival
                cases.append(gen_case(s.topology, s.n, gseeds[s.key], s.epsilon,
                                      budget=s.budget, a_range=a_range,
                                      b_range=b_range, c_range=s.c_range))
    cases.append(text_case(workloads.TINY_B_KEY, workloads.TINY_B_TEXT,
                           "json", 0.1))
    return cases


def _files() -> list[dict]:
    return [text_case(path.name, path.read_text(), path.suffixes[-1][1:], 0.1)
            for path in sorted((ROOT / "tests" / "data").glob("*.nap.*"))]


def _contract() -> list[dict]:
    return (_acceptance(100, (0.2, 0.5)) + _ladder((16, 64, 128, 256))
            + _workloads((1, 2)) + _grid(SIZES, (0, 1), RANGES, (0.3, 0.1))
            + _ties((2, 3, 5, 9, 16, 33, 64)) + _files())


def _quick() -> list[dict]:
    small = _grid(SIZES[:7], (0,), RANGES, (0.3,))
    return (_acceptance(10, (0.2,)) + _ladder((16, 64)) + small
            + _ties((2, 5, 16)) + _files()
            + [dict(case, limits=LIMITS[0]) for case in small]
            + [dict(case, limits=LIMITS[1]) for case in _ladder((64,))])


def corpus(name: str) -> list[dict]:
    """The cases of the named corpus."""
    if name == "quick":
        return _quick()
    cases = _contract()
    if name == "contract":
        return cases
    if name == "limits":
        return [dict(case, limits=limits) for limits in LIMITS
                for case in cases]
    raise ValueError(f"unknown corpus {name!r}")


CORPORA = ("quick", "contract", "limits")


# ------------------------------------------------------------------------- #
#  dump
# ------------------------------------------------------------------------- #

def _table_hashes(store) -> dict[str, str]:
    """A sha256 of each table field over the store's tables, edge by edge."""
    import numpy as np

    hashes = {f: hashlib.sha256() for f in TABLE_FIELDS}
    for eid in store:
        tab = store[eid]
        for f in TABLE_FIELDS[:5]:
            x = getattr(tab, f)
            if x is None:
                hashes[f].update(f"{eid}:None;".encode())
            else:
                hashes[f].update(f"{eid}:{x.dtype.str}:{x.size};".encode())
                hashes[f].update(np.ascontiguousarray(x).tobytes())
        hashes["start"].update(f"{eid}:{int(store.start[eid])};".encode())
        hashes["size"].update(f"{eid}:{int(store.size[eid])};".encode())
    return {f: h.hexdigest() for f, h in hashes.items()}


def solve_case(case: dict) -> dict:
    """The contract and notes of one case, solved with the imported napx."""
    from napx import solver
    from napx.errors import (InputError, NapError, RestrictionError,
                             SizeLimitError)
    from napx.generators import GenSpec, generate
    from napx.io import parse_instance

    stores = []
    build_tables = solver.build_tables

    def recorded(*args, **kwargs):
        built = build_tables(*args, **kwargs)
        stores.append(built[0])
        return built

    limits = case.get("limits", {})
    saved = {name: getattr(solver, name) for name in limits}
    line = {"case": case["name"], "epsilon": case["epsilon"], "limits": limits}
    try:
        for name, value in limits.items():
            setattr(solver, name, value)
        solver.build_tables = recorded
        if "gen" in case:
            instance = generate(GenSpec(**case["gen"]))
        else:
            instance, _ = parse_instance(case["text"], case["fmt"])
        sol = solver.solve(instance, case["epsilon"])
    except (NapError, MemoryError) as exc:
        # the exit code of the command line, as napx.cli.main maps them
        code = (2 if isinstance(exc, InputError) else
                3 if isinstance(exc, (RestrictionError, SizeLimitError,
                                      MemoryError)) else 4)
        line["contract"] = {"exit": code, "message": str(exc)}
        line["notes"] = {}
        return line
    finally:
        solver.build_tables = build_tables
        for name, value in saved.items():
            setattr(solver, name, value)
    contract = {"exit": 0, "message": None}
    contract.update(_table_hashes(stores[-1]) if stores else
                    dict.fromkeys(TABLE_FIELDS))
    contract["selection"] = sorted(sol.selection.selected)
    contract["reported_score"] = repr(sol.reported_score)
    line["contract"] = contract
    params = sol.params
    line["notes"] = {
        "stats": sol.stats,
        "params": None if params is None else {
            "alpha": repr(params.alpha), "p_min": repr(params.p_min),
            "t": params.t, "k": params.k},
        "total_cost": sol.selection.total_cost,
        "evaluated_score": repr(sol.selection.score),
    }
    return line


def dump_lines(cases: list[dict]):
    """One JSON line per case, in case order."""
    for case in cases:
        yield json.dumps(solve_case(case), sort_keys=True)


def _dump(args) -> int:
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import napx

    if Path(napx.__file__).resolve().parents[1] != src:
        print(f"error: imported napx from {napx.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    for line in dump_lines(corpus(args.corpus)):
        sys.stdout.write(line + "\n")
    return 0


# ------------------------------------------------------------------------- #
#  compare
# ------------------------------------------------------------------------- #

def first_difference(before: list[str], after: list[str]) -> str | None:
    """A description of the first solve whose contract fields differ
    between two dumps, or None when every solve agrees."""
    for i, (b, a) in enumerate(zip(before, after)):
        b, a = json.loads(b), json.loads(a)
        for key in ("case", "epsilon", "limits"):
            if b[key] != a[key]:
                return (f"solve {i}: the corpora differ ({key} {b[key]!r} "
                        f"against {a[key]!r})")
        for field in CONTRACT:
            if b["contract"].get(field) != a["contract"].get(field):
                return (f"solve {i} ({b['case']}, epsilon {b['epsilon']}, "
                        f"limits {b['limits']}): {field} differs\n"
                        f"  before: {b['contract'].get(field)!r}\n"
                        f"  after:  {a['contract'].get(field)!r}")
    if len(before) != len(after):
        return f"the dumps hold {len(before)} and {len(after)} solves"
    return None


def _notes_differ(before: list[str], after: list[str]) -> list[str]:
    out = []
    for b, a in zip(before, after):
        b, a = json.loads(b), json.loads(a)
        keys = sorted(k for k in set(b["notes"]) | set(a["notes"])
                      if b["notes"].get(k) != a["notes"].get(k))
        if keys:
            out.append(f"{b['case']} (epsilon {b['epsilon']}): "
                       + ", ".join(keys))
    return out


def _export(rev: str, into: Path) -> str:
    """Write revision ``rev``'s ``src`` under ``into``; returns its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    tar = subprocess.run(["git", "archive", "--format=tar", commit.stdout.strip(),
                          "src"], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return commit.stdout.strip()


def _compare(args) -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="napx-identity-") as tmp:
        try:
            commit = _export(args.rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.rev}: {exc.stderr.strip()}",
                  file=sys.stderr)
            return 2
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        procs = {side: subprocess.Popen(
            [sys.executable, __file__, "dump", args.corpus, "--src", str(src)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
            for side, src in (("before", Path(tmp) / "src"),
                              ("after", ROOT / "src"))}
        out = {side: p.communicate() for side, p in procs.items()}
    for side, p in procs.items():
        if p.returncode != 0:
            print(f"error: dump of the {side} side exited {p.returncode}:\n"
                  f"{out[side][1]}", file=sys.stderr)
            return 2
    before, after = (out[side][0].splitlines() for side in ("before", "after"))
    label = f"{args.rev} ({commit[:12]}) against the working tree"
    diff = first_difference(before, after)
    if diff is not None:
        print(f"{label}, corpus {args.corpus}: first difference\n{diff}")
        return 1
    refused = sum(json.loads(line)["contract"]["exit"] != 0 for line in after)
    print(f"{label}, corpus {args.corpus}: {len(after)} solves ({refused} "
          f"refused), every contract field identical "
          f"({time.perf_counter() - t0:.1f} s)")
    notes = _notes_differ(before, after)
    print(f"notes (not compared) differ on {len(notes)} solves"
          + (f"; first: {notes[0]}" if notes else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare napx's results with a git revision's")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write one JSON line per solve of a corpus")
    p.add_argument("corpus", choices=CORPORA)
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="directory holding the napx package to run")
    p.set_defaults(func=_dump)
    p = sub.add_parser("compare", help="compare the working tree with REV")
    p.add_argument("rev")
    p.add_argument("corpus", choices=CORPORA)
    p.set_defaults(func=_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
