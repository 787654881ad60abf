"""Time whole ``napx solve`` runs on a fixed, seeded instance ladder.

    python tools/ladder.py TIER [TIER ...] [--runs N] [--label LABEL] [--dir DIR]

Each rung is an instance made with ``python -m napx gen`` (which also
leaves napx's bytecode compiled for the runs), then solved ``--runs``
times, each run a fresh ``python -m napx solve --out`` process on this
checkout's ``src``. Per rung the runner records:

- each run's exit code, wall time from start until the process ended,
  and the child's own peak RSS, read with ``os.wait4``
  (``RUSAGE_CHILDREN`` would hold the largest child waited for so far);
- the median and the minimum of the wall times, and the largest peak;
- a refused run's last error line;
- ``t``, ``k``, ``candidate_pairs``, ``table_cells`` and ``wall_s`` from
  the solution document of the last run that solved.

It writes ``BENCH_<label>.json`` under ``--dir`` (default: this
checkout's root), with the CPU count and the Python and numpy versions.
The label defaults to the tiers joined by ``-``.

Tiers, every rung at seed 1:

``smoke``
    Yule and caterpillar trees of 16 leaves at epsilon 0.3.
``ladder``
    Yule and caterpillar trees, n in {16, 64, 128, 256}, epsilon 0.3
    and 0.1.
``stress``
    Yule n = 1024, 2048 and 4096 and caterpillar n = 2048, 4096 and 8192
    at epsilon 0.1, and Yule n = 256 and 1024 with costs 1-40 at epsilon
    0.3. Some are refused (exit 3); they are kept, with their exit code
    and time to refusal.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (topology, n, epsilon, cost range or None) of every rung of a tier
TIERS = {
    "smoke": [("yule", 16, 0.3, None), ("caterpillar", 16, 0.3, None)],
    "ladder": [(topology, n, eps, None) for topology in ("yule", "caterpillar")
               for n in (16, 64, 128, 256) for eps in (0.3, 0.1)],
    "stress": [("yule", 1024, 0.1, None), ("yule", 2048, 0.1, None),
               ("caterpillar", 2048, 0.1, None), ("caterpillar", 4096, 0.1, None),
               ("yule", 256, 0.3, (1, 40)), ("yule", 4096, 0.1, None),
               ("yule", 1024, 0.3, (1, 40)), ("caterpillar", 8192, 0.1, None)],
}
SEED = 1
# the fields read from a solution document: (section, key)
SOLUTION_FIELDS = {"t": ("params", "t"), "k": ("params", "k"),
                   "candidate_pairs": ("stats", "candidate_pairs"),
                   "table_cells": ("stats", "table_cells"),
                   "wall_s": ("stats", "wall_s")}


def _napx(*args: str) -> list[str]:
    return [sys.executable, "-m", "napx", *args]


def _env() -> dict[str, str]:
    """The environment of every child: napx from this checkout alone."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_once(argv: list[str], stderr: Path) -> dict:
    """Run ``argv`` to its end; its exit code, wall time and peak RSS."""
    with open(stderr, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)     # reaped here
    return {"exit": proc.returncode, "wall_s": round(wall, 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def run_rung(tier: str, rung: tuple, runs: int, tmp: Path) -> dict:
    """Make one rung's instance, solve it ``runs`` times, and summarise."""
    topology, n, epsilon, c_range = rung
    name = f"{topology}-n{n}-e{epsilon}" + (
        f"-c{c_range[0]}-{c_range[1]}" if c_range else "")
    instance, solution, err = (tmp / f"{name}.nap.json", tmp / f"{name}.sol.json",
                               tmp / f"{name}.err")
    gen = ["gen", "--topology", topology, "-n", str(n), "--seed", str(SEED),
           "--out", str(instance)]
    if c_range:
        gen += ["--c-range", str(c_range[0]), str(c_range[1])]
    subprocess.run(_napx(*gen), check=True, env=_env())
    record = {"tier": tier, "name": name, "topology": topology, "n": n,
              "seed": SEED, "epsilon": epsilon,
              "c_range": list(c_range) if c_range else None,
              "runs": [], "error": None, "solution": None}
    for _ in range(runs):
        solution.unlink(missing_ok=True)
        result = run_once(_napx("solve", str(instance), "--epsilon", str(epsilon),
                                "--out", str(solution)), err)
        record["runs"].append(result)
        if result["exit"] == 0:
            doc = json.loads(solution.read_text())
            record["solution"] = {field: doc[section][key] for field, (section, key)
                                  in SOLUTION_FIELDS.items()}
        else:
            lines = err.read_text().splitlines()
            record["error"] = lines[-1] if lines else ""
    walls = [r["wall_s"] for r in record["runs"]]
    record.update(exit=record["runs"][0]["exit"],
                  wall_s_median=round(statistics.median(walls), 4),
                  wall_s_min=min(walls),
                  peak_rss_mb=max(r["peak_rss_mb"] for r in record["runs"]))
    return record


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="time whole napx solve runs on a seeded instance ladder")
    parser.add_argument("tiers", nargs="+", choices=sorted(TIERS), metavar="TIER",
                        help="one or more of: " + ", ".join(TIERS))
    parser.add_argument("--runs", type=int, default=3,
                        help="solves of each rung (default 3)")
    parser.add_argument("--label", default=None,
                        help="the file is BENCH_<label>.json (default: the tiers)")
    parser.add_argument("--dir", default=str(ROOT),
                        help="directory to write into (default: the checkout's root)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    label = args.label or "-".join(args.tiers)
    rungs = []
    with tempfile.TemporaryDirectory(prefix="napx-ladder-") as tmp:
        for tier in args.tiers:
            for rung in TIERS[tier]:
                record = run_rung(tier, rung, args.runs, Path(tmp))
                rungs.append(record)
                print(f"{tier} {record['name']}: exit {record['exit']}, "
                      f"{record['wall_s_median']:.3f} s median, "
                      f"{record['peak_rss_mb']:.0f} MB", file=sys.stderr)
    out = Path(args.dir) / f"BENCH_{label}.json"
    doc = {"format": "napx-ladder", "version": 1, "label": label,
           "tiers": args.tiers, "runs": args.runs, "machine": machine(),
           "rungs": rungs}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
