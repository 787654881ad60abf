"""Benchmark for napx: four seeded workloads run through ``napx.cli.main``.

One run::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. A first, untimed process picks
the generator seed of each instance. A run with ``--trace 0`` then times
set-up in nine fresh processes, four before the timed pass and five
after it, and reports their median; the pass runs in a process of its
own. Work files go under ``.perfbench_work/`` in the
checkout and are removed afterwards; a traced run keeps its span file
there.

Every workload in turn, several times::

    python3 perfbench/run.py --repeat N [--seed S] [--seconds S]

runs each workload N times untraced, seeds S, S+1, ..., in fresh
processes, reversing the workload order on every other repeat, then once
traced, and prints the median and quartiles of every metric with the
operations attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUPS_BEFORE, SETUPS_AFTER = 4, 5
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread: the benchmark measures single-threaded solves
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout)


def _fail(what: str, proc: subprocess.CompletedProcess) -> None:
    sys.stderr.write(f"{what} failed with exit {proc.returncode}\n{proc.stderr}")
    raise SystemExit(1)


def _setup(common: list[str], work: Path) -> tuple[float, str]:
    """One set-up process; returns its reference time and its digest."""
    shutil.rmtree(work, ignore_errors=True)
    gauge = speed.Gauge()
    start = perf_counter()
    proc = _worker(["setup", *common], WORKER_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        _fail("set-up", proc)
    return elapsed * gauge.factor(), proc.stdout.strip()


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed)]
    proc = _worker(["seeds", *common], WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        _fail("seed search", proc)
    common += ["--work", str(work), "--gseeds", proc.stdout.strip()]
    setups = []
    try:
        # set-ups run on both sides of the pass, so that a slow phase of
        # the machine meets only some of them
        if not trace:
            setups += [_setup(common, work) for _ in range(SETUPS_BEFORE)]
        proc = _worker(["pass", *common, "--seconds", str(seconds),
                        "--trace", str(int(trace))], WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            _fail("pass", proc)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not trace:
            setups += [_setup(common, work) for _ in range(SETUPS_AFTER)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len({digest for _, digest in setups}) > 1:
        sys.stderr.write("set-up wrote different files for the same seed\n")
        raise SystemExit(1)
    if setups:
        result["metrics"]["setup_s"] = (statistics.median(t for t, _ in setups), "s")
    return result


def _print_result(result: dict) -> None:
    for failure in result.pop("failures"):
        sys.stderr.write(f"failed: {failure}\n")
    sys.stderr.write(f"rounds: {result['rounds']}\n")
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in sorted(result["metrics"].items())}}
    print(json.dumps(out))


def repeat(times: int, seed: int, seconds: float) -> None:
    names = sorted(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(times):
        for name in (names if r % 2 == 0 else names[::-1]):
            runs[name].append(run_once(name, seed + r, seconds, trace=False))
    for name in names:
        runs[name].append(run_once(name, seed, seconds, trace=True))
    for name in names:
        plain, traced = runs[name][:-1], runs[name][-1]
        print(f"== {name}: {times} untraced run(s), seeds {seed}..{seed + times - 1}")
        for label, group in (("untraced", plain), ("traced", [traced])):
            attempted = sum(r["attempted"] for r in group)
            failed = sum(r["failed"] for r in group)
            correct = all(r["correct"] for r in group)
            print(f"   {label}: attempted {attempted}, failed {failed}, correct {correct}")
            for failure in sorted({f for r in group for f in r["failures"]}):
                print(f"      failed: {failure}")
        print(f"   {'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
        for metric in sorted(plain[0]["metrics"]):
            values = [r["metrics"][metric][0] for r in plain]
            unit = plain[0]["metrics"][metric][1]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            print(f"   {metric:32s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
        for metric, (value, unit) in sorted(traced["metrics"].items()):
            print(f"   {metric:32s} {unit:6s} {value:12.6g}   (traced, seed {seed})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run every workload N times and summarise")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.repeat is None):
        parser.error("give either --workload or --repeat")
    if not (ROOT / "src" / "napx" / "__init__.py").is_file():
        sys.stderr.write(f"no napx sources under {ROOT / 'src'}\n")
        return 2
    checks.self_test()
    if args.repeat is not None:
        repeat(args.repeat, args.seed, args.seconds)
    else:
        _print_result(run_once(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
