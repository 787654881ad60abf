"""One fresh process of the benchmark, started by ``run.py``.

``seeds`` picks the generator seed of each of the workload's instances
and prints them as JSON; it is not timed. ``setup`` imports napx and
writes one workload's instance files from those generator seeds; its
whole life, interpreter start included, is what ``setup_s`` times.
``pass`` runs whole rounds of the workload's operations through
``napx.cli.main`` in this process, checks every output against the
references in ``checks.py`` outside the timed region, and prints one JSON
line of results. Rounds repeat until ``--seconds`` have passed, at least
three of them. With ``--trace 1`` the pass writes its own instance files
under the tracer, measures each solve's allocation peak in a first
round that is not timed, then alternates traced and untraced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the median over three rounds leaves out the first, which warms up
MIN_ROUNDS = 3

# per-layer counts taken from the tracer: metric -> (counter, unit)
TRACE_COUNTS = {
    "io.bytes_read": ("io.bytes_read", "bytes"),
    "discretization.window_calls": ("discretization.windows", "count"),
    "discretization.grid_rows": ("discretization.grid_rows", "count"),
    "rmq.windows": ("rmq.windows", "count"),
}


def _import_napx():
    """Import napx from this checkout's sources and nowhere else."""
    import napx
    import napx.cli
    if SRC.resolve() not in Path(napx.__file__).resolve().parents:
        raise SystemExit(f"napx was imported from {napx.__file__}, not {SRC}")
    return napx.cli


def run_round(ops: list[dict], cli, tracer=None, memory: bool = False) -> list[dict]:
    """Run every operation once, timing each call of ``napx.cli.main``;
    ``ref`` is the time scaled by the round's machine-speed factor."""
    for doc in {op["doc"] for op in ops if op["doc"]}:
        Path(doc).unlink(missing_ok=True)
    results = []
    gauge = speed.Gauge()
    for i, op in enumerate(ops):
        gauge.tick()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        measure = memory and op["verb"] == "solve"
        if measure:
            tracemalloc.start()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(op["argv"])
            except Exception as exc:  # a crash fails the op, the run goes on
                code, raised = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        peak = None
        if measure:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        results.append({"wall": wall, "code": code, "raised": raised,
                        "out": out.getvalue(), "err": err.getvalue(), "peak": peak})
    factor = gauge.factor()
    for r in results:
        r["ref"] = r["wall"] * factor
    return results


def check_round(ops: list[dict], results: list[dict], oracles: dict) -> dict:
    """Check each output; returns the round's counts and figures."""
    failed, wrong, reported, evaluated = [], [], [], []
    fast = general = 0
    for op, res in zip(ops, results):
        label = f"{op['verb']} {op['key']}"
        if res["code"] != op["expect"]:
            failed.append(f"{label}: exit {res['code']}, expected {op['expect']}"
                          + (f" ({res['raised']})" if res["raised"] else ""))
            continue
        if op["expect"] != 0:
            if not any(line.startswith("error:") for line in res["err"].splitlines()):
                failed.append(f"{label}: no error line")
            continue
        try:
            doc = json.loads(Path(op["doc"]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failed.append(f"{label}: no readable solution ({exc})")
            wrong.append(failed[-1])
            continue
        oracle = oracles[op["key"]]
        if op["verb"] == "eval":
            errs = checks.check_eval_output(oracle, doc, res["out"])
        else:
            errs = checks.check_document(oracle, doc, op["verb"], op["epsilon"])
        if errs:
            failed.append(f"{label}: " + "; ".join(errs))
            wrong.append(failed[-1])
        if op["verb"] == "solve":
            reported.append(doc["reported_score"])
            evaluated.append(doc["evaluated_score"])
            fast += doc["stats"]["fast_combines"]
            general += doc["stats"]["general_combines"]
    refs = [r["ref"] for r in results]
    solve = [op["verb"] == "solve" for op in ops]
    return {"attempted": len(ops), "failed": failed, "wrong": wrong,
            "wall": sum(r["wall"] for r in results), "refs": refs,
            "solve_refs": [w for w, is_solve in zip(refs, solve) if is_solve],
            "reported": sum(reported), "evaluated": sum(evaluated),
            "fast_combines": fast, "general_combines": general}


def _totals(rounds: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    return {"correct": not any(r["wrong"] for r in rounds),
            "attempted": attempted, "failed": failed,
            "failures": sorted({f for r in rounds for f in r["failed"]})}


def _per_op(rounds: list[dict], key: str) -> list[float]:
    """Each operation's median time over the rounds."""
    return [statistics.median(times) for times in zip(*(r[key] for r in rounds))]


def end_to_end(rounds: list[dict]) -> dict:
    totals = _totals(rounds)
    completed = (totals["attempted"] - totals["failed"]) / len(rounds)
    solves = _per_op(rounds, "solve_refs")
    reported = sum(r["reported"] for r in rounds)
    evaluated = sum(r["evaluated"] for r in rounds)
    return {
        "solve_s": (sum(solves), "s"),
        "solve_p50_s": (statistics.median(solves), "s"),
        "ops_per_s": (completed / sum(_per_op(rounds, "refs")), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "lower_bound_ratio": (reported / evaluated if evaluated else 0.0, "ratio"),
    }


def per_layer(plain: list[dict], traced: list[dict], peaks: list[int],
              gen_s: float) -> dict:
    """Medians over the traced rounds of each layer's figures."""
    def med(get):
        return statistics.median(get(r) for r in traced)

    metrics = {f"{stem}_s": (med(lambda r: r["self"][stem]), "s")
               for stem in tracing.TIME_METRICS}
    for name, (counter, unit) in TRACE_COUNTS.items():
        metrics[name] = (med(lambda r: r["counts"][counter]), unit)
    metrics |= {
        "generators.gen_s": (gen_s, "s"),
        "solver.fast_combines": (med(lambda r: r["fast_combines"]), "count"),
        "solver.general_combines": (med(lambda r: r["general_combines"]), "count"),
        "solver.table_mb": (med(lambda r: r["counts"]["solver.table_bytes"]) / tracing.MB, "MB"),
        "solver.peak_mb": (max(peaks) / tracing.MB, "MB"),
        "trace.overhead_s": (sum(_per_op(traced, "solve_refs"))
                             - sum(_per_op(plain, "solve_refs")), "s"),
        "trace.outside_s": (med(lambda r: r["wall"] - r["covered"]), "s"),
    }
    return metrics


def run_pass(workload: str, seed: int, gseeds: dict[str, int], work: Path,
             seconds: float, trace: bool) -> dict:
    cli = _import_napx()
    tracer = trace_file = gen_s = None
    if trace:
        tracer = tracing.Tracer()
        trace_file = work.parent / f"trace-{workload}-s{seed}.jsonl"
        trace_file.unlink(missing_ok=True)
        tracer.install()
        workloads.setup(workload, gseeds, work)
        tracer.uninstall()
        spans, _ = tracer.take()
        gen_s = tracing.self_times(spans)["generators.gen"]
        tracer.write(spans, trace_file, "setup")
    ops = json.loads((work / "ops.json").read_text(encoding="utf-8"))
    oracles = {key: checks.Oracle(checks.Ref.from_json(json.loads(
        (work / "ref" / f"{key}.json").read_text(encoding="utf-8"))))
        for key in {op["key"] for op in ops if op["expect"] == 0}}

    peaks, plain, traced = [], [], []
    if trace:
        results = run_round(ops, cli, memory=True)
        memory = check_round(ops, results, oracles)
        peaks = [r["peak"] for r in results if r["peak"] is not None]
    start = perf_counter()
    while (len(plain) < (1 if trace else MIN_ROUNDS) or (trace and not traced)
           or perf_counter() - start < seconds):
        use_tracer = trace and len(traced) <= len(plain)
        if use_tracer:
            tracer.install()
        try:
            results = run_round(ops, cli, tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        summary = check_round(ops, results, oracles)
        if not use_tracer:
            plain.append(summary)
            continue
        spans, counts = tracer.take()
        tracer.write(spans, trace_file, len(traced))
        traced.append(summary | {"self": tracing.self_times(spans), "counts": counts,
                                 "covered": tracing.covered(spans)})

    if not trace:
        return _totals(plain) | {"rounds": len(plain), "metrics": end_to_end(plain)}
    out = _totals([memory] + plain + traced)
    out["rounds"] = 1 + len(plain) + len(traced)
    out["metrics"] = per_layer(plain, traced, peaks, gen_s)
    out["trace_file"] = str(trace_file.relative_to(ROOT))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("seeds", "setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--gseeds", type=json.loads, default=None,
                        help="the generator seeds, as printed by seeds")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "seeds":
        _import_napx()
        print(json.dumps(workloads.find_seeds(args.workload, args.seed)))
        return 0
    if args.work is None or args.gseeds is None:
        parser.error(f"{args.mode} needs --work and --gseeds")
    if args.mode == "setup":
        _import_napx()
        print(workloads.setup(args.workload, args.gseeds, args.work))
        return 0
    result = run_pass(args.workload, args.seed, args.gseeds, args.work, args.seconds,
                      bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
