"""Spans around the names through which one napx layer calls the next.

The tracer replaces module-level names (and a few methods) with wrappers
from outside the package, records one span per call with its name, start,
end, parent span and operation, and derives each layer's self time: a
span's duration minus the part its child spans cover. A call made from
inside a span of the same layer metric records no span of its own (its
time already belongs to that span) and is only counted; this keeps the
hundreds of thousands of nested window calls of a deep grid from
swamping the trace. A wrapped name that no longer exists is skipped and
its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from time import perf_counter

MB = float(1 << 20)

# (module, attribute or Class.attribute, layer metric stem)
TARGETS = [
    ("napx.cli", "main", "cli.self"),
    ("napx.cli", "load_instance", "io.load"),
    ("napx.cli", "load_solution", "io.load"),
    ("napx.cli", "write_solution", "io.write"),
    ("napx.cli", "_emit", "io.write"),
    ("napx.cli", "solve", "solver.self"),
    ("napx.cli", "make_conservation_set", "model.evaluate"),
    ("napx.cli", "brute_force", "baselines.brute_force"),
    ("napx.cli", "pardi_goldman", "baselines.pardi_goldman"),
    ("napx.solver", "normalize", "model.normalize"),
    ("napx.solver", "make_conservation_set", "model.evaluate"),
    ("napx.solver", "derive_k", "discretization.params"),
    ("napx.solver", "select_params", "discretization.params"),
    ("napx.solver", "build_tables", "solver.build"),
    ("napx.solver", "build_pendant_table", "solver.build"),
    ("napx.solver", "combine_tables", "solver.combine"),
    ("napx.solver", "backtrace", "solver.backtrace"),
    ("napx.solver", "RangeMaxIndex", "rmq.build"),
    ("napx.rmq", "RangeMaxIndex.query_many", "rmq.query"),
    ("napx.discretization", "Discretization._k_row", "discretization.windows"),
    ("napx.discretization", "Discretization._p_rows_for_k", "discretization.windows"),
    ("napx.discretization", "Discretization._row_matrix", "discretization.windows"),
    ("napx.baselines", "normalize", "model.normalize"),
    ("napx.baselines", "make_conservation_set", "model.evaluate"),
    ("napx.generators", "generate", "generators.gen"),
]

TIME_METRICS = sorted({stem for _, _, stem in TARGETS})


class Tracer:
    """Installs the wrappers, keeps spans in memory and reduces them."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[tuple[int, str]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def install(self) -> None:
        for module, attr, stem in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, f"{module}.{attr}", stem))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, original, qualname: str, stem: str):
        if isinstance(original, functools.cached_property):
            prop = functools.cached_property(self._wrap(original.func, qualname, stem))
            prop.__set_name__(None, original.attrname)
            return prop
        after = _AFTER.get(stem)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[stem] += 1
            stack = tracer._stack
            if stack and stack[-1][1] == stem:
                return original(*args, **kwargs)
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            stack.append((sid, stem))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.op, qualname, stem, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far, and reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def write(self, spans: list, path, round_no) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, op, qualname, _, start, end in spans:
                fh.write(json.dumps({"round": round_no, "id": sid, "parent": parent,
                                     "op": op, "name": qualname,
                                     "start": start, "end": end}) + "\n")


def covered(spans: list) -> float:
    """Time inside top-level spans."""
    return sum(end - start for _, parent, _, _, _, start, end in spans if parent < 0)


def self_times(spans: list) -> dict[str, float]:
    """Per layer metric stem: summed span durations minus their children's."""
    child = [0.0] * len(spans)
    for _, parent, _, _, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {stem: 0.0 for stem in TIME_METRICS}
    for sid, _, _, _, stem, start, end in spans:
        out[stem] += (end - start) - child[sid]
    return out


def _after_load(tracer, args, _result):
    tracer.counts["io.bytes_read"] += os.path.getsize(args[0])


def _after_params(tracer, _args, result):
    if hasattr(result, "t"):
        tracer.counts["discretization.grid_rows"] += result.t + 2


def _after_build(tracer, _args, result):
    tables = result[0] if isinstance(result, tuple) else None
    if not isinstance(tables, dict):
        return
    held = sum(arr.nbytes for tab in tables.values() for arr in vars(tab).values()
               if hasattr(arr, "nbytes"))
    tracer.counts["solver.table_bytes"] = max(tracer.counts["solver.table_bytes"], held)


def _after_query(tracer, args, _result):
    tracer.counts["rmq.windows"] += len(args[1])


_AFTER = {"io.load": _after_load, "discretization.params": _after_params,
          "solver.build": _after_build, "rmq.query": _after_query}
