"""Instance and solution files.

Instances travel in two canonical formats:

* ``.nap.json``: a JSON object with ``format``/``version`` markers, the
  integer ``budget``, the tree as a plain newick string, a ``taxa`` table
  mapping leaf label to ``{a, b, c}``, and optional ``name`` and ``seed``.

* ``.nap.nwk``: one annotated newick file, header comment first; see
  :mod:`napx.newick`.

Both writers emit the same instance identically every time: keys sorted,
floats at 12 significant digits, children in canonical order. Solutions
are JSON only. JSON is read as strict RFC 8259, with no NaN or Infinity.
Every file napx writes, and its stdout, goes through :func:`open_text`.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, ParseError
from .model import Instance, Taxon, new_taxon
from .newick import (format_annotated, format_newick, parse_annotated,
                     parse_newick, round12)

__all__ = [
    "FORMAT_INSTANCE",
    "FORMAT_SOLUTION",
    "FORMAT_VERSION",
    "SolutionDocument",
    "parse_instance",
    "write_instance",
    "load_instance",
    "save_instance",
    "instance_format_for",
    "open_text",
    "parse_solution",
    "write_solution",
    "load_solution",
]

FORMAT_INSTANCE = "nap-instance"
FORMAT_SOLUTION = "nap-solution"
FORMAT_VERSION = 1

_INSTANCE_KEYS = {"format", "version", "name", "seed", "budget", "newick", "taxa"}
_SOLUTION_KEYS = {"format", "version", "solver", "instance", "budget", "selected",
                  "total_cost", "reported_score", "evaluated_score", "params", "stats"}


# json.loads gives numbers as exactly int or float, and a bool is neither
def _as_int(value, what: str) -> int:
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _as_float(value, what: str) -> float:
    """A finite float: json reads a literal such as 1e999 as inf, and an
    int beyond the float range raises OverflowError; both are refused."""
    if type(value) is not float and type(value) is not int:
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{what} is too large for a float")
    return number


def _check_doc(doc, expected_format: str, allowed: set[str], required: set[str]) -> None:
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    got = doc.get("format")
    if got != expected_format:
        raise ParseError(f"format must be {expected_format!r}, got {got!r}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported version {version!r}, expected {FORMAT_VERSION}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ParseError("unknown keys: " + ", ".join(unknown))
    missing = sorted(required - set(doc))
    if missing:
        raise ParseError("missing keys: " + ", ".join(missing))


def _refuse_constant(name: str):
    raise ParseError(f"{name} is not a JSON number (RFC 8259)")


def _loads(text: str):
    """Strict JSON: json's NaN, Infinity and -Infinity are refused."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise ParseError(str(exc)) from None


# ------------------------------------------------------------------------- #
#  Instances
# ------------------------------------------------------------------------- #

def _parse_instance_json(text: str) -> tuple[Instance, dict]:
    doc = _loads(text)
    _check_doc(doc, FORMAT_INSTANCE, _INSTANCE_KEYS,
               {"format", "version", "budget", "newick", "taxa"})
    budget = _as_int(doc["budget"], "budget")
    if not isinstance(doc["newick"], str):
        raise ParseError("newick must be a string")
    if not isinstance(doc["taxa"], dict):
        raise ParseError("taxa must be an object")
    taxa: dict[str, Taxon] = {}
    for tid, rec in doc["taxa"].items():
        if type(rec) is not dict or rec.keys() != {"a", "b", "c"}:
            raise ParseError(f"taxon {tid!r} must be an object with exactly "
                             "the keys a, b, c")
        try:
            taxa[tid] = new_taxon((tid, _as_float(rec["a"], "a"),
                                   _as_float(rec["b"], "b"), _as_int(rec["c"], "c")))
        except ParseError as exc:
            raise ParseError(f"taxon {tid!r}: {exc}") from None
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    seed = doc.get("seed")
    if seed is not None:
        seed = _as_int(seed, "seed")
    tree = parse_newick(doc["newick"])
    return Instance(tree=tree, taxa=taxa, budget=budget), {"name": name, "seed": seed}


def _parse_instance_nwk(text: str) -> tuple[Instance, dict]:
    tree, taxa, header = parse_annotated(text)
    instance = Instance(tree=tree, taxa=taxa, budget=header["budget"])
    return instance, {"name": header["name"], "seed": header["seed"]}


def parse_instance(text: str, fmt: str) -> tuple[Instance, dict]:
    """Parse instance text in the given format, ``"json"`` or ``"nwk"``.

    Returns the instance and a metadata mapping with ``name`` and ``seed``
    (either may be None). Only syntax and shape are checked here; semantic
    checks live in :func:`napx.model.validate_instance`.
    """
    if fmt == "json":
        return _parse_instance_json(text)
    if fmt == "nwk":
        return _parse_instance_nwk(text)
    raise InputError(f"unknown instance format {fmt!r}; use 'json' or 'nwk'")


def write_instance(instance: Instance, fmt: str, *, name: str | None = None,
                   seed: int | None = None) -> str:
    """Serialize an instance canonically in the given format."""
    if fmt == "json":
        doc = {
            "format": FORMAT_INSTANCE,
            "version": FORMAT_VERSION,
            "budget": int(instance.budget),
            "newick": format_newick(instance.tree),
            "taxa": {tid: {"a": round12(tx.a), "b": round12(tx.b), "c": int(tx.c)}
                     for tid, tx in instance.taxa.items()},
        }
        if name is not None:
            doc["name"] = name
        if seed is not None:
            doc["seed"] = int(seed)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "nwk":
        return format_annotated(instance, name=name, seed=seed)
    raise InputError(f"unknown instance format {fmt!r}; use 'json' or 'nwk'")


def instance_format_for(path: "str | Path") -> str:
    """Pick the instance format from a file name's suffix."""
    name = str(path)
    if name.endswith(".json"):
        return "json"
    if name.endswith(".nwk"):
        return "nwk"
    raise InputError(f"cannot tell the format of {name!r} from its suffix; "
                     "expected .nap.json or .nap.nwk")


def _read_text(path: "str | Path") -> str:
    """A file's text; a file that cannot be read or is not UTF-8 is bad input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


@contextmanager
def open_text(path: "str | Path | None"):
    """Yield ``sys.stdout`` for ``None``, flushed on the way out, else
    ``path`` opened for UTF-8 text; an output that cannot be opened or
    written, stdout closed at start-up or by its reader, is bad input."""
    try:
        if path is None:
            if sys.stdout is None:
                raise OSError("stdout is closed")
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
    except OSError as exc:
        raise InputError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc


def load_instance(path: "str | Path") -> tuple[Instance, dict]:
    """Read an instance file, picking the format from the suffix."""
    fmt = instance_format_for(path)
    return parse_instance(_read_text(path), fmt)


def save_instance(instance: Instance, path: "str | Path", *,
                  name: str | None = None, seed: int | None = None) -> None:
    """Write an instance file, picking the format from the suffix."""
    text = write_instance(instance, instance_format_for(path), name=name, seed=seed)
    with open_text(path) as fh:
        fh.write(text)


# ------------------------------------------------------------------------- #
#  Solutions
# ------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SolutionDocument:
    """A solver's answer in portable form.

    ``reported_score`` is what the solver's own arithmetic claimed;
    ``evaluated_score`` is the selection re-scored exactly on the original
    instance. For exact solvers the two coincide. ``params`` and ``stats``
    are small flat mappings, or None where a solver has none.
    """

    solver: str
    budget: int
    selected: tuple[str, ...]
    total_cost: int
    reported_score: float
    evaluated_score: float
    instance: str | None = None
    params: dict | None = None
    stats: dict | None = None


def _rounded(mapping: dict | None) -> dict | None:
    if mapping is None:
        return None
    return {k: round12(v) if isinstance(v, float) else v
            for k, v in mapping.items()}


def write_solution(doc: SolutionDocument) -> str:
    payload = {
        "format": FORMAT_SOLUTION,
        "version": FORMAT_VERSION,
        "solver": doc.solver,
        "instance": doc.instance,
        "budget": int(doc.budget),
        "selected": sorted(doc.selected),
        "total_cost": int(doc.total_cost),
        "reported_score": round12(doc.reported_score),
        "evaluated_score": round12(doc.evaluated_score),
        "params": _rounded(doc.params),
        "stats": _rounded(doc.stats),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_solution(text: str) -> SolutionDocument:
    doc = _loads(text)
    _check_doc(doc, FORMAT_SOLUTION, _SOLUTION_KEYS,
               {"format", "version", "solver", "budget", "selected",
                "total_cost", "reported_score", "evaluated_score"})
    solver = doc["solver"]
    if not isinstance(solver, str):
        raise ParseError(f"solver must be a string, got {solver!r}")
    selected = doc["selected"]
    if not isinstance(selected, list) or not all(isinstance(s, str) for s in selected):
        raise ParseError("selected must be a list of taxon ids")
    seen: set[str] = set()
    for tid in selected:
        if tid in seen:
            raise ParseError(f"selected lists taxon {tid!r} more than once")
        seen.add(tid)
    params = doc.get("params")
    if params is not None and not isinstance(params, dict):
        raise ParseError("params must be an object or null")
    stats = doc.get("stats")
    if stats is not None and not isinstance(stats, dict):
        raise ParseError("stats must be an object or null")
    name = doc.get("instance")
    if name is not None and not isinstance(name, str):
        raise ParseError("instance must be a string or null")
    return SolutionDocument(
        solver=solver,
        budget=_as_int(doc["budget"], "budget"),
        selected=tuple(sorted(selected)),
        total_cost=_as_int(doc["total_cost"], "total_cost"),
        reported_score=_as_float(doc["reported_score"], "reported_score"),
        evaluated_score=_as_float(doc["evaluated_score"], "evaluated_score"),
        instance=name,
        params=params,
        stats=stats,
    )


def load_solution(path: "str | Path") -> SolutionDocument:
    return parse_solution(_read_text(path))
