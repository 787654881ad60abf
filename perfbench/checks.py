"""Reference computations kept apart from napx, and the output checks.

Nothing here imports napx: every reference is recomputed from the
benchmark's own copy of each generated instance, so a fault in
``napx.model`` or ``napx.baselines`` cannot hide itself by agreeing with
its own arithmetic.

An instance is held as a :class:`Ref`: edges in postorder (children
before parents), each ``(length, children, taxon)``, taxa as
``id -> (a, b, c)``, and the budget.
"""

from __future__ import annotations

import math

import numpy as np

# relative tolerance for comparing scores; solution documents carry
# 12 significant digits
REL = 1e-9

EXHAUSTIVE_LIMIT = 16


class Ref:
    """One instance in the benchmark's own form."""

    def __init__(self, edges, root, taxa, budget):
        self.edges = [(float(length), tuple(children), taxon)
                      for length, children, taxon in edges]
        self.root = int(root)
        self.taxa = {t: (float(a), float(b), int(c))
                     for t, (a, b, c) in taxa.items()}
        self.budget = int(budget)
        below: list[tuple[str, ...]] = []
        for _, children, taxon in self.edges:
            if taxon is not None:
                below.append((taxon,))
            else:
                below.append(tuple(t for ch in children for t in below[ch]))
        self.below = below

    def to_json(self) -> dict:
        return {"edges": [[length, list(ch), taxon]
                          for length, ch, taxon in self.edges],
                "root": self.root,
                "taxa": {t: list(v) for t, v in self.taxa.items()},
                "budget": self.budget}

    @classmethod
    def from_json(cls, doc: dict) -> "Ref":
        return cls(doc["edges"], doc["root"], doc["taxa"], doc["budget"])

    @property
    def certain(self) -> bool:
        """True when every taxon has a = 0 and b = 1."""
        return all(a == 0.0 and b == 1.0 for a, b, _ in self.taxa.values())


def cost(ref: Ref, selected) -> int:
    return sum(ref.taxa[t][2] for t in selected)


def expected_diversity(ref: Ref, selected) -> float:
    """E(S): each edge's length times the chance that some leaf below it
    survives, with the leaves below each edge enumerated directly."""
    chosen = set(selected)
    terms = []
    for (length, _, _), leaves in zip(ref.edges, ref.below):
        death = math.prod(1.0 - ref.taxa[t][1 if t in chosen else 0]
                          for t in leaves)
        terms.append(length * (1.0 - death))
    return math.fsum(terms)


def certain_optimum(ref: Ref) -> float:
    """Optimum for a = 0, b = 1 by a cost-indexed tree program: per edge,
    the best total length of surviving edges in its clade, per budget,
    over selections that keep at least one leaf of the clade."""
    nb = ref.budget + 1
    best: list[np.ndarray] = []
    for length, children, taxon in ref.edges:
        f = np.full(nb, -np.inf)
        if taxon is not None:
            c = ref.taxa[taxon][2]
            if c < nb:
                f[c:] = 0.0
        for ch in children:
            g = best[ch]
            both = np.array([np.max(f[:b + 1] + g[b::-1]) for b in range(nb)])
            f = np.maximum(np.maximum(f, g), both)
        best.append(f + length)
    return max(0.0, float(best[ref.root][ref.budget]))


def exhaustive_optimum(ref: Ref) -> float:
    """Optimum by scoring every affordable subset, a block at a time so
    that the benchmark's own memory stays small beside napx's."""
    ids = sorted(ref.taxa)
    n = len(ids)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search is capped at {EXHAUSTIVE_LIMIT} taxa")
    costs = np.array([ref.taxa[t][2] for t in ids], dtype=np.int64)
    a = np.array([ref.taxa[t][0] for t in ids])
    b = np.array([ref.taxa[t][1] for t in ids])
    col = {t: i for i, t in enumerate(ids)}
    edges = [(length, [col[t] for t in leaves])
             for (length, _, _), leaves in zip(ref.edges, ref.below) if length]
    best = 0.0
    for lo in range(0, 1 << n, 4096):
        masks = np.arange(lo, min(lo + 4096, 1 << n), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        bits = bits[bits @ costs <= ref.budget]
        death = np.where(bits, 1.0 - b, 1.0 - a)
        score = np.zeros(len(bits))
        for length, cols in edges:
            score += length * (1.0 - np.prod(death[:, cols], axis=1))
        best = max(best, float(score.max(initial=0.0)))
    return best


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL * max(abs(x), abs(y)) or x == y


class Oracle:
    """Optima of one instance, computed on first use."""

    def __init__(self, ref: Ref):
        self.ref = ref
        self._exhaustive = self._certain = None

    @property
    def exhaustive(self) -> float | None:
        if self._exhaustive is None and len(self.ref.taxa) <= EXHAUSTIVE_LIMIT:
            self._exhaustive = exhaustive_optimum(self.ref)
        return self._exhaustive

    @property
    def certain(self) -> float | None:
        if self._certain is None and self.ref.certain:
            self._certain = certain_optimum(self.ref)
        return self._certain


def check_document(oracle: Oracle, doc: dict, verb: str,
                   epsilon: float | None = None) -> list[str]:
    """Errors in one solution document written by ``solve``, ``exact``
    or ``pg``; an empty list means it passed."""
    ref = oracle.ref
    errs: list[str] = []
    sel = doc["selected"]
    unknown = sorted(set(sel) - set(ref.taxa))
    if unknown or len(set(sel)) != len(sel):
        return [f"selection names unknown or repeated taxa: {sel}"]
    spent = cost(ref, sel)
    if spent > ref.budget:
        errs.append(f"cost {spent} exceeds budget {ref.budget}")
    if doc["total_cost"] != spent or doc["budget"] != ref.budget:
        errs.append(f"document says cost {doc['total_cost']} of budget "
                    f"{doc['budget']}; reference {spent} of {ref.budget}")
    score = expected_diversity(ref, sel)
    evaluated, reported = doc["evaluated_score"], doc["reported_score"]
    if not _close(evaluated, score):
        errs.append(f"evaluated_score {evaluated!r} but E(S) is {score!r}")
    if reported > evaluated and not _close(reported, evaluated):
        errs.append(f"reported_score {reported!r} above evaluated {evaluated!r}")
    if verb in ("exact", "pg") and reported != evaluated:
        errs.append(f"{verb} reported {reported!r} but evaluated {evaluated!r}")
    certain = oracle.certain
    if certain is not None and not _close(evaluated, certain):
        errs.append(f"a=0/b=1 optimum is {certain!r}, {verb} got {evaluated!r}")
    opt = oracle.exhaustive
    if opt is not None:
        if verb in ("exact", "pg") and not _close(evaluated, opt):
            errs.append(f"{verb} got {evaluated!r}, optimum is {opt!r}")
        if verb == "solve":
            # without grid parameters no taxon could be helped, so the
            # bound must hold outright
            p_min = (doc.get("params") or {}).get("p_min", 1.0)
            if (all(a <= p_min for a, _, _ in ref.taxa.values())
                    and evaluated < (1.0 - epsilon) * opt * (1.0 - REL)):
                errs.append(f"{evaluated!r} is below (1-{epsilon}) x "
                            f"optimum {opt!r}")
    return errs


def check_eval_output(oracle: Oracle, doc: dict, text: str) -> list[str]:
    """Errors in the text ``napx eval`` printed for solution ``doc``."""
    ref = oracle.ref
    fields = dict(line.split(": ", 1) for line in text.splitlines()
                  if ": " in line)
    errs: list[str] = []
    score = expected_diversity(ref, doc["selected"])
    try:
        printed = float(fields["evaluated_score"])
        if not _close(printed, score):
            errs.append(f"eval printed {printed!r}, E(S) is {score!r}")
        if int(fields["total_cost"]) != cost(ref, doc["selected"]):
            errs.append(f"eval printed cost {fields['total_cost']}")
        if fields["feasible"] != "yes":
            errs.append(f"eval printed feasible: {fields['feasible']}")
    except (KeyError, ValueError) as exc:
        errs.append(f"eval output unreadable ({exc!r}): {text!r}")
    if "note" in fields:
        errs.append("eval found a claimed score that differs: " + fields["note"])
    return errs


# ------------------------------------------------------------------------- #
#  Negative control
# ------------------------------------------------------------------------- #

def _expect(ok: bool, case: int) -> None:
    if not ok:
        raise RuntimeError(f"check self-test case {case} failed")


def _doc(ref: Ref, selected, reported=None, p_min=1.0) -> dict:
    score = expected_diversity(ref, selected)
    return {"selected": sorted(selected), "total_cost": cost(ref, selected),
            "budget": ref.budget, "evaluated_score": score,
            "reported_score": score if reported is None else reported,
            "params": {"p_min": p_min}}


def self_test() -> None:
    """Feed the checks outputs known to be wrong and assert each is
    caught, after confirming that right outputs pass."""
    # ((t0:1, t1:2):0.5, t2:3) under a zero-length root edge
    edges = [(1.0, (), "t0"), (2.0, (), "t1"), (0.5, (0, 1), None),
             (3.0, (), "t2"), (0.0, (2, 3), None)]
    ref = Ref(edges, 4, {"t0": (0.0, 0.9, 2), "t1": (0.0, 0.8, 1),
                         "t2": (0.0, 0.6, 2)}, budget=3)
    oracle = Oracle(ref)
    by_hand = max(expected_diversity(ref, s) for s in
                  ([], ["t0"], ["t1"], ["t2"], ["t0", "t1"], ["t1", "t2"]))
    _expect(_close(oracle.exhaustive, by_hand), 1)
    best = _doc(ref, ["t1", "t2"])
    _expect(_close(best["evaluated_score"], by_hand), 2)

    _expect(check_document(oracle, best, "exact") == [], 3)
    _expect(check_document(oracle, _doc(ref, ["t1", "t2"], reported=3.0),
                          "solve", epsilon=0.1) == [], 4)
    _expect(check_eval_output(oracle, best, _eval_text(best)) == [], 5)

    over = _doc(ref, ["t0", "t1", "t2"])
    _expect(any("exceeds budget" in e for e in check_document(oracle, over, "solve", 0.1)), 6)
    bumped = dict(best, evaluated_score=best["evaluated_score"] * (1 + 1e-6))
    _expect(any("E(S)" in e for e in check_document(oracle, bumped, "solve", 0.1)), 7)
    high = _doc(ref, ["t1", "t2"], reported=best["evaluated_score"] * 1.01)
    _expect(any("above evaluated" in e for e in check_document(oracle, high, "solve", 0.1)), 8)
    poor = _doc(ref, ["t2"])
    _expect(any("optimum" in e for e in check_document(oracle, poor, "exact")), 9)
    _expect(any("below (1-0.1)" in e for e in check_document(oracle, poor, "solve", 0.1)), 10)
    _expect(check_eval_output(oracle, best, _eval_text(best).replace("yes", "no")), 11)

    # the two independent optima agree on a certain-survival instance
    cref = Ref(edges, 4, {"t0": (0.0, 1.0, 2), "t1": (0.0, 1.0, 1),
                          "t2": (0.0, 1.0, 2)}, budget=3)
    _expect(_close(certain_optimum(cref), exhaustive_optimum(cref)), 12)
    _expect(_close(certain_optimum(cref), 5.5), 13)
    wrong = _doc(cref, ["t0", "t1"])
    _expect(any("a=0/b=1" in e for e in check_document(Oracle(cref), wrong, "pg")), 14)


def _eval_text(doc: dict) -> str:
    return (f"selected: {', '.join(doc['selected'])}\n"
            f"total_cost: {doc['total_cost']}\nbudget: {doc['budget']}\n"
            f"evaluated_score: {doc['evaluated_score']:.12g}\nfeasible: yes\n")
