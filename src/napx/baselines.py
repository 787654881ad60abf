"""Exact reference solvers.

Two baselines anchor the approximate solver:

* :func:`brute_force` enumerates every affordable subset. It is the
  ground truth for anything small enough to enumerate and is used by the
  benchmark harness to measure approximation ratios.

* :func:`pardi_goldman` is the classic quadratic dynamic program for the
  restricted setting where unprotected taxa surely die (a = 0) and
  protected taxa surely survive (b = 1). Expected diversity then counts
  exactly the edges above at least one protected leaf, and a
  cost-indexed best-nonempty-subtree recurrence is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError, RestrictionError, SizeLimitError
from .model import (ConservationSet, Instance, expected_pd,
                    make_conservation_set, normalize, validate_instance)

__all__ = ["brute_force", "pardi_goldman", "BRUTE_FORCE_LIMIT", "CELL_LIMIT"]

# 2**25 subset evaluations is already minutes of work; past that the
# enumeration is a bug in the caller, not a patience problem.
BRUTE_FORCE_LIMIT = 25

# pardi_goldman keeps one float per (edge, budget) cell, edges * (B + 1)
# of them; 10**8 cells are 800 MB.
CELL_LIMIT = 10**8

_TIE_TOL = 1e-12


def brute_force(instance: Instance, *, limit: int = BRUTE_FORCE_LIMIT) -> ConservationSet:
    """Exact optimum by subset enumeration.

    Subsets are walked in Gray-code order so the running cost updates by
    one taxon per step; every affordable subset is scored from scratch
    with :func:`expected_pd`. Among subsets within 1e-12 of the best
    score, the lexicographically smallest sorted id tuple wins, and the
    winner's score is recomputed cleanly at the end.
    """
    validate_instance(instance)
    ids = sorted(instance.taxa)
    n = len(ids)
    if n > limit:
        raise SizeLimitError(
            f"brute force is capped at {limit} taxa, instance has {n}")
    costs = [instance.taxa[t].c for t in ids]
    budget = instance.budget

    best_score = expected_pd(instance, frozenset())
    best_ids: tuple[str, ...] = ()
    member = [False] * n
    current: set[str] = set()
    cost = 0
    gray = 0
    for step in range(1, 1 << n):
        gray_next = step ^ (step >> 1)
        bit = (gray ^ gray_next).bit_length() - 1
        gray = gray_next
        if member[bit]:
            member[bit] = False
            current.discard(ids[bit])
            cost -= costs[bit]
        else:
            member[bit] = True
            current.add(ids[bit])
            cost += costs[bit]
        if cost > budget:
            continue
        score = expected_pd(instance, current)
        if score > best_score + _TIE_TOL:
            best_score = score
            best_ids = tuple(sorted(current))
        elif score > best_score - _TIE_TOL:
            cand = tuple(sorted(current))
            if cand < best_ids:
                best_ids = cand
            if score > best_score:
                best_score = score
    return make_conservation_set(instance, frozenset(best_ids))


def pardi_goldman(instance: Instance) -> ConservationSet:
    """Exact quadratic dynamic program for the a=0, b=1 restriction.

    Raises
    ------
    RestrictionError
        Naming the offending taxa when any has a != 0 or b != 1. The
        check runs on the raw instance, before normalization has a chance
        to rewrite probabilities.
    SizeLimitError
        When the tables would hold more than ``CELL_LIMIT`` (edge, budget)
        cells for the normalized budget; nothing is allocated.
    """
    validate_instance(instance)
    offending = sorted(t.id for t in instance.taxa.values()
                       if t.a != 0.0 or t.b != 1.0)
    if offending:
        raise RestrictionError(
            "this solver needs a=0 and b=1 for every taxon; violated by: "
            + ", ".join(offending))

    norm = normalize(instance)
    tree = norm.tree
    budget = norm.budget
    cells = len(tree.edges) * (budget + 1)
    if cells > CELL_LIMIT:
        raise SizeLimitError(
            f"the tables would hold {cells} (edge, budget) cells, above the "
            f"limit of {CELL_LIMIT}")
    neg = -np.inf

    # bn[e][b]: best diversity below-and-including edge e over selections
    # of cost <= b that conserve at least one leaf in e's clade.
    bn: dict[int, np.ndarray] = {}
    for e in tree.edges:
        arr = np.full(budget + 1, neg)
        if e.taxon is not None:
            tx = norm.taxa[e.taxon]
            if tx.b == 1.0 and tx.c <= budget:
                arr[tx.c:] = e.length
        elif len(e.children) == 1:
            arr = bn[e.children[0]] + e.length
        else:
            l, r = e.children
            bl, br = bn[l], bn[r]
            for b in range(budget + 1):
                left = bl[:b + 1]
                right = br[b::-1]
                both = left + right
                lonly = left
                ronly = right
                arr[b] = e.length + max(both.max(), lonly.max(), ronly.max())
        bn[e.eid] = arr

    root_val = bn[tree.root][budget]
    if not (root_val > 0.0):
        return make_conservation_set(instance, frozenset())

    selected: list[str] = []
    stack: list[tuple[int, int]] = [(tree.root, budget)]
    while stack:
        eid, b = stack.pop()
        e = tree.edges[eid]
        if e.taxon is not None:
            selected.append(e.taxon)
            continue
        if len(e.children) == 1:
            stack.append((e.children[0], b))
            continue
        l, r = e.children
        bl, br = bn[l], bn[r]
        target = bn[eid][b]
        found = False
        for i in range(b + 1):
            # candidate order fixes ties: smallest split first, then
            # both-sides before left-only before right-only
            options = (
                (bl[i] + br[b - i], True, True),
                (bl[i], True, False),
                (br[b - i], False, True),
            )
            for val, use_l, use_r in options:
                if val == neg:
                    continue
                if e.length + val == target:
                    if use_l:
                        stack.append((l, i))
                    if use_r:
                        stack.append((r, b - i))
                    found = True
                    break
            if found:
                break
        if not found:
            raise InternalError("inconsistent tables during backtrace")
    return make_conservation_set(instance, frozenset(selected))
