"""Exact reference solvers.

Two baselines anchor the approximate solver:

* :func:`brute_force` enumerates every affordable subset. It is the
  ground truth for anything small enough to enumerate and is used by the
  benchmark harness to measure approximation ratios.

* :func:`pardi_goldman` solves the restricted setting of Pardi and
  Goldman, where unprotected taxa surely die (a = 0) and protected taxa
  surely survive (b = 1), exactly. Expected diversity then counts exactly
  the edges above at least one protected leaf, and the frontier table
  program of :mod:`napx.solver` finds the best such selection on a grid
  that holds every survival probability without rounding.
"""

from __future__ import annotations

from .discretization import Discretization
from .errors import RestrictionError, SizeLimitError
from .model import (ConservationSet, Instance, expected_pd,
                    make_conservation_set, normalize, validate_instance)
from .solver import solve_on_grid

__all__ = ["brute_force", "pardi_goldman", "BRUTE_FORCE_LIMIT"]

# 2**25 subset evaluations is already minutes of work; past that the
# enumeration is a bug in the caller, not a patience problem.
BRUTE_FORCE_LIMIT = 25

# With a = 0 and b = 1 every leaf survives with probability exactly 0 or
# 1, and so does every clade, since v_j + (1 - v_j) * v_k stays in {0, 1}.
# Any grid holds both values without rounding (1 on row 0, 0 on row
# t + 1), so the table program is exact on this one, and a cell's score is
# the float sum of the lengths of the edges above its conserved leaves.
_CERTAIN = Discretization(alpha=0.5, p_min=0.5, t=1)

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
    """Exact optimum for the a=0, b=1 restriction, for any integer costs.

    Runs :func:`napx.solver.solve_on_grid` on a grid that represents the
    restricted model exactly. Of two exactly tied selections the cheaper
    one is returned, as by :func:`napx.solver.solve`.

    Raises
    ------
    RestrictionError
        Naming the offending taxa when any has a != 0 or b != 1. The
        check runs on the raw instance, before normalization has a chance
        to rewrite probabilities.
    SizeLimitError
        When the normalized budget does not fit int64 or a table combine
        exceeds ``napx.solver.PAIR_LIMIT``, as in :func:`napx.solver.solve`.
    """
    validate_instance(instance)
    offending = sorted(t.id for t in instance.taxa.values()
                       if t.a != 0.0 or t.b != 1.0)
    if offending:
        raise RestrictionError(
            "this solver needs a=0 and b=1 for every taxon; violated by: "
            + ", ".join(offending))
    return solve_on_grid(instance, normalize(instance), _CERTAIN)[0]
