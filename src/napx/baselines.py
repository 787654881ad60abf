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

import math

import numpy as np

from .discretization import Discretization
from .errors import RestrictionError, SizeLimitError
from .model import (ConservationSet, Instance, make_conservation_set,
                    normalize, validate_instance)
from .solver import solve_on_grid

__all__ = ["brute_force", "pardi_goldman", "BRUTE_FORCE_LIMIT"]

# 2**25 subsets take 8-10 s in blocks (Yule and caterpillar trees of 25
# leaves, 2-core machine), and each further taxon doubles that; past the
# limit the enumeration is a bug in the caller, not a patience problem.
BRUTE_FORCE_LIMIT = 25

# With a = 0 and b = 1 every leaf survives with probability exactly 0 or
# 1, and so does every clade, since v_j + (1 - v_j) * v_k stays in {0, 1}.
# Any grid holds both values without rounding (1 on row 0, 0 on row
# t + 1), so the table program is exact on this one, and a cell's score is
# the float sum of the lengths of the edges above its conserved leaves.
_CERTAIN = Discretization(alpha=0.5, p_min=0.5, t=1)

_TIE_TOL = 1e-12

# Subsets scored per array pass: each per-edge array holds 32 KB, so the
# arrays alive at once stay under about 1 MB for any tree the limit admits.
_BLOCK = 4096


def _score_block(instance: Instance, lengths: list[float], bit_of: dict[str, int],
                 costs: list[int], cost_dtype,
                 codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Costs and scores of the subsets whose membership bits are ``codes``.

    Death products and the score sum follow
    :func:`napx.model.expected_pd` operation by operation, the terms added
    in edge order, so each score has the bits that ``expected_pd`` gives
    that subset. A child's array is dropped once its parent is built.
    """
    cost = np.zeros(len(codes), dtype=cost_dtype)
    score = np.zeros(len(codes))
    death: dict[int, np.ndarray] = {}
    for e in instance.tree.edges:
        if e.taxon is not None:
            i = bit_of[e.taxon]
            tx = instance.taxa[e.taxon]
            member = (codes >> i) & 1
            cost += member.astype(cost_dtype) * costs[i]
            d = np.where(member, 1.0 - tx.b, 1.0 - tx.a)
        else:
            d = death.pop(e.children[0])
            for c in e.children[1:]:
                d = d * death.pop(c)
        death[e.eid] = d
        score += lengths[e.eid] * (1.0 - d)
    return cost, score


def brute_force(instance: Instance) -> ConservationSet:
    """Exact optimum by subset enumeration.

    Every subset S is walked in Gray-code order, the empty set first, and
    each affordable one goes through one rule on the running best score
    and id tuple: a score above best + 1e-12 makes S the best; a score
    above best - 1e-12 makes S the best if its sorted id tuple is smaller,
    and raises the best score if it is higher.

    Blocks of subsets are scored as arrays by :func:`_score_block`, to the
    bits of :func:`napx.model.expected_pd`. The best score is always the
    maximum score so far, so a subset that scores below the maximum up to
    and including it, minus the tolerance, changes nothing; only the
    others are fed to the rule, in the same order, with their block
    scores. The winner's score is that of ``expected_pd``.
    """
    validate_instance(instance)
    ids = sorted(instance.taxa)
    n = len(ids)
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force is capped at {BRUTE_FORCE_LIMIT} taxa, instance has {n}")
    budget = int(instance.budget)
    # a cost above the budget stays above it at budget + 1; subset totals
    # are summed as Python ints when the capped total does not fit int64
    costs = [min(int(instance.taxa[t].c), budget + 1) for t in ids]
    total = sum(costs)
    limit = min(budget, total)
    cost_dtype = np.int64 if total <= np.iinfo(np.int64).max else object
    bit_of = {t: i for i, t in enumerate(ids)}
    lengths = [e.length for e in instance.tree.edges]

    best_score = -math.inf
    best_ids: tuple[str, ...] = ()
    size = min(_BLOCK, 1 << n)
    for start in range(0, 1 << n, size):
        codes = np.arange(start, start + size, dtype=np.int64)
        codes ^= codes >> 1
        # Python floats overflow to inf silently, and so must the blocks
        with np.errstate(over="ignore"):
            cost, score = _score_block(instance, lengths, bit_of, costs,
                                       cost_dtype, codes)
        score[cost > limit] = -math.inf
        top = np.maximum.accumulate(score)
        np.maximum(top, best_score, out=top)
        # >=, not >: from 2**14 on, top - 1e-12 == top, and a new maximum
        # must still reach the rule
        keep = score >= top - _TIE_TOL
        for code, s in zip(codes[keep].tolist(), score[keep].tolist()):
            cand = tuple(ids[i] for i in range(n) if code >> i & 1)
            if s > best_score + _TIE_TOL:
                best_score = s
                best_ids = cand
            elif s > best_score - _TIE_TOL:
                if cand < best_ids:
                    best_ids = cand
                if s > best_score:
                    best_score = s
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
