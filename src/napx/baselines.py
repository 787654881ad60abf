"""Exact reference solvers.

Two baselines anchor the approximate solver:

* :func:`brute_force` enumerates every affordable subset. It is the
  ground truth for anything small enough to enumerate and is used by the
  benchmark harness to measure approximation ratios. It scores the
  subsets in blocks of 2**13, each in one postorder walk over the edges:
  all 2**25 subsets of a 25-leaf tree take about 2 s (2-core machine).

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

__all__ = ["brute_force", "check_brute_force_size", "pardi_goldman",
           "BRUTE_FORCE_LIMIT"]

# 2**25 subsets take about 2 s in blocks (Yule and caterpillar trees of 25
# leaves, 2-core machine), and each further taxon doubles that; past the
# limit the enumeration is a bug in the caller, not a patience problem.
BRUTE_FORCE_LIMIT = 25

# With a = 0 and b = 1 every leaf survives with probability exactly 0 or
# 1, and so does every clade, since v_j + (1 - v_j) * v_k stays in {0, 1}.
# Any grid holds both values without rounding (1 on row 0, 0 on row
# t + 1), so the table program is exact on this one, and a cell's score is
# the float sum of the lengths of the edges above its conserved leaves.
_CERTAIN = Discretization(alpha=0.5, p_min=0.5)

_TIE_TOL = 1e-12

# Subsets per block: 2**13, so the running sums, the Gray-order tables and
# the widest death array hold 64 KB each, and the arrays alive at once stay
# under 1 MB for any tree the limit admits.
_LOW_BITS = 13


def _precedes(a: int, b: int) -> bool:
    """Whether subset code ``a`` has a smaller sorted id tuple than ``b``.

    Bit i stands for the i-th smallest id. The two tuples agree up to the
    lowest bit in which the codes differ, and the subset holding that bit
    lists its id next. That subset is smaller, unless the other one has no
    bit above: then the other tuple ends there, a prefix of the first.
    """
    low = (a ^ b) & -(a ^ b)
    if a & low:
        return b & -(low << 1) != 0
    return low != 0 and a & -(low << 1) == 0


def _walk(instance: Instance, bit_of: dict[str, int], width: int) -> tuple[list, list[int]]:
    """The postorder steps that score one block, and each low bit's stride.

    The ``width`` lowest bits vary within a block. A low leaf puts a new
    leading axis on the running sums, so a subset's position in the score
    array is the sum of the strides of its low bits, and every clade's low
    leaves are the leading axes when its edge is reached. A leaf step
    holds the leaf's bit and its two death probabilities and terms, the
    unconserved one first; an interior step holds its children and length.
    """
    steps: list = []
    stride = [0] * width
    low = 0
    for e in instance.tree.edges:
        if e.taxon is None:
            steps.append((e.eid, e.children, e.length))
            continue
        i = bit_of[e.taxon]
        tx = instance.taxa[e.taxon]
        death = np.array([1.0 - tx.a, 1.0 - tx.b])
        if i < width:
            stride[i] = 1 << low
            low += 1
        steps.append((e.eid, i, (death, e.length * (1.0 - death))))
    return steps, stride


def _block_scores(steps: list, width: int, high: int) -> np.ndarray:
    """Scores of one block's subsets, at the positions that ``_walk`` gives.

    ``high`` holds the block's fixed bits. Each subset's death products
    and score follow :func:`napx.model.expected_pd` operation by
    operation: an interior edge's death array is the outer product of its
    children's, last child leading, which multiplies them in child order,
    and its term is added over its clade's axes, so the terms are added in
    edge order. A child's array is dropped once its parent is built.
    """
    score = np.zeros(1)
    deaths: dict[int, np.ndarray] = {}
    for eid, below, arg in steps:
        if isinstance(below, int):
            death, term = arg
            if below < width:
                score = np.add.outer(term, score).ravel()
            else:
                member = high >> below & 1
                death = death[member:member + 1]
                score += term[member]
            deaths[eid] = death
            continue
        d = deaths.pop(below[0])
        for c in below[1:]:
            d = np.multiply.outer(deaths.pop(c), d).ravel()
        deaths[eid] = d
        term = arg * (1.0 - d)
        if term.size == score.size:
            score += term
        else:
            rows = score.reshape(term.size, -1)
            rows += term[:, None]
    return score


def _gray_tables(stride: list[int], costs: list[int],
                 cost_dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The low codes of a block, their positions in the score array and
    their costs, in Gray order, built by reflection: the codes of one
    more bit are those so far, then the same reversed with the bit set."""
    size = 1 << len(stride)
    codes = np.zeros(size, dtype=np.int64)
    pos = np.zeros(size, dtype=np.intp)
    cost = np.zeros(size, dtype=cost_dtype)
    for i, (s, c) in enumerate(zip(stride, costs)):
        h = 1 << i
        np.bitwise_or(codes[h - 1::-1], h, out=codes[h:2 * h])
        np.add(pos[h - 1::-1], s, out=pos[h:2 * h])
        np.add(cost[h - 1::-1], c, out=cost[h:2 * h])
    return codes, pos, cost


def check_brute_force_size(instance: Instance) -> None:
    """Refuse, with :class:`SizeLimitError`, an instance of more taxa than
    :func:`brute_force` enumerates."""
    n = len(instance.taxa)
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force is capped at {BRUTE_FORCE_LIMIT} taxa, instance has {n}")


def brute_force(instance: Instance) -> ConservationSet:
    """Exact optimum by subset enumeration.

    Every subset S is walked in Gray-code order, the empty set first, and
    each affordable one goes through one rule on the running best score
    and id tuple: a score above best + 1e-12 makes S the best; a score
    above best - 1e-12 makes S the best if its sorted id tuple is smaller,
    and raises the best score if it is higher.

    Bit i of a subset's code stands for the i-th smallest id. The codes
    come in blocks of 2**13 that share their high bits, and
    :func:`_block_scores` scores a block in one postorder walk, to the
    bits of :func:`napx.model.expected_pd`. The reflected Gray code runs
    through the low bits forwards in even blocks and backwards in odd
    ones, so both read the same tables. A block with no affordable subset
    is skipped. The best score is always the maximum score so far, so a
    subset that scores below the maximum up to and including it, minus
    the tolerance, changes nothing; only the others are fed to the rule,
    in the same order, with their block scores, and id tuples are
    compared by :func:`_precedes` on codes. The winner's score is that of
    ``expected_pd``. Validation keeps every block sum finite.
    """
    validate_instance(instance)
    check_brute_force_size(instance)
    ids = sorted(instance.taxa)
    n = len(ids)
    budget = int(instance.budget)
    # a cost above the budget stays above it at budget + 1; subset totals
    # are summed as Python ints when the capped total does not fit int64
    costs = [min(int(instance.taxa[t].c), budget + 1) for t in ids]
    total = sum(costs)
    limit = min(budget, total)
    cost_dtype = np.int64 if total <= np.iinfo(np.int64).max else object
    width = min(_LOW_BITS, n)
    steps, stride = _walk(instance, {t: i for i, t in enumerate(ids)}, width)
    tables = _gray_tables(stride, costs[:width], cost_dtype)

    best_score = -math.inf
    best = 0
    for block in range(1 << (n - width)):
        high = (block ^ block >> 1) << width
        room = limit - sum(c for i, c in enumerate(costs) if high >> i & 1)
        if room < 0:
            continue
        codes, pos, cost = (t[::-1] for t in tables) if block & 1 else tables
        score = _block_scores(steps, width, high)[pos]
        score[cost > room] = -math.inf
        top = np.maximum.accumulate(score)
        np.maximum(top, best_score, out=top)
        # >=, not >: from 2**14 on, top - 1e-12 == top, and a new maximum
        # must still reach the rule
        keep = score >= top - _TIE_TOL
        for code, s in zip(codes[keep].tolist(), score[keep].tolist()):
            code |= high
            if s > best_score + _TIE_TOL:
                best_score = s
                best = code
            elif s > best_score - _TIE_TOL:
                if _precedes(code, best):
                    best = code
                if s > best_score:
                    best_score = s
    return make_conservation_set(
        instance, frozenset(t for i, t in enumerate(ids) if best >> i & 1))


def pardi_goldman(instance: Instance) -> ConservationSet:
    """Exact optimum for the a=0, b=1 restriction, for any integer costs.

    Runs :func:`napx.solver.solve_on_grid` on a grid that represents the
    restricted model exactly. Of two exactly tied selections the cheaper
    one is returned, as by :func:`napx.solver.solve`.

    Raises
    ------
    ValidationError
        When the instance is invalid, whether or not it keeps to the
        restriction.
    RestrictionError
        Naming the offending taxa when any has a != 0 or b != 1. The
        check reads the raw instance's taxa, not the normalized ones, whose
        probabilities normalization may have rewritten.
    SizeLimitError
        When the normalized budget does not fit int64 or a table combine
        exceeds ``napx.solver.PAIR_LIMIT``, as in :func:`napx.solver.solve`.
    """
    norm = normalize(instance)      # validates
    offending = sorted(t.id for t in instance.taxa.values()
                       if t.a != 0.0 or t.b != 1.0)
    if offending:
        raise RestrictionError(
            "this solver needs a=0 and b=1 for every taxon; violated by: "
            + ", ".join(offending))
    return solve_on_grid(instance, norm, _CERTAIN)[0]
