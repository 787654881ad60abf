"""Probability discretization for the approximate solver.

The dynamic program cannot afford one table column per achievable clade
survival probability, so probabilities are rounded down onto a geometric
grid

    1, alpha, alpha^2, ..., alpha^t, 0

with ``alpha`` close to 1. Rounding a probability down by at most a factor
``alpha`` per tree level costs at most ``alpha^(2h)`` of the objective over
a tree of height ``h``; probabilities that fall below a floor ``p_min``
are rounded to zero, which costs at most a further ``n^(k+1) * p_min``
once ``k`` is large enough that every conservable taxon clears ``n^(-k)``.
Splitting a target accuracy ``epsilon`` evenly between the two effects
gives

    alpha = (1 - epsilon)^(1 / (2 h)),
    p_min = (1 - sqrt(1 - epsilon)) / n^(k + 1),

and the grid depth ``t = ceil(log(p_min) / log(alpha))``, the number of
geometric steps needed to reach the floor.

Everything here is pure arithmetic on the grid. The one rounding map is
:meth:`Discretization.pi_index`, which takes a probability, or an array of
them, to the row that owns it; the solver rounds every combined pair of
child rows through it.

Boundary comparisons snap to the nearest knife edge before rounding
(absolute 1e-9 on log scale, relative 1e-9 against ``p_min``), so that
structured inputs, like grid values and grid values recombining with each
other, land on the row they sit on rather than one row below through
float error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError

__all__ = ["Discretization", "check_epsilon", "derive_k", "select_params",
           "T_LIMIT"]

# Refuse grids deeper than T_LIMIT rows: the run would not finish. Only
# extreme epsilon/height combinations reach it.
T_LIMIT = 2_000_000

_SNAP = 1e-9


def _snap(x: float) -> float:
    """x rounded to the nearest integer if it is within 1e-9 of one."""
    r = round(x)
    return r if abs(x - r) <= _SNAP else x


def derive_k(n: int, min_b: float) -> int:
    """Smallest positive integer k with ``min_b >= n**(-k)``.

    ``min_b`` is the smallest conserved-survival probability among taxa
    that can be helped at all (b > 0). The returned k controls how far the
    zero floor ``p_min`` must sit below 1/n so that discarding
    sub-``p_min`` probabilities is harmless.

    A single-leaf tree gives no constraint (any k works); k = 1 is
    returned.
    """
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    if not (0.0 < min_b <= 1.0):
        raise ParameterError(f"min_b must be in (0, 1], got {min_b!r}")
    if n == 1:
        return 1
    # -log(min_b) rather than log(1 / min_b): 1 / min_b overflows to
    # infinity for subnormal min_b
    need = -math.log(min_b) / math.log(n)
    return max(1, math.ceil(_snap(need)))


def check_epsilon(epsilon: float) -> None:
    """Refuse, with :class:`ParameterError`, an epsilon that
    :func:`napx.solver.solve` cannot honour: one outside the open interval
    (0, 1)."""
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(
            f"epsilon must be strictly between 0 and 1, got {epsilon!r}")


def select_params(n: int, height: int, epsilon: float, k: int) -> "Discretization":
    """Choose grid parameters for an (1 - epsilon) guarantee.

    Parameters
    ----------
    n:
        Number of leaves.
    height:
        Height of the tree in edges, root edge included.
    epsilon:
        Allowed relative loss, strictly between 0 and 1.
    k:
        Output of :func:`derive_k` for this instance.

    Raises
    ------
    ParameterError
        For out-of-range arguments, when epsilon is so small that the grid
        ratio alpha rounds to 1.0 for this height, when ``n**(k + 1)``
        overflows a float (a taxon's conserved survival is far too small to
        resolve), or when the implied grid depth t exceeds ``T_LIMIT``.
    """
    check_epsilon(epsilon)
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    if height < 1:
        raise ParameterError(f"height must be at least 1, got {height}")
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    alpha = (1.0 - epsilon) ** (1.0 / (2.0 * height))
    if alpha == 1.0:
        raise ParameterError(
            f"epsilon {epsilon!r} is too small for a tree of height {height}: "
            f"the grid ratio (1 - epsilon)**(1/(2*{height})) rounds to 1.0")
    try:
        p_min = (1.0 - math.sqrt(1.0 - epsilon)) / float(n) ** (k + 1)
    except OverflowError:
        raise ParameterError(
            f"grid floor n**-(k+1) underflows for n={n}, k={k}; some taxon's "
            "conserved survival b is too small to resolve") from None
    return Discretization(alpha, p_min, k=k)


@dataclass(frozen=True)
class Discretization:
    """A fixed geometric probability grid, given by ``alpha`` and ``p_min``.

    The grid has t + 2 rows, t being derived: the steps from 1 down to
    ``p_min``, at least 1, and refused above ``T_LIMIT``. ``k`` records the
    :func:`derive_k` value they were chosen for, if any. Row 0 holds 1, row
    m holds ``alpha**m`` for 1 <= m <= t, and row t + 1 holds 0. Each row m
    owns a half-open probability interval [lower(m), upper(m)):

        row 0:      {1}
        row m:      [alpha**m, alpha**(m-1))      for 1 <= m < t
        row t:      [p_min,    alpha**(t-1))
        row t + 1:  [0,        p_min)

    ``pi`` maps a probability to the value of the row owning it, which is
    never larger: rounding only loses mass. Note that row t's value
    ``alpha**t`` can itself lie below ``p_min``; the map is not idempotent
    on that row's value whenever ``alpha**t < p_min`` strictly.
    """

    alpha: float
    p_min: float
    t: int = field(init=False)
    k: int | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not (0.0 < self.p_min < 1.0):
            raise ParameterError(f"p_min must be in (0, 1), got {self.p_min!r}")
        t = math.ceil(_snap(math.log(self.p_min) / math.log(self.alpha)))
        if t > T_LIMIT:
            raise ParameterError(
                f"grid depth t={t} exceeds the limit of {T_LIMIT}; "
                "use a larger epsilon or a shallower tree")
        object.__setattr__(self, "t", max(t, 1))    # the dataclass is frozen

    # -- derived structures, computed once ---------------------------------

    @cached_property
    def _log_alpha(self) -> float:
        return math.log(self.alpha)

    @cached_property
    def grid(self) -> np.ndarray:
        """Row values, length t + 2: [1, alpha, ..., alpha**t, 0]."""
        v = np.empty(self.t + 2, dtype=np.float64)
        v[0] = 1.0
        v[1:self.t + 1] = self.alpha ** np.arange(1, self.t + 1, dtype=np.float64)
        v[self.t + 1] = 0.0
        v.setflags(write=False)
        return v

    # -- the rounding map ---------------------------------------------------

    def pi_index(self, p: float | np.ndarray) -> int | np.ndarray:
        """Row index owning probability p, elementwise.

        p may be a float or an array of floats anywhere in [0, 1]; a float
        gives a plain ``int``, an array an int64 array of its shape. A
        probability within a relative 1e-9 of ``p_min`` still belongs to
        row t rather than the zero row.
        """
        q = np.asarray(p, dtype=np.float64)
        scalar = q.ndim == 0
        if scalar:      # a ufunc gives a 0-d array a scalar, which out= refuses
            q = q.reshape(1)
        # the smallest subnormal keeps log finite; q = 0 lies below the
        # floor, so its row never reads x. The steps write in place, and
        # np.rint stands in for np.round, a Python-level wrapper of it: on
        # the ~100 pairs of a typical combine, each call's fixed cost is
        # most of the time
        x = np.maximum(q, 5e-324)
        np.log(x, out=x)
        x /= self._log_alpha
        r = np.rint(x)
        m = np.ceil(x)
        x -= r
        np.abs(x, out=x)
        np.copyto(m, r, where=x <= _SNAP)
        np.maximum(m, 0, out=m)
        np.minimum(m, self.t, out=m)
        idx = m.astype(np.int64)
        np.copyto(idx, self.t + 1, where=self.p_min - q > _SNAP * self.p_min)
        return idx.item() if scalar else idx

    def pi(self, p: float) -> float:
        """Round a probability down onto the grid."""
        return float(self.grid[self.pi_index(p)])
