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

Everything here is pure arithmetic on the grid: rounding (:meth:`pi`),
index lookups, and the interval algebra that answers "which grid rows of a
right-hand probability combine with a given left-hand row to land on a
given output row" (:meth:`k_range`). For each left row those answers are
contiguous windows that tile the right rows in ascending order, which is
what lets the solver find the output row of any pair of finite table
cells with one binary search.

Boundary comparisons snap to the nearest knife edge before rounding
(absolute 1e-9 on log scale, relative 1e-9 on probabilities) so that
closed-form interval bounds and direct evaluation of ``pi`` always agree
on structured inputs, like grid values recombining with each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, InternalError, ParameterError

__all__ = ["Discretization", "derive_k", "select_params", "T_LIMIT",
           "CELL_LIMIT"]

# Refuse grids deeper than T_LIMIT rows and tables spanning more than
# CELL_LIMIT (budget, row) cells, (B + 1) * (t + 2): the run would not finish.
# Only extreme epsilon/height combinations or huge budgets reach them.
T_LIMIT = 2_000_000
CELL_LIMIT = 10**8

_SNAP = 1e-9


def _snap(x: float) -> float:
    """Round x to the nearest integer when it is within 1e-9 of one."""
    r = round(x)
    return float(r) if abs(x - r) <= _SNAP else x


def _snap_arr(x: np.ndarray) -> np.ndarray:
    r = np.round(x)
    return np.where(np.abs(x - r) <= _SNAP, r, x)


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
        For out-of-range arguments, when ``n**(k + 1)`` overflows a float
        (a taxon's conserved survival is far too small to resolve), or
        when the implied grid depth t exceeds ``T_LIMIT``.
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must be strictly between 0 and 1, got {epsilon!r}")
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    if height < 1:
        raise ParameterError(f"height must be at least 1, got {height}")
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    alpha = (1.0 - epsilon) ** (1.0 / (2.0 * height))
    try:
        p_min = (1.0 - math.sqrt(1.0 - epsilon)) / float(n) ** (k + 1)
    except OverflowError:
        raise ParameterError(
            f"grid floor n**-(k+1) underflows for n={n}, k={k}; some taxon's "
            "conserved survival b is too small to resolve") from None
    return Discretization.from_alpha_pmin(alpha, p_min, k=k, epsilon=epsilon)


@dataclass(frozen=True)
class Discretization:
    """A fixed geometric probability grid.

    The grid has t + 2 rows. Row 0 holds probability 1, row m holds
    ``alpha**m`` for 1 <= m <= t, and row t + 1 holds 0. Each row m owns a
    half-open probability interval [lower(m), upper(m)):

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
    t: int
    k: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not (0.0 < self.p_min < 1.0):
            raise ParameterError(f"p_min must be in (0, 1), got {self.p_min!r}")
        if self.t < 1:
            raise ParameterError(f"t must be at least 1, got {self.t}")

    @classmethod
    def from_alpha_pmin(cls, alpha: float, p_min: float, *, k: int | None = None,
                        epsilon: float | None = None) -> "Discretization":
        """Build a grid from its two defining constants, deriving t."""
        if not (0.0 < alpha < 1.0):
            raise ParameterError(f"alpha must be in (0, 1), got {alpha!r}")
        if not (0.0 < p_min < 1.0):
            raise ParameterError(f"p_min must be in (0, 1), got {p_min!r}")
        t = math.ceil(_snap(math.log(p_min) / math.log(alpha)))
        if t > T_LIMIT:
            raise ParameterError(
                f"grid depth t={t} exceeds the limit of {T_LIMIT}; "
                "use a larger epsilon or a shallower tree")
        return cls(alpha=alpha, p_min=p_min, t=max(t, 1), k=k, epsilon=epsilon)

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

    @cached_property
    def _lower(self) -> np.ndarray:
        """Inclusive lower end of each row's probability interval."""
        lo = np.empty(self.t + 2, dtype=np.float64)
        lo[:self.t] = self.grid[:self.t]
        lo[self.t] = self.p_min
        lo[self.t + 1] = 0.0
        lo.setflags(write=False)
        return lo

    @cached_property
    def _upper(self) -> np.ndarray:
        """Exclusive upper end of each row's probability interval."""
        up = np.empty(self.t + 2, dtype=np.float64)
        up[0] = np.inf
        up[1:self.t + 1] = self.grid[:self.t]
        up[self.t + 1] = self.p_min
        up.setflags(write=False)
        return up

    @cached_property
    def _k_cache(self) -> dict:
        return {}

    # -- the rounding map ---------------------------------------------------

    def _below_floor(self, p: float) -> bool:
        return p < self.p_min and not math.isclose(p, self.p_min, rel_tol=_SNAP)

    def pi_index(self, p: float) -> int:
        """Row index owning probability p (p may be any float in [0, 1])."""
        if p >= 1.0:
            return 0
        if p <= 0.0 or self._below_floor(p):
            return self.t + 1
        m = math.ceil(_snap(math.log(p) / self._log_alpha))
        if m < 0:
            return 0
        return min(m, self.t)

    def pi(self, p: float) -> float:
        """Round a probability down onto the grid."""
        return float(self.grid[self.pi_index(p)])

    def grid_index(self, q: float) -> int:
        """Row whose value is q, for q already on the grid.

        Unlike :meth:`pi_index` this inverts row values, so it resolves
        ``alpha**t`` to row t even when that value lies below ``p_min``.
        """
        if abs(q - 1.0) <= _SNAP:
            return 0
        if abs(q) <= _SNAP * self.p_min:
            return self.t + 1
        if 0.0 < q < 1.0:
            m = round(math.log(q) / self._log_alpha)
            if 1 <= m <= self.t and abs(float(self.grid[m]) - q) <= _SNAP:
                return int(m)
        raise InputError(f"{q!r} is not a value of this grid")

    # -- interval algebra for combining rows --------------------------------

    def _k_row(self, j_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """For a fixed left row j, per output row p: the inclusive index
        window [lo[p], hi[p]] of right rows k whose value satisfies
        pi(j + k - j*k) = row p. Empty windows have lo > hi.

        Derivation: with j < 1 fixed and q = 1 - (1-j)(1-k), q lands in
        row p's interval [L, U) exactly when k lies in
        [(L-j)/(1-j), (U-j)/(1-j)); intersecting that real interval with
        the grid values is a floor/ceil computation on the log scale.

        The feasible windows must tile [0, t+1] exactly once, moving right
        as p grows; the solver's binary search over their lower ends relies
        on it, so anything else raises :class:`InternalError`.
        """
        hit = self._k_cache.get(j_idx)
        if hit is not None:
            return hit
        t = self.t
        rows = t + 2
        lo = np.full(rows, 1, dtype=np.int32)
        hi = np.zeros(rows, dtype=np.int32)
        if j_idx == 0:
            # j = 1: the combination is 1 whatever k is.
            lo[0] = 0
            hi[0] = t + 1
        else:
            j = float(self.grid[j_idx])
            rest = 1.0 - j
            lo_k = (self._lower - j) / rest
            hi_k = (self._upper - j) / rest
            log_a = self._log_alpha

            with np.errstate(divide="ignore", invalid="ignore"):
                safe_hi = np.where(np.isfinite(hi_k) & (hi_k > 0.0), hi_k, 1.0)
                m_lo = np.floor(_snap_arr(np.log(safe_hi) / log_a)).astype(np.int64) + 1
                m_lo = np.where(hi_k > 1.0, 0, m_lo)
                m_lo = np.clip(m_lo, 0, t + 1)

                safe_lo = np.where(lo_k > 0.0, lo_k, 1.0)
                m_hi = np.minimum(t, np.floor(
                    _snap_arr(np.log(safe_lo) / log_a)).astype(np.int64))
                m_hi = np.where(lo_k <= 0.0, t + 1, m_hi)
                m_hi = np.where(lo_k > 1.0, -1, m_hi)

            feasible = hi_k > 0.0
            lo = np.where(feasible, m_lo, 1).astype(np.int32)
            hi = np.where(feasible, m_hi, 0).astype(np.int32)
        feas = lo <= hi
        lo_f, hi_f = lo[feas], hi[feas]
        if (lo_f.size == 0 or lo_f[0] != 0 or hi_f[-1] != rows - 1
                or np.any(lo_f[1:] != hi_f[:-1] + 1)):
            raise InternalError(
                f"grid windows for row {j_idx} do not partition the grid")
        out = (lo, hi)
        self._k_cache[j_idx] = out
        return out

    def k_range(self, p: float, j: float) -> range:
        """Grid rows k with ``pi(j + k - j*k)`` equal to row value p.

        Both arguments are grid values; the result is a (possibly empty)
        contiguous ``range`` of row indices.
        """
        p_idx = self.grid_index(p)
        j_idx = self.grid_index(j)
        lo, hi = self._k_row(j_idx)
        return range(int(lo[p_idx]), int(hi[p_idx]) + 1)
