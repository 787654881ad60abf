"""Tests for the geometric probability grid and its parameter selection.

The grid underpins the solver's guarantee: every probability is rounded
down onto [1, alpha, ..., alpha**t, 0], and each rounding loses at most a
factor alpha of surviving mass. The frozen constants here were computed
by hand from the defining formulas:

    alpha = (1 - eps) ** (1 / (2 h))
    p_min = (1 - sqrt(1 - eps)) / n ** (k + 1)
    t     = ceil(log(p_min) / log(alpha))
    k     = max(1, ceil(log_n(1 / min_b)))
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from napx.discretization import (Discretization, derive_k, select_params,
                                 T_LIMIT)
from napx.errors import ParameterError

from oracles import pi_index_reference, pi_index_wrappers


# ------------------------------------------------------------------------- #
#  Parameter selection
# ------------------------------------------------------------------------- #

def test_select_params_frozen_values():
    d = select_params(4, 4, 0.5, 1)
    assert d.alpha == pytest.approx(0.9170040432046712, abs=0)
    assert d.p_min == pytest.approx(0.018305826175840777, abs=0)
    assert d.t == 47

    tiny = select_params(1, 1, 0.75, 1)
    assert tiny.alpha == 0.5
    assert tiny.p_min == 0.5
    assert tiny.t == 1


def test_derive_k_frozen_values():
    assert derive_k(10, 0.009) == 3
    assert derive_k(5, 1.0) == 1       # floor of 1: k never drops below 1
    assert derive_k(1, 0.3) == 1       # single leaf special case
    assert derive_k(4, 5e-324) == 537  # 1 / 5e-324 would overflow


@pytest.mark.parametrize("whole", [1, 3, 17])
@pytest.mark.parametrize("over", [0.0, 2e-10, 9e-10, 3e-9, 1e-6])
def test_derive_k_and_t_snap_quotients_just_above_an_integer(whole, over):
    """A quotient within 1e-9 above an integer snaps down onto it before
    the ceiling, and one further above does not; k and t are plain ints."""
    want = whole if over <= 1e-9 else whole + 1
    n, alpha = 7, 0.93
    min_b = n ** -(whole + over)
    need = -math.log(min_b) / math.log(n)
    assert (need - whole <= 1e-9) == (over <= 1e-9) and need >= whole
    k = derive_k(n, min_b)
    assert type(k) is int and k == want
    p_min = alpha ** (whole + over)
    depth = math.log(p_min) / math.log(alpha)
    assert (depth - whole <= 1e-9) == (over <= 1e-9) and depth >= whole
    t = Discretization(alpha, p_min).t
    assert type(t) is int and t == want


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0, float("nan")])
def test_select_params_rejects_bad_epsilon(eps):
    with pytest.raises(ParameterError):
        select_params(4, 4, eps, 1)


def test_select_params_rejects_bad_shape():
    with pytest.raises(ParameterError):
        select_params(0, 4, 0.5, 1)
    with pytest.raises(ParameterError):
        select_params(4, 0, 0.5, 1)
    with pytest.raises(ParameterError):
        select_params(4, 4, 0.5, 0)


@pytest.mark.parametrize("eps,height", [(1e-300, 3), (1e-17, 1), (1e-15, 100)])
def test_select_params_names_an_epsilon_below_float_resolution(eps, height):
    """When (1 - eps)**(1/(2h)) rounds to 1.0 there is no grid; the error
    names epsilon and the tree height rather than the ratio alpha."""
    with pytest.raises(ParameterError) as err:
        select_params(4, height, eps, 1)
    assert str(err.value).startswith(
        f"epsilon {eps!r} is too small for a tree of height {height}:")


def test_grid_depth_limit():
    # eps tiny and a tall tree: t explodes past the guard
    with pytest.raises(ParameterError, match="exceeds"):
        select_params(50, 500, 1e-9, 3)
    assert T_LIMIT == 2_000_000


# ------------------------------------------------------------------------- #
#  The grid and the rounding map
# ------------------------------------------------------------------------- #

def test_grid_values():
    d = Discretization(0.5, 0.1)
    assert d.t == 4
    assert list(d.grid) == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.0]


def test_pi_rounds_down_and_brackets():
    """pi(p) <= p for p in [p_min, 1], and never loses more than alpha:
    the guarantee alpha * p <= pi(p) that the approximation proof needs."""
    d = Discretization(0.9, 0.002)
    assert d.t == 59
    ps = np.linspace(d.p_min, 1.0, 10_000)
    for p in ps:
        v = d.pi(float(p))
        assert v <= p * (1 + 1e-12)
        assert v >= d.alpha * p * (1 - 1e-12)


def test_pi_boundary_rows():
    d = Discretization(0.5, 0.1)
    assert d.pi_index(1.0) == 0
    assert d.pi_index(2.0) == 0          # clamps above
    assert d.pi_index(0.5) == 1          # exact grid point
    assert d.pi_index(0.499) == 2        # just below: next row down
    assert d.pi_index(0.0) == d.t + 1
    assert d.pi_index(0.05) == d.t + 1   # below the floor
    # the floor itself belongs to row t, not the zero row
    assert d.pi_index(d.p_min) == d.t


def test_alpha_t_brackets_p_min():
    d = Discretization(0.9, 0.002)
    assert d.alpha ** d.t <= d.p_min < d.alpha ** (d.t - 1)


@pytest.mark.parametrize("alpha,p_min", [(0.9, 0.002), (0.97, 1e-4)],
                         ids=["t59", "deep"])
def test_pi_index_keeps_grid_values_on_their_rows(alpha, p_min):
    """Every grid value except alpha**t rounds to its own row, although
    alpha**m carries float error: the knife-edge snap absorbs it. Row t's
    value may lie below p_min, so it is left out."""
    d = Discretization(alpha, p_min)
    for m in list(range(d.t)) + [d.t + 1]:
        assert d.pi_index(float(d.grid[m])) == m, m
    assert d.pi_index(d.p_min * (1 - 1e-12)) == d.t


def test_pi_index_array_matches_scalar():
    """Arrays round elementwise, floats give plain ints, and both agree
    with a one-float-at-a-time reference."""
    d = Discretization(0.97, 1e-4)
    rng = np.random.default_rng(5)
    g = d.grid
    pairs = g[:, None] + (1.0 - g[:, None]) * g[None, ::37]
    ps = np.concatenate([
        rng.uniform(0.0, 1.0, 2000), 10.0 ** rng.uniform(-6, 0, 2000), g,
        [0.0, 1.0, 2.0, d.p_min, d.p_min * (1 - 1e-12), d.p_min * 0.99],
    ])
    for arr in (ps, pairs):
        got = d.pi_index(arr)
        assert got.dtype == np.int64 and got.shape == arr.shape
        want = [d.pi_index(float(p)) for p in arr.ravel()]
        assert all(type(w) is int for w in want)
        assert got.ravel().tolist() == want
        assert want == [pi_index_reference(d, float(p)) for p in arr.ravel()]


@st.composite
def _grid_and_probabilities(draw):
    """A grid from ``select_params`` and probabilities on or next to its
    knife edges: grid values, alpha**m * (1 +- 1e-9), p_min * (1 +- 1e-9),
    0, 1 and the smallest subnormal."""
    d = select_params(draw(st.integers(1, 64)), draw(st.integers(1, 12)),
                      draw(st.sampled_from([0.05, 0.1, 0.3, 0.7])),
                      draw(st.integers(1, 3)))
    row = st.integers(0, d.t + 1)
    near = st.sampled_from([1 - 1e-9, 1 + 1e-9])
    value = st.one_of(
        row.map(lambda m: float(d.grid[m])),
        st.builds(lambda m, f: d.alpha ** m * f, row, near),
        st.sampled_from([d.p_min * (1 - 1e-9), d.p_min * (1 + 1e-9),
                         0.0, 1.0, 5e-324]))
    return d, draw(st.lists(value, min_size=1, max_size=12))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_grid_and_probabilities(), st.integers(1, 3))
def test_pi_index_matches_wrapper_version_property(drawn, n_rows):
    """The in-place rounding map gives the bits, type and shape of the one
    written with numpy's wrappers, for a float, a numpy scalar, 0-d, 1-D
    and 2-D arrays (a transposed, non-contiguous one included)."""
    d, values = drawn
    square = np.array(values * n_rows).reshape(n_rows, -1)
    for p in (values[0], np.float64(values[0]), np.array(values[0]),
              np.array(values), square, square.T):
        got, want = d.pi_index(p), pi_index_wrappers(d, p)
        assert type(got) is type(want)
        if type(want) is int:
            assert got == want
        else:
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape == np.shape(p)
            assert got.tobytes() == want.tobytes()


def test_select_params_overflow_is_parameter_error():
    """The k of a subnormal b makes n**(k+1) overflow a float."""
    with pytest.raises(ParameterError, match="too small"):
        select_params(4, 3, 0.1, 537)
