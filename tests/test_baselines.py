"""Tests for the exact baselines."""

import pytest
from hypothesis import given, settings, strategies as st

from napx.baselines import BRUTE_FORCE_LIMIT, brute_force, pardi_goldman
from napx.errors import RestrictionError, SizeLimitError
from napx.generators import gen_caterpillar, gen_yule
from napx.model import expected_pd, inner, leaf

from oracles import exhaustive_best
from util import cherry, fig1_instance, make_instance, pg_example, tie_cherry


# ------------------------------------------------------------------------- #
#  Brute force
# ------------------------------------------------------------------------- #

def test_brute_force_cherry():
    best = brute_force(cherry())
    assert best.selected == frozenset({"y"})
    assert best.score == pytest.approx(2.1)


def test_brute_force_tie_picks_smallest_ids():
    best = brute_force(tie_cherry())
    assert best.selected == frozenset({"x"})
    assert best.score == pytest.approx(1.4)


def test_brute_force_fig1():
    best = brute_force(fig1_instance())
    assert best.selected == frozenset({"w", "y"})
    assert best.score == pytest.approx(230.0)


def test_brute_force_empty_when_nothing_helps():
    inst = make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 1.0)),
        [("x", 0.5, 0.5, 1), ("y", 0.5, 0.5, 1)],
        budget=2,
    )
    assert brute_force(inst).selected == frozenset()


def test_brute_force_matches_exhaustive_reference():
    for seed in range(6):
        inst = gen_yule(8, seed)
        got = brute_force(inst)
        _, want = exhaustive_best(inst)
        assert got.score == pytest.approx(want, rel=1e-12)
        assert got.total_cost <= inst.budget


def test_brute_force_size_limit():
    inst = gen_yule(BRUTE_FORCE_LIMIT + 1, 0)
    with pytest.raises(SizeLimitError):
        brute_force(inst)


# ------------------------------------------------------------------------- #
#  Certain conservation (a = 0, b = 1), any integer costs
# ------------------------------------------------------------------------- #

def test_pg_frozen_example():
    """Stem folds into the root edge; with budget 1 the long pendant
    wins: {x} scores 5 + 2 = 7."""
    best = pardi_goldman(pg_example())
    assert best.selected == frozenset({"x"})
    assert best.score == pytest.approx(7.0)


def test_pg_requires_certain_conservation():
    with pytest.raises(RestrictionError) as err:
        pardi_goldman(cherry())
    assert "x" in str(err.value) and "y" in str(err.value)


def test_pg_matches_brute_force_on_restricted_instances():
    for seed in range(10):
        inst = gen_yule(9, seed, a_range=(0.0, 0.0), b_range=(1.0, 1.0))
        got = pardi_goldman(inst)
        want = brute_force(inst)
        assert got.score == pytest.approx(want.score, abs=1e-9)
        assert got.total_cost <= inst.budget
        assert expected_pd(inst, got.selected) == pytest.approx(got.score)


def test_pg_empty_selection_when_budget_zero():
    inst = pg_example()
    inst.budget = 0
    best = pardi_goldman(inst)
    assert best.selected == frozenset()
    assert best.score == pytest.approx(0.0)


def test_pg_handles_nonunit_costs():
    inst = make_instance(
        inner(0.0, leaf("x", 5.0), leaf("y", 4.0)),
        [("x", 0.0, 1.0, 3), ("y", 0.0, 1.0, 2)],
        budget=4,
    )
    best = pardi_goldman(inst)
    assert best.selected == frozenset({"x"})   # 5 beats 4, both affordable
    assert best.score == pytest.approx(5.0)


def test_pg_tie_returns_the_cheaper_selection():
    """t01 hangs on a zero-length edge, so {t00} and {t00, t01} both score
    3; the cheaper one is returned."""
    inst = make_instance(
        inner(2.0, leaf("t00", 1.0), leaf("t01", 0.0)),
        [("t00", 0.0, 1.0, 1), ("t01", 0.0, 1.0, 1)],
        budget=3,
    )
    best = pardi_goldman(inst)
    assert best.selected == frozenset({"t00"})
    assert best.score == 3.0


@st.composite
def _restricted_integer_instances(draw):
    """a = 0, b = 1 instances of up to 10 leaves with branch lengths of 0,
    1 or 2, so that many selections tie exactly: adjacent subtrees are
    joined until one is left, which reaches every binary shape."""
    n = draw(st.integers(1, 10))
    length = st.sampled_from([0.0, 1.0, 2.0])
    nodes = [leaf(f"t{i:02d}", draw(length)) for i in range(n)]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        nodes[i:i + 2] = [inner(draw(length), nodes[i], nodes[i + 1])]
    costs = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    rows = [(f"t{i:02d}", 0.0, 1.0, c) for i, c in enumerate(costs)]
    return make_instance(nodes[0], rows, budget=draw(st.integers(0, 10)))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(_restricted_integer_instances())
def test_pg_is_optimal_and_minimal_property(inst):
    """pg scores the optimum, and every taxon it pays for adds diversity:
    with exact ties, the cheaper-selection rule leaves no paid taxon that
    could be dropped at no loss."""
    got = pardi_goldman(inst)
    assert got.score == pytest.approx(brute_force(inst).score, abs=1e-9)
    assert got.total_cost <= inst.budget
    for tid in got.selected:
        if inst.taxa[tid].c > 0:
            assert expected_pd(inst, got.selected - {tid}) < got.score


@pytest.mark.parametrize("gen", [gen_yule, gen_caterpillar])
def test_pg_matches_brute_force_on_wide_costs(gen):
    """Costs 1-2000 give long cost axes and few ties."""
    for n, seed in [(n, seed) for n in (6, 10, 14) for seed in range(4)]:
        inst = gen(n, seed, a_range=(0.0, 0.0), b_range=(1.0, 1.0),
                   c_range=(1, 2000))
        got = pardi_goldman(inst)
        assert got.score == pytest.approx(brute_force(inst).score, abs=1e-9)
        assert got.total_cost <= inst.budget
