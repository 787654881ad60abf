"""Tests for the exact baselines."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import napx.baselines
from napx.baselines import (BRUTE_FORCE_LIMIT, _block_scores, _gray_tables,
                            _precedes, _walk, brute_force, pardi_goldman)
from napx.errors import RestrictionError, SizeLimitError, ValidationError
from napx.generators import gen_caterpillar, gen_yule
from napx.model import expected_pd

from oracles import brute_force_gray, exhaustive_best
from util import (cherry, fig1_instance, inner, leaf, make_instance, pg_example,
                  tie_cherry)


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


@st.composite
def _tie_heavy_instances(draw, max_n=10, lengths=(0.0, 0.1, 1.0, 2.0),
                         certain=False):
    """Up to ``max_n`` leaves under polytomies, branch lengths drawn from
    ``lengths``, probabilities from a few values with a = b allowed (or
    a = 0 and b = 1 if ``certain``), costs of 0 to 3, and any budget up to
    one past the total cost: many subsets tie."""
    n = draw(st.integers(1, max_n))
    length = st.sampled_from(lengths)
    nodes = [leaf(f"t{i:02d}", draw(length)) for i in range(n)]
    while len(nodes) > 1:
        k = draw(st.integers(2, min(4, len(nodes))))
        i = draw(st.integers(0, len(nodes) - k))
        nodes[i:i + k] = [inner(draw(length), *nodes[i:i + k])]
    rows = []
    for i in range(n):
        a, b = 0.0, 1.0
        if not certain:
            a = draw(st.sampled_from([0.0, 0.25, 0.5]))
            b = max(a, draw(st.sampled_from([0.0, 0.5, 0.75, 1.0])))
        rows.append((f"t{i:02d}", a, b, draw(st.integers(0, 3))))
    total = sum(row[3] for row in rows)
    return make_instance(nodes[0], rows, budget=draw(st.integers(0, total + 1)))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(_tie_heavy_instances(), st.integers(1, 10))
def test_brute_force_equals_gray_code_loop_property(inst, width):
    """Block scoring picks the subset that scoring each subset in turn
    picks, with the same score to the last bit, and every block score is
    the expected_pd of its subset to the last bit, at any block width:
    blocks with high bits set and blocks read backwards included."""
    got = brute_force(inst)
    want = brute_force_gray(inst)
    assert got.selected == want.selected
    assert repr(got.score) == repr(want.score)

    ids = sorted(inst.taxa)
    n = len(ids)
    width = min(width, n)
    costs = [inst.taxa[t].c for t in ids]
    steps, stride = _walk(inst, {t: i for i, t in enumerate(ids)}, width)
    tables = _gray_tables(stride, costs[:width], np.int64)
    seen = []
    for block in range(1 << (n - width)):
        high = (block ^ block >> 1) << width
        codes, pos, cost = (t[::-1] for t in tables) if block & 1 else tables
        scores = _block_scores(steps, width, high)[pos]
        for code, c, score in zip(codes.tolist(), cost.tolist(), scores.tolist()):
            subset = [t for i, t in enumerate(ids) if (code | high) >> i & 1]
            assert repr(score) == repr(expected_pd(inst, subset))
            assert c == sum(costs[i] for i in range(width) if code >> i & 1)
            seen.append(code | high)
    # the blocks walk every subset once, in Gray-code order
    assert seen == [k ^ k >> 1 for k in range(1 << n)]


# lengths around the tie tolerance, with no probability to scale them
# down, make scores that differ by less than it chain up, so the tie rule's
# outcome depends on the order in which the subsets come
@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.one_of(_tie_heavy_instances(max_n=11),
                 _tie_heavy_instances(max_n=11, lengths=(0.0, 3e-13, 7e-13, 1.1e-12),
                                      certain=True)),
       st.integers(1, 4))
def test_brute_force_across_many_blocks_property(inst, width):
    """Blocks of 2 to 16 subsets cut an instance of up to 11 leaves into
    as many as 1024 blocks, half of them read backwards; the tie rule
    across block boundaries still picks what the one-at-a-time loop
    picks, in the same order, to the last bit of the score."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(napx.baselines, "_LOW_BITS", width)
        got = brute_force(inst)
    want = brute_force_gray(inst)
    assert got.selected == want.selected
    assert got.total_cost == want.total_cost
    assert repr(got.score) == repr(want.score)


def test_precedes_is_sorted_tuple_order():
    """On every pair of subsets of up to 7 ids, the comparison of codes
    agrees with comparing the sorted id tuples."""
    for n in range(8):
        tuples = [tuple(i for i in range(n) if code >> i & 1)
                  for code in range(1 << n)]
        for a, ta in enumerate(tuples):
            for b, tb in enumerate(tuples):
                assert _precedes(a, b) == (ta < tb), (n, ta, tb)


def test_brute_force_memory_stays_small():
    """Every subset of a 22-leaf tree is affordable, so all 512 blocks are
    scored; the arrays alive at once must stay well under 1 MB."""
    inst = gen_yule(22, 1, budget=10**6)
    tracemalloc.start()
    try:
        brute_force(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_brute_force_costs_beyond_int64():
    """Any two of three taxa of cost 2**62 cost 2**63, past the budget of
    2**63 - 1; summed in int64 the pair would wrap to a negative cost."""
    inst = make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 2.0), leaf("z", 3.0)),
        [(t, 0.0, 1.0, 2**62) for t in "xyz"],
        budget=2**63 - 1,
    )
    best = brute_force(inst)
    assert best.selected == frozenset({"z"})
    assert best.total_cost == 2**62
    assert best.score == 3.0


def test_brute_force_lengths_near_the_float_range():
    """Lengths that sum to 8.8e307, just under the validation bound of half
    the largest float, give finite block scores with no warning, and the
    selection and score of the one-at-a-time loop."""
    inst = make_instance(
        inner(8e306, leaf("x", 4e307), leaf("y", 4e307), leaf("z", 1.0)),
        [("x", 0.1, 0.9, 1), ("y", 0.1, 0.9, 1), ("z", 0.1, 0.9, 1)],
        budget=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = brute_force(inst)
    want = brute_force_gray(inst)
    assert got.selected == want.selected
    assert repr(got.score) == repr(want.score)
    assert math.isfinite(got.score)


def test_expected_pd_adds_in_edge_order():
    """{p, r, s} adds 2**-53 + 1 + 2**-53 in edge order, which is 1.0; a
    compensated sum() (Python 3.12 and later) gives 1 + 2**-52. The block
    scores of brute_force add in edge order, so expected_pd must too on
    every Python for the two to agree."""
    inst = make_instance(
        inner(0.0, leaf("p", 2.0**-53), leaf("q", 1.0 + 1e-12),
              leaf("r", 1.0), leaf("s", 2.0**-53)),
        [("p", 0.0, 1.0, 1), ("q", 0.0, 1.0, 3), ("r", 0.0, 1.0, 1),
         ("s", 0.0, 1.0, 1)],
        budget=3,
    )
    assert expected_pd(inst, "prs") == 1.0
    assert brute_force(inst).selected == brute_force_gray(inst).selected


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


def test_pg_validates_the_instance_once(monkeypatch):
    """pg leaves validation to normalize, so a restricted instance is
    validated once, and an invalid one outside the restriction raises
    ValidationError rather than RestrictionError."""
    import napx.model

    calls = []
    real = napx.model.validate_instance

    def counting(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(napx.model, "validate_instance", counting)
    monkeypatch.setattr(napx.baselines, "validate_instance", counting)
    assert pardi_goldman(pg_example()).selected == frozenset({"x"})
    assert len(calls) == 1
    bad = make_instance(inner(0.0, leaf("x", 1.0), leaf("y", 2.0)),
                        [("x", 0.9, 0.1, 1), ("y", 0.5, 0.8, 1)], budget=1)
    with pytest.raises(ValidationError):
        pardi_goldman(bad)


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
