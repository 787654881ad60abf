"""Tests for the table-building dynamic program and the full solver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from napx import solver
from napx.discretization import Discretization, derive_k, select_params
from napx.errors import InternalError, ParameterError
from napx.generators import gen_caterpillar, gen_yule
from napx.io import load_instance
from napx.model import (Taxon, expected_pd, inner, leaf, make_conservation_set,
                        min_conserved_survival, normalize, total_pd)
from napx.solver import (build_pendant_table, build_tables, combine_tables,
                         solve)

from oracles import combine_reference, dense, exhaustive_best, from_dense
from util import cherry, data_path, fig1_instance, make_instance, tie_cherry


def small_disc() -> Discretization:
    return Discretization.from_alpha_pmin(0.5, 0.1)   # grid 1,.5,.25,.125,.0625,0


# ------------------------------------------------------------------------- #
#  Pendant tables
# ------------------------------------------------------------------------- #

def test_pendant_table_by_hand():
    """One finite cell per budget row: the unconserved value a*lam at
    pi(a) while the cost is short, then b*lam at pi(b)."""
    d = small_disc()
    tx = Taxon(id="x", a=0.2, b=0.9, c=3)
    tab = build_pendant_table(0, tx, 2.0, 4, d)
    # pi(0.2): [0.125, 0.25) is row 3; pi(0.9): [0.5, 1) is row 1
    assert tab.row_cons == 1
    budgets, rows = np.divmod(tab.cells, d.t + 2)
    assert budgets.tolist() == [0, 1, 2, 3, 4]
    assert rows.tolist() == [3, 3, 3, 1, 1]
    assert tab.scores.tolist() == pytest.approx([0.4, 0.4, 0.4, 1.8, 1.8])


def test_pendant_unaffordable_has_no_conserved_row():
    d = small_disc()
    tx = Taxon(id="x", a=0.2, b=0.9, c=9)
    tab = build_pendant_table(0, tx, 2.0, 4, d)
    assert (tab.cells % (d.t + 2)).tolist() == [3] * 5


# ------------------------------------------------------------------------- #
#  Combines against the scatter reference
# ------------------------------------------------------------------------- #

def _tables_for(instance, epsilon=0.5):
    norm = normalize(instance)
    k = derive_k(len(norm.taxa), min_conserved_survival(norm))
    disc = select_params(len(norm.taxa), norm.tree.height, epsilon, k)
    return norm, disc


def _assert_matches_reference(got, left, right, lam, budget, disc):
    """The dense view of a combine equals the scatter reference: scores,
    left budget, left row and right row backpointers."""
    want = combine_reference(left, right, lam, budget, disc,
                             with_backpointers=True)
    for g, w in zip(dense(got, budget, disc), want, strict=True):
        assert np.array_equal(g, w)


def _assert_combines_match_scatter(norm, disc) -> int:
    """Every binary combine of the instance equals the scatter reference,
    scores and all three backpointer arrays; returns how many had a
    pendant child."""
    tables, stats = build_tables(norm, disc)
    assert stats["general_combines"] == 0
    pendant = 0
    for e in norm.tree.edges:
        if len(e.children) != 2:
            continue
        l, r = (tables[c] for c in e.children)
        got = combine_tables(e.eid, l, r, e.length, norm.budget, disc)
        _assert_matches_reference(got, l, r, e.length, norm.budget, disc)
        pendant += "pendant" in (l.kind, r.kind)
    return pendant


@pytest.mark.parametrize("seed", range(4))
def test_general_combine_matches_scatter(seed):
    """The finite-cell combine equals scattering every (j, i, k, beta)
    candidate, bit for bit, backpointers included."""
    _assert_combines_match_scatter(*_tables_for(gen_yule(6, seed)))


@pytest.mark.parametrize("topo,n", [("caterpillar", 9), ("yule", 9)])
def test_pendant_child_combines_match_scatter(topo, n):
    """Combines with a pendant child on either side, the bulk of every
    caterpillar, follow the same tie rule as the scatter reference."""
    gen = gen_caterpillar if topo == "caterpillar" else gen_yule
    pendant = sum(_assert_combines_match_scatter(
        *_tables_for(gen(n, seed), epsilon=0.4)) for seed in range(5))
    assert pendant > 0


@settings(deadline=None, max_examples=60, derandomize=True)
@given(topo=st.sampled_from(["yule", "caterpillar"]),
       n=st.integers(2, 8), seed=st.integers(0, 10_000),
       epsilon=st.floats(0.3, 0.6), budget=st.integers(0, 8))
def test_combine_matches_scatter_property(topo, n, seed, epsilon, budget):
    gen = gen_caterpillar if topo == "caterpillar" else gen_yule
    _assert_combines_match_scatter(
        *_tables_for(gen(n, seed, budget=budget), epsilon=epsilon))


def test_combine_ties_pick_smallest_budget_then_row():
    """A right cell at row 0 (probability 1) sends every left row to output
    row 0, so equal left values tie there: first on the left row at one
    budget, then across left budgets."""
    d = small_disc()
    left = np.full((2, d.t + 2), -np.inf)
    left[0, [2, 3]] = 1.0
    left[1, 1] = 1.0
    right = np.full((2, d.t + 2), -np.inf)
    right[:, 0] = 0.5
    got = combine_tables(2, from_dense(0, "internal", left),
                         from_dense(1, "internal", right), 0.0, 1, d)
    scores, bp_i, bp_j, bp_k = dense(got, 1, d)
    assert scores[:, 0].tolist() == [1.5, 1.5]
    assert bp_i[:, 0].tolist() == [0, 0]
    assert bp_j[:, 0].tolist() == [2, 2]
    assert bp_k[:, 0].tolist() == [0, 0]


def test_combine_right_row_ties_pick_smallest_k():
    """Left row 1 (0.5) sends right rows 1..5 to output row 1, since
    0.5 + 0.5 k rounds to 0.5 for every k < 1. Right rows 2 and 4 carry
    equal values in that window; the stored right row is the smaller."""
    d = small_disc()
    left = np.full((1, d.t + 2), -np.inf)
    left[0, 1] = 1.0
    right = np.full((1, d.t + 2), -np.inf)
    right[0, [2, 4]] = 0.5
    got = combine_tables(2, from_dense(0, "internal", left),
                         from_dense(1, "internal", right), 0.0, 0, d)
    assert got.cells.tolist() == [1]
    assert got.scores.tolist() == [1.5]
    assert (got.bp_budget.tolist(), got.bp_left.tolist(),
            got.bp_right.tolist()) == ([0], [1], [2])


@st.composite
def _tie_heavy_tables(draw):
    """Two child tables whose cells take one of three values or -inf."""
    budget = draw(st.integers(0, 4))
    cells = st.sampled_from([-np.inf, 0.0, 0.5, 1.0])
    shape = (budget + 1, small_disc().t + 2)
    return budget, draw(arrays(np.float64, shape, elements=cells)), \
        draw(arrays(np.float64, shape, elements=cells))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_tie_heavy_tables())
def test_combine_tie_heavy_tables_match_scatter(case):
    """With so few distinct values nearly every output cell is a tie, so
    this exercises each level of the tie rule against the reference."""
    budget, left, right = case
    d = small_disc()
    l, r = from_dense(0, "internal", left), from_dense(1, "internal", right)
    got = combine_tables(2, l, r, 1.0, budget, d)
    _assert_matches_reference(got, l, r, 1.0, budget, d)


def _wide_cost_instance():
    """Costs up to 40 under a budget of 60: a long budget axis, so left
    budgets hold many cells and blocks span several of them."""
    return _tables_for(gen_yule(12, 0, c_range=(1, 40), budget=60))


def test_wide_cost_combines_match_scatter():
    _assert_combines_match_scatter(*_wide_cost_instance())


@pytest.mark.parametrize("cap", [1, 2, 7])
def test_combine_identity_under_small_blocks(cap, monkeypatch):
    """With a block cap of a few pairs, blocks split the cells of one left
    budget and also cross from one budget to the next; every identity test
    must still hold, ties included."""
    monkeypatch.setattr(solver, "BLOCK_PAIRS", cap)
    test_combine_matches_scatter_property()
    test_combine_tie_heavy_tables_match_scatter()
    test_combine_ties_pick_smallest_budget_then_row()
    test_combine_right_row_ties_pick_smallest_k()
    test_wide_cost_combines_match_scatter()


# ------------------------------------------------------------------------- #
#  solve() end to end
# ------------------------------------------------------------------------- #

def test_solve_cherry_optimal():
    sol = solve(cherry(), epsilon=0.5)
    assert sol.selection.selected == frozenset({"y"})
    assert sol.selection.score == pytest.approx(2.1)
    assert sol.reported_score <= sol.selection.score + 1e-9


def test_solve_tie_breaks_deterministically():
    a = solve(tie_cherry(), epsilon=0.3)
    b = solve(tie_cherry(), epsilon=0.3)
    assert a.selection == b.selection
    assert a.selection.score == pytest.approx(1.4)


def test_solve_fig1_finds_true_optimum():
    sol = solve(fig1_instance(), epsilon=0.05)
    assert sol.selection.selected == frozenset({"w", "y"})
    assert sol.selection.score == pytest.approx(230.0)


def test_solve_respects_guarantee_on_small_instances():
    for seed in range(8):
        inst = gen_yule(7, seed)
        _, opt = exhaustive_best(inst)
        for eps in (0.2, 0.5):
            sol = solve(inst, epsilon=eps)
            assert sol.selection.score >= (1 - eps) * opt - 1e-9
            assert sol.selection.total_cost <= inst.budget
            assert sol.selection.score >= sol.reported_score - 1e-6


@settings(deadline=None, max_examples=40, derandomize=True)
@given(topo=st.sampled_from(["yule", "caterpillar"]),
       n=st.integers(2, 16), seed=st.integers(0, 10_000),
       epsilon=st.floats(0.3, 0.6), c_hi=st.integers(1, 40),
       budget=st.integers(0, 80))
def test_solve_invariants_property(topo, n, seed, epsilon, c_hi, budget):
    """The selection is affordable, its exact score is at least the
    reported bound, and neither depends on how the combine is blocked."""
    gen = gen_caterpillar if topo == "caterpillar" else gen_yule
    inst = gen(n, seed, c_range=(1, c_hi), budget=budget)
    sol = solve(inst, epsilon=epsilon)
    assert sol.selection.total_cost <= inst.budget
    assert sol.selection.score >= sol.reported_score - 1e-9 * total_pd(inst)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOCK_PAIRS", 1)
        one = solve(inst, epsilon=epsilon)
    assert one.selection.selected == sol.selection.selected
    assert repr(one.reported_score) == repr(sol.reported_score)


def test_work_counters_on_hand_instance():
    """``stats`` counts the affordable pairs, found here by checking every
    (left cell, right cell) pair, the finite cells stored and the dense
    cell count that the size limit checks."""
    inst, _ = load_instance(data_path("hand.nap.json"))
    sol = solve(inst, epsilon=0.3)
    norm, rows = normalize(inst), sol.params.t + 2
    tables, _ = build_tables(norm, sol.params)
    pairs = 0
    for e in norm.tree.edges:
        if len(e.children) == 2:
            l, r = (tables[c].cells // rows for c in e.children)
            pairs += sum(int(i + beta <= norm.budget) for i in l for beta in r)
    assert sol.stats["fast_combines"] == 2
    assert sol.stats["candidate_pairs"] == pairs
    assert sol.stats["table_cells"] == sum(t.cells.size for t in tables.values())
    assert sol.stats["dense_cells"] == (inst.budget + 1) * rows


def test_solve_degenerate_all_dead():
    inst = make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 1.0)),
        [("x", 0.0, 0.0, 1), ("y", 0.0, 0.0, 1)],
        budget=1,
    )
    sol = solve(inst, epsilon=0.3)
    assert sol.selection.selected == frozenset()
    assert sol.params is None
    assert sol.reported_score == pytest.approx(0.0)
    assert sol.stats == dict.fromkeys(solve(cherry(), 0.3).stats, 0)


def test_solve_zero_budget():
    inst = cherry()
    inst.budget = 0
    sol = solve(inst, epsilon=0.3)
    assert sol.selection.selected == frozenset()
    assert sol.selection.score == pytest.approx(1.5)


def test_solve_drops_unaffordable_ids():
    inst = make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 2.0)),
        [("x", 0.5, 0.9, 100), ("y", 0.5, 0.8, 1)],
        budget=2,
    )
    sol = solve(inst, epsilon=0.2)
    assert "x" not in sol.selection.selected
    assert sol.selection.total_cost <= 2


def test_solve_single_leaf():
    inst = make_instance(leaf("only", 3.0), [("only", 0.1, 0.9, 1)], budget=1)
    sol = solve(inst, epsilon=0.5)
    assert sol.selection.selected == frozenset({"only"})
    assert sol.selection.score == pytest.approx(2.7)


@pytest.mark.parametrize("eps", [0.0, 1.0, -1.0, 2.0])
def test_solve_rejects_bad_epsilon(eps):
    with pytest.raises(ParameterError):
        solve(cherry(), epsilon=eps)


def test_lower_bound_check_is_relative(monkeypatch):
    """On a tree whose lengths are of order 1e-7, an evaluated score that
    falls short of the reported bound by a relative 1e-4 is far below any
    fixed absolute slack; the check scales with the total branch length.
    With a = 0 and b = 1 rounding is exact, so the bound is tight."""
    inst = make_instance(
        inner(0.0, leaf("x", 1e-7), leaf("y", 2e-7)),
        [("x", 0.0, 1.0, 1), ("y", 0.0, 1.0, 1)],
        budget=1,
    )
    evaluate = solver.make_conservation_set

    def short(instance, selected):
        sel = evaluate(instance, selected)
        return dataclasses.replace(sel, score=sel.score * (1 - 1e-4))

    monkeypatch.setattr(solver, "make_conservation_set", short)
    with pytest.raises(InternalError, match="fell below the reported bound"):
        solve(inst, epsilon=0.3)


def test_solution_score_is_reevaluated_exactly():
    """The returned score comes from re-scoring the selection on the
    original instance, so it must equal expected_pd of that set."""
    inst = gen_yule(9, 42)
    sol = solve(inst, epsilon=0.3)
    assert sol.selection.score == expected_pd(inst, sol.selection.selected)
