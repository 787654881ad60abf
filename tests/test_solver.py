"""Tests for the table-building dynamic program and the full solver."""

import dataclasses
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from napx import baselines, solver
from napx.baselines import brute_force, pardi_goldman
from napx.discretization import Discretization, derive_k, select_params
from napx.cli import main
from napx.errors import InternalError, ParameterError, SizeLimitError
from napx.generators import gen_caterpillar, gen_yule
from napx.io import load_instance, save_instance
from napx.model import (Edge, Instance, PhyloTree, Taxon, expected_pd,
                        make_conservation_set, normalize, total_pd)
from napx.solver import (CellStore, CladeTable, backtrace,
                         build_pendant_tables, build_tables, combine_level,
                         solve)

from oracles import (assert_frontier_of_scatter, assert_same_table,
                     backtrace_tables, build_tables_postorder, cells,
                     combine_alone, exhaustive_best, from_dense,
                     frontier_indices, refuse_by_height, root_by_table,
                     store_table)
from util import (cherry, data_path, fig1_instance, inner, leaf, make_instance,
                  polytomy_instance, tie_cherry)


def small_disc() -> Discretization:
    return Discretization(0.5, 0.1)   # grid 1,.5,.25,.125,.0625,0


# ------------------------------------------------------------------------- #
#  Pendant tables
# ------------------------------------------------------------------------- #

def _pendant_cells(instance, disc) -> dict[str, list]:
    """Cells of every pendant table of the instance, keyed by taxon."""
    return {instance.tree.edges[eid].taxon: cells(tab)
            for eid, tab in build_pendant_tables(instance, disc).items()}


def test_pendant_table_by_hand():
    """Two cells: leave the taxon (cost 0, value a*lam at pi(a)) or
    conserve it (cost c, value b*lam at pi(b))."""
    d = small_disc()
    inst = make_instance(leaf("x", 2.0), [("x", 0.2, 0.9, 3)], budget=4)
    # pi(0.2): [0.125, 0.25) is row 3; pi(0.9): [0.5, 1) is row 1
    assert _pendant_cells(inst, d) == {"x": [(0, 3, 0.2 * 2.0), (3, 1, 0.9 * 2.0)]}


def test_pendant_unaffordable_has_no_conserved_row():
    """Normalizing turns a taxon priced above the budget into c = 0 and
    b = a, so its one cell is the unconserved survival at cost 0."""
    d = small_disc()
    inst = make_instance(leaf("x", 2.0), [("x", 0.2, 0.9, 9)], budget=4)
    assert _pendant_cells(normalize(inst), d) == {"x": [(0, 3, 0.2 * 2.0)]}


def test_pendant_drops_a_useless_conservation():
    """With a = b conserving buys nothing, so the costlier cell is
    dominated; at cost 0 the conserved cell is the one kept."""
    d = small_disc()
    inst = make_instance(inner(0.0, leaf("x", 1.0), leaf("free", 1.0)),
                         [("x", 0.3, 0.3, 2), ("free", 0.3, 0.3, 0)], budget=4)
    assert _pendant_cells(inst, d) == {"x": [(0, 2, 0.3)], "free": [(0, 2, 0.3)]}
    assert solve(make_instance(leaf("x", 1.0), [("x", 0.3, 0.3, 0)], budget=1),
                 0.5).selection.selected == frozenset({"x"})


@st.composite
def _pendant_taxon(draw):
    a = draw(st.floats(0.0, 1.0))
    b = draw(st.sampled_from([a, 1.0]) | st.floats(a, 1.0))
    lam = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 100.0))
    return a, b, draw(st.integers(0, 3)), lam


# one taxon per branch of the closed form: c = 0, a = b, lam = 0, a < b
_BRANCHES = [(0.2, 0.9, 0, 1.0), (0.3, 0.3, 2, 1.0), (0.2, 0.9, 1, 0.0),
             (0.2, 0.9, 3, 2.0), (0.26, 0.3, 1, 1.0)]


@settings(deadline=None, max_examples=150, derandomize=True)
@given(taxa=st.lists(_pendant_taxon(), min_size=1, max_size=6),
       alpha=st.floats(0.3, 0.95))
@example(taxa=_BRANCHES, alpha=0.5)
def test_pendant_tables_equal_the_frontier_of_both_choices(taxa, alpha):
    """Every batched pendant table holds exactly the cells the frontier
    filter keeps of its two candidates, conserving listed first."""
    d = Discretization(alpha, 0.01)
    ids = [f"t{i}" for i in range(len(taxa))]
    leaves = [leaf(tid, lam) for tid, (_, _, _, lam) in zip(ids, taxa)]
    inst = make_instance(leaves[0] if len(leaves) == 1 else inner(0.0, *leaves),
                         [(tid, a, b, c) for tid, (a, b, c, _) in zip(ids, taxa)],
                         budget=3)
    got = _pendant_cells(inst, d)
    for tid, (a, b, c, lam) in zip(ids, taxa):
        costs = np.array([c, 0], dtype=np.int64)
        probs = np.array([b, a])
        rows = d.pi_index(probs)
        keep = solver._frontier(costs, rows, probs * lam)
        assert got[tid] == list(zip(costs[keep].tolist(), rows[keep].tolist(),
                                    (probs * lam)[keep].tolist()))


def test_pendant_tables_refuse_an_unnormalized_instance():
    """The closed form assumes c <= B; a taxon priced above the budget
    must go through ``normalize`` first."""
    inst = make_instance(leaf("x", 2.0), [("x", 0.2, 0.9, 9)], budget=4)
    with pytest.raises(InternalError, match="normalized instance"):
        build_pendant_tables(inst, small_disc())


def test_frontier_of_no_candidates_is_empty():
    none = np.empty(0, dtype=np.int64)
    keep = solver._frontier(none, none, np.empty(0))
    assert keep.size == 0 and keep.dtype == np.intp


# ------------------------------------------------------------------------- #
#  Combines against the scatter reference
# ------------------------------------------------------------------------- #

def _tables_for(instance, epsilon=0.5):
    norm = normalize(instance)
    min_b = min(tx.b for tx in norm.taxa.values() if tx.b > 0)
    k = derive_k(len(norm.taxa), min_b)
    disc = select_params(len(norm.taxa), norm.tree.height, epsilon, k)
    return norm, disc


def _assert_combines_match_scatter(norm, disc) -> int:
    """Every binary combine of the instance equals the frontier of the
    scatter reference, with backpointers that rebuild each cell; returns
    how many had a pendant child."""
    tables, stats = build_tables(norm, disc)
    assert stats["general_combines"] == 0
    pendant = 0
    for e in norm.tree.edges:
        if len(e.children) != 2:
            continue
        l, r = (tables[c] for c in e.children)
        got = combine_alone(l, r, e.length, norm.budget, disc)
        assert_frontier_of_scatter(got, l, r, e.length, norm.budget, disc)
        pendant += any(norm.tree.edges[c].taxon is not None
                       for c in e.children)
    return pendant


@pytest.mark.parametrize("seed", range(4))
def test_general_combine_matches_scatter(seed):
    """The frontier combine equals the non-dominated cells of scattering
    every (j, i, k, beta) candidate, bit for bit."""
    _assert_combines_match_scatter(*_tables_for(gen_yule(6, seed)))


@pytest.mark.parametrize("topo,n", [("caterpillar", 9), ("yule", 9)])
def test_pendant_child_combines_match_scatter(topo, n):
    """Combines with a pendant child on either side, the bulk of every
    caterpillar, equal the frontier of the scatter reference."""
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


def _table(costs, rows, scores):
    return CladeTable(costs=np.array(costs), rows=np.array(rows),
                      scores=np.array(scores))


def test_combine_ties_pick_smallest_budget_then_row():
    """A right cell at row 0 (probability 1) sends every left row to output
    row 0, so equal left values tie there. The cost-0 cell is kept, built
    from the first left cell (the smaller left row); the same value at
    cost 1 is dominated."""
    d = small_disc()
    left = _table([0, 0, 1], [2, 3, 1], [1.0, 1.0, 1.0])
    right = _table([0, 1], [0, 0], [0.5, 0.5])
    got = combine_alone(left, right, 0.0, 1, d)
    assert cells(got) == [(0, 0, 1.5)]
    assert (got.left.tolist(), got.right.tolist()) == ([0], [0])


def test_combine_right_row_ties_pick_smallest_k():
    """Left row 1 (0.5) sends right rows 1..5 to output row 1, since
    0.5 + 0.5 k rounds to 0.5 for every k < 1. Right rows 2 and 4 carry
    equal values there; the stored right cell is the first, row 2."""
    d = small_disc()
    left = np.full((1, d.t + 2), -np.inf)
    left[0, 1] = 1.0
    right = np.full((1, d.t + 2), -np.inf)
    right[0, [2, 4]] = 0.5
    got = combine_alone(from_dense(left), from_dense(right), 0.0, 0, d)
    assert cells(got) == [(0, 1, 1.5)]
    assert (got.left.tolist(), got.right.tolist()) == ([0], [0])


def test_tie_rule_by_hand():
    """The tie rule, level by level: the highest value first, then the
    smallest cost, then the smallest row, then the first pair in (left,
    right) index order. A right cell at row 5 (probability 0) leaves every
    left row where it is, and lam = 0 adds nothing."""
    d = small_disc()
    left = _table([0, 1, 1, 1, 3], [3, 2, 1, 1, 2],
                  [1.0, 1.0, 1.0, 1.0, 1.5])
    right = _table([0, 0], [5, 5], [0.0, 0.0])
    got = combine_alone(left, right, 0.0, 3, d)
    # (1, 2) is dominated by (1, 1) of equal value; (1, 1) is reached by
    # left cells 2 and 3, each with both right cells: the first pair wins
    assert cells(got) == [(0, 3, 1.0), (1, 1, 1.0), (3, 2, 1.5)]
    assert got.left.tolist() == [0, 2, 4]
    assert got.right.tolist() == [0, 0, 0]
    assert int(np.argmax(got.scores)) == 2
    # without the 1.5 cell the root's best is the cost-0 cell
    tie = combine_alone(left, right, 0.0, 2, d)
    assert cells(tie) == [(0, 3, 1.0), (1, 1, 1.0)]
    assert int(np.argmax(tie.scores)) == 0


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
    l, r = from_dense(left), from_dense(right)
    got = combine_alone(l, r, 1.0, budget, d)
    assert_frontier_of_scatter(got, l, r, 1.0, budget, d)


def _wide_cost_instance():
    """Costs up to 40 under a budget of 60: many distinct cell costs, so
    the frontier spans a long cost axis."""
    return _tables_for(gen_yule(12, 0, c_range=(1, 40), budget=60))


def test_wide_cost_combines_match_scatter():
    _assert_combines_match_scatter(*_wide_cost_instance())


# ------------------------------------------------------------------------- #
#  Combines batched by tree height
# ------------------------------------------------------------------------- #

# costs near 2**62, whose affordable sums still fit int64 under the largest
# budget
_COSTS = [0, 0, 1, 2, 3, (1 << 62) - 3, 1 << 62, (1 << 62) + 3]
_DISCS = [small_disc(), Discretization(0.9, 1e-3)]


@st.composite
def _frontier_input(draw):
    """0-24 candidates of up to four edges, few distinct costs, rows and
    scores, so that ties on score, on (cost, row) and across edges are
    common; with or without ``seg``, and a ``PAIR_LIMIT`` that is at times
    low enough to send a stack of edges down the edge-by-edge route."""
    n = draw(st.integers(0, 24))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    costs = np.array(column(st.sampled_from(_COSTS)), dtype=np.int64)
    rows = np.array(column(st.integers(0, 5)), dtype=np.int64)
    scores = np.array(column(st.sampled_from([0.0, 0.5, 1.0])
                             | st.floats(0.0, 100.0)), dtype=np.float64)
    seg = np.array(sorted(column(st.integers(0, 3))), dtype=np.int64)
    return (costs, rows, scores, draw(st.sampled_from([seg, None])),
            draw(st.sampled_from([solver.PAIR_LIMIT, 12, 24, 48])))


@settings(deadline=None, max_examples=400, derandomize=True)
@given(_frontier_input())
@example((np.array([0, 1, 0, 0]), np.array([0, 0, 0, 1]),
          np.array([1.0, 2.0, 1.0, 2.0]), np.array([0, 0, 1, 1]), 3))
def test_frontier_equals_pairwise_dominance(case):
    """``_frontier`` keeps exactly the candidates of the literal oracle,
    in (edge, cost, row) order, and refuses exactly when one edge's
    (distinct cost x distinct row) matrix is above ``PAIR_LIMIT``; a
    stack of edges above it is filtered edge by edge, as the example
    does (a stack of 8 cells against a limit of 3, 2 cells an edge)."""
    costs, rows, scores, seg, limit = case
    edges = np.zeros_like(costs) if seg is None else seg
    largest = max((np.unique(costs[edges == e]).size
                   * np.unique(rows[edges == e]).size
                   for e in np.unique(edges)), default=0)
    args = (costs, rows, scores) + (() if seg is None else (seg,))
    with mock.patch.object(solver, "PAIR_LIMIT", limit):
        if largest > limit:
            with pytest.raises(SizeLimitError, match="dominance-matrix"):
                solver._frontier(*args)
            return
        keep = solver._frontier(*args)
    assert keep.dtype == np.intp
    assert keep.tolist() == frontier_indices(costs, rows, scores, seg)


@st.composite
def _child_table(draw, disc):
    """A table of 0-5 cells in (cost, row) order, dominated ones too, with
    few distinct costs, rows and scores, so that ties are common."""
    n = draw(st.integers(0, 5))
    drawn = sorted(draw(st.lists(st.tuples(
        st.sampled_from(_COSTS), st.integers(0, disc.t + 1),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 100.0)),
        min_size=n, max_size=n)))
    costs, rows, scores = zip(*drawn) if drawn else ((), (), ())
    return CladeTable(costs=np.array(costs, dtype=np.int64),
                      rows=np.array(rows, dtype=np.int64),
                      scores=np.array(scores, dtype=np.float64))


@st.composite
def _level(draw):
    """Combines of drawn child tables, and the order in which the children
    go into the store, so that a child's cells may sit anywhere in it."""
    disc = draw(st.sampled_from(_DISCS))
    budget = draw(st.sampled_from([0, 1, 3, 6, (1 << 63) - 1]))
    combines = [(draw(_child_table(disc)), draw(_child_table(disc)),
                 draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0)))
                for _ in range(draw(st.integers(2, 6)))]
    return disc, budget, combines, draw(st.permutations(range(2 * len(combines))))


_EMPTY = CladeTable(costs=np.empty(0, dtype=np.int64),
                    rows=np.empty(0, dtype=np.int64), scores=np.empty(0))
_ONE = CladeTable(costs=np.array([0]), rows=np.array([1]),
                  scores=np.array([0.5]))
_THREE = CladeTable(costs=np.array([0, 1, 2]), rows=np.array([3, 2, 1]),
                    scores=np.array([0.25, 0.5, 1.0]))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(_level(), st.sampled_from([solver.BATCH_PAIRS, 1, 8]))
@example((_DISCS[0], 3, [(_EMPTY, _ONE, 1.0), (_ONE, _EMPTY, 1.0),
                         (_ONE, _ONE, 0.0), (_EMPTY, _EMPTY, 1.0)],
          [7, 0, 5, 2, 3, 4, 1, 6]), solver.BATCH_PAIRS)
@example((_DISCS[0], 3, [(_ONE, _ONE, 1.0), (_ONE, _ONE, 2.0),
                         (_EMPTY, _ONE, 3.0)], [5, 4, 3, 2, 1, 0]), 1)
@example((_DISCS[0], 6, [(_THREE, _THREE, 1.0), (_ONE, _THREE, 2.0),
                         (_THREE, _ONE, 0.5)], [5, 4, 3, 2, 1, 0]), 8)
def test_combine_level_equals_each_combine_alone(case, batch_pairs):
    """Each table a batched level puts into the store equals, field for
    field, the one ``combine_level`` builds for its edge alone, wherever
    its children sit in the store and wherever ``BATCH_PAIRS`` cuts the
    level into batches; the level returns the number of affordable pairs
    and leaves the children's tables as they were. The last two examples
    put a batch of two combines after a lone first one (9 pairs against a
    cut at 8, 1 pair against a cut at 1)."""
    disc, budget, combines, order = case
    children = [tab for left, right, _ in combines for tab in (left, right)]
    store = CellStore(3 * len(combines))
    for eid in order:
        store_table(store, eid, children[eid])
    level = [(2 * len(combines) + i, 2 * i, 2 * i + 1, lam)
             for i, (_, _, lam) in enumerate(combines)]
    with mock.patch.object(solver, "BATCH_PAIRS", batch_pairs):
        pairs = combine_level(store, level, budget, disc)
    assert len(store) == 3 * len(combines)
    for (eid, *_), (left, right, lam) in zip(level, combines):
        assert_same_table(store[eid], combine_alone(left, right, lam, budget,
                                                    disc))
    assert pairs == sum(c + d <= budget for left, right, _ in combines
                        for c in left.costs.tolist() for d in right.costs.tolist())
    for eid, tab in enumerate(children):
        assert cells(store[eid]) == cells(tab)


def _fields(tab: CladeTable) -> tuple:
    return tuple(None if x is None else (x.dtype, x.shape, x.tobytes())
                 for x in (tab.costs, tab.rows, tab.scores, tab.left, tab.right))


@pytest.mark.parametrize("reserve", [solver.RESERVE_PER_EDGE, 0])
def test_every_writer_appends_one_block(monkeypatch, reserve):
    """Every writer appends through ``CellStore.put``, one block a call:
    the pendant block, each lone combine, each batched level and
    ``store_table``. Each put appends its edges' tables one
    after another at the store's end, in call order, and grows the store
    by their sizes; a block has both backpointer arrays or neither, and
    its edges' tables read back as paired when it has them; every earlier
    table keeps its fields, also when the store grows, as it does at once
    when it starts with no room beyond the pendant block. A combined
    table's backpointers index its children's tables, and a build's sizes
    sum to its cells, the stats' ``table_cells``."""
    monkeypatch.setattr(solver, "RESERVE_PER_EDGE", reserve)
    put, calls = CellStore.put, []

    def checked_put(store, eid, size, costs, rows, scores, left=None,
                    right=None):
        before = {e: _fields(store[e]) for e in store}
        used, room = store.cells, store.scores.size
        put(store, eid, size, costs, rows, scores, left, right)
        eids, sizes = np.atleast_1d(eid), np.atleast_1d(size)
        assert store.cells == used + sizes.sum() == used + costs.size
        assert store.start[eids].tolist() == (used + sizes.cumsum()
                                              - sizes).tolist()
        assert store.size[eids].tolist() == sizes.tolist()
        paired = left is not None
        assert (right is not None) == paired
        assert set(store.paired[eids].tolist()) == {paired}
        for name, given in zip(("costs", "rows", "scores", "left", "right"),
                               (costs, rows, scores, left, right)):
            if given is not None:
                assert np.array_equal(getattr(store, name)[used:store.cells],
                                      given)
        assert {e: _fields(store[e]) for e in before} == before
        calls.append((np.ndim(eid), paired, store.scores.size > room))

    monkeypatch.setattr(CellStore, "put", checked_put)
    norm, disc = _tables_for(gen_yule(40, 0), 0.1)
    store = build_pendant_tables(norm, disc)
    for e in norm.tree.edges:
        if len(e.children) == 2:
            combine_level(store, [(e.eid, *e.children, e.length)],
                          norm.budget, disc)
            tab = store[e.eid]
            l, r = (store[c] for c in e.children)
            assert np.array_equal(l.costs[tab.left] + r.costs[tab.right],
                                  tab.costs)
    one = make_instance(inner(2.0, leaf("x", 1.0)), [("x", 0.2, 0.9, 1)],
                        budget=2)
    for instance in (gen_yule(40, 0), one):
        store, stats = build_tables(*_tables_for(instance, 0.1))
        assert store.size.sum() == store.cells == stats["table_cells"]
    combine_alone(_ONE, _ONE, 1.0, 1, _DISCS[0])
    # pendant blocks, lone combines, batches, store_table
    assert {kind[:2] for kind in calls} == {(1, False), (0, True), (1, True),
                                            (0, False)}
    assert any(grew for *_, grew in calls) or reserve > 0


def test_lone_combine_frees_its_pair_arrays_before_put(monkeypatch):
    """A lone combine gathers its kept cells and drops its candidate
    arrays before ``CellStore.put``, so that they are not held while the
    store grows: each of the 39 combines below the root of a 40-leaf
    caterpillar, all of them lone, puts after every candidate array its
    ``_frontier`` saw is freed."""
    frontier, put = solver._frontier, CellStore.put
    refs, checked = [], []

    def spy_frontier(costs, rows, scores, seg=None):
        if seg is None:
            refs.extend(weakref.ref(x) for x in (costs, rows, scores))
        return frontier(costs, rows, scores, seg)

    def spy_put(store, *args):
        assert [i for i, r in enumerate(refs) if r() is not None] == []
        checked.append(len(refs))
        put(store, *args)

    monkeypatch.setattr(solver, "_frontier", spy_frontier)
    monkeypatch.setattr(CellStore, "put", spy_put)
    build_tables(*_tables_for(gen_caterpillar(40, 1), 0.1))
    assert checked == list(range(0, 3 * 39, 3))


def _random_polytomy(seed: int):
    """A tree of 3-12 leaves whose interior nodes have two to four
    children, some edges of length 0, some a = b and some c = 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    nodes = [leaf(f"t{i}", float(rng.choice([0.0, 0.5, 1.0]))) for i in range(n)]
    while len(nodes) > 1:
        k = min(len(nodes), int(rng.integers(2, 5)))
        picked = [nodes.pop(int(rng.integers(len(nodes)))) for _ in range(k)]
        nodes.append(inner(float(rng.choice([0.0, 1.0])), *picked))
    rows = []
    for i in range(n):
        a = float(rng.choice([0.0, 0.2, 0.5]))
        rows.append((f"t{i}", a, float(rng.choice([a, 0.9])),
                     int(rng.integers(0, 4))))
    return make_instance(nodes[0], rows, budget=int(rng.integers(0, 2 * n)))


@pytest.mark.parametrize("instance", [
    *(gen_yule(n, seed) for n in (2, 9, 40) for seed in range(3)),
    *(gen_caterpillar(n, seed) for n in (2, 9, 40) for seed in range(2)),
    gen_yule(64, 1, c_range=(1, 40), budget=200),
    polytomy_instance(),
    *(_random_polytomy(seed) for seed in range(8)),
], ids=lambda inst: f"n{len(inst.taxa)}h{inst.tree.height}")
@pytest.mark.parametrize("epsilon", [0.3, 0.1])
@pytest.mark.parametrize("batch_pairs", [solver.BATCH_PAIRS, 8])
def test_build_tables_equals_a_postorder_loop(monkeypatch, instance, epsilon,
                                              batch_pairs):
    """Tables built one height at a time equal those of one lone combine
    per edge below the root in postorder, and so do the stats, also when
    small batches cut most heights into several passes. The root gets no
    table."""
    monkeypatch.setattr(solver, "BATCH_PAIRS", batch_pairs)
    norm, disc = _tables_for(instance, epsilon)
    store, stats = build_tables(norm, disc)
    want, want_stats = build_tables_postorder(norm, disc)
    assert norm.tree.root not in store
    assert set(store) == set(want)
    for eid in want:
        assert_same_table(store[eid], want[eid])
    assert stats == want_stats


def _leaf_edge(eid: int, taxon: str) -> Edge:
    return Edge(eid, 1.0, (), taxon, 1)


@pytest.mark.parametrize("edges", [
    (_leaf_edge(0, "x"), Edge(1, 1.0, (0,), None, 2), _leaf_edge(2, "y"),
     Edge(3, 0.0, (1, 2), None, 3)),
    (_leaf_edge(0, "x"), _leaf_edge(1, "y"), _leaf_edge(2, "z"),
     Edge(3, 0.0, (0, 1, 2), None, 2)),
], ids=["unary-below-the-root", "polytomy"])
def test_build_tables_refuses_a_tree_that_is_not_binary(edges):
    """A hand-built tree that ``PhyloTree.is_binary`` refuses, with a
    unary edge below the root or a polytomy, is refused with
    ``InternalError`` rather than built."""
    tree = PhyloTree(edges=edges, root=3)
    inst = Instance(tree=tree, budget=2, taxa={
        e.taxon: Taxon(e.taxon, 0.2, 0.9, 1) for e in edges if e.taxon})
    assert not tree.is_binary()
    with pytest.raises(InternalError, match="binary"):
        build_tables(inst, small_disc())


@pytest.mark.parametrize("instance", [
    gen_yule(40, 0), gen_caterpillar(40, 1),
    gen_yule(64, 1, c_range=(1, 40), budget=200), polytomy_instance(),
], ids=lambda inst: f"n{len(inst.taxa)}h{inst.tree.height}")
@pytest.mark.parametrize("reserve", [0, 1])
def test_build_tables_grows_its_store(monkeypatch, instance, reserve):
    """A store that starts with room for at most one cell an edge grows
    after its pendant block exactly when the combines' cells do not fit in
    the room that block left, and every table still equals the postorder
    loop's; its size is the stats' ``table_cells``. The polytomy's one
    combine below the root fits at one cell an edge."""
    monkeypatch.setattr(solver, "RESERVE_PER_EDGE", reserve)
    norm, disc = _tables_for(instance, 0.1)
    store, stats = build_tables(norm, disc)
    want, want_stats = build_tables_postorder(norm, disc)
    room = build_pendant_tables(norm, disc).scores.size
    assert (room < store.scores.size) == (room < store.cells)
    assert store.cells == stats["table_cells"] <= store.scores.size
    assert set(store) == set(want)
    for eid in want:
        assert_same_table(store[eid], want[eid])
    assert stats == want_stats


@pytest.mark.parametrize("instance", [
    *(gen_yule(n, seed) for n in (9, 40) for seed in range(2)),
    gen_caterpillar(40, 0), gen_yule(64, 1, c_range=(1, 40), budget=200),
    polytomy_instance(),
    make_instance(inner(2.0, leaf("x", 1.0)), [("x", 0.2, 0.9, 1)], budget=2),
], ids=lambda inst: f"n{len(inst.taxa)}h{inst.tree.height}")
def test_backtrace_equals_the_per_edge_backtrace(instance):
    """From every pair of cells of the root's two children, or every cell
    of the one-leaf tree's pendant, the store's backtrace selects the taxa
    that the backtraces over the postorder loop's dict of tables do."""
    norm, disc = _tables_for(instance, 0.1)
    store, _ = build_tables(norm, disc)
    want, _ = build_tables_postorder(norm, disc)
    children = norm.tree.edges[norm.tree.root].children
    for cells in itertools.product(*(range(store[c].scores.size)
                                     for c in children)):
        assert backtrace(norm, store, list(zip(children, cells))) == \
            frozenset().union(*(backtrace_tables(norm, want, c, n)
                                for c, n in zip(children, cells)))


def _sizes_of_combines(monkeypatch, norm, disc) -> list[int]:
    """Pair and dominance-cell counts of every combine of the postorder
    loop, as its size checks see them."""
    sizes = []
    check = solver._check_size
    monkeypatch.setattr(solver, "_check_size",
                        lambda what, n: sizes.append(n) or check(what, n))
    build_tables_postorder(norm, disc)
    monkeypatch.setattr(solver, "_check_size", check)
    return sizes


def test_batches_refuse_nothing_the_edge_loop_solves(monkeypatch):
    """With ``PAIR_LIMIT`` at the largest single combine but below a level's
    summed pairs, no batch holds more pairs than the limit, some batch whose
    stacked dominance matrices are above it is filtered edge by edge, and
    the solve is the one without the limit."""
    inst = gen_yule(256, 1, budget=64)
    norm, disc = _tables_for(inst, 0.3)
    largest = max(_sizes_of_combines(monkeypatch, norm, disc))
    tables, _ = build_tables(norm, disc)
    pairs: dict[int, int] = {}
    for e in norm.tree.edges:
        if len(e.children) == 2:
            left, right = (tables[c] for c in e.children)
            pairs[e.height] = pairs.get(e.height, 0) + int(np.searchsorted(
                right.costs, norm.budget - left.costs, side="right").sum())
    assert largest < max(pairs.values()) <= solver.BATCH_PAIRS
    before = solve(inst, 0.3)
    calls, depth = [], [0]
    frontier = solver._frontier

    def recorded(*args):
        calls.append((depth[0], args))
        depth[0] += 1
        try:
            return frontier(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solver, "_frontier", recorded)
    monkeypatch.setattr(solver, "PAIR_LIMIT", largest)
    after = solve(inst, 0.3)
    # a batch is the one segmented filter its level calls, over all its pairs
    batch_pairs = [args[0].size for d, args in calls if d == 0 and len(args) == 4]
    assert batch_pairs and max(batch_pairs) <= largest
    # a segmented filter whose stacked matrices did not fit filtered its
    # edges one at a time, each through an unsegmented filter of its own
    nested = [args for d, args in calls if d == 1]
    assert nested and all(len(args) == 3 for args in nested)
    assert after.selection == before.selection
    assert repr(after.reported_score) == repr(before.reported_score)
    assert after.stats == before.stats


@pytest.mark.parametrize("below", [1, 2000])
def test_refusal_is_the_first_of_the_edge_loop(monkeypatch, capsys, tmp_path,
                                                below):
    """Below the largest single combine the solve is refused with exit 3
    and the message of the first combine refused by a loop over the edges
    by height from the leaves up, edge ids within a height, even when
    combines at several heights are above the limit."""
    inst = gen_yule(256, 1, budget=64)
    norm, disc = _tables_for(inst, 0.3)
    largest = max(_sizes_of_combines(monkeypatch, norm, disc))
    monkeypatch.setattr(solver, "PAIR_LIMIT", largest - below)
    with pytest.raises(SizeLimitError) as want:
        refuse_by_height(norm, disc)
    path = tmp_path / "y256.nap.json"
    save_instance(inst, path)
    assert main(["solve", str(path), "--epsilon", "0.3"]) == 3
    assert capsys.readouterr().err == f"error: {want.value}\n"


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
    """The selection is affordable and its exact score is at least the
    reported bound."""
    gen = gen_caterpillar if topo == "caterpillar" else gen_yule
    inst = gen(n, seed, c_range=(1, c_hi), budget=budget)
    sol = solve(inst, epsilon=epsilon)
    assert sol.selection.total_cost <= inst.budget
    assert sol.selection.score >= sol.reported_score - 1e-9 * total_pd(inst)


@pytest.mark.parametrize("a,b,c", [(0.2, 0.9, 1), (0.2, 0.9, 5),
                                   (0.4, 0.4, 1)],
                         ids=["c-within-budget", "c-above-budget", "a-equals-b"])
@pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.6])
def test_one_leaf_under_a_unary_root(a, b, c, epsilon):
    """A single leaf under a root edge of positive length: the store holds
    the pendant's table alone, the root edge has none, and ``table_cells``
    counts the pendant's cells. The reported bound is at most the exact
    score of the selection, which is checked below against exhaustive
    search."""
    inst = make_instance(inner(2.0, leaf("x", 1.0)), [("x", a, b, c)],
                         budget=2)
    sol = solve(inst, epsilon)
    norm = normalize(inst)
    root = norm.tree.edges[norm.tree.root]
    assert len(root.children) == 1 and root.length == 2.0
    store, stats = build_tables(norm, sol.params)
    assert list(store) == list(root.children)
    pendant = store[root.children[0]]
    assert pendant.left is None and pendant.right is None
    assert sol.stats["table_cells"] == stats["table_cells"] == pendant.scores.size
    assert sol.reported_score <= sol.selection.score


def _one_leaf_optimum(inst, disc) -> float:
    """The best one-leaf root score, written out: over leaving the taxon
    and, when it is affordable, conserving it, the pendant score
    ``p * length(leaf)`` plus the root's term ``length(root) * pi(p)``."""
    norm = normalize(inst)
    pendant, root = norm.tree.edges
    (tx,) = inst.taxa.values()
    choices = [tx.a] + ([tx.b] if tx.c <= inst.budget else [])
    return max(p * pendant.length + root.length * disc.grid.item(disc.pi_index(p))
               for p in choices)


@pytest.mark.parametrize("a,b,c,epsilon", [
    *((a, b, c, epsilon) for a, b, c in [(0.2, 0.9, 0), (0.2, 0.9, 1),
                                         (0.2, 0.9, 5), (0.4, 0.4, 1)]
      for epsilon in (0.01, 0.1, 0.3, 0.6)),
    (0.1, 0.165, 1, 0.3),
])
def test_one_leaf_reports_its_best_pendant_cell(a, b, c, epsilon):
    """A one-leaf tree reports, to the last bit, the best of its pendant
    cells with the root's term added, and selects what exhaustive search
    does, under a root edge of length 0 or 2 and a leaf of length 1 or 0:
    with c free, within the budget and above it, with a = b, and with a
    conserved survival of 0.165 on the last grid row t at epsilon 0.3,
    between p_min and alpha**(t - 1)."""
    for root, length in ((0.0, 1.0), (2.0, 1.0), (2.0, 0.0)):
        top = leaf("x", length) if root == 0.0 else inner(root, leaf("x", length))
        inst = make_instance(top, [("x", a, b, c)], budget=2)
        sol = solve(inst, epsilon)
        assert repr(sol.reported_score) == repr(_one_leaf_optimum(inst, sol.params))
        if b == 0.165:
            assert sol.params.pi_index(b) == sol.params.t
        best = brute_force(inst)
        assert sol.selection.selected == best.selected
        assert repr(sol.selection.score) == repr(best.score)


@pytest.mark.parametrize("c", [0, 1, 5])
def test_one_leaf_pg_reports_its_best_pendant_cell(c):
    """``pg`` on a one-leaf a=0/b=1 tree: the exact grid's root optimum is
    the best pendant cell with the root's term added, and the selection
    is exhaustive search's."""
    for top in (leaf("x", 1.5), inner(2.0, leaf("x", 1.5)),
                inner(2.0, leaf("x", 0.0))):
        inst = make_instance(top, [("x", 0.0, 1.0, c)], budget=2)
        selection, reported, _ = solver.solve_on_grid(
            inst, normalize(inst), baselines._CERTAIN)
        assert repr(reported) == repr(_one_leaf_optimum(inst, baselines._CERTAIN))
        best = brute_force(inst)
        assert pardi_goldman(inst) == selection
        assert selection.selected == best.selected
        assert repr(selection.score) == repr(best.score)


def test_equal_survival_taxon_is_left_out():
    """z has a = b, so conserving it adds nothing. Both {y, z} and {y}
    fit the budget and score the same; the cheaper {y} is returned."""
    inst = make_instance(
        inner(0.0, leaf("y", 2.0), leaf("z", 1.0)),
        [("y", 0.2, 0.9, 1), ("z", 0.5, 0.5, 1)],
        budget=2,
    )
    sol = solve(inst, epsilon=0.3)
    assert sol.selection.selected == frozenset({"y"})
    assert sol.selection.total_cost == 1
    assert sol.selection.score == expected_pd(inst, {"y", "z"})


def test_root_tie_prefers_the_cheaper_cell():
    """q sits on a zero-length edge under a zero-length root, so saving it
    raises the root's survival row but adds no value. {p} and {p, q} are
    both frontier cells of the root, equal in value; the cheaper wins."""
    inst = make_instance(
        inner(0.0, leaf("p", 1.0), leaf("q", 0.0)),
        [("p", 0.0, 0.5, 1), ("q", 0.0, 1.0, 1)],
        budget=2,
    )
    sol = solve(inst, epsilon=0.3)
    assert sol.selection.selected == frozenset({"p"})
    assert sol.selection.score == expected_pd(inst, {"p", "q"}) == 0.5


_TIE = CladeTable(costs=np.array([0, 1]), rows=np.array([1, 1]),
                  scores=np.array([0.0, 0.5]))
# _LOW over _HIGH at budget 1 and length 0: their two pairs of cost 1 tie
# in score, and the later one survives better, rounding to row 1, not 2
_LOW = CladeTable(costs=np.array([0, 1]), rows=np.array([2, 1]),
                  scores=np.array([0.0, 0.5]))
_HIGH = CladeTable(costs=np.array([0, 1]), rows=np.array([1, 2]),
                   scores=np.array([0.0, 0.5]))


@st.composite
def _root_case(draw):
    """A root edge over one or two drawn child tables, a budget that
    affords the pair of their first cells, and the root's length. The
    tables have few distinct costs, rows and scores, so that the root's
    candidates tie in score across costs and rows and within one (cost,
    row)."""
    disc = draw(st.sampled_from(_DISCS))
    tables = draw(st.lists(_child_table(disc).filter(lambda t: t.costs.size),
                           min_size=1, max_size=2))
    budget = draw(st.sampled_from([0, 1, 3, 6, (1 << 63) - 1]))
    assume(sum(t.costs.item(0) for t in tables) <= budget)
    lam = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0))
    return disc, budget, lam, tables


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_root_case())
@example((_DISCS[0], 1, 0.0, [_TIE, _TIE]))
@example((_DISCS[0], 1, 2.0, [_TIE, _TIE]))
@example((_DISCS[0], 1, 1.0, [_TIE]))
@example((_DISCS[0], 1, 0.0, [_LOW, _HIGH]))
def test_root_rule_equals_the_first_best_cell_of_a_root_table(case):
    """The root's candidate of highest score, then smallest cost, then
    smallest row, then the first, is the first best cell of the root's
    table, which the reference combines as any other edge's: the same
    child cells go to the backtrace, so the selection is the same, and
    the reported score has the same bits. In the examples, the best pairs
    tie within one (cost, row), or at one cost across rows."""
    disc, budget, lam, tables = case
    n = len(tables)
    edges = tuple(Edge(i, 1.0, (), f"t{i}", 1) for i in range(n))
    tree = PhyloTree(edges=edges + (Edge(n, lam, tuple(range(n)), None, 2),),
                     root=n)
    norm = Instance(tree=tree, budget=budget,
                    taxa={e.taxon: Taxon(e.taxon, 0.2, 0.9, 1) for e in edges})

    def drawn_store():
        store = CellStore(n + 1)
        for eid, tab in enumerate(tables):
            store_table(store, eid, tab)
        return store

    chosen = []

    def spy_backtrace(_instance, _store, cells):
        chosen.append(cells)
        return frozenset()

    # drawn scores are no selection's, so the exact re-evaluation that
    # checks the reported bound gets a score that passes it
    unscored = mock.Mock(total_cost=0, score=np.inf)
    with (mock.patch.object(solver, "build_tables",
                            lambda *_: (drawn_store(), solver._stats())),
          mock.patch.object(solver, "backtrace", spy_backtrace),
          mock.patch.object(solver, "make_conservation_set",
                            lambda *_: unscored)):
        _, reported, _ = solver.solve_on_grid(norm, norm, disc)
    want_cells, want_score = root_by_table(norm, drawn_store(), disc)
    assert chosen == [want_cells]
    assert repr(reported) == repr(want_score)


def test_pair_limit_refuses_large_combines(monkeypatch, capsys):
    """A combine with more candidate pairs than ``PAIR_LIMIT`` is refused
    with SizeLimitError before its pairs are built; the CLI exits 3."""
    inst, _ = load_instance(data_path("hand.nap.json"))
    norm = normalize(inst)
    disc = solve(inst, epsilon=0.3).params
    tables, _ = build_tables(norm, disc)
    root = norm.tree.edges[norm.tree.root]
    l, r = (tables[c] for c in root.children)
    pairs = sum(int(i + beta <= norm.budget) for i in l.costs for beta in r.costs)
    monkeypatch.setattr(solver, "PAIR_LIMIT", pairs - 1)
    with pytest.raises(SizeLimitError, match=f"{pairs} candidate pairs"):
        combine_level(tables, [(root.eid, *root.children, root.length)],
                      norm.budget, disc)
    assert main(["solve", data_path("hand.nap.json"), "--epsilon", "0.3"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_work_counters_on_hand_instance():
    """``stats`` counts the affordable pairs, found here by checking the
    summed cost of every (left cell, right cell) pair, and the frontier
    cells stored."""
    inst, _ = load_instance(data_path("hand.nap.json"))
    sol = solve(inst, epsilon=0.3)
    norm = normalize(inst)
    tables, _ = build_tables(norm, sol.params)
    pairs = 0
    for e in norm.tree.edges:
        if len(e.children) == 2:
            l, r = (tables[c].costs for c in e.children)
            pairs += sum(int(i + beta <= norm.budget) for i in l for beta in r)
    assert sol.stats["fast_combines"] == 2
    assert sol.stats["candidate_pairs"] == pairs
    assert sol.stats["table_cells"] == sum(t.scores.size for t in tables.values())


def test_wide_budget_on_a_deep_grid_solves():
    """A caterpillar of 256 leaves at epsilon 0.1 has t = 68 326 grid rows;
    with costs 1-40 and B = 2000 a dense (budget, row) table would hold
    137 M cells, yet its frontiers pair under a million cells."""
    inst = gen_caterpillar(256, 1, c_range=(1, 40), budget=2000)
    sol = solve(inst, epsilon=0.1)
    assert sol.params.t == 68_326
    assert sol.stats["candidate_pairs"] < 10**6
    assert sol.selection.total_cost <= inst.budget
    assert sol.selection.score >= sol.reported_score - 1e-9 * total_pd(inst)


def test_budget_above_total_cost_changes_nothing():
    """normalize caps the budget at the total cost; every budget from the
    total up gives the same selection, bound and work."""
    inst = gen_yule(9, 4, c_range=(1, 6))
    total = sum(tx.c for tx in inst.taxa.values())
    runs = []
    for budget in (total, total + 1, 10**18):
        inst.budget = budget
        assert normalize(inst).budget == total
        sol = solve(inst, epsilon=0.3)
        runs.append((sol.selection.selected, sol.reported_score, sol.stats))
    assert runs[0][0] == frozenset(inst.taxa)
    assert runs[1:] == runs[:1] * 2


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


def test_solve_takes_k_from_the_positive_b_only():
    """A taxon with b = 0 cannot be helped, so k comes from the smallest
    positive b (0.3 here gives k = 2, where 0.9 gives 1)."""
    inst = make_instance(
        inner(0.0, leaf("x", 1.0), inner(1.0, leaf("y", 2.0), leaf("z", 1.0))),
        [("x", 0.0, 0.0, 1), ("y", 0.1, 0.3, 1), ("z", 0.0, 0.9, 1)],
        budget=1,
    )
    assert solve(inst, epsilon=0.3).params.k == derive_k(3, 0.3) == 2


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
