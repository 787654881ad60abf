"""Independent reference implementations used only by the tests.

Everything here recomputes results through a different route than the
package: scores by enumerating leaves under each edge, and in two
passes (death products, then terms) for their bits, the rounding map
as it stood before its fast paths, the tree builder as a frozen copy of
its general rule (the newick reader's own pass over canonical text is
held to it), the polytomy rule of normalization on nested test trees, table
combines by a literal scatter over every (row, row, split) triple of
dense tables, whose non-dominated cells a combine must reproduce, the
frontier filter by a pairwise dominance check, all tables by one combine
per edge in postorder into a store, the backtrace over such tables, the
root's choice as the first best cell of a root table, the refusal of a
table build by one combine at a time in height order, and exhaustive
search by scoring every subset one at a time. Slow and obviously correct
is the point.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache

import numpy as np

from napx.model import (ConservationSet, Edge, Instance, PhyloTree,
                        expected_pd, make_conservation_set)
from napx import solver
from napx.solver import CellStore, CladeTable


# ------------------------------------------------------------------------- #
#  Scoring
# ------------------------------------------------------------------------- #

def leaves_below(instance: Instance, eid: int) -> list[str]:
    """Taxon ids under an edge, found by walking down from it."""
    out: list[str] = []
    stack = [eid]
    while stack:
        e = instance.tree.edges[stack.pop()]
        if e.taxon is not None:
            out.append(e.taxon)
        stack.extend(e.children)
    return sorted(out)


def expected_pd_reference(instance: Instance, selected) -> float:
    """Expected diversity via per-edge leaf enumeration.

    For each edge, the survival probability is one minus the product of
    its leaves' death probabilities, recomputed from scratch; no value is
    shared between edges, unlike the package's bottom-up pass.
    """
    sel = frozenset(selected)
    total = 0.0
    for e in instance.tree.edges:
        dead = 1.0
        for tid in leaves_below(instance, e.eid):
            tx = instance.taxa[tid]
            p = tx.b if tid in sel else tx.a
            dead *= 1.0 - p
        total += e.length * (1.0 - dead)
    return total


def expected_pd_two_pass(instance: Instance, selected) -> float:
    """Expected diversity in two passes: every edge's death probability
    bottom-up, children multiplied in child order from 1.0, then the
    terms added left to right in edge order. The same operations in the
    same order as the package's one pass, so the same bits."""
    sel = frozenset(selected)
    edges = instance.tree.edges
    death = [0.0] * len(edges)
    for e in edges:
        if e.taxon is not None:
            tx = instance.taxa[e.taxon]
            death[e.eid] = 1.0 - (tx.b if e.taxon in sel else tx.a)
        else:
            d = 1.0
            for c in e.children:
                d *= death[c]
            death[e.eid] = d
    total = 0.0
    for e in edges:
        total += e.length * (1.0 - death[e.eid])
    return total


# ------------------------------------------------------------------------- #
#  Exhaustive optimum (tiny instances)
# ------------------------------------------------------------------------- #

def exhaustive_best(instance: Instance) -> tuple[frozenset, float]:
    """Optimum by scanning all subsets; ties pick the smallest id tuple."""
    ids = sorted(instance.taxa)
    best_sel: tuple = ()
    best = expected_pd_reference(instance, ())
    for mask in range(1, 1 << len(ids)):
        sel = tuple(ids[i] for i in range(len(ids)) if mask >> i & 1)
        if sum(instance.taxa[t].c for t in sel) > instance.budget:
            continue
        score = expected_pd_reference(instance, sel)
        if score > best + 1e-12 or (score > best - 1e-12 and sel < best_sel):
            if score > best:
                best = score
            best_sel = sel
    return frozenset(best_sel), best


def brute_force_gray(instance: Instance) -> ConservationSet:
    """Exhaustive search as one Gray-code loop, every subset scored alone.

    The literal form of the rule that :func:`napx.baselines.brute_force`
    must reproduce: the running cost changes by one taxon per step, each
    affordable subset is scored by ``expected_pd``, a score above
    best + 1e-12 takes over, and one within 1e-12 of the best wins if its
    sorted id tuple is smaller.
    """
    ids = sorted(instance.taxa)
    n = len(ids)
    costs = [instance.taxa[t].c for t in ids]
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
        if cost > instance.budget:
            continue
        score = expected_pd(instance, current)
        if score > best_score + 1e-12:
            best_score = score
            best_ids = tuple(sorted(current))
        elif score > best_score - 1e-12:
            cand = tuple(sorted(current))
            if cand < best_ids:
                best_ids = cand
            if score > best_score:
                best_score = score
    return make_conservation_set(instance, frozenset(best_ids))


# ------------------------------------------------------------------------- #
#  Rounding one probability
# ------------------------------------------------------------------------- #

def pi_index_reference(disc, p: float) -> int:
    """Row owning probability p, one float at a time with ``math``: the
    zero row below p_min (unless within a relative 1e-9 of it), else
    ceil(log(p) / log(alpha)), snapped to an integer within 1e-9 and
    clamped to [0, t]."""
    if p >= 1.0:
        return 0
    if p <= 0.0 or (p < disc.p_min
                    and not math.isclose(p, disc.p_min, rel_tol=1e-9)):
        return disc.t + 1
    x = math.log(p) / math.log(disc.alpha)
    if abs(x - round(x)) <= 1e-9:
        x = round(x)
    return min(max(math.ceil(x), 0), disc.t)


def pi_index_wrappers(disc, p):
    """The rounding map of :meth:`Discretization.pi_index` written with
    numpy's Python-level functions (``np.round``, ``np.where``) and a
    fresh array per step, as it stood before the in-place version: the
    same bits, type and shape are expected of both."""
    q = np.asarray(p, dtype=np.float64)
    x = np.log(np.maximum(q, 5e-324)) / math.log(disc.alpha)
    r = np.round(x)
    m = np.where(np.abs(x - r) <= 1e-9, r, np.ceil(x))
    below = disc.p_min - q > 1e-9 * disc.p_min
    idx = np.where(below, disc.t + 1,
                   np.minimum(np.maximum(m, 0), disc.t)).astype(np.int64)
    return int(idx) if idx.ndim == 0 else idx


# ------------------------------------------------------------------------- #
#  Tree building
# ------------------------------------------------------------------------- #

def from_records_reference(lengths, children, taxa) -> PhyloTree:
    """:meth:`PhyloTree.from_records` with one general line per step, for
    any number of children: ``min``, a stable keyed sort and ``max``. The
    builder and the newick reader's own pass over canonical text must
    both give its tree."""
    length, below, taxa = [*lengths], [*children], [*taxa]
    if taxa[-1] is not None:
        length, below, taxa = length + [0.0], below + [(len(taxa) - 1,)], taxa + [None]
    top = len(taxa) - 1
    low: list[str] = []
    ends: list[int] = []
    for i, (tx, ks) in enumerate(zip(taxa, below)):
        if tx is None and len(ks) == 1:
            ends.append(ends[ks[0]])
            low.append(low[ks[0]])
        else:
            ends.append(i)
            low.append(tx if tx is not None
                       else min(map(low.__getitem__, ks), default=""))

    def contract(c: int) -> int:
        total = length[c]
        while c != ends[c]:
            c = below[c][0]
            total = length[c] + total
        length[c] = total
        return c

    if len(below[top]) == 1 and taxa[ends[below[top][0]]] is None:
        end = contract(below[top][0])
        length[top] = length[top] + length[end]
        below[top] = below[end]
    order: list[tuple[int, list[int]]] = []
    todo = [top]
    while todo:
        i = todo.pop()
        ks = [c if c == ends[c] else contract(c) for c in below[i]]
        ks.sort(key=low.__getitem__)
        order.append((i, ks))
        todo += ks
    eids, heights = [0] * len(taxa), [0] * len(taxa)
    edges: list[Edge] = []
    for eid, (i, ks) in enumerate(reversed(order)):
        if ks:
            height = 1 + max(map(heights.__getitem__, ks))
            ids = tuple(map(eids.__getitem__, ks))
        else:
            height, ids = 1, ()
        eids[i], heights[i] = eid, height
        edges.append(Edge(eid, float(length[i]), ids, taxa[i], height))
    return PhyloTree(edges=tuple(edges), root=len(edges) - 1)


def binarize_reference(top: tuple) -> tuple:
    """The test tree (see ``tests/util.py``) that :func:`normalize` makes of
    ``top``: each node's children in order of their smallest leaf label, as
    in the canonical tree, then the first two paired under a new
    zero-length node, again and again, until two are left."""
    def walk(node: tuple) -> tuple[tuple, str]:
        length, children, label = node
        kids = sorted(map(walk, children), key=lambda kid: kid[1])
        low = label if label is not None else min((k[1] for k in kids), default="")
        kids = [kid for kid, _ in kids]
        while len(kids) > 2:
            kids[:2] = [(0.0, tuple(kids[:2]), None)]
        return (length, tuple(kids), label), low
    return walk(top)[0]


# ------------------------------------------------------------------------- #
#  Scatter reference for the table combine
# ------------------------------------------------------------------------- #

@lru_cache(maxsize=8)
def product_rows(disc) -> np.ndarray:
    """Matrix of output rows: entry [j, k] for left row j, right row k.

    Rounds ``g_j + (1 - g_j) g_k`` for every pair of grid values at once
    through ``disc.pi_index``.
    """
    g = disc.grid
    mat = disc.pi_index(g[:, None] + (1.0 - g[:, None]) * g[None, :])
    mat.setflags(write=False)
    return mat


def to_dense(tab: CladeTable, budget: int, disc) -> np.ndarray:
    """Dense (budget, row) view of a clade table: entry [b, p] is the best
    score of a cell with cost at most b and row p, -inf where none is."""
    out = np.full((budget + 1, disc.t + 2), -np.inf)
    for cost, row, score in zip(tab.costs.tolist(), tab.rows.tolist(),
                                tab.scores.tolist()):
        out[cost:, row] = np.maximum(out[cost:, row], score)
    return out


def frontier(scores: np.ndarray) -> list[tuple[int, int, float]]:
    """The non-dominated cells (b, p, v) of a dense table, in (b, p) order.

    A finite cell is kept when its value is strictly above every other
    value in the rectangle of budgets <= b and rows <= p, which is the
    running maximum one budget back or one row back.
    """
    best = np.maximum.accumulate(np.maximum.accumulate(scores, axis=0), axis=1)
    out = []
    for b, p in zip(*np.nonzero(np.isfinite(scores))):
        v = scores[b, p]
        if (b == 0 or v > best[b - 1, p]) and (p == 0 or v > best[b, p - 1]):
            out.append((int(b), int(p), float(v)))
    return out


def frontier_indices(costs, rows, scores, seg=None) -> list[int]:
    """Indices of the candidates the frontier filter must keep, found
    literally. Per (edge, cost, row) the first candidate of the highest
    score stands for its group; a group is dropped when another group of
    its edge costs no more, has no larger row and scores at least as much,
    checked pair by pair. The rest come in (edge, cost, row) order. Without
    ``seg`` every candidate belongs to one edge."""
    costs, rows, scores = costs.tolist(), rows.tolist(), scores.tolist()
    edges = [0] * len(costs) if seg is None else seg.tolist()
    best: dict[tuple, int] = {}
    for i, key in enumerate(zip(edges, costs, rows)):
        if key not in best or scores[i] > scores[best[key]]:
            best[key] = i
    keep = []
    for (e, c, r), i in sorted(best.items()):
        if not any(f == e and (d, q) != (c, r) and d <= c and q <= r
                   and scores[j] >= scores[i]
                   for (f, d, q), j in best.items()):
            keep.append(i)
    return keep


def cells(tab: CladeTable) -> list[tuple[int, int, float]]:
    """A clade table's (cost, row, score) cells, in stored order."""
    return list(zip(tab.costs.tolist(), tab.rows.tolist(), tab.scores.tolist()))


def from_dense(scores: np.ndarray) -> CladeTable:
    """Clade table with one cell of exact cost b per finite entry [b, p] of
    a dense score array, in (b, p) order."""
    b, p = np.nonzero(np.isfinite(scores))
    return CladeTable(costs=b, rows=p, scores=scores[b, p])


def build_tables_postorder(instance: Instance,
                           disc) -> tuple[CellStore, dict]:
    """Every table below the root of a normalized instance, built one edge
    at a time in postorder into a store, each by
    :func:`napx.solver.combine_level` on a list of that one combine, and
    the stats of :func:`napx.solver.build_tables`. A refused combine
    raises the first refusal in postorder."""
    budget = int(instance.budget)
    store = solver.build_pendant_tables(instance, disc)
    stats = {"fast_combines": 0, "general_combines": 0,
             "candidate_pairs": 0, "table_cells": 0}
    for e in instance.tree.edges:
        if len(e.children) == 2 and e.eid != instance.tree.root:
            stats["candidate_pairs"] += solver.combine_level(
                store, [(e.eid, *e.children, e.length)], budget, disc)
            stats["fast_combines"] += 1
    stats["table_cells"] = sum(int(t.scores.size) for t in store.values())
    return store, stats


def backtrace_tables(instance: Instance, tables: Mapping[int, CladeTable],
                     eid: int, cell: int) -> frozenset[str]:
    """The selection behind cell ``cell`` of edge ``eid``'s table, of
    tables keyed by edge id, such as :func:`build_tables_postorder` gives:
    follow each table's ``left`` and ``right`` down to the pendant tables,
    where a cell that spends its taxon's cost conserves it."""
    tree = instance.tree
    selected: list[str] = []
    stack: list[tuple[int, int]] = [(eid, int(cell))]
    while stack:
        eid, n = stack.pop()
        edge, tab = tree.edges[eid], tables[eid]
        if edge.taxon is not None:
            if tab.costs.item(n) == instance.taxa[edge.taxon].c:
                selected.append(edge.taxon)
            continue
        for child, index in zip(edge.children, (tab.left, tab.right)):
            stack.append((child, index.item(n)))
    return frozenset(selected)


def refuse_by_height(instance: Instance, disc) -> None:
    """Raise the refusal :func:`napx.solver.build_tables` must raise, if
    any: at the lowest height that holds a refused combine, the first
    binary combine in edge-id order whose affordable pairs, counted over
    every (left cell, right cell) pair, are above ``PAIR_LIMIT``, or
    failing that the first one that :func:`napx.solver.combine_level`
    refuses on a list of it alone. Heights are visited from the leaves up,
    edges by id within a height, each combine built alone. The root gets
    no table, so it is refused for its pairs only."""
    budget = int(instance.budget)
    store = solver.build_pendant_tables(instance, disc)
    edges = [e for e in instance.tree.edges if len(e.children) == 2]  # id order
    for height in sorted({e.height for e in edges}):
        level = [e for e in edges if e.height == height]
        for e in level:
            left, right = (store[c].costs for c in e.children)
            solver._check_size("candidate pairs", int(
                (left[:, None] + right[None, :] <= budget).sum()))
        for e in level:
            if e.eid != instance.tree.root:
                solver.combine_level(store, [(e.eid, *e.children, e.length)],
                                     budget, disc)


def store_table(store: CellStore, eid: int, tab: CladeTable) -> None:
    """Write a table's cells, without backpointers, into ``store`` as edge
    ``eid``'s: one block, put as a build puts one."""
    store.put(eid, tab.scores.size, tab.costs, tab.rows, tab.scores)


def combine_alone(left: CladeTable, right: CladeTable, lam: float,
                  budget: int, disc) -> CladeTable:
    """:func:`napx.solver.combine_level` of two drawn tables alone: they go
    into a three-edge store as edges 0 and 1, and edge 2's table comes
    back."""
    store = CellStore(3)
    store_table(store, 0, left)
    store_table(store, 1, right)
    solver.combine_level(store, [(2, 0, 1, lam)], budget, disc)
    return store[2]


def root_by_table(instance: Instance, store: CellStore,
                  disc) -> tuple[list[tuple[int, int]], float]:
    """The root's choice as a root table makes it: a binary root's table is
    combined into ``store`` as any other edge's, and its first best cell
    in (cost, row) order wins; a one-leaf tree's first best pendant cell,
    with the root's term added, does. Returns the (child edge, child cell)
    pairs to backtrace from and the chosen score."""
    root = instance.tree.edges[instance.tree.root]
    if len(root.children) == 1:
        (child,) = root.children
        tab = store[child]
        scores = tab.scores + root.length * disc.grid[tab.rows]
        m = int(np.argmax(scores))
        return [(child, m)], scores.item(m)
    solver.combine_level(store, [(root.eid, *root.children, root.length)],
                         int(instance.budget), disc)
    tab = store[root.eid]
    m = int(np.argmax(tab.scores))
    left, right = root.children
    return ([(left, tab.left.item(m)), (right, tab.right.item(m))],
            tab.scores.item(m))


def assert_same_table(got: CladeTable, want: CladeTable) -> None:
    """Equal tables: every array of the same dtype, shape and bytes, and
    missing backpointers missing in both."""
    for name in ("costs", "rows", "scores", "left", "right"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None, name
        else:
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape,
                                                       w.tobytes()), name


def combine_reference(lsc: np.ndarray, rsc: np.ndarray, lam: float,
                      budget: int, disc) -> np.ndarray:
    """Combine two dense child tables by scattering every candidate.

    For each left row j, left spend i, right row k and right spend beta,
    the candidate ``lsc[i, j] + rsc[beta, k]`` lands at budget i + beta
    in the output row that the grid's rounding map assigns to (j, k).
    Values take an unordered scatter max (max is order-free on floats).
    Returns the dense output scores.
    """
    rows = disc.t + 2
    nb = budget + 1
    out = np.full((nb, rows), -np.inf)
    mat = product_rows(disc)

    for j in range(rows):
        pv = mat[j]
        fin_i = np.nonzero(np.isfinite(lsc[:, j]))[0]
        for i in fin_i:
            base = float(lsc[i, j])
            for beta in range(nb - i):
                np.maximum.at(out[i + beta], pv, base + rsc[beta])

    out += lam * disc.grid[None, :]
    return out


def assert_frontier_of_scatter(tab: CladeTable, left: CladeTable,
                               right: CladeTable, lam: float, budget: int,
                               disc) -> int:
    """Assert that a combine's cells are exactly (==) the non-dominated
    cells of the scatter reference over its children's dense views, and
    that each cell's (left, right) child cells rebuild its cost, row and
    score bit for bit. Returns the number of cells."""
    want = frontier(combine_reference(to_dense(left, budget, disc),
                                      to_dense(right, budget, disc),
                                      lam, budget, disc))
    assert cells(tab) == want
    li, ri = tab.left, tab.right
    assert np.array_equal(left.costs[li] + right.costs[ri], tab.costs)
    vj = disc.grid[left.rows[li]]
    rows = disc.pi_index(vj + (1.0 - vj) * disc.grid[right.rows[ri]])
    assert np.array_equal(rows, tab.rows)
    assert np.array_equal((left.scores[li] + right.scores[ri])
                          + lam * disc.grid[rows], tab.scores)
    return len(want)


# ------------------------------------------------------------------------- #
#  Per-clade greedy (a deliberately flawed strategy)
# ------------------------------------------------------------------------- #

def per_clade_greedy(instance: Instance) -> frozenset:
    """Bottom-up selection keeping one best set per (clade, budget).

    Each clade remembers, for every budget, only the selection maximizing
    the expected diversity of the edges inside that clade. Without
    tracking the clade's survival probability this can lock in locally
    attractive picks that starve shallower edges, so it is not optimal;
    the tests use it as the regression foil.
    """
    tree = instance.tree
    nb = instance.budget + 1

    def clade_edges(eid: int) -> list[int]:
        got, stack = [], [eid]
        while stack:
            e = tree.edges[stack.pop()]
            got.append(e.eid)
            stack.extend(e.children)
        return got

    def local_score(eid: int, sel: frozenset) -> float:
        total = 0.0
        for sub in clade_edges(eid):
            e = tree.edges[sub]
            dead = 1.0
            for tid in leaves_below(instance, sub):
                tx = instance.taxa[tid]
                p = tx.b if tid in sel else tx.a
                dead *= 1.0 - p
            total += e.length * (1.0 - dead)
        return total

    best: dict[int, list[frozenset]] = {}
    for e in tree.edges:
        table: list[frozenset] = []
        if e.taxon is not None:
            tx = instance.taxa[e.taxon]
            for b in range(nb):
                if tx.c <= b and local_score(e.eid, frozenset({tx.id})) \
                        > local_score(e.eid, frozenset()):
                    table.append(frozenset({tx.id}))
                else:
                    table.append(frozenset())
        elif len(e.children) == 1:
            table = best[e.children[0]]
        else:
            l, r = e.children
            for b in range(nb):
                cand_best = None
                val_best = -np.inf
                for i in range(b + 1):
                    sel = best[l][i] | best[r][b - i]
                    v = local_score(e.eid, sel)
                    if v > val_best:
                        val_best = v
                        cand_best = sel
                table.append(cand_best)
        best[e.eid] = table
    return best[tree.root][instance.budget]
