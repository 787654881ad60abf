"""The budgeted-diversity dynamic program over discretized probabilities.

Every edge e below the root of the (normalized, binary) tree gets a
clade table, a list of cells ``(cost, row, score)``: a selection
within e's clade that spends exactly ``cost``, leaves the clade a survival
probability that rounds to grid row ``row``, and collects expected
diversity ``score`` strictly below the top of e. A table keeps only its
Pareto frontier: a cell is dropped when another costs no more, survives
at least as well (no larger row) and scores at least as much. Rounding,
addition and the budget test are all monotone, so a dominated cell only
ever leads to dominated cells higher up, and the best root candidate
built from the frontiers is the same float as over every selection (the
Pareto-list knapsack of Nemhauser and Ullmann).

All tables of one build live in a single :class:`CellStore`: five
parallel arrays of cells (cost, row, score, left, right) in which each
edge's table is one block, found by its start and size, and of which a
:class:`CladeTable` is a view; :meth:`CellStore.put` is their one
writer. The arrays grow geometrically, so the tables of a build take a
handful of arrays rather than five per edge.

A pendant edge has at most two cells, one per choice at its leaf:

    (0, pi(a), a * length(e))   and   (c, pi(b), b * length(e)).

Normalizing makes every taxon affordable with a <= b, so which of the two
are non-dominated has a closed form; :func:`build_pendant_tables` builds
every pendant table at once, rounding all leaves in one array call, and
puts them into a new store as one block.

An interior edge e with children l and r pairs every left cell with every
right cell it can afford (total cost at most B) and collects its own
survival term:

    (c_l + c_r,  p = pi(v_j + v_k - v_j v_k),  (s_l + s_r) + v_p * length(e)).

:func:`_pairs` rounds the survival of every affordable pair through
:meth:`napx.discretization.Discretization.pi_index`, all pairs in one
call, and the frontier filter :func:`_frontier` keeps the non-dominated
cells. Each interior cell stores the index of the left and
the right child cell it was built from, which :func:`backtrace` follows
down to the leaves, whose taxa it reads from the tree.

Every child sits at a lower height than its parent, so
:func:`build_tables` builds the tables one height at a time. The combines
at one height go through :func:`combine_level` in batches of up to
``BATCH_PAIRS`` pairs, one pass each: their pairs are laid out edge after
edge as store indices of their left and right cells, which the pass reads
straight from the store's arrays, rounded in one ``pi_index`` call and
filtered by one :func:`_frontier`, whose one sort takes the edge as its
first key and whose dominance matrices, one per edge, are stacked. The
kept cells of the whole batch go into the store as one block, with
their child indices made local to each child's table. A numpy call costs
a microsecond or more however small its array, and most combines hold
about a hundred pairs, so nearly all of a combine's time is this fixed
cost: on a 2-core machine a combine of 108 pairs took 67 us at best on
its own and one of 8 pairs 56 us. Batching pays the fixed cost once per
batch rather than once per edge, and the store takes the per-edge Python
out of the batch as well: no table object per edge, no concatenation of
the children's arrays and no slicing of the output into tables. A batch
of a single combine, as at every height of a caterpillar, takes a route
faster for one edge that reads its children as slices of the store's
arrays. Both give the same tables, bit for bit, and a refusal names a
combine at the lowest height that holds one.

The root gets no table: :func:`solve_on_grid` scores its candidates, a
binary root's affordable pairs or a one-leaf tree's pendant cells with
the root's term added, and backtraces from the best. Ties resolve
deterministically. Among candidates for one (cost, row) the highest value
wins, then the first pair in (left index, right index) order; a free taxon
keeps only its conserved cell, so it is conserved. The root takes the
candidate of highest value, then smallest cost, then smallest row, then
the first, so the cheaper of two equally good selections wins; a frontier
of the root's candidates would keep that one and rank it first. The values
are lower bounds on true expected diversity (rounding only ever shrinks
probabilities), which is what makes the final re-evaluation check in
:func:`solve` a real invariant rather than a tolerance guess.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .discretization import (Discretization, check_epsilon, derive_k,
                             select_params)
from .errors import InternalError, SizeLimitError
from .model import (ConservationSet, Instance, make_conservation_set,
                    normalize, total_pd)

__all__ = [
    "CladeTable",
    "CellStore",
    "NapxSolution",
    "build_pendant_tables",
    "combine_level",
    "build_tables",
    "backtrace",
    "check_epsilon",
    "solve",
    "solve_on_grid",
]

# Largest number of candidate pairs one combine, or one batch of the
# combines at a tree height, may build, and of cells in one combine's
# dominance matrix or in the stacked matrices of one batch (a batch above it
# is filtered edge by edge). A pair holds its two child indices,
# cost, row and score, five 8-byte arrays (a batch adds the pair's edge
# number and an (edge, row) sort key), and the rounding temporaries and the
# filter's sort keys and orders add a handful more: a 0.9 M-pair combine
# (Yule n=256, costs 1-40, B=1684, epsilon 0.3) peaked at 74 bytes a pair
# under tracemalloc, so one at the limit needs about 310 MB.
PAIR_LIMIT = 1 << 22

# Most candidate pairs one batch of combines may hold. Batching saves
# numpy's fixed cost of about 80 calls a combine, some 0.06 ms, which a
# combine of thousands of pairs hardly notices, while one sort over a large
# batch costs more than a sort per combine: on Yule n=2048 at epsilon 0.1
# the heights of 40 000 pairs and more ran slower as one pass than edge by
# edge.
BATCH_PAIRS = 1 << 14

# Cells per edge a store first makes room for. Yule trees of 64 to 1024
# leaves at epsilon 0.1 store 9 to 17 cells an edge, a 64-leaf caterpillar
# 32 and a 2048-leaf one 856; a store that runs out doubles.
RESERVE_PER_EDGE = 8


@dataclass
class CladeTable:
    """Dynamic-program table for one edge: its non-dominated cells.

    Cell n spends ``costs[n]`` within the clade, leaves it at survival grid
    row ``rows[n]`` and scores ``scores[n]``. Cells are in ascending (cost,
    row) order, and no cell has another one of no greater cost and row and
    no smaller score. ``left[n]`` and ``right[n]`` index the child cells an
    interior cell was built from, within each child's table; a pendant
    table has neither. The edge, its kind and its taxon are the tree's.

    A table is the view that ``store[e]`` gives of the block edge e holds
    in its build's :class:`CellStore`.
    """

    costs: np.ndarray
    rows: np.ndarray
    scores: np.ndarray
    left: np.ndarray | None = None
    right: np.ndarray | None = None


class CellStore(Mapping):
    """Every clade table of one build, in five parallel cell arrays.

    ``costs``, ``rows``, ``scores``, ``left`` and ``right`` hold the cells
    of all tables, each table one block: edge e's cells are ``start[e]``
    to ``start[e] + size[e]``, and ``paired[e]`` tells whether its table
    has both ``left`` and ``right`` or, a pendant's, neither. ``start[e]``
    is -1 until e's table is stored. The first ``cells`` entries of the
    arrays are written; the arrays start with room for
    ``RESERVE_PER_EDGE`` cells an edge and, when a block does not fit,
    grow to the larger of twice their length and what the block needs, so
    that growing copies each cell O(1) times on average. Blocks are only
    appended, by :meth:`put`, the one writer of the arrays and of the
    per-edge records, so a block keeps its offsets when the arrays grow,
    and a table read before a growth still holds its cells.

    As a mapping, ``store[e]`` is edge e's :class:`CladeTable` of views
    into the arrays, keyed by edge id.
    """

    def __init__(self, n_edges: int):
        capacity = RESERVE_PER_EDGE * n_edges
        self.costs = np.empty(capacity, dtype=np.int64)
        self.rows = np.empty(capacity, dtype=np.int64)
        self.scores = np.empty(capacity, dtype=np.float64)
        self.left = np.empty(capacity, dtype=np.intp)
        self.right = np.empty(capacity, dtype=np.intp)
        self.start = np.full(n_edges, -1, dtype=np.intp)
        self.size = np.zeros(n_edges, dtype=np.intp)
        self.paired = np.zeros(n_edges, dtype=bool)
        self.cells = 0

    def put(self, eid: int | np.ndarray, size: int | np.ndarray,
            costs: np.ndarray, rows: np.ndarray, scores: np.ndarray,
            left: np.ndarray | None = None,
            right: np.ndarray | None = None) -> None:
        """Append one block of cells: edge ``eid``'s table of ``size``
        cells, or, for an array of edge ids and one of their sizes, those
        edges' tables one after another, with both backpointer arrays or
        neither. A block that does not fit replaces the arrays by larger
        ones before its cells are copied in, and whatever the caller still
        holds then adds to the peak."""
        at = self.cells
        self.cells = end = at + costs.size
        if end > self.scores.size:
            capacity = max(end, 2 * self.scores.size)
            for name in ("costs", "rows", "scores", "left", "right"):
                old = getattr(self, name)
                new = np.empty(capacity, dtype=old.dtype)
                new[:at] = old[:at]
                setattr(self, name, new)
        self.costs[at:end] = costs
        self.rows[at:end] = rows
        self.scores[at:end] = scores
        paired = left is not None
        if paired:
            self.left[at:end] = left
            self.right[at:end] = right
        first = at if isinstance(size, int) else size.cumsum() - size + at
        self.start[eid], self.size[eid], self.paired[eid] = first, size, paired

    def __getitem__(self, eid: int) -> CladeTable:
        if not 0 <= eid < self.start.size or (at := self.start.item(eid)) < 0:
            raise KeyError(eid)
        end = at + self.size.item(eid)
        paired = self.paired.item(eid)
        return CladeTable(self.costs[at:end], self.rows[at:end],
                          self.scores[at:end],
                          self.left[at:end] if paired else None,
                          self.right[at:end] if paired else None)

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.start >= 0).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.start >= 0))


def _check_size(what: str, n: int) -> None:
    if n > PAIR_LIMIT:
        raise SizeLimitError(
            f"a table combine would hold {n} {what}, above the limit of "
            f"{PAIR_LIMIT}; lower the budget or raise epsilon")


def _frontier(costs: np.ndarray, rows: np.ndarray, scores: np.ndarray,
              seg: np.ndarray | None = None) -> np.ndarray:
    """Indices of the non-dominated candidates, in (edge, cost, row) order.

    ``seg``, when given, numbers the edge of each candidate from 0 and
    ascends; without it every candidate belongs to edge 0. Each edge is
    filtered on its own, as if it came alone. Per (edge, cost, row) the
    highest score survives, the first candidate on ties: one stable sort
    on (edge, cost, row, -score) puts it first in its group. A survivor
    stays when its score is strictly above the best score of its edge at
    any smaller cost and no larger row, and at its own cost and any
    smaller row: the running maxima of the edge's (distinct cost x
    distinct row) matrix, one cost and one row back. The matrices of all
    edges are stacked into one, a single edge being a stack of one. A
    single edge's matrix above ``PAIR_LIMIT`` cells is refused; when a
    stack of several would be, each edge's slice is filtered alone.
    """
    n = costs.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    keys = (-scores, rows, costs)
    order = np.lexsort(keys if seg is None else keys + (seg,))
    cost, row = costs.take(order), rows.take(order)
    new_cost = np.empty(n, dtype=bool)
    new_cost[0] = True
    np.not_equal(cost[1:], cost[:-1], out=new_cost[1:])
    if seg is not None:
        edge = seg.take(order)
        new_cost[1:] |= edge[1:] != edge[:-1]
    new = new_cost.copy()
    new[1:] |= row[1:] != row[:-1]
    first = order[new]
    best = scores.take(first)
    # cost indices and row ranks start at 1 within each edge: index 0 is a
    # border of -inf that stands for "no smaller cost" and "no smaller row"
    ci, row = new_cost[new].cumsum(), row[new]
    if seg is None:
        n_edges, at = 1, ci
        distinct, ri = _sorted_ranks(row)
        n_costs, n_rows = ci.item(-1), distinct.size
        _check_size("dominance-matrix cells", n_costs * n_rows)
    else:
        edge = edge[new]
        n_edges, span = edge.item(-1) + 1, row.max().item() + 1
        distinct, ri = _sorted_ranks(edge * span + row)
        row_start = distinct.searchsorted(np.arange(n_edges + 1) * span)
        ri -= row_start.take(edge)
        ci -= ci.take(edge.searchsorted(edge)) - 1
        n_costs = ci.max().item()
        n_rows = (row_start[1:] - row_start[:-1]).max().item()
        if n_edges * n_costs * n_rows > PAIR_LIMIT:
            bounds = seg.searchsorted(np.arange(n_edges + 1)).tolist()
            return np.concatenate([lo + _frontier(costs[lo:hi], rows[lo:hi],
                                                  scores[lo:hi])
                                   for lo, hi in zip(bounds[:-1], bounds[1:])])
        # a group's row in the stack: its edge's matrix, then its cost
        at = edge * (n_costs + 1) + ci
    # the stack addressed by one flat cell index, so that the scatter and
    # the two reads each take one index array
    width = n_rows + 1
    flat = np.empty(n_edges * (n_costs + 1) * width)
    flat.fill(-np.inf)
    cell = at * width
    cell += ri
    flat[cell] = best
    prefix = flat.reshape(n_edges, n_costs + 1, width)
    np.maximum.accumulate(prefix, axis=1, out=prefix)
    np.maximum.accumulate(prefix, axis=2, out=prefix)
    return first[(best > flat.take(cell - width)) & (best > flat.take(cell - 1))]


def _sorted_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of x, ascending, and the 1-based rank of each
    value of x among them."""
    srt = x.copy()
    srt.sort()
    new = np.empty(srt.size, dtype=bool)
    new[0] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    distinct = srt[new]
    return distinct, distinct.searchsorted(x, side="right")


def build_pendant_tables(instance: Instance, disc: Discretization) -> CellStore:
    """A new store for the instance's edges, holding every pendant table.

    The instance must be normalized: every taxon then has c <= B and
    a <= b, so its two candidates, conserving (c, pi(b), b * lam) and
    leaving (0, pi(a), a * lam), need no frontier filter. A free taxon
    (c = 0) keeps only its conserved cell; a conservation that changes
    neither the row nor the score keeps only the cell that leaves the
    taxon; otherwise both cells stay, leaving first. All pendants are
    rounded in one ``pi_index`` call, and their cells go into the store
    as one block, in edge-id order.
    """
    taxa = instance.taxa
    eids, ab, lam, c = [], [], [], []
    for e in instance.tree.edges:
        if e.taxon is not None:
            tx = taxa[e.taxon]
            eids.append(e.eid)
            ab += (tx.a, tx.b)
            lam.append(e.length)
            c.append(tx.c)
    # cell 2i leaves pendant i's taxon and cell 2i + 1 conserves it
    ab = np.array(ab, dtype=np.float64)
    c = np.array(c, dtype=np.int64)
    lam = np.array(lam, dtype=np.float64)
    if (c > instance.budget).any() or (ab[0::2] > ab[1::2]).any():
        raise InternalError("pendant tables need a normalized instance "
                            "(every c within the budget, a <= b)")
    rows = disc.pi_index(ab)
    scores = (ab.reshape(-1, 2) * lam[:, None]).reshape(-1)
    costs = np.zeros(ab.size, dtype=np.int64)
    costs[1::2] = c
    keep = np.empty(ab.size, dtype=bool)
    np.greater(c, 0, out=keep[0::2])
    conserve = np.not_equal(rows[0::2], rows[1::2], out=keep[1::2])
    conserve |= scores[0::2] != scores[1::2]
    conserve |= c == 0
    size = np.add(keep[0::2], conserve, dtype=np.intp)
    store = CellStore(len(instance.tree.edges))
    store.put(eids, size, costs.compress(keep), rows.compress(keep),
              scores.compress(keep))
    return store


def _pairs(store: CellStore, left: int, right: int, lam: float, budget: int,
           disc: Discretization) -> tuple[np.ndarray, ...]:
    """The left cell, right cell, cost, row and score of every affordable
    pair of edge ``left``'s and edge ``right``'s cells in ``store``, under
    edge length ``lam``, in (left, right) index order, that of the tie
    rule. Right cells ascend in cost, so a left cell affords a prefix of
    them; its pairs follow it. Their count is checked against
    ``PAIR_LIMIT`` before any pair array exists, and every pair's survival
    is rounded on its own, all in one ``pi_index`` call."""
    l0, r0 = store.start.item(left), store.start.item(right)
    ls = slice(l0, l0 + store.size.item(left))
    rs = slice(r0, r0 + store.size.item(right))
    m = store.costs[rs].searchsorted(budget - store.costs[ls], side="right")
    pairs = m.sum().item()
    _check_size("candidate pairs", pairs)
    li = np.arange(m.size).repeat(m)
    start = m.cumsum()
    start -= m
    ri = np.arange(pairs)
    ri -= start.repeat(m)
    return (li, ri, *_candidates(
        li, (store.costs[ls], store.rows[ls], store.scores[ls]),
        ri, (store.costs[rs], store.rows[rs], store.scores[rs]), lam, disc))


def _candidates(li: np.ndarray, left: tuple, ri: np.ndarray, right: tuple,
                lam, disc: Discretization) -> tuple[np.ndarray, ...]:
    """Cost, row and score of each pair of cells ``li[p]`` of ``left`` and
    ``ri[p]`` of ``right``, each a (costs, rows, scores) triple, under
    edge length ``lam`` (one per pair in a batch): one copy of the
    arithmetic, so that both combine routes agree bit for bit."""
    (l_costs, l_rows, l_scores), (r_costs, r_rows, r_scores) = left, right
    grid = disc.grid
    # v_j + (1 - v_j) v_k and (s_j + s_k) + lam v_p, each operation in
    # place and in that order: IEEE addition and multiplication commute
    vj = grid.take(l_rows.take(li))
    v = 1.0 - vj
    v *= grid.take(r_rows.take(ri))
    v += vj
    rows = disc.pi_index(v)
    costs = l_costs.take(li)
    costs += r_costs.take(ri)
    scores = l_scores.take(li)
    scores += r_scores.take(ri)
    v = grid.take(rows)
    v *= lam
    scores += v
    return costs, rows, scores


def combine_level(store: CellStore, combines: list[tuple[int, int, int, float]],
                  budget: int, disc: Discretization) -> int:
    """Run independent combines, several at a time, as vectorized passes.

    ``combines`` lists (edge id, left child id, right child id, edge
    length) tuples whose children's tables are in ``store``; each edge's
    table, the frontier of its children's :func:`_pairs`, goes into the
    store, field for field as if it were combined alone. A list of one
    gathers its kept cells and drops its pair arrays before
    :meth:`CellStore.put`, so that they are gone when the store grows
    (gathering in the call raised Yule n=2048's peak at epsilon 0.1 from
    188 to 195 MB). A longer list checks every combine's pair count
    against ``PAIR_LIMIT`` first, in list order, and cuts the combines, in
    order, into batches of at most ``BATCH_PAIRS`` pairs, never more than
    ``PAIR_LIMIT``; a batch of one runs as a list of one, a longer one
    :func:`_combine_batch`, which checks the dominance matrices in list
    order too.

    Returns the number of affordable pairs over all the combines.
    """
    if len(combines) == 1:
        eid, l, r, lam = combines[0]
        li, ri, costs, rows, scores = _pairs(store, l, r, lam, budget, disc)
        pairs = li.size
        keep = _frontier(costs, rows, scores)
        costs, rows, scores = costs.take(keep), rows.take(keep), scores.take(keep)
        li, ri = li.take(keep), ri.take(keep)
        store.put(eid, keep.size, costs, rows, scores, li, ri)
        return pairs
    _, lefts, rights, _ = zip(*combines)
    lefts, rights = np.array(lefts), np.array(rights)
    costs, start, size = store.costs, store.start, store.size
    n_left = size.take(lefts)
    hi = n_left.cumsum()
    lo = hi - n_left
    # the store index of every left cell, combine after combine
    left_cells = np.arange(hi[-1])
    left_cells += (start.take(lefts) - lo).repeat(n_left)
    limits = budget - costs.take(left_cells)
    r_lo = start.take(rights)
    r_hi = r_lo + size.take(rights)
    # prefix[j]: how many right cells left cell j affords
    prefix = np.concatenate([
        costs[r0:r1].searchsorted(limits[l0:l1], side="right")
        for l0, l1, r0, r1 in zip(lo.tolist(), hi.tolist(), r_lo.tolist(),
                                  r_hi.tolist())])
    summed = np.zeros(prefix.size + 1, dtype=np.intp)
    prefix.cumsum(out=summed[1:])
    counts = (summed.take(hi) - summed.take(lo)).tolist()
    lo = lo.tolist()
    for pairs in counts:
        _check_size("candidate pairs", pairs)
    most = min(BATCH_PAIRS, PAIR_LIMIT)
    a = 0
    while a < len(combines):
        b, total = a + 1, counts[a]
        while b < len(combines) and total + counts[b] <= most:
            total += counts[b]
            b += 1
        if b - a == 1:
            combine_level(store, combines[a:b], budget, disc)
        else:
            cut = slice(lo[a], lo[b] if b < len(combines) else None)
            _combine_batch(store, combines[a:b], left_cells[cut],
                           prefix[cut], counts[a:b], disc)
        a = b
    return sum(counts)


def _combine_batch(store: CellStore,
                   combines: list[tuple[int, int, int, float]],
                   left_cells: np.ndarray, prefix: np.ndarray,
                   counts: list[int], disc: Discretization) -> None:
    """The pass of :func:`combine_level` over one batch. ``left_cells``
    holds the store index of every left cell of the batch, combine after
    combine, ``prefix[j]`` how many right cells left cell
    ``left_cells[j]`` affords, and ``counts[i]`` the pairs of combine i.

    The pairs are laid out edge by edge, each edge's in the (left, right)
    order of :func:`_pairs`, and read their cells from the store by
    index; one segmented :func:`_frontier` filters them all, and the kept
    cells go into the store as one block, with child indices made local to
    each child's table.
    """
    eids, lefts, rights, lams = (np.array(x) for x in zip(*combines))
    l_start, r_start = store.start.take(lefts), store.start.take(rights)
    # pair p of left cell j takes right cell p - (first pair of j) of its
    # combine's right table, as a store index
    li = left_cells.repeat(prefix)
    start = prefix.cumsum()
    start -= prefix
    start -= r_start.repeat(store.size.take(lefts))
    ri = np.arange(li.size)
    ri -= start.repeat(prefix)
    seg = np.arange(eids.size).repeat(counts)
    table = (store.costs, store.rows, store.scores)
    costs, rows, scores = _candidates(li, table, ri, table, lams.take(seg),
                                      disc)
    keep = _frontier(costs, rows, scores, seg)
    edge = seg.take(keep)
    left = li.take(keep)
    left -= l_start.take(edge)
    right = ri.take(keep)
    right -= r_start.take(edge)
    store.put(eids, np.bincount(edge, minlength=eids.size), costs.take(keep),
              rows.take(keep), scores.take(keep), left, right)


def build_tables(instance: Instance,
                 disc: Discretization) -> tuple[CellStore, dict]:
    """Build every table below the root, a tree height at a time, in a store.

    Each child sits at a lower height than its parent, so the combines at
    one height are independent, and :func:`combine_level` runs them, in
    edge-id order, in batches that pay numpy's fixed cost per call once
    per batch rather than once per edge. A refused build raises the first
    refusal at the lowest height that holds a combine above
    ``PAIR_LIMIT``: the first combine in edge-id order whose candidate
    pairs are above it, or failing that the first whose dominance matrix
    is.

    The instance must be normalized (binary tree, costs within budget),
    and so validated: its total length keeps every sum here finite; a tree
    that :meth:`PhyloTree.is_binary` refuses raises :class:`InternalError`.
    Returns the :class:`CellStore` of all tables and work counters:
    ``fast_combines`` counts the binary combines (``general_combines``
    stays 0; both keys are kept for readers of solution ``stats`` and the
    bench CSV), ``candidate_pairs`` the affordable (left cell, right cell)
    pairs they enumerate and ``table_cells`` the cells stored, the store's
    size.
    """
    tree = instance.tree
    budget = int(instance.budget)
    if not tree.is_binary():
        raise InternalError("tables need a normalized binary tree")
    levels: dict[int, list] = {}
    for e in tree.edges:
        if len(e.children) == 2 and e.eid != tree.root:
            levels.setdefault(e.height, []).append((e.eid, *e.children,
                                                    e.length))
    store = build_pendant_tables(instance, disc)
    pairs = sum(combine_level(store, levels[height], budget, disc)
                for height in sorted(levels))
    return store, _stats(sum(map(len, levels.values())), pairs, store.cells)


def _stats(combines: int = 0, pairs: int = 0, cells: int = 0) -> dict:
    """The work counters of :func:`build_tables`."""
    return {"fast_combines": combines, "general_combines": 0,
            "candidate_pairs": pairs, "table_cells": cells}


def backtrace(instance: Instance, store: CellStore,
              cells: list[tuple[int, int]]) -> frozenset[str]:
    """Recover the selection behind the (edge id, cell) pairs ``cells``,
    one per clade, by following the stored child-cell indices down to the
    pendant tables; a pendant cell that spends its taxon's cost conserves
    it."""
    edges, taxa = instance.tree.edges, instance.taxa
    start = store.start.tolist()
    costs, left, right = store.costs, store.left, store.right
    selected: list[str] = []
    stack = list(cells)
    while stack:
        eid, n = stack.pop()
        edge = edges[eid]
        at = start[eid] + n
        if edge.taxon is not None:
            if costs.item(at) == taxa[edge.taxon].c:
                selected.append(edge.taxon)
            continue
        l, r = edge.children
        stack.append((l, left.item(at)))
        stack.append((r, right.item(at)))
    return frozenset(selected)


@dataclass(frozen=True)
class NapxSolution:
    """Result of :func:`solve`.

    ``reported_score`` is the best root candidate's score, a provable
    lower bound; ``selection.score`` re-evaluates the chosen taxa exactly
    on the original instance and is never smaller (up to float slack).
    ``params`` is None when the instance is degenerate (no taxon can be
    helped) and the empty selection is returned without building tables.
    """

    selection: ConservationSet
    reported_score: float
    epsilon: float
    params: Discretization | None
    stats: dict


def solve(instance: Instance, epsilon: float = 0.1) -> NapxSolution:
    """Approximately maximize expected diversity under the budget.

    The selection's true expected diversity is at least the reported
    lower bound. When every unconserved survival ``a`` is at most the grid
    floor ``p_min`` (in the returned ``params``), it is also at least
    (1 - epsilon) times the optimum. Work is polynomial in the instance
    size and 1/epsilon. A combine of more than ``PAIR_LIMIT`` candidate
    pairs is refused with :class:`SizeLimitError` before its pairs are
    allocated, and so is a normalized budget beyond int64, the type of
    every stored cost.

    The root candidate with the highest score wins, then the cheapest,
    then the one with the smallest row, then the first, so of two equally
    good selections the cheaper is returned.

    The instance is normalized internally; the returned selection refers
    to the original taxa, is always affordable, and taxa whose cost
    exceeds the whole budget are never reported even though normalization
    keeps them around as unconservable placeholders.
    """
    check_epsilon(epsilon)
    norm = normalize(instance)
    n = norm.tree.n_leaves
    helped = [tx.b for tx in norm.taxa.values() if tx.b > 0]
    if not helped:
        sel = make_conservation_set(instance, ())
        return NapxSolution(selection=sel, reported_score=sel.score,
                            epsilon=epsilon, params=None, stats=_stats())
    disc = select_params(n, norm.tree.height, epsilon, derive_k(n, min(helped)))
    selection, reported, stats = solve_on_grid(instance, norm, disc)
    return NapxSolution(selection=selection, reported_score=reported,
                        epsilon=epsilon, params=disc, stats=stats)


def solve_on_grid(instance: Instance, norm: Instance,
                  disc: Discretization) -> tuple[ConservationSet, float, dict]:
    """The table program of :func:`solve` on the grid ``disc``.

    ``norm`` is ``normalize(instance)``. Returns the selection, scored
    exactly on ``instance``, the root score it was chosen by, and the
    :func:`build_tables` stats with the root's combine counted. Tie rule,
    size guards and checks are those of :func:`solve`. The root's
    candidates are a binary root's :func:`_pairs`, or a one-leaf tree's
    pendant cells, each scoring ``s + length(root) * grid[row]``."""
    if norm.budget > np.iinfo(np.int64).max:
        raise SizeLimitError(
            f"normalized budget {norm.budget} does not fit the 64-bit cost "
            "type of the tables")
    store, stats = build_tables(norm, disc)
    root = norm.tree.edges[norm.tree.root]
    if len(root.children) == 1:
        tab = store[root.children[0]]
        cells, costs, rows = [np.arange(tab.scores.size)], tab.costs, tab.rows
        scores = tab.scores + root.length * disc.grid[tab.rows]
    else:
        *cells, costs, rows, scores = _pairs(store, *root.children, root.length,
                                             int(norm.budget), disc)
        stats["fast_combines"] += 1
        stats["candidate_pairs"] += scores.size
    best = np.flatnonzero(scores == scores.max())
    m = best[np.lexsort((rows[best], costs[best]))[0]]
    reported = scores.item(m)
    ids = backtrace(norm, store, [(eid, cell.item(m))
                                  for eid, cell in zip(root.children, cells)])
    kept = frozenset(t for t in ids if instance.taxa[t].c <= instance.budget)
    selection = make_conservation_set(instance, kept)
    if selection.total_cost > instance.budget:
        raise InternalError(
            f"selection cost {selection.total_cost} exceeds budget {instance.budget}")
    if selection.score < reported - 1e-9 * total_pd(norm):
        raise InternalError(
            f"evaluated score {selection.score!r} fell below the reported "
            f"bound {reported!r}")
    return selection, reported, stats
