"""The budgeted-diversity dynamic program over discretized probabilities.

Every edge e of the (normalized, binary) tree gets a clade table
``T_e[b, p]``: the best expected diversity collectible strictly below the
top of e, over selections that cost at most b within e's clade and give
the clade a survival probability that rounds to grid row p. The table of
a pendant edge has exactly one finite cell per budget row, since the only
choice at a leaf is whether the allocated budget covers its cost:

    T_s[b, pi(a)] = a * length(e)   for b < c,
    T_s[b, pi(b)] = b * length(e)   for b >= c.

An interior edge e with children l and r combines child tables and then
collects its own survival term:

    T_e[b, p] = p * length(e)
                + max { T_l[i, j] + T_r[b - i, k] :
                        i + beta = b,  pi(v_j + v_k - v_j v_k) = row p }.

Almost every cell of a table is unreachable (-inf), so a table stores
only its finite cells, keyed by ``b * (t + 2) + p`` in ascending order,
and :func:`combine_tables` enumerates only pairs of them. It rounds each
pair of distinct finite child rows (j, k) once, through
:meth:`napx.discretization.Discretization.pi_index`, and gathers the
result to the right cells. Candidate pairs are built in blocks and
reduced without sorting: the best value per output cell, then the first
pair that reaches it, which is the tie rule below. Every stored cell
keeps all three backpointers (left budget, left row, right row), which
:func:`backtrace` follows.

Ties everywhere resolve lexicographically: the smallest left budget i
first, then the smallest left row index j, then the smallest right row
index k. The table values are lower bounds on true expected diversity
(rounding only ever shrinks probabilities), which is what makes the final
re-evaluation check in :func:`solve` a real invariant rather than a
tolerance guess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import CELL_LIMIT, Discretization, derive_k, select_params
from .errors import (DegenerateInstanceError, InternalError, ParameterError,
                     SizeLimitError)
from .model import (ConservationSet, Instance, Taxon, make_conservation_set,
                    min_conserved_survival, normalize, total_pd)

__all__ = [
    "CladeTable",
    "NapxSolution",
    "build_pendant_table",
    "combine_tables",
    "build_tables",
    "backtrace",
    "solve",
]

# Candidate pairs per block of the combine: large enough that numpy does
# the work, small enough that a block's arrays stay a few hundred KB.
BLOCK_PAIRS = 1 << 13


@dataclass
class CladeTable:
    """Dynamic-program table for one edge, finite cells only.

    ``cells`` holds the sorted keys ``budget * (t + 2) + row`` of the
    reachable cells and ``scores`` their values; every other cell is
    unreachable (-inf). Interior tables carry, per cell, the left child's
    budget share and row and the right child's row. Pendant tables record
    the taxon, its conservation cost and its conserved row.
    """

    edge_id: int
    kind: str  # "pendant", "internal" or "unary"
    cells: np.ndarray
    scores: np.ndarray
    bp_budget: np.ndarray | None = None
    bp_left: np.ndarray | None = None
    bp_right: np.ndarray | None = None
    taxon: str | None = None
    cost: int = 0
    row_cons: int = -1


def build_pendant_table(eid: int, taxon: Taxon, lam: float, budget: int,
                        disc: Discretization) -> CladeTable:
    """Table for a pendant edge: conserve exactly when the budget allows."""
    b = np.arange(budget + 1, dtype=np.int64)
    conserved = b >= taxon.c
    rb = disc.pi_index(taxon.b)
    rows = np.where(conserved, rb, disc.pi_index(taxon.a))
    return CladeTable(edge_id=eid, kind="pendant",
                      cells=b * (disc.t + 2) + rows,
                      scores=np.where(conserved, taxon.b * lam, taxon.a * lam),
                      taxon=taxon.id, cost=int(taxon.c), row_cons=rb)


def combine_tables(eid: int, left: CladeTable, right: CladeTable, lam: float,
                   budget: int, disc: Discretization,
                   stats: dict | None = None) -> CladeTable:
    """Combine two child tables over their finite cells only.

    Left cells are walked in key order, in blocks of consecutive cells.
    A block pairs each of its left cells with the first M right cells,
    M being how many its first cell can afford; a pair that overspends
    (i + beta > budget) is padding and lands in a dump cell. A block
    grows while its cells still afford at least M/2 right cells and it
    holds at most ``BLOCK_PAIRS`` pairs, so at most half of it is padding.

    No sort runs on values. ``np.maximum.at`` gives each output cell the
    block's best value, and the first pair in ravel order that reaches it
    wins. Pairs ravel in (left key, right key) order, and an output cell
    fixes beta = b - i, so that first pair has the smallest (i, j, k):
    the tie rule. Blocks run in ascending left key, so a later block
    replaces a cell only with a strictly greater value.

    With ``stats``, its ``candidate_pairs`` grows by the affordable pairs.
    """
    rows = disc.t + 2
    nb = budget + 1
    l_i, l_j = np.divmod(left.cells, rows)
    r_beta, r_k = np.divmod(right.cells, rows)
    finite_j, l_n = np.unique(l_j, return_inverse=True)
    finite_k, r_n = np.unique(r_k, return_inverse=True)
    # output row of every right cell, per distinct left row j
    vj = disc.grid[finite_j, None]
    p_of = disc.pi_index(vj + (1.0 - vj) * disc.grid[finite_k])[:, r_n]
    # the accumulator spans only the output rows some pair reaches
    out_rows = np.unique(p_of)
    p_of = np.searchsorted(out_rows, p_of)
    width = out_rows.size
    dump = nb * width
    out = np.full(dump + 1, -np.inf)
    bp_i, bp_j, bp_k = np.full((3, dump + 1), -1, dtype=np.int32)
    # right cells each left cell can afford; non-increasing in key order
    m_of = np.searchsorted(r_beta, budget - l_i, side="right")
    if stats is not None:
        stats["candidate_pairs"] += int(m_of.sum())
    neg_m = -m_of
    a, n_left = 0, int(np.count_nonzero(m_of))
    while a < n_left:
        m = int(m_of[a])
        z = min(a + max(1, BLOCK_PAIRS // m), n_left,
                int(np.searchsorted(neg_m, -((m + 1) // 2), side="right")))
        b = l_i[a:z, None] + r_beta[None, :m]
        cells = b * width + p_of[l_n[a:z], :m]
        cells[b > budget] = dump
        cells = cells.ravel()
        vals = (left.scores[a:z, None] + right.scores[None, :m]).ravel()
        old = out[cells]
        np.maximum.at(out, cells, vals)
        # winners beat what earlier blocks stored and reach the new best
        hit = np.flatnonzero(vals > old)
        hit = hit[vals[hit] == out[cells[hit]]]
        hit_cells, first = np.unique(cells[hit], return_index=True)
        win = hit[first]
        bp_i[hit_cells] = l_i[a + win // m]
        bp_j[hit_cells] = l_j[a + win // m]
        bp_k[hit_cells] = r_k[win % m]
        a = z
    keep = np.flatnonzero(np.isfinite(out[:dump]))
    row = out_rows[keep % width]
    return CladeTable(edge_id=eid, kind="internal",
                      cells=keep // width * rows + row,
                      scores=out[keep] + lam * disc.grid[row],
                      bp_budget=bp_i[keep], bp_left=bp_j[keep],
                      bp_right=bp_k[keep])


def _combine_unary(eid: int, child: CladeTable, lam: float,
                   disc: Discretization) -> CladeTable:
    """Root edge over a single pendant: rows pass through unchanged."""
    row = child.cells % (disc.t + 2)
    return CladeTable(edge_id=eid, kind="unary", cells=child.cells,
                      scores=child.scores + lam * disc.grid[row])


def build_tables(instance: Instance,
                 disc: Discretization) -> tuple[dict[int, CladeTable], dict]:
    """Build every edge's table in postorder.

    The instance must be normalized (binary tree, costs within budget).
    Returns the tables keyed by edge id and work counters:
    ``fast_combines`` counts the binary combines (``general_combines``
    stays 0; both keys are kept for readers of solution ``stats`` and the
    bench CSV), ``candidate_pairs`` the affordable (left cell, right cell)
    pairs they enumerate and ``table_cells`` the finite cells stored over
    all tables.
    """
    tree = instance.tree
    budget = int(instance.budget)
    tables: dict[int, CladeTable] = {}
    stats = {"fast_combines": 0, "general_combines": 0,
             "candidate_pairs": 0, "table_cells": 0}
    for e in tree.edges:
        if e.taxon is not None:
            tables[e.eid] = build_pendant_table(
                e.eid, instance.taxa[e.taxon], e.length, budget, disc)
        elif len(e.children) == 1:
            tables[e.eid] = _combine_unary(
                e.eid, tables[e.children[0]], e.length, disc)
        elif len(e.children) == 2:
            left, right = e.children
            tables[e.eid] = combine_tables(e.eid, tables[left], tables[right],
                                           e.length, budget, disc, stats)
            stats["fast_combines"] += 1
        else:
            raise InternalError(
                f"edge {e.eid} has {len(e.children)} children; "
                "tables need a normalized binary tree")
        stats["table_cells"] += int(tables[e.eid].cells.size)
    return tables, stats


def backtrace(instance: Instance, tables: dict[int, CladeTable],
              disc: Discretization, budget: int, row: int) -> frozenset[str]:
    """Recover the selection behind a root table cell by following the
    stored backpointers down to the pendant tables."""
    tree = instance.tree
    rows = disc.t + 2
    selected: list[str] = []
    stack: list[tuple[int, int, int]] = [(tree.root, int(budget), int(row))]
    while stack:
        eid, b, p = stack.pop()
        tab = tables[eid]
        n = int(np.searchsorted(tab.cells, b * rows + p))
        if n == tab.cells.size or tab.cells[n] != b * rows + p:
            raise InternalError(
                f"backtrace hit an unreachable cell (edge {eid}, budget {b}, row {p})")
        if tab.kind == "pendant":
            if b >= tab.cost and p == tab.row_cons:
                selected.append(tab.taxon)
        elif tab.kind == "unary":
            stack.append((tree.edges[eid].children[0], b, p))
        else:
            i, j, k = (int(bp[n]) for bp in
                       (tab.bp_budget, tab.bp_left, tab.bp_right))
            if min(i, j, k) < 0:
                raise InternalError(
                    f"missing backpointer (edge {eid}, budget {b}, row {p})")
            left, right = tree.edges[eid].children
            stack.append((left, i, j))
            stack.append((right, b - i, k))
    return frozenset(selected)


@dataclass(frozen=True)
class NapxSolution:
    """Result of :func:`solve`.

    ``reported_score`` is the root table's optimum, a provable lower
    bound; ``selection.score`` re-evaluates the chosen taxa exactly on the
    original instance and is never smaller (up to float slack). ``params``
    is None when the instance is degenerate (no taxon can be helped) and
    the empty selection is returned without building tables.
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
    size and 1/epsilon; tables of more than ``CELL_LIMIT`` (budget, row)
    cells are refused with :class:`SizeLimitError` before any is built.

    The instance is normalized internally; the returned selection refers
    to the original taxa, is always affordable, and taxa whose cost
    exceeds the whole budget are never reported even though normalization
    keeps them around as unconservable placeholders.
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(
            f"epsilon must be strictly between 0 and 1, got {epsilon!r}")
    norm = normalize(instance)
    n = norm.tree.n_leaves
    try:
        min_b = min_conserved_survival(norm)
    except DegenerateInstanceError:
        sel = make_conservation_set(instance, frozenset())
        return NapxSolution(selection=sel, reported_score=sel.score,
                            epsilon=epsilon, params=None,
                            stats={"fast_combines": 0, "general_combines": 0,
                                   "candidate_pairs": 0, "table_cells": 0,
                                   "dense_cells": 0})
    k = derive_k(n, min_b)
    disc = select_params(n, norm.tree.height, epsilon, k)
    rows = disc.t + 2
    dense = (norm.budget + 1) * rows
    if dense > CELL_LIMIT:
        raise SizeLimitError(
            f"tables would span {dense} (budget, row) cells, "
            f"above the limit of {CELL_LIMIT}; lower the budget or raise epsilon")
    tables, stats = build_tables(norm, disc)
    stats["dense_cells"] = dense
    root = tables[norm.tree.root]
    # budget B is the largest, so its cells end the root table
    lo = int(np.searchsorted(root.cells, norm.budget * rows))
    if lo == root.cells.size:
        raise InternalError("no feasible root table entry; this cannot happen "
                            "on a validated instance")
    m = lo + int(np.argmax(root.scores[lo:]))
    reported = float(root.scores[m])
    ids = backtrace(norm, tables, disc, norm.budget, root.cells[m] % rows)
    kept = frozenset(t for t in ids if instance.taxa[t].c <= instance.budget)
    selection = make_conservation_set(instance, kept)
    if selection.total_cost > instance.budget:
        raise InternalError(
            f"selection cost {selection.total_cost} exceeds budget {instance.budget}")
    if selection.score < reported - 1e-9 * total_pd(norm):
        raise InternalError(
            f"evaluated score {selection.score!r} fell below the reported "
            f"bound {reported!r}")
    return NapxSolution(selection=selection, reported_score=reported,
                        epsilon=epsilon, params=disc, stats=stats)
