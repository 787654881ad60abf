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

Almost every cell of a table is unreachable (-inf), so
:func:`combine_tables` enumerates only pairs of finite cells. For a fixed
left row j, the right rows k that land on output row p form a contiguous
index window (see :meth:`napx.discretization.Discretization.k_range`),
and those windows tile the k axis in ascending order as p grows. So the
output row of every finite right cell follows from one ``searchsorted``
over the windows' lower ends, once per finite left row. The candidates
of one left budget at a time are then reduced to the best per output
cell with a single sort, which keeps memory at one budget row's worth of
pairs rather than all of them.

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

from .discretization import Discretization, derive_k, select_params
from .errors import (DegenerateInstanceError, InternalError, ParameterError)
from .model import (ConservationSet, Instance, Taxon, make_conservation_set,
                    min_conserved_survival, normalize)

__all__ = [
    "CladeTable",
    "NapxSolution",
    "build_pendant_table",
    "combine_tables",
    "build_tables",
    "backtrace",
    "solve",
]


@dataclass
class CladeTable:
    """Dynamic-program table for one edge.

    ``scores`` has one row per budget 0..B and one column per grid row;
    unreachable cells hold -inf. Interior tables carry backpointers: the
    left child's budget share and row. The right child's row is not
    stored; it is recomputed during backtracking by replaying the
    window maximum for the winning cell, which is cheaper than carrying
    a third full array. Pendant tables instead record their two
    possible (row, value) configurations and the conservation cost.
    """

    edge_id: int
    kind: str  # "pendant", "internal" or "unary"
    scores: np.ndarray
    bp_budget: np.ndarray | None = None
    bp_left: np.ndarray | None = None
    taxon: str | None = None
    cost: int = 0
    row_uncons: int = -1
    row_cons: int = -1
    val_uncons: float = 0.0
    val_cons: float = 0.0


def build_pendant_table(eid: int, taxon: Taxon, lam: float, budget: int,
                        disc: Discretization) -> CladeTable:
    """Table for a pendant edge: conserve exactly when the budget allows."""
    rows = disc.t + 2
    scores = np.full((budget + 1, rows), -np.inf)
    ra = disc.pi_index(taxon.a)
    rb = disc.pi_index(taxon.b)
    va = taxon.a * lam
    vb = taxon.b * lam
    cut = min(int(taxon.c), budget + 1)
    scores[:cut, ra] = va
    if taxon.c <= budget:
        scores[taxon.c:, rb] = vb
    return CladeTable(edge_id=eid, kind="pendant", scores=scores,
                      taxon=taxon.id, cost=int(taxon.c),
                      row_uncons=ra, row_cons=rb,
                      val_uncons=va, val_cons=vb)


def combine_tables(eid: int, left: CladeTable, right: CladeTable, lam: float,
                   budget: int, disc: Discretization) -> CladeTable:
    """Combine two child tables over their finite cells only.

    Left budgets i are walked in ascending order. For each i, every
    candidate ``left[i, j] + right[beta, k]`` with beta <= budget - i is
    built at once, the best per output cell is kept (smallest j on ties),
    and it replaces the cell only when strictly greater than what a
    smaller i already put there.
    """
    rows = disc.t + 2
    nb = budget + 1
    out = np.full((nb, rows), -np.inf)
    bp_i = np.full((nb, rows), -1, dtype=np.int32)
    bp_j = np.full((nb, rows), -1, dtype=np.int32)
    out_flat, bpi_flat, bpj_flat = out.ravel(), bp_i.ravel(), bp_j.ravel()
    # row-major order: right budgets ascend, so each i takes a prefix
    r_beta, r_k = np.nonzero(np.isfinite(right.scores))
    r_val = right.scores[r_beta, r_k]
    r_cell = r_beta.astype(np.int64) * rows
    finite_j = np.nonzero(np.isfinite(left.scores).any(axis=0))[0]
    # output row of every finite right cell, per finite left row j: the
    # feasible windows of j tile the k axis in ascending order
    p_of = np.empty((finite_j.size, r_k.size), dtype=np.int64)
    for n, j in enumerate(finite_j):
        lo, hi = disc._k_row(int(j))
        feas = np.nonzero(lo <= hi)[0]
        p_of[n] = feas[np.searchsorted(lo[feas], r_k, side="right") - 1]
    for i in range(nb):
        sel = np.nonzero(np.isfinite(left.scores[i, finite_j]))[0]
        m = int(np.searchsorted(r_beta, budget - i, side="right"))
        if sel.size == 0 or m == 0:
            continue
        js = finite_j[sel]
        vals = (left.scores[i, js][:, None] + r_val[None, :m]).ravel()
        cells = (i * rows + r_cell[None, :m] + p_of[sel, :m]).ravel()
        jcol = np.repeat(js, m)
        order = np.lexsort((jcol, -vals, cells))
        sorted_cells = cells[order]
        win = order[np.r_[True, sorted_cells[1:] != sorted_cells[:-1]]]
        win = win[vals[win] > out_flat[cells[win]]]
        out_flat[cells[win]] = vals[win]
        bpi_flat[cells[win]] = i
        bpj_flat[cells[win]] = jcol[win]
    out += lam * disc.grid[None, :]
    return CladeTable(edge_id=eid, kind="internal", scores=out,
                      bp_budget=bp_i, bp_left=bp_j)


def _combine_unary(eid: int, child: CladeTable, lam: float,
                   disc: Discretization) -> CladeTable:
    """Root edge over a single pendant: rows pass through unchanged."""
    scores = child.scores + lam * disc.grid[None, :]
    return CladeTable(edge_id=eid, kind="unary", scores=scores)


def build_tables(instance: Instance,
                 disc: Discretization) -> tuple[dict[int, CladeTable], dict]:
    """Build every edge's table in postorder.

    The instance must be normalized (binary tree, costs within budget).
    Returns the tables keyed by edge id and combine counters. There is a
    single combine route: every binary combine counts in
    ``fast_combines`` and ``general_combines`` stays 0; both keys are kept
    for readers of solution ``stats`` and the bench CSV.
    """
    tree = instance.tree
    budget = int(instance.budget)
    tables: dict[int, CladeTable] = {}
    stats = {"fast_combines": 0, "general_combines": 0}
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
                                           e.length, budget, disc)
            stats["fast_combines"] += 1
        else:
            raise InternalError(
                f"edge {e.eid} has {len(e.children)} children; "
                "tables need a normalized binary tree")
    return tables, stats


def backtrace(instance: Instance, tables: dict[int, CladeTable],
              disc: Discretization, budget: int, row: int) -> frozenset[str]:
    """Recover the selection behind a root table cell.

    The right child's row is reconstructed by replaying the winning
    cell's window maximum, with the same smallest-index tie rule the
    table build used.
    """
    tree = instance.tree
    selected: list[str] = []
    stack: list[tuple[int, int, int]] = [(tree.root, int(budget), int(row))]
    while stack:
        eid, b, p = stack.pop()
        tab = tables[eid]
        if not np.isfinite(tab.scores[b, p]):
            raise InternalError(
                f"backtrace hit an unreachable cell (edge {eid}, budget {b}, row {p})")
        if tab.kind == "pendant":
            if b >= tab.cost and p == tab.row_cons:
                selected.append(tab.taxon)
        elif tab.kind == "unary":
            stack.append((tree.edges[eid].children[0], b, p))
        else:
            i = int(tab.bp_budget[b, p])
            j = int(tab.bp_left[b, p])
            if i < 0 or j < 0:
                raise InternalError(
                    f"missing backpointer (edge {eid}, budget {b}, row {p})")
            left, right = tree.edges[eid].children
            beta = b - i
            lo, hi = disc._k_row(j)
            lw, hw = int(lo[p]), int(hi[p])
            if lw > hw:
                raise InternalError(
                    f"empty window during backtrace (edge {eid}, row {p})")
            seg = tables[right].scores[beta, lw:hw + 1]
            k = lw + int(np.argmax(seg))
            if not np.isfinite(tables[right].scores[beta, k]):
                raise InternalError(
                    f"non-finite window maximum during backtrace (edge {eid})")
            stack.append((left, i, j))
            stack.append((right, beta, k))
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

    Guarantees a selection whose true expected diversity is at least
    (1 - epsilon) times the optimum, in time polynomial in the instance
    size and 1/epsilon.

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
                            stats={"fast_combines": 0, "general_combines": 0})
    k = derive_k(n, min_b)
    disc = select_params(n, norm.tree.height, epsilon, k)
    tables, stats = build_tables(norm, disc)
    root_scores = tables[norm.tree.root].scores[norm.budget]
    m = int(np.argmax(root_scores))
    reported = float(root_scores[m])
    if not np.isfinite(reported):
        raise InternalError("no feasible root table entry; this cannot happen "
                            "on a validated instance")
    ids = backtrace(norm, tables, disc, norm.budget, m)
    kept = frozenset(t for t in ids if instance.taxa[t].c <= instance.budget)
    selection = make_conservation_set(instance, kept)
    if selection.total_cost > instance.budget:
        raise InternalError(
            f"selection cost {selection.total_cost} exceeds budget {instance.budget}")
    if selection.score < reported - 1e-6:
        raise InternalError(
            f"evaluated score {selection.score!r} fell below the reported "
            f"bound {reported!r}")
    return NapxSolution(selection=selection, reported_score=reported,
                        epsilon=epsilon, params=disc, stats=stats)
