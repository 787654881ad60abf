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
and :func:`combine_tables` enumerates only pairs of them. For a fixed
left row j, the right rows k that land on each output row form a
contiguous window (see :meth:`napx.discretization.Discretization.k_range`),
and the windows tile the k axis in ascending order, so one
``searchsorted`` per distinct left row gives every right cell's output
row. Each left budget's candidates are reduced to the best per output
cell with one sort. Every stored cell keeps all three backpointers (left
budget, left row, right row), which :func:`backtrace` follows.

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
                   budget: int, disc: Discretization) -> CladeTable:
    """Combine two child tables over their finite cells only.

    Left budgets i are walked in ascending order. For each i, every
    candidate ``left[i, j] + right[beta, k]`` with beta <= budget - i is
    built at once, the best per output cell is kept (smallest j, then
    smallest k, on ties), and it replaces the cell only when strictly
    greater than what a smaller i already put there.
    """
    rows = disc.t + 2
    nb = budget + 1
    l_i, l_j = np.divmod(left.cells, rows)
    r_beta, r_k = np.divmod(right.cells, rows)
    finite_j, l_n = np.unique(l_j, return_inverse=True)
    # output row of every right cell, per distinct left row j: the
    # feasible windows of j tile the k axis in ascending order
    p_of = np.empty((finite_j.size, r_k.size), dtype=np.int64)
    for n, j in enumerate(finite_j):
        lo, hi = disc._k_row(int(j))
        feas = np.nonzero(lo <= hi)[0]
        p_of[n] = feas[np.searchsorted(lo[feas], r_k, side="right") - 1]
    # the accumulator spans only the output rows some pair reaches
    out_rows = np.unique(p_of)
    p_of = np.searchsorted(out_rows, p_of)
    width = out_rows.size
    out = np.full(nb * width, -np.inf)
    bp_i, bp_j, bp_k = np.full((3, nb * width), -1, dtype=np.int32)
    l_start = np.searchsorted(l_i, np.arange(nb + 1))
    for i in range(nb):
        a, z = l_start[i], l_start[i + 1]
        m = int(np.searchsorted(r_beta, budget - i, side="right"))
        if a == z or m == 0:
            continue
        vals = (left.scores[a:z, None] + right.scores[None, :m]).ravel()
        cells = ((i + r_beta[None, :m]) * width + p_of[l_n[a:z], :m]).ravel()
        jcol = np.repeat(l_j[a:z], m)
        # stable sort: among equal (cell, value, j) the smallest k comes first
        order = np.lexsort((jcol, -vals, cells))
        sorted_cells = cells[order]
        win = order[np.r_[True, sorted_cells[1:] != sorted_cells[:-1]]]
        win = win[vals[win] > out[cells[win]]]
        out[cells[win]] = vals[win]
        bp_i[cells[win]] = i
        bp_j[cells[win]] = jcol[win]
        bp_k[cells[win]] = r_k[win % m]
    keep = np.flatnonzero(np.isfinite(out))
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
                            stats={"fast_combines": 0, "general_combines": 0})
    k = derive_k(n, min_b)
    disc = select_params(n, norm.tree.height, epsilon, k)
    rows = disc.t + 2
    if (norm.budget + 1) * rows > CELL_LIMIT:
        raise SizeLimitError(
            f"tables would span {(norm.budget + 1) * rows} (budget, row) cells, "
            f"above the limit of {CELL_LIMIT}; lower the budget or raise epsilon")
    tables, stats = build_tables(norm, disc)
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
