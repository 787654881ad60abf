"""Data model for budgeted conservation of phylogenetic diversity.

An instance couples a rooted edge-weighted tree with one taxon record per
leaf and an integer budget. Each taxon ``s`` carries an initial survival
probability ``a``, a survival probability ``b`` it would enjoy if conserved,
and an integer cost ``c``. Selecting a set S of taxa with total cost within
the budget yields the expected phylogenetic diversity

    E(PD | S) = sum over edges e of length(e) * P_e(S),

where P_e(S) is the probability that at least one leaf below e survives,
leaves surviving independently with probability ``b`` (inside S) or ``a``
(outside S).

Trees are represented as edges rather than vertices: every edge is
identified with the vertex at its lower end, and a distinguished top edge
(the "root edge", normally of length zero) sits above the root so that the
whole tree is itself a clade. Pendant edges end in a leaf and carry that
leaf's taxon id.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from numbers import Integral
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, ValidationError

__all__ = [
    "Taxon",
    "Edge",
    "PhyloTree",
    "Instance",
    "ConservationSet",
    "validate_instance",
    "total_pd",
    "expected_pd",
    "make_conservation_set",
    "normalize",
]


# ------------------------------------------------------------------------- #
#  Taxa
# ------------------------------------------------------------------------- #

class Taxon(NamedTuple):
    """One leaf's conservation data, an immutable named tuple.

    Parameters
    ----------
    id:
        Leaf label. Must match a pendant edge of the tree.
    a:
        Survival probability if the taxon is left alone, in [0, 1].
    b:
        Survival probability if the taxon is conserved, in [a, 1].
    c:
        Integer cost of conserving the taxon, at least 0.
    """

    id: str
    a: float
    b: float
    c: int


# ------------------------------------------------------------------------- #
#  Trees
# ------------------------------------------------------------------------- #

class Edge(NamedTuple):
    """One edge of a finished tree, an immutable named tuple.

    ``children`` holds the ids of the edges directly below this one; a
    pendant edge has no children and carries the ``taxon`` id of its leaf.
    ``height`` counts edges on the longest downward path, so pendants have
    height 1 and the root edge's height is the height of the whole tree.
    """

    eid: int
    length: float
    children: tuple[int, ...]
    taxon: str | None
    height: int


# each builds a named tuple from one tuple of its fields, in C: about twice
# as fast as ``_make``, which also checks the field count, so callers pass
# exactly the fields, in order
new_edge = partial(tuple.__new__, Edge)
new_taxon = partial(tuple.__new__, Taxon)


@dataclass(eq=True)
class PhyloTree:
    """A rooted tree stored as a flat tuple of edges in postorder.

    Edge ids are postorder positions, so iterating ``edges`` in order always
    visits children before parents. The last edge is the root edge.
    """

    edges: tuple[Edge, ...]
    root: int

    @staticmethod
    def from_records(lengths: Sequence[float], children: Sequence[Sequence[int]],
                     taxa: Sequence[str | None]) -> "PhyloTree":
        """Build the canonical tree from flat records, which are only read.

        Record ``i`` is one edge: its length, the ids of the records
        directly below it (each smaller than ``i``) and its leaf label or
        None. The last record becomes the root edge, under a zero-length
        root edge if it is labelled. Unary chains contract into their last
        edge, with lengths summed from the top down (expected diversity is
        unchanged), and a root edge absorbs a lone interior child. Children
        are ordered by the smallest leaf label below them, ties keeping
        their given order, and edges are numbered in postorder. So records
        that differ only in child order build equal trees. Each step has
        one rule for any number of children: the smallest label is a
        ``min``, the order a stable sort and the height a ``max``.

        This is the one builder of the generators, of :func:`normalize` and
        of newick text not in canonical order; the newick reader builds
        text in canonical order, as napx writes it, itself, and gives the
        tree this builder would.
        """
        length, below, taxa = [*lengths], [*children], [*taxa]     # edited copies
        if taxa[-1] is not None:
            length, below, taxa = length + [0.0], below + [(len(taxa) - 1,)], taxa + [None]
        top = len(taxa) - 1
        low: list[str] = []     # smallest leaf label below each record
        ends: list[int] = []    # where the unary chain from each record ends
        for i, (tx, ks) in enumerate(zip(taxa, below)):
            if tx is None and len(ks) == 1:
                ends.append(ends[ks[0]])
                low.append(low[ks[0]])
            else:
                ends.append(i)
                low.append(tx if tx is not None
                           else min(map(low.__getitem__, ks), default=""))

        def contract(c: int) -> int:
            """The end of the chain from ``c``, given the chain's length."""
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
        # parents first and last children first: the reverse of the postorder
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
            height = 1 + max(map(heights.__getitem__, ks), default=0)
            ids = tuple(map(eids.__getitem__, ks))
            eids[i], heights[i] = eid, height
            edges.append(new_edge((eid, float(length[i]), ids, taxa[i], height)))
        return PhyloTree(edges=tuple(edges), root=len(edges) - 1)

    @cached_property
    def leaf_edges(self) -> dict[str, int]:
        """Taxon id to pendant edge id. Duplicate labels raise."""
        out: dict[str, int] = {}
        for e in self.edges:
            if e.taxon is not None:
                if e.taxon in out:
                    raise InputError(f"duplicate leaf label {e.taxon!r}")
                out[e.taxon] = e.eid
        return out

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_edges)

    @property
    def height(self) -> int:
        """Height of the tree in edges, root edge included."""
        return self.edges[self.root].height

    def is_binary(self) -> bool:
        """True when every interior edge has two children.

        The root edge may have a single child only in the one-leaf tree.
        """
        for e in self.edges:
            n = len(e.children)
            if n == 0:
                continue
            if n == 2:
                continue
            if e.eid == self.root and n == 1 and self.n_leaves == 1:
                continue
            return False
        return True


# ------------------------------------------------------------------------- #
#  Instances and selections
# ------------------------------------------------------------------------- #

@dataclass(eq=True)
class Instance:
    """A conservation problem: tree, taxa and an integer budget."""

    tree: PhyloTree
    taxa: dict[str, Taxon]
    budget: int


@dataclass(frozen=True)
class ConservationSet:
    """A chosen set of taxa with its cost and expected diversity."""

    selected: frozenset[str]
    total_cost: int
    score: float


def is_integer(value) -> bool:
    """True for an int or another :class:`~numbers.Integral`, but not a bool."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def validate_instance(instance: Instance) -> None:
    """Check semantic validity, reporting every violation at once.

    Raises
    ------
    ValidationError
        Listing all problems found: negative or non-finite branch lengths,
        or else lengths summing above half the largest float, probabilities
        out of range or ordered a > b, non-integer or negative costs, a
        non-integer or negative budget, and any mismatch between the
        tree's leaf labels and the taxon table.
    """
    problems: list[str] = []
    tree = instance.tree

    try:
        bound = tree.leaf_edges
    except InputError as exc:
        raise ValidationError([str(exc)]) from exc

    for e in tree.edges:
        if not math.isfinite(e.length) or e.length < 0:
            problems.append(f"edge {e.eid}: negative or non-finite length {e.length!r}")
        if e.taxon is None and not e.children:
            problems.append(f"edge {e.eid}: interior edge with no children")
    # a score (a table cell, expected_pd, an exhaustive-search block) is a
    # float sum of non-negative terms, each at most one edge's length, so it
    # tops the total by a relative n * 2**-53 at most, and under this bound
    # cannot overflow
    if not problems and (total := total_pd(instance)) > sys.float_info.max / 2:
        problems.append(f"branch lengths sum to {total!r}, above "
                        f"{sys.float_info.max / 2!r}, half the largest float")

    for tid, tx in instance.taxa.items():
        if tid != tx.id:
            problems.append(f"taxon {tid!r}: key does not match record id {tx.id!r}")
        if not (0.0 <= tx.a <= 1.0):
            problems.append(f"taxon {tx.id!r}: a={tx.a!r} outside [0, 1]")
        if not (0.0 <= tx.b <= 1.0):
            problems.append(f"taxon {tx.id!r}: b={tx.b!r} outside [0, 1]")
        if tx.a > tx.b:
            problems.append(f"taxon {tx.id!r}: a={tx.a!r} exceeds b={tx.b!r}")
        if not is_integer(tx.c) or tx.c < 0:
            problems.append(f"taxon {tx.id!r}: cost {tx.c!r} is not a non-negative integer")

    missing = sorted(set(bound) - set(instance.taxa))
    extra = sorted(set(instance.taxa) - set(bound))
    for tid in missing:
        problems.append(f"leaf {tid!r} has no taxon record")
    for tid in extra:
        problems.append(f"taxon {tid!r} is not a leaf of the tree")

    budget = instance.budget
    if not is_integer(budget) or budget < 0:
        problems.append(f"budget {budget!r} is not a non-negative integer")

    if problems:
        raise ValidationError(problems)


# ------------------------------------------------------------------------- #
#  Scoring
# ------------------------------------------------------------------------- #

def total_pd(instance: Instance) -> float:
    """Sum of all branch lengths, the diversity of the full tree.

    The root edge is included; it normally contributes zero.
    """
    return float(sum(e.length for e in instance.tree.edges))


def expected_pd(instance: Instance, selected: Iterable[str]) -> float:
    """Expected phylogenetic diversity of the tree given a selection.

    One postorder pass: a pendant's death probability is one minus its
    leaf's survival, and an interior edge dies exactly when all its child
    edges die, so products multiply up the tree; each edge adds its term
    as soon as its product is known.

    Parameters
    ----------
    instance:
        The problem instance. Feasibility of the selection is not checked
        here; this is a pure scoring function.
    selected:
        Taxon ids to treat as conserved.

    Returns
    -------
    float
        A value between 0 and :func:`total_pd` of the instance: the
        per-edge terms added left to right in edge order, with no
        compensation, so the same bits on every supported Python (the
        ``sum()`` of 3.12 and later compensates). The block scores of
        :func:`napx.baselines.brute_force` add the same terms in the same
        order.
    """
    sel = frozenset(selected)
    taxa = instance.taxa
    unknown = sorted(sel - set(taxa))
    if unknown:
        raise InputError("unknown taxon ids: " + ", ".join(repr(u) for u in unknown))
    edges = instance.tree.edges
    death = [0.0] * len(edges)
    total = 0.0
    for e in edges:
        if e.taxon is not None:
            tx = taxa[e.taxon]
            d = 1.0 - (tx.b if e.taxon in sel else tx.a)
        else:
            d = 1.0
            for c in e.children:
                d *= death[c]
        death[e.eid] = d
        total += e.length * (1.0 - d)
    return total


def make_conservation_set(instance: Instance, selected: Iterable[str]) -> ConservationSet:
    """Bundle a selection with its total cost and evaluated score."""
    sel = frozenset(selected)
    score = expected_pd(instance, sel)      # refuses unknown ids first
    return ConservationSet(selected=sel,
                           total_cost=int(sum(instance.taxa[t].c for t in sel)),
                           score=score)


# ------------------------------------------------------------------------- #
#  Normalization
# ------------------------------------------------------------------------- #

def normalize(instance: Instance) -> Instance:
    """Put an instance into the solver's canonical form.

    Steps, in order:

    1. validate (see :func:`validate_instance`);
    2. every taxon priced above the budget becomes unconservable:
       its cost drops to 0 and its conserved survival is clamped to ``a``,
       so selecting it is a no-op rather than an impossibility;
    3. costs are divided by their collective gcd and the budget is scaled
       by the same factor, rounding down (this never excludes a feasible
       selection, since feasible totals are multiples of the gcd);
    4. the budget is capped at the total cost of the taxa, which no
       selection exceeds, so every affordability test is unchanged;
    5. polytomies are resolved by pairing an edge's first two children
       under a new zero-length edge until two are left, which leaves
       expected diversity unchanged.

    The root edge is a structural constant of :class:`PhyloTree`, so no
    separate attachment step is needed. Normalizing twice returns an
    instance equal to normalizing once.
    """
    validate_instance(instance)
    budget = int(instance.budget)

    taxa = dict(instance.taxa)      # a taxon that is not rewritten is kept
    for tid, tx in taxa.items():
        if tx.c > budget:
            taxa[tid] = new_taxon((tx.id, tx.a, tx.a, 0))
        elif type(tx.c) is not int:
            taxa[tid] = new_taxon((tx.id, tx.a, tx.b, int(tx.c)))

    positive = [tx.c for tx in taxa.values() if tx.c > 0]
    if positive:
        g = math.gcd(*positive)
        if g > 1:
            taxa = {tid: new_taxon((tx.id, tx.a, tx.b, tx.c // g))
                    for tid, tx in taxa.items()}
            budget //= g
    budget = min(budget, sum(tx.c for tx in taxa.values()))

    tree = instance.tree
    if not tree.is_binary():
        records: list[tuple] = []       # (length, children, label), children first
        record: list[int] = []          # the record of each edge
        for e in tree.edges:
            ks = [record[c] for c in e.children]
            while len(ks) > 2:
                records.append((0.0, ks[:2], None))
                ks[:2] = [len(records) - 1]
            record.append(len(records))
            records.append((e.length, ks, e.taxon))
        tree = PhyloTree.from_records(*zip(*records))

    return Instance(tree=tree, taxa=taxa, budget=budget)
