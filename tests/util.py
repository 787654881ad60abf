"""Instance builders shared by the test modules."""

from __future__ import annotations

from pathlib import Path

from hypothesis import strategies as st

from napx.model import Instance, PhyloTree, Taxon

DATA_DIR = Path(__file__).parent / "data"


def data_path(name: str) -> str:
    return str(DATA_DIR / name)


def leaf(label: str, length: float) -> tuple:
    """A test tree node: a pendant edge, as (length, children, label)."""
    return (float(length), (), str(label))


def inner(length: float, *children: tuple) -> tuple:
    """A test tree node: an interior edge over the given child nodes."""
    return (float(length), children, None)


def tree_of(top: tuple, build=PhyloTree.from_records) -> PhyloTree:
    """Flatten nested test nodes into records, children before parents,
    and build them with ``build``. The top node becomes the root edge."""
    nodes, below = [top], []
    for _, children, _ in nodes:                # breadth first, growing as it goes
        below.append(range(len(nodes), len(nodes) + len(children)))
        nodes += children
    last = len(nodes) - 1                       # record ``last - i`` is node ``i``
    return build([node[0] for node in reversed(nodes)],
                 [tuple(last - k for k in ks) for ks in reversed(below)],
                 [node[2] for node in reversed(nodes)])


@st.composite
def builder_trees(draw):
    """Test trees of up to 12 uniquely labelled leaves, with unary chains
    and polytomies. Lengths are dyadic, so the sums of contracted chains
    are exact and every length survives the 12-digit writers."""
    lengths = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.75])
    shape = draw(st.recursive(st.none(), lambda kids: st.lists(kids, min_size=1, max_size=4),
                              max_leaves=12))
    names = iter(draw(st.permutations([f"t{i}" for i in range(12)])))

    def build(s):
        if s is None:
            return leaf(next(names), draw(lengths))
        return inner(draw(lengths), *[build(c) for c in s])
    return build(shape)


def shuffled(node: tuple, rnd) -> tuple:
    """The same test tree with every node's children in a random order."""
    length, children, label = node
    children = [shuffled(c, rnd) for c in children]
    rnd.shuffle(children)
    return (length, tuple(children), label)


def make_instance(top, taxa_rows, budget: int) -> Instance:
    """Build an instance from a test tree and (id, a, b, c) rows."""
    taxa = {tid: Taxon(id=tid, a=a, b=b, c=c) for tid, a, b, c in taxa_rows}
    return Instance(tree=tree_of(top), taxa=taxa, budget=budget)


def cherry() -> Instance:
    """Two leaves, distinct values; optimum under budget 1 is {y}."""
    return make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 2.0)),
        [("x", 0.5, 0.9, 1), ("y", 0.5, 0.8, 1)],
        budget=1,
    )


def tie_cherry() -> Instance:
    """Symmetric cherry: {x} and {y} score the same, budget allows one."""
    return make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 1.0)),
        [("x", 0.5, 0.9, 1), ("y", 0.5, 0.9, 1)],
        budget=1,
    )


def pg_example() -> Instance:
    """Unary stem over a cherry; the stem folds into the root edge."""
    return make_instance(
        inner(0.0, inner(2.0, leaf("x", 5.0), leaf("y", 1.0))),
        [("x", 0.0, 1.0, 1), ("y", 0.0, 1.0, 1)],
        budget=1,
    )


def fig1_instance() -> Instance:
    """Four-leaf caterpillar where local per-clade choices go wrong.

    The optimum under budget 3 is {w, y} with expected diversity 230;
    a per-clade greedy locks in z (its pendant edge is long) and lands on
    {w, z} with 190.
    """
    top = inner(
        0.0,
        leaf("w", 120.0),
        inner(
            100.0,
            leaf("x", 1.0),
            inner(10.0, leaf("y", 0.0), leaf("z", 30.0)),
        ),
    )
    rows = [
        ("w", 0.0, 1.0, 2),
        ("x", 0.0, 1.0, 2),
        ("y", 0.0, 1.0, 1),
        ("z", 0.0, 0.5, 1),
    ]
    return make_instance(top, rows, budget=3)


def polytomy_instance() -> Instance:
    """One root with three children; normalization must binarize it."""
    return make_instance(
        inner(0.0, leaf("a", 1.0), leaf("b", 2.0), leaf("c", 3.0)),
        [("a", 0.1, 0.9, 1), ("b", 0.2, 0.8, 2), ("c", 0.3, 0.7, 3)],
        budget=3,
    )
