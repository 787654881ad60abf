"""Seeded random instance generators.

Two topology families are supported:

``yule``
    A Yule (pure-birth) tree: starting from a two-leaf cherry, a uniformly
    random extant leaf is repeatedly split into a cherry until ``n`` leaves
    exist.  Expected height grows logarithmically in ``n``, so these trees
    are shallow and well balanced on average.

``caterpillar``
    The deterministic maximally unbalanced comb ``((...(t0,t1),t2)...)``,
    which stresses worst-case table depth.

Determinism contract
--------------------
All randomness flows through one ``numpy`` Philox generator keyed by
``seed``, and draws happen in a fixed, documented order:

1. topology (Yule leaf choices; none for caterpillar),
2. edge lengths, in preorder over the topology, first children first,
   each drawn as ``1 - U[0, 1)`` so lengths lie in ``(0, 1]`` (the root
   edge keeps length 0),
3. per-taxon attributes in label order: survival floor ``a``, then
   conserved survival ``b`` (forced to be at least ``a``), then an
   integer cost ``c``.

Leaves are labelled ``t00, t01, ...`` in that preorder, zero padded so
label order equals draw order.  Lengths and probabilities are rounded to
12 significant digits so generated instances survive a serialization
round trip bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import InputError, SizeLimitError
from .model import Instance, PhyloTree, Taxon, is_integer, validate_instance
from .newick import round12

TOPOLOGIES = ("yule", "caterpillar")

# Refuse more leaves than this before anything is drawn: 2**17 leaves peak
# near 300 MB, and nothing else bounds the lists a generator grows.
GEN_LIMIT = 2**17


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance.

    Parameters
    ----------
    n : int
        Number of leaves, from 1 to ``GEN_LIMIT``. ``n``, ``seed``, the
        ``c_range`` bounds and ``budget`` must be integers, and not bools.
    topology : str
        One of ``"yule"`` or ``"caterpillar"``.
    seed : int
        Philox key, in ``[0, 2**128)``; equal specs generate equal
        instances.
    a_range, b_range : (float, float)
        Closed ranges, two numbers each (not bools), for the unconserved
        and conserved survival probabilities.  ``b`` is drawn from
        ``[max(a, b_lo), b_hi]`` so that ``a <= b`` always holds, which
        requires ``a_hi <= b_hi``.
    c_range : (int, int)
        Inclusive range for integer protection costs, within [0, 2**63 - 1].
        Each range is a tuple or a list.
    budget : int or None
        Total budget; ``None`` means a third of the summed costs,
        rounded up.
    """

    n: int
    topology: str
    seed: int
    a_range: tuple[float, float] = (0.0, 0.3)
    b_range: tuple[float, float] = (0.5, 1.0)
    c_range: tuple[int, int] = (1, 5)
    budget: int | None = None

    def __post_init__(self) -> None:
        budget = () if self.budget is None else (self.budget,)
        for name, values in (("n", (self.n,)), ("seed", (self.seed,)),
                             ("budget", budget)):
            if not all(map(is_integer, values)):
                raise InputError(f"{name} takes integers only, got {getattr(self, name)!r}")
        if self.n < 1:
            raise InputError(f"need at least one leaf, got n={self.n}")
        if self.n > GEN_LIMIT:
            raise SizeLimitError(f"generating is capped at {GEN_LIMIT} leaves, got n={self.n}")
        if self.topology not in TOPOLOGIES:
            raise InputError(f"unknown topology {self.topology!r}")
        if not 0 <= self.seed < 2**128:
            raise InputError(f"seed must be in [0, 2**128), got {self.seed}")
        for name, kind, top in (("a_range", Real, 1.0), ("b_range", Real, 1.0),
                                ("c_range", Integral, 2**63 - 1)):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(x, kind) and not isinstance(x, bool)
                            for x in pair)
                    and 0 <= pair[0] <= pair[1] <= top):
                what = "integers" if kind is Integral else "numbers"
                raise InputError(f"{name} takes two {what} lo, hi with "
                                 f"0 <= lo <= hi <= {top}, got {pair!r}")
        if self.a_range[1] > self.b_range[1]:
            raise InputError("a_range upper bound exceeds b_range upper "
                             "bound, cannot guarantee a <= b")
        if self.budget is not None and self.budget < 0:
            raise InputError(f"budget must be nonnegative, got {self.budget}")

    @property
    def name(self) -> str:
        return f"{self.topology}-n{self.n}-s{self.seed}"


def _topology(spec: GenSpec, rng: np.random.Generator) -> list[list[int]]:
    """The children of each node. Node 0 is the root, and each child's id
    is above its parent's. Yule splits a uniformly drawn leaf into a
    cherry; the caterpillar always splits the first leaf, the deepest."""
    if spec.n == 1:
        return [[1], []]
    children: list[list[int]] = [[1, 2], [], []]
    leaves = [1, 2]
    while len(leaves) < spec.n:
        at = int(rng.integers(0, len(leaves))) if spec.topology == "yule" else 0
        node = len(children)
        children[leaves[at]] += [node, node + 1]
        children += [[], []]
        leaves[at] = node
        leaves.append(node + 1)
    return children


def generate(spec: GenSpec) -> Instance:
    """Build the instance determined by ``spec``.

    Returns a validated :class:`~napx.model.Instance`; its canonical tree
    may reorder children relative to the generated topology, but labels,
    lengths, and taxa are unaffected.
    """

    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    children = _topology(spec, rng)

    order, todo = [], [0]           # preorder, first children first
    while todo:
        node = todo.pop()
        order.append(node)
        todo += reversed(children[node])
    lengths = [0.0] * len(children)
    for node in order[1:]:
        lengths[node] = round12(1.0 - float(rng.uniform()))

    labels: list[str | None] = [None] * len(children)
    width = max(2, len(str(spec.n - 1)))
    a_lo, a_hi = spec.a_range
    b_lo, b_hi = spec.b_range
    c_lo, c_hi = spec.c_range
    taxa: dict[str, Taxon] = {}
    for i, node in enumerate(node for node in order if not children[node]):
        label = f"t{i:0{width}d}"
        a = round12(float(rng.uniform(a_lo, a_hi)))
        b = round12(float(rng.uniform(max(a, b_lo), b_hi)))
        c = int(rng.integers(c_lo, c_hi + 1))
        labels[node] = label
        taxa[label] = Taxon(id=label, a=a, b=b, c=c)

    if spec.budget is not None:
        budget = spec.budget
    else:
        total = sum(t.c for t in taxa.values())
        budget = (total + 2) // 3

    last = len(children) - 1        # record ``last - i`` is node ``i``
    below = [[last - c for c in ks] for ks in reversed(children)]
    tree = PhyloTree.from_records(lengths[::-1], below, labels[::-1])
    instance = Instance(tree=tree, taxa=taxa, budget=budget)
    validate_instance(instance)
    return instance


def gen_yule(n: int, seed: int, **kwargs) -> Instance:
    """Shorthand for ``generate(GenSpec(n, "yule", seed, **kwargs))``."""

    return generate(GenSpec(n=n, topology="yule", seed=seed, **kwargs))


def gen_caterpillar(n: int, seed: int, **kwargs) -> Instance:
    """Shorthand for ``generate(GenSpec(n, "caterpillar", seed, **kwargs))``."""

    return generate(GenSpec(n=n, topology="caterpillar", seed=seed, **kwargs))
