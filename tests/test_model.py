"""Tests for the data model: trees, scoring, validation, normalization."""

import copy
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from napx.errors import InputError, ValidationError
from napx.generators import GenSpec, gen_yule, generate
from napx.model import (Edge, Instance, PhyloTree, Taxon, expected_pd,
                        make_conservation_set, normalize, total_pd,
                        validate_instance)

from oracles import (binarize_reference, expected_pd_reference, expected_pd_two_pass,
                     from_records_reference)
from util import (builder_trees, cherry, fig1_instance, inner, leaf, make_instance,
                  polytomy_instance, shuffled, tree_of)


# ------------------------------------------------------------------------- #
#  Tree construction
# ------------------------------------------------------------------------- #

def test_canonical_child_order():
    """Child order in the builder must not matter: both orders produce the
    same edge tuple, because children sort by the smallest leaf label."""
    t1 = tree_of(inner(0.0, leaf("a", 1.0), leaf("b", 2.0)))
    t2 = tree_of(inner(0.0, leaf("b", 2.0), leaf("a", 1.0)))
    assert t1 == t2
    assert [e.taxon for e in t1.edges] == ["a", "b", None]


def test_unary_chain_contracts():
    top = inner(1.0, inner(2.0, inner(3.0, leaf("x", 4.0))))
    tree = tree_of(top)
    # one pendant, one root edge; all interior lengths folded together
    assert len(tree.edges) == 2
    assert tree.edges[0].taxon == "x"
    assert tree.edges[0].length == pytest.approx(9.0)
    assert tree.edges[tree.root].length == pytest.approx(1.0)


def test_nested_contractions_are_pinned():
    """Unary chains, a polytomy and a top over a lone interior child are
    contracted and reordered into one pinned edge list."""
    top = inner(0.5, inner(1.0, inner(2.0, leaf("c", 1.0),
                                      inner(1.5, inner(0.25, leaf("b", 1.0))),
                                      leaf("a", 2.0), inner(3.0, leaf("d", 1.0), leaf("e", 1.0)))))
    tree = tree_of(top)
    assert [(e.length, e.children, e.taxon) for e in tree.edges] == [
        (2.0, (), "a"), (2.75, (), "b"), (1.0, (), "c"),
        (1.0, (), "d"), (1.0, (), "e"), (3.0, (3, 4), None),
        (3.5, (0, 1, 2, 5), None)]


@st.composite
def _records(draw):
    """Flat postorder records as a reader emits them, and more: leaves,
    unary chains, cherries and polytomies of up to 5 children in any order,
    labels from a pool of four so that smallest labels tie, now and then an
    unlabelled leaf or a labelled interior record, and a last record that
    may be labelled."""
    lengths, children, taxa = [], [], []
    label = st.sampled_from("abcd")
    open_ids: list[int] = []        # records that have no parent yet
    n = draw(st.integers(1, 16))
    for i in range(n):
        if i == n - 1:
            ks = draw(st.permutations(open_ids))
        else:
            k = draw(st.integers(0, min(5, len(open_ids))))
            ks = draw(st.permutations(open_ids))[:k]
        open_ids = [c for c in open_ids if c not in ks] + [i]
        if ks:
            tx = draw(st.one_of(st.none(), st.none(), st.none(), label))
        else:
            tx = draw(st.one_of(label, label, label, st.none()))
        lengths.append(draw(st.floats(0.0, 10.0)))
        children.append(tuple(ks) if draw(st.booleans()) else list(ks))
        taxa.append(tx)
    return lengths, children, taxa


@settings(deadline=None, max_examples=400, derandomize=True)
@given(_records())
def test_from_records_matches_general_builder_property(records):
    """The builder gives the tree of the reference copy of its rule, edge
    for edge and bit for bit, ties in given order, and only reads its
    records."""
    before = copy.deepcopy(records)
    tree = PhyloTree.from_records(*records)
    want = from_records_reference(*records)
    assert records == before
    assert tree == want
    for got, ref in zip(tree.edges, want.edges):
        assert type(got) is Edge
        assert [repr(x) for x in got] == [repr(x) for x in ref]


def test_edge_and_taxon_are_named_tuples():
    """Edges and taxa are immutable and hashable, unpack, and compare equal
    to the plain tuple of their fields."""
    tree = cherry().tree
    edge = tree.edges[0]
    eid, length, children, taxon, height = edge
    assert edge == (eid, length, children, taxon, height) == (0, 1.0, (), "x", 1)
    assert edge.taxon == "x" and hash(edge) == hash(tuple(edge))
    tx = Taxon(id="x", a=0.5, b=0.9, c=1)
    assert tx == ("x", 0.5, 0.9, 1) == Taxon._make(("x", 0.5, 0.9, 1))
    assert {tx: 1}[("x", 0.5, 0.9, 1)] == 1
    with pytest.raises(AttributeError):
        tx.c = 2
    with pytest.raises(AttributeError):
        edge.length = 2.0


def test_bare_leaf_wrapped():
    tree = tree_of(leaf("only", 5.0))
    assert tree.n_leaves == 1
    assert tree.edges[tree.root].length == 0.0
    assert tree.is_binary()


def test_heights():
    tree = fig1_instance().tree
    assert tree.height == 4
    assert tree.edges[tree.leaf_edges["w"]].height == 1


def test_duplicate_labels_rejected():
    tree = tree_of(inner(0.0, leaf("x", 1.0), leaf("x", 2.0)))
    with pytest.raises(InputError, match="duplicate"):
        tree.leaf_edges


def test_deep_caterpillar_no_recursion_error():
    top = leaf("t0000", 1.0)
    for i in range(1, 3000):
        top = inner(1.0, top, leaf(f"t{i:04d}", 1.0))
    tree = tree_of(top)
    assert tree.n_leaves == 3000
    assert tree.height == 3000


# ------------------------------------------------------------------------- #
#  Scoring
# ------------------------------------------------------------------------- #

def test_expected_pd_cherry_by_hand():
    inst = cherry()
    assert expected_pd(inst, ()) == pytest.approx(1.5)
    assert expected_pd(inst, {"x"}) == pytest.approx(1.9)
    assert expected_pd(inst, {"y"}) == pytest.approx(2.1)
    assert expected_pd(inst, {"x", "y"}) == pytest.approx(2.5)


def test_expected_pd_fig1_by_hand():
    inst = fig1_instance()
    assert expected_pd(inst, {"w", "y"}) == pytest.approx(230.0)
    assert expected_pd(inst, {"w", "z"}) == pytest.approx(190.0)
    assert total_pd(inst) == pytest.approx(261.0)


def test_expected_pd_unknown_id():
    with pytest.raises(InputError, match="unknown taxon"):
        expected_pd(cherry(), {"nope"})


@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 9), pick=st.data())
def test_expected_pd_matches_leaf_enumeration(seed, n, pick):
    """The bottom-up product pass agrees with scoring every edge through
    direct enumeration of the leaves below it."""
    inst = gen_yule(n, seed)
    ids = sorted(inst.taxa)
    sel = frozenset(pick.draw(st.sets(st.sampled_from(ids))))
    assert expected_pd(inst, sel) == pytest.approx(
        expected_pd_reference(inst, sel), rel=1e-12, abs=1e-12)


def _wide_instance(rng: random.Random, n: int) -> Instance:
    """An unnormalized instance of ``n`` leaves whose interior edges have 3
    to 5 children each (all of them when fewer than 6 are left), with
    lengths and survivals at full precision. Survivals stay below 0.2, so
    death products stay near 1, where ``1 - d`` keeps their last bits."""
    nodes = [leaf(f"t{i:02d}", rng.random()) for i in range(n)]
    while len(nodes) > 1:
        k = len(nodes) if len(nodes) <= 5 else rng.randint(3, min(5, len(nodes) - 2))
        rng.shuffle(nodes)
        nodes[:k] = [inner(rng.random(), *nodes[:k])]
    rows = []
    for i in range(n):
        a = rng.random() / 10
        rows.append((f"t{i:02d}", a, a + rng.random() / 10, 1))
    return make_instance(nodes[0], rows, budget=1)


@pytest.mark.parametrize("topology", ["yule", "caterpillar", "wide"])
def test_expected_pd_bits_match_two_passes(topology):
    """expected_pd keeps the bits of two passes, death products bottom-up
    and then the terms left to right in edge order. On trees with 3 to 5
    children per edge, the order of each product shows in the bits."""
    rng = random.Random(topology)
    for n in (1, 2, 3, 5, 9, 16, 33, 64):
        for seed in range(3):
            if topology == "wide":
                inst = _wide_instance(rng, n)
            else:
                inst = generate(GenSpec(n=n, topology=topology, seed=seed))
            for _ in range(4):
                sel = {t for t in inst.taxa if rng.random() < 0.5}
                assert repr(expected_pd(inst, sel)) == repr(expected_pd_two_pass(inst, sel))


def test_make_conservation_set():
    got = make_conservation_set(cherry(), {"x"})
    assert got.selected == frozenset({"x"})
    assert got.total_cost == 1
    assert got.score == pytest.approx(1.9)


# ------------------------------------------------------------------------- #
#  Validation
# ------------------------------------------------------------------------- #

def test_validate_reports_all_problems():
    inst = make_instance(
        inner(0.0, leaf("x", -1.0), leaf("y", 2.0)),
        [("x", 0.9, 0.1, 1), ("y", 0.2, 0.8, -2)],
        budget=-1,
    )
    with pytest.raises(ValidationError) as err:
        validate_instance(inst)
    text = str(err.value)
    assert "negative or non-finite length" in text
    assert "exceeds" in text          # a > b
    assert "cost" in text
    assert "budget" in text


def test_validate_leaf_taxon_mismatch():
    inst = cherry()
    inst.taxa["ghost"] = Taxon(id="ghost", a=0.0, b=1.0, c=1)
    del inst.taxa["y"]
    with pytest.raises(ValidationError) as err:
        validate_instance(inst)
    assert "ghost" in str(err.value)
    assert "'y'" in str(err.value)


def test_validate_accepts_good_instance():
    validate_instance(fig1_instance())


def test_validate_integer_costs_and_budget():
    """Any integral cost or budget passes, a numpy one included; a bool, a
    float with an integer value and a negative one do not."""
    inst = cherry()
    inst.taxa["x"] = Taxon(id="x", a=0.5, b=0.9, c=np.int64(1))
    inst.budget = np.int64(1)
    validate_instance(inst)
    assert type(normalize(inst).taxa["x"].c) is int
    for bad in (True, 2.0, -1):
        inst = cherry()
        inst.taxa["x"] = Taxon(id="x", a=0.5, b=0.9, c=bad)
        with pytest.raises(ValidationError, match="cost"):
            validate_instance(inst)
        inst = cherry()
        inst.budget = bad
        with pytest.raises(ValidationError, match="budget"):
            validate_instance(inst)


_HALF_MAX = sys.float_info.max / 2


def _two_leaves(x: float, y: float) -> Instance:
    return make_instance(inner(0.0, leaf("x", x), leaf("y", y)),
                         [("x", 0.1, 0.9, 1), ("y", 0.1, 0.9, 1)], budget=1)


def test_validate_accepts_total_length_at_the_bound():
    """Lengths that sum to exactly half the largest float pass."""
    validate_instance(_two_leaves(_HALF_MAX / 2, _HALF_MAX / 2))
    validate_instance(_two_leaves(_HALF_MAX, 0.0))


def test_validate_refuses_total_length_above_the_bound():
    """The next float above the bound is refused, and the message names
    the total and the bound."""
    above = math.nextafter(_HALF_MAX, math.inf)
    with pytest.raises(ValidationError) as err:
        validate_instance(_two_leaves(above, 0.0))
    assert err.value.problems == [
        f"branch lengths sum to {above!r}, above {_HALF_MAX!r}, half the "
        "largest float"]


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_validate_bad_length_is_not_also_a_total(bad):
    """A negative or non-finite length reports its own problem only, even
    when the other lengths sum above the bound."""
    with pytest.raises(ValidationError) as err:
        validate_instance(make_instance(
            inner(0.0, leaf("x", bad), leaf("y", _HALF_MAX),
                  leaf("z", _HALF_MAX)),
            [(t, 0.1, 0.9, 1) for t in "xyz"], budget=1))
    assert err.value.problems == [
        f"edge 0: negative or non-finite length {bad!r}"]


# ------------------------------------------------------------------------- #
#  Normalization
# ------------------------------------------------------------------------- #

def test_normalize_unaffordable_taxon_neutralized():
    inst = make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 2.0)),
        [("x", 0.3, 0.9, 100), ("y", 0.2, 0.8, 1)],
        budget=2,
    )
    norm = normalize(inst)
    assert norm.taxa["x"] == Taxon(id="x", a=0.3, b=0.3, c=0)
    assert norm.taxa["y"] is inst.taxa["y"]     # a taxon left as it is is kept


def test_normalize_gcd_scaling():
    inst = make_instance(
        inner(0.0, leaf("x", 1.0), leaf("y", 2.0)),
        [("x", 0.1, 0.9, 4), ("y", 0.1, 0.8, 6)],
        budget=7,
    )
    norm = normalize(inst)
    assert norm.taxa["x"].c == 2
    assert norm.taxa["y"].c == 3
    assert norm.budget == 3    # 7 // 2: the odd unit buys nothing


def test_normalize_binarizes_polytomy():
    norm = normalize(polytomy_instance())
    assert norm.tree.is_binary()
    assert expected_pd(norm, {"a", "b"}) == pytest.approx(
        expected_pd(polytomy_instance(), {"a", "b"}))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(top=builder_trees(), rnd=st.randoms(use_true_random=False))
def test_normalize_pairs_the_first_two_children(top, rnd):
    """Trees with polytomies and unary chains, children in any order,
    normalize to the reference's binarized tree, field for field."""
    tree = tree_of(shuffled(top, rnd))
    taxa = {t: Taxon(id=t, a=0.25, b=0.75, c=1) for t in tree.leaf_edges}
    got = normalize(Instance(tree=tree, taxa=taxa, budget=1)).tree
    want = tree_of(binarize_reference(top))
    assert got == want
    for edge, ref in zip(got.edges, want.edges):
        assert [repr(x) for x in edge] == [repr(x) for x in ref]


def test_normalize_idempotent():
    for inst in (polytomy_instance(), fig1_instance()):
        once = normalize(inst)
        assert normalize(once) == once


@settings(deadline=None, max_examples=60, derandomize=True)
@given(topo=st.sampled_from(["yule", "caterpillar"]), n=st.integers(1, 12),
       seed=st.integers(0, 10_000), c_lo=st.integers(0, 6),
       c_span=st.integers(0, 10), scale=st.integers(1, 4),
       budget=st.integers(0, 40))
def test_normalize_idempotent_property(topo, n, seed, c_lo, c_span, scale,
                                       budget):
    """Generated instances, with costs sharing a factor and some priced
    above the budget, normalize to a fixed point."""
    base = generate(GenSpec(n=n, topology=topo, seed=seed,
                            c_range=(c_lo, c_lo + c_span)))
    taxa = {tid: Taxon(id=tid, a=tx.a, b=tx.b, c=tx.c * scale)
            for tid, tx in base.taxa.items()}
    once = normalize(Instance(tree=base.tree, taxa=taxa, budget=budget))
    assert normalize(once) == once
