"""Tests for the seeded instance generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from napx.errors import InputError, SizeLimitError
from napx.generators import (GEN_LIMIT, GenSpec, gen_caterpillar, gen_yule,
                             generate)
from napx.io import write_instance
from napx.model import validate_instance


def test_determinism():
    a = gen_yule(12, 7)
    b = gen_yule(12, 7)
    assert a == b
    assert gen_yule(12, 8) != a


def test_generated_bytes_are_pinned():
    """Both formats of instances over both topologies, small and large n,
    the smallest, a middle and the largest seed, and default and custom
    ranges hash to one pinned digest, so a changed Philox draw order, label
    or rounding shows here and not only between two runs of the same code."""
    custom = dict(a_range=(0, 0), b_range=(1, 1), c_range=(1, 40), budget=17)
    digest = hashlib.sha256()
    for topology in ("yule", "caterpillar"):
        for n in (1, 2, 3, 5, 17, 64, 300):
            for seed in (0, 1, 2**128 - 1):
                for kwargs in ({}, custom):
                    inst = generate(GenSpec(n=n, topology=topology, seed=seed, **kwargs))
                    digest.update(write_instance(inst, "json").encode())
                    digest.update(write_instance(inst, "nwk").encode())
    assert digest.hexdigest() == (
        "fcbe406a07df552e2a4058053661d4b75667da7bee6549c92c96550c98b06490")


def test_labels_and_count():
    inst = gen_yule(11, 0)
    assert sorted(inst.taxa) == [f"t{i:02d}" for i in range(11)]
    assert inst.tree.n_leaves == 11
    wide = gen_yule(120, 0)
    assert "t000" in wide.taxa and "t119" in wide.taxa


def test_caterpillar_shape():
    inst = gen_caterpillar(6, 0)
    assert inst.tree.height == 6          # root edge plus the full spine
    assert inst.tree.is_binary()


def test_single_leaf():
    inst = gen_yule(1, 3)
    assert inst.tree.n_leaves == 1
    validate_instance(inst)


def test_attribute_ranges():
    inst = gen_yule(40, 5)
    for tx in inst.taxa.values():
        assert 0.0 <= tx.a <= 0.3
        assert tx.a <= tx.b <= 1.0
        assert tx.b >= 0.5
        assert 1 <= tx.c <= 5
    for e in inst.tree.edges:
        if e.eid != inst.tree.root:
            assert 0.0 < e.length <= 1.0
    assert inst.tree.edges[inst.tree.root].length == 0.0


def test_default_budget_is_third_of_cost():
    inst = gen_yule(9, 2)
    total = sum(tx.c for tx in inst.taxa.values())
    assert inst.budget == (total + 2) // 3


def test_budget_override():
    assert gen_yule(5, 1, budget=17).budget == 17


def test_generated_instances_validate():
    for seed in range(5):
        validate_instance(gen_yule(10, seed))
        validate_instance(gen_caterpillar(10, seed))


def test_custom_ranges():
    inst = generate(GenSpec(n=6, topology="yule", seed=0,
                            a_range=(0.0, 0.0), b_range=(1.0, 1.0),
                            c_range=(2, 2)))
    for tx in inst.taxa.values():
        assert tx.a == 0.0 and tx.b == 1.0 and tx.c == 2


@pytest.mark.parametrize("kwargs", [
    dict(n=0),
    dict(n=3, topology="star"),
    dict(n=3, a_range=(0.5, 0.2)),
    dict(n=3, a_range=(0.0, 0.9), b_range=(0.1, 0.5)),
    dict(n=3, c_range=(-1, 2)),
    dict(n=3, budget=-1),
    dict(seed=-1),
    dict(seed=2**128),
    dict(n=3, c_range=(1, 2**63)),
    dict(n=3.0),
    dict(n=3.0, topology="caterpillar"),
    dict(n=True),
    dict(seed=1.5),
    dict(seed=True),
    dict(n=3, c_range=(1.0, 5.5)),
    dict(n=3, c_range=(False, 3)),
    dict(n=3, budget=2.0),
    *(dict(n=3, **{name: bad}) for name in ("a_range", "b_range", "c_range")
      for bad in [(1,), (0, 0.1, 0.2), 5, None, ("0", "0.1"), (False, True),
                  (0, True)]),
])
def test_bad_specs_rejected(kwargs):
    base = dict(n=4, topology="yule", seed=0)
    base.update(kwargs)
    with pytest.raises(InputError):
        generate(GenSpec(**base))


@pytest.mark.parametrize("n", [GEN_LIMIT + 1, 2**40])
def test_leaf_count_above_the_limit_is_refused_before_any_draw(n):
    """A spec of more than GEN_LIMIT leaves is refused as too large when it
    is made, with almost nothing allocated."""
    assert GEN_LIMIT == 2**17
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"got n={n}$"):
            GenSpec(n=n, topology="yule", seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_largest_cost_range_generates():
    """2**63 - 1, the largest int64, is the highest cost bound numpy can
    draw, and it generates."""
    inst = gen_yule(3, 0, c_range=(2**63 - 1, 2**63 - 1))
    assert [tx.c for tx in inst.taxa.values()] == [2**63 - 1] * 3


def test_yule_heights_stay_logarithmic():
    heights = [gen_yule(50, seed).tree.height for seed in range(30)]
    assert float(np.mean(heights)) <= 4 * np.log2(50)
