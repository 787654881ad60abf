"""Tests for the newick grammar and the JSON document layer."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from napx.errors import InputError, ParseError
from napx.generators import gen_caterpillar, gen_yule
from napx.io import (SolutionDocument, instance_format_for, load_instance,
                     parse_instance, parse_solution, write_instance,
                     write_solution)
from napx.model import Edge, Instance, PhyloTree, Taxon
from napx.newick import (fmt_float, format_annotated, format_newick,
                         parse_annotated, parse_newick, round12)

from oracles import from_records_reference
from util import builder_trees, data_path, fig1_instance, inner, leaf, shuffled, tree_of


# ------------------------------------------------------------------------- #
#  Plain newick
# ------------------------------------------------------------------------- #

def test_parse_plain_newick():
    tree = parse_newick("((a:1,b:2):0.5,c:3);")
    assert sorted(tree.leaf_edges) == ["a", "b", "c"]
    assert tree.height == 3


def test_format_is_canonical():
    t1 = parse_newick("((b:2,a:1):0.5,c:3);")
    assert format_newick(t1) == "((a:1,b:2):0.5,c:3);"


def test_root_length_emitted_only_if_positive():
    assert format_newick(parse_newick("(a:1,b:2):0;")) == "(a:1,b:2);"
    assert format_newick(parse_newick("(a:1,b:2):4;")) == "(a:1,b:2):4;"


def test_plain_newick_skips_comments():
    tree = parse_newick("(a:1,[ignore me]b:2);")
    assert sorted(tree.leaf_edges) == ["a", "b"]


@pytest.mark.parametrize("text,fragment", [
    ("(a:1,b:2", "unexpected end"),
    ("(a:1,b:2));", "unbalanced"),
    ("(a:1,,b:2);", "expected a subtree"),
    ("(a:1,b:2)extra:1:2;", "unexpected ':'"),
    ("", "unexpected end"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_newick(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_newick("(a:1,\nb:xx);")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


# ------------------------------------------------------------------------- #
#  Annotated newick
# ------------------------------------------------------------------------- #

def test_parse_annotated_round_trip():
    inst, meta = load_instance(data_path("hand.nap.nwk"))
    assert meta == {"name": "hand", "seed": 7}
    assert inst.budget == 2
    assert inst.taxa["w"].c == 2
    text = write_instance(inst, "nwk", name=meta["name"], seed=meta["seed"])
    again, meta2 = parse_instance(text, "nwk")
    assert again == inst and meta2 == meta
    assert write_instance(again, "nwk", name="hand", seed=7) == text


def test_annotated_rejects_interior_annotation():
    text = "[&budget=1]\n(a[&a=0,b=1,c=1]:1,b[&a=0,b=1,c=1]:2)[&a=0,b=1,c=1]:0;"
    with pytest.raises(ParseError):
        parse_annotated(text)


def test_annotated_rejects_duplicate_leaf():
    text = "[&budget=1]\n(a[&a=0,b=1,c=1]:1,a[&a=0,b=1,c=1]:2);"
    with pytest.raises(ParseError, match="duplicate"):
        parse_annotated(text)


def test_annotated_rejects_unknown_header_key():
    text = "[&budget=1,flavor=vanilla]\n(a[&a=0,b=1,c=1]:1,b[&a=0,b=1,c=1]:2);"
    with pytest.raises(ParseError, match="flavor"):
        parse_annotated(text)


@pytest.mark.parametrize("text,line,column,message", [
    ("(a:١٢,b:2);", 1, 4, "expected a branch length after ':'"),
    ("(a:1,b:2e٣);", 1, 9, "unexpected 'e' after a complete subtree"),
    ("[&budget=1]\n(a[&a=0,b=1,c=1]:١);", 2, 18,
     "expected a branch length after ':'"),
    ("[&budget=1]\n(a[&a=1_0,b=1,c=1]:1);", 2, 3,
     "leaf 'a': a=1_0 is not a decimal number"),
    ("[&budget=1]\n(a[&a=nan,b=1,c=1]:1);", 2, 3,
     "leaf 'a': a=nan is not a decimal number"),
    ("[&budget=1]\n(a[&a=0,b=Infinity,c=1]:1);", 2, 3,
     "leaf 'a': b=Infinity is not a decimal number"),
    ("[&budget=1]\n(a[&a=0,b=1,c=٣]:1);", 2, 3,
     "leaf 'a': c=٣ is not a decimal integer"),
    ("[&budget=1_0]\n(a[&a=0,b=1,c=1]:1);", 1, 1,
     "header: budget=1_0 is not a decimal integer"),
    ("[&budget=1,seed=1_0]\n(a[&a=0,b=1,c=1]:1);", 1, 1,
     "header: seed=1_0 is not a decimal integer"),
], ids=["length-arabic", "exponent-arabic", "annotated-length-arabic",
        "a-underscore", "a-nan", "b-infinity", "c-arabic", "budget-underscore",
        "seed-underscore"])
def test_numbers_outside_the_grammar_are_refused(text, line, column, message):
    """Numbers take ASCII digits only, a and b the branch-length grammar
    and c, budget and seed ``[-+]?[0-9]+``, as the JSON format's numbers
    do: Python's ``int`` and ``float`` also read ``1_0``, non-ASCII digits,
    ``nan`` and ``Infinity``, which are refused with their position."""
    parse = parse_annotated if text.startswith("[&") else parse_newick
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    tree, taxa, header = parse_annotated(
        "[&budget=+3,seed=-3]\n(a[&a=.5,b=1.,c=+2]:1E0,b[&a=0,b=1,c=0]:2);")
    assert [e.length for e in tree.edges] == [1.0, 2.0, 0.0]
    assert taxa["a"] == Taxon(id="a", a=0.5, b=1.0, c=2)
    assert (header["budget"], header["seed"]) == (3, -3)


def test_annotated_rejects_bad_name_charset():
    text = "[&budget=1,name=sp ace]\n(a[&a=0,b=1,c=1]:1,b[&a=0,b=1,c=1]:2);"
    with pytest.raises(ParseError):
        parse_annotated(text)


def test_format_annotated_shape():
    text = format_annotated(fig1_instance(), name="fig", seed=None)
    head, body, tail = text.split("\n")
    assert head == "[&budget=3,name=fig]"
    assert body.endswith(";")
    assert "w[&a=0,b=1,c=2]:120" in body
    assert tail == ""                      # newline-terminated


# ------------------------------------------------------------------------- #
#  Pinned parse outcomes
# ------------------------------------------------------------------------- #

def _outcome(dialect: str, text: str) -> dict:
    """What parsing ``text`` gives: the canonical edges, taxa and header of
    an accepted text, or the error and its position for a rejected one."""
    try:
        if dialect == "plain":
            tree, taxa, header = parse_newick(text), None, None
        else:
            tree, taxa, header = parse_annotated(text)
    except ParseError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "line": exc.line, "column": exc.column}
    out = {"edges": [[repr(e.length), list(e.children), e.taxon]
                     for e in tree.edges]}
    if taxa is not None:
        out["taxa"] = {k: [repr(t.a), repr(t.b), t.c] for k, t in taxa.items()}
        out["header"] = header
    return out


def test_parse_outcomes_match_pinned_corpus():
    """Hand-written and fuzzed texts in both dialects (CRLF, tabs, comments,
    unclosed comments, interior annotations, duplicate leaves, bad headers,
    trailing text) keep the outcome recorded in newick_cases.json: the same
    tree, taxa and header, or the same message at the same line and column."""
    with open(data_path("newick_cases.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) >= 300
    for case in cases:
        want = {k: v for k, v in case.items() if k not in ("dialect", "text")}
        assert _outcome(case["dialect"], case["text"]) == want, case["text"]


@pytest.mark.parametrize("fmt", ["json", "nwk"])
def test_deep_caterpillar_round_trip(fmt):
    """A 5 000-leaf comb nests 5 000 groups deep; both formats write and
    parse it back equal without recursion."""
    n = 5000
    labels = [f"t{i:04d}" for i in range(n)]
    top = leaf(labels[0], 1.0)
    for i, label in enumerate(labels[1:], 1):
        top = inner(0.5, top, leaf(label, i))
    taxa = {t: Taxon(id=t, a=0.25, b=0.75, c=1) for t in labels}
    inst = Instance(tree=tree_of(top), taxa=taxa, budget=10)
    assert inst.tree.height == n
    text = write_instance(inst, fmt)
    back, _ = parse_instance(text, fmt)
    assert back == inst
    assert write_instance(back, fmt) == text


@settings(deadline=None, max_examples=200, derandomize=True)
@given(top=builder_trees(), rnd=st.randoms(use_true_random=False))
def test_every_path_builds_the_same_tree(top, rnd):
    """from_records, with the children in any order, and both readers on
    the writers' output give one and the same tree, edge for edge and bit
    for bit the general builder's, and of named tuples: a plain tuple would
    compare equal to an edge."""
    want = tree_of(top, from_records_reference)
    tree = tree_of(top)
    taxa = {t: Taxon(id=t, a=0.25, b=0.75, c=1) for t in tree.leaf_edges}
    back, back_taxa, _ = parse_annotated(format_annotated(Instance(tree, taxa, 1)))
    assert back_taxa == taxa
    assert all(type(tx) is Taxon for tx in back_taxa.values())
    for got in (tree, tree_of(shuffled(top, rnd)),
                parse_newick(format_newick(tree)), back):
        assert got == want
        for edge, ref in zip(got.edges, want.edges):
            assert type(edge) is Edge
            assert [repr(x) for x in edge] == [repr(x) for x in ref]


@pytest.mark.parametrize("topo", ["yule", "caterpillar"])
@pytest.mark.parametrize("fmt", ["json", "nwk"])
def test_readers_build_written_trees_without_from_records(topo, fmt, monkeypatch):
    """Every file napx writes lists its children in label order, so both
    readers build its tree in their own pass and never call the general
    builder; it stays the one builder of any other text (next test)."""
    gen = gen_yule if topo == "yule" else gen_caterpillar
    instances = [gen(n, seed) for n in range(2, 65) for seed in (1, 2)]
    texts = [write_instance(inst, fmt) for inst in instances]

    def refuse(*records):
        raise AssertionError("from_records was called")
    monkeypatch.setattr(PhyloTree, "from_records", staticmethod(refuse))
    for inst, text in zip(instances, texts):
        back, _ = parse_instance(text, fmt)
        assert back == inst
        assert all(type(e) is Edge for e in back.tree.edges)
        assert all(type(tx) is Taxon for tx in back.taxa.values())


_LEAF = "[&a=0,b=1,c=1]"


@pytest.mark.parametrize("dialect,text,edges", [
    ("plain", "(b:2,a:1);", [(1.0, (), "a"), (2.0, (), "b"), (0.0, (0, 1), None)]),
    ("plain", "(c:3,a:1,b:2);",
     [(1.0, (), "a"), (2.0, (), "b"), (3.0, (), "c"), (0.0, (0, 1, 2), None)]),
    ("plain", "(((a:1):2,b:3):0.5,c:4);",
     [(3.0, (), "a"), (3.0, (), "b"), (0.5, (0, 1), None), (4.0, (), "c"),
      (0.0, (2, 3), None)]),
    ("plain", "a:1;", [(1.0, (), "a"), (0.0, (0,), None)]),
    ("annotated", f"[&budget=1]\nz{_LEAF}:2;", [(2.0, (), "z"), (0.0, (0,), None)]),
    ("annotated", f"[&budget=1]\n((b{_LEAF}:2,c{_LEAF}:3):1,a{_LEAF}:1);",
     [(1.0, (), "a"), (2.0, (), "b"), (3.0, (), "c"), (1.0, (1, 2), None),
      (0.0, (0, 3), None)]),
], ids=["out-of-order", "polytomy", "unary-chain", "lone-leaf",
        "annotated-lone-leaf", "annotated-out-of-order"])
def test_other_texts_reach_the_general_builder(dialect, text, edges, monkeypatch):
    """Text whose records are not the canonical postorder (children out of
    label order, a polytomy, a unary chain, or a lone leaf, whose labelled
    top record goes under a root edge) is built by from_records alone."""
    parse = parse_newick if dialect == "plain" else (lambda t: parse_annotated(t)[0])
    tree = parse(text)
    assert [(e.length, e.children, e.taxon) for e in tree.edges] == edges
    assert all(type(e) is Edge for e in tree.edges)

    class Called(Exception):
        pass

    def refuse(*records):
        raise Called
    monkeypatch.setattr(PhyloTree, "from_records", staticmethod(refuse))
    with pytest.raises(Called):
        parse(text)


# ------------------------------------------------------------------------- #
#  Float formatting
# ------------------------------------------------------------------------- #

def test_fmt_float_short_and_exact():
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(3.0) == "3"
    assert float(fmt_float(round12(1 / 3))) == round12(1 / 3)


# ------------------------------------------------------------------------- #
#  JSON documents
# ------------------------------------------------------------------------- #

def test_json_instance_round_trip():
    inst, meta = load_instance(data_path("hand.nap.json"))
    text = write_instance(inst, "json", name=meta["name"], seed=meta["seed"])
    again, meta2 = parse_instance(text, "json")
    assert again == inst and meta2 == meta
    assert write_instance(again, "json", name="hand", seed=7) == text


def test_json_rejects_unknown_keys():
    doc = json.loads(write_instance(fig1_instance(), "json"))
    doc["surprise"] = 1
    with pytest.raises(ParseError, match="surprise"):
        parse_instance(json.dumps(doc), "json")


def test_json_rejects_bool_budget():
    doc = json.loads(write_instance(fig1_instance(), "json"))
    doc["budget"] = True
    with pytest.raises(ParseError, match="budget"):
        parse_instance(json.dumps(doc), "json")


def test_json_rejects_extra_taxon_field():
    doc = json.loads(write_instance(fig1_instance(), "json"))
    doc["taxa"]["w"]["d"] = 1
    with pytest.raises(ParseError, match="exactly"):
        parse_instance(json.dumps(doc), "json")


def test_instance_format_for():
    assert instance_format_for("x.nap.json") == "json"
    assert instance_format_for("x.nap.nwk") == "nwk"
    with pytest.raises(InputError):
        instance_format_for("x.txt")


def test_solution_document_round_trip():
    doc = SolutionDocument(
        solver="napx", budget=3, selected=("w", "y"), total_cost=3,
        reported_score=230.0, evaluated_score=230.0, instance="fig",
        params={"epsilon": 0.05, "t": 47}, stats={"wall_s": 0.25})
    text = write_solution(doc)
    back = parse_solution(text)
    assert back.selected == ("w", "y")
    assert back.reported_score == 230.0
    assert back.params["t"] == 47
    assert write_solution(back) == text


def test_solution_rejects_missing_keys():
    with pytest.raises(ParseError, match="missing"):
        parse_solution('{"format": "nap-solution", "version": 1}')


@pytest.mark.parametrize("version", [True, 1.0])
@pytest.mark.parametrize("parse, doc", [
    (lambda text: parse_instance(text, "json"),
     json.loads(write_instance(fig1_instance(), "json"))),
    (parse_solution, {"format": "nap-solution", "selected": []}),
], ids=["instance", "solution"])
def test_version_must_be_the_integer_1(parse, doc, version):
    with pytest.raises(ParseError, match="unsupported version"):
        parse(json.dumps(dict(doc, version=version)))


# ------------------------------------------------------------------------- #
#  Whole-file identity on generated instances
# ------------------------------------------------------------------------- #

@settings(deadline=None, max_examples=30, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
       fmt=st.sampled_from(["json", "nwk"]),
       topo=st.sampled_from(["yule", "caterpillar"]))
def test_write_parse_identity_generated(seed, n, fmt, topo):
    """parse(write(x)) == x and re-serialization is byte-stable for any
    generated instance, in both formats."""
    gen = gen_yule if topo == "yule" else gen_caterpillar
    inst = gen(n, seed)
    text = write_instance(inst, fmt, name="g", seed=seed)
    back, _ = parse_instance(text, fmt)
    assert back == inst
    assert write_instance(back, fmt, name="g", seed=seed) == text
