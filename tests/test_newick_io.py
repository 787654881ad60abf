"""Tests for the newick grammar and the JSON document layer."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from napx.errors import InputError, ParseError
from napx.generators import gen_caterpillar, gen_yule
from napx.io import (SolutionDocument, instance_format_for, load_instance,
                     parse_instance, parse_solution, write_instance,
                     write_solution)
from napx.model import Instance, PhyloTree, Taxon, TreeNode
from napx.newick import (fmt_float, format_annotated, format_newick,
                         parse_annotated, parse_newick, round12)

from util import data_path, fig1_instance


# ------------------------------------------------------------------------- #
#  Plain newick
# ------------------------------------------------------------------------- #

def test_parse_plain_newick():
    tree = PhyloTree.from_node(parse_newick("((a:1,b:2):0.5,c:3);"))
    assert sorted(tree.leaf_edges) == ["a", "b", "c"]
    assert tree.height == 3


def test_format_is_canonical():
    t1 = PhyloTree.from_node(parse_newick("((b:2,a:1):0.5,c:3);"))
    assert format_newick(t1) == "((a:1,b:2):0.5,c:3);"


def test_root_length_emitted_only_if_positive():
    assert format_newick(PhyloTree.from_node(
        parse_newick("(a:1,b:2):0;"))) == "(a:1,b:2);"
    assert format_newick(PhyloTree.from_node(
        parse_newick("(a:1,b:2):4;"))) == "(a:1,b:2):4;"


def test_plain_newick_skips_comments():
    tree = PhyloTree.from_node(parse_newick("(a:1,[ignore me]b:2);"))
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
            top, taxa, header = parse_newick(text), None, None
        else:
            top, taxa, header = parse_annotated(text)
    except ParseError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "line": exc.line, "column": exc.column}
    tree = PhyloTree.from_node(top)
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
    top = TreeNode(taxon=labels[0], length=1.0)
    for i, label in enumerate(labels[1:], 1):
        top = TreeNode(length=0.5, children=[top, TreeNode(taxon=label, length=float(i))])
    taxa = {t: Taxon(id=t, a=0.25, b=0.75, c=1) for t in labels}
    inst = Instance(tree=PhyloTree.from_node(top), taxa=taxa, budget=10)
    assert inst.tree.height == n
    text = write_instance(inst, fmt)
    back, _ = parse_instance(text, fmt)
    assert back == inst
    assert write_instance(back, fmt) == text


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
