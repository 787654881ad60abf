"""Newick reading and writing, plain and annotated.

Two dialects are supported:

* plain newick, used for the tree field of the JSON format:
  ``((x:1,y:2):0.5,z:3);``. Square-bracket comments are skipped.

* annotated newick, the self-contained single-file format. A header
  comment carries the budget (and optionally a name and a seed), and every
  leaf label is followed by its taxon data::

      [&budget=4,name=demo,seed=7]
      ((x[&a=0.1,b=0.9,c=2]:1,y[&a=0,b=1,c=3]:2):0.5,z[&a=0.2,b=0.7,c=1]:3);

Writers are canonical: children are written in the tree's own order
(smallest leaf label first, see :meth:`PhyloTree.from_node`), floats are
rendered with 12 significant digits, and the top-level length is written
only when it is positive. Parsing a written file reproduces the written
values exactly whenever the instance's floats already sit on the 12-digit
grid (see :func:`round12`).

The parser tracks only an offset into the text; the line and column of a
:class:`ParseError` are worked out from that offset when it is raised.
"""

from __future__ import annotations

import re

from .errors import InputError, ParseError
from .model import Instance, PhyloTree, Taxon, TreeNode

__all__ = [
    "parse_newick",
    "parse_annotated",
    "format_newick",
    "format_annotated",
    "fmt_float",
    "round12",
]

_LABEL_RE = re.compile(r"[A-Za-z0-9_.\-|]+")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")
_KEY_RE = re.compile(r"[A-Za-z_]+")
_VALUE_RE = re.compile(r"[^,\]\s]+")
_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_SPACE_RE = re.compile(r"[ \t\r\n]*")
_SPACE_OR_COMMENT_RE = re.compile(r"(?:[ \t\r\n]+|\[[^\]]*\])*")


def fmt_float(x: float) -> str:
    """Canonical text form of a float: 12 significant digits."""
    return f"{float(x):.12g}"


def round12(x: float) -> float:
    """Snap a float onto the 12-significant-digit grid used by writers."""
    return float(fmt_float(x))


# ------------------------------------------------------------------------- #
#  Scanner
# ------------------------------------------------------------------------- #

class _Scanner:
    """Cursor over the text: an offset, with positions worked out on error."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def match(self, regex: re.Pattern) -> str | None:
        m = regex.match(self.text, self.pos)
        if m is None or m.end() == self.pos:
            return None
        self.pos = m.end()
        return m.group(0)

    def expect(self, literal: str, what: str | None = None) -> None:
        if not self.text.startswith(literal, self.pos):
            self.fail(f"expected {what or literal!r}")
        self.pos += len(literal)

    def fail(self, message: str, at: int | None = None):
        """Raise at offset ``at`` (default: the cursor) as a line and column."""
        at = self.pos if at is None else at
        line = self.text.count("\n", 0, at) + 1
        raise ParseError(message, line=line,
                         column=at - self.text.rfind("\n", 0, at))


def _skip_trivia(sc: _Scanner, skip_comments: bool) -> None:
    regex = _SPACE_OR_COMMENT_RE if skip_comments else _SPACE_RE
    sc.pos = regex.match(sc.text, sc.pos).end()
    if skip_comments and sc.peek() == "[":
        sc.pos = len(sc.text)           # an unclosed comment runs to the end
        sc.expect("]", "closing ']' of comment")


# ------------------------------------------------------------------------- #
#  Parsing
# ------------------------------------------------------------------------- #

def _parse_annotation(sc: _Scanner) -> dict[str, str]:
    """Read one ``[&key=value,...]`` block into a string map."""
    sc.expect("[&", "'[&' annotation")
    out: dict[str, str] = {}
    while True:
        _skip_trivia(sc, False)
        key = sc.match(_KEY_RE)
        if key is None:
            sc.fail("expected an annotation key")
        _skip_trivia(sc, False)
        sc.expect("=")
        _skip_trivia(sc, False)
        val = sc.match(_VALUE_RE)
        if val is None:
            sc.fail(f"missing value for annotation key {key!r}")
        if key in out:
            sc.fail(f"duplicate annotation key {key!r}")
        out[key] = val
        _skip_trivia(sc, False)
        if sc.peek() == ",":
            sc.pos += 1
            continue
        sc.expect("]", "closing ']' of annotation")
        return out


def _leaf_taxon(sc: _Scanner, label: str, ann: dict[str, str], at: int) -> Taxon:
    if set(ann) != {"a", "b", "c"}:
        sc.fail(f"leaf {label!r}: annotation must have exactly the keys a, b, c", at)
    try:
        return Taxon(id=label, a=float(ann["a"]), b=float(ann["b"]), c=int(ann["c"]))
    except ValueError as exc:
        sc.fail(f"leaf {label!r}: {exc}", at)


def _decorate(sc: _Scanner, node: TreeNode, annotated: bool,
              taxa: dict[str, Taxon]) -> TreeNode:
    """Consume the optional label, annotation and length after a subtree."""
    if node.taxon is None:
        sc.match(_LABEL_RE)             # interior labels are read and dropped
    _skip_trivia(sc, not annotated)
    if annotated and sc.peek() == "[":
        at = sc.pos
        ann = _parse_annotation(sc)
        if node.taxon is None:
            sc.fail("annotation on an interior edge", at)
        if node.taxon in taxa:
            sc.fail(f"duplicate leaf label {node.taxon!r}", at)
        taxa[node.taxon] = _leaf_taxon(sc, node.taxon, ann, at)
    elif annotated and node.taxon is not None:
        sc.fail(f"leaf {node.taxon!r} is missing its [&a=...,b=...,c=...] annotation")
    _skip_trivia(sc, not annotated)
    if sc.peek() == ":":
        sc.pos += 1
        _skip_trivia(sc, not annotated)
        num = sc.match(_NUMBER_RE)
        if num is None:
            sc.fail("expected a branch length after ':'")
        node.length = float(num)
    return node


def _parse_tree_body(sc: _Scanner, annotated: bool) -> tuple[TreeNode, dict[str, Taxon]]:
    taxa: dict[str, Taxon] = {}
    stack: list[list[TreeNode]] = []
    current: TreeNode | None = None
    while True:
        _skip_trivia(sc, not annotated)
        ch = sc.peek()
        if ch == "":
            sc.fail("unexpected end of input")
        elif ch == "(":
            if current is not None:
                sc.fail("unexpected '(' after a complete subtree")
            sc.pos += 1
            stack.append([])
        elif ch == ",":
            if current is None:
                sc.fail("expected a subtree before ','")
            if not stack:
                sc.fail("',' outside any group")
            sc.pos += 1
            stack[-1].append(current)
            current = None
        elif ch == ")":
            if current is None:
                sc.fail("expected a subtree before ')'")
            if not stack:
                sc.fail("unbalanced ')'")
            sc.pos += 1
            children = stack.pop()
            children.append(current)
            current = _decorate(sc, TreeNode(children=children), annotated, taxa)
        elif ch == ";":
            if stack:
                sc.fail("unbalanced '(': group never closed")
            if current is None:
                sc.fail("empty tree")
            sc.pos += 1
            _skip_trivia(sc, not annotated)
            if sc.pos < len(sc.text):
                sc.fail("trailing text after ';'")
            return current, taxa
        else:
            if current is not None:
                sc.fail(f"unexpected {ch!r} after a complete subtree")
            label = sc.match(_LABEL_RE)
            if label is None:
                sc.fail(f"unexpected character {ch!r}")
            current = _decorate(sc, TreeNode(taxon=label), annotated, taxa)


def parse_newick(text: str) -> TreeNode:
    """Parse a plain newick string into builder nodes.

    Bracket comments are ignored. Interior labels are accepted and
    discarded. Raises :class:`ParseError` with line and column on any
    syntax problem.
    """
    return _parse_tree_body(_Scanner(text), annotated=False)[0]


def parse_annotated(text: str) -> tuple[TreeNode, dict[str, Taxon], dict]:
    """Parse the annotated single-file format.

    Returns the tree's builder nodes, the taxon table collected from leaf
    annotations, and a header mapping with keys ``budget`` (int), ``name``
    (str or None) and ``seed`` (int or None).
    """
    sc = _Scanner(text)
    _skip_trivia(sc, False)
    if sc.peek() != "[":
        sc.fail("expected a [&budget=...] header")
    at = sc.pos
    ann = _parse_annotation(sc)
    unknown = sorted(set(ann) - {"budget", "name", "seed"})
    if unknown:
        sc.fail("unknown header keys: " + ", ".join(unknown), at)
    if "budget" not in ann:
        sc.fail("header is missing the budget", at)
    try:
        budget = int(ann["budget"])
        seed = int(ann["seed"]) if "seed" in ann else None
    except ValueError as exc:
        sc.fail(f"header: {exc}", at)
    name = ann.get("name")
    if name is not None and not _NAME_RE.fullmatch(name):
        sc.fail(f"header: name {name!r} has characters outside [A-Za-z0-9_.-]", at)
    top, taxa = _parse_tree_body(sc, annotated=True)
    return top, taxa, {"budget": budget, "name": name, "seed": seed}


# ------------------------------------------------------------------------- #
#  Writing
# ------------------------------------------------------------------------- #

def _check_label(label: str) -> str:
    if not _LABEL_RE.fullmatch(label):
        raise InputError(f"leaf label {label!r} has characters outside "
                         "[A-Za-z0-9_.|-] and cannot be written")
    return label


def _render(tree: PhyloTree, taxa: dict[str, Taxon] | None) -> str:
    """Tree text with children in the tree's own (canonical) order.

    One depth-first walk appends every piece of text once, so writing is
    linear in the text at any depth.
    """
    pieces: list[str] = []
    todo: list[int | str] = [tree.root]  # edge ids to write, or literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        e = tree.edges[item]
        if e.taxon is not None:
            label = _check_label(e.taxon)
            ann = ""
            if taxa is not None:
                tx = taxa[label]
                ann = (f"[&a={fmt_float(tx.a)},b={fmt_float(tx.b)},"
                       f"c={int(tx.c)}]")
            pieces.append(f"{label}{ann}:{fmt_float(e.length)}")
            continue
        close = ")"
        if e.eid != tree.root or e.length > 0:
            close += f":{fmt_float(e.length)}"
        pieces.append("(")
        todo.append(close)
        for k in reversed(e.children[1:]):
            todo += [k, ","]
        todo.append(e.children[0])
    return "".join(pieces) + ";"


def format_newick(tree: PhyloTree) -> str:
    """Canonical plain newick for a tree, without a trailing newline."""
    return _render(tree, None)


def format_annotated(instance: Instance, *, name: str | None = None,
                     seed: int | None = None) -> str:
    """Full annotated-file content for an instance, newline-terminated."""
    parts = [f"budget={int(instance.budget)}"]
    if name is not None:
        if not _NAME_RE.fullmatch(name):
            raise InputError(f"name {name!r} has characters outside [A-Za-z0-9_.-]")
        parts.append(f"name={name}")
    if seed is not None:
        parts.append(f"seed={int(seed)}")
    header = "[&" + ",".join(parts) + "]"
    return header + "\n" + _render(instance.tree, instance.taxa) + "\n"
