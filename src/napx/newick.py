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
(smallest leaf label first, see :meth:`PhyloTree.from_records`), floats
are rendered with 12 significant digits, and the top-level length is
written only when it is positive. Parsing a written file reproduces the
written values exactly whenever the instance's floats already sit on the
12-digit grid (see :func:`round12`).

The reader is one pass with two states, after a subtree or not. A step
is one match of a compound pattern: trivia, then a ``)`` and its interior
label, a ``;``, or an optional ``,`` with the ``(`` and leaf label after
it, and after a label or ``)`` the trivia, ``:`` and branch length. An
annotation takes one match per ``key=value`` entry; the last also takes
the length after it. No part after the leading trivia is required, so a
match never fails and the first missing group marks the offset of an
error. Only offsets are kept; a :class:`ParseError` works out its line and
column when raised. The reader keeps flat postorder records (length,
child record ids, leaf label) and drops interior labels.

Who builds the tree: text in canonical order, as every napx writer
emits it (each group two children, the one with the smaller leaf label
first, under an unlabelled top), is already the canonical postorder, so
the reader builds its edges in its own pass. Any other text, such as a
polytomy, a unary chain, children out of label order or a lone leaf,
goes to :meth:`PhyloTree.from_records`, which builds the same tree from
any records.
"""

from __future__ import annotations

import re

from .errors import InputError, ParseError
from .model import Instance, PhyloTree, Taxon, new_edge, new_taxon

__all__ = [
    "parse_newick",
    "parse_annotated",
    "format_newick",
    "format_annotated",
    "fmt_float",
    "round12",
]

_LABEL = r"[A-Za-z0-9_.\-|]"
_NUMBER = r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_SPACE = r"[ \t\r\n]*"
_TRIVIA = r"(?:[ \t\r\n]|\[[^\]]*\])*"   # plain newick skips comments too


def _tail(trivia: str) -> str:
    """The trivia, ``:`` and branch length after a label or ``)``."""
    return rf"{trivia}(?:(:){trivia}({_NUMBER})?)?"


def _step(trivia: str, after_leaf: str) -> re.Pattern:
    """Groups: 1 ``)``, 2 ``:`` and 3 the length after it, 4 ``;``,
    5 ``,``, 6 the ``(`` before a leaf, 7 its label, then ``after_leaf``'s."""
    return re.compile(rf"{trivia}(?:(\)){_LABEL}*{_tail(trivia)}|(;){trivia}"
                      rf"|(,)?((?:{trivia}\()*){trivia}(?:({_LABEL}+){after_leaf})?)")


_STEP_RE = {False: _step(_TRIVIA, _tail(_TRIVIA)), True: _step(_SPACE, _SPACE)}
# groups: 1 key, 2 '=', 3 value (each empty where missing), 4 ',', 5 ']',
# 6 ':' and 7 the length after it
_ENTRY_RE = re.compile(rf"{_SPACE}([A-Za-z_]*){_SPACE}(=?){_SPACE}([^,\]\s]*)"
                       rf"{_SPACE}(?:(,)|(\]){_tail(_SPACE)})?")
_COMMENT_RE = re.compile(r"\[[^\]]*\]")
_LABEL_RE = re.compile(_LABEL + "+")
_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_GRAMMAR = {float: re.compile(_NUMBER), int: re.compile(r"[-+]?[0-9]+")}


def fmt_float(x: float) -> str:
    """Canonical text form of a float: 12 significant digits."""
    return f"{float(x):.12g}"


def round12(x: float) -> float:
    """Snap a float onto the 12-significant-digit grid used by writers."""
    return float(fmt_float(x))


# ------------------------------------------------------------------------- #
#  Reading
# ------------------------------------------------------------------------- #

def _fail(text: str, message: str, at: int, comments: bool = False):
    """Raise at offset ``at`` of ``text``, as a line and column. Where
    ``comments`` are trivia, a ``[`` there opens a comment never closed."""
    if comments and text.startswith("[", at):
        message, at = "expected \"closing ']' of comment\"", len(text)
    raise ParseError(message, line=text.count("\n", 0, at) + 1,
                     column=at - text.rfind("\n", 0, at))


def _stray(text: str, at: int, after: bool, nested: bool, comments: bool):
    """Fail at ``at``, whose character cannot come next: ``after`` says
    whether a subtree was just read, ``nested`` whether a group is open."""
    ch = text[at:at + 1]
    if not ch:
        message = "unexpected end of input"
    elif after and not nested and ch in ",)":
        message = "',' outside any group" if ch == "," else "unbalanced ')'"
    elif after:
        message = f"unexpected {ch!r} after a complete subtree"
    elif ch in ",)":
        message = f"expected a subtree before {ch!r}"
    elif ch == ";":
        message = "unbalanced '(': group never closed" if nested else "empty tree"
    else:
        message = f"unexpected character {ch!r}"
    _fail(text, message, at, comments)


def _value(ann: dict[str, str], key: str, kind: type) -> int | float:
    """Annotation value ``key`` as ``kind``, refused outside the number
    grammar: ``int`` and ``float`` alone also take ``1_0``, ``nan`` and
    non-ASCII digits."""
    value = ann[key]
    number = kind(value)
    if not _GRAMMAR[kind].fullmatch(value):
        raise ValueError(f"{key}={value} is not a decimal "
                         f"{'integer' if kind is int else 'number'}")
    return number


def _no_length(text: str, colon: str | None, at: int, comments: bool) -> float:
    """0 for an edge without ``:``; else the missing number's error."""
    if colon is not None:
        _fail(text, "expected a branch length after ':'", at, comments)
    return 0.0


def _annotation(text: str, at: int) -> tuple[dict[str, str], re.Match]:
    """Read the ``[&key=value,...]`` block at ``at`` into a string map,
    and the last entry's match: its groups 6, 7 hold the length after it."""
    if not text.startswith("[&", at):
        _fail(text, "expected \"'[&' annotation\"", at)
    out: dict[str, str] = {}
    pos = at + 2
    while True:
        m = _ENTRY_RE.match(text, pos)
        key, eq, value, comma, close, _, _ = m.groups()
        if not key:
            _fail(text, "expected an annotation key", m.start(1))
        if not eq:
            _fail(text, "expected '='", m.start(2))
        if not value:
            _fail(text, f"missing value for annotation key {key!r}", m.start(3))
        if key in out:
            _fail(text, f"duplicate annotation key {key!r}", m.end(3))
        out[key] = value
        if close is not None:
            return out, m
        if comma is None:
            _fail(text, "expected \"closing ']' of annotation\"", m.end())
        pos = m.end()


def _read_tree(text: str, pos: int, annotated: bool):
    """Read the tree from ``pos`` to the end of ``text`` as flat postorder
    records, and build it; returns the tree and the leaf annotations' taxa.

    While every group read has two children in label order, the records
    are already the canonical postorder of :meth:`PhyloTree.from_records`,
    and the reader keeps each record's height and smallest leaf label to
    build the edges itself; other records go to ``from_records``."""
    step = _STEP_RE[annotated].match
    comments = not annotated
    lengths: list[float] = []
    children: list[tuple[int, ...]] = []
    labels: list[str | None] = []
    low: list[str] = []      # smallest leaf label below each record, while canonical
    heights: list[int] = []  # and its height
    canonical = True
    taxa: dict[str, Taxon] = {}
    done: list[int] = []     # ids of the subtrees read in the open groups
    opened: list[int] = []   # for each open group, where its subtrees start in done
    after = False            # a subtree was just read
    while True:
        m = step(text, pos)
        close, colon, number, semi, comma, opens, label = m.group(1, 2, 3, 4, 5, 6, 7)
        pos = m.end()
        if semi is not None:
            if opened or not after:
                _stray(text, m.start(4), False, bool(opened), comments)
            if pos < len(text):
                _fail(text, "trailing text after ';'", pos, comments)
            if canonical and labels[-1] is None:    # a lone leaf needs a root edge
                edges = tuple(map(new_edge, zip(range(len(labels)), lengths,
                                                children, labels, heights)))
                return PhyloTree(edges=edges, root=len(edges) - 1), taxa
            return PhyloTree.from_records(lengths, children, labels), taxa
        if close is not None:
            if not (after and opened):
                _stray(text, m.start(1), after, bool(opened), comments)
            if annotated and colon is None and text.startswith("[", pos):
                _annotation(text, pos)
                _fail(text, "annotation on an interior edge", pos)
            start = opened.pop()
            kids = tuple(done[start:])
            del done[start:]
            if canonical:
                if len(kids) == 2 and low[kids[0]] <= low[kids[1]]:
                    first, second = heights[kids[0]], heights[kids[1]]
                    heights.append((first if first >= second else second) + 1)
                    low.append(low[kids[0]])
                else:
                    canonical = False
        else:
            if comma is not None:
                if not (after and opened):
                    _stray(text, m.start(5), after, bool(opened), comments)
            elif after:
                _stray(text, m.start(6), True, bool(opened), comments)
            if opens:
                if comments and "[" in opens:
                    opens = _COMMENT_RE.sub("", opens)
                opened += [len(done)] * opens.count("(")
            if label is None:
                _stray(text, pos, False, bool(opened), comments)
            if annotated:
                if not text.startswith("[", pos):
                    _fail(text, f"leaf {label!r} is missing its "
                          "[&a=...,b=...,c=...] annotation", pos)
                ann, m = _annotation(text, pos)
                if label in taxa:
                    _fail(text, f"duplicate leaf label {label!r}", pos)
                if ann.keys() != {"a", "b", "c"}:
                    _fail(text, f"leaf {label!r}: annotation must have exactly "
                          "the keys a, b, c", pos)
                try:
                    taxa[label] = new_taxon((label, _value(ann, "a", float),
                                             _value(ann, "b", float),
                                             _value(ann, "c", int)))
                except ValueError as exc:
                    _fail(text, f"leaf {label!r}: {exc}", pos)
                colon, number = m.group(6, 7)
                pos = m.end()
            else:
                colon, number = m.group(8, 9)
            kids = ()
            if canonical:
                heights.append(1)
                low.append(label)
        lengths.append(float(number) if number is not None
                       else _no_length(text, colon, pos, comments))
        children.append(kids)
        labels.append(label)
        done.append(len(labels) - 1)
        after = True


def parse_newick(text: str) -> PhyloTree:
    """Parse a plain newick string into its canonical tree.

    Bracket comments are ignored. Interior labels are accepted and
    discarded. Raises :class:`ParseError` with line and column on any
    syntax problem.
    """
    return _read_tree(text, 0, annotated=False)[0]


def parse_annotated(text: str) -> tuple[PhyloTree, dict[str, Taxon], dict]:
    """Parse the annotated single-file format.

    Returns the canonical tree, the taxon table collected from leaf
    annotations, and a header mapping with keys ``budget`` (int), ``name``
    (str or None) and ``seed`` (int or None).
    """
    at = len(text) - len(text.lstrip(" \t\r\n"))
    if not text.startswith("[", at):
        _fail(text, "expected a [&budget=...] header", at)
    ann, m = _annotation(text, at)
    unknown = sorted(set(ann) - {"budget", "name", "seed"})
    if unknown:
        _fail(text, "unknown header keys: " + ", ".join(unknown), at)
    if "budget" not in ann:
        _fail(text, "header is missing the budget", at)
    try:
        budget = _value(ann, "budget", int)
        seed = _value(ann, "seed", int) if "seed" in ann else None
    except ValueError as exc:
        _fail(text, f"header: {exc}", at)
    name = ann.get("name")
    if name is not None and not _NAME_RE.fullmatch(name):
        _fail(text, f"header: name {name!r} has characters outside [A-Za-z0-9_.-]", at)
    tree, taxa = _read_tree(text, m.end(5), annotated=True)
    return tree, taxa, {"budget": budget, "name": name, "seed": seed}


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
