"""Deep-syntactic dependency trees.

Nodes pair a lexeme with a lexico-syntactic class and hang off their
governor under a labelled relation: I/II/III for arguments, ATTR for
modifiers, APPEND for adjuncts and function-word structure. Grammatical
features ride along as a small string map. Trees are immutable values,
which the record base enforces (see :mod:`retold.record`). :func:`build`
makes each node once from its full list of ``(child, relation)`` pairs,
under the one set of rules on what may hang under what.

Rewrites are copy-on-write: they share every unchanged subtree with their
input, and a node with nothing changed at or under it comes back as the
same object (see :meth:`DSyntNode.with_children`). The transform goes
further and builds each repeated phrase once per story, so one node may sit
at several positions, in one tree or in several: a path names a position,
not a node. So neither a node nor its ``features`` map may ever be mutated
in place.
"""

from __future__ import annotations

import operator
from typing import Iterator, Mapping, Optional

from .diagnostics import ERROR, Diagnostic
from .record import Record, slot_setters

COMMON_NOUN = "common_noun"
VERB = "verb"
ADJECTIVE = "adjective"
ADVERB = "adverb"
PREPOSITION = "preposition"
FUNCTION_WORD = "function_word"

CLASSES = frozenset({COMMON_NOUN, VERB, ADJECTIVE, ADVERB, PREPOSITION, FUNCTION_WORD})

ROOT = "ROOT"
I = "I"
II = "II"
III = "III"
ATTR = "ATTR"
APPEND = "APPEND"

RELATIONS = frozenset({ROOT, I, II, III, ATTR, APPEND})
ARGUMENT_RELATIONS = (I, II, III)

# the function words over a purpose clause and over a cause clause
IN_ORDER = "in_order"
BECAUSE = "because"

# the pronouns a character may take, in a story file and in the ``pron``
# feature of its noun phrases
PRONOUNS = frozenset({"he", "she", "it", "they"})

# relations a child may carry, per governor class
ALLOWED_CHILD_RELATIONS = {
    VERB: frozenset({I, II, III, ATTR, APPEND}),
    COMMON_NOUN: frozenset({ATTR, APPEND}),
    PREPOSITION: frozenset({APPEND}),
    FUNCTION_WORD: frozenset({APPEND}),
    ADJECTIVE: frozenset(),
    ADVERB: frozenset(),
}

# feature domains; the last four carry style/realization decisions made
# upstream of the realizer
FEATURE_DOMAIN: dict[str, frozenset[str]] = {
    "tense": frozenset({"past"}),
    "number": frozenset({"sg", "pl"}),
    "article": frozenset({"def", "indef", "none"}),
    "polarity": frozenset({"aff", "neg"}),
    "person": frozenset({"3rd"}),
    "punct": frozenset({"period", "exclaim", "question"}),
    "position": frozenset({"pre", "post"}),
    "contract": frozenset({"on"}),
    "sem_neg": frozenset({"on"}),
    "stutter": frozenset({"1", "2"}),
    "pron": PRONOUNS,
}


class TreeError(Exception):
    pass


class RelationConflictError(TreeError):
    pass


class ClassError(TreeError):
    pass


class DSyntNode(Record):
    __slots__ = _fields = ("lexeme", "cls", "relation", "features", "children")

    def __init__(self, lexeme: str, cls: str, relation: str = ROOT,
                 features: Optional[Mapping[str, str]] = None,
                 children: tuple["DSyntNode", ...] = ()):
        set_lexeme, set_cls, set_relation, set_features, set_children = _NODE_SETTERS
        set_lexeme(self, lexeme)
        set_cls(self, cls)
        set_relation(self, relation)
        set_features(self, {} if features is None else features)
        set_children(self, children)

    def feature(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.features.get(key, default)

    def with_feature(self, key: str, value: str) -> "DSyntNode":
        if self.features.get(key) == value:
            return self
        feats = dict(self.features)
        feats[key] = value
        return DSyntNode(self.lexeme, self.cls, self.relation, feats, self.children)

    def with_relation(self, relation: str) -> "DSyntNode":
        if self.relation == relation:
            return self
        return DSyntNode(self.lexeme, self.cls, relation, self.features, self.children)

    def with_children(self, children: tuple["DSyntNode", ...]) -> "DSyntNode":
        """This node over ``children``: ``self`` itself when every child is
        the object already in place, else a new node sharing the rest."""
        old = self.children
        if len(children) == len(old) and all(map(operator.is_, children, old)):
            return self
        return DSyntNode(self.lexeme, self.cls, self.relation, self.features, children)

    def child(self, relation: str) -> Optional["DSyntNode"]:
        for c in self.children:
            if c.relation == relation:
                return c
        return None


_NODE_SETTERS = slot_setters(DSyntNode)


class Document(Record):
    _fields = ("sentences",)
    # the style engine keeps in the memo the work that every voice told on
    # this document shares (see :func:`style.apply_voice`)
    __slots__ = _fields + ("_memo",)

    def __init__(self, sentences: tuple[DSyntNode, ...] = ()):
        _DOCUMENT_SETTERS[0](self, sentences)


_DOCUMENT_SETTERS = slot_setters(Document)


def _checked_children(lexeme: str, cls: str, pairs) -> tuple[DSyntNode, ...]:
    """Each ``(child, relation)`` of ``pairs``, in order, relabelled to its
    relation; the one home of the rules on what may hang under a node of
    class ``cls``. A child that already carries its relation goes in as the
    same object."""
    allowed = ALLOWED_CHILD_RELATIONS.get(cls, ())
    taken: set[str] = set()
    out: list[DSyntNode] = []
    for child, relation in pairs:
        if relation not in allowed:  # no class allows ROOT or an unknown relation
            if relation not in RELATIONS or relation == ROOT:
                raise TreeError(f"bad child relation {relation!r}")
            if cls not in ALLOWED_CHILD_RELATIONS:
                raise ClassError(f"unknown class {cls!r}")
            raise ClassError(f"relation {relation} not allowed under {cls}")
        if relation in ARGUMENT_RELATIONS:
            if relation in taken:
                raise RelationConflictError(f"second {relation} child under {lexeme!r}")
            taken.add(relation)
        out.append(child.with_relation(relation))
    return tuple(out)


def build(lexeme: str, cls: str, relation: str = ROOT,
          features: Optional[Mapping[str, str]] = None, pairs=()) -> DSyntNode:
    """A node over its ``(child, relation)`` pairs, built once; raises
    :class:`TreeError` on a child that may not hang under it."""
    return DSyntNode(lexeme, cls, relation, features, _checked_children(lexeme, cls, pairs))


def walk(node: DSyntNode, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], DSyntNode]]:
    """Pre-order traversal yielding (path, node); paths index into children."""
    yield path, node
    for i, c in enumerate(node.children):
        yield from walk(c, path + (i,))


def node_at(root: DSyntNode, path: tuple[int, ...]) -> DSyntNode:
    node = root
    for i in path:
        node = node.children[i]
    return node


def replace_at(root: DSyntNode, path: tuple[int, ...], new: DSyntNode) -> DSyntNode:
    if not path:
        return new
    i = path[0]
    children = root.children[:i] + (replace_at(root.children[i], path[1:], new),) + root.children[i + 1:]
    return root.with_children(children)


def validate_tree(root: DSyntNode) -> list[Diagnostic]:
    """Empty iff every node invariant holds recursively from ``root`` down."""
    out: list[Diagnostic] = []

    def err(path: tuple[int, ...], message: str) -> None:
        loc = ".".join(map(str, path)) if path else "root"
        out.append(Diagnostic(ERROR, loc, message))

    if root.cls != VERB:
        err((), f"clause root must be a verb, got {root.cls}")
    if root.relation != ROOT:
        err((), f"clause root carries relation {root.relation}, expected ROOT")

    for path, node in walk(root):
        if node.cls not in CLASSES:
            err(path, f"unknown class {node.cls!r}")
            continue
        if node.relation not in RELATIONS:
            err(path, f"unknown relation {node.relation!r}")
        if path and node.relation == ROOT:
            err(path, "ROOT relation below the root")
        if not node.lexeme:
            err(path, "empty lexeme")
        for key, value in node.features.items():
            domain = FEATURE_DOMAIN.get(key)
            if domain is None:
                err(path, f"unknown feature {key!r}")
            elif value not in domain:
                err(path, f"bad value {value!r} for feature {key!r}")
        if "article" in node.features and node.cls != COMMON_NOUN:
            err(path, f"article feature on {node.cls}")
        if "tense" in node.features and node.cls != VERB:
            err(path, f"tense feature on {node.cls}")
        allowed = ALLOWED_CHILD_RELATIONS[node.cls]
        for rel in ARGUMENT_RELATIONS:
            if sum(1 for c in node.children if c.relation == rel) > 1:
                err(path, f"more than one {rel} child under {node.lexeme!r}")
        for i, c in enumerate(node.children):
            if c.relation == ROOT:
                continue  # reported at the child itself
            if c.relation in RELATIONS and c.relation not in allowed:
                err(path + (i,), f"relation {c.relation} not allowed under {node.cls}")
    return out


# ---------------------------------------------------------------------------
# serialization: one element per lexico-syntactic unit, deterministic byte
# output for equal documents (feature keys in sorted order)

def _quote(value: str) -> str:
    escaped = (value.replace("&", "&amp;").replace("<", "&lt;")
               .replace(">", "&gt;").replace('"', "&quot;"))
    return '"' + escaped + '"'


def _node_markup(node: DSyntNode, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    attrs = [f"lexeme={_quote(node.lexeme)}",
             f"class={_quote(node.cls)}",
             f"relation={_quote(node.relation)}"]
    for key in sorted(node.features):
        attrs.append(f"{key}={_quote(node.features[key])}")
    head = f"{pad}<node {' '.join(attrs)}"
    if node.children:
        lines.append(head + ">")
        for c in node.children:
            _node_markup(c, depth + 1, lines)
        lines.append(f"{pad}</node>")
    else:
        lines.append(head + "/>")


def serialize(doc: Document) -> str:
    lines = ["<document>"]
    for i, sentence in enumerate(doc.sentences):
        lines.append(f'  <sentence index="{i}">')
        _node_markup(sentence, 2, lines)
        lines.append("  </sentence>")
    lines.append("</document>")
    return "\n".join(lines) + "\n"
