"""Story timeline encodings: data model, parser, serializer, validation.

A story document declares entities and a timeline of predicate-argument
propositions, optionally nested and decorated with discourse attachments.
The format is line-oriented with two-space indentation; ``#`` starts a
comment anywhere a line begins. Sketch:

    story fox_and_grapes "The Fox and the Grapes"

    entities
      fox character fox
      grapes object group group_of=grape

    timeline
      0:
        hang hang(Theme=grapes)
          prep on: vine
      1:
        jump jump(Agent=fox)
          purpose:
            obtain obtain(Agent=fox, Theme=grapes)

Inline arguments are entity ids, ``@adjective`` properties, or quoted
literals; nested propositions bind through indented ``role <Name>:`` blocks
or through the discourse lines ``purpose:`` and ``cause:``. A finite object
clause binds through a role the frame links to a clause, as ``role Topic:``.
A proposition may carry ``id=<pid>`` and be reused later as ``ref <pid>``
(backward references only, which keeps the nesting graph acyclic). Every
``key=`` field needs a value; a file and a tree spell a polarity and an
adverb position alike, by :data:`POLARITY_WORDS` and :data:`POSITION_WORDS`.
The full grammar is documented in the README.

The parser only reads: it refuses what it cannot build a graph from, and
:func:`validate_story` judges the rest, each diagnostic at the line that
:func:`line_of` gives. The parsed graph is immutable, which the record
base enforces (see :mod:`retold.record`). A proposition reused through
``ref`` is one object at every use, so the graph is a DAG, and ``==`` and
``hash`` take time linear in its distinct propositions. Inline arguments
are built once per parse: every mention of an entity, an ``@adjective`` or
a literal, and every repeat of a ``prep`` target under one preposition, is
one object, and an argument list repeated between a predicate's
parentheses is parsed once. So is a line under a proposition, a ``prep``
line or a slot header, repeated anywhere in the file: the parser's table
of child lines keeps what each distinct one says. Two parses share no
object.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import groupby
from typing import Container, Iterator, Optional, Union

from .diagnostics import ERROR, WARNING, Diagnostic
from .dsynt import ATTR, FEATURE_DOMAIN, II, III, PRONOUNS
from .lexicon import (ADJECTIVE, COMPLEMENT_KINDS, INFINITIVE, NOUN, PREPOSITION, VERB, Lexicon,
                      default_lexicon, words)
from .metrics import without_bom
from .record import Record, slot_setters

CHARACTER = "character"
OBJECT = "object"
LOCATION = "location"
ENTITY_KINDS = frozenset({CHARACTER, OBJECT, LOCATION})

AFFIRMATIVE = "affirmative"
NEGATED = "negated"
# each polarity's word, in a story file's polarity= field and a clause's feature
POLARITY_WORDS = {AFFIRMATIVE: "aff", NEGATED: "neg"}

PRE_VERB = "pre_verb"
POST_VERB = "post_verb"
# each adverb position's word, in a story file's adv= field and an adverb's feature
POSITION_WORDS = {PRE_VERB: "pre", POST_VERB: "post"}

PURPOSE = "purpose"
CAUSE = "cause"
PREPOSITIONAL = "prepositional"
CLAUSE_RELATIONS = (PURPOSE, CAUSE)

# the top-level sections of a story file, each a header line of its own
SECTIONS = ("entities", "original", "timeline")


class StoryError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class StorySyntaxError(StoryError):
    pass


class StoryReferenceError(StoryError):
    pass


class StoryCycleError(StoryError):
    pass


# ---------------------------------------------------------------------------
# data model (immutable values; share freely across threads)

class Entity(Record):
    __slots__ = _fields = ("id", "kind", "head_lemma", "group_of", "number",
                           "fixed_modifiers", "pronoun")

    def __init__(self, id: str, kind: str, head_lemma: str, group_of: Optional[str] = None,
                 number: str = "sg", fixed_modifiers: tuple[str, ...] = (),
                 pronoun: Optional[str] = None):
        (set_id, set_kind, set_head_lemma, set_group_of, set_number, set_fixed_modifiers,
         set_pronoun) = _ENTITY_SETTERS
        set_id(self, id)
        set_kind(self, kind)
        set_head_lemma(self, head_lemma)
        set_group_of(self, group_of)
        set_number(self, number)
        set_fixed_modifiers(self, fixed_modifiers)
        set_pronoun(self, pronoun)


_ENTITY_SETTERS = slot_setters(Entity)


class EntityRef(Record):
    __slots__ = _fields = ("entity_id",)

    def __init__(self, entity_id: str):
        _ENTITY_REF_SETTERS[0](self, entity_id)


_ENTITY_REF_SETTERS = slot_setters(EntityRef)


class Property(Record):
    __slots__ = _fields = ("adjective",)

    def __init__(self, adjective: str):
        _PROPERTY_SETTERS[0](self, adjective)


_PROPERTY_SETTERS = slot_setters(Property)


class Text(Record):
    __slots__ = _fields = ("value",)

    def __init__(self, value: str):
        _TEXT_SETTERS[0](self, value)


_TEXT_SETTERS = slot_setters(Text)


class FrameInstance(Record):
    __slots__ = _fields = ("predicate_lemma", "frame_id", "bindings")

    def __init__(self, predicate_lemma: str, frame_id: str,
                 bindings: tuple[tuple[str, "Argument"], ...] = ()):
        set_predicate_lemma, set_frame_id, set_bindings = _FRAME_INSTANCE_SETTERS
        set_predicate_lemma(self, predicate_lemma)
        set_frame_id(self, frame_id)
        set_bindings(self, bindings)

    def binding(self, role: str) -> Optional["Argument"]:
        for name, arg in self.bindings:
            if name == role:
                return arg
        return None


_FRAME_INSTANCE_SETTERS = slot_setters(FrameInstance)


class Attachment(Record):
    __slots__ = _fields = ("relation", "target", "preposition")

    def __init__(self, relation: str, target: Union["Proposition", EntityRef, Property, Text],
                 preposition: Optional[str] = None):
        set_relation, set_target, set_preposition = _ATTACHMENT_SETTERS
        set_relation(self, relation)
        set_target(self, target)
        set_preposition(self, preposition)


_ATTACHMENT_SETTERS = slot_setters(Attachment)


def _same(x, y, proven: set[tuple[int, int]]) -> bool:
    """``x == y`` for story values, comparing each pair of proposition
    objects once: ``proven`` holds the ``(id, id)`` pairs of propositions
    already shown equal within one top-level comparison, so a proposition
    reused through ``ref``, as a bound argument or as an attachment target,
    is not compared again wherever it recurs."""
    if x is y:
        return True
    cls = x.__class__
    if cls is not y.__class__:
        return x == y
    if cls is tuple:
        return len(x) == len(y) and all(_same(a, b, proven) for a, b in zip(x, y))
    if cls not in _NESTING:
        return x == y
    key = (id(x), id(y))
    if key in proven:
        return True
    if not all(_same(getattr(x, name), getattr(y, name), proven) for name in cls._fields):
        return False
    if cls is Proposition:
        proven.add(key)
    return True


def _eq_once_per_proposition(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _same(self, other, set())


class Proposition(Record):
    _fields = ("id", "frame", "polarity", "adverbs", "attachments")
    # _hash caches the hash, computed on first use from the children's
    # cached hashes
    __slots__ = _fields + ("_hash",)

    def __init__(self, id: str, frame: FrameInstance, polarity: str = AFFIRMATIVE,
                 adverbs: tuple[tuple[str, str], ...] = (),  # (lemma, pre_verb|post_verb)
                 attachments: tuple[Attachment, ...] = ()):
        set_id, set_frame, set_polarity, set_adverbs, set_attachments = _PROPOSITION_SETTERS
        set_id(self, id)
        set_frame(self, frame)
        set_polarity(self, polarity)
        set_adverbs(self, adverbs)
        set_attachments(self, attachments)

    __eq__ = _eq_once_per_proposition

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(self._values(self))
            _set_proposition_hash(self, value)
            return value

    def __repr__(self) -> str:
        # A nested proposition shows as "ref <id>", as serialize_story
        # writes a reuse; the field-by-field repr would expand a proposition
        # reused through ref again at every use.
        def short(arg) -> str:
            return f"ref {arg.id}" if isinstance(arg, Proposition) else repr(arg)
        f = self.frame
        bindings = ", ".join(f"({role!r}, {short(arg)})" for role, arg in f.bindings)
        attachments = ", ".join(f"Attachment({a.relation!r}, {short(a.target)}, {a.preposition!r})"
                                for a in self.attachments)
        return (f"Proposition({self.id!r}, FrameInstance({f.predicate_lemma!r}, {f.frame_id!r}, "
                f"({bindings})), {self.polarity!r}, {self.adverbs!r}, ({attachments}))")


_PROPOSITION_SETTERS = slot_setters(Proposition)
_set_proposition_hash = Proposition._hash.__set__

Argument = Union[EntityRef, Property, Text, Proposition]


class Timespan(Record):
    __slots__ = _fields = ("index", "propositions")

    def __init__(self, index: int, propositions: tuple[Proposition, ...]):
        set_index, set_propositions = _TIMESPAN_SETTERS
        set_index(self, index)
        set_propositions(self, propositions)


_TIMESPAN_SETTERS = slot_setters(Timespan)


class StoryGraph(Record):
    _fields = ("id", "title", "entities", "timeline", "original_text")
    # the memo keeps :func:`validate_story`'s diagnostics; _lines, which
    # only the parser sets, is the table :func:`line_of` reads
    __slots__ = _fields + ("_memo", "_lines")

    def __init__(self, id: str, title: str, entities: tuple[Entity, ...],
                 timeline: tuple[Timespan, ...], original_text: Optional[str] = None):
        set_id, set_title, set_entities, set_timeline, set_original_text = _GRAPH_SETTERS
        set_id(self, id)
        set_title(self, title)
        set_entities(self, entities)
        set_timeline(self, timeline)
        set_original_text(self, original_text)

    # one memo of proven-equal propositions across the whole timeline
    __eq__ = _eq_once_per_proposition
    __hash__ = Record.__hash__


_GRAPH_SETTERS = slot_setters(StoryGraph)
_set_graph_lines = StoryGraph._lines.__set__
# the classes through which one proposition nests in another
_NESTING = frozenset({StoryGraph, Timespan, Proposition, FrameInstance, Attachment})


def timeline_propositions(g: StoryGraph) -> list[Proposition]:
    """Top-level propositions in timeline order; nested ones stay nested."""
    return [p for ts in g.timeline for p in ts.propositions]


def attachment_groups(attachments: tuple[Attachment, ...]
                      ) -> Iterator[tuple[Attachment, tuple[Argument, ...]]]:
    """Each attachment in source order with its targets. A run of prepositional
    attachments with one preposition is one phrase: it comes once, as its
    first attachment with all the run's targets."""
    # a clause attachment's key is a fresh object, equal to no other key
    for _, run in groupby(attachments, lambda a: a.preposition if a.relation == PREPOSITIONAL
                          else object()):
        run = tuple(run)
        yield run[0], tuple(a.target for a in run)


# ---------------------------------------------------------------------------
# parsing

# The forms in which the parser reads a token, which the serializer checks
# every token it writes against. The line patterns read the first four; a
# line split on whitespace or on commas gives the others.
_NAME = r"[A-Za-z_]\w*"  # a story id, a frame, a predicate or a role
_WORD = r"[\w-]+"  # an adverb, an @property or a preposition
_REF = r"[\w.]+"  # an entity reference
_INDEX = r"[0-9]+"  # a timespan index
_FIELD = r"\S+"  # a proposition id, an entity's kind, lemma or field value
_FIRST = r"[^\s#]\S*"  # an entity id, first on its line, which "#" would make a comment
_ITEM = r"[^\s,]+"  # a mod= item

# the model value each word of a story file stands for
_POLARITIES = {word: value for value, word in POLARITY_WORDS.items()}
_POSITIONS = {word: value for value, word in POSITION_WORDS.items()}


@lru_cache(maxsize=1)
def _patterns() -> tuple[re.Pattern, ...]:
    """The line patterns, compiled on the first parse rather than when the
    module is imported: the story header, a proposition, a role binding, a
    timespan header, an ``adv=`` value, a ``prep`` line and a nested slot
    header. The last four are matched whole."""
    return (re.compile(rf'^story\s+(?P<id>{_NAME})\s+"(?P<title>[^"]*)"\s*$'),
            re.compile(rf"^(?P<frame>{_NAME})\s+(?P<pred>{_NAME})"
                       r"\((?P<args>[^)]*)\)(?P<rest>.*)$"),
            re.compile(rf'^(?P<role>{_NAME})\s*=\s*(?P<arg>"[^"]*"|@{_WORD}|{_REF})$'),
            re.compile(rf"{_INDEX}:"),
            re.compile(rf"({_WORD})@({'|'.join(_POSITIONS)})"),
            re.compile(rf"prep\s+({_WORD}):\s*(.+)"),
            re.compile(rf"role\s+{_NAME}:|(?:{'|'.join(CLAUSE_RELATIONS)}):"))


def _outline(encoded_text: str) -> list[tuple]:
    """Reads the text once into an outline: its top-level lines, each an
    ``(indent, text, lineno, children)`` tuple whose children are the deeper
    lines after it, up to the next line indented as far or less. Blank and
    comment lines are dropped. A line nested past :data:`MAX_NESTING_DEPTH`
    is an error here, before anything recurses."""
    open_lines = [(-1, "", 0, [])]  # a root, the last line read and its ancestors
    for lineno, raw in enumerate(encoded_text.splitlines(), start=1):
        stripped = raw.lstrip(" ")
        first = stripped[:1]
        if not first or first == "#" or first.isspace():  # not a plain line
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            if first == "\t":
                raise StorySyntaxError("tabs are not allowed in indentation", lineno)
        indent = len(raw) - len(stripped)
        while open_lines[-1][0] >= indent:
            open_lines.pop()
        # the new line's ancestors after the root: a section, a timespan, a
        # top-level proposition, then a slot and a proposition per level
        if len(open_lines) > 2 * MAX_NESTING_DEPTH + 4:
            raise StorySyntaxError(f"nested too deep: propositions nest at most "
                                   f"{MAX_NESTING_DEPTH} levels", lineno)
        line = (indent, stripped.rstrip(), lineno, [])
        open_lines[-1][3].append(line)
        open_lines.append(line)
    return open_lines[0][3]


def _lines_under(lines: list[tuple]) -> list[tuple]:
    """``lines`` and every line under them, in file order."""
    out, todo = [], lines[::-1]
    while todo:
        line = todo.pop()
        out.append(line)
        todo.extend(line[3][::-1])
    return out


def _misindented(line: tuple) -> StorySyntaxError:
    """The error for ``line``, indented other than the lines beside it or
    under a line that takes none."""
    return StorySyntaxError(f"unexpected indentation in {line[1]!r}", line[2])


class _Parser:
    def __init__(self):
        (self.story_re, self.prop_re, self.binding_re, self.timespan_re, self.adverb_re,
         self.prep_re, self.slot_re) = _patterns()
        # the line of each name a diagnostic may name; None if on two lines
        self.lines: dict[str, Optional[int]] = {}
        # proposition id registry; None marks a block still being parsed,
        # which is how a `ref` to an ancestor (a nesting cycle) is caught
        self.props: dict[str, Optional[Proposition]] = {}
        # each distinct inline argument, by its text, each distinct list of
        # inline bindings, by the text between the parentheses, and each
        # distinct prepositional attachment, by (preposition, target text):
        # built once per parse and shared by every mention
        self.args: dict[str, Argument] = {}
        self.bindings: dict[str, tuple[tuple[str, Argument], ...]] = {}
        self.preps: dict[tuple[str, str], Attachment] = {}
        # what each distinct line under a proposition says, by its text: a `prep`
        # line's (PREPOSITIONAL, attachments), a slot's (None, role) or (relation, None)
        self.child_lines: dict[str, tuple] = {}

    # -- top level ----------------------------------------------------------

    def parse(self, top: list[tuple]) -> StoryGraph:
        if not top:
            raise StorySyntaxError("empty document")
        indent, text, lineno, children = top[0]
        m = self.story_re.match(text)
        if indent != 0 or not m:
            raise StorySyntaxError('expected: story <id> "<title>"', lineno)
        if children:
            raise StorySyntaxError(f"unexpected indented line {children[0][1]!r}",
                                   children[0][2])

        sections: dict[str, list[tuple]] = {}
        for _, text, lineno, body in top[1:]:
            name = text.split()[0]
            if name not in SECTIONS or text != name:
                raise StorySyntaxError(f"unknown section {text!r}", lineno)
            if name in sections:
                raise StorySyntaxError(f"duplicate section {name!r}", lineno)
            sections[name] = body
            self._declare(name, lineno)

        entities = tuple(self._parse_entity(text, lineno)
                         for _, text, lineno, _ in _lines_under(sections.get("entities", [])))
        original = "\n".join(line[1] for line in _lines_under(sections.get("original", [])))
        timeline = self._parse_timeline(sections.get("timeline", []))
        g = StoryGraph(m.group("id"), m.group("title"), entities, timeline, original or None)
        _set_graph_lines(g, self.lines)
        return g

    def _declare(self, name: str, lineno: int) -> None:
        self.lines[name] = None if name in self.lines else lineno

    def _parse_entity(self, text: str, lineno: int) -> Entity:
        parts = text.split()
        if len(parts) < 3:
            raise StorySyntaxError("entity line needs '<id> <kind> <head_lemma>'", lineno)
        self._declare(parts[0], lineno)
        fields: dict[str, str] = {}
        for tok in parts[3:]:
            key, eq, value = tok.partition("=")
            if not eq:
                raise StorySyntaxError(f"bad entity field {tok!r}", lineno)
            if key in fields:
                raise StorySyntaxError(f"repeated entity field {key!r}", lineno)
            if key not in ("group_of", "number", "mod", "pronoun"):
                raise StorySyntaxError(f"unknown entity field {key!r}", lineno)
            if key == "mod" and not value.strip(","):
                raise StorySyntaxError("empty modifier list", lineno)
            fields[key] = value
        mods = tuple(m for m in fields.get("mod", "").split(",") if m)
        return Entity(parts[0], parts[1], parts[2], fields.get("group_of"),
                      fields.get("number", "sg"), mods, fields.get("pronoun"))

    def _parse_timeline(self, spans: list[tuple]) -> tuple[Timespan, ...]:
        out = []
        for indent, text, lineno, lines in spans:
            if indent != spans[0][0] or not self.timespan_re.fullmatch(text):
                raise StorySyntaxError(f"expected timespan header '<index>:', got {text!r}",
                                       lineno)
            index = int(text[:-1])
            self._declare(f"t{index}", lineno)
            props: list[Proposition] = []
            for line in lines:
                if line[0] != lines[0][0]:
                    raise _misindented(line)
                props.append(self._parse_prop(line, f"t{index}.p", len(props)))
            out.append(Timespan(index, tuple(props)))
        return tuple(out)

    # -- propositions ---------------------------------------------------------

    def _parse_prop(self, line: tuple, auto_prefix: str, n: int) -> Proposition:
        """The proposition on ``line``, named ``auto_prefix`` + ``n`` if it has no ``id=``."""
        _, text, lineno, children = line
        m = self.prop_re.match(text)
        if not m:
            raise StorySyntaxError(f"expected proposition, got {text!r}", lineno)
        frame_id, predicate, args, rest = m.groups()
        bindings = self._inline_bindings(args, lineno)

        polarity = AFFIRMATIVE
        adverbs: list[tuple[str, str]] = []
        pid = None
        seen: set[str] = set()  # the field names given
        for tok in rest.split():
            key, eq, value = tok.partition("=")
            if not eq or (key == "id" and not value):
                raise StorySyntaxError(f"bad proposition field {tok!r}", lineno)
            if key in seen and key != "adv":  # only adv= may repeat
                raise StorySyntaxError(f"repeated proposition field {key!r}", lineno)
            seen.add(key)
            if key == "polarity":
                polarity = _POLARITIES.get(value)
                if polarity is None:
                    raise StorySyntaxError(f"bad polarity {value!r}", lineno)
            elif key == "adv":
                am = self.adverb_re.fullmatch(value)
                if not am:
                    raise StorySyntaxError(f"bad adverb {value!r}", lineno)
                adverbs.append((am.group(1), _POSITIONS[am.group(2)]))
            elif key == "id":
                pid = value
            else:
                raise StorySyntaxError(f"unknown proposition field {key!r}", lineno)

        if pid is None:
            pid = f"{auto_prefix}{n}"
        if pid in self.props:
            raise StorySyntaxError(f"duplicate proposition id {pid!r}", lineno)
        self.props[pid] = None  # open
        self._declare(pid, lineno)

        attachments: list[Attachment] = []
        nested_n = 0
        for child in children:
            if child[0] != children[0][0]:
                raise _misindented(child)
            _, head, child_lineno, inner = child
            relation, value = self.child_lines.get(head) or self._child_line(head, child_lineno)
            if relation == PREPOSITIONAL:
                attachments += value
                if inner:
                    raise _misindented(inner[0])
            else:
                nested = self._parse_nested(inner, pid + ".n", nested_n, child_lineno)
                nested_n += 1
                if relation is None:
                    bindings += ((value, nested),)
                else:
                    attachments.append(Attachment(relation, nested))

        prop = Proposition(pid, FrameInstance(predicate, frame_id, bindings),
                           polarity, tuple(adverbs), tuple(attachments))
        self.props[pid] = prop
        return prop

    def _child_line(self, head: str, lineno: int) -> tuple:
        """The :attr:`child_lines` entry for ``head``, a line under a proposition."""
        if head.startswith("prep "):
            pm = self.prep_re.fullmatch(head)
            pieces = pm and [piece.strip() for piece in self._split_args(pm.group(2), lineno)]
            if not pieces:  # no match, or a list of no targets
                raise StorySyntaxError(f"bad preposition line {head!r}", lineno)
            word, attachments = pm.group(1), []
            for piece in pieces:
                attachment = self.preps.get((word, piece))
                if attachment is None:
                    target = self._parse_inline_arg(piece)
                    attachment = self.preps[word, piece] = Attachment(PREPOSITIONAL, target, word)
                attachments.append(attachment)
            entry = (PREPOSITIONAL, tuple(attachments))
        elif self.slot_re.fullmatch(head):
            entry = (None, head.split()[1][:-1]) if head.startswith("role") else (head[:-1], None)
        else:
            raise StorySyntaxError(f"unexpected line {head!r} under proposition", lineno)
        self.child_lines[head] = entry
        return entry

    def _parse_nested(self, inner: list[tuple], auto_prefix: str, n: int,
                      header_line: int) -> Proposition:
        if not inner:
            raise StorySyntaxError("expected an indented proposition", header_line)
        _, text, lineno, children = inner[0]
        if len(inner) == 1 and not children and text.startswith("ref "):
            target = text[4:].strip()
            if target not in self.props:
                raise StoryReferenceError(f"unknown proposition id {target!r}", lineno)
            if self.props[target] is None:
                raise StoryCycleError(f"proposition {target!r} nests inside itself", lineno)
            return self.props[target]
        prop = self._parse_prop(inner[0], auto_prefix, n)
        if len(inner) > 1:
            raise StorySyntaxError(f"unexpected line {inner[1][1]!r}: "
                                   "a nested slot holds exactly one proposition",
                                   inner[1][2])
        return prop

    def _inline_bindings(self, args: str, lineno: int) -> tuple[tuple[str, Argument], ...]:
        """The ``(role, argument)`` pairs between a proposition's
        parentheses, parsed once per distinct text."""
        pairs = self.bindings.get(args)
        if pairs is None:
            pairs = []
            for piece in self._split_args(args.strip(), lineno):
                bm = self.binding_re.match(piece.strip())
                if not bm:
                    raise StorySyntaxError(f"bad role binding {piece.strip()!r}", lineno)
                pairs.append((bm.group("role"), self._parse_inline_arg(bm.group("arg"))))
            pairs = self.bindings[args] = tuple(pairs)
        return pairs

    def _split_args(self, text: str, lineno: int) -> list[str]:
        """The comma-separated pieces of ``text`` that are not blank; a
        comma inside a quoted literal separates nothing."""
        if '"' not in text:
            return [p for p in text.split(",") if p.strip()]
        segments = text.split('"')  # the quoted ones at the odd indices
        if len(segments) % 2 == 0:
            raise StorySyntaxError("unterminated string literal", lineno)
        out = [""]
        for i, segment in enumerate(segments):
            if i % 2:
                out[-1] += f'"{segment}"'
            else:
                first, *rest = segment.split(",")
                out[-1] += first
                out += rest
        return [p for p in out if p.strip()]

    def _parse_inline_arg(self, text: str) -> Argument:
        arg = self.args.get(text)
        if arg is None:
            if text.startswith('"') and text.endswith('"'):
                arg = Text(text[1:-1])
            elif text.startswith("@"):
                arg = Property(text[1:])
            else:
                arg = EntityRef(text)
            self.args[text] = arg
        return arg


def parse_story(encoded_text: str) -> StoryGraph:
    """Parse a story document; one leading byte-order mark is dropped.

    The parser checks only what it needs to build the graph and loads no
    lexicon. It raises StorySyntaxError for a malformed line or field,
    StoryReferenceError for a ``ref`` to an undeclared proposition id and
    StoryCycleError when a ``ref`` would nest a proposition inside itself.
    Every other rule, such as known entities and frames, is
    :func:`validate_story`'s, which :func:`line_of` places at its line.
    """
    return _Parser().parse(_outline(without_bom(encoded_text)))


def line_of(g: StoryGraph, location: str) -> Optional[int]:
    """The line declaring ``location`` (an entity id, a timespan ``tN``, a
    proposition id, ``timeline`` or ``original``) in the file ``g`` was parsed
    from. None for a name declared on two lines and for a graph built in
    code, as a copy made by ``replace`` or pickle is."""
    return getattr(g, "_lines", {}).get(location)


# ---------------------------------------------------------------------------
# serialization (canonical form; parse(serialize(g)) == g)

def _token(what: str, value: Optional[str], form: str) -> str:
    """``value``, if the parser reads it back whole in ``form``; else
    ``ValueError``, for no value too."""
    if value is None or not re.fullmatch(form, value):
        raise ValueError(f"cannot serialize {what} {value!r}: a story file cannot hold it")
    return value


def _quoted(what: str, value: str, forbidden: str = '"') -> str:
    """``value`` in double quotes; ``ValueError`` if the parser would not read
    that back, as when ``value`` holds a line break or a ``forbidden`` one."""
    if any(ch in value for ch in forbidden) or "".join(value.splitlines()) != value:
        raise ValueError(f"cannot serialize {what} {value!r}: a story file cannot quote it")
    return f'"{value}"'


def _format_arg(arg: Argument, forbidden: str = '"') -> str:
    """``arg`` written inline, where a literal holds no ``forbidden`` one."""
    if isinstance(arg, EntityRef):
        return _token("entity reference", arg.entity_id, _REF)
    if isinstance(arg, Property):
        return "@" + _token("property", arg.adjective, _WORD)
    if isinstance(arg, Text):
        return _quoted("literal", arg.value, forbidden)
    if isinstance(arg, Proposition):  # only a `prep` target can be one here
        raise ValueError(f"cannot serialize proposition {arg.id!r} as a prep target: "
                         "a story file nests a proposition only under a role or clause")
    raise TypeError(f"not an inline argument: {arg!r}")


def _word(what: str, value: str, words: dict[str, str], pid: str) -> str:
    """What a story file writes for ``value``, one of ``words``' keys; else
    ``ValueError``, rather than write ``value`` back as another."""
    word = words.get(value)
    if word is None:
        raise ValueError(f"cannot serialize {what} {value!r} of proposition {pid!r}: "
                         "a story file has no word for it")
    return word


# what a story file writes for each clause relation
_CLAUSE_HEADS = {relation: f"{relation}:" for relation in CLAUSE_RELATIONS}


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.emitted: dict[str, Proposition] = {}  # by id, each written out once

    def add(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def prop(self, p: Proposition, depth: int) -> None:
        first = self.emitted.get(p.id)
        if first is not None:
            if first is not p and first != p:  # a `ref` would read back the first
                raise ValueError(f"cannot serialize proposition id {p.id!r}: "
                                 "two different propositions have it")
            self.add(depth, f"ref {p.id}")
            return
        self.emitted[p.id] = p
        bindings = p.frame.bindings
        inline = [(r, a) for r, a in bindings if not isinstance(a, Proposition)]
        nested = [(r, a) for r, a in bindings if isinstance(a, Proposition)]
        late = [r for r, a in bindings[len(inline):] if not isinstance(a, Proposition)]
        if late:  # the file would read it back before the nested binding
            raise ValueError(f"cannot serialize role {late[0]!r} of proposition {p.id!r}: "
                             "a story file writes inline bindings before nested ones")
        head = (f"{_token('frame', p.frame.frame_id, _NAME)} "
                f"{_token('predicate', p.frame.predicate_lemma, _NAME)}(")
        head += ", ".join(_token("role", r, _NAME) + "=" + _format_arg(a, '")')
                          for r, a in inline) + ")"
        if p.polarity != AFFIRMATIVE:  # the field's default
            head += f" polarity={_word('polarity', p.polarity, POLARITY_WORDS, p.id)}"
        for lemma, pos in p.adverbs:
            head += (f" adv={_token('adverb', lemma, _WORD)}"
                     f"@{_word('adverb position', pos, POSITION_WORDS, p.id)}")
        head += f" id={_token('proposition id', p.id, _FIELD)}"
        self.add(depth, head)
        for role, sub in nested:
            self.add(depth + 1, f"role {_token('role', role, _NAME)}:")
            self.prop(sub, depth + 2)
        for a, targets in attachment_groups(p.attachments):
            if a.relation == PREPOSITIONAL:
                word = _token("preposition", a.preposition, _WORD)
                self.add(depth + 1, f"prep {word}: " + ", ".join(map(_format_arg, targets)))
            else:
                self.add(depth + 1, _word("attachment relation", a.relation, _CLAUSE_HEADS, p.id))
                if not isinstance(a.target, Proposition) or a.preposition is not None:
                    raise ValueError(f"cannot serialize {a!r} of proposition {p.id!r}: a clause "
                                     "line nests one proposition and names no preposition")
                self.prop(a.target, depth + 2)


def serialize_story(g: StoryGraph) -> str:
    """``g`` in the story format, which :func:`parse_story` reads back as a
    graph ``==`` to ``g``. What the parser would read back otherwise raises
    ``ValueError`` naming the value: a title or literal holding ``"`` or a
    line break, or in a role ``)``; a token the parser would split or
    misread; an original text line that is blank, edged with whitespace or
    starts with ``#``; a nested role binding before an inline one; two
    different propositions with one id; a timeline proposition told
    twice, which a file can reuse only in a nested slot; a polarity, adverb
    position or attachment relation the format has no word for; a
    proposition as a ``prep`` target; a ``prep`` with no preposition; and a
    ``purpose`` or ``cause`` attachment with a preposition or with a target
    that is not a proposition."""
    w = _Writer()
    w.add(0, f"story {_token('story id', g.id, _NAME)} {_quoted('title', g.title)}")
    w.add(0, "")
    w.add(0, "entities")
    for e in g.entities:
        line = (f"{_token('entity id', e.id, _FIRST)} {_token('entity kind', e.kind, _FIELD)} "
                f"{_token('head lemma', e.head_lemma, _FIELD)}")
        if e.group_of is not None:
            line += f" group_of={_token('member lemma', e.group_of, _FIELD)}"
        if e.number != "sg":
            line += f" number={_token('number', e.number, _FIELD)}"
        if e.pronoun is not None:
            line += f" pronoun={_token('pronoun', e.pronoun, _FIELD)}"
        if e.fixed_modifiers:
            line += " mod=" + ",".join(_token("modifier", m, _ITEM) for m in e.fixed_modifiers)
        w.add(1, line)
    if g.original_text is not None:
        w.add(0, "")
        w.add(0, "original")
        for line in g.original_text.split("\n"):
            if line.splitlines() != [line] or line != line.strip() or line[0] == "#":
                raise ValueError(f"cannot serialize original text line {line!r}: "
                                 "a story file drops or strips it")
            w.add(1, line)
    w.add(0, "")
    w.add(0, "timeline")
    for ts in g.timeline:
        w.add(1, f"{_token('timespan index', str(ts.index), _INDEX)}:")
        for p in ts.propositions:
            if p.id in w.emitted:  # a timeline line is a proposition, never a `ref`
                raise ValueError(f"cannot serialize proposition id {p.id!r}: it is written "
                                 "before this timeline proposition")
            w.prop(p, 2)
    return "\n".join(w.lines) + "\n"


# ---------------------------------------------------------------------------
# validation

# The most propositions a timeline may expand to, counting a proposition
# reused through `ref` once per use. The transform builds a reused clause
# once, but the realized text repeats it at every use: a chain whose every
# step reuses the one before twice doubles the text at each step, so a short
# file could otherwise ask for exponential work. 50,000 is twelve times the
# 4,160 of a story at 100x fixture size and keeps generation to a few
# seconds.
MAX_EXPANDED_PROPOSITIONS = 50_000

# The most levels a proposition may nest in others, through slots written
# out or reached through `ref`. Parsing, the transform, the realizer, `==`,
# `hash` and `copy.deepcopy` recurse once or more per level, and Python's
# default recursion limit gives out from about 128 levels.
MAX_NESTING_DEPTH = 64


def _reference_error(arg: Argument, entity_ids: Container[str], lexicon: Lexicon
                     ) -> Optional[str]:
    """Why an inline argument names nothing the story or lexicon has, or is a
    literal with no words once an underscore reads as a space, or None."""
    if isinstance(arg, EntityRef):
        return None if arg.entity_id in entity_ids else f"unknown entity {arg.entity_id!r}"
    if isinstance(arg, Property):
        return (None if lexicon.has(arg.adjective, ADJECTIVE)
                else f"property {arg.adjective!r} is not a known adjective")
    if isinstance(arg, Text) and not words(arg.value):
        return f"literal {arg.value!r} has no words"
    return None


def proposition_errors(p: Proposition, entity_ids: Container[str],
                       lexicon: Lexicon) -> list[str]:
    """Every reason the transform cannot realize ``p`` itself, as messages.

    The one realizability rule, applied by :func:`validate_story` alone, which
    ``transform.transform_story`` runs before it builds anything. Nested
    propositions are not descended into, past reading the subject of one
    told as a to-infinitive; each is checked on its own.
    """
    out: list[str] = []
    instance = p.frame
    if not lexicon.has(instance.predicate_lemma, VERB):
        out.append(f"predicate {instance.predicate_lemma!r} is not a known verb")
    bound = dict(instance.bindings)
    frame = lexicon.frame(instance.frame_id) if lexicon.has_frame(instance.frame_id) else None
    if frame is None:
        out.append(f"unknown frame {instance.frame_id!r}")
    else:
        if len(bound) != len(instance.bindings):
            out.append("role bound twice")
        for role, _ in frame.mandatory_roles:
            if role not in bound:
                out.append(f"mandatory role {role} unbound")

    for role, arg in instance.bindings:
        nested = isinstance(arg, Proposition)
        problem = None if nested else _reference_error(arg, entity_ids, lexicon)
        if problem:
            out.append(problem)
        if frame is None:
            continue
        rel = frame.relations.get(role)
        if rel is None:
            out.append(f"unknown role {role} for frame {instance.frame_id!r}")
        elif rel == ATTR:
            if not isinstance(arg, Property):
                out.append(f"role {role} expects an adjective property")
        elif not nested:
            if isinstance(arg, Property):
                out.append("property argument outside a copular slot")
        elif rel not in (II, III):
            out.append(f"role {role} cannot nest a proposition")
        elif role not in COMPLEMENT_KINDS:
            out.append(f"frame {frame.frame_id!r} does not take a propositional argument")
        elif COMPLEMENT_KINDS[role] == INFINITIVE:
            # subject control: the to-infinitive does not tell its subject, so
            # that must be this one's; a clause's unknown frame is its own error
            frame_id = arg.frame.frame_id
            subject = lexicon.frame(frame_id).subject if lexicon.has_frame(frame_id) else None
            if subject and arg.frame.binding(subject) != instance.binding(frame.subject):
                out.append(f"role {role} must nest a clause with this proposition's subject")

    for a in p.attachments:
        if a.relation in CLAUSE_RELATIONS:
            if not isinstance(a.target, Proposition):
                out.append(f"{a.relation} attachment must nest a proposition")
            if a.preposition:
                out.append(f"{a.relation} attachment does not take a preposition")
        elif a.relation == PREPOSITIONAL:
            if not a.preposition:
                out.append("prepositional attachment needs a preposition")
            elif not lexicon.has(a.preposition, PREPOSITION):
                out.append(f"unknown preposition {a.preposition!r}")
            if not isinstance(a.target, (EntityRef, Text)):
                out.append("prepositional attachment target must be entity or "
                           "noun-phrase valued")
            else:
                problem = _reference_error(a.target, entity_ids, lexicon)
                if problem:
                    out.append(problem)
        else:
            out.append(f"unknown attachment relation {a.relation!r}")
    for i, (lemma, pos) in enumerate(p.adverbs):
        if not words(lemma):  # else told as nothing
            out.append(f"adverb {lemma!r} has no words")
        if pos not in POSITION_WORDS:
            out.append(f"bad adverb position {pos!r}")
        if (lemma, pos) in p.adverbs[:i]:  # else told twice: "The fox now now jumped."
            out.append(f"repeated adverb {lemma!r} at {pos}")
    if p.polarity not in POLARITY_WORDS:
        out.append(f"bad polarity {p.polarity!r}")
    return out


def validate_story(g: StoryGraph) -> list[Diagnostic]:
    """Cross-reference checks over a structurally well-formed graph.

    The transform runs this first and refuses a story at its first ERROR;
    without one, the transform and the realizer accept it, at a cost bounded by
    :data:`MAX_EXPANDED_PROPOSITIONS` and a depth bounded by
    :data:`MAX_NESTING_DEPTH`. Structural problems that the parser
    already rejects (bad syntax) cannot appear here.

    The diagnostics are kept with the graph (see :meth:`record.Record.memo`),
    so validating a graph again, as the transform does, costs a copy. Each
    call returns a list of its own.
    """
    return list(g.memo(None, lambda: _diagnostics(g)))


def _diagnostics(g: StoryGraph) -> tuple[Diagnostic, ...]:
    lex = default_lexicon()
    out: list[Diagnostic] = []

    def err(location: str, message: str) -> None:
        out.append(Diagnostic(ERROR, location, message))

    seen_entities = set()
    for e in g.entities:
        if e.id in seen_entities:
            err(e.id, "duplicate entity id")
        seen_entities.add(e.id)
        if e.kind not in ENTITY_KINDS:
            err(e.id, f"bad entity kind {e.kind!r}")
        if not e.head_lemma or not lex.has(e.head_lemma, NOUN):
            err(e.id, f"head lemma {e.head_lemma!r} is not a known noun")
        if e.number not in FEATURE_DOMAIN["number"]:
            err(e.id, f"bad number {e.number!r}")
        if e.pronoun is not None and e.pronoun not in PRONOUNS:
            err(e.id, f"bad pronoun {e.pronoun!r}")
        if e.group_of is not None:
            if e.number != "sg":
                err(e.id, "collective entities take singular agreement")
            if not lex.has(e.group_of, NOUN):
                err(e.id, f"member lemma {e.group_of!r} is not a known noun")
        for i, adj in enumerate(e.fixed_modifiers):
            if adj in e.fixed_modifiers[:i]:  # else told twice: "the hot hot fox"
                err(e.id, f"repeated modifier {adj!r}")
            elif not lex.has(adj, ADJECTIVE):
                out.append(Diagnostic(WARNING, e.id, f"modifier {adj!r} is not a known adjective"))

    # an indented section header is read as a line of the `original` block
    for line in (g.original_text or "").splitlines():
        if line in SECTIONS:
            out.append(Diagnostic(WARNING, "original", f"line {line!r} is a section name; "
                                                       "is its header indented?"))

    indices = [ts.index for ts in g.timeline]
    if not indices:
        err("timeline", "timeline has no timespans")
    elif indices != list(range(len(indices))):
        err("timeline", f"non-contiguous timeline indices {indices}")
    for ts in g.timeline:
        if not ts.propositions:
            err(f"t{ts.index}", "timespan has no propositions")

    # depth-first, each distinct proposition once: a proposition reused
    # through `ref` is not checked again, so the cost stays linear in the
    # file; one met again on its own path is a nesting cycle. Each visit
    # returns the proposition's expanded size and height, memoized in
    # `expanded`, and stops below MAX_NESTING_DEPTH levels.
    seen_ids: dict[str, int] = {}
    expanded: dict[int, tuple[int, int]] = {}
    on_path: set[int] = set()

    def visit(p: Proposition) -> tuple[int, int]:
        if id(p) in on_path:
            err(p.id, "proposition nesting cycle")
            return 0, 0
        if id(p) in expanded:
            return expanded[id(p)]
        if len(on_path) > MAX_NESTING_DEPTH:
            return 1, 1  # too deep already; the top-level height shows it
        if seen_ids.setdefault(p.id, id(p)) != id(p):
            err(p.id, "duplicate proposition id")
        for message in proposition_errors(p, seen_entities, lex):
            err(p.id, message)
        on_path.add(id(p))
        size = height = 1
        for child in [a for _, a in p.frame.bindings] + [a.target for a in p.attachments]:
            if isinstance(child, Proposition):
                child_size, child_height = visit(child)
                size += child_size
                height = max(height, child_height + 1)
        on_path.discard(id(p))
        expanded[id(p)] = size, height
        return size, height

    visits = [visit(p) for p in timeline_propositions(g)]
    if max((height for _, height in visits), default=0) > MAX_NESTING_DEPTH + 1:
        err("timeline", f"propositions nest more than {MAX_NESTING_DEPTH} levels deep")
    total = sum(size for size, _ in visits)
    if total > MAX_EXPANDED_PROPOSITIONS:
        err("timeline", f"expands to {total} propositions through ref reuse, "
                        f"more than {MAX_EXPANDED_PROPOSITIONS}")
    return tuple(dict.fromkeys(out))
