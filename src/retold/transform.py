"""Builds deep-syntactic trees from story timelines.

Each top-level proposition becomes one clause: the predicate turns into a
tensed verb node, role bindings land on I/II/III per the verb frame, entity
references expand to definite noun phrases ("the group of grapes" keeps its
singular head), discourse attachments become subordinate structure
("in order" / "because" function words governing embedded clauses), and
prepositional adjuncts hang off the clause in source order. A purpose
clause is a to-infinitive and a cause clause is finite; a finite object
clause comes only from a role the frame links to a clause.

The trees are neutral: every mention is a full noun phrase and nothing is
contracted. Referring-expression and contraction choices are made only by
the style engine (see :mod:`retold.style`); the realizer only executes
them.

A fable names the same few characters and objects in almost every
sentence, so equal subtrees are built once and shared: each
:func:`transform_story` call keeps one memo of noun phrases,
prepositional phrases and clauses, and drops it on return. Nothing is kept
per document or between calls. Each node is built once, from its full
list of children (see :func:`dsynt.build`), never grown one child at a
time, so the only nodes that no tree holds are the memo's originals of
clauses used only as relabelled or punctuated copies, which share the
original's children.
"""

from __future__ import annotations

from typing import Optional

from . import dsynt as d
from . import story as s
from .diagnostics import ERROR
from .dsynt import BECAUSE, DEF, IN_ORDER, NO_ARTICLE, PAST, PERIOD, PL
from .lexicon import COMPLEMENT_KINDS, INFINITIVE, default_lexicon

# each clause attachment's function word, and whether the clause under it is finite
_CLAUSE_HEADS = {s.PURPOSE: (IN_ORDER, False), s.CAUSE: (BECAUSE, True)}


class TransformError(Exception):
    """A story the transform refuses. ``diagnostics`` holds all that
    :func:`story.validate_story` reported; the message and
    ``proposition_id`` give the first ERROR's location and message."""

    def __init__(self, message: str, proposition_id: Optional[str] = None, diagnostics=()):
        self.proposition_id = proposition_id
        self.diagnostics = diagnostics
        where = f"{proposition_id}: " if proposition_id else ""
        super().__init__(where + message)


class DiscourseContext:
    """All a clause build reads, and the memo of one :func:`transform_story`
    call. The memo is made with the context and dropped with it when the
    call returns, so no state outlives the call and none is kept per
    document.

    Equal subtrees are built once and then shared: ``nps`` holds one noun
    phrase per (argument, relation), ``pps`` one prepositional phrase per
    (preposition, targets), and ``clauses`` one clause per (proposition
    object, finite, skip_subject), so a clause reused through ``ref`` is
    built once. A clause entry holds its proposition as well as its id, so
    the id stays taken.
    """
    __slots__ = ("lexicon", "entities", "nps", "pps", "clauses")

    def __init__(self, entities: dict[str, s.Entity]):
        self.lexicon = default_lexicon()
        self.entities = entities
        self.nps: dict[tuple, d.DSyntNode] = {}
        self.pps: dict[tuple, d.DSyntNode] = {}
        self.clauses: dict[tuple[int, bool, bool], tuple[s.Proposition, d.DSyntNode]] = {}


def realize_entity_np(e: s.Entity, relation: str) -> d.DSyntNode:
    """Definite noun phrase for an entity mention, never a pronoun.

    Collectives realize as head + "of" + plural member noun with singular
    agreement on the head. A character noun carries its pronoun in the
    ``pron`` feature, which the style prefix's walk reads
    (:func:`style.pronominalize_sentences`).
    """
    feats = {"article": DEF, "number": e.number}
    if e.kind == s.CHARACTER:
        feats["pron"] = e.pronoun or ("they" if e.number == PL else "he")
    pairs = [(d.DSyntNode(adj, d.ADJECTIVE, d.ATTR), d.ATTR) for adj in e.fixed_modifiers]
    if e.group_of:
        member = d.DSyntNode(e.group_of, d.COMMON_NOUN, d.APPEND,
                             {"article": NO_ARTICLE, "number": PL})
        pairs.append((d.build("of", d.PREPOSITION, d.APPEND, None, ((member, d.APPEND),)),
                      d.APPEND))
    return d.build(e.head_lemma, d.COMMON_NOUN, relation, feats, pairs)


def _np_for_target(arg, relation: str, ctx: DiscourseContext) -> d.DSyntNode:
    key = (arg, relation)
    node = ctx.nps.get(key)
    if node is None:
        if isinstance(arg, s.EntityRef):
            node = realize_entity_np(ctx.entities[arg.entity_id], relation)
        elif isinstance(arg, s.Text):
            node = d.DSyntNode(arg.value, d.COMMON_NOUN, relation, {"article": NO_ARTICLE})
        else:
            node = d.DSyntNode(arg.adjective, d.ADJECTIVE, relation)
        ctx.nps[key] = node
    return node


def _prepositional_phrase(word: str, targets: tuple, ctx: DiscourseContext) -> d.DSyntNode:
    """``word`` over its targets, coordinated: "with dignity and unconcern"."""
    key = (word, targets)
    pp = ctx.pps.get(key)
    if pp is None:
        pp = d.build(word, d.PREPOSITION, d.APPEND, None,
                     [(_np_for_target(arg, d.APPEND, ctx), d.APPEND) for arg in targets])
        ctx.pps[key] = pp
    return pp


def build_clause(p: s.Proposition, ctx: DiscourseContext, *,
                 finite: bool = True, skip_subject: bool = False) -> d.DSyntNode:
    """Verb-rooted clause for one proposition, built once from its full
    list of children.

    ``finite`` distinguishes tensed clauses from to-infinitives; infinitive
    complements drop their (controlled) subject, so their re-bound agent is
    expressed only through the matrix clause. ``p`` must be one that
    :func:`story.validate_story` passed, as in :func:`transform_story`.
    Children come in this order: the bound roles in frame order, the
    adverbs, then the attachments in source order, one phrase per run of
    prepositional attachments (see :func:`story.attachment_groups`).
    """
    key = (id(p), finite, skip_subject)
    hit = ctx.clauses.get(key)
    if hit is not None:
        return hit[1]
    frame = ctx.lexicon.frame(p.frame.frame_id)

    feats = {"polarity": s.POLARITY_WORDS[p.polarity]}
    if finite:
        feats["tense"] = PAST

    pairs = []
    for role, rel in frame.relations.items():
        arg = p.frame.binding(role)
        if arg is None or (rel == d.I and skip_subject):
            continue
        if isinstance(arg, s.Proposition):  # a to-infinitive drops its (controlled) subject
            infinitive = COMPLEMENT_KINDS[role] == INFINITIVE
            pairs.append((build_clause(arg, ctx, finite=not infinitive, skip_subject=infinitive),
                          rel))
        elif rel in d.ARGUMENT_RELATIONS or rel == d.ATTR:
            pairs.append((_np_for_target(arg, rel, ctx), rel))
        else:  # prep:<word>
            pairs.append((_prepositional_phrase(rel.split(":", 1)[1], (arg,), ctx), d.APPEND))

    for lemma, pos in p.adverbs:
        pairs.append((d.DSyntNode(lemma, d.ADVERB, d.ATTR, {"position": s.POSITION_WORDS[pos]}),
                      d.ATTR))

    for a, targets in s.attachment_groups(p.attachments):
        if a.relation == s.PREPOSITIONAL:
            pairs.append((_prepositional_phrase(a.preposition, targets, ctx), d.APPEND))
        else:
            word, finite = _CLAUSE_HEADS[a.relation]
            clause = ((build_clause(a.target, ctx, finite=finite), d.APPEND),)
            pairs.append((d.build(word, d.FUNCTION_WORD, d.APPEND, None, clause), d.APPEND))

    root = d.build(p.frame.predicate_lemma, d.VERB, d.ROOT, feats, pairs)
    ctx.clauses[key] = (p, root)
    return root


def transform_story(g: s.StoryGraph) -> d.Document:
    """One sentence root per top-level proposition, in timeline order.

    :func:`story.validate_story` is the one gate: a story it reports an
    ERROR for raises :class:`TransformError` before anything is built.
    Equal subtrees within the story are one object (see
    :class:`DiscourseContext`); the memo that makes them so lives only as
    long as this call.
    """
    diagnostics = s.validate_story(g)
    first = next((x for x in diagnostics if x.severity == ERROR), None)
    if first is not None:
        raise TransformError(first.message, first.location, diagnostics)
    ctx = DiscourseContext({e.id: e for e in g.entities})
    return d.Document(tuple(build_clause(p, ctx).with_feature("punct", PERIOD)
                            for p in s.timeline_propositions(g)))

