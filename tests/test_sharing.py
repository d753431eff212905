"""Equal subtrees are one object within a story: the transform builds each
noun phrase, prepositional phrase and reused clause once, and the realizer
realizes each shared phrase once per document. Sharing must never show in
the output: texts and trees read as if every position had its own node."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from retold import dsynt as d
from retold import realize as rz
from retold import story as st
from retold import style as sty
from retold import transform as tr
from retold.record import Record
from retold.style import BUILTIN_VOICES, tell

from conftest import fixture_text, random_story, ref_chain_story


def _positions(doc):
    """(sentence index, path, node) for every position of every sentence."""
    return [(i, path, node) for i, s in enumerate(doc.sentences) for path, node in d.walk(s)]


# --- the transform -------------------------------------------------------------

def test_each_entity_mention_in_one_relation_is_one_object(fox_graph):
    doc = tr.transform_story(fox_graph)
    positions = _positions(doc)
    shared = 0
    for e in fox_graph.entities:
        for relation in (d.I, d.II, d.III, d.APPEND):
            mention = tr.realize_entity_np(e, relation)
            objects = [node for _, _, node in positions if node == mention]
            assert all(node is objects[0] for node in objects), (e.id, relation)
            shared += len(objects) > 1
    assert shared >= 3


def test_a_reused_clause_is_built_and_checked_once(monkeypatch):
    # s1..s10 each reuse the one before as a purpose (to-infinitive) and as
    # a cause (finite): 11 finite clauses and 10 infinitives are distinct,
    # though the expanded timeline holds 4,083 propositions. The transform's
    # one validation checks each of the 11 distinct propositions once.
    g = st.parse_story(ref_chain_story(10))
    calls = []
    check = st.proposition_errors
    monkeypatch.setattr(st, "proposition_errors", lambda p, *a: calls.append(p) or check(p, *a))
    doc = tr.transform_story(g)
    assert len(calls) == 11
    assert len({id(p) for p in calls}) == 11

    def clause_under(node, word):
        return next(c for c in node.children if c.lexeme == word).children[0]

    # a clause used at several positions keeps one tuple of children
    finite = clause_under(doc.sentences[-1], "because")
    assert finite.children is doc.sentences[-2].children
    infinitive = clause_under(doc.sentences[-1], "in_order")
    assert clause_under(infinitive, "because").children is clause_under(finite, "because").children


def test_no_node_outlives_one_transform_call(fox_graph):
    first, second = tr.transform_story(fox_graph), tr.transform_story(fox_graph)
    assert first == second
    ids = {id(node) for _, _, node in _positions(first)}
    assert not any(id(node) in ids for _, _, node in _positions(second))


def test_attach_keeps_a_child_that_already_has_the_relation():
    subject = d.DSyntNode("fox", d.COMMON_NOUN, d.I, {"article": "def"})
    clause = d.build("jump", d.VERB, pairs=[(subject, d.I)])
    assert clause.children[0] is subject
    relabeled = d.build("see", d.VERB, pairs=[(subject, d.II)])
    assert relabeled.children[0] is not subject and relabeled.children[0].relation == d.II
    assert subject.relation == d.I


def _distinct_nodes(doc):
    """Every node object reachable from ``doc``, by id, each visited once."""
    seen, todo = {}, list(doc.sentences)
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.children)
    return seen


@pytest.mark.parametrize("text", [fixture_text("fox_and_grapes.story"),
                                  fixture_text("lion_and_boar.story"),
                                  ref_chain_story(10)],
                         ids=["fox", "lion", "ref-chain-10"])
def test_the_transform_builds_no_node_it_throws_away(text, monkeypatch):
    # each node is built once from its full child list: none is an
    # intermediate copy. A clause's memo original may sit nowhere itself when
    # every use is a relabelled or punctuated copy, which keeps its children.
    g = st.parse_story(text)
    built, contexts = [], []
    init = d.DSyntNode.__init__
    context = tr.DiscourseContext

    def record_node(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(d.DSyntNode, "__init__", record_node)
    monkeypatch.setattr(tr, "DiscourseContext",
                        lambda *args: contexts.append(context(*args)) or contexts[-1])
    doc = tr.transform_story(g)
    monkeypatch.undo()

    reachable = _distinct_nodes(doc)
    [ctx] = contexts
    originals = {id(root) for _, root in ctx.clauses.values()}
    copies = {(id(n.children), n.lexeme) for n in reachable.values()}
    thrown = [n for n in built if id(n) not in reachable]
    assert {id(n) for n in built} >= reachable.keys()
    for node in thrown:
        assert id(node) in originals, node
        assert (id(node.children), node.lexeme) in copies, node


def _arguments(g):
    """Every inline argument and prepositional attachment object in ``g``,
    nested propositions included, once per mention."""
    out, seen, todo = [], set(), st.timeline_propositions(g)
    while todo:
        p = todo.pop()
        if id(p) in seen:
            continue
        seen.add(id(p))
        for arg in [a for _, a in p.frame.bindings] + [a.target for a in p.attachments]:
            (todo if isinstance(arg, st.Proposition) else out).append(arg)
        out.extend(a for a in p.attachments if a.relation == st.PREPOSITIONAL)
    return out


LITERALS = ('story x "X"\n\nentities\n  fox character fox\n  grapes object group group_of=grape\n'
            '\ntimeline\n  0:\n    say say(Agent=fox, Topic="the truth")\n'
            '      prep with: "dignity", fox\n'
            '      purpose:\n        be_ripe be(Theme=grapes, Attribute=@ripe)\n'
            '          prep with: "dignity", fox\n'
            '  1:\n    be_ripe be(Theme=grapes, Attribute=@ripe)\n'
            '    say say(Agent=fox, Topic="the truth")\n')


@pytest.mark.parametrize("text", [fixture_text("fox_and_grapes.story"),
                                  fixture_text("lion_and_boar.story"), LITERALS]
                         + [st.serialize_story(random_story(random.Random(seed)))
                            for seed in range(10)],
                         ids=["fox", "lion", "literals"] + [f"random-{seed}" for seed in range(10)])
def test_a_parse_builds_each_inline_argument_once(text):
    g = st.parse_story(text)
    arguments = _arguments(g)
    by_value = {}
    for arg in arguments:
        assert by_value.setdefault(arg, arg) is arg, arg
    assert len(by_value) < len(arguments)
    refs = [a for a in by_value if isinstance(a, st.EntityRef)]
    assert len(refs) == len({a.entity_id for a in refs})


@pytest.mark.parametrize("text", [fixture_text("fox_and_grapes.story"),
                                  fixture_text("lion_and_boar.story"), LITERALS,
                                  st.serialize_story(random_story(random.Random(6)))],
                         ids=["fox", "lion", "literals", "random-6"])
def test_a_parse_reads_each_prep_line_once(text, monkeypatch):
    # a prep line repeated under another proposition, at any depth, is
    # split into its targets once; a split for an argument list is not one
    splits, in_bindings = [], []
    split, inline_bindings = st._Parser._split_args, st._Parser._inline_bindings

    def record_split(self, args, lineno):
        if not in_bindings:
            splits.append(args)
        return split(self, args, lineno)

    def mark_bindings(self, args, lineno):
        in_bindings.append(args)
        try:
            return inline_bindings(self, args, lineno)
        finally:
            in_bindings.pop()

    monkeypatch.setattr(st._Parser, "_split_args", record_split)
    monkeypatch.setattr(st._Parser, "_inline_bindings", mark_bindings)
    st.parse_story(text)
    prep_lines = [line.strip() for line in text.splitlines() if line.strip().startswith("prep ")]
    assert len(splits) == len(set(prep_lines))


def _records(value, out):
    """Every record object reachable from ``value``, by id."""
    if isinstance(value, tuple):
        for item in value:
            _records(item, out)
    elif isinstance(value, Record) and id(value) not in out:
        out[id(value)] = value
        for name in value._fields:
            _records(getattr(value, name), out)
    return out


@pytest.mark.parametrize("text", [fixture_text("fox_and_grapes.story"),
                                  fixture_text("lion_and_boar.story"), LITERALS],
                         ids=["fox", "lion", "literals"])
def test_two_parses_are_equal_and_share_no_object(text):
    first, second = st.parse_story(text), st.parse_story(text)
    assert first == second
    assert not _records(first, {}).keys() & _records(second, {}).keys()


def test_one_pronoun_node_per_pronoun_relation_and_number(fox_graph):
    sentences = tr.transform_story(fox_graph).sentences
    sentences, sites, _ = sty.pronominalize_sentences(sentences, [True] * len(sentences))
    pronouns = [d.node_at(sentence, path) for sentence, at in zip(sentences, sites)
                for path, kind in at if kind != "subject-drop"]
    by_key = {}
    for node in pronouns:
        key = (node.lexeme, node.relation, node.features.get("number"))
        assert by_key.setdefault(key, node) is node
    assert len(by_key) < len(pronouns)


# --- aliasing: a rewrite at one position changes that position only ---------------

def _shared_mention(doc):
    """A noun phrase object that sits in more than one sentence, and its
    first position."""
    first = {}
    for i, path, node in _positions(doc):
        if node.cls == d.COMMON_NOUN and "pron" in node.features:
            seen = first.setdefault(id(node), (i, path, node))
            if seen[0] != i:
                return seen
    raise AssertionError("no noun phrase is shared between sentences")


@pytest.mark.parametrize("rewrite", [
    lambda node: node.with_feature("stutter", "2"),
    lambda node: d.DSyntNode("wolf", node.cls, node.relation, node.features, node.children),
], ids=["stutter", "swap"])
def test_rewriting_a_shared_phrase_changes_one_sentence(fox_graph, lion_graph, rewrite):
    for g in (fox_graph, lion_graph):
        doc = tr.transform_story(g)
        before_xml = d.serialize(doc)
        before = [rz.realize_sentence(s) for s in doc.sentences]
        i, path, node = _shared_mention(doc)
        sentences = list(doc.sentences)
        sentences[i] = d.replace_at(sentences[i], path, rewrite(node))
        after = [rz.realize_sentence(s) for s in sentences]
        assert after[i] != before[i]
        assert after[:i] + after[i + 1:] == before[:i] + before[i + 1:]
        assert rz.realize_document(d.Document(tuple(sentences))) == " ".join(after)
        assert d.serialize(doc) == before_xml
        assert [rz.realize_sentence(s) for s in doc.sentences] == before


# --- the realizer ------------------------------------------------------------------

def _assert_each_telling_is_its_sentences(doc, voice_seed):
    for model in BUILTIN_VOICES.values():  # NEUTRAL tells ``doc`` itself
        told = tell(doc, model, voice_seed)
        assert told.text == " ".join(map(rz.realize_sentence, told.document.sentences))


@settings(derandomize=True, deadline=None)
@given(story_seed=hst.integers(0, 10**6), voice_seed=hst.integers(0, 10**6))
def test_document_realizes_as_its_sentences_on_random_stories(story_seed, voice_seed):
    doc = tr.transform_story(random_story(random.Random(story_seed)))
    _assert_each_telling_is_its_sentences(doc, voice_seed)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(levels=hst.integers(0, 6), voice_seed=hst.integers(0, 10**6))
def test_document_realizes_as_its_sentences_on_ref_chains(levels, voice_seed):
    doc = tr.transform_story(st.parse_story(ref_chain_story(levels)))
    _assert_each_telling_is_its_sentences(doc, voice_seed)


def test_each_shared_phrase_is_realized_once_per_document(fox_graph, monkeypatch):
    doc = tr.transform_story(fox_graph)
    text = rz.realize_document(doc)
    realized = []
    noun_phrase = rz._Realizer._noun_phrase
    monkeypatch.setattr(rz._Realizer, "_noun_phrase",
                        lambda self, node: realized.append(id(node)) or noun_phrase(self, node))
    assert rz.realize_document(doc) == text
    mentions = [id(node) for _, _, node in _positions(doc) if node.cls == d.COMMON_NOUN]
    assert sorted(realized) == sorted(set(mentions))
    assert len(realized) < len(mentions)


def test_each_past_form_is_inflected_once_per_document(lion_graph, monkeypatch):
    doc = tr.transform_story(lion_graph)
    text = rz.realize_document(doc)
    pasts = []
    past = rz.past
    monkeypatch.setattr(rz, "past", lambda entry, number: pasts.append(
        (entry.lemma, number)) or past(entry, number))
    assert rz.realize_document(doc) == text
    assert len(pasts) == len(set(pasts)) > 1
    finite = [node for _, _, node in _positions(doc)
              if node.cls == d.VERB and "tense" in node.features]
    assert len(finite) > len(pasts)
