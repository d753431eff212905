"""Copy-on-write tree rewrites: the same trees and sites as rebuilding every
node, and the input's own nodes wherever nothing changed. The style prefix's
one walk per sentence (drops, pronouns, the contraction rewrite it finds) is
checked against full-rebuild passes that each walk the whole tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from retold import dsynt as d
from retold import style as sty
from retold import transform as tr
from retold.story import parse_story
from retold.style import PARAM_NAMES, VoiceModel, apply_voice

from conftest import random_story


# --- the full-rebuild passes, kept as the reference ----------------------------

def rebuild_drop_coreferent_purpose_subject(sentence):
    """The sentence with each coreferent purpose subject dropped, and the
    position in it of each clause that lost its subject, in post-order.
    Every node is rebuilt, so each position holds an object of its own."""
    dropped = []

    def rewrite(node):
        node = node.replace(children=tuple(map(rewrite, node.children)))
        if node.cls != d.VERB:
            return node
        matrix_subject = node.child(d.I)
        if matrix_subject is None:
            return node
        new_children = []
        for c in node.children:
            if (c.cls == d.FUNCTION_WORD and c.lexeme == "in_order" and c.children
                    and c.children[0].cls == d.VERB):
                emb = c.children[0]
                emb_subject = emb.child(d.I)
                if (emb_subject is not None
                        and sty.coref_head(emb_subject) == sty.coref_head(matrix_subject)):
                    emb = emb.replace(children=tuple(x for x in emb.children
                                                     if x is not emb_subject))
                    c = c.replace(children=(emb,) + c.children[1:])
                    dropped.append(emb)
            new_children.append(c)
        return node.replace(children=tuple(new_children))

    sentence = rewrite(sentence)
    at = {id(node): path for path, node in d.walk(sentence)}
    return sentence, [at[id(emb)] for emb in dropped]


def rebuild_pronominalize_sentences(sentences, fire):
    """The walk's sentences and sites, and per sentence whether contracting
    it must rewrite "be able to"."""
    counts = {}
    out_sentences, out_sites = [], []
    for sentence, hot in zip(sentences, fire):
        sites = []
        if hot:
            sentence, dropped = rebuild_drop_coreferent_purpose_subject(sentence)
            sites.extend((path, "subject-drop") for path in dropped)
        replacements = []
        for path, node in d.walk(sentence):
            pron = node.feature("pron")
            if node.cls != d.COMMON_NOUN or pron is None:
                continue
            key = (node.lexeme, pron)
            counts[key] = counts.get(key, 0) + 1
            if counts[key] > 1 and hot:
                replacements.append((path, pron))
        for path, pron in reversed(replacements):
            old = d.node_at(sentence, path)
            new = d.DSyntNode(pron, d.FUNCTION_WORD, old.relation,
                              {"number": old.feature("number", "sg")})
            sentence = d.replace_at(sentence, path, new)
        sites.extend(replacements)
        out_sentences.append(sentence)
        out_sites.append(sites)
    unable = [rebuild_rewrite_unable_to_modal(s) != s for s in out_sentences]
    return out_sentences, out_sites, unable


def rebuild_rewrite_unable_to_modal(node, removed=None, path=()):
    """The rewrite, with the position of each ``able`` it removes, as it
    was in the input, appended to ``removed``."""
    node = node.replace(children=tuple(rebuild_rewrite_unable_to_modal(c, removed, path + (i,))
                                       for i, c in enumerate(node.children)))
    if (node.cls == d.VERB and node.lexeme == "be"
            and node.feature("polarity") == "neg"):
        able = [c for c in node.children
                if c.relation == d.ATTR and c.cls == d.ADJECTIVE and c.lexeme == "able"]
        # a negated VP keeps "able": the modal's bare VP cannot say its "not"
        inf = [c for c in node.children
               if c.relation == d.II and c.cls == d.VERB and "tense" not in c.features
               and c.feature("polarity") != "neg"]
        if able and inf:
            if removed is not None:
                removed.append(path + (next(i for i, c in enumerate(node.children)
                                            if c is able[0]),))
            children = tuple(c for c in node.children if c is not able[0])
            return node.replace(lexeme="can", children=children)
    return node


def rebuild_enable_contractions(sentence, removed=None):
    return rebuild_rewrite_unable_to_modal(sentence, removed).with_feature("contract", "on")


def _moved_sites(tree, contracted, removed, sites):
    """``sites`` in ``tree`` as positions in ``contracted``: the rewrite
    removes only the ``able`` leaves at ``removed``, so every other node
    keeps its rank in pre-order."""
    kept = [path for path, _ in d.walk(tree) if path not in removed]
    now = [path for path, _ in d.walk(contracted)]
    assert len(kept) == len(now)
    where = dict(zip(kept, now))
    return [(where[path], payload) for path, payload in sites]


def _decisions(i, sites):
    return [sty.StyleDecision(i, sty.PRONOMINALIZATION, sty._path_str(path), payload)
            for path, payload in sites]


def _check_prefix(sentences, fire):
    """The prefix of ``sentences`` under ``fire`` against the rebuild oracles."""
    want_sentences, want_sites, want_unable = rebuild_pronominalize_sentences(sentences, fire)
    assert sty.pronominalize_sentences(sentences, fire) == (want_sentences, want_sites,
                                                            want_unable)
    prefix = sty._SharedPrefix(tuple(sentences), tuple(fire))
    assert prefix.sentences == want_sentences
    for i, (tree, sites) in enumerate(zip(want_sentences, want_sites)):
        assert prefix.sites[i] == sites
        assert prefix.decisions[i] == _decisions(i, sites)
        removed = []
        contracted = rebuild_enable_contractions(tree, removed)
        assert sty.enable_contractions(prefix.sentences[i], want_unable[i]) == contracted
        new, decision, moves = prefix.contracted(i)
        assert new == contracted
        assert decision == sty.StyleDecision(i, "contractions", "root", "on")
        # the rewrite's moves carry every site to where the oracle puts the
        # node it named; no site names a removed "able"
        assert [(sty._rebase(path, moves), payload) for path, payload in sites] == \
            _moved_sites(tree, contracted, removed, sites)
        assert bool(moves) == bool(removed)
    return prefix


@settings(derandomize=True, deadline=None)
@given(story_seed=hst.integers(0, 10**6), data=hst.data())
def test_rewrites_match_rebuilding_every_node(story_seed, data):
    sentences = list(tr.transform_story(random_story(random.Random(story_seed))).sentences)
    fire = data.draw(hst.lists(hst.booleans(), min_size=len(sentences),
                               max_size=len(sentences)))
    prefix = _check_prefix(sentences, fire)
    for sentence in sentences + prefix.sentences:
        assert sty.enable_contractions(sentence) == rebuild_enable_contractions(sentence)


def _np(lemma, relation=d.I, pron="he"):
    features = {"article": "def", "number": "sg"}
    if pron:
        features["pron"] = pron
    return d.DSyntNode(lemma, d.COMMON_NOUN, relation, features)


def _in_order(clause):
    return d.build(d.IN_ORDER, d.FUNCTION_WORD, d.APPEND, None,
                   [(clause.replace(features={k: v for k, v in clause.features.items()
                                               if k != "tense"}), d.APPEND)])


def test_nested_subject_drops_come_in_post_order():
    # the fox jumped in order [for the fox] to reach the grapes in order
    # [for the fox] to eat them: the inner clause's drop is recorded first,
    # at its position in the final tree, one before where it was
    eat = d.build("eat", d.VERB, pairs=[(_np("fox"), d.I), (_np("grapes", d.II, None), d.II)])
    reach = d.build("reach", d.VERB, pairs=[(_np("fox"), d.I), (_np("grapes", d.II, None), d.II),
                                            (_in_order(eat), d.APPEND)])
    past = {"tense": "past"}
    sentence = d.build("jump", d.VERB, d.ROOT, past,
                       [(_np("fox"), d.I), (_in_order(reach), d.APPEND)])
    fox_again = d.build("sit", d.VERB, d.ROOT, past, [(_np("fox"), d.I)])
    prefix = _check_prefix([sentence, fox_again], [True, True])
    assert prefix.sites[0] == [((1, 0, 1, 0), "subject-drop"), ((1, 0), "subject-drop")]
    # a dropped subject is no mention: the fox of the next sentence is its second
    assert prefix.sites[1] == [((0,), "he")]
    reach_now = d.node_at(prefix.sentences[0], (1, 0))
    assert [c.lexeme for c in reach_now.children] == ["grapes", "in_order"]
    assert [c.lexeme for c in d.node_at(reach_now, (1, 0)).children] == ["grapes"]
    assert [d.node_at(prefix.sentences[0], path).lexeme
            for path, _ in prefix.sites[0]] == ["eat", "reach"]


NESTED_UNABLE = """story t "T"

entities
  fox character fox
  crow character crow pronoun=she
  grapes object group group_of=grape

timeline
  0:
    see see(Experiencer=fox, Stimulus=crow)
  1:
    obtain obtain(Agent=fox, Theme=grapes) polarity=neg
      cause:
        be_able be(Experiencer=fox, Attribute=@able) polarity=neg
          role Action:
            reach reach(Agent=fox, Theme=grapes)
          prep with: crow
"""


def test_a_nested_able_rewrite_moves_the_sites_after_it():
    # "... because he couldn't reach the group of grapes with her": the
    # contraction removes "able" from the clause under "because", so the
    # crow's pronoun after it moves back by one
    doc = tr.transform_story(parse_story(NESTED_UNABLE))
    prefix = _check_prefix(list(doc.sentences), [True, True])
    assert prefix.sites[1] == [((0,), "he"), ((2, 0, 0), "he"), ((2, 0, 3, 0), "she")]
    assert d.node_at(prefix.sentences[1], (2, 0, 2)).lexeme == "able"
    styled, decisions = apply_voice(doc, sty.BUILTIN_VOICES["FORMAL"], 0)
    sites = [x.site for x in decisions if x.param == sty.PRONOMINALIZATION]
    assert sites == ["0", "2.0.0", "2.0.2.0"]
    assert d.node_at(styled.sentences[1], (2, 0, 2, 0)).lexeme == "she"
    # the decisions whose sites did not move are the prefix's own
    assert decisions[:2] == prefix.decisions[1][:2]
    shared = doc.memo((True, True), lambda: pytest.fail("no prefix"))
    assert all(x is y for x, y in zip(decisions[:2], shared.decisions[1]))
    assert decisions[2] is not shared.decisions[1][2]


def test_the_walk_notes_every_sentence_the_contractions_rewrite(fixture_sentences):
    expected = [sty.rewrite_unable_to_modal(s) is not s for s in fixture_sentences]
    assert sum(expected) == 1
    for gate in (True, False):
        new, sites, unable = sty.pronominalize_sentences(fixture_sentences,
                                                         [gate] * len(fixture_sentences))
        assert unable == expected
    # with no gate fired, the walk changes no node and notes no site
    assert all(n is s for n, s in zip(new, fixture_sentences, strict=True))
    assert sites == [[]] * len(fixture_sentences)


# --- sharing: counted in node objects, not timed ---------------------------------

def _fresh_paths(new, old):
    """Paths of the nodes in ``new`` that are not objects of ``old``."""
    old_ids = {id(node) for _, node in d.walk(old)}
    return {path for path, node in d.walk(new) if id(node) not in old_ids}


def _prefixes(paths):
    return {path[:k] for path in paths for k in range(len(path) + 1)}


@pytest.fixture(scope="module")
def fixture_sentences(fox_graph, lion_graph):
    return [s for g in (fox_graph, lion_graph) for s in tr.transform_story(g).sentences]


def test_with_children_keeps_the_node_unless_a_child_changed(fixture_sentences):
    for n in fixture_sentences:
        assert n.with_children(n.children) is n
        assert n.with_children(tuple(list(n.children))) is n
        last = n.children[-1].with_feature("stutter", "1")
        swapped = n.with_children(n.children[:-1] + (last,))
        assert swapped is not n and swapped == d.DSyntNode(
            n.lexeme, n.cls, n.relation, n.features, swapped.children)
        assert all(a is b for a, b in zip(swapped.children[:-1], n.children))


def test_rewrite_unable_to_modal_returns_a_sentence_without_one(fixture_sentences):
    untouched = [s for s in fixture_sentences
                 if not any(n.lexeme == "able" for _, n in d.walk(s))]
    assert len(untouched) == len(fixture_sentences) - 1
    for s in untouched:
        assert sty.rewrite_unable_to_modal(s) is s
        assert _fresh_paths(sty.enable_contractions(s), s) == {()}
    [able] = [s for s in fixture_sentences if s not in untouched]
    path = next(p for p, n in d.walk(able) if n.lexeme == "be")
    assert _fresh_paths(sty.rewrite_unable_to_modal(able), able) == _prefixes([path])


def test_a_subject_drop_rebuilds_only_the_path_to_it(fixture_sentences):
    drops = 0
    for s in fixture_sentences:
        # told alone, a sentence whose characters each come once has only drops
        [new], [sites], _ = sty.pronominalize_sentences([s], [True])
        dropped = [path for path, kind in sites if kind == "subject-drop"]
        if len(dropped) < len(sites):
            continue
        if not dropped:
            assert new is s
        assert _fresh_paths(new, s) == _prefixes(dropped)
        drops += len(dropped)
    assert drops > 0


def test_pronominalization_rebuilds_only_the_paths_to_its_sites(fixture_sentences):
    new, sites, _ = sty.pronominalize_sentences(fixture_sentences,
                                                [True] * len(fixture_sentences))
    assert sum(map(len, sites)) > 0
    for before, after, at in zip(fixture_sentences, new, sites):
        if not at:
            assert after is before
        assert _fresh_paths(after, before) == _prefixes(p for p, _ in at)


def test_a_mention_inside_a_replaced_mention_is_still_counted():
    def np(lemma, pron):
        return d.DSyntNode(lemma, d.COMMON_NOUN,
                           features={"article": "def", "number": "sg", "pron": pron})

    def clause(subject):
        return d.build("jump", d.VERB, d.ROOT, {"tense": "past"}, [(subject, d.I)])

    of_crow = d.build("of", d.PREPOSITION, pairs=[(np("crow", "she"), d.APPEND)])
    fox_of_crow = d.build("fox", d.COMMON_NOUN, d.ROOT, np("fox", "he").features,
                          [(of_crow, d.APPEND)])
    sentences = [clause(np("fox", "he")), clause(fox_of_crow), clause(np("crow", "she"))]
    got = sty.pronominalize_sentences(sentences, [True] * 3)
    assert got == rebuild_pronominalize_sentences(sentences, [True] * 3)
    _check_prefix(sentences, [True] * 3)
    assert got[1] == [[], [((0,), "he")], [((0,), "she")]]


# --- the clause spine: what the spine-only walks may skip ------------------------

NON_CLAUSE_CLASSES = (d.COMMON_NOUN, d.PREPOSITION, d.ADJECTIVE, d.ADVERB)


@settings(derandomize=True, deadline=None)
@given(story_seed=hst.integers(0, 10**6), voice_seed=hst.integers(0, 10**6))
def test_no_verb_below_a_noun_preposition_or_modifier(story_seed, voice_seed):
    doc = tr.transform_story(random_story(random.Random(story_seed)))
    maxed = VoiceModel("maxed", {p: 1.0 for p in PARAM_NAMES})
    for sentences in (doc.sentences, apply_voice(doc, maxed, voice_seed)[0].sentences):
        for sentence in sentences:
            for _, node in d.walk(sentence):
                if node.cls in NON_CLAUSE_CLASSES:
                    assert all(c.cls != d.VERB for _, c in d.walk(node)), node
