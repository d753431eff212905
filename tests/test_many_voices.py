"""One document told in many voices. The pronominalization pass, the
contractions it leaves and its decisions are made once per document and
fire vector and kept on the document; telling a document in any order of
voices, or twice, must give what a fresh document per voice gives. A
voice that draws makes every sentence's random stream once, and any other
voice makes none; unless its pronominalization is fractional, it holds one
stream at a time."""

import copy
import pickle
import random
import weakref

import pytest

from retold import dsynt as d
from retold import style
from retold import transform as tr
from retold.realize import realize_document

from conftest import random_story
from test_output_pin import DRAW_VOICES, EVERYTHING

VOICES = ("NEUTRAL", "FORMAL", "SHY", "LAID-BACK")
# forwards, backwards, then each voice twice in a row
ORDER = VOICES + VOICES[::-1] + tuple(v for v in VOICES for _ in range(2))
HALF = style.parse_voice("voice HALF\npronominalization: 0.5\ncontractions: 0.7\n")


def _telling(doc, model, seed):
    styled, decisions = style.apply_voice(doc, model, seed)
    return realize_document(styled), list(map(repr, decisions)), d.serialize(styled)


def _graphs(fox_graph, lion_graph, stories=30):
    return [fox_graph, lion_graph] + [random_story(random.Random(k)) for k in range(stories)]


@pytest.fixture
def pronominalize_calls(monkeypatch):
    calls = []
    real = style.pronominalize_sentences
    monkeypatch.setattr(style, "pronominalize_sentences",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_any_order_of_voices_on_one_document_tells_as_fresh_ones(fox_graph, lion_graph):
    for k, g in enumerate(_graphs(fox_graph, lion_graph)):
        fresh = {v: _telling(tr.transform_story(g), style.BUILTIN_VOICES[v], k) for v in VOICES}
        doc = tr.transform_story(g)
        for v in ORDER:
            assert _telling(doc, style.BUILTIN_VOICES[v], k) == fresh[v], (k, v)


def test_voices_with_other_fire_vectors_replace_the_prefix(fox_graph, lion_graph,
                                                           pronominalize_calls):
    formal = style.BUILTIN_VOICES["FORMAL"]
    for g in _graphs(fox_graph, lion_graph, stories=4):
        doc = tr.transform_story(g)
        n = len(doc.sentences)
        fresh = {(model.name, seed): _telling(tr.transform_story(g), model, seed)
                 for model in (HALF, formal) for seed in range(6)}
        del pronominalize_calls[:]
        keys = []
        for seed in range(6):
            for model in (HALF, formal):
                assert _telling(doc, model, seed) == fresh[(model.name, seed)], (g.id, seed)
                a = model.activation("pronominalization")
                keys.append(tuple(random.Random(f"{seed}:{i}").random() < a for i in range(n)))
        # one pass each time the fire vector differs from the one before
        misses = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
        assert len(pronominalize_calls) == misses
        assert len(set(keys)) > 2


def test_three_voices_pronominalize_once(fox_graph, monkeypatch, pronominalize_calls):
    contracted = []
    real = style.enable_contractions
    monkeypatch.setattr(style, "enable_contractions",
                        lambda s, *rest: contracted.append(s) or real(s, *rest))
    doc = tr.transform_story(fox_graph)
    counts = []
    for v in VOICES[1:]:
        style.apply_voice(doc, style.BUILTIN_VOICES[v], 3)
        counts.append((len(pronominalize_calls), len(contracted)))
    n = len(doc.sentences)
    # FORMAL contracts every sentence; SHY reuses them all, LAID-BACK those
    # its earlier transforms left alone
    assert counts[0] == (1, n) and counts[1] == (1, n)
    assert counts[2][0] == 1 and n < counts[2][1] < 2 * n


def test_the_prefix_is_not_part_of_the_document(fox_graph, pronominalize_calls):
    fresh = tr.transform_story(fox_graph)
    doc = tr.transform_story(fox_graph)
    style.apply_voice(doc, style.BUILTIN_VOICES["FORMAL"], 0)
    assert len(pronominalize_calls) == 1
    assert doc == fresh and repr(doc) == repr(fresh)
    assert pickle.dumps(doc) == pickle.dumps(fresh)
    # a node's features are a dict, so only a document without sentences hashes
    empty = d.Document()
    style.apply_voice(empty, style.BUILTIN_VOICES["FORMAL"], 0)
    assert hash(empty) == hash(d.Document()) and pickle.dumps(empty) == pickle.dumps(d.Document())
    for other in (pickle.loads(pickle.dumps(doc)), doc.replace(), copy.copy(doc),
                  copy.deepcopy(doc)):
        assert other == doc
        style.apply_voice(other, style.BUILTIN_VOICES["FORMAL"], 0)
    # each copy started empty and made its own prefix
    assert len(pronominalize_calls) == 6


def test_memo_holds_one_value():
    doc = d.Document()
    made = []

    def make(value):
        return lambda: made.append(value) or value

    assert doc.memo((True,), make("a")) == "a"
    assert doc.memo((True,), make("b")) == "a"
    assert doc.memo((False,), make("c")) == "c"
    assert doc.memo((True,), make("d")) == "d"
    assert made == ["a", "c", "d"]


class _Streams(list):
    """The seed of each random stream made, in order, with how many of the
    streams are alive now and the most that were alive at once."""
    alive = most_alive = 0

    def died(self):
        self.alive -= 1


@pytest.fixture
def streams_made(monkeypatch):
    """The seed of each random stream the style engine makes, in order, and
    how many of them were alive at once."""
    seeds = _Streams()

    class Counting(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            seeds.alive += 1
            seeds.most_alive = max(seeds.most_alive, seeds.alive)
            weakref.finalize(self, seeds.died)
            super().__init__(seed)

    monkeypatch.setattr(style, "Random", Counting)
    return seeds


def _draws(model):
    """Whether a voice draws: an activation strictly between 0 and 1, or an
    active sentence transform other than the contractions."""
    return any(0.0 < a < 1.0 or (a > 0.0 and p not in (style.PRONOMINALIZATION,
                                                       style.CONTRACTIONS))
               for p, a in model.params.items())


def test_a_voice_makes_only_the_streams_it_draws_from(fox_graph, lion_graph, streams_made):
    voices = ([style.BUILTIN_VOICES[v] for v in VOICES] + [EVERYTHING, HALF] + DRAW_VOICES
              + _random_voices(random.Random(17), 4))
    # NEUTRAL and FORMAL draw nothing, and so do pronominalization@1.0 and
    # contractions@1.0; every other voice here draws
    assert sum(not _draws(model) for model in voices) == 4
    for k, g in enumerate(_graphs(fox_graph, lion_graph, stories=6)):
        doc = tr.transform_story(g)
        n = len(doc.sentences)
        for model in voices:
            del streams_made[:]
            style.apply_voice(doc, model, k)
            expected = [f"{k}:{i}" for i in range(n)] if _draws(model) else []
            assert streams_made == expected, (g.id, model.name)


def test_a_voice_with_a_whole_gate_holds_one_stream_at_a_time(fox_graph, lion_graph,
                                                               streams_made):
    # pronominalization at 0 or 1.0 fires whatever it draws, so no stream
    # is needed before the pass, and each is made when its sentence is styled
    fractional = _random_voices(random.Random(18), 4)
    whole = ([style.BUILTIN_VOICES[v] for v in VOICES]
             + [m for m in DRAW_VOICES if m.activation(style.PRONOMINALIZATION) in (0.0, 1.0)]
             + [style.VoiceModel(f"{m.name}@{a}", {**m.params, style.PRONOMINALIZATION: a})
                for m in fractional for a in (0.0, 1.0)])
    held = 0
    for k, g in enumerate(_graphs(fox_graph, lion_graph, stories=6)):
        doc = tr.transform_story(g)
        for model in whole + [HALF] + fractional:
            streams_made.most_alive = 0
            style.apply_voice(doc, model, k)
            # no stream outlives its voice's application
            assert streams_made.alive == 0, (g.id, model.name)
            if 0.0 < model.activation(style.PRONOMINALIZATION) < 1.0:
                held = max(held, streams_made.most_alive)
            else:
                assert streams_made.most_alive == _draws(model), (g.id, model.name)
    # a fractional gate draws before the pass, so it holds every stream
    assert held > 1


def test_sentences_left_as_the_prefix_made_them_share_its_decisions(fox_graph, lion_graph):
    shared = 0
    for k, g in enumerate(_graphs(fox_graph, lion_graph, stories=6)):
        doc = tr.transform_story(g)
        formal, formal_decisions = style.apply_voice(doc, style.BUILTIN_VOICES["FORMAL"], k)
        shy, shy_decisions = style.apply_voice(doc, style.BUILTIN_VOICES["SHY"], k)
        for i, (a, b) in enumerate(zip(formal.sentences, shy.sentences)):
            mine = [x for x in formal_decisions
                    if x.sentence_index == i and x.param == style.PRONOMINALIZATION]
            theirs = [x for x in shy_decisions
                      if x.sentence_index == i and x.param == style.PRONOMINALIZATION]
            if a is b:
                assert len(theirs) == len(mine)
                assert all(x is y for x, y in zip(mine, theirs)), (g.id, i)
                shared += len(mine)
    assert shared > 0


def test_formal_rebases_only_where_the_contraction_moved_a_node(fox_graph, lion_graph,
                                                                monkeypatch):
    """FORMAL leaves each sentence as the prefix contracted it, so its only
    moves are those of a contraction that rewrote "not able to": only
    there are sites carried, and only there are its records fresh, one
    for each site that moved."""
    formal = style.BUILTIN_VOICES["FORMAL"]
    rebased = []
    real = style._rebase
    monkeypatch.setattr(style, "_rebase", lambda *args: rebased.append(args) or real(*args))
    seen = 0
    for k, g in enumerate(_graphs(fox_graph, lion_graph, stories=6)):
        doc = tr.transform_story(g)
        for told in range(2):
            del rebased[:]
            styled, decisions = style.apply_voice(doc, formal, k)
            shared = doc.memo((True,) * len(doc.sentences), lambda: pytest.fail("no prefix"))
            carried = 0
            for i, sentence in enumerate(styled.sentences):
                tree, contraction, moves = shared.contracted(i)
                assert sentence is tree, (g.id, i)
                mine = [x for x in decisions if x.sentence_index == i]
                records = [x for x in mine if x.param == style.PRONOMINALIZATION]
                assert mine == records + [contraction] and mine[-1] is contraction
                assert len(records) == len(shared.decisions[i])
                for x, y in zip(records, shared.decisions[i]):
                    assert (x is y) == (not moves or x.site == y.site), (g.id, i, x)
                carried += len(records) if moves else 0
            # each site of a moved sentence is carried once, and no other
            assert len(rebased) == carried, (g.id, told)
            seen += carried
    assert seen > 0


def test_a_restyled_sentence_checks_each_site_in_its_final_tree(fox_graph, lion_graph):
    """SHY after FORMAL: a sentence an opener changed gets its
    pronominalization sites carried into its final tree, as a fresh
    document gets them. Each names the node the prefix's site named, and a
    decision whose site did not move is the prefix's own record."""
    restyled = 0
    for k, g in enumerate(_graphs(fox_graph, lion_graph, stories=6)):
        doc = tr.transform_story(g)
        style.apply_voice(doc, style.BUILTIN_VOICES["FORMAL"], k)
        shy, decisions = style.apply_voice(doc, style.BUILTIN_VOICES["SHY"], k)
        fresh = style.apply_voice(tr.transform_story(g), style.BUILTIN_VOICES["SHY"], k)
        assert (shy, decisions) == fresh
        shared = doc.memo((True,) * len(doc.sentences), lambda: pytest.fail("no prefix"))
        for i, sentence in enumerate(shy.sentences):
            # SHY contracts every sentence before any other rewrite
            tree, _, _ = shared.contracted(i)
            if sentence is tree:
                continue
            mine = [x for x in decisions
                    if x.sentence_index == i and x.param == style.PRONOMINALIZATION]
            sites = shared.sites[i]
            assert [x.payload for x in mine] == [payload for _, payload in sites], (g.id, i)
            for x, y, (path, _) in zip(mine, shared.decisions[i], sites):
                assert x.site != "root", (g.id, i, x)
                node = d.node_at(sentence, tuple(map(int, x.site.split("."))))
                was = d.node_at(shared.sentences[i], path)
                assert (node.lexeme, node.cls, node.relation) == \
                    (was.lexeme, was.cls, was.relation), (g.id, i, x)
                assert (x is y) == (x.site == y.site), (g.id, i, x)
                restyled += x is not y
    assert restyled > 0


def _random_voices(rng, count):
    """Voices with each parameter at 0, 0.3, 0.5 or 1.0 and a fractional
    pronominalization."""
    names = sorted(style.PARAM_NAMES - {style.PRONOMINALIZATION})
    return [style.VoiceModel(f"RANDOM{k}", {
        **{p: rng.choice((0.0, 0.3, 0.5, 1.0)) for p in names},
        style.PRONOMINALIZATION: rng.choice((0.3, 0.5))}) for k in range(count)]


def test_decisions_come_in_parameter_order_then_sentence_order(fox_graph, lion_graph):
    rank = {style.PRONOMINALIZATION: 0}
    rank.update((p, k) for k, (p, _) in enumerate(style._SENTENCE_TRANSFORMS, start=1))
    voices = _random_voices(random.Random(15), 8)
    seen = set()
    for k, g in enumerate(_graphs(fox_graph, lion_graph, stories=20)):
        doc = tr.transform_story(g)
        for model in voices:
            _, decisions = style.apply_voice(doc, model, k)
            keys = [(rank[x.param], x.sentence_index) for x in decisions]
            assert keys == sorted(keys), (g.id, model.name)
            # a sentence transform applies at most once per sentence
            assert all(a != b for a, b in zip(keys, keys[1:]) if a[0] > 0), (g.id, model.name)
            seen.update(x.param for x in decisions)
    # every parameter was seen to fire, so each took its place in the order
    assert seen == style.PARAM_NAMES


def test_no_stream_is_made_twice(fox_graph, lion_graph, streams_made):
    voices = DRAW_VOICES + [HALF] + _random_voices(random.Random(16), 4)
    for k, g in enumerate(_graphs(fox_graph, lion_graph, stories=6)):
        doc = tr.transform_story(g)
        n = len(doc.sentences)
        for model in voices:
            del streams_made[:]
            style.apply_voice(doc, model, k)
            assert len(set(streams_made)) == len(streams_made), (g.id, model.name)
            assert set(streams_made) <= {f"{k}:{i}" for i in range(n)}
            # a gate strictly between 0 and 1 draws from every sentence's stream
            if any(0.0 < a < 1.0 for a in model.params.values()):
                assert sorted(streams_made) == sorted(f"{k}:{i}" for i in range(n)), \
                    (g.id, model.name)
