import random

import pytest

from retold import dsynt as d
from retold import realize as rz
from retold import story as st
from retold import transform as tr
from retold.style import BUILTIN_VOICES, VoiceModel, apply_voice, tell

from conftest import fixture_text, random_story
from test_output_pin import DRAW_VOICES


def _story(entities, *props):
    return st.StoryGraph("t", "T", tuple(entities), (st.Timespan(0, tuple(props)),))


def _sentence(g, index=0):
    return tr.transform_story(g).sentences[index]


FOX = st.Entity("fox", st.CHARACTER, "fox")
WOLVES = st.Entity("wolves", st.CHARACTER, "wolf", number="pl")


def _prop(pid, frame_id, predicate, bindings, **kw):
    return st.Proposition(pid, st.FrameInstance(predicate, frame_id, tuple(bindings)), **kw)


def test_simple_clause():
    g = _story([FOX], _prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))]))
    assert rz.realize_sentence(_sentence(g)) == "The fox jumped."


def test_do_support_negation():
    g = _story([FOX], _prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                            polarity=st.NEGATED))
    assert rz.realize_sentence(_sentence(g)) == "The fox did not jump."


def test_copular_negation_uses_be():
    g = _story([FOX], _prop("p", "be_hungry", "be",
                            [("Theme", st.EntityRef("fox")),
                             ("Attribute", st.Property("hungry"))],
                            polarity=st.NEGATED))
    assert rz.realize_sentence(_sentence(g)) == "The fox was not hungry."


def test_plural_subject_agreement_with_be():
    g = _story([WOLVES], _prop("p", "be_hungry", "be",
                               [("Theme", st.EntityRef("wolves")),
                                ("Attribute", st.Property("hungry"))]))
    assert rz.realize_sentence(_sentence(g)) == "The wolves were hungry."


def test_collective_subject_takes_singular_verb(lion_graph):
    doc = tr.transform_story(lion_graph)
    text = rz.realize_sentence(doc.sentences[7])
    assert "the group of vultures was seated on the rock" in text


def test_every_pronoun_has_its_object_form():
    # the one pronoun table gives each pronoun a story may give a character
    # its object form
    realizer = rz._Realizer()
    for pronoun, object_form in d.ACCUSATIVE.items():
        node = d.DSyntNode(pronoun, d.FUNCTION_WORD, d.II)
        assert list(realizer.np_pieces(node, case="acc")) == [" " + object_form]
        assert list(realizer.np_pieces(node)) == [" " + pronoun]


def test_realize_document_joins_with_single_spaces(fox_graph):
    text = rz.realize_document(tr.transform_story(fox_graph))
    assert "  " not in text
    assert text == fixture_text("fox_and_grapes.golden.txt").strip()


def test_realize_empty_document():
    assert rz.realize_document(d.Document()) == ""


def test_terminal_punctuation_follows_punct_feature():
    g = _story([FOX], _prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))]))
    root = _sentence(g)
    assert rz.realize_sentence(root.with_feature("punct", "exclaim")).endswith("jumped!")
    assert rz.realize_sentence(root.with_feature("punct", "question")).endswith("jumped?")


@pytest.mark.parametrize("tokens,expected", [
    (["did", "not", "obtain"], ["didn't", "obtain"]),
    (["could", "not", "reach"], ["couldn't", "reach"]),
    (["was", "not", "able"], ["wasn't", "able"]),
    (["the", "fox", "jumped"], ["the", "fox", "jumped"]),
])
def test_apply_contractions(tokens, expected):
    got = rz.apply_contractions([" " + t for t in tokens])
    assert got == [" " + t for t in expected]


def test_contraction_shrinks_token_count_by_one_per_application():
    pieces = [" " + t for t in ["did", "not", "go", "was", "not", "here"]]
    assert len(rz.apply_contractions(pieces)) == len(pieces) - 2


def test_stutter_fragments_have_no_internal_spaces():
    g = _story([FOX, st.Entity("trellis", st.OBJECT, "trellis")],
               _prop("p", "see", "see", [("Experiencer", st.EntityRef("fox")),
                                         ("Stimulus", st.EntityRef("trellis"))]))
    root = _sentence(g)
    stuttered = d.replace_at(root, (1,), root.children[1].with_feature("stutter", "2"))
    assert rz.realize_sentence(stuttered) == "The fox saw the tr-tr-trellis."


def test_infinitive_negation():
    g = _story([FOX, st.Entity("grapes", st.OBJECT, "group", group_of="grape")],
               _prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                     attachments=(st.Attachment(
                         st.PURPOSE,
                         _prop("q", "obtain", "obtain",
                               [("Agent", st.EntityRef("fox")),
                                ("Theme", st.EntityRef("grapes"))],
                               polarity=st.NEGATED)),)))
    text = rz.realize_sentence(_sentence(g))
    assert text == "The fox jumped in order for the fox not to obtain the group of grapes."


def test_realized_past_comes_from_the_lexicon(fox_graph, lexicon):
    # regular verbs in the output must match the lexicon's inflection
    from retold.lexicon import VERB, past
    doc = tr.transform_story(fox_graph)
    text = rz.realize_document(doc)
    for lemma in ("jump", "walk"):
        assert past(lexicon.lookup(lemma, VERB), "sg") in text


def test_only_a_plural_noun_is_looked_up(fox_graph, lion_graph, monkeypatch):
    # a singular noun is told as its lemma; only a plural asks the lexicon
    from retold.lexicon import NOUN, Lexicon

    docs = [tr.transform_story(g) for g in (fox_graph, lion_graph)]
    looked = []
    lookup = Lexicon.lookup
    monkeypatch.setattr(Lexicon, "lookup", lambda self, lemma, pos: looked.append(
        (lemma, pos)) or lookup(self, lemma, pos))
    for doc in docs:
        rz.realize_document(doc)
    plurals = {node.lexeme for doc in docs for sentence in doc.sentences
               for _, node in d.walk(sentence)
               if node.cls == d.COMMON_NOUN and node.features.get("number") == "pl"}
    nouns = {lemma for lemma, pos in looked if pos == NOUN}
    assert nouns == plurals and nouns


def test_content_words_realized_exactly_once_per_node(fox_graph, lexicon):
    from retold.lexicon import NOUN, plural
    doc = tr.transform_story(fox_graph)
    for sentence in doc.sentences:
        text = rz.realize_sentence(sentence).lower().rstrip(".!?")
        tokens = text.replace(",", " ").split()
        expected = {}
        for _, node in d.walk(sentence):
            if node.cls == d.COMMON_NOUN and lexicon.has(node.lexeme, NOUN):
                surface = node.lexeme
                if node.features.get("number") == "pl":
                    surface = plural(lexicon.lookup(node.lexeme, NOUN))
                expected[surface] = expected.get(surface, 0) + 1
        for surface, count in expected.items():
            assert tokens.count(surface) == count, (surface, text)


def test_styled_fixture_sentences_have_no_double_spaces(fox_graph):
    doc = tr.transform_story(fox_graph)
    for name, model in BUILTIN_VOICES.items():
        for seed in range(5):
            assert "  " not in tell(doc, model, seed).text, (name, seed)


def test_indefinite_article_path():
    # the neutral pipeline only emits definites; the feature slot still works
    g = _story([FOX], _prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))]))
    root = _sentence(g)
    subject = root.children[0].with_feature("article", "indef")
    indef = d.replace_at(root, (0,), subject)
    assert rz.realize_sentence(indef) == "A fox jumped."


def test_unfinished_root_rejected():
    bare = d.DSyntNode("jump", d.VERB, features={"polarity": "aff"})
    with pytest.raises(rz.RealizationError):
        rz.realize_sentence(bare)


def test_returned_piece_lists_are_never_shared(fox_graph):
    doc, _ = apply_voice(tr.transform_story(fox_graph), BUILTIN_VOICES["LAID-BACK"], 3)
    realizer = rz._Realizer()  # one phrase memo across the calls
    for sentence in doc.sentences:
        first = realizer.sentence_pieces(sentence)
        expected = list(first)
        first.append(" extra")
        first[0] = " mutated"
        del first[1:3]
        assert realizer.sentence_pieces(sentence) == expected
        assert rz._Realizer().sentence_pieces(sentence) == expected


def test_word_token_cache_is_bounded():
    assert rz._words.cache_info().maxsize == 4096


def _told(g, voice, seed=0):
    return tell(tr.transform_story(g), BUILTIN_VOICES[voice], seed).text


GRAPES = st.Entity("grapes", st.OBJECT, "group", group_of="grape")


def _obtain(agent, polarity=st.NEGATED, pid="q"):
    return _prop(pid, "obtain", "obtain", [("Agent", agent), ("Theme", st.EntityRef("grapes"))],
                 polarity=polarity)


def test_a_quoted_literal_stays_verbatim_in_contracted_voices():
    g = _story([FOX, GRAPES], _obtain(st.EntityRef("fox"), pid="p"),
               _prop("q", "walk", "walk", [("Agent", st.EntityRef("fox"))],
                     attachments=(st.Attachment(st.PREPOSITIONAL,
                                                st.Text("what was not there"), "with"),)))
    assert _told(g, "NEUTRAL") == ("The fox did not obtain the group of grapes. "
                                   "The fox walked with what was not there.")
    for voice in ("FORMAL", "SHY", "LAID-BACK"):
        for seed in range(4):
            text = _told(g, voice, seed)
            assert "with what was not there" in text and "wasn't" not in text, (voice, seed)
            assert "didn't obtain" in text, (voice, seed)


def test_a_one_word_literal_is_not_an_auxiliary():
    # the literal subject of a negated purpose clause stands right before its "not"
    g = _story([FOX, GRAPES], _prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                                    attachments=(st.Attachment(
                                        st.PURPOSE, _obtain(st.Text("was"))),)))
    assert _told(g, "FORMAL") == "The fox jumped in order for was not to obtain the group of grapes."


def _able_to_reach(polarity):
    reach = _prop("r", "reach", "reach", [("Agent", st.EntityRef("fox")),
                                          ("Theme", st.EntityRef("grapes"))], polarity=polarity)
    return _story([FOX, GRAPES], _prop("p", "be_able", "be", [("Experiencer", st.EntityRef("fox")),
                                                              ("Action", reach)]))


def test_be_able_without_an_attribute_contracts_its_verb_and_the_infinitive_not():
    g = _able_to_reach(st.NEGATED)
    assert _told(g, "NEUTRAL") == "The fox was not to reach the group of grapes."
    assert _told(g, "FORMAL") == "The fox wasn't to reach the group of grapes."
    assert _told(_able_to_reach(st.AFFIRMATIVE), "FORMAL") == "The fox was to reach the group of grapes."


def test_a_tag_question_reads_the_not_of_a_negated_infinitive():
    def told(g, params):
        return tell(tr.transform_story(g), VoiceModel("TAG", params), 0).text

    tag, contracted = {"tag_question": 1.0}, {"tag_question": 1.0, "contractions": 1.0}
    g = _able_to_reach(st.NEGATED)
    assert told(g, tag) == "The fox was not to reach the group of grapes, was he?"
    assert told(g, contracted) == "The fox wasn't to reach the group of grapes, was he?"
    assert told(_able_to_reach(st.AFFIRMATIVE), tag) == \
        "The fox was to reach the group of grapes, wasn't he?"


def test_a_negated_plural_copula_contracts_to_werent():
    g = _story([WOLVES], _prop("p", "be_hungry", "be", [("Theme", st.EntityRef("wolves")),
                                                        ("Attribute", st.Property("hungry"))],
                               polarity=st.NEGATED))
    assert _told(g, "NEUTRAL") == "The wolves were not hungry."
    assert _told(g, "FORMAL") == "The wolves weren't hungry."


def test_in_order_not_to_stays_uncontracted():
    g = _story([FOX, GRAPES], _prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                                    attachments=(st.Attachment(
                                        st.PURPOSE, _obtain(st.EntityRef("fox"))),)))
    assert _told(g, "FORMAL") == "The fox jumped in order not to obtain the group of grapes."


def test_the_document_is_its_sentences_joined():
    voices = list(BUILTIN_VOICES.values()) + DRAW_VOICES
    literal = _story([FOX, GRAPES], _obtain(st.Text("the one that was not")))
    for g in [literal] + [random_story(random.Random(k)) for k in range(30)]:
        doc = tr.transform_story(g)
        for model in voices:
            for seed in range(2):
                told = tell(doc, model, seed)
                assert told.text == " ".join(map(rz.realize_sentence, told.document.sentences))
