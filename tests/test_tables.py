"""Each grammar table, entry by entry, from a story file through the tree to
the text: pronouns, end marks, polarity, adverb positions, clause heads,
frame links and site paths; and the tree's feature vocabulary, word by word."""

import random
from importlib import resources

import pytest

from conftest import random_story
from retold import dsynt as d
from retold import story as st
from retold import transform as tr
from retold.diagnostics import ERROR
from retold.lexicon import COMPLEMENT_KINDS, INFINITIVE, default_lexicon
from retold.realize import realize_document
from retold.style import BUILTIN_VOICES, PARAM_NAMES, VoiceModel, tell

FRAME_IDS = [line.split()[1] for line in resources.files("retold").joinpath("data/frames.txt")
             .read_text(encoding="utf-8").splitlines() if line.startswith("frame ")]

HEAD = '''story tables "Tables"

entities
  fox character fox{pronoun}
  wolf character wolf
  grapes object group group_of=grape

timeline
  0:
'''


def _told(body: str, pronoun: str = "") -> tuple[st.StoryGraph, d.Document]:
    """The story of ``body``'s timespan-0 lines, parsed and transformed; the
    file must validate clean and read back from its serialization."""
    g = st.parse_story(HEAD.format(pronoun=pronoun) + body)
    assert st.validate_story(g) == []
    assert st.parse_story(st.serialize_story(g)) == g
    doc = tr.transform_story(g)
    for sentence in doc.sentences:
        assert d.validate_tree(sentence) == []
    return g, doc


def test_every_pronoun_is_told_in_both_cases():
    # the second and third mentions of the fox are its pronoun, the
    # object form after a verb and the subject form before one
    for pronoun, object_form in d.ACCUSATIVE.items():
        _, doc = _told("    jump jump(Agent=fox)\n    attack attack(Agent=wolf, Patient=fox)\n"
                       "    jump jump(Agent=fox)\n", f" pronoun={pronoun}")
        assert doc.sentences[1].child(d.II).features["pron"] == pronoun
        told = tell(doc, BUILTIN_VOICES["FORMAL"], 0)
        assert told.document.sentences[1].child(d.II).lexeme == pronoun
        assert told.text == (f"The fox jumped. The wolf attacked {object_form}. "
                             f"{pronoun.capitalize()} jumped.")


def test_every_end_mark_ends_its_sentence():
    # the voice that gives each `punct` value to every sentence
    voices = {"period": {}, "exclaim": {"exclamation": 1.0},
              "question": {"tag_question": 1.0}}
    assert set(voices) == set(d.END_MARKS)
    _, doc = _told("    jump jump(Agent=fox)\n")
    for punct, mark in d.END_MARKS.items():
        told = tell(doc, VoiceModel(punct, voices[punct]), 0)
        assert told.document.sentences[0].features["punct"] == punct
        assert d.validate_tree(told.document.sentences[0]) == []
        assert told.text.endswith(mark)


def test_every_polarity_is_read_built_and_told():
    texts = {st.AFFIRMATIVE: "The fox jumped.", st.NEGATED: "The fox did not jump."}
    assert set(texts) == set(st.POLARITY_WORDS)
    for polarity, word in st.POLARITY_WORDS.items():
        g, doc = _told(f"    jump jump(Agent=fox) polarity={word}\n")
        assert g.timeline[0].propositions[0].polarity == polarity
        assert doc.sentences[0].features["polarity"] == word
        assert realize_document(doc) == texts[polarity]


def test_every_adverb_position_is_read_built_and_told():
    texts = {st.PRE_VERB: "The fox now jumped.", st.POST_VERB: "The fox jumped now."}
    assert set(texts) == set(st.POSITION_WORDS)
    for position, word in st.POSITION_WORDS.items():
        g, doc = _told(f"    jump jump(Agent=fox) adv=now@{word}\n")
        assert g.timeline[0].propositions[0].adverbs == (("now", position),)
        assert doc.sentences[0].child(d.ATTR).features["position"] == word
        assert realize_document(doc) == texts[position]


def test_every_clause_relation_is_read_built_and_told():
    # (function word, finite clause, text) per clause relation
    heads = {st.PURPOSE: (d.IN_ORDER, False, "The fox jumped in order to obtain the group of "
                                             "grapes."),
             st.CAUSE: (d.BECAUSE, True, "The fox jumped because he obtained the group of "
                                         "grapes.")}
    assert tuple(heads) == st.CLAUSE_RELATIONS
    for relation, (word, finite, text) in heads.items():
        g, doc = _told(f"    jump jump(Agent=fox)\n      {relation}:\n"
                       "        obtain obtain(Agent=fox, Theme=grapes)\n")
        assert g.timeline[0].propositions[0].attachments[0].relation == relation
        head = doc.sentences[0].child(d.APPEND)
        assert (head.lexeme, head.cls) == (word, d.FUNCTION_WORD)
        assert ("tense" in head.children[0].features) == finite
        assert tell(doc, BUILTIN_VOICES["FORMAL"], 0).text == text


@pytest.mark.parametrize("frame_id", FRAME_IDS)
def test_every_frame_links_each_role_to_its_relation(frame_id):
    # every role bound: a clause for a clause role (one of the fox's for a
    # to-infinitive, whose subject is the fox's), an adjective for the
    # attribute, else the wolf in the third argument and a prepositional
    # phrase, the fox as the subject and the grapes in the rest
    frame = default_lexicon().frame(frame_id)
    inline, nested, words = [], "", []
    for role, rel in frame.relations.items():
        if role in COMPLEMENT_KINDS:
            agent = "fox" if COMPLEMENT_KINDS[role] == INFINITIVE else "wolf"
            nested += f"      role {role}:\n        jump jump(Agent={agent})\n"
            words.append("jump")
        elif rel == d.ATTR:
            inline.append(f"{role}=@hot")
            words.append("hot")
        else:
            entity = ("fox" if role == frame.subject
                      else "wolf" if rel == d.III or rel.startswith("prep:") else "grapes")
            inline.append(f"{role}={entity}")
            words.append(f"the {entity if entity != 'grapes' else 'group of grapes'}")
    predicate = frame_id.split("_")[0]
    _, doc = _told(f"    {frame_id} {predicate}({', '.join(inline)})\n{nested}")
    root = doc.sentences[0]
    for role, rel in frame.relations.items():
        if rel.startswith("prep:"):
            assert [c.lexeme for c in root.children if c.cls == d.PREPOSITION] == [rel[5:]]
        else:
            assert root.child(rel) is not None, role
    subject = root.child(d.I)
    assert (subject and subject.lexeme) == (frame.subject and "fox")
    text = realize_document(doc).lower()
    for word in words:
        assert word in text, (word, text)


def test_every_diagnostic_and_decision_site_spells_its_path():
    # a tree diagnostic and a style decision name a node by its path's site,
    # which node_at reads back
    _, doc = _told("    jump jump(Agent=fox)\n      purpose:\n"
                   "        obtain obtain(Agent=fox, Theme=grapes)\n")
    root = doc.sentences[0]
    for path, node in d.walk(root):
        spelled = d.site(path)
        back = () if spelled == "root" else tuple(map(int, spelled.split(".")))
        assert d.node_at(root, back) is node
        broken = d.replace_at(root, path, node.with_feature("contract", "off"))
        assert (ERROR, spelled) in [(x.severity, x.location) for x in d.validate_tree(broken)]
    decisions = tell(doc, BUILTIN_VOICES["FORMAL"], 0).decisions
    assert [(x.site, x.payload) for x in decisions] == [("1.0", "subject-drop"),
                                                        ("root", "on")]


def test_the_feature_vocabulary_is_what_the_pipeline_makes(fox_graph, lion_graph):
    # every feature a telling makes is in the domain, and every word of the
    # domain is made but the indefinite article: the transform makes no
    # first-mention indefinite yet, and test_indefinite_article_path keeps
    # the realizer's path for it tested
    graphs = [fox_graph, lion_graph] + [random_story(random.Random(k)) for k in range(20)]
    docs = [tr.transform_story(g) for g in graphs]
    docs += [_told("    jump jump(Agent=fox)\n    jump jump(Agent=fox)\n", f" pronoun={p}")[1]
             for p in sorted(d.PRONOUNS)]
    everything = VoiceModel("EVERYTHING", dict.fromkeys(sorted(PARAM_NAMES), 1.0))
    voices = [*BUILTIN_VOICES.values(), everything]
    made = set()
    for doc in docs:
        for voice in voices:
            for seed in range(3):  # LAID-BACK paraphrases a negation at seed 2
                for sentence in tell(doc, voice, seed).document.sentences:
                    for _, node in d.walk(sentence):
                        made.update(node.features.items())
    domain = {(key, value) for key, values in d.FEATURE_DOMAIN.items() for value in values}
    assert made <= domain, made - domain
    assert domain - made == {("article", d.INDEF)}
