import random
from collections import Counter

import pytest

from retold import dsynt as d
from retold import story as st
from retold import transform as tr
from retold.lexicon import COMPLEMENT_KINDS, INFINITIVE
from retold.realize import realize_sentence
from retold.style import BUILTIN_VOICES, apply_voice

from conftest import random_story

FOX = st.Entity("fox", st.CHARACTER, "fox")
LION = st.Entity("lion", st.CHARACTER, "lion")
GRAPES = st.Entity("grapes", st.OBJECT, "group", group_of="grape")
BONE = st.Entity("bone", st.OBJECT, "bone")


def graph(entities, *props):
    return st.StoryGraph("t", "T", tuple(entities),
                         (st.Timespan(0, tuple(props)),))


def prop(pid, frame_id, predicate, bindings, **kw):
    return st.Proposition(pid, st.FrameInstance(predicate, frame_id, tuple(bindings)), **kw)


def one_sentence(g):
    doc = tr.transform_story(g)
    assert len(doc.sentences) == len(st.timeline_propositions(g))
    return doc.sentences[0]


def formal(g):
    """The FORMAL telling, the voice that pronominalizes and contracts."""
    styled, _ = apply_voice(tr.transform_story(g), BUILTIN_VOICES["FORMAL"], 0)
    return styled


def test_intransitive_clause_shape():
    clause = one_sentence(graph([FOX], prop("p", "jump", "jump",
                                            [("Agent", st.EntityRef("fox"))])))
    assert clause.cls == d.VERB and clause.lexeme == "jump"
    assert clause.features.get("tense") == "past"
    subject = clause.child(d.I)
    assert subject.lexeme == "fox" and subject.features.get("article") == "def"
    assert realize_sentence(clause) == "The fox jumped."


def test_negated_transitive_clause():
    g = graph([FOX, GRAPES], prop("p", "obtain", "obtain",
                                  [("Agent", st.EntityRef("fox")),
                                   ("Theme", st.EntityRef("grapes"))],
                                  polarity=st.NEGATED))
    clause = one_sentence(g)
    assert clause.features.get("polarity") == "neg"
    assert realize_sentence(clause) == "The fox did not obtain the group of grapes."


def test_collective_noun_phrase_structure():
    g = graph([FOX, GRAPES], prop("p", "obtain", "obtain",
                                  [("Agent", st.EntityRef("fox")),
                                   ("Theme", st.EntityRef("grapes"))]))
    np = one_sentence(g).child(d.II)
    assert np.lexeme == "group" and np.features.get("number") == "sg"
    of = np.children[0]
    assert of.cls == d.PREPOSITION and of.lexeme == "of"
    member = of.children[0]
    assert member.lexeme == "grape" and member.features.get("number") == "pl"


def test_fixed_modifiers_become_prenominal_adjectives():
    hungry_fox = st.Entity("fox", st.CHARACTER, "fox", fixed_modifiers=("hungry",))
    g = graph([hungry_fox], prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))]))
    assert realize_sentence(one_sentence(g)) == "The hungry fox jumped."


def test_purpose_clause_restates_subject_in_full_np_mode():
    g = graph([FOX, GRAPES],
              prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                   attachments=(st.Attachment(st.PURPOSE,
                                              prop("q", "obtain", "obtain",
                                                   [("Agent", st.EntityRef("fox")),
                                                    ("Theme", st.EntityRef("grapes"))])),)))
    text = realize_sentence(one_sentence(g))
    assert text == "The fox jumped in order for the fox to obtain the group of grapes."


def test_purpose_clause_drops_coreferent_subject_when_pronominalizing():
    g = graph([FOX, GRAPES],
              prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                   attachments=(st.Attachment(st.PURPOSE,
                                              prop("q", "obtain", "obtain",
                                                   [("Agent", st.EntityRef("fox")),
                                                    ("Theme", st.EntityRef("grapes"))])),)))
    assert realize_sentence(formal(g).sentences[0]) == "The fox jumped in order to obtain the group of grapes."


def test_adjunct_order_and_coalescing():
    g = graph([FOX, GRAPES],
              prop("p", "walk", "walk", [("Agent", st.EntityRef("fox"))],
                   attachments=(st.Attachment(st.PREPOSITIONAL, st.EntityRef("grapes"), "away_from"),
                                st.Attachment(st.PREPOSITIONAL, st.Text("dignity"), "with"),
                                st.Attachment(st.PREPOSITIONAL, st.Text("unconcern"), "with"))))
    text = realize_sentence(one_sentence(g))
    assert text == "The fox walked away from the group of grapes with dignity and unconcern."


def test_pre_verb_adverb_sits_between_subject_and_verb():
    g = graph([FOX, GRAPES], prop("p", "see", "see",
                                  [("Experiencer", st.EntityRef("fox")),
                                   ("Stimulus", st.EntityRef("grapes"))],
                                  adverbs=(("earlier", st.PRE_VERB),)))
    assert realize_sentence(one_sentence(g)) == "The fox earlier saw the group of grapes."


def test_post_verb_adverb():
    g = graph([FOX], prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                          adverbs=(("quickly", st.POST_VERB),)))
    assert realize_sentence(one_sentence(g)) == "The fox jumped quickly."


def test_finite_complement_keeps_subject():
    g = graph([LION], prop("p", "decide", "decide",
                           [("Agent", st.EntityRef("lion")),
                            ("Topic", prop("q", "drink", "drink",
                                           [("Agent", st.EntityRef("lion"))],
                                           attachments=(st.Attachment(
                                               st.PREPOSITIONAL,
                                               st.Text("water"), "from"),)))]))
    assert realize_sentence(one_sentence(g)) == "The lion decided the lion drank from water."


def test_infinitive_complement_is_subject_controlled():
    g = graph([FOX, GRAPES],
              prop("p", "be_able", "be",
                   [("Experiencer", st.EntityRef("fox")),
                    ("Attribute", st.Property("able")),
                    ("Action", prop("q", "reach", "reach",
                                    [("Agent", st.EntityRef("fox")),
                                     ("Theme", st.EntityRef("grapes"))]))],
                   polarity=st.NEGATED))
    clause = one_sentence(g)
    infinitive = clause.child(d.II)
    assert infinitive.child(d.I) is None  # controlled subject not re-expressed
    assert realize_sentence(clause) == "The fox was not able to reach the group of grapes."


def test_third_relation_orders_before_second():
    g = graph([FOX, LION, BONE], prop("p", "give", "give",
                                      [("Agent", st.EntityRef("fox")),
                                       ("Theme", st.EntityRef("bone")),
                                       ("Recipient", st.EntityRef("lion"))]))
    assert realize_sentence(one_sentence(g)) == "The fox gave the lion the bone."


def test_say_addressee_goes_clause_final(lion_graph):
    doc = tr.transform_story(lion_graph)
    text = realize_sentence(doc.sentences[12])
    assert text == "The boar said the group of vultures did not eat the boar to the lion."


@pytest.mark.parametrize("relation", ["complement", "concession"])
def test_attach_discourse_rejects_unknown_relation(relation):
    # a finite object clause is a role the frame links to a clause, never an
    # attachment; a code-built one is refused like any unknown relation
    g = graph([FOX, GRAPES], prop("p", "obtain", "obtain",
                                  [("Agent", st.EntityRef("fox")),
                                   ("Theme", st.EntityRef("grapes"))],
                                  attachments=(st.Attachment(
                                      relation,
                                      prop("q", "jump", "jump",
                                           [("Agent", st.EntityRef("fox"))])),)))
    with pytest.raises(tr.TransformError) as exc:
        tr.transform_story(g)
    assert str(exc.value) == f"p: unknown attachment relation {relation!r}"


def test_unknown_preposition_raises():
    g = graph([FOX], prop("p", "jump", "jump", [("Agent", st.EntityRef("fox"))],
                          attachments=(st.Attachment(st.PREPOSITIONAL,
                                                     st.EntityRef("fox"), "betwixt"),)))
    with pytest.raises(tr.TransformError) as exc:
        tr.transform_story(g)
    assert "betwixt" in str(exc.value)


def test_missing_mandatory_role_raises_with_proposition_id():
    g = graph([FOX], prop("p9", "obtain", "obtain", [("Agent", st.EntityRef("fox"))]))
    with pytest.raises(tr.TransformError) as exc:
        tr.transform_story(g)
    assert "p9" in str(exc.value)


def test_fixture_documents(fox_graph, lion_graph):
    fox_doc = tr.transform_story(fox_graph)
    lion_doc = tr.transform_story(lion_graph)
    assert len(fox_doc.sentences) == 8
    assert len(lion_doc.sentences) == 16
    for doc in (fox_doc, lion_doc):
        for sentence in doc.sentences:
            assert d.validate_tree(sentence) == []


def test_empty_timeline_is_refused():
    g = st.StoryGraph("e", "E", (FOX,), ())
    with pytest.raises(tr.TransformError) as exc:
        tr.transform_story(g)
    assert str(exc.value) == "timeline: timeline has no timespans"


def test_transform_is_deterministic(fox_graph):
    assert tr.transform_story(fox_graph) == tr.transform_story(fox_graph)


def test_neutral_output_has_no_pronouns(fox_graph, lion_graph):
    pronouns = {"he", "she", "it", "they", "him", "her", "them"}
    for g in (fox_graph, lion_graph):
        for sentence in tr.transform_story(g).sentences:
            for _, node in d.walk(sentence):
                assert not (node.cls == d.FUNCTION_WORD and node.lexeme in pronouns)


def _expected_lemma_multiset(g, p, lexicon):
    """Entity-head (plus collective-member and literal) lemmas a clause must
    surface: every argument the graph gives ``p`` and what nests in it, less
    the subject of each infinitive complement that is its controller, the
    subject of the clause over it, which that clause tells already."""
    counts = Counter()
    entities = {e.id: e for e in g.entities}

    def lemmas(arg):
        if isinstance(arg, st.EntityRef):
            e = entities[arg.entity_id]
            return [e.head_lemma] + ([e.group_of] if e.group_of else [])
        return [arg.value] if isinstance(arg, st.Text) else []

    def subject(p):
        roles = [role for role, rel in lexicon.frame(p.frame.frame_id).all_roles()
                 if rel == d.I]
        return p.frame.binding(roles[0]) if roles else None

    def walk_prop(p):
        for role, arg in p.frame.bindings:
            if not isinstance(arg, st.Proposition):
                counts.update(lemmas(arg))
                continue
            walk_prop(arg)
            if COMPLEMENT_KINDS[role] == INFINITIVE and subject(arg) == subject(p):
                counts.subtract(lemmas(subject(arg)))
        for a in p.attachments:
            if isinstance(a.target, st.Proposition):
                walk_prop(a.target)
            else:
                counts.update(lemmas(a.target))

    walk_prop(p)
    return Counter({k: v for k, v in counts.items() if v})


def _told_lemmas(sentence):
    return Counter(node.lexeme for _, node in d.walk(sentence) if node.cls == d.COMMON_NOUN)


def _assert_no_argument_lost(g, lexicon):
    """Each sentence of the NEUTRAL telling surfaces exactly the lemmas the
    graph gives its proposition."""
    styled, _ = apply_voice(tr.transform_story(g), BUILTIN_VOICES["NEUTRAL"], 0)
    props = st.timeline_propositions(g)
    assert len(styled.sentences) == len(props), g.id
    for p, sentence in zip(props, styled.sentences):
        assert _told_lemmas(sentence) == _expected_lemma_multiset(g, p, lexicon), (g.id, p.id)


def test_content_preservation_on_random_stories(lexicon):
    for seed in range(300):
        _assert_no_argument_lost(random_story(random.Random(seed)), lexicon)


def test_content_preservation_on_the_fixtures(fox_graph, lion_graph, lexicon):
    for g in (fox_graph, lion_graph):
        _assert_no_argument_lost(g, lexicon)


@pytest.mark.parametrize("frame_id, predicate, extra", [
    ("want", "want", ()),
    ("be_able", "be", (("Attribute", st.Property("able")),)),
])
def test_the_content_oracle_sees_a_subject_no_controller_tells(frame_id, predicate, extra,
                                                                lexicon):
    # the crow is the subject of the infinitive, which does not tell it; the
    # validator refuses such a story, so the clause is built here past it
    crow = st.Entity("crow", st.CHARACTER, "crow")
    eat = prop("q", "eat", "eat", [("Agent", st.EntityRef("crow")),
                                   ("Patient", st.EntityRef("grapes"))])
    p = prop("p", frame_id, predicate,
             [("Experiencer", st.EntityRef("fox")), *extra, ("Action", eat)])
    g = graph([FOX, crow, GRAPES], p)
    assert [x.message for x in st.validate_story(g)] == [
        "role Action must nest a clause with this proposition's subject"]
    ctx = tr.DiscourseContext({e.id: e for e in g.entities})
    told = _told_lemmas(tr.build_clause(p, ctx))
    assert _expected_lemma_multiset(g, p, lexicon) - told == Counter({"crow": 1})


def test_each_sentence_is_transformed_on_its_own():
    for seed in range(100):
        g = random_story(random.Random(seed))
        doc = tr.transform_story(g)
        for p, sentence in zip(st.timeline_propositions(g), doc.sentences):
            alone = g.replace(timeline=(st.Timespan(0, (p,)),))
            assert tr.transform_story(alone).sentences == (sentence,), f"seed {seed} {p.id}"


def test_entity_pronoun_override():
    vixen = st.Entity("vixen", st.CHARACTER, "fox", pronoun="she")
    g = graph([vixen, GRAPES],
              prop("p0", "see", "see", [("Experiencer", st.EntityRef("vixen")),
                                        ("Stimulus", st.EntityRef("grapes"))]),
              prop("p1", "jump", "jump", [("Agent", st.EntityRef("vixen"))]))
    assert realize_sentence(formal(g).sentences[1]) == "She jumped."


def test_plural_character_pronoun():
    wolves = st.Entity("wolves", st.CHARACTER, "wolf", number="pl")
    g = graph([wolves],
              prop("p0", "quarrel", "quarrel", [("Agent", st.EntityRef("wolves"))]),
              prop("p1", "sober", "sober", [("Agent", st.EntityRef("wolves"))]))
    assert realize_sentence(formal(g).sentences[1]) == "They sobered."


def test_attach_discourse_normalizes_clause_tense(fox_graph):
    # "in order for the fox to obtain" is untensed; "because the fox was not
    # able" is finite
    clauses = {node.lexeme: node.children[0]
               for sentence in tr.transform_story(fox_graph).sentences
               for _, node in d.walk(sentence) if node.cls == d.FUNCTION_WORD}
    assert clauses.keys() == {d.IN_ORDER, d.BECAUSE}
    assert "tense" not in clauses[d.IN_ORDER].features
    assert clauses[d.BECAUSE].features.get("tense") == "past"


def test_role_argument_type_errors():
    g1 = graph([FOX], prop("p", "be_hungry", "be",
                           [("Theme", st.EntityRef("fox")),
                            ("Attribute", st.Text("hungry"))]))
    with pytest.raises(tr.TransformError):
        tr.transform_story(g1)
    g2 = graph([FOX], prop("p", "jump", "jump", [("Agent", st.Property("ripe"))]))
    with pytest.raises(tr.TransformError):
        tr.transform_story(g2)


def test_nested_argument_requires_complement_frame():
    g = graph([FOX], prop("p", "obtain", "obtain",
                          [("Agent", st.EntityRef("fox")),
                           ("Theme", prop("q", "jump", "jump",
                                          [("Agent", st.EntityRef("fox"))]))]))
    with pytest.raises(tr.TransformError) as exc:
        tr.transform_story(g)
    assert "propositional" in str(exc.value)
