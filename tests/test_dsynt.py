
import pytest

from retold import dsynt as d
from retold import transform
from conftest import fixture_text


def _verb(lexeme="jump", **features):
    return d.DSyntNode(lexeme, d.VERB, features={"tense": "past", "polarity": "aff",
                                                 **features})


def _noun(lexeme="fox", **features):
    return d.DSyntNode(lexeme, d.COMMON_NOUN,
                       features={"article": "def", "number": "sg", **features})


def test_attach_subject():
    clause = d.attach(_verb(), _noun(), d.I)
    assert [c.relation for c in clause.children] == [d.I]
    assert clause.children[0].lexeme == "fox"


def test_attach_second_argument_conflicts():
    clause = d.attach(_verb("obtain"), _noun("group"), d.II)
    with pytest.raises(d.RelationConflictError):
        d.attach(clause, _noun("vine"), d.II)


def test_attach_argument_under_noun_is_a_class_error():
    with pytest.raises(d.ClassError):
        d.attach(_noun(), _noun("vine"), d.I)


def test_attach_attr_under_noun():
    np = d.attach(_noun("grape"), d.DSyntNode("ripe", d.ADJECTIVE), d.ATTR)
    assert np.children[0].relation == d.ATTR


def test_attach_is_immutable_and_order_preserving():
    verb = _verb()
    first = d.attach(verb, _noun(), d.I)
    second = d.attach(first, d.DSyntNode("on", d.PREPOSITION), d.APPEND)
    assert verb.children == ()
    assert first.children != second.children
    assert [c.lexeme for c in second.children] == ["fox", "on"]


def test_validate_tree_accepts_purpose_sentence(fox_graph):
    doc = transform.transform_story(fox_graph)
    for sentence in doc.sentences:
        assert d.validate_tree(sentence) == []


def test_validate_two_subjects():
    bad = _verb().replace(children=(_noun().replace(relation=d.I),
                                    _noun("lion").replace(relation=d.I)))
    assert any("more than one I" in e.message for e in d.validate_tree(bad))


def test_validate_article_on_verb():
    bad = d.DSyntNode("jump", d.VERB, features={"article": "def", "tense": "past"})
    assert any("article" in e.message for e in d.validate_tree(bad))


def test_validate_feature_values():
    bad = _verb(tense="past").with_feature("punct", "interrobang")
    assert any("interrobang" in e.message for e in d.validate_tree(bad))
    bad2 = _verb().with_feature("mood", "subjunctive")
    assert any("mood" in e.message for e in d.validate_tree(bad2))


def test_validate_non_verb_root():
    assert any("clause root" in e.message for e in d.validate_tree(_noun()))


def test_serialize_single_node():
    doc = d.Document((_verb(),))
    text = d.serialize(doc)
    assert '<node lexeme="jump" class="verb" relation="ROOT" polarity="aff" tense="past"/>' in text
    assert text.startswith("<document>")


def test_serialize_empty_document():
    assert d.serialize(d.Document()) == "<document>\n</document>\n"


def test_serialize_escapes_attribute_values():
    doc = d.Document((_verb('say "hi" & <go>'),))
    assert 'lexeme="say &quot;hi&quot; &amp; &lt;go&gt;"' in d.serialize(doc)


def test_serialize_fox_document_matches_frozen_fixture(fox_graph):
    doc = transform.transform_story(fox_graph)
    assert d.serialize(doc) == fixture_text("fox_and_grapes.dsynt.xml")


def test_serialize_deterministic(fox_graph):
    doc = transform.transform_story(fox_graph)
    assert d.serialize(doc) == d.serialize(transform.transform_story(fox_graph))


def test_node_paths_round_trip(fox_graph):
    doc = transform.transform_story(fox_graph)
    root = doc.sentences[3]
    for path, node in d.walk(root):
        assert d.node_at(root, path) is node
    swapped = d.replace_at(root, (0,), _noun("lion"))
    assert swapped.children[0].lexeme == "lion"
    assert root.children[0].lexeme == "fox"


def test_validate_rejects_unknown_class_and_empty_lexeme():
    weird = d.DSyntNode("x", "interjection")
    assert any("unknown class" in e.message for e in d.validate_tree(weird))
    hollow = _verb().replace(lexeme="")
    assert any("empty lexeme" in e.message for e in d.validate_tree(hollow))


def test_validate_rejects_root_relation_below_root():
    inner = d.DSyntNode("fox", d.COMMON_NOUN, d.ROOT)
    bad = _verb().replace(children=(inner,))
    assert any("ROOT relation below" in e.message for e in d.validate_tree(bad))


def test_attach_rejects_root_relation():
    with pytest.raises(d.TreeError):
        d.attach(_verb(), _noun(), d.ROOT)


def test_every_class_has_its_child_relations():
    # validate_tree indexes the table by any class it accepts
    assert set(d.ALLOWED_CHILD_RELATIONS) == d.CLASSES
    weird = d.DSyntNode("x", "interjection", d.ATTR)
    bad = _verb().replace(children=(weird,))
    assert any("unknown class" in e.message for e in d.validate_tree(bad))


# -- attach and build share one set of child rules --------------------------------

def _raised(make):
    with pytest.raises(d.TreeError) as exc:
        make()
    return exc.type, str(exc.value)


@pytest.mark.parametrize("parent, pairs", [
    (_verb(), [(_noun(), "SUBJ")]),
    (_verb(), [(_noun(), d.ROOT)]),
    (_noun(), [(_noun("vine"), d.I)]),
    (d.DSyntNode("ripe", d.ADJECTIVE), [(_noun(), d.ATTR)]),
    (d.DSyntNode("x", "particle"), [(_noun(), d.APPEND)]),
    (_verb(), [(_noun(), d.I), (_noun("crow"), d.I)]),
    (_verb("obtain"), [(_noun("group"), d.II), (_noun("vine"), d.II)]),
    (_verb("give"), [(_noun(), d.I), (_noun("bone"), d.III), (_noun("lion"), d.III)]),
], ids=["bad-relation", "root-relation", "not-allowed-under-noun", "not-allowed-under-adjective",
        "unknown-class", "second-I", "second-II", "second-III"])
def test_attach_and_build_raise_the_same_error(parent, pairs):
    def attach_each():
        node = parent
        for child, relation in pairs:
            node = d.attach(node, child, relation)

    def build():
        d.build(parent.lexeme, parent.cls, parent.relation, parent.features, pairs)

    assert _raised(attach_each) == _raised(build)


def test_build_gives_the_tree_that_attaching_in_turn_gives():
    subject = _noun()
    pairs = [(subject, d.I), (_noun("grape", article="none"), d.II),
             (d.DSyntNode("quickly", d.ADVERB, d.ATTR, {"position": "pre"}), d.ATTR)]
    attached = _verb("eat")
    for child, relation in pairs:
        attached = d.attach(attached, child, relation)
    built = d.build("eat", d.VERB, d.ROOT, attached.features, pairs)
    assert built == attached
    assert built.children[2] is pairs[2][0]  # already an ATTR: kept as is
    assert built.children[0] is not subject and subject.relation == d.ROOT
