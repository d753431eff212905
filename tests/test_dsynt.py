
import pytest

from retold import dsynt as d
from retold import transform
from retold.diagnostics import ERROR, Diagnostic
from conftest import fixture_text


def _verb(lexeme="jump", **features):
    return d.DSyntNode(lexeme, d.VERB, features={"tense": "past", "polarity": "aff",
                                                 **features})


def _noun(lexeme="fox", **features):
    return d.DSyntNode(lexeme, d.COMMON_NOUN,
                       features={"article": "def", "number": "sg", **features})


def _build_over(parent, pairs):
    """``parent``'s lexeme, class, relation and features over ``pairs``."""
    return d.build(parent.lexeme, parent.cls, parent.relation, parent.features, pairs)


def _attach(parent, child, relation):
    """``parent`` built again with ``child`` after its children."""
    return _build_over(parent, [(c, c.relation) for c in parent.children] + [(child, relation)])


def test_attach_subject():
    clause = _build_over(_verb(), [(_noun(), d.I)])
    assert [c.relation for c in clause.children] == [d.I]
    assert clause.children[0].lexeme == "fox"


def test_attach_second_argument_conflicts():
    with pytest.raises(d.RelationConflictError):
        _build_over(_verb("obtain"), [(_noun("group"), d.II), (_noun("vine"), d.II)])


def test_attach_argument_under_noun_is_a_class_error():
    with pytest.raises(d.ClassError):
        _build_over(_noun(), [(_noun("vine"), d.I)])


def test_attach_attr_under_noun():
    np = _build_over(_noun("grape"), [(d.DSyntNode("ripe", d.ADJECTIVE), d.ATTR)])
    assert np.children[0].relation == d.ATTR


def test_attach_is_immutable_and_order_preserving():
    verb, subject = _verb(), _noun()
    pairs = [(subject, d.I), (d.DSyntNode("on", d.PREPOSITION), d.APPEND)]
    first = _build_over(verb, pairs[:1])
    second = _build_over(verb, pairs)
    assert verb.children == () and subject.relation == d.ROOT
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


def _under_verb(*children):
    return _verb().replace(children=children)


@pytest.mark.parametrize("tree, location, message", [
    (_verb().replace(relation=d.I), "root", "clause root carries relation I, expected ROOT"),
    (_under_verb(_noun().replace(relation="SUBJ")), "0", "unknown relation 'SUBJ'"),
    (_under_verb(_noun(tense="past").replace(relation=d.I)), "0", "tense feature on common_noun"),
    (_under_verb(_noun().replace(relation=d.I, children=(_noun("vine").replace(relation=d.II),))),
     "0.0", "relation II not allowed under common_noun"),
], ids=["root-relation", "unknown-relation", "tense-on-noun", "relation-not-allowed"])
def test_validate_tree_gives_one_diagnostic_at_its_path(tree, location, message):
    assert d.validate_tree(tree) == [Diagnostic(ERROR, location, message)]


def test_attach_rejects_root_relation():
    with pytest.raises(d.TreeError):
        _build_over(_verb(), [(_noun(), d.ROOT)])


def test_every_class_has_its_child_relations():
    # validate_tree indexes the table by any class it accepts
    assert set(d.ALLOWED_CHILD_RELATIONS) == d.CLASSES
    weird = d.DSyntNode("x", "interjection", d.ATTR)
    bad = _verb().replace(children=(weird,))
    assert any("unknown class" in e.message for e in d.validate_tree(bad))


# -- one set of child rules, whether a node is built at once or child by child --

def _raised(make):
    with pytest.raises(d.TreeError) as exc:
        make()
    return exc.type, str(exc.value)


@pytest.mark.parametrize("parent, pairs, error", [
    (_verb(), [(_noun(), "SUBJ")], (d.TreeError, "bad child relation 'SUBJ'")),
    (_verb(), [(_noun(), d.ROOT)], (d.TreeError, "bad child relation 'ROOT'")),
    (_noun(), [(_noun("vine"), d.I)], (d.ClassError, "relation I not allowed under common_noun")),
    (d.DSyntNode("ripe", d.ADJECTIVE), [(_noun(), d.ATTR)],
     (d.ClassError, "relation ATTR not allowed under adjective")),
    (d.DSyntNode("x", "particle"), [(_noun(), d.APPEND)],
     (d.ClassError, "unknown class 'particle'")),
    (_verb(), [(_noun(), d.I), (_noun("crow"), d.I)],
     (d.RelationConflictError, "second I child under 'jump'")),
    (_verb("obtain"), [(_noun("group"), d.II), (_noun("vine"), d.II)],
     (d.RelationConflictError, "second II child under 'obtain'")),
    (_verb("give"), [(_noun(), d.I), (_noun("bone"), d.III), (_noun("lion"), d.III)],
     (d.RelationConflictError, "second III child under 'give'")),
], ids=["bad-relation", "root-relation", "not-allowed-under-noun", "not-allowed-under-adjective",
        "unknown-class", "second-I", "second-II", "second-III"])
def test_attach_and_build_raise_the_same_error(parent, pairs, error):
    def attach_each():
        node = parent
        for child, relation in pairs:
            node = _attach(node, child, relation)

    assert _raised(attach_each) == _raised(lambda: _build_over(parent, pairs)) == error


def test_build_gives_the_tree_that_attaching_in_turn_gives():
    subject = _noun()
    pairs = [(subject, d.I), (_noun("grape", article="none"), d.II),
             (d.DSyntNode("quickly", d.ADVERB, d.ATTR, {"position": "pre"}), d.ATTR)]
    attached = _verb("eat")
    for child, relation in pairs:
        attached = _attach(attached, child, relation)
    built = _build_over(_verb("eat"), pairs)
    assert built == attached
    assert built.children[2] is pairs[2][0]  # already an ATTR: kept as is
    assert built.children[0] is not subject and subject.relation == d.ROOT
