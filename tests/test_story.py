import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from retold import default_lexicon
from retold import story as st
from retold.diagnostics import ERROR, WARNING
from retold.transform import TransformError, transform_story

from conftest import FIXTURES, nested_story, random_story, ref_chain_story

MINIMAL = '''
story demo "Demo"

entities
  fox character fox
  grapes object group group_of=grape

timeline
  0:
    jump jump(Agent=fox)
'''


def test_parse_fox_fixture(fox_graph):
    assert fox_graph.id == "fox_and_grapes"
    assert fox_graph.title == "The Fox and the Grapes"
    assert [e.id for e in fox_graph.entities] == ["fox", "grapes", "vine", "trellis"]
    assert len(fox_graph.timeline) == 6
    assert len(st.timeline_propositions(fox_graph)) == 8
    assert fox_graph.original_text and "hungry Fox" in fox_graph.original_text


def test_parse_lion_fixture(lion_graph):
    assert len(st.timeline_propositions(lion_graph)) == 16
    assert len(lion_graph.timeline) == 9


def test_collective_entity_fields(fox_graph):
    grapes = {e.id: e for e in fox_graph.entities}["grapes"]
    assert grapes.head_lemma == "group"
    assert grapes.group_of == "grape"
    assert grapes.number == "sg"


def test_empty_timeline_document():
    g = st.parse_story('story empty "Empty"\n\nentities\n  fox character fox\n')
    assert g.entities[0].id == "fox"
    assert g.timeline == ()


def _found(g):
    return [(d.severity, d.location, d.message) for d in st.validate_story(g)]


def test_unknown_entity_is_a_reference_error():
    # the parser reads a bareword as an entity reference; validation finds
    # that it names nothing, and the proposition's line says where
    g = st.parse_story(MINIMAL.replace("jump(Agent=fox)", "jump(Agent=wolf)"))
    assert _found(g) == [(ERROR, "t0.p0", "unknown entity 'wolf'")]
    assert st.line_of(g, "t0.p0") == 10


def test_unknown_frame_is_a_reference_error():
    g = st.parse_story(MINIMAL.replace("jump jump", "frolic frolic"))
    assert _found(g) == [(ERROR, "t0.p0", "predicate 'frolic' is not a known verb"),
                         (ERROR, "t0.p0", "unknown frame 'frolic'")]
    assert st.line_of(g, "t0.p0") == 10


def test_syntax_error_carries_line_number():
    text = 'story demo "Demo"\n\nentities\n  fox character\n'
    with pytest.raises(st.StorySyntaxError) as exc:
        st.parse_story(text)
    assert exc.value.line == 4


def test_duplicate_entity_rejected():
    text = MINIMAL.replace("  grapes object group group_of=grape",
                           "  fox character fox")
    g = st.parse_story(text)
    assert _found(g) == [(ERROR, "fox", "duplicate entity id")]
    # the id names two lines, so the diagnostic names neither
    assert st.line_of(g, "fox") is None


def test_ref_shares_a_proposition():
    text = '''
story demo "Demo"

entities
  fox character fox
  lion character lion

timeline
  0:
    see see(Experiencer=fox) id=seen
      role Stimulus:
        jump jump(Agent=lion) id=leap
  1:
    see see(Experiencer=lion)
      role Stimulus:
        ref leap
'''
    g = st.parse_story(text)
    first = g.timeline[0].propositions[0].frame.binding("Stimulus")
    second = g.timeline[1].propositions[0].frame.binding("Stimulus")
    assert first is second
    assert st.validate_story(g) == []


def test_ref_to_unknown_id():
    text = MINIMAL + "  1:\n    see see(Experiencer=fox)\n      role Stimulus:\n        ref nowhere\n"
    with pytest.raises(st.StoryReferenceError):
        st.parse_story(text)


def test_ref_to_open_ancestor_is_a_cycle():
    text = '''
story demo "Demo"

entities
  fox character fox

timeline
  0:
    see see(Experiencer=fox) id=loop
      role Stimulus:
        ref loop
'''
    with pytest.raises(st.StoryCycleError):
        st.parse_story(text)


def test_round_trip_fixtures(fox_graph, lion_graph):
    for g in (fox_graph, lion_graph):
        text = st.serialize_story(g)
        again = st.parse_story(text)
        assert again == g
        assert st.serialize_story(again) == text  # canonical form is stable


def test_round_trip_random_stories():
    for seed in range(20):
        g = random_story(random.Random(seed))
        assert st.validate_story(g) == [], f"seed {seed}"
        assert st.parse_story(st.serialize_story(g)) == g, f"seed {seed}"


def _mutants(text):
    """``text`` with one line dropped or doubled, one line's text begun
    after its indent with a no-break space, an ideographic space or a unit
    separator, or one ``key=`` field emptied or dropped, each way once."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        indent = len(line) - len(line.lstrip(" "))
        for space in ("\xa0", "\u3000", "\x1f"):
            yield lines[:i] + [line[:indent] + space + line[indent:]] + lines[i + 1:]
        for m in re.finditer(r"(?<=\s)(\w+=)\S*", line):
            for field in (m.group(1), ""):
                yield lines[:i] + [line[:m.start()] + field + line[m.end():]] + lines[i + 1:]


def test_every_file_that_validates_clean_reads_back_from_its_serialization():
    # "validate says ok" must imply the graph has a file: an empty `id=`
    # once parsed and an empty `group_of=` validated, and neither serialized
    texts = [(FIXTURES / f"{name}.story").read_text(encoding="utf-8")
             for name in ("fox_and_grapes", "lion_and_boar")]
    texts += [st.serialize_story(random_story(random.Random(seed))) for seed in range(20)]
    clean = 0
    for text in texts:
        for lines in _mutants(text):
            try:
                g = st.parse_story("\n".join(lines))
            except st.StoryError:
                continue
            if any(x.severity == ERROR for x in st.validate_story(g)):
                continue
            clean += 1
            assert st.parse_story(st.serialize_story(g)) == g, "\n".join(lines)
    assert clean > 500  # the mutants are not all refused


def test_validate_fixture_is_clean(fox_graph):
    assert st.validate_story(fox_graph) == []


def _simple_prop(pid="p0"):
    return st.Proposition(pid, st.FrameInstance("jump", "jump",
                                                (("Agent", st.EntityRef("fox")),)))


def test_validate_non_contiguous_timeline():
    g = st.StoryGraph("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                      (st.Timespan(0, (_simple_prop("a"),)),
                       st.Timespan(2, (_simple_prop("b"),))))
    messages = [d.message for d in st.validate_story(g)]
    assert any("non-contiguous timeline" in m for m in messages)


def test_validate_unbound_mandatory_role():
    prop = st.Proposition("p0", st.FrameInstance("obtain", "obtain",
                                                 (("Agent", st.EntityRef("fox")),)))
    g = st.StoryGraph("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                      (st.Timespan(0, (prop,)),))
    messages = [d.message for d in st.validate_story(g)]
    assert "mandatory role Theme unbound" in messages


def test_validate_unknown_role():
    prop = st.Proposition("p0", st.FrameInstance("jump", "jump",
                                                 (("Agent", st.EntityRef("fox")),
                                                  ("Mood", st.Text("x")),)))
    g = st.StoryGraph("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                      (st.Timespan(0, (prop,)),))
    assert any("unknown role Mood" in d.message for d in st.validate_story(g))


def test_validate_unknown_preposition():
    prop = st.Proposition("p0", st.FrameInstance("jump", "jump",
                                                 (("Agent", st.EntityRef("fox")),)),
                          attachments=(st.Attachment(st.PREPOSITIONAL,
                                                     st.EntityRef("fox"), "betwixt"),))
    g = st.StoryGraph("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                      (st.Timespan(0, (prop,)),))
    assert any("betwixt" in d.message for d in st.validate_story(g))


def test_validate_prepositional_target_must_be_noun_valued():
    prop = st.Proposition("p0", st.FrameInstance("jump", "jump",
                                                 (("Agent", st.EntityRef("fox")),)),
                          attachments=(st.Attachment(st.PREPOSITIONAL,
                                                     st.Property("ripe"), "with"),))
    g = st.StoryGraph("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                      (st.Timespan(0, (prop,)),))
    assert any("noun-phrase valued" in d.message for d in st.validate_story(g))


def test_validate_collective_requires_singular():
    g = st.StoryGraph("x", "X",
                      (st.Entity("grapes", st.OBJECT, "group", group_of="grape",
                                 number="pl"),),
                      ())
    assert any("singular" in d.message for d in st.validate_story(g))


@pytest.mark.parametrize("field, value", [("number", "dual"), ("pronoun", "xe")])
def test_validate_checks_a_built_entity_by_the_parser_tables(fox_graph, field, value):
    # an entity built in code is held to the tables a parsed one is, so
    # "validate ok" still means the story realizes
    entities = tuple(e.replace(**{field: value}) if e.id == "fox" else e
                     for e in fox_graph.entities)
    g = fox_graph.replace(entities=entities)
    assert [(d.severity, d.location, d.message) for d in st.validate_story(g)] == [
        (ERROR, "fox", f"bad {field} {value!r}")]
    with pytest.raises(TransformError):
        transform_story(g)


def test_validate_detects_forged_nesting_cycle():
    inner = _simple_prop("inner")
    attachment = st.Attachment(st.CAUSE, inner)
    outer = st.Proposition("outer", st.FrameInstance("jump", "jump",
                                                     (("Agent", st.EntityRef("fox")),)),
                           attachments=(attachment,))
    object.__setattr__(attachment, "target", outer)  # cycle, unbuildable via parse
    g = st.StoryGraph("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                      (st.Timespan(0, (outer,)),))
    diags = st.validate_story(g)
    assert any("cycle" in d.message for d in diags)
    assert all(d.severity == ERROR for d in diags if "cycle" in d.message)


def test_timeline_propositions_order_and_nesting(fox_graph):
    props = st.timeline_propositions(fox_graph)
    assert len(props) == sum(len(ts.propositions) for ts in fox_graph.timeline)
    # nested propositions are reachable only through their parents
    nested = fox_graph.timeline[2].propositions[0].attachments[0].target
    assert isinstance(nested, st.Proposition)
    assert all(p is not nested for p in props)


def test_adverb_and_polarity_fields(lion_graph):
    see = lion_graph.timeline[4].propositions[0]
    assert see.adverbs == (("above", st.PRE_VERB),)
    kill = lion_graph.timeline[8].propositions[0]
    assert kill.polarity == st.NEGATED


def test_parser_rejects_tab_indentation():
    with pytest.raises(st.StorySyntaxError):
        st.parse_story('story x "X"\n\nentities\n\tfox character fox\n')


def test_parser_rejects_empty_document():
    with pytest.raises(st.StorySyntaxError):
        st.parse_story("\n# only a comment\n")


def test_parser_rejects_unknown_section():
    with pytest.raises(st.StorySyntaxError):
        st.parse_story('story x "X"\n\nchapters\n  1\n')


def test_parser_rejects_duplicate_section():
    with pytest.raises(st.StorySyntaxError):
        st.parse_story('story x "X"\n\nentities\n  fox character fox\n\nentities\n  vine object vine\n')


@pytest.mark.parametrize("fields, message", [
    ("beast fox", "bad entity kind 'beast'"),
    ("character fox number=dual", "bad number 'dual'"),
    ("character fox pronoun=xe", "bad pronoun 'xe'"),
    ("character fox group_of=", "member lemma '' is not a known noun"),
], ids=["kind", "number", "pronoun", "member-lemma-empty"])
def test_a_bad_entity_value_is_a_validation_error_at_its_line(fields, message):
    # the parser reads any value; the validator holds it to the tables. An
    # empty value is one too: `group_of=` would make a graph the serializer
    # cannot write back
    g = st.parse_story(MINIMAL.replace("fox character fox", f"fox {fields}"))
    assert _found(g) == [(ERROR, "fox", message)]
    assert st.line_of(g, "fox") == 5


def test_parser_rejects_bad_entity_fields():
    for field_text in ("mod=", "mod=,", "sparkle", "mood=happy"):
        with pytest.raises(st.StorySyntaxError) as exc:
            st.parse_story(f'story x "X"\n\nentities\n  fox character fox {field_text}\n')
        assert exc.value.line == 4


def test_parser_rejects_bad_proposition_fields():
    base = 'story x "X"\n\nentities\n  fox character fox\n\ntimeline\n  0:\n'
    for prop_text in ("jump jump(Agent=fox) polarity=maybe",
                      "jump jump(Agent=fox) adv=earlier@mid",
                      "jump jump(Agent=fox) mood=happy",
                      "jump jump(Agent=fox fox)"):
        with pytest.raises(st.StorySyntaxError):
            st.parse_story(base + f"    {prop_text}\n")


def test_an_empty_proposition_id_is_a_syntax_error_at_its_line():
    # no `ref` could name it, and the serializer could not write it back
    base = 'story x "X"\n\nentities\n  fox character fox\n\ntimeline\n  0:\n'
    with pytest.raises(st.StorySyntaxError, match="line 8: bad proposition field 'id='"):
        st.parse_story(base + "    jump jump(Agent=fox) id=\n")


def test_parser_rejects_unterminated_literal():
    with pytest.raises(st.StorySyntaxError):
        st.parse_story('story x "X"\n\nentities\n  fox character fox\n\n'
                       'timeline\n  0:\n    jump jump(Agent=fox)\n      prep with: "dignity\n')


def test_a_quoted_literal_with_a_comma_is_one_argument():
    text = ('story x "X"\n\nentities\n  fox character fox\n\ntimeline\n  0:\n'
            '    walk walk(Agent=fox, Manner="slowly, and with care")\n'
            '      prep with: "dignity, and unconcern", fox\n')
    g = st.parse_story(text)
    [p] = st.timeline_propositions(g)
    assert p.frame.bindings == (("Agent", st.EntityRef("fox")),
                                ("Manner", st.Text("slowly, and with care")))
    assert [a.target for a in p.attachments] == [st.Text("dignity, and unconcern"),
                                                 st.EntityRef("fox")]
    again = st.parse_story(st.serialize_story(g))
    assert again == g
    assert st.serialize_story(again) == st.serialize_story(g)


def test_a_leading_byte_order_mark_is_dropped(fox_graph):
    text = (FIXTURES / "fox_and_grapes.story").read_text(encoding="utf-8")
    assert st.parse_story("\ufeff" + text) == st.parse_story(text) == fox_graph
    # one mark only: a second is text, and the header no longer matches
    with pytest.raises(st.StorySyntaxError):
        st.parse_story("\ufeff\ufeff" + text)


def test_parser_rejects_bad_timespan_header():
    # int() reads any Unicode decimal digit; an index is in ASCII digits
    for header in ("first:", "\u0660:", "\uff10:", "0\u0661:"):
        with pytest.raises(st.StorySyntaxError) as exc:
            st.parse_story('story x "X"\n\nentities\n  fox character fox\n\n'
                           f'timeline\n  {header}\n    jump jump(Agent=fox)\n')
        assert exc.value.line == 7


def test_repr_shows_a_nested_proposition_by_its_id():
    # every timespan reuses the one before twice, so a repr that expanded
    # each ref would hold about 2**33 propositions
    g = st.parse_story(ref_chain_story(31))
    text = repr(g)
    assert len(text) < 20_000
    assert "Attachment('purpose', ref s30, None)" in text
    nested = st.Proposition("p", st.FrameInstance("see", "see", (
        ("Experiencer", st.EntityRef("fox")), ("Stimulus", g.timeline[1].propositions[0]))))
    assert "('Stimulus', ref s1)" in repr(nested)


# lines 1-5; the timeline's first line is line 6
HEAD = 'story demo "Demo"\nentities\n  fox character fox\n  grapes object group group_of=grape\ntimeline\n'
PROP = "    jump jump(Agent=fox)\n"


@pytest.mark.parametrize("text, expected", [
    ('story demo "Demo"\nentities\n  fox character fox\n      grapes object group\n'
     '    vine object vine\n',
     lambda g: [e.id for e in g.entities] == ["fox", "grapes", "vine"]),
    ('story demo "Demo"\noriginal\n  Once a fox\n      saw grapes.\n    The end.\n',
     lambda g: g.original_text == "Once a fox\nsaw grapes.\nThe end."),
    (HEAD + "  0:\n      jump jump(Agent=fox)\n    walk walk(Agent=fox)\n",
     (st.StorySyntaxError, 8)),
    (HEAD + "  0:\n" + PROP + "      walk walk(Agent=fox)\n", (st.StorySyntaxError, 8)),
    (HEAD + "  0:\n" + PROP + "        prep on: grapes\n      cause:\n        walk walk(Agent=fox)\n",
     (st.StorySyntaxError, 9)),
    (HEAD + "  0:\n" + PROP + " 1:\n" + PROP, (st.StorySyntaxError, 8)),
    (HEAD + "  0:\n" + PROP + "   1:\n" + PROP, (st.StorySyntaxError, 8)),
    (HEAD + "  0:\n    decide decide(Agent=fox)\n      role Topic:\n" + "    " + PROP
     + "        walk walk(Agent=fox)\n", (st.StorySyntaxError, 10)),
    (HEAD + "  0:\n" + PROP + "      purpose:\n" + "    " + PROP + "    " + PROP,
     (st.StorySyntaxError, 10)),
    (HEAD + "  0:\n" + PROP + "      prep on: grapes\n        walk walk(Agent=fox)\n",
     (st.StorySyntaxError, 9)),
    (HEAD + "  0:\n    jump jump(Agent=fox) id=a\n  1:\n    walk walk(Agent=fox)\n"
     "      purpose:\n        ref a\n          jump jump(Agent=fox)\n",
     (st.StorySyntaxError, 11)),
    ('story demo "Demo"\n  fox character fox\nentities\n  fox character fox\n',
     (st.StorySyntaxError, 2)),
], ids=["deeper-line-under-entities-is-an-entity", "deeper-line-under-original-is-text",
        "shallower-sibling-in-timespan", "deeper-line-under-proposition-is-a-child",
        "sibling-at-another-indent-under-proposition", "shallower-timespan-header",
        "deeper-timespan-header", "second-proposition-in-role-slot",
        "second-proposition-in-purpose-slot", "deeper-line-under-prep",
        "deeper-line-under-ref", "indented-line-before-first-section"])
def test_indentation_rules(text, expected):
    if callable(expected):
        assert expected(st.parse_story(text))
    else:
        cls, line = expected
        with pytest.raises(st.StoryError) as exc:
            st.parse_story(text)
        assert type(exc.value) is cls
        assert exc.value.line == line


def test_complement_line_is_a_syntax_error_at_its_line():
    # a finite object clause binds through a role the frame links to a
    # clause, such as `role Topic:`; there is no `complement:` attachment
    text = (HEAD + "  0:\n    obtain obtain(Agent=fox, Theme=grapes)\n      complement:\n"
            + "    " + PROP)
    with pytest.raises(st.StorySyntaxError) as exc:
        st.parse_story(text)
    assert str(exc.value) == "line 8: unexpected line 'complement:' under proposition"
    assert exc.value.line == 8


@pytest.mark.parametrize("line", ["prep with:", "prep with: ,", "prep with: , ,", "prep with:,,"])
def test_a_prep_line_with_no_target_is_a_syntax_error_at_its_line(line):
    # a list of no targets was once read as no attachment, and the
    # proposition told without it
    with pytest.raises(st.StorySyntaxError) as exc:
        st.parse_story(HEAD + "  0:\n" + PROP + f"      {line}\n")
    assert str(exc.value) == f"line 8: bad preposition line {line!r}"


@pytest.mark.parametrize("pid, kind", [
    ("fox", "an entity id"), ("grapes", "an entity id"), ("t0", "a timespan name"),
    ("t12", "a timespan name"), ("timeline", "a section name"), ("original", "a section name"),
])
def test_a_proposition_id_of_another_kind_of_name_is_a_syntax_error_at_its_line(pid, kind):
    # a name of two kinds has no line, so its diagnostics would print without one
    entities_last = ('story demo "Demo"\ntimeline\n  0:\n' + PROP
                     + "entities\n  fox character fox\n  grapes object group group_of=grape\n")
    for text, line in ((HEAD + "  0:\n" + PROP, 7), (entities_last, 4)):
        with pytest.raises(st.StorySyntaxError) as exc:
            st.parse_story(text.replace("(Agent=fox)", f"(Agent=fox) id={pid}"))
        assert str(exc.value) == f"line {line}: proposition id {pid!r} is {kind}"
    if kind == "an entity id":
        # nor may the id an unnamed proposition takes from its place: here
        # the entity `pid` is renamed `t0.p0`
        with pytest.raises(st.StorySyntaxError) as exc:
            st.parse_story(HEAD.replace(f"  {pid} ", "  t0.p0 ") + "  0:\n" + PROP)
        assert str(exc.value) == "line 7: proposition id 't0.p0' is an entity id"
    else:
        # nor may an entity take a section's or a timespan's name
        with pytest.raises(st.StorySyntaxError) as exc:
            st.parse_story(HEAD.replace("  grapes", f"  {pid} character fox\n  grapes")
                           + "  0:\n" + PROP)
        assert str(exc.value) == f"line 4: entity id {pid!r} is {kind}"
    # an id of another form, and an entity id's extension, are ids like any,
    # of a proposition and of an entity beside a proposition with its own id
    for other in ("fox2", "t0x", "t0.p0", "t\u0660", "timelines"):
        st.parse_story(HEAD + "  0:\n" + PROP.replace("(Agent=fox)", f"(Agent=fox) id={other}"))
        st.parse_story(HEAD.replace("  grapes", f"  {other} character fox\n  grapes") + "  0:\n"
                       + PROP.replace("(Agent=fox)", "(Agent=fox) id=a"))


def _reference_outline(encoded_text):
    """``st._outline`` as it read every line before plain lines had a fast
    path: the oracle for that path."""
    open_lines = [(-1, "", 0, [])]
    for lineno, raw in enumerate(encoded_text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if "\t" in raw[: indent + 1]:
            raise st.StorySyntaxError("tabs are not allowed in indentation", lineno)
        while open_lines[-1][0] >= indent:
            open_lines.pop()
        if len(open_lines) > 2 * st.MAX_NESTING_DEPTH + 4:
            raise st.StorySyntaxError(f"nested too deep: propositions nest at most "
                                      f"{st.MAX_NESTING_DEPTH} levels", lineno)
        line = (indent, stripped.rstrip(), lineno, [])
        open_lines[-1][3].append(line)
        open_lines.append(line)
    return open_lines[0][3]


def _outline_or_error(outline, text):
    try:
        return outline(text)
    except st.StorySyntaxError as exc:
        return str(exc), exc.line


# spaces, a tab, other whitespace (some of it a line break to splitlines),
# a comment mark and letters
_OUTLINE_PIECES = [" ", "  ", "\t", "\xa0", "\x0b", "\x0c", "\u3000", "\r", "\n", "#", "a", "b"]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(text=hst.lists(hst.sampled_from(_OUTLINE_PIECES), max_size=80).map("".join))
@example(text=(FIXTURES / "fox_and_grapes.story").read_text(encoding="utf-8"))
@example(text=nested_story(st.MAX_NESTING_DEPTH + 1))
def test_the_outline_reads_every_text_as_its_reference_does(text):
    assert _outline_or_error(st._outline, text) == _outline_or_error(_reference_outline, text)


def test_nesting_bound_is_a_syntax_error_at_the_first_line_too_deep():
    st.parse_story(nested_story(st.MAX_NESTING_DEPTH))
    # line 8 is the top-level proposition; each level adds a slot line and
    # a proposition line
    with pytest.raises(st.StorySyntaxError) as exc:
        st.parse_story(nested_story(st.MAX_NESTING_DEPTH + 1))
    assert exc.value.line == 8 + 2 * (st.MAX_NESTING_DEPTH + 1)
    with pytest.raises(st.StorySyntaxError) as exc:
        st.parse_story(nested_story(600))
    assert exc.value.line == 8 + 2 * (st.MAX_NESTING_DEPTH + 1)


def _chain_in_code(levels: int) -> st.StoryGraph:
    prop = _simple_prop("p0")
    for k in range(1, levels + 1):
        prop = st.Proposition(f"p{k}", _simple_prop(f"p{k}").frame,
                              attachments=(st.Attachment(st.PURPOSE, prop),))
    return st.StoryGraph("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                         (st.Timespan(0, (prop,)),))


def test_validate_reports_nesting_past_the_bound_without_descending():
    assert st.validate_story(_chain_in_code(st.MAX_NESTING_DEPTH)) == []
    for levels in (st.MAX_NESTING_DEPTH + 1, 5_000):
        diags = st.validate_story(_chain_in_code(levels))
        assert [(d.severity, d.location, d.message) for d in diags] == [
            (ERROR, "timeline", f"propositions nest more than {st.MAX_NESTING_DEPTH} levels deep")]


def test_validate_counts_nesting_through_ref():
    # each timespan reuses the one before once: the text nests one level,
    # the graph one more per timespan
    assert st.validate_story(st.parse_story(ref_chain_story(st.MAX_NESTING_DEPTH, uses=1))) == []
    diags = st.validate_story(st.parse_story(ref_chain_story(st.MAX_NESTING_DEPTH + 1, uses=1)))
    assert [d.message for d in diags] == [
        f"propositions nest more than {st.MAX_NESTING_DEPTH} levels deep"]


# Counts the calls to re.compile made from retold's modules, first while
# `import retold` runs, then while one story is parsed.
_COMPILE_PROBE = """
import re, sys
calls = []
real_compile = re.compile
def counting_compile(*args, **kwargs):
    if sys._getframe(1).f_globals.get("__name__", "").startswith("retold"):
        calls.append(args[0])
    return real_compile(*args, **kwargs)
re.compile = counting_compile
import retold
print(len(calls))
retold.parse_story(open(sys.argv[1], encoding="utf-8").read())
print(len(calls))
"""


def test_import_compiles_no_pattern():
    # the seven story line patterns are compiled on the first parse, not at import
    src = str(Path(st.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    story = str(FIXTURES / "fox_and_grapes.story")
    out = subprocess.run([sys.executable, "-c", _COMPILE_PROBE, story], env=env,
                         capture_output=True, encoding="utf-8", check=True).stdout.split()
    assert out == ["0", "7"]


@pytest.fixture
def checked(monkeypatch):
    """The id of each proposition ``proposition_errors`` checks, in order."""
    ids = []
    check = st.proposition_errors
    monkeypatch.setattr(st, "proposition_errors",
                        lambda p, *args: ids.append(p.id) or check(p, *args))
    return ids


def _fresh_fox():
    return st.parse_story((FIXTURES / "fox_and_grapes.story").read_text(encoding="utf-8"))


def test_validate_returns_a_fresh_list_each_call(checked):
    g = st.parse_story(MINIMAL.replace("fox character fox", "fox character zorblax"))
    first = st.validate_story(g)
    assert first and all(x.severity == ERROR for x in first)
    first.clear()
    second = st.validate_story(g)
    assert second and second is not first
    second.append("not a diagnostic")
    assert st.validate_story(g) == second[:-1]
    assert len(checked) == 1


def test_the_diagnostics_memo_is_not_part_of_the_graph(checked):
    g, fresh = _fresh_fox(), _fresh_fox()
    st.validate_story(g)
    distinct = len(checked)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    for copy in (pickle.loads(pickle.dumps(g)), g.replace(), g.replace(title="Another")):
        assert st.validate_story(copy) == []
    # each copy started without the diagnostics and found its own
    assert len(checked) == 4 * distinct


def test_validate_then_transform_checks_each_proposition_once(checked):
    g = st.parse_story(ref_chain_story(6))
    assert st.validate_story(g) == []
    transform_story(g)
    assert sorted(checked) == sorted(f"s{k}" for k in range(7))


# -- a field given twice -------------------------------------------------------

REPEAT_BASE = ('story x "X"\n\nentities\n  fox character fox\n'
               '  grapes object group group_of=grape\n\ntimeline\n  0:\n')


@pytest.mark.parametrize("fields, key", [
    ("polarity=neg polarity=aff", "polarity"),
    ("polarity=aff polarity=aff", "polarity"),
    ("id=a id=b", "id"),
    ("id=a adv=quickly@pre id=a", "id"),
])
def test_a_repeated_proposition_field_is_a_syntax_error(fields, key):
    text = REPEAT_BASE + f"    see see(Experiencer=fox, Stimulus=grapes) {fields}\n"
    with pytest.raises(st.StorySyntaxError) as exc:
        st.parse_story(text)
    assert exc.value.line == 9
    assert str(exc.value) == f"line 9: repeated proposition field {key!r}"


def test_adv_may_repeat_on_a_proposition_line():
    g = st.parse_story(REPEAT_BASE + "    jump jump(Agent=fox) adv=quickly@pre adv=slowly@post\n")
    [p] = st.timeline_propositions(g)
    assert p.adverbs == (("quickly", st.PRE_VERB), ("slowly", st.POST_VERB))
    g = st.parse_story(REPEAT_BASE + "    jump jump(Agent=fox) adv=now@pre adv=now@post\n")
    [p] = st.timeline_propositions(g)
    assert p.adverbs == (("now", st.PRE_VERB), ("now", st.POST_VERB))


@pytest.mark.parametrize("fields, pid, message", [
    ("adv=now@pre adv=now@pre", "t0.p0", "repeated adverb 'now' at pre_verb"),
    ("adv=now@post adv=quickly@pre adv=now@post", "t0.p0", "repeated adverb 'now' at post_verb"),
    ("polarity=neg adv=quickly@pre id=a adv=quickly@pre", "a",
     "repeated adverb 'quickly' at pre_verb"),
], ids=["now-pre", "now-post", "quickly-pre"])
def test_a_repeated_adverb_is_a_validation_error_at_its_line(fields, pid, message):
    # an adverb given twice would be told twice: "The fox now now jumped."
    g = st.parse_story(REPEAT_BASE + f"    jump jump(Agent=fox) {fields}\n")
    assert _found(g) == [(ERROR, pid, message)]
    assert st.line_of(g, pid) == 9


@pytest.mark.parametrize("fields, key", [
    ("group_of=grape group_of=vulture", "group_of"),
    ("number=sg number=pl", "number"),
    ("mod=ripe mod=sour", "mod"),
    ("pronoun=she pronoun=she", "pronoun"),
])
def test_a_repeated_entity_field_is_a_syntax_error(fields, key):
    text = f'story x "X"\n\nentities\n  fox character fox {fields}\n'
    with pytest.raises(st.StorySyntaxError) as exc:
        st.parse_story(text)
    assert exc.value.line == 4
    assert str(exc.value) == f"line 4: repeated entity field {key!r}"


@pytest.mark.parametrize("mods, modifier", [
    ("hot,hot", "hot"),
    ("hot,hungry,hot", "hot"),
    ("hungry,,hungry", "hungry"),
])
def test_a_repeated_modifier_is_a_validation_error_at_its_line(mods, modifier):
    # a modifier given twice would be told twice: "The hot hot fox jumped."
    text = REPEAT_BASE + "    jump jump(Agent=fox)\n"
    g = st.parse_story(text.replace("fox character fox", f"fox character fox mod={mods}"))
    assert _found(g) == [(ERROR, "fox", f"repeated modifier {modifier!r}")]
    assert st.line_of(g, "fox") == 4
    g = st.parse_story(text.replace("fox character fox", "fox character fox mod=hot,hungry"))
    assert g.entities[0].fixed_modifiers == ("hot", "hungry")
    assert _found(g) == []


def test_a_proposition_breaking_many_rules_gets_every_message_in_order():
    # one message per rule broken, in the order of the bindings, then the
    # attachments, then the adverbs
    fox = st.EntityRef("fox")
    jump = st.Proposition("j", st.FrameInstance("jump", "jump", (("Agent", fox),)))
    p = st.Proposition("p", st.FrameInstance("say", "say", (
        ("Agent", jump), ("Mood", st.Text("x")), ("Addressee", st.Property("ripe")),
        ("Topic", st.EntityRef("wolf")))),
        adverbs=(("now", st.PRE_VERB), ("now", st.PRE_VERB)),
        attachments=(st.Attachment(st.PREPOSITIONAL, fox, "betwixt"),))
    assert st.proposition_errors(p, {"fox"}, default_lexicon()) == [
        "role Agent cannot nest a proposition",
        "unknown role Mood for frame 'say'",
        "property argument outside a copular slot",
        "unknown entity 'wolf'",
        "unknown preposition 'betwixt'",
        "repeated adverb 'now' at pre_verb",
    ]


def _with(g, entities=None, timeline=None):
    return g.replace(entities=g.entities if entities is None else entities,
                     timeline=g.timeline if timeline is None else timeline)


_BASE = st.parse_story(MINIMAL)
_FOX, _GRAPES = _BASE.entities
_JUMP = _BASE.timeline[0].propositions[0]


# the validator's rules for what the parser refuses or lets through
# unchecked, on graphs built in code and on parsed ones
@pytest.mark.parametrize("g, diagnostic", [
    (_with(_BASE, entities=(_FOX, _FOX)), (ERROR, "fox", "duplicate entity id")),
    (_with(_BASE, entities=(_FOX.replace(kind="animal"), _GRAPES)),
     (ERROR, "fox", "bad entity kind 'animal'")),
    (st.parse_story(MINIMAL.replace("group_of=grape", "group_of=zzz")),
     (ERROR, "grapes", "member lemma 'zzz' is not a known noun")),
    (st.parse_story(MINIMAL.replace("fox character fox", "fox character fox mod=purple")),
     (WARNING, "fox", "modifier 'purple' is not a known adjective")),
    (_with(_BASE, timeline=_BASE.timeline + (st.Timespan(1, ()),)),
     (ERROR, "t1", "timespan has no propositions")),
    (_with(_BASE, timeline=(st.Timespan(0, (_JUMP, _JUMP.replace(polarity=st.NEGATED))),)),
     (ERROR, "t0.p0", "duplicate proposition id")),
    (_with(_BASE, entities=(_FOX.replace(fixed_modifiers=("hot", "hot")), _GRAPES)),
     (ERROR, "fox", "repeated modifier 'hot'")),
    (_with(_BASE, timeline=(st.Timespan(0, (_JUMP.replace(
        adverbs=(("now", st.PRE_VERB), ("now", st.PRE_VERB))),)),)),
     (ERROR, "t0.p0", "repeated adverb 'now' at pre_verb")),
], ids=["duplicate-entity", "entity-kind", "member-lemma", "unknown-modifier",
        "empty-timespan", "duplicate-proposition", "repeated-modifier", "repeated-adverb"])
def test_validator_rules_beyond_the_parser(g, diagnostic):
    assert [(d.severity, d.location, d.message) for d in st.validate_story(g)] == [diagnostic]
    if diagnostic[0] == ERROR:
        with pytest.raises(TransformError):
            transform_story(g)
    else:
        assert transform_story(g).sentences


ROUND_TRIP = '''story trip "Trip"

entities
  fox character fox pronoun=she mod=hungry,hot
  wolves character wolf number=pl
  grapes object group group_of=grape

timeline
  0:
    see see(Experiencer=fox) id=seen
      role Stimulus:
        jump jump(Agent=wolves) id=leap
  1:
    see see(Experiencer=wolves) id=t1.p0
      role Stimulus:
        ref leap
'''


def test_serializer_writes_ref_pronoun_modifiers_and_number():
    g = st.parse_story(ROUND_TRIP)
    assert st.validate_story(g) == []
    assert st.serialize_story(g) == ROUND_TRIP
    again = st.parse_story(st.serialize_story(g))
    assert again == g
    first = again.timeline[0].propositions[0].frame.binding("Stimulus")
    second = again.timeline[1].propositions[0].frame.binding("Stimulus")
    assert first is second  # a reused proposition is still one object
    assert [(e.number, e.pronoun, e.fixed_modifiers) for e in again.entities] == [
        ("sg", "she", ("hungry", "hot")), ("pl", None, ()), ("sg", None, ())]


def _obtain(theme, prep=None):
    """MINIMAL's story with one proposition, ``obtain`` with ``theme`` as its
    Theme and ``prep`` as a `prep with:` target, built in code."""
    prop = st.Proposition("p0", st.FrameInstance("obtain", "obtain", (
        ("Agent", st.EntityRef("fox")), ("Theme", theme))),
        attachments=() if prep is None else (st.Attachment(st.PREPOSITIONAL, prep, "with"),))
    return _with(_BASE, timeline=(st.Timespan(0, (prop,)),))


@pytest.mark.parametrize("g, value", [
    (_obtain(st.Text('a"b')), 'a"b'),
    (_obtain(st.Text("a)b")), "a)b"),
    (_obtain(st.Text("x\ny")), "x\ny"),
    (_obtain(st.Text("x\r")), "x\r"),
    (_obtain(st.EntityRef("grapes"), prep=st.Text('a"b')), 'a"b'),
    (_obtain(st.EntityRef("grapes"), prep=st.Text("x\ny")), "x\ny"),
    (_BASE.replace(title='The "Fox"'), 'The "Fox"'),
    (_BASE.replace(title="The\nFox"), "The\nFox"),
], ids=["role-quote", "role-parenthesis", "role-newline", "role-return", "prep-quote",
        "prep-newline", "title-quote", "title-newline"])
def test_serializer_refuses_a_value_the_format_cannot_quote(g, value):
    # each graph validates clean, but the parser could not read back what
    # the serializer would write for it
    assert st.validate_story(g) == []
    with pytest.raises(ValueError) as exc:
        st.serialize_story(g)
    assert repr(value) in str(exc.value)


def _nested_first():
    """MINIMAL's story with ``see(Stimulus=<jump>, Experiencer=fox)``, its
    nested binding before its inline one."""
    see = st.Proposition("p1", st.FrameInstance("see", "see", (
        ("Stimulus", _JUMP), ("Experiencer", st.EntityRef("fox")))))
    return _with(_BASE, timeline=(st.Timespan(0, (see,)),))


def _jump(**fields):
    """MINIMAL's story with its jump's ``fields`` changed."""
    return _with(_BASE, timeline=(st.Timespan(0, (_JUMP.replace(**fields),)),))


# each graph validates with no ERROR, but the parser would refuse what the
# serializer would write for it, or read it back as another graph
@pytest.mark.parametrize("g, value", [
    (_nested_first(), "Experiencer"),
    (_BASE.replace(original_text="# Moral: sour grapes"), "# Moral: sour grapes"),
    (_BASE.replace(original_text="The fox left.\n\nMoral: sour grapes"), ""),
    (_BASE.replace(original_text="The fox left.\n"), ""),
    (_BASE.replace(original_text=""), ""),
    (_BASE.replace(original_text="  The fox left."), "  The fox left."),
    (_BASE.replace(original_text="The fox left. "), "The fox left. "),
    (_BASE.replace(original_text="The fox\rleft."), "The fox\rleft."),
    (_with(_BASE, entities=(_FOX.replace(fixed_modifiers=("very hot",)), _GRAPES)), "very hot"),
    (_with(_BASE, entities=(_FOX.replace(fixed_modifiers=("hot,cold",)), _GRAPES)), "hot,cold"),
    (_jump(adverbs=(("very fast", st.PRE_VERB),)), "very fast"),
    (_jump(adverbs=(("a@b", st.POST_VERB),)), "a@b"),
    (_jump(id="p x"), "p x"),
    (_BASE.replace(id="fox grapes"), "fox grapes"),
    (_jump(id="fox"), "fox"),
    (_jump(id="t3"), "t3"),
    (_jump(id="original"), "original"),
    (_with(_BASE, entities=(_FOX, _GRAPES, _FOX.replace(id="t3"))), "t3"),
    (_with(_BASE, entities=(_FOX, _GRAPES, _FOX.replace(id="timeline"))), "timeline"),
], ids=["nested-before-inline", "original-comment", "original-blank-line",
        "original-trailing-newline", "original-empty", "original-leading-space",
        "original-trailing-space", "original-return", "modifier-space", "modifier-comma",
        "adverb-space", "adverb-at", "proposition-id-space", "story-id-space",
        "proposition-id-entity", "proposition-id-timespan", "proposition-id-section",
        "entity-id-timespan", "entity-id-section"])
def test_serializer_refuses_a_graph_it_would_write_back_wrong(g, value):
    assert [d for d in st.validate_story(g) if d.severity == ERROR] == []
    with pytest.raises(ValueError) as exc:
        st.serialize_story(g)
    assert repr(value) in str(exc.value)


# each graph fails validation, and no story file holds it: the format has no
# word for its polarity, adverb position or clause relation, a `prep` line
# holds no proposition and needs a preposition, and a clause line nests a
# proposition and takes no preposition
@pytest.mark.parametrize("g, value", [
    (_jump(polarity="maybe"), "maybe"),
    (_jump(adverbs=(("now", "mid"),)), "mid"),
    (_jump(attachments=(st.Attachment("complement", _JUMP.replace(id="p1")),)), "complement"),
    (_obtain(st.EntityRef("grapes"), prep=_JUMP.replace(id="p1")), "p1"),
    (_jump(attachments=(st.Attachment(st.PREPOSITIONAL, st.EntityRef("grapes")),)), None),
    (_jump(attachments=(st.Attachment(st.PURPOSE, st.EntityRef("grapes")),)),
     st.EntityRef("grapes")),
    (_jump(attachments=(st.Attachment(st.CAUSE, st.Text("dignity")),)), st.Text("dignity")),
    (_jump(attachments=(st.Attachment(st.PURPOSE, _JUMP.replace(id="p1"), "with"),)), "with"),
], ids=["polarity", "adverb-position", "attachment-relation", "proposition-prep-target",
        "prep-without-preposition", "purpose-entity-target", "cause-literal-target",
        "purpose-preposition"])
def test_serializer_refuses_a_value_the_format_has_no_word_for(g, value):
    assert [d for d in st.validate_story(g) if d.severity == ERROR]
    with pytest.raises(ValueError) as exc:
        st.serialize_story(g)
    assert repr(value) in str(exc.value)


def test_serializer_refuses_a_proposition_id_it_cannot_write_twice():
    # a proposition met again is written as a `ref`, which reads back the
    # first; only a nested slot can hold one
    see = st.FrameInstance("see", "see", (("Experiencer", st.EntityRef("fox")),
                                          ("Stimulus", _JUMP.replace(polarity=st.NEGATED))))
    other = _with(_BASE, timeline=(st.Timespan(0, (_JUMP, st.Proposition("p1", see))),))
    twice = _with(_BASE, timeline=(st.Timespan(0, (_JUMP, _JUMP)),))
    assert st.validate_story(twice) == []
    for g in (other, twice):
        with pytest.raises(ValueError, match="'t0.p0'"):
            st.serialize_story(g)
    # an equal proposition in a nested slot is the same one told again
    again = _with(_BASE, timeline=(st.Timespan(0, (_JUMP, st.Proposition("p1", see.replace(
        bindings=(see.bindings[0], ("Stimulus", _JUMP.replace())))))),))
    assert st.parse_story(st.serialize_story(again)) == again


def test_a_parenthesis_in_a_prep_literal_round_trips():
    g = _obtain(st.EntityRef("grapes"), prep=st.Text("care (and dignity)"))
    assert st.parse_story(st.serialize_story(g)) == g
