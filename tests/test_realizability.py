"""One realizability rule and one gate: the transform validates the story
itself, so it refuses a story exactly when validation reports an ERROR, and
then with validation's first ERROR."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from retold import lexicon as lx
from retold import story as st
from retold import style
from retold import transform as tr
from retold.diagnostics import ERROR
from retold.realize import realize_document

from conftest import random_story, ref_chain_story

HEADER = '''story demo "Demo"

entities
  fox character fox
  grapes object group group_of=grape

timeline
  0:
'''

# encodings the transform refuses, each with the message both sides give
REFUSED = [
    ("obtain obtain(Agent=fox, Theme=@ripe) id=p",
     "property argument outside a copular slot"),
    ("jump jump(Agent=@ripe) id=p",
     "property argument outside a copular slot"),
    ("obtain obtain(Agent=fox) id=p\n      role Theme:\n        jump jump(Agent=fox)",
     "frame 'obtain' does not take a propositional argument"),
    ("be_ripe be(Theme=grapes, Attribute=fox) id=p",
     "role Attribute expects an adjective property"),
    ("say say(Agent=fox, Topic=grapes) id=p\n      role Addressee:\n"
     "        jump jump(Agent=fox)",
     "role Addressee cannot nest a proposition"),
    ("plan plan() id=p\n      role Agent:\n        jump jump(Agent=fox)\n"
     "      role Topic:\n        jump jump(Agent=fox)",
     "role Agent cannot nest a proposition"),
    ("jump jump(Agent=fox, Agent=fox) id=p", "role bound twice"),
    # the realizer reads an underscore as a space, so these tell no word
    ('obtain obtain(Agent=fox, Theme="_ _") id=p', "literal '_ _' has no words"),
    ('jump jump(Agent=fox) id=p\n      prep with: ""', "literal '' has no words"),
    ("jump jump(Agent=fox) adv=__@pre id=p", "adverb '__' has no words"),
    # Addressee is a prepositional slot: "The fox said the fox jumped to ripe."
    ("say say(Agent=fox, Addressee=@ripe) id=p\n      role Topic:\n        jump jump(Agent=fox)",
     "property argument outside a copular slot"),
    # a to-infinitive does not tell its subject, so only the matrix subject
    # may be it: else "The fox wanted to eat the fox." loses the grapes
    ("want want(Experiencer=fox) id=p\n      role Action:\n"
     "        eat eat(Agent=grapes, Patient=fox)",
     "role Action must nest a clause with this proposition's subject"),
    ("be_able be(Experiencer=fox, Attribute=@able) id=p\n      role Action:\n"
     "        reach reach(Agent=grapes, Theme=fox)",
     "role Action must nest a clause with this proposition's subject"),
]


@pytest.mark.parametrize("encoding, message", REFUSED)
def test_validate_and_transform_report_the_same_message(encoding, message):
    g = st.parse_story(HEADER + "    " + encoding + "\n")
    assert [(d.severity, d.location, d.message) for d in st.validate_story(g)] == [
        (ERROR, "p", message)]
    with pytest.raises(tr.TransformError) as exc:
        tr.transform_story(g)
    assert exc.value.proposition_id == "p"
    assert str(exc.value) == f"p: {message}"
    assert exc.value.diagnostics == st.validate_story(g)


@pytest.mark.parametrize("text, message", [
    (ref_chain_story(16), f"expands to {2 ** 18 - 19} propositions through ref reuse, "
                          f"more than {st.MAX_EXPANDED_PROPOSITIONS}"),
    (ref_chain_story(st.MAX_NESTING_DEPTH + 1, uses=1),
     f"propositions nest more than {st.MAX_NESTING_DEPTH} levels deep"),
], ids=["over-budget", "over-depth"])
def test_transform_refuses_a_story_past_the_bounds_at_once(text, message):
    # the library keeps the bounds the command line keeps: the over-budget
    # story would otherwise realize as about 1.4 million words
    g = st.parse_story(text)
    assert [(d.severity, d.location, d.message) for d in st.validate_story(g)] == [
        (ERROR, "timeline", message)]
    start = time.perf_counter()
    with pytest.raises(tr.TransformError) as exc:
        tr.transform_story(g)
    assert time.perf_counter() - start < 1.0
    assert exc.value.proposition_id == "timeline"
    assert str(exc.value) == f"timeline: {message}"


def test_validate_checks_each_distinct_proposition_once(monkeypatch):
    # every timespan reuses the previous one twice, so expanding each `ref`
    # would visit about 2**32 propositions; validation visits each once and
    # refuses the expansion
    g = st.parse_story(ref_chain_story(30))
    checked = []
    check = st.proposition_errors
    monkeypatch.setattr(st, "proposition_errors",
                        lambda p, *args: checked.append(p.id) or check(p, *args))
    diagnostics = [(d.severity, d.location, d.message) for d in st.validate_story(g)]
    assert diagnostics == [(ERROR, "timeline", f"expands to {2 ** 32 - 33} propositions "
                            f"through ref reuse, more than {st.MAX_EXPANDED_PROPOSITIONS}")]
    assert sorted(checked) == sorted(f"s{k}" for k in range(31))


@pytest.mark.parametrize("levels, expanded", [(13, 32_752), (14, 65_519)])
def test_expansion_budget_counts_every_use_of_a_ref(levels, expanded):
    diagnostics = st.validate_story(st.parse_story(ref_chain_story(levels)))
    if expanded <= st.MAX_EXPANDED_PROPOSITIONS:
        assert diagnostics == []
    else:
        assert [d.message for d in diagnostics] == [
            f"expands to {expanded} propositions through ref reuse, "
            f"more than {st.MAX_EXPANDED_PROPOSITIONS}"]


def _propositions(g):
    out = []

    def walk(p):
        out.append(p)
        for child in [a for _, a in p.frame.bindings] + [a.target for a in p.attachments]:
            if isinstance(child, st.Proposition):
                walk(child)

    for p in st.timeline_propositions(g):
        walk(p)
    return out


def _swap(p, old, new):
    """``p`` with the proposition ``old`` replaced by ``new`` wherever it nests."""
    if p is old:
        return new
    bindings = tuple((role, _swap(a, old, new) if isinstance(a, st.Proposition) else a)
                     for role, a in p.frame.bindings)
    attachments = tuple(a.replace(target=_swap(a.target, old, new))
                        if isinstance(a.target, st.Proposition) else a
                        for a in p.attachments)
    return p.replace(frame=p.frame.replace(bindings=bindings), attachments=attachments)


def _mutated(g, rng):
    """``g`` with one field of one proposition changed: a role binding
    replaced by a property, a literal, an entity or a nested proposition, or
    an added clause or prepositional attachment. The clause attachment's
    relation is "complement", which the story grammar does not have."""
    entity_ids = [e.id for e in g.entities]
    nested = st.Proposition("mutant", st.FrameInstance(
        "jump", "jump", (("Agent", st.EntityRef(entity_ids[0])),)))
    arguments = [st.Property(rng.choice(["ripe", "hungry", "able"])),
                 st.Text("dignity"), st.EntityRef(rng.choice(entity_ids)), nested]
    target = rng.choice(_propositions(g))
    kind = rng.choice(["binding", "binding", "complement", "prep"])
    if kind == "binding" and target.frame.bindings:
        bindings = list(target.frame.bindings)
        i = rng.randrange(len(bindings))
        bindings[i] = (bindings[i][0], rng.choice(arguments))
        new = target.replace(frame=target.frame.replace(bindings=tuple(bindings)))
    elif kind == "complement":
        new = target.replace(attachments=target.attachments
                             + (st.Attachment("complement", nested),))
    else:
        new = target.replace(attachments=target.attachments
                             + (st.Attachment(st.PREPOSITIONAL, rng.choice(arguments), "with"),))
    spans = tuple(ts.replace(propositions=tuple(_swap(p, target, new)
                                                for p in ts.propositions))
                  for ts in g.timeline)
    return g.replace(timeline=spans)


@settings(derandomize=True, deadline=None)
@given(story_seed=hst.integers(0, 10**6), mutation_seed=hst.integers(0, 10**6))
def test_clean_validation_implies_generation(story_seed, mutation_seed):
    g = _mutated(random_story(random.Random(story_seed)), random.Random(mutation_seed))
    errors = [d for d in st.validate_story(g) if d.severity == ERROR]
    try:
        doc = tr.transform_story(g)
    except tr.TransformError as exc:
        assert errors
        assert exc.proposition_id == errors[0].location
        assert str(exc) == f"{errors[0].location}: {errors[0].message}"
        return
    assert not errors
    for model in style.BUILTIN_VOICES.values():
        styled, _ = style.apply_voice(doc, model, story_seed)
        assert realize_document(styled)


def subject_role(frame):
    """The role ``frame`` links to I, or None."""
    return next((role for role, rel in frame.all_roles() if rel == "I"), None)


def first_binding(p, role):
    return next((arg for name, arg in p.frame.bindings if name == role), None)


def reference_errors(p, entity_ids, lexicon):
    """The realizability rule as it read before each frame's rules were made
    once per frame, kept as the reference for :func:`story.proposition_errors`."""
    out = []
    if not lexicon.has(p.frame.predicate_lemma, "verb"):
        out.append(f"predicate {p.frame.predicate_lemma!r} is not a known verb")
    relations = {}
    frame = None
    if not lexicon.has_frame(p.frame.frame_id):
        out.append(f"unknown frame {p.frame.frame_id!r}")
    else:
        frame = lexicon.frame(p.frame.frame_id)
        relations = dict(frame.all_roles())
        bound = tuple(name for name, _ in p.frame.bindings)
        if len(bound) != len(set(bound)):
            out.append("role bound twice")
        for role, _ in frame.mandatory_roles:
            if role not in bound:
                out.append(f"mandatory role {role} unbound")

    def check_ref(arg):
        if isinstance(arg, st.EntityRef) and arg.entity_id not in entity_ids:
            out.append(f"unknown entity {arg.entity_id!r}")
        elif isinstance(arg, st.Property) and not lexicon.has(arg.adjective, "adjective"):
            out.append(f"property {arg.adjective!r} is not a known adjective")
        elif isinstance(arg, st.Text) and not arg.value.replace("_", " ").split():
            out.append(f"literal {arg.value!r} has no words")

    for role, arg in p.frame.bindings:
        check_ref(arg)
        if frame is None:
            continue
        rel = relations.get(role)
        if rel is None:
            out.append(f"unknown role {role} for frame {p.frame.frame_id!r}")
        elif rel == "ATTR":
            if not isinstance(arg, st.Property):
                out.append(f"role {role} expects an adjective property")
        elif isinstance(arg, st.Property):  # a prepositional slot too
            out.append("property argument outside a copular slot")
        elif isinstance(arg, st.Proposition) and rel not in ("II", "III"):
            out.append(f"role {role} cannot nest a proposition")
        elif isinstance(arg, st.Proposition) and role not in lx.COMPLEMENT_KINDS:
            out.append(f"frame {frame.frame_id!r} does not take a propositional argument")
        elif (isinstance(arg, st.Proposition) and lx.COMPLEMENT_KINDS[role] == lx.INFINITIVE
              and lexicon.has_frame(arg.frame.frame_id)):
            # the to-infinitive does not tell its subject: it must be p's
            theirs = subject_role(lexicon.frame(arg.frame.frame_id))
            if theirs is not None and (first_binding(arg, theirs)
                                       != first_binding(p, subject_role(frame))):
                out.append(f"role {role} must nest a clause with this proposition's subject")

    for a in p.attachments:
        if a.relation in st.CLAUSE_RELATIONS:
            if not isinstance(a.target, st.Proposition):
                out.append(f"{a.relation} attachment must nest a proposition")
            if a.preposition:
                out.append(f"{a.relation} attachment does not take a preposition")
        elif a.relation == st.PREPOSITIONAL:
            if not a.preposition:
                out.append("prepositional attachment needs a preposition")
            elif not lexicon.has(a.preposition, "preposition"):
                out.append(f"unknown preposition {a.preposition!r}")
            if not isinstance(a.target, (st.EntityRef, st.Text)):
                out.append("prepositional attachment target must be entity or "
                           "noun-phrase valued")
            else:
                check_ref(a.target)
        else:
            out.append(f"unknown attachment relation {a.relation!r}")
    for i, (lemma, pos) in enumerate(p.adverbs):
        if not lemma.replace("_", " ").split():
            out.append(f"adverb {lemma!r} has no words")
        if pos not in (st.PRE_VERB, st.POST_VERB):
            out.append(f"bad adverb position {pos!r}")
        if p.adverbs.index((lemma, pos)) < i:
            out.append(f"repeated adverb {lemma!r} at {pos}")
    if p.polarity not in (st.AFFIRMATIVE, st.NEGATED):
        out.append(f"bad polarity {p.polarity!r}")
    return out


def _broken(p, rng, entity_ids):
    """``p`` with one to three random faults of every kind the rule reports."""
    nested = st.Proposition("mutant", st.FrameInstance(
        "jump", "jump", (("Agent", st.EntityRef(entity_ids[0])),)))
    arguments = [st.Property("ripe"), st.Property("purple"), st.Text("dignity"), st.Text(" _"),
                 st.EntityRef(rng.choice(entity_ids)), st.EntityRef("nobody"), nested]
    for _ in range(rng.randint(1, 3)):
        bindings, attachments = list(p.frame.bindings), list(p.attachments)
        frame = p.frame
        kind = rng.randrange(8)
        if kind == 0 and bindings:
            del bindings[rng.randrange(len(bindings))]
        elif kind == 1:
            role = rng.choice([r for r, _ in bindings]
                              + ["Agent", "Theme", "Bogus", "Attribute", "Addressee", "Action"])
            bindings.insert(rng.randint(0, len(bindings)), (role, rng.choice(arguments)))
        elif kind == 2 and bindings:
            i = rng.randrange(len(bindings))
            bindings[i] = (bindings[i][0], rng.choice(arguments))
        elif kind == 3:
            frame = frame.replace(frame_id=rng.choice(["nope", "obtain", "see", "be_ripe",
                                                       "give", "say", "want", "be_able"]))
        elif kind == 4:
            frame = frame.replace(predicate_lemma=rng.choice(["nope", "be", "obtain"]))
        elif kind == 5:
            attachments.insert(rng.randint(0, len(attachments)), st.Attachment(
                rng.choice(list(st.CLAUSE_RELATIONS) + [st.PREPOSITIONAL, "concession"]),
                rng.choice(arguments), rng.choice([None, "with", "zzz"])))
        elif kind == 6:
            p = p.replace(polarity=rng.choice([st.AFFIRMATIVE, st.NEGATED, "maybe"]))
        else:
            p = p.replace(adverbs=p.adverbs + ((rng.choice(["now", "__"]),
                                                rng.choice([st.PRE_VERB, "mid"])),))
        p = p.replace(frame=frame.replace(bindings=tuple(bindings)),
                      attachments=tuple(attachments))
    return p


@settings(derandomize=True, deadline=None)
@given(story_seed=hst.integers(0, 10**6), fault_seed=hst.integers(0, 10**6))
def test_proposition_errors_match_the_reference_rule(story_seed, fault_seed, lexicon):
    g = random_story(random.Random(story_seed))
    rng = random.Random(fault_seed)
    entity_ids = {e.id for e in g.entities}
    for p in _propositions(g):
        for q in (p, _broken(p, rng, sorted(entity_ids))):
            assert st.proposition_errors(q, entity_ids, lexicon) == \
                reference_errors(q, entity_ids, lexicon), q


def _with_a_bad_entity(g, rng):
    """``g`` with one entity given a value the validator refuses."""
    bad = rng.choice([{"kind": "beast"}, {"number": "dual"}, {"pronoun": "xe"},
                      {"head_lemma": "zorblax"}, {"fixed_modifiers": ("hot", "hot")}])
    i = rng.randrange(len(g.entities))
    return g.replace(entities=g.entities[:i] + (g.entities[i].replace(**bad),)
                     + g.entities[i + 1:])


@settings(derandomize=True, deadline=None)
@given(story_seed=hst.integers(0, 10**6), mutation_seed=hst.integers(0, 10**6))
def test_each_diagnostic_of_a_story_file_names_its_line(story_seed, mutation_seed):
    rng = random.Random(mutation_seed)
    story = random_story(random.Random(story_seed))
    for _ in range(100):
        g = _mutated(story, rng)
        if rng.random() < 0.5:
            g = _with_a_bad_entity(g, rng)
        # a graph built in code has no lines
        assert all(st.line_of(g, d.location) is None for d in st.validate_story(g))
        try:
            text = st.serialize_story(g)
            break
        except ValueError:  # a graph a story file cannot hold: draw again
            continue
    else:
        pytest.fail("no mutation of the story could be written")
    parsed = st.parse_story(text)
    assert parsed == g
    lines = text.splitlines()
    entity_ids = {e.id for e in parsed.entities}
    propositions = {p.id: p for p in _propositions(parsed)}
    diagnostics = st.validate_story(parsed)
    assert list(map(str, diagnostics)) == list(map(str, st.validate_story(g)))
    for d in diagnostics:
        line = st.line_of(parsed, d.location)
        assert line is not None, d
        written = lines[line - 1].strip()
        if d.location in entity_ids:
            assert written.split()[0] == d.location, (d, written)
        else:
            p = propositions[d.location]
            assert written.startswith(f"{p.frame.frame_id} {p.frame.predicate_lemma}("), \
                (d, written)


# characters that a story line splits on, quotes, comments out or reads
# another way, and some it reads as part of a word
_AWKWARD = hst.text(alphabet='ab_.-@#,=" ()\t\n\r:é0', max_size=6)
_TOKEN_FIELDS = ("story id", "entity id", "entity reference", "prep target", "modifier",
                 "adverb", "proposition id", "original text")


def _with_token(g, field, value, rng):
    """``g`` with ``value`` written into one ``field`` of it."""
    if field == "story id":
        return g.replace(id=value)
    if field == "original text":
        return g.replace(original_text=value)
    if field in ("entity id", "modifier"):
        i = rng.randrange(len(g.entities))
        e = g.entities[i]
        e = (e.replace(id=value) if field == "entity id"
             else e.replace(fixed_modifiers=e.fixed_modifiers + (value,)))
        return g.replace(entities=g.entities[:i] + (e,) + g.entities[i + 1:])
    target = rng.choice(_propositions(g))
    if field == "entity reference":
        bindings = list(target.frame.bindings)
        i = rng.randrange(len(bindings))
        bindings[i] = (bindings[i][0], st.EntityRef(value))
        new = target.replace(frame=target.frame.replace(bindings=tuple(bindings)))
    elif field == "prep target":
        new = target.replace(attachments=target.attachments + (
            st.Attachment(st.PREPOSITIONAL, st.EntityRef(value), "with"),))
    elif field == "adverb":
        new = target.replace(adverbs=target.adverbs + ((value, st.POST_VERB),))
    else:
        new = target.replace(id=value)
    return g.replace(timeline=tuple(ts.replace(propositions=tuple(
        _swap(p, target, new) for p in ts.propositions)) for ts in g.timeline))


@settings(derandomize=True, deadline=None)
@given(story_seed=hst.integers(0, 10**6), field=hst.sampled_from(_TOKEN_FIELDS),
       value=_AWKWARD, pick_seed=hst.integers(0, 10**6))
def test_a_written_story_reads_back_exactly_or_is_refused(story_seed, field, value, pick_seed):
    g = _with_token(random_story(random.Random(story_seed)), field, value,
                    random.Random(pick_seed))
    try:
        text = st.serialize_story(g)
    except ValueError:
        return
    assert st.parse_story(text) == g
