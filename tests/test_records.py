"""Value semantics of every record class: immutability, type-aware ``==``,
``hash`` and repr, keyword construction and defaults, ``replace``; and
``==``/``hash`` over story graphs in time linear in distinct propositions."""

import copy
import hashlib
import pickle
import signal
from contextlib import contextmanager

import pytest

from retold import dsynt as d
from retold import lexicon as lx
from retold import metrics as m
from retold import story as st
from retold import style as sty
from retold import transform as tr
from retold.diagnostics import Diagnostic
from retold.record import Record

from conftest import fixture_text, ref_chain_story

_PROP = st.Proposition("p0", st.FrameInstance("jump", "jump", (("Agent", st.EntityRef("fox")),)))

# one instance's positional arguments per record class, every field given
SAMPLES = [
    (Diagnostic, ("error", "t0", "boom")),
    (d.DSyntNode, ("fox", d.COMMON_NOUN, d.I, {"number": "sg"}, ())),
    (d.Document, ((d.DSyntNode("jump", d.VERB),),)),
    (lx.LexemeEntry, ("be", lx.VERB, {"past": "was"}, ("exist",))),
    (lx.FrameDef, ("jump", (("Agent", "I"),), (("Goal", "prep:to"),))),
    (m.EvalPair, ("a b", "a c", "row")),
    (m.EvalRow, ("row", 1, 0.5)),
    (m.EvalReport, ((m.EvalRow("row", 1, 0.5),), 1.0, 0.0, 0.5, 0.0)),
    (st.Entity, ("fox", st.CHARACTER, "fox", None, "sg", ("hungry",), "she")),
    (st.EntityRef, ("fox",)),
    (st.Property, ("ripe",)),
    (st.Text, ("dignity",)),
    (st.FrameInstance, ("jump", "jump", (("Agent", st.EntityRef("fox")),))),
    (st.Attachment, (st.PREPOSITIONAL, st.EntityRef("vine"), "on")),
    (st.Proposition, ("p1", _PROP.frame, st.NEGATED, (("now", st.PRE_VERB),),
                      (st.Attachment(st.CAUSE, _PROP),))),
    (st.Timespan, (0, (_PROP,))),
    (st.StoryGraph, ("x", "X", (st.Entity("fox", st.CHARACTER, "fox"),),
                     (st.Timespan(0, (_PROP,)),), "Once.")),
    (sty.VoiceModel, ("V", {"contractions": 1.0})),
    (sty.StyleDecision, (3, "contractions", "root", "didn't")),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


def test_samples_cover_every_record_class():
    assert {cls for cls, _ in SAMPLES} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, args):
    r = cls(*args)
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(r, name, "x")
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert r == cls(*args)
    assert not hasattr(r, "extra") and not hasattr(r, "__dict__")


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_keyword_construction_equality_and_hash(cls, args):
    r = cls(*args)
    keywords = cls(**dict(zip(cls._fields, args)))
    assert r == keywords and not r != keywords and r is not keywords
    assert tuple(getattr(r, name) for name in cls._fields) == args
    try:
        hash(args)
    except TypeError:  # a dict anywhere in the fields makes the record unhashable
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(keywords)
        assert len({r, keywords}) == 1


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_equality_is_type_aware(cls, args):
    r = cls(*args)
    assert r != args and r != tuple(args)
    for other_cls, other_args in SAMPLES:
        if other_cls is not cls:
            assert r != other_cls(*other_args)


def test_equal_fields_of_different_classes_are_not_equal():
    ref, text, prop = st.EntityRef("x"), st.Text("x"), st.Property("x")
    assert ref != text and text != prop and prop != ref
    assert len({ref, text, prop}) == 3
    assert Diagnostic("a", "b", "c") != m.EvalPair("a", "b", "c")


# a proposition's repr is bounded instead; see test_story
@pytest.mark.parametrize("cls, args", [s for s in SAMPLES if s[0] is not st.Proposition],
                         ids=[name for name in IDS if name != "Proposition"])
def test_repr_names_every_field(cls, args):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, args))
    assert repr(cls(*args)) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_replace_copy_and_pickle(cls, args):
    r = cls(*args)
    same = r.replace()
    assert same == r and same is not r
    name = cls._fields[0]
    changed = r.replace(**{name: args[-1]})
    assert getattr(changed, name) == args[-1]
    assert all(getattr(changed, f) is getattr(r, f) for f in cls._fields if f != name)
    with pytest.raises(TypeError):
        r.replace(no_such_field=1)
    assert copy.copy(r) == r
    assert copy.deepcopy(r) == r
    assert pickle.loads(pickle.dumps(r)) == r


def test_defaults():
    a, b = d.DSyntNode("jump", d.VERB), d.DSyntNode("jump", d.VERB)
    assert (a.relation, a.features, a.children) == (d.ROOT, {}, ())
    assert a.features is not b.features
    e1, e2 = lx.LexemeEntry("fox", lx.NOUN), lx.LexemeEntry("fox", lx.NOUN)
    assert (e1.irregular, e1.synonyms) == ({}, ())
    assert e1.irregular is not e2.irregular
    assert lx.FrameDef("f") == lx.FrameDef("f", (), ())
    assert d.Document() == d.Document(())
    assert m.EvalPair("a", "b").label == ""
    assert st.Entity("fox", st.CHARACTER, "fox") == st.Entity("fox", st.CHARACTER, "fox",
                                                              None, "sg", (), None)
    assert st.FrameInstance("jump", "jump").bindings == ()
    assert st.Attachment(st.CAUSE, _PROP).preposition is None
    assert st.Proposition("p0", _PROP.frame) == st.Proposition("p0", _PROP.frame,
                                                               st.AFFIRMATIVE, (), ())
    assert st.StoryGraph("x", "X", (), ()).original_text is None


def test_voice_model_checks_its_parameters_when_built():
    with pytest.raises(sty.VoiceError, match="unknown style parameter"):
        sty.VoiceModel("v", {"bogus": 0.5})
    with pytest.raises(sty.VoiceError, match="outside"):
        sty.VoiceModel("v", {"contractions": 1.5})
    with pytest.raises(sty.VoiceError):
        sty.VoiceModel("v", {"contractions": 1.0}).replace(params={"contractions": -1.0})


def test_voice_model_keeps_its_own_parameters(fox_graph):
    params = {"contractions": 1.0}
    model = sty.VoiceModel("X", params)
    doc = tr.transform_story(fox_graph)
    before = sty.apply_voice(doc, model, 0)
    params["contractions"] = 7.0
    params["bogus"] = 1.0
    assert model.activation("contractions") == 1.0 and model.activation("bogus") == 0.0
    assert sty.apply_voice(tr.transform_story(fox_graph), model, 0) == before
    assert sty.apply_voice(doc, model, 0) == before
    with pytest.raises(TypeError):
        model.params["contractions"] = 7.0
    with pytest.raises(TypeError):
        model.params.update(bogus=1.0)
    assert model.params == {"contractions": 1.0}
    with pytest.raises(TypeError):
        hash(model)


# sha256 of the reprs as the standard library's frozen data classes printed
# them, before the record base replaced them
REPR_SHA256 = {
    "fox_and_grapes": ("720645f50c98cf1d8a0556d8796ff41150695265dd57335cf525006a159a1409",
                       "f1d798cc88a61e1cb40465529b2aac8b5cf41de462f9bf80d316d34456c36b97"),
    "lion_and_boar": ("65d16b7132027434b7e4297f4db172ce1a9a7712e30b3405f1399ef53dacc49a",
                      "123ff1c7ba6b71263a02481f059b1fb8524918e5c8702485e1745e37cbc5f09a"),
}
REPORT_REPR_SHA256 = "e6b2803ec2c8d153e81098b830eceb2eb4943222c48e786437e03a684cc253e3"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPR_SHA256))
def test_graph_and_document_reprs_are_unchanged(name):
    g = st.parse_story(fixture_text(f"{name}.story"))
    assert (_sha256(repr(g)), _sha256(repr(tr.transform_story(g)))) == REPR_SHA256[name]


def test_report_repr_is_unchanged():
    pairs = [m.EvalPair(fixture_text(f"{n}.golden.txt"), fixture_text(f"{n}.reference.txt"), n)
             for n in ("fox_and_grapes", "lion_and_boar")]
    assert _sha256(repr(m.corpus_report(pairs))) == REPORT_REPR_SHA256


# --- == and hash on story DAGs ------------------------------------------------

LEVELS = 31  # 2**33 propositions when every ref is expanded


@contextmanager
def _within(seconds: float):
    """Fail, rather than hang, when the body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _role_chain_story(levels: int) -> str:
    """Like ref_chain_story, but each step binds the one before as a role
    argument as well as attaching it, so that nested propositions recur as
    bound arguments and as attachment targets."""
    text = ('story chain "Chain"\n\nentities\n  fox character fox\n\n'
            'timeline\n  0:\n    jump jump(Agent=fox) id=s0\n')
    for k in range(1, levels + 1):
        text += (f"  {k}:\n    think think(Experiencer=fox) id=s{k}\n"
                 f"      role Topic:\n        ref s{k - 1}\n"
                 f"      cause:\n        ref s{k - 1}\n")
    return text


@pytest.mark.parametrize("story", [ref_chain_story, _role_chain_story])
def test_equality_and_hash_are_linear_in_distinct_propositions(story):
    text = story(LEVELS)
    changed = text.replace("jump jump(Agent=fox) id=s0", "jump jump(Agent=fox) polarity=neg id=s0")
    a, b, c = st.parse_story(text), st.parse_story(text), st.parse_story(changed)
    top_a, top_b, top_c = (st.timeline_propositions(g)[-1] for g in (a, b, c))
    assert top_a is not top_b
    with _within(2.0):
        assert top_a == top_b and not top_a != top_b
        assert a == b
        assert hash(top_a) == hash(top_b)
        assert hash(a) == hash(b)
    with _within(2.0):
        assert top_a != top_c  # they differ only at the bottom of the chain
        assert a != c
