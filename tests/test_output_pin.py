"""One sha256 over everything the pipeline makes of a fixed set of stories.

A refactor that claims byte-identical output must leave this digest as it
is. It covers both fixtures and ``random_story`` seeds 0-39. For each story
it hashes the validator's diagnostics and the canonical story text. Each
story is then told in the four built-in voices and in one voice with every
parameter at 1.0, at voice seeds 0-3, and each telling adds its text, its
decision reprs and its serialized trees. When a change is meant to alter
the output, recompute the digest and say why in the change log.

A second digest tells the same stories in voices that test how activations
draw from each sentence's random stream: every parameter alone at 1.0 and
alone at 0.5, and two mixed voices in which parameters at 1.0 come before a
fractional one, one of them with a fractional pronominalization. A draw
against an activation of 1.0 always fires, so its value cannot show in the
output; only the draws after it can, and these voices make them.
"""

import hashlib
import random

from retold import dsynt as d
from retold import style
from retold.story import serialize_story, validate_story
from retold.transform import transform_story

from conftest import random_story

PINNED_SHA256 = "c1ff11f1d0d6e5dc64ed23b323f2f65a3d892142557c80ce15f652f3030e3763"

EVERYTHING = style.VoiceModel("EVERYTHING", {p: 1.0 for p in sorted(style.PARAM_NAMES)})
VOICES = [style.BUILTIN_VOICES[v] for v in ("NEUTRAL", "FORMAL", "SHY", "LAID-BACK")] + [EVERYTHING]

DRAW_PINNED_SHA256 = "f574bd848fe657bc97dadeceaba0a676f00b5c8138870461f301701d1a4cc290"

DRAW_VOICES = (
    [style.VoiceModel(f"{p}@{a}", {p: a}) for a in (1.0, 0.5) for p in sorted(style.PARAM_NAMES)]
    + [style.VoiceModel("WHOLE-THEN-HALF", {
        "pronominalization": 1.0, "contractions": 1.0, "restatement": 1.0,
        "lexical_variation": 1.0, "expletives": 0.5, "exclamation": 0.5}),
       style.VoiceModel("HALF-PRONOUNS", {
           "pronominalization": 0.5, "negation_paraphrase": 1.0, "restatement": 1.0,
           "contractions": 1.0, "emphasizer_hedges": 0.5, "tag_question": 1.0})])


def _digest(graphs, voices) -> str:
    h = hashlib.sha256()

    def add(text: str) -> None:
        h.update(text.encode("utf-8"))
        h.update(b"\0")

    for g in graphs:
        add("\n".join(map(repr, validate_story(g))))
        add(serialize_story(g))
        doc = transform_story(g)
        for model in voices:
            for seed in range(4):
                told = style.tell(doc, model, seed)
                add(told.text)
                add("\n".join(map(repr, told.decisions)))
                add(d.serialize(told.document))
    return h.hexdigest()


def _graphs(fox_graph, lion_graph):
    return [fox_graph, lion_graph] + [random_story(random.Random(k)) for k in range(40)]


def test_output_is_pinned(fox_graph, lion_graph):
    assert _digest(_graphs(fox_graph, lion_graph), VOICES) == PINNED_SHA256


def test_draws_are_pinned(fox_graph, lion_graph):
    assert _digest(_graphs(fox_graph, lion_graph), DRAW_VOICES) == DRAW_PINNED_SHA256
