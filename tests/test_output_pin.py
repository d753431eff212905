"""One sha256 over everything the pipeline makes of a fixed set of stories.

A refactor that claims byte-identical output must leave this digest as it
is. It covers both fixtures and ``random_story`` seeds 0-39. For each story
it hashes the validator's diagnostics and the canonical story text. Each
story is then told in the four built-in voices and in one voice with every
parameter at 1.0, at voice seeds 0-3, and each telling adds its text, its
decision reprs and its serialized trees. When a change is meant to alter
the output, recompute the digest and say why in the change log.
"""

import hashlib
import random

from retold import dsynt as d
from retold import style
from retold.realize import realize_document
from retold.story import serialize_story, validate_story
from retold.transform import transform_story

from conftest import random_story

PINNED_SHA256 = "2ccebbbbe7bd92f283e8e3dc63e1833849ab323e3ddba79227f636d05793ee79"

EVERYTHING = style.VoiceModel("EVERYTHING", {p: 1.0 for p in sorted(style.PARAM_NAMES)})
VOICES = [style.BUILTIN_VOICES[v] for v in ("NEUTRAL", "FORMAL", "SHY", "LAID-BACK")] + [EVERYTHING]


def _digest(graphs) -> str:
    h = hashlib.sha256()

    def add(text: str) -> None:
        h.update(text.encode("utf-8"))
        h.update(b"\0")

    for g in graphs:
        add("\n".join(map(repr, validate_story(g))))
        add(serialize_story(g))
        doc = transform_story(g)
        for model in VOICES:
            for seed in range(4):
                styled, decisions = style.apply_voice(doc, model, seed)
                add(realize_document(styled))
                add("\n".join(map(repr, decisions)))
                add(d.serialize(styled))
    return h.hexdigest()


def test_output_is_pinned(fox_graph, lion_graph):
    graphs = [fox_graph, lion_graph] + [random_story(random.Random(k)) for k in range(40)]
    assert _digest(graphs) == PINNED_SHA256
