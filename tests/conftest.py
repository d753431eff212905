import itertools
import random
from pathlib import Path

import pytest

from retold import default_lexicon, parse_story
from retold import story as st

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CHARACTER_LEMMAS = ["fox", "lion", "boar", "crow", "wolf"]
OBJECT_LEMMAS = ["vine", "trellis", "rock", "spring", "bone", "branch"]
COPULAR_FRAMES = {"be_hot": "hot", "be_hungry": "hungry", "be_ripe": "ripe",
                  "be_sour": "sour", "be_seated": "seated"}
COMPLEMENT_FRAMES = {"see": ("Experiencer", "Stimulus"), "think": ("Experiencer", "Topic"),
                     "decide": ("Agent", "Topic"), "plan": ("Agent", "Topic")}


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def fox_graph():
    return parse_story(fixture_text("fox_and_grapes.story"))


@pytest.fixture(scope="session")
def lion_graph():
    return parse_story(fixture_text("lion_and_boar.story"))


def ref_chain_story(levels: int, uses: int = 2) -> str:
    """Story text of ``levels + 1`` timespans, each reusing the one before
    ``uses`` times (as its purpose and, for two, as its cause). With two
    uses, expanding every ``ref`` gives 2**(levels + 2) - levels - 3
    propositions; with one, the propositions nest ``levels`` deep."""
    text = ('story chain "Chain"\n\nentities\n  fox character fox\n\n'
            'timeline\n  0:\n    jump jump(Agent=fox) id=s0\n')
    for k in range(1, levels + 1):
        text += (f"  {k}:\n    jump jump(Agent=fox) id=s{k}\n"
                 f"      purpose:\n        ref s{k - 1}\n")
        if uses == 2:
            text += f"      cause:\n        ref s{k - 1}\n"
    return text


def nested_story(levels: int) -> str:
    """Story text of one proposition with ``levels`` more nested under it,
    each in the purpose slot of the one before."""
    text = ('story deep "Deep"\n\nentities\n  fox character fox\n\n'
            'timeline\n  0:\n    jump jump(Agent=fox)\n')
    for k in range(1, levels + 1):
        text += "  " * (2 * k + 1) + "purpose:\n" + "  " * (2 * k + 2) + "jump jump(Agent=fox)\n"
    return text


def random_story(rng: random.Random) -> st.StoryGraph:
    """A random but always-valid story over the shipped lexicon."""
    entities = []
    for i, lemma in enumerate(rng.sample(CHARACTER_LEMMAS, rng.randint(1, 3))):
        entities.append(st.Entity(f"c{i}", st.CHARACTER, lemma))
    for i, lemma in enumerate(rng.sample(OBJECT_LEMMAS, rng.randint(1, 3))):
        entities.append(st.Entity(f"o{i}", st.OBJECT, lemma,
                                  number=rng.choice(["sg", "sg", "pl"])))
    if rng.random() < 0.4:
        entities.append(st.Entity("g0", st.OBJECT, "group",
                                  group_of=rng.choice(["grape", "vulture"])))
    char_ids = [e.id for e in entities if e.kind == st.CHARACTER]
    all_ids = [e.id for e in entities]
    ids = itertools.count()

    def simple_frame() -> st.FrameInstance:
        agent = st.EntityRef(rng.choice(char_ids))
        kind = rng.random()
        if kind < 0.3:
            fid = rng.choice(["jump", "walk", "quarrel", "sober"])
            return st.FrameInstance(fid, fid, (("Agent", agent),))
        if kind < 0.45:
            return st.FrameInstance("hang", "hang",
                                    (("Theme", st.EntityRef(rng.choice(all_ids))),))
        if kind < 0.75:
            fid = rng.choice(["obtain", "reach", "attack", "kill", "carry"])
            role = "Patient" if fid in ("attack", "kill") else "Theme"
            return st.FrameInstance(fid, fid, (("Agent", agent),
                                               (role, st.EntityRef(rng.choice(all_ids)))))
        fid = rng.choice(list(COPULAR_FRAMES))
        return st.FrameInstance("be", fid,
                                (("Theme", st.EntityRef(rng.choice(all_ids))),
                                 ("Attribute", st.Property(COPULAR_FRAMES[fid]))))

    def proposition(depth: int) -> st.Proposition:
        pid = f"p{next(ids)}"
        polarity = st.NEGATED if rng.random() < 0.2 else st.AFFIRMATIVE
        adverbs = ()
        if rng.random() < 0.3:
            adverbs = ((rng.choice(["earlier", "now", "above", "quickly"]),
                        rng.choice([st.PRE_VERB, st.POST_VERB])),)
        roll = rng.random()
        if roll < 0.2 and depth < 2:
            fid = rng.choice(list(COMPLEMENT_FRAMES))
            subj_role, comp_role = COMPLEMENT_FRAMES[fid]
            frame = st.FrameInstance(fid, fid,
                                     ((subj_role, st.EntityRef(rng.choice(char_ids))),
                                      (comp_role, proposition(depth + 1))))
        elif roll < 0.3 and depth < 2:
            agent = st.EntityRef(rng.choice(char_ids))
            nested = st.Proposition(
                f"p{next(ids)}",
                st.FrameInstance("reach", "reach",
                                 (("Agent", agent),
                                  ("Theme", st.EntityRef(rng.choice(all_ids))))))
            frame = st.FrameInstance("be", "be_able",
                                     (("Experiencer", agent),
                                      ("Attribute", st.Property("able")),
                                      ("Action", nested)))
        else:
            frame = simple_frame()
        attachments = []
        if rng.random() < 0.35:
            word = rng.choice(["on", "from", "with", "at", "in"])
            target = (st.Text(rng.choice(["dignity", "unconcern"]))
                      if rng.random() < 0.3 else st.EntityRef(rng.choice(all_ids)))
            attachments.append(st.Attachment(st.PREPOSITIONAL, target, word))
        if rng.random() < 0.2 and depth < 2:
            attachments.append(st.Attachment(rng.choice([st.PURPOSE, st.CAUSE]),
                                             proposition(depth + 1)))
        return st.Proposition(pid, frame, polarity, adverbs, tuple(attachments))

    spans = []
    for index in range(rng.randint(1, 4)):
        spans.append(st.Timespan(index, tuple(proposition(0)
                                              for _ in range(rng.randint(1, 3)))))
    return st.StoryGraph(f"random_{rng.randint(0, 10**6)}", "A Random Tale",
                         tuple(entities), tuple(spans))


@pytest.fixture(scope="session")
def story_builder():
    return random_story
