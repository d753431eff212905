"""Seeded synthetic stories for the benchmark.

A story is drawn from (seed, timespans, ref_rate) alone and handed to the
program as ``.story`` text made by ``serialize_story``. The vocabulary is the
shipped lexicon's; the constructions are the ones the fixtures use. Nested
slots (purpose, cause, complement topics) reuse an earlier proposition through
``ref`` with probability ``ref_rate``. Only propositions from finished
timespans that hold no ``ref`` themselves are reused, and nesting stops at
depth 2, so expanding every ``ref`` stays within a small factor of the text.
"""

from __future__ import annotations

import random

from retold import realize, transform
from retold import story as st

CHARACTERS = ("fox", "lion", "boar", "crow", "wolf")
OBJECTS = ("vine", "trellis", "rock", "spring", "bone", "branch")
GROUP_MEMBERS = ("grape", "vulture")
COPULAR_FRAMES = {"be_hot": "hot", "be_hungry": "hungry", "be_ripe": "ripe",
                  "be_sour": "sour", "be_seated": "seated"}
COMPLEMENT_FRAMES = {"see": ("Experiencer", "Stimulus"), "think": ("Experiencer", "Topic"),
                     "decide": ("Agent", "Topic"), "plan": ("Agent", "Topic")}
INTRANSITIVE = ("jump", "walk", "quarrel", "sober")
TRANSITIVE = ("obtain", "reach", "attack", "kill", "carry")
ADVERBS = ("earlier", "now", "above", "quickly")
PREPOSITIONS = ("on", "from", "with", "at", "in")
TEXTS = ("dignity", "unconcern")
MAX_DEPTH = 2


class _Draw:
    def __init__(self, rng: random.Random, ref_rate: float):
        self.rng = rng
        self.ref_rate = ref_rate
        self.next_id = 0
        self.reusable: list[st.Proposition] = []
        self.pending: list[st.Proposition] = []
        # ids of propositions whose subtree holds a ref; never reused
        self.has_ref: set[str] = set()

    def entities(self) -> tuple[st.Entity, ...]:
        rng = self.rng
        out = [st.Entity(f"c{i}", st.CHARACTER, lemma)
               for i, lemma in enumerate(rng.sample(CHARACTERS, 3))]
        out += [st.Entity(f"o{i}", st.OBJECT, lemma, number=rng.choice(("sg", "sg", "pl")))
                for i, lemma in enumerate(rng.sample(OBJECTS, 3))]
        out.append(st.Entity("g0", st.OBJECT, "group", group_of=rng.choice(GROUP_MEMBERS)))
        self.char_ids = [e.id for e in out if e.kind == st.CHARACTER]
        self.all_ids = [e.id for e in out]
        return tuple(out)

    def pid(self) -> str:
        self.next_id += 1
        return f"p{self.next_id - 1}"

    def entity(self, ids) -> st.EntityRef:
        return st.EntityRef(self.rng.choice(ids))

    def simple_frame(self) -> st.FrameInstance:
        rng = self.rng
        roll = rng.random()
        if roll < 0.3:
            fid = rng.choice(INTRANSITIVE)
            return st.FrameInstance(fid, fid, (("Agent", self.entity(self.char_ids)),))
        if roll < 0.45:
            return st.FrameInstance("hang", "hang", (("Theme", self.entity(self.all_ids)),))
        if roll < 0.75:
            fid = rng.choice(TRANSITIVE)
            role = "Patient" if fid in ("attack", "kill") else "Theme"
            return st.FrameInstance(fid, fid, (("Agent", self.entity(self.char_ids)),
                                               (role, self.entity(self.all_ids))))
        fid = rng.choice(sorted(COPULAR_FRAMES))
        return st.FrameInstance("be", fid, (("Theme", self.entity(self.all_ids)),
                                            ("Attribute", st.Property(COPULAR_FRAMES[fid]))))

    def nested(self, depth: int, refs: list[bool]) -> st.Proposition:
        """A proposition for a nested slot: a reused one or a fresh one."""
        if self.reusable and self.rng.random() < self.ref_rate:
            refs.append(True)
            return self.rng.choice(self.reusable)
        return self.proposition(depth, refs)

    def proposition(self, depth: int, refs: list[bool]) -> st.Proposition:
        rng = self.rng
        pid = self.pid()
        own_refs: list[bool] = []
        polarity = st.NEGATED if rng.random() < 0.2 else st.AFFIRMATIVE
        adverbs = ()
        if rng.random() < 0.3:
            adverbs = ((rng.choice(ADVERBS), rng.choice((st.PRE_VERB, st.POST_VERB))),)
        roll = rng.random()
        if roll < 0.2 and depth < MAX_DEPTH:
            fid = rng.choice(sorted(COMPLEMENT_FRAMES))
            subj_role, comp_role = COMPLEMENT_FRAMES[fid]
            frame = st.FrameInstance(fid, fid, ((subj_role, self.entity(self.char_ids)),
                                                (comp_role, self.nested(depth + 1, own_refs))))
        elif roll < 0.3 and depth < MAX_DEPTH:
            agent = self.entity(self.char_ids)
            action = st.Proposition(self.pid(), st.FrameInstance(
                "reach", "reach", (("Agent", agent), ("Theme", self.entity(self.all_ids)))))
            self.pending.append(action)
            frame = st.FrameInstance("be", "be_able", (("Experiencer", agent),
                                                       ("Attribute", st.Property("able")),
                                                       ("Action", action)))
        else:
            frame = self.simple_frame()
        attachments = []
        if rng.random() < 0.35:
            target = (st.Text(rng.choice(TEXTS)) if rng.random() < 0.3
                      else self.entity(self.all_ids))
            attachments.append(st.Attachment(st.PREPOSITIONAL, target, rng.choice(PREPOSITIONS)))
        if rng.random() < 0.2 and depth < MAX_DEPTH:
            attachments.append(st.Attachment(rng.choice((st.PURPOSE, st.CAUSE)),
                                             self.nested(depth + 1, own_refs)))
        prop = st.Proposition(pid, frame, polarity, adverbs, tuple(attachments))
        if own_refs:
            self.has_ref.add(pid)
            refs.append(True)
        self.pending.append(prop)
        return prop

    def timespan(self, index: int) -> st.Timespan:
        props = tuple(self.proposition(0, []) for _ in range(self.rng.randint(1, 3)))
        # propositions become reusable once their timespan is finished, so a
        # ref always points backwards and never into its own ancestry
        self.reusable += [p for p in self.pending if p.id not in self.has_ref]
        self.pending = []
        return st.Timespan(index, props)


def random_story(seed: int, timespans: int, ref_rate: float) -> st.StoryGraph:
    """A story of ``timespans`` timespans drawn from ``seed`` alone. A
    shorter story from the same seed is a prefix of a longer one."""
    draw = _Draw(random.Random(f"story:{seed}:{ref_rate}"), ref_rate)
    entities = draw.entities()
    spans = tuple(draw.timespan(i) for i in range(timespans))
    return st.StoryGraph(f"synthetic_{seed}", f"Synthetic Tale {seed}", entities, spans)


def story_text(seed: int, timespans: int, ref_rate: float) -> tuple[str, list[str]]:
    """The story as ``.story`` text, plus the problems found in it.

    A problem is a round trip that does not give the drawn graph back, or a
    diagnostic from ``validate_story``. The story is returned either way:
    the caller counts its operations as failed rather than drawing another.
    """
    graph = random_story(seed, timespans, ref_rate)
    text = st.serialize_story(graph)
    problems = []
    try:
        parsed = st.parse_story(text)
    except st.StoryError as exc:
        return text, [f"serialized story does not parse: {exc}"]
    if parsed != graph:
        problems.append("parse(serialize(story)) differs from the drawn story")
    problems += [str(d) for d in st.validate_story(parsed)]
    return text, problems


def timespans_for(seed: int, tokens: int, ref_rate: float) -> int:
    """The fewest timespans whose NEUTRAL telling has ``tokens`` words, so
    that stories from different seeds have nearly the same size."""
    # timespans average about 20 words; a long run of them never falls below 8
    graph = st.parse_story(story_text(seed, tokens // 8 + 8, ref_rate)[0])
    sentences = iter(transform.transform_story(graph).sentences)
    words = 0
    for count, span in enumerate(graph.timeline, 1):
        words += sum(len(realize.realize_sentence(next(sentences)).split())
                     for _ in span.propositions)
        if words >= tokens:
            return count
    return len(graph.timeline)


def proposition_counts(graph: st.StoryGraph) -> tuple[int, int]:
    """(distinct propositions, proposition visits with every ref expanded)."""
    distinct: set[int] = set()
    visits = 0
    stack = [p for ts in graph.timeline for p in ts.propositions]
    while stack:
        p = stack.pop()
        visits += 1
        distinct.add(id(p))
        stack += [a for _, a in p.frame.bindings if isinstance(a, st.Proposition)]
        stack += [a.target for a in p.attachments if isinstance(a.target, st.Proposition)]
    return len(distinct), visits
