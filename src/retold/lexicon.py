"""Closed lexicon of lemmas and verb frames.

Entries carry irregular morphology (strong pasts, mutated plurals) and the
casual synonyms that lexical variation and negation paraphrase draw from.
Frames list the thematic roles of a predicate, and one linking table maps
each role to the relation the clause builder puts it in. A stutter's onset
is a spelling rule, :func:`onset`, and no entry overrides it.

Both tables load from plain-text data files shipped with the package; see
``data/lexicon.txt`` and ``data/frames.txt`` for the record formats.
"""

from __future__ import annotations

import random
from functools import lru_cache
from importlib import resources
from typing import Mapping, Optional

from .dsynt import ARGUMENT_RELATIONS, ATTR, I, II, III, PL
from .record import Record, slot_setters

NOUN = "noun"
VERB = "verb"
ADJECTIVE = "adjective"
PREPOSITION = "preposition"

POS_TAGS = frozenset({NOUN, VERB, ADJECTIVE, PREPOSITION})

# surface-form slots an entry may override
IRREGULAR_KEYS = ("past", "past_plural", "plural")

VOWELS = "aeiou"

FINITE = "finite_clause"
INFINITIVE = "infinitive_clause"

# Argument linking (Dowty 1991; VerbNet): of SUBJECT_ROLES, the first a frame has
# is I; only a COMPLEMENT_KINDS role nests a proposition, as a clause of its kind.
SUBJECT_ROLES = ("Agent", "Experiencer", "Theme")
ROLE_RELATIONS = {"Theme": II, "Patient": II, "Stimulus": II, "Topic": II, "Action": II,
                  "Recipient": III, "Attribute": ATTR, "Addressee": "prep:to"}
COMPLEMENT_KINDS = {"Action": INFINITIVE, "Topic": FINITE, "Stimulus": FINITE}


class LexiconError(Exception):
    """Base error for lexicon lookups and morphology."""


class UnknownLemmaError(LexiconError):
    def __init__(self, lemma: str, pos: str):
        super().__init__(f"no {pos} entry for lemma {lemma!r}")
        self.lemma = lemma
        self.pos = pos


class UnknownFrameError(LexiconError):
    def __init__(self, frame_id: str):
        super().__init__(f"unknown frame {frame_id!r}")
        self.frame_id = frame_id


class LexemeEntry(Record):
    __slots__ = _fields = ("lemma", "pos", "irregular", "synonyms")

    def __init__(self, lemma: str, pos: str, irregular: Optional[Mapping[str, str]] = None,
                 synonyms: tuple[str, ...] = ()):  # casual synonyms, in draw order
        set_lemma, set_pos, set_irregular, set_synonyms = _ENTRY_SETTERS
        set_lemma(self, lemma)
        set_pos(self, pos)
        set_irregular(self, {} if irregular is None else irregular)
        set_synonyms(self, synonyms)


_ENTRY_SETTERS = slot_setters(LexemeEntry)


class FrameDef(Record):
    """Maps thematic roles of one predicate frame to syntactic relations.

    ``mandatory_roles`` and ``optional_roles`` are (role, relation) pairs in
    realization order; relations are I/II/III for arguments, ATTR for a
    copular attribute, or ``prep:<word>`` for an oblique realized as a
    prepositional phrase, as the linking table gives them to the loader.
    Two attributes that are not fields are derived when the frame is made:
    ``relations`` maps each role to its relation, in that order, and
    ``subject`` is the role linked to I, or None.
    """

    _fields = ("frame_id", "mandatory_roles", "optional_roles")
    __slots__ = _fields + ("relations", "subject")

    def __init__(self, frame_id: str, mandatory_roles: tuple[tuple[str, str], ...] = (),
                 optional_roles: tuple[tuple[str, str], ...] = ()):
        set_frame_id, set_mandatory, set_optional, set_relations, set_subject = _FRAME_SETTERS
        set_frame_id(self, frame_id)
        set_mandatory(self, mandatory_roles)
        set_optional(self, optional_roles)
        set_relations(self, dict(mandatory_roles + optional_roles))
        set_subject(self, next((role for role, rel in self.relations.items() if rel == I), None))

    def all_roles(self) -> tuple[tuple[str, str], ...]:
        return self.mandatory_roles + self.optional_roles


_FRAME_SETTERS = slot_setters(FrameDef) + (FrameDef.relations.__set__, FrameDef.subject.__set__)


class Lexicon:
    def __init__(self, entries: list[LexemeEntry], frames: list[FrameDef]):
        self._entries: dict[tuple[str, str], LexemeEntry] = {}
        for e in entries:
            key = (e.lemma, e.pos)
            if key in self._entries:
                raise LexiconError(f"duplicate entry {e.lemma}/{e.pos}")
            self._entries[key] = e
        self._frames: dict[str, FrameDef] = {}
        for f in frames:
            if f.frame_id in self._frames:
                raise LexiconError(f"duplicate frame {f.frame_id}")
            seen = [rel if rel in ARGUMENT_RELATIONS else role for role, rel in f.all_roles()]
            if len(seen) != len(set(seen)):
                raise LexiconError(f"frame {f.frame_id} repeats a role or an argument relation")
            self._frames[f.frame_id] = f

    def lookup(self, lemma: str, pos: str) -> LexemeEntry:
        try:
            return self._entries[(lemma, pos)]
        except KeyError:
            raise UnknownLemmaError(lemma, pos) from None

    def has(self, lemma: str, pos: str) -> bool:
        return (lemma, pos) in self._entries

    def frame(self, frame_id: str) -> FrameDef:
        try:
            return self._frames[frame_id]
        except KeyError:
            raise UnknownFrameError(frame_id) from None

    def has_frame(self, frame_id: str) -> bool:
        return frame_id in self._frames

    @property
    def entries(self) -> list[LexemeEntry]:
        return list(self._entries.values())


def words(text: str) -> list[str]:
    """The words of a lexeme or literal, an underscore reading as a space:
    ``grape_vine`` is two words, and ``"_"`` none."""
    return text.replace("_", " ").split()


def onset(word: str) -> str:
    """The part of ``word`` a stutter repeats: the letters before its first
    vowel ("tr" of "trellis"). It is empty for a word that starts with a
    vowel or has none, and for a literal of several words ("what was there",
    "grape_vine"); such a word is never stuttered."""
    if " " in word or "_" in word:
        return ""
    for i, ch in enumerate(word):
        if ch in VOWELS:
            return word[:i]
    return ""


def _syllable_groups(word: str) -> int:
    count = 0
    in_vowels = False
    for ch in word:
        if ch in VOWELS:
            if not in_vowels:
                count += 1
            in_vowels = True
        else:
            in_vowels = False
    return count


def _should_double(word: str) -> bool:
    # consonant-vowel-consonant monosyllable, final consonant not w/x/y
    if len(word) < 3:
        return False
    a, b, c = word[-3], word[-2], word[-1]
    if c in VOWELS or c in "wxy":
        return False
    if b not in VOWELS or a in VOWELS:
        return False
    return _syllable_groups(word) == 1


def regular_past(lemma: str) -> str:
    if lemma.endswith("e"):
        return lemma + "d"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in VOWELS:
        return lemma[:-1] + "ied"
    if _should_double(lemma):
        return lemma + lemma[-1] + "ed"
    return lemma + "ed"


def regular_plural(lemma: str) -> str:
    if lemma.endswith(("s", "x", "z", "ch", "sh")):
        return lemma + "es"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in VOWELS:
        return lemma[:-1] + "ies"
    return lemma + "s"


def past(entry: LexemeEntry, number: str) -> str:
    """The past tense of the verb ``entry`` that agrees with a subject of
    ``number``, :data:`dsynt.SG` or :data:`dsynt.PL` ("was", "were",
    "ate"); the irregular table wins over the regular rule."""
    if number == PL and "past_plural" in entry.irregular:
        return entry.irregular["past_plural"]
    if "past" in entry.irregular:
        return entry.irregular["past"]
    return regular_past(entry.lemma)


def plural(entry: LexemeEntry) -> str:
    """The plural of the noun ``entry``; the irregular table wins over the
    regular rule."""
    return entry.irregular.get("plural") or regular_plural(entry.lemma)


def synonym(entry: LexemeEntry, rng: random.Random) -> Optional[str]:
    """One of the entry's synonyms, drawn from ``rng``, or None."""
    return rng.choice(entry.synonyms) if entry.synonyms else None


# ---------------------------------------------------------------------------
# data file loading

def _parse_lexicon_line(line: str, lineno: int) -> LexemeEntry:
    parts = line.split()
    if len(parts) < 2:
        raise LexiconError(f"lexicon line {lineno}: expected '<lemma> <pos> ...'")
    lemma, pos = parts[0], parts[1]
    if pos not in POS_TAGS:
        raise LexiconError(f"lexicon line {lineno}: bad part of speech {pos!r}")
    irregular: dict[str, str] = {}
    synonyms: list[str] = []
    for tok in parts[2:]:
        if "=" not in tok:
            raise LexiconError(f"lexicon line {lineno}: bad field {tok!r}")
        key, value = tok.split("=", 1)
        if key in IRREGULAR_KEYS:
            irregular[key] = value
        elif key == "syn":
            for item in value.split(","):
                if not item or item == lemma or "@" in item:
                    raise LexiconError(f"lexicon line {lineno}: bad synonym {item!r}")
                synonyms.append(item)
        else:
            raise LexiconError(f"lexicon line {lineno}: unknown field {key!r}")
    return LexemeEntry(lemma, pos, irregular, tuple(synonyms))


def _parse_frame_line(line: str, lineno: int) -> FrameDef:
    head, sep, body = line.partition(":")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "frame" or not sep:
        raise LexiconError(f"frames line {lineno}: expected 'frame <id> : ...'")
    roles = body.split()
    links = {**ROLE_RELATIONS, next((r for r in SUBJECT_ROLES if r in roles), None): I}
    mandatory: list[tuple[str, str]] = []
    bucket, optional = mandatory, []
    for role in roles:
        if role == "opt":
            bucket = optional
        elif "=" in role:  # "Agent=I" or "complement=finite"
            raise LexiconError(f"frames line {lineno}: {role!r}: the linking table sets this")
        elif role in links:
            bucket.append((role, links[role]))
        else:
            raise LexiconError(f"frames line {lineno}: role {role!r} has no link")
    return FrameDef(parts[1], tuple(mandatory), tuple(optional))


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def load_lexicon(lexicon_text: str, frames_text: str) -> Lexicon:
    entries = [_parse_lexicon_line(line, n) for n, line in _data_lines(lexicon_text)]
    frames = [_parse_frame_line(line, n) for n, line in _data_lines(frames_text)]
    return Lexicon(entries, frames)


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    data = resources.files("retold").joinpath("data")
    return load_lexicon(
        data.joinpath("lexicon.txt").read_text(encoding="utf-8"),
        data.joinpath("frames.txt").read_text(encoding="utf-8"),
    )
