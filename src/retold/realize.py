"""Surface realization: trees to text.

Word order within a clause is subject, pre-verbal adverbs, verb group,
copular attribute, indirect then direct object, post-verbal adverbs,
adjuncts in attachment order, then any tag. Negation takes do-support
("did not obtain") except for copular "be" ("was not able") and the modal
"can" ("could not reach"). Morphology always goes through the lexicon, so
irregular forms live in exactly one place.

The realizer emits *pieces*: strings that carry their own separator. A
word is ``" word"``; a comma, an end mark and a stutter's continuation
(``"tr-"`` and ``"trellis"`` after ``" tr-"``) carry none. A sentence's
text is its pieces joined, less the first space, with its first letter
capitalized. The fixed words are module constants, the end marks and the
object pronouns are :data:`dsynt.END_MARKS` and :data:`dsynt.ACCUSATIVE`,
the feature values it tests are :mod:`dsynt`'s named words, and
:func:`_words` hands out one cached tuple of pieces per distinct string
(the 4,096 most recently used). A list the realizer returns is always its
own.

Contraction runs on the pieces of a sentence whose ``contract`` feature is
on, in one pass: a spaced ``" not"`` joins the piece before it when that
piece is "did", "could", "was" or "were", spaced or not ("did not obtain"
→ "didn't obtain", and "was not to reach" → "wasn't to reach"). A quoted
literal is realized verbatim, as one piece that the pass never joins, so
"what was not there" stays as it is in every voice.

A story's trees share equal subtrees (see :mod:`retold.transform`), so
:func:`realize_document` runs one realizer over the whole document, and it
realizes each noun phrase and prepositional phrase object once: its memo
maps ``id(node)`` to the node and the phrase's tuple of pieces, and callers
only extend their own lists from that tuple. The entry keeps the node
alive, so no other node can be given its id while the memo lives. The
realizer also inflects each (verb lemma, number) pair's past form once.
Both memos are dropped with the realizer when the call returns.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import dsynt as d
from .dsynt import (ACCUSATIVE, BECAUSE, DEF, END_MARKS, IN_ORDER, INDEF, NEG, NO_ARTICLE, ON,
                    PERIOD, PL, POST, PRE, SG)
from .lexicon import NOUN, VERB, Lexicon, default_lexicon, onset, past, plural, words

MODAL_LEMMAS = frozenset({"can"})

# the verbs that carry "not" themselves when negated ("was not", "could
# not"); every other verb takes do-support ("did not obtain")
NOT_CARRIERS = MODAL_LEMMAS | {"be"}

CONTRACTIBLE = {("did", "not"): "didn't",
                ("could", "not"): "couldn't",
                ("was", "not"): "wasn't",
                ("were", "not"): "weren't"}


class RealizationError(Exception):
    pass


def past_form(lexicon: Lexicon, lemma: str, number: str) -> str:
    """The past tense of the verb ``lemma`` that agrees with a subject of
    ``number`` ("was", "were", "ate"): the realizer's finite verb, and the
    auxiliary of the style engine's tag question."""
    return past(lexicon.lookup(lemma, VERB), number)


class _Literal(str):
    """A quoted literal's words as one piece, which contraction never joins."""
    __slots__ = ()


_THE, _A, _AND, _DID, _NOT, _TO, _BECAUSE, _IN, _ORDER, _FOR = (
    " the", " a", " and", " did", " not", " to", " because", " in", " order", " for")
_COMMA = ","

# the piece before a spaced "not" -> that piece contracted, with or without
# its leading space
_CONTRACTED = {space + aux: space + short
               for (aux, _), short in CONTRACTIBLE.items() for space in ("", " ")}


@lru_cache(maxsize=4096)
def _words(text: str) -> tuple[str, ...]:
    return tuple(" " + w for w in words(text))


def apply_contractions(pieces: list[str]) -> list[str]:
    """Rewrite each CONTRACTIBLE pair ("did not", "were not", ...) in
    ``pieces`` into its contraction; a quoted literal is never part of a
    pair."""
    out: list[str] = []
    for p in pieces:
        # every pair ends in "not" and starts with a word that is neither
        # "not" nor a contraction, so pairing each "not" with the piece
        # before it is the same as pairing greedily from the left
        if p == _NOT and out and type(out[-1]) is str and out[-1] in _CONTRACTED:
            out[-1] = _CONTRACTED[out[-1]]
        else:
            out.append(p)
    return out


def _join(pieces: list[str]) -> str:
    text = "".join(pieces)
    if text[:1] == " ":
        text = text[1:]
    for i, ch in enumerate(text):
        if ch.isalpha():
            return text[:i] + ch.upper() + text[i + 1:]
    return text


class _Realizer:
    def __init__(self):
        self.lexicon = default_lexicon()
        # id(node) -> (node, its pieces), for noun and prepositional phrases
        self._phrases: dict[int, tuple[d.DSyntNode, tuple[str, ...]]] = {}
        # (lemma, number) -> the past-tense verb piece
        self._pasts: dict[tuple[str, str], str] = {}

    # -- noun phrases --------------------------------------------------------

    def np_pieces(self, node: d.DSyntNode, case: str = "nom") -> Sequence[str]:
        if node.cls == d.FUNCTION_WORD:
            surface = node.lexeme if case == "nom" else ACCUSATIVE.get(node.lexeme, node.lexeme)
            return _words(surface)
        if node.cls == d.ADJECTIVE:
            return _words(node.lexeme)
        if node.cls != d.COMMON_NOUN:
            raise RealizationError(f"cannot realize {node.cls} as a noun phrase")
        return self._phrase(node, self._noun_phrase)

    def _phrase(self, node: d.DSyntNode, build) -> tuple[str, ...]:
        """``build(node)``, computed once per node object; the entry holds
        the node, so its id is not reused while the realizer lives."""
        hit = self._phrases.get(id(node))
        if hit is None:
            hit = self._phrases[id(node)] = (node, tuple(build(node)))
        return hit[1]

    def _noun_phrase(self, node: d.DSyntNode) -> list[str]:
        pieces: list[str] = []
        article = node.features.get("article", NO_ARTICLE)
        if article == DEF:
            pieces.append(_THE)
        elif article == INDEF:
            pieces.append(_A)
        for c in node.children:
            if c.relation == d.ATTR:
                pieces.extend(self._modifier_pieces(c))
        pieces.extend(self._noun_head(node))
        for c in node.children:
            if c.relation == d.APPEND and c.cls == d.PREPOSITION:
                pieces.extend(self.prep_pieces(c))
        return pieces

    def _stuttered(self, node: d.DSyntNode, surface: str) -> Sequence[str]:
        """``surface`` with the ``stutter`` count of fragments of the onset
        of the node's lexeme before it; called only for a node that has the
        feature."""
        head = onset(node.lexeme)
        if not head:
            return _words(surface)
        frags = [(" " if k == 0 else "") + head + "-"
                 for k in range(int(node.features["stutter"]))]
        return frags + [surface]

    def _noun_head(self, node: d.DSyntNode) -> Sequence[str]:
        surface = node.lexeme
        if not self.lexicon.has(surface, NOUN):
            # a literal noun phrase is realized verbatim
            if node.features.get("stutter") and onset(surface):
                return self._stuttered(node, _Literal(surface))
            text = words(surface)
            return (_Literal(" " + " ".join(text)),) if text else ()
        if node.features.get("number") == PL:
            surface = plural(self.lexicon.lookup(surface, NOUN))
        if not node.features.get("stutter"):
            return _words(surface)
        return self._stuttered(node, surface)

    def _modifier_pieces(self, node: d.DSyntNode) -> Sequence[str]:
        if node.cls == d.ADJECTIVE and node.features.get("stutter"):
            return self._stuttered(node, node.lexeme)
        return _words(node.lexeme)

    def prep_pieces(self, node: d.DSyntNode) -> tuple[str, ...]:
        return self._phrase(node, self._prepositional_phrase)

    def _prepositional_phrase(self, node: d.DSyntNode) -> list[str]:
        pieces = list(_words(node.lexeme))
        first = True
        for c in node.children:
            if c.relation != d.APPEND:
                continue
            if not first:
                pieces.append(_AND)
            pieces.extend(self.np_pieces(c, case="acc"))
            first = False
        return pieces

    # -- clauses ---------------------------------------------------------------

    def clause_pieces(self, v: d.DSyntNode, *, include_subject: bool = True,
                      form: str = "finite") -> list[str]:
        if v.cls != d.VERB:
            raise RealizationError(f"clause root must be a verb, got {v.cls}")

        markers: list[str] = []  # the pre-verbal markers' pieces, which start the clause
        pre_advs: list[str] = []
        post_advs: list[str] = []
        attrs, appends, tags = [], [], []
        subject = obj2 = obj3 = None
        for c in v.children:
            rel = c.relation
            if rel == d.I:
                subject = c
            elif rel == d.II:
                obj2 = c
            elif rel == d.III:
                obj3 = c
            elif rel == d.ATTR and c.cls == d.ADVERB:
                (post_advs if c.features.get("position") == POST else pre_advs).extend(
                    _words(c.lexeme))
            elif rel == d.ATTR:
                attrs.append(c)
            elif rel == d.APPEND:
                position = c.features.get("position") if c.cls == d.FUNCTION_WORD else None
                if position == PRE:
                    markers.extend(_words(c.lexeme))
                elif position == POST:
                    tags.append(_COMMA)
                    tags.extend(_words(c.lexeme))
                else:
                    appends.append(c)
            else:
                raise RealizationError(f"cannot linearize {c.cls} under verb via {rel}")

        pieces = markers
        number = SG
        if subject is not None:
            number = subject.features.get("number", SG)
            if include_subject:
                pieces.extend(self.np_pieces(subject, case="nom"))
        pieces.extend(pre_advs)
        pieces.extend(self._verb_group(v, number, form))
        for a in attrs:
            pieces.extend(self._modifier_pieces(a))
        if obj3 is not None:
            pieces.extend(self._complement_pieces(obj3, v))
        if obj2 is not None:
            pieces.extend(self._complement_pieces(obj2, v))
        pieces.extend(post_advs)
        for i, ap in enumerate(appends):
            pieces.extend(self._append_pieces(ap, more_follows=i + 1 < len(appends)))
        pieces.extend(tags)
        return pieces

    def _verb_group(self, v: d.DSyntNode, number: str, form: str) -> list[str]:
        negated = v.features.get("polarity") == NEG
        lemma = v.lexeme
        if form == "bare":
            return [" " + lemma]
        if form == "infinitive":
            return [_NOT, _TO, " " + lemma] if negated else [_TO, " " + lemma]
        finite = self._pasts.get((lemma, number))
        if finite is None:
            finite = self._pasts[(lemma, number)] = " " + past_form(self.lexicon, lemma, number)
        if not negated:
            return [finite]
        if lemma in NOT_CARRIERS:
            return [finite, _NOT]
        return [_DID, _NOT, " " + lemma]

    def _complement_pieces(self, node: d.DSyntNode, governor: d.DSyntNode) -> Sequence[str]:
        if node.cls == d.VERB:
            if "tense" in node.features:
                return self.clause_pieces(node, form="finite")
            if governor.lexeme in MODAL_LEMMAS:
                return self.clause_pieces(node, include_subject=False, form="bare")
            return self.clause_pieces(node, include_subject=False, form="infinitive")
        return self.np_pieces(node, case="acc")

    def _append_pieces(self, node: d.DSyntNode, more_follows: bool) -> Sequence[str]:
        if node.cls == d.PREPOSITION:
            return self.prep_pieces(node)
        if node.cls == d.FUNCTION_WORD and node.lexeme == BECAUSE:
            clause = self._single_clause_child(node)
            return [_BECAUSE] + self.clause_pieces(clause, form="finite")
        if node.cls == d.FUNCTION_WORD and node.lexeme == IN_ORDER:
            clause = self._single_clause_child(node)
            pieces = [_IN, _ORDER]
            subject = clause.child(d.I)
            if subject is not None:
                pieces.append(_FOR)
                pieces.extend(self.np_pieces(subject, case="acc"))
            pieces.extend(self.clause_pieces(clause, include_subject=False, form="infinitive"))
            return pieces
        if node.cls == d.VERB:
            # appended restating clause: ", didn't obtain it,"
            pieces = [_COMMA]
            pieces.extend(self.clause_pieces(node, include_subject=False, form="finite"))
            if more_follows:
                pieces.append(_COMMA)
            return pieces
        if node.cls == d.FUNCTION_WORD:
            return _words(node.lexeme)
        raise RealizationError(f"cannot linearize appended {node.cls}")

    def _single_clause_child(self, node: d.DSyntNode) -> d.DSyntNode:
        for c in node.children:
            if c.cls == d.VERB:
                return c
        raise RealizationError(f"{node.lexeme!r} governs no clause")

    def sentence_pieces(self, root: d.DSyntNode) -> list[str]:
        if "tense" not in root.features:
            raise RealizationError("sentence root must be finite")
        pieces = self.clause_pieces(root, form="finite")
        if root.features.get("contract") == ON and _NOT in pieces:
            pieces = apply_contractions(pieces)
        pieces.append(END_MARKS[root.features.get("punct", PERIOD)])
        return pieces


def realize_sentence(root: d.DSyntNode) -> str:
    return _join(_Realizer().sentence_pieces(root))


def realize_document(doc: d.Document) -> str:
    """The sentences' texts joined by single spaces, each shared phrase
    realized once."""
    realizer = _Realizer()
    return " ".join(_join(realizer.sentence_pieces(sentence)) for sentence in doc.sentences)
