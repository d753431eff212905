"""Surface realization: trees to text.

Word order within a clause is subject, pre-verbal adverbs, verb group,
copular attribute, indirect then direct object, post-verbal adverbs,
adjuncts in attachment order, then any tag. Negation takes do-support
("did not obtain") except for copular "be" ("was not able") and the modal
"can" ("could not reach"). Morphology always goes through the lexicon, so
irregular forms live in exactly one place.

Word tokens are immutable and shared: the fixed words ("the", "did",
"not", ...) and the punctuation marks are module constants, and
:func:`_words` hands out one cached tuple per distinct string (the 4,096
most recently used). A list the
realizer returns is always its own, but the tokens in it may sit in many
other lists, so build a new ``Token`` rather than change one.

A story's trees share equal subtrees (see :mod:`retold.transform`), so
:func:`realize_document` runs one realizer over the whole document, and it
realizes each noun phrase and prepositional phrase object once: its memo
maps ``id(node)`` to the node and the phrase's token tuple, and callers only
extend their own lists from that tuple. The entry keeps the node alive, so
no other node can be given its id while the memo lives. The realizer also
inflects each (verb lemma, number) pair's past form once. Both memos are
dropped with the realizer when the call returns.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from . import dsynt as d
from .lexicon import (
    ADJECTIVE as ADJ_POS,
    NOUN,
    VERB,
    Lexicon,
    default_lexicon,
    inflect,
)
from .record import Record, slot_setters

MODAL_LEMMAS = frozenset({"can"})

# the verbs that carry "not" themselves when negated ("was not", "could
# not"); every other verb takes do-support ("did not obtain")
NOT_CARRIERS = MODAL_LEMMAS | {"be"}

ACCUSATIVE = {"he": "him", "she": "her", "it": "it", "they": "them", "i": "me", "you": "you"}

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
    return inflect(lexicon.lookup(lemma, VERB), {"tense": "past", "number": number})


class Token(Record):
    __slots__ = _fields = ("surface", "kind", "no_space_before")

    def __init__(self, surface: str, kind: str = "word",  # word | punctuation
                 no_space_before: bool = False):
        set_surface, set_kind, set_no_space_before = _TOKEN_SETTERS
        set_surface(self, surface)
        set_kind(self, kind)
        set_no_space_before(self, no_space_before)


_TOKEN_SETTERS = slot_setters(Token)


_THE, _A, _AND, _DID, _NOT, _TO, _BECAUSE, _IN, _ORDER, _FOR = map(
    Token, ("the", "a", "and", "did", "not", "to", "because", "in", "order", "for"))
_COMMA = Token(",", "punctuation")
_END_MARKS = {"period": Token(".", "punctuation"),
              "exclaim": Token("!", "punctuation"),
              "question": Token("?", "punctuation")}


@lru_cache(maxsize=4096)
def _words(text: str) -> tuple[Token, ...]:
    return tuple(Token(w) for w in text.replace("_", " ").split())


def apply_contractions(tokens: list[Token]) -> list[Token]:
    """Rewrite each CONTRACTIBLE pair ("did not", "were not", ...) into its
    contraction."""
    out: list[Token] = []
    for t in tokens:
        # every pair ends in "not" and starts with a word that is neither
        # "not" nor a contraction, so pairing each "not" with the token
        # before it is the same as pairing greedily from the left
        if (t.surface == "not" and t.kind == "word" and not t.no_space_before and out
                and out[-1].kind == "word" and (out[-1].surface, "not") in CONTRACTIBLE):
            prev = out[-1]
            out[-1] = Token(CONTRACTIBLE[(prev.surface, "not")], "word", prev.no_space_before)
        else:
            out.append(t)
    return out


def _join(tokens: list[Token]) -> str:
    text = "".join([t.surface if i == 0 or t.kind == "punctuation" or t.no_space_before
                    else " " + t.surface for i, t in enumerate(tokens)])
    for i, ch in enumerate(text):
        if ch.isalpha():
            return text[:i] + ch.upper() + text[i + 1:]
    return text


class _Realizer:
    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon
        # id(node) -> (node, its tokens), for noun and prepositional phrases
        self._phrases: dict[int, tuple[d.DSyntNode, tuple[Token, ...]]] = {}
        # (lemma, number) -> the past-tense verb token
        self._pasts: dict[tuple[str, str], Token] = {}

    # -- noun phrases --------------------------------------------------------

    def np_tokens(self, node: d.DSyntNode, case: str = "nom") -> Sequence[Token]:
        if node.cls == d.FUNCTION_WORD:
            surface = node.lexeme if case == "nom" else ACCUSATIVE.get(node.lexeme, node.lexeme)
            return _words(surface)
        if node.cls == d.ADJECTIVE:
            return _words(node.lexeme)
        if node.cls != d.COMMON_NOUN:
            raise RealizationError(f"cannot realize {node.cls} as a noun phrase")
        return self._phrase(node, self._noun_phrase)

    def _phrase(self, node: d.DSyntNode, build) -> tuple[Token, ...]:
        """``build(node)``, computed once per node object; the entry holds
        the node, so its id is not reused while the realizer lives."""
        hit = self._phrases.get(id(node))
        if hit is None:
            hit = self._phrases[id(node)] = (node, tuple(build(node)))
        return hit[1]

    def _noun_phrase(self, node: d.DSyntNode) -> list[Token]:
        toks: list[Token] = []
        article = node.feature("article", "none")
        if article == "def":
            toks.append(_THE)
        elif article == "indef":
            toks.append(_A)
        for c in node.children:
            if c.relation == d.ATTR:
                toks.extend(self._modifier_tokens(c))
        toks.extend(self._noun_head(node))
        for c in node.children:
            if c.relation == d.APPEND and c.cls == d.PREPOSITION:
                toks.extend(self.prep_tokens(c))
        return toks

    def _stuttered(self, node: d.DSyntNode, surface: str, onset: str) -> Sequence[Token]:
        """``surface`` with the ``stutter`` count of ``onset`` fragments
        before it; called only for a node that has the feature."""
        if not onset or " " in surface:
            return _words(surface)
        frags = [Token(onset + "-", no_space_before=(k > 0))
                 for k in range(int(node.features["stutter"]))]
        return frags + [Token(surface, no_space_before=True)]

    def _noun_head(self, node: d.DSyntNode) -> Sequence[Token]:
        surface = node.lexeme  # a literal noun phrase is realized verbatim
        if self.lexicon.has(surface, NOUN):
            surface = inflect(self.lexicon.lookup(surface, NOUN),
                              {"number": node.feature("number", "sg")})
        if not node.feature("stutter"):
            return _words(surface)
        return self._stuttered(node, surface, self.lexicon.onset(node.lexeme, NOUN))

    def _modifier_tokens(self, node: d.DSyntNode) -> Sequence[Token]:
        if node.cls == d.ADJECTIVE and node.feature("stutter"):
            return self._stuttered(node, node.lexeme, self.lexicon.onset(node.lexeme, ADJ_POS))
        return _words(node.lexeme)

    def prep_tokens(self, node: d.DSyntNode) -> tuple[Token, ...]:
        return self._phrase(node, self._prepositional_phrase)

    def _prepositional_phrase(self, node: d.DSyntNode) -> list[Token]:
        toks = list(_words(node.lexeme))
        first = True
        for c in node.children:
            if c.relation != d.APPEND:
                continue
            if not first:
                toks.append(_AND)
            toks.extend(self.np_tokens(c, case="acc"))
            first = False
        return toks

    # -- clauses ---------------------------------------------------------------

    def clause_tokens(self, v: d.DSyntNode, *, include_subject: bool = True,
                      form: str = "finite") -> list[Token]:
        if v.cls != d.VERB:
            raise RealizationError(f"clause root must be a verb, got {v.cls}")

        pre_markers, tags = [], []
        subject = None
        pre_advs, post_advs, attrs = [], [], []
        obj2 = obj3 = None
        appends = []
        for c in v.children:
            rel = c.relation
            if rel == d.I:
                subject = c
            elif rel == d.II:
                obj2 = c
            elif rel == d.III:
                obj3 = c
            elif rel == d.ATTR and c.cls == d.ADVERB:
                (post_advs if c.features.get("position") == "post" else pre_advs).append(c)
            elif rel == d.ATTR:
                attrs.append(c)
            elif rel == d.APPEND:
                position = c.features.get("position") if c.cls == d.FUNCTION_WORD else None
                if position == "pre":
                    pre_markers.append(c)
                elif position == "post":
                    tags.append(c)
                else:
                    appends.append(c)
            else:
                raise RealizationError(f"cannot linearize {c.cls} under verb via {rel}")

        toks: list[Token] = []
        for m in pre_markers:
            toks.extend(_words(m.lexeme))
        number = "sg"
        if subject is not None:
            number = subject.feature("number", "sg")
            if include_subject:
                toks.extend(self.np_tokens(subject, case="nom"))
        for a in pre_advs:
            toks.extend(_words(a.lexeme))
        toks.extend(self._verb_group(v, number, form))
        for a in attrs:
            toks.extend(self._modifier_tokens(a))
        if obj3 is not None:
            toks.extend(self._complement_tokens(obj3, v))
        if obj2 is not None:
            toks.extend(self._complement_tokens(obj2, v))
        for a in post_advs:
            toks.extend(_words(a.lexeme))
        for i, ap in enumerate(appends):
            toks.extend(self._append_tokens(ap, more_follows=i + 1 < len(appends)))
        for t in tags:
            toks.append(_COMMA)
            toks.extend(_words(t.lexeme))
        return toks

    def _verb_group(self, v: d.DSyntNode, number: str, form: str) -> list[Token]:
        negated = v.feature("polarity") == "neg"
        lemma = v.lexeme
        if form == "bare":
            return [Token(lemma)]
        if form == "infinitive":
            return [_NOT, _TO, Token(lemma)] if negated else [_TO, Token(lemma)]
        past = self._pasts.get((lemma, number))
        if past is None:
            past = self._pasts[(lemma, number)] = Token(past_form(self.lexicon, lemma, number))
        if not negated:
            return [past]
        if lemma in NOT_CARRIERS:
            return [past, _NOT]
        return [_DID, _NOT, Token(lemma)]

    def _complement_tokens(self, node: d.DSyntNode, governor: d.DSyntNode) -> Sequence[Token]:
        if node.cls == d.VERB:
            if "tense" in node.features:
                return self.clause_tokens(node, form="finite")
            if governor.lexeme in MODAL_LEMMAS:
                return self.clause_tokens(node, include_subject=False, form="bare")
            return self.clause_tokens(node, include_subject=False, form="infinitive")
        return self.np_tokens(node, case="acc")

    def _append_tokens(self, node: d.DSyntNode, more_follows: bool) -> Sequence[Token]:
        if node.cls == d.PREPOSITION:
            return self.prep_tokens(node)
        if node.cls == d.FUNCTION_WORD and node.lexeme == "because":
            clause = self._single_clause_child(node)
            return [_BECAUSE] + self.clause_tokens(clause, form="finite")
        if node.cls == d.FUNCTION_WORD and node.lexeme == "in_order":
            clause = self._single_clause_child(node)
            toks = [_IN, _ORDER]
            subject = clause.child(d.I)
            if subject is not None:
                toks.append(_FOR)
                toks.extend(self.np_tokens(subject, case="acc"))
            toks.extend(self.clause_tokens(clause, include_subject=False, form="infinitive"))
            return toks
        if node.cls == d.VERB:
            # appended restating clause: ", didn't obtain it,"
            toks = [_COMMA]
            toks.extend(self.clause_tokens(node, include_subject=False, form="finite"))
            if more_follows:
                toks.append(_COMMA)
            return toks
        if node.cls == d.FUNCTION_WORD:
            return _words(node.lexeme)
        raise RealizationError(f"cannot linearize appended {node.cls}")

    def _single_clause_child(self, node: d.DSyntNode) -> d.DSyntNode:
        for c in node.children:
            if c.cls == d.VERB:
                return c
        raise RealizationError(f"{node.lexeme!r} governs no clause")

    def sentence_tokens(self, root: d.DSyntNode) -> list[Token]:
        if "tense" not in root.features:
            raise RealizationError("sentence root must be finite")
        toks = self.clause_tokens(root, form="finite")
        if root.feature("contract") == "on":
            toks = apply_contractions(toks)
        toks.append(_END_MARKS[root.feature("punct", "period")])
        return toks


def sentence_tokens(root: d.DSyntNode, lexicon: Optional[Lexicon] = None) -> list[Token]:
    return _Realizer(lexicon or default_lexicon()).sentence_tokens(root)


def realize_sentence(root: d.DSyntNode, lexicon: Optional[Lexicon] = None) -> str:
    return _join(sentence_tokens(root, lexicon))


def realize_document(doc: d.Document, lexicon: Optional[Lexicon] = None) -> str:
    """The sentences' texts joined by single spaces, each shared phrase
    realized once."""
    realizer = _Realizer(lexicon or default_lexicon())
    return " ".join(_join(realizer.sentence_tokens(sentence)) for sentence in doc.sentences)
