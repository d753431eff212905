"""Parameterized voice transformations over built documents.

A voice model maps stylistic parameters to activation strengths in [0, 1].
After the document-level pronominalization pass, each sentence is styled
in one loop over the active transforms: each fires with probability equal
to its activation, drawing from a random stream derived from (seed,
sentence index), so sentences are independent and the whole application
is reproducible. A stream is made when its sentence is styled and dropped
after it, unless a fractional pronominalization draws from every stream
before the pass. :func:`apply_voice` is the only way in, so every applied
transform is recorded as a StyleDecision, whose site is a path into the
final styled sentence: at the end of each sentence, every site is carried
through the moves of the rewrites after it, in one place. No rewrite
removes a node that a decision names, so a site of "root" is the root.

Marker vocabulary (hedges, pauses, interjections, expletives, tags) is a
fixed word list; insertions never change propositional content. The two
content-adjacent transforms are lexical variation (a swap to a casual
synonym) and negation paraphrase ("did not obtain" -> "failed to get"), which
keeps a semantic-negation flag on the clause for content checks.

Pronouns and contractions are made here and nowhere else: the
document-level pronominalization pass and the contraction rewrites are in
this module, and the transform builds neutral trees only. Most voices set
both at 1.0, so one document told in several voices would repeat them in
each. The work they share is done once per document instead (see
:func:`apply_voice`), in one walk per sentence that drops purpose
subjects, places pronouns and notes the sentences whose contraction must
rewrite "be able to"; the others are contracted by one feature. The
prefix keeps each contracted sentence with its rewrite's moves, and the
voice carries the pronoun sites through them as it carries every site.
"""

from __future__ import annotations

import re
from pathlib import Path
from random import Random
from typing import Mapping, Optional, Sequence

from . import dsynt as d
from .dsynt import IN_ORDER
from .lexicon import ADJECTIVE, NOUN, VERB, default_lexicon, onset, synonym
from .metrics import without_bom
from .realize import ACCUSATIVE, CONTRACTIBLE, NOT_CARRIERS, past_form
from .record import Record, slot_setters

# the one document-level parameter: it counts mentions across the whole
# document, so it runs before every per-sentence transform
PRONOMINALIZATION = "pronominalization"
# the one sentence transform whose result the shared prefix keeps (see
# _SharedPrefix.contracted)
CONTRACTIONS = "contractions"

SOFTENER_CLAUSAL = ("I think that", "it seems that", "it seems to me that")
SOFTENER_CLAUSAL_PAST = {
    "I think that": "I thought that",
    "it seems that": "it seemed that",
    "it seems to me that": "it seemed to me that",
}
SOFTENER_ADVERBIAL = ("sort of", "kind of", "somewhat", "quite", "around", "rather")
EMPHASIZERS = ("really", "basically", "actually")
FILLED_PAUSES = ("I mean", "err", "mmhm", "like", "you know")
EXPLETIVES = ("damn",)
INTERJECTIONS = ("well", "ok", "oh")
EXTERNAL_TAGS = ("okay", "alright", "you see")

# the lexicon's part of speech for each tree class that has lexicon entries
_LEXICON_POS = {d.VERB: VERB, d.COMMON_NOUN: NOUN, d.ADJECTIVE: ADJECTIVE}


class VoiceError(Exception):
    pass


class _Activations(dict):
    """A voice model's own copy of its parameters. It refuses changes, so
    the checks made when the model was built keep holding, and a model
    built from another's parameters (as by ``replace``) can share them."""
    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a voice model's parameters cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Activations, (dict(self),)


class VoiceModel(Record):
    __slots__ = _fields = ("name", "params")

    def __init__(self, name: str, params: Mapping[str, float]):
        for key, value in params.items():
            problem = _param_error(key, value)
            if problem:
                raise VoiceError(problem)
        set_name, set_params = _VOICE_SETTERS
        set_name(self, name)
        set_params(self, params if type(params) is _Activations else _Activations(params))

    def activation(self, param: str) -> float:
        return float(self.params.get(param, 0.0))


_VOICE_SETTERS = slot_setters(VoiceModel)


def _param_error(key: str, value: float) -> Optional[str]:
    if key not in PARAM_NAMES:
        return f"unknown style parameter {key!r}"
    if not 0.0 <= float(value) <= 1.0:
        return f"activation for {key} outside [0, 1]: {value}"
    return None


class StyleDecision(Record):
    """One applied transform. ``site`` is a dotted child path into the final
    styled sentence, naming the node the transform changed; a later rewrite
    that moves nodes carries it along. No rewrite removes a node a decision
    names, so "root" always names the sentence root."""

    __slots__ = _fields = ("sentence_index", "param", "site", "payload")

    def __init__(self, sentence_index: int, param: str, site: str, payload: str):
        set_sentence_index, set_param, set_site, set_payload = _DECISION_SETTERS
        set_sentence_index(self, sentence_index)
        set_param(self, param)
        set_site(self, site)
        set_payload(self, payload)


_DECISION_SETTERS = slot_setters(StyleDecision)


def parse_voice(text: str) -> VoiceModel:
    """Voice file: a `voice <name>` line, then `param: value` lines, each
    parameter at most once and each value in ASCII digits. One leading
    byte-order mark is dropped. Errors name the line."""
    name = None
    params: dict[str, float] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(without_bom(text).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if name is None:
            m = re.fullmatch(r"voice\s+(\S+)", line)
            if not m:
                raise VoiceError(f"line {lineno}: expected 'voice <name>'")
            name = m.group(1)
            continue
        m = re.fullmatch(r"([a-z_]+)\s*:\s*([0-9]+\.?[0-9]*|\.[0-9]+)", line)
        if not m:
            raise VoiceError(f"line {lineno}: expected 'param: value'")
        key, value = m.group(1), float(m.group(2))
        if key in set_on:
            raise VoiceError(f"line {lineno}: {key} already set on line {set_on[key]}")
        problem = _param_error(key, value)
        if problem:
            raise VoiceError(f"line {lineno}: {problem}")
        params[key] = value
        set_on[key] = lineno
    if name is None:
        raise VoiceError("empty voice file")
    return VoiceModel(name, params)


def load_voice(name_or_path: str) -> VoiceModel:
    if name_or_path in BUILTIN_VOICES:
        return BUILTIN_VOICES[name_or_path]
    p = Path(name_or_path)
    if p.exists():
        try:
            # decoded as "utf-8", not "utf-8-sig", so a bad byte's offset counts
            # a byte-order mark; parse_voice drops the mark
            return parse_voice(p.read_text(encoding="utf-8"))
        except OSError as exc:
            raise VoiceError(f"cannot read {name_or_path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise VoiceError(f"{name_or_path}: not UTF-8 text (byte {exc.start})") from exc
        except VoiceError as exc:
            raise VoiceError(f"{name_or_path}: {exc}") from exc
    raise VoiceError(f"no built-in voice or voice file {name_or_path!r}")


def _path_str(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else "root"


# --- pronominalization and contractions ---------------------------------------
# Every pass returns a sentence it leaves unchanged as the same object and
# shares every subtree it leaves unchanged.

def coref_head(node: d.DSyntNode) -> Optional[str]:
    """Identity key for subject-coreference checks over full-NP trees."""
    return node.lexeme if node.cls in (d.COMMON_NOUN, d.FUNCTION_WORD) else None


# the classes that may govern a clause: a VERB (its complements and
# restatements) or a FUNCTION_WORD ("in_order", "because"). Noun phrases,
# prepositional phrases and modifiers never hold a verb, so the clause
# rewrites below descend only through these.
_CLAUSE_SPINE = (d.VERB, d.FUNCTION_WORD)


def _drops_subject(matrix: d.DSyntNode, emb: d.DSyntNode) -> bool:
    """Whether the subject of ``emb``, a clause under an "in order" child of
    the clause ``matrix``, restates the matrix subject, so that "in order
    to VP" says it."""
    subject = matrix.child(d.I)
    emb_subject = emb.child(d.I)
    return (subject is not None and emb_subject is not None
            and coref_head(emb_subject) == coref_head(subject))


def _able_child(node: d.DSyntNode) -> Optional[int]:
    """The index of the ``able`` child of a negated "be able to VP" clause
    whose VP is affirmative, the one clause :func:`rewrite_unable_to_modal`
    rewrites; None for any other node. A modal's bare VP has no place for
    a "not", so "not able not to VP" keeps its "able"."""
    if node.cls != d.VERB or node.lexeme != "be" or node.features.get("polarity") != "neg":
        return None
    able = next((i for i, c in enumerate(node.children) if c.relation == d.ATTR
                 and c.cls == d.ADJECTIVE and c.lexeme == "able"), None)
    if able is not None and any(c.relation == d.II and c.cls == d.VERB
                                and "tense" not in c.features
                                and c.features.get("polarity") != "neg" for c in node.children):
        return able
    return None


def pronominalize_sentences(sentences: Sequence[d.DSyntNode], fire: Sequence[bool]
                            ) -> tuple[list[d.DSyntNode], list[list[tuple[tuple[int, ...], str]]],
                                       list[bool]]:
    """The document-order pronominalization pass over built trees: one walk
    per sentence that drops purpose subjects, counts mentions and places
    pronouns, and notes where the contractions must rewrite.

    In a sentence whose gate fired, the subject of an "in order" clause
    that restates its matrix subject is dropped, yielding "in order to VP";
    a dropped subject is neither counted nor visited. Mentions are counted
    across the whole document whether or not a given sentence's gate fired,
    a mention inside a replaced mention too, and every later mention of a
    character in a fired sentence becomes its pronoun. Character noun
    phrases carry their pronoun in the ``pron`` feature, so the pass needs
    no story graph. A sentence with no rewrite comes back as the same
    object, and every pronoun with the same relation and number is one
    node, made once per call. Each sentence root is a clause, as
    :func:`dsynt.validate_tree` requires.

    Returns the sentences, each sentence's sites and, per sentence, whether
    it holds a clause that :func:`rewrite_unable_to_modal` rewrites. A
    sentence's sites are its subject drops, ``(path, "subject-drop")`` in
    post-order (a clause's nested drops before its own), then its pronouns,
    ``(path, pronoun)`` in pre-order. Each path is a position in the
    returned sentence, which :func:`apply_voice` keeps exact as it moves nodes.
    """
    counts: dict[tuple[str, str], int] = {}
    pronouns: dict[tuple[str, str, str], d.DSyntNode] = {}
    path: list[int] = []  # from the sentence root to the node being visited
    # the sentence being walked: whether its gate fired, its drop and
    # pronoun sites and whether it holds a negated "be able to VP"
    hot, drops, sites, unable = False, [], [], False

    # pre-order: a mention is counted, and its site recorded, before its
    # descendants; the pronoun goes in on the way back up. A leaf without a
    # pronoun is no mention and holds none, so it is skipped.
    def phrase(node: d.DSyntNode) -> d.DSyntNode:
        """A node off the clause spine: mentions only."""
        pron = node.features.get("pron")
        site = False
        if pron is not None and node.cls == d.COMMON_NOUN:
            key = (node.lexeme, pron)
            n = counts[key] = counts.get(key, 0) + 1
            if n > 1 and hot:
                sites.append((tuple(path), pron))
                site = True
        children = node.children
        new_children = None
        for i, c in enumerate(children):
            if c.children or "pron" in c.features:
                path.append(i)
                new = phrase(c)
                path.pop()
                if new is not c:
                    new_children = new_children or list(children)
                    new_children[i] = new
        if new_children is not None:
            node = d.DSyntNode(node.lexeme, node.cls, node.relation, node.features,
                               tuple(new_children))
        if site:
            key = (pron, node.relation, node.features.get("number", "sg"))
            pronoun = pronouns.get(key)
            if pronoun is None:
                pronoun = pronouns[key] = d.DSyntNode(pron, d.FUNCTION_WORD, key[1],
                                                      {"number": key[2]})
            return pronoun
        return node

    def clause(node: d.DSyntNode, skip: Optional[int] = None) -> d.DSyntNode:
        """A node reached from the root through clause-spine nodes only: no
        mention, but it may drop a purpose subject or be rewritten by the
        contractions. ``skip`` is the index of a dropped purpose subject: an
        "in order" node passes it to its clause, its first child, which
        leaves that child out."""
        nonlocal unable
        children = node.children
        verb = node.cls == d.VERB
        dropped = verb and skip is not None
        if dropped:
            children = children[:skip] + children[skip + 1:]
        if verb and node.lexeme == "be" and not unable:
            unable = _able_child(node) is not None
        mine = None  # the positions of the "in order" nodes this clause drops under
        new_children = None
        for i, c in enumerate(children):
            if not (c.children or "pron" in c.features):
                continue
            path.append(i)
            if c.cls not in _CLAUSE_SPINE:
                new = phrase(c)
            elif (hot and verb and c.lexeme == IN_ORDER and c.cls == d.FUNCTION_WORD
                    and c.children and c.children[0].cls == d.VERB
                    and _drops_subject(node, c.children[0])):
                mine = mine or []
                mine.append(i)
                new = clause(c, next(k for k, x in enumerate(c.children[0].children)
                                     if x.relation == d.I))
            else:
                new = clause(c, skip if i == 0 and not verb else None)
            path.pop()
            if new is not c:
                new_children = new_children or list(children)
                new_children[i] = new
        if mine:
            drops.extend(((*path, i, 0), "subject-drop") for i in mine)
        if new_children is not None:
            children = tuple(new_children)
        elif not dropped:
            return node
        return d.DSyntNode(node.lexeme, node.cls, node.relation, node.features, children)

    out_sentences: list[d.DSyntNode] = []
    out_sites: list[list[tuple[tuple[int, ...], str]]] = []
    out_unable: list[bool] = []
    for sentence, hot in zip(sentences, fire):
        sites, unable = [], False
        out_sentences.append(clause(sentence))
        if drops:
            sites[:0] = drops
            drops.clear()
        out_sites.append(sites)
        out_unable.append(unable)
    return out_sentences, out_sites, out_unable


def rewrite_unable_to_modal(node: d.DSyntNode, moves: Optional[list] = None,
                            path: tuple[int, ...] = ()) -> d.DSyntNode:
    """Collapse negated "be able to VP" into modal "can" (realized
    "could not VP", contracted to "couldn't VP"). A tree with no such
    clause comes back as the same object. Each rewritten clause's move (see
    :func:`_rebase`) is appended to ``moves``, inner clauses first, with
    ``path`` as the position of ``node``."""
    children = node.children
    if not children:
        return node
    node = node.with_children(tuple(rewrite_unable_to_modal(c, moves, path + (k,))
                                    if c.cls in _CLAUSE_SPINE else c
                                    for k, c in enumerate(children)))
    able = _able_child(node)
    if able is None:
        return node
    if moves is not None:
        moves.append((path, lambda k: (k - (k > able),)))
    children = node.children[:able] + node.children[able + 1:]
    return d.DSyntNode("can", node.cls, node.relation, node.features, children)


def enable_contractions(sentence: d.DSyntNode, unable: bool = True,
                        moves: Optional[list] = None) -> d.DSyntNode:
    """Mark a clause for surface contraction and apply the tree rewrites
    that only make sense in contracted register, appending their moves to
    ``moves``. A caller that knows the sentence holds no clause
    :func:`rewrite_unable_to_modal` rewrites passes ``unable=False`` and
    skips that walk."""
    if unable:
        sentence = rewrite_unable_to_modal(sentence, moves)
    return sentence.with_feature("contract", "on")


# --- individual transforms --------------------------------------------------
# each takes (sentence, rng, lexicon, memo), where memo is a dict private to
# the sentence for one apply_voice call, and returns
# (new_sentence, site_path, payload, moves) or None when inapplicable, where
# moves (see _rebase) say where the rewrite put the nodes it moved

# an opener's move: the clause's old child k is now child k + 1
_OPENED = (((), lambda k: (k + 1,)),)


def _adverb(sent, word):
    """``sent`` with the pre-verbal adverb ``word`` as its last child."""
    adverb = d.DSyntNode(word, d.ADVERB, d.ATTR, {"position": "pre"})
    return sent.with_children(sent.children + (adverb,)), (len(sent.children),), word, ()


def _opener(sent, text, payload):
    """``sent`` with ``text`` said before it, as its first child."""
    marker = d.DSyntNode(text, d.FUNCTION_WORD, d.APPEND, {"position": "pre"})
    return sent.with_children((marker,) + sent.children), (0,), payload, _OPENED


def _softener(sent, rng, lex, memo):
    choice = rng.choice(SOFTENER_CLAUSAL + SOFTENER_ADVERBIAL)
    if choice in SOFTENER_CLAUSAL_PAST:
        return _opener(sent, SOFTENER_CLAUSAL_PAST[choice], choice)
    return _adverb(sent, choice)


def _emphasizer(sent, rng, lex, memo):
    return _adverb(sent, rng.choice(EMPHASIZERS))


def _filled_pause(sent, rng, lex, memo):
    choice = rng.choice(FILLED_PAUSES)
    return _opener(sent, choice + "...", choice)


def _interjection(sent, rng, lex, memo):
    choice = rng.choice(INTERJECTIONS)
    return _opener(sent, choice + ",", choice)


def _expletive(sent, rng, lex, memo):
    return _adverb(sent, rng.choice(EXPLETIVES))


def _stutter_sites(sent):
    sites = []
    for path, node in d.walk(sent):
        if node.cls not in (d.COMMON_NOUN, d.ADJECTIVE) or node.feature("stutter"):
            continue
        head = onset(node.lexeme)
        if head:
            sites.append((path, node, head))
    return sites


def _stutter(sent, rng, lex, memo):
    """Repeat the onset of one content word: "tr-trellis". A word with no
    onset (see :func:`lexicon.onset`) is never picked."""
    sites = _stutter_sites(sent)
    if not sites:
        return None
    path, node, head = rng.choice(sites)
    k = rng.choice((1, 2))
    new = d.replace_at(sent, path, node.with_feature("stutter", str(k)))
    return new, path, f"{head}-" * k, ()


def _pronoun(np: d.DSyntNode) -> str:
    """The nominative pronoun that stands for the noun phrase ``np``."""
    if np.cls == d.FUNCTION_WORD:
        return np.lexeme
    return np.feature("pron") or ("they" if np.feature("number") == "pl" else "it")


def _tag_question(sent, rng, lex, memo):
    """End the clause with an external tag ("you see?") or with the word
    that carries its "not" (see :data:`realize.NOT_CARRIERS`) in the
    realizer's past form (:func:`realize.past_form`), contracted when the
    clause is affirmative, and its subject's pronoun: "wasn't it?", "did
    he?". A clause whose verb carries the "not" of its negated
    to-infinitive ("was not to reach") reads as negated."""
    if sent.feature("punct", "period") != "period":
        return None
    if rng.random() < 0.5:
        tag = rng.choice(EXTERNAL_TAGS)
    else:
        subject = sent.child(d.I)
        aux = "did"
        negated = sent.feature("polarity") == "neg"
        if sent.lexeme in NOT_CARRIERS:
            number = "sg" if subject is None else subject.feature("number", "sg")
            aux = past_form(lex, sent.lexeme, number)
            complement = sent.child(d.II)
            negated = negated or (complement is not None and complement.cls == d.VERB
                                  and "tense" not in complement.features
                                  and complement.feature("polarity") == "neg")
        if not negated:
            aux = CONTRACTIBLE.get((aux, "not"), aux)
        tag = f"{aux} {'it' if subject is None else _pronoun(subject)}"
    node = d.DSyntNode(tag, d.FUNCTION_WORD, d.APPEND, {"position": "post"})
    new = sent.with_children(sent.children + (node,)).with_feature("punct", "question")
    return new, (len(sent.children),), tag + "?", ()


def _exclamation(sent, rng, lex, memo):
    if sent.feature("punct", "period") != "period":
        return None
    return sent.with_feature("punct", "exclaim"), (), "!", ()


def _lexical_variation(sent, rng, lex, memo):
    sites = []
    for path, node in d.walk(sent):
        pos = _LEXICON_POS.get(node.cls)
        if pos is None or not lex.has(node.lexeme, pos):
            continue
        entry = lex.lookup(node.lexeme, pos)
        if entry.synonyms:
            sites.append((path, node, entry))
    if not sites:
        return None
    path, node, entry = rng.choice(sites)
    sub = synonym(entry, rng)
    new = d.replace_at(sent, path, d.DSyntNode(sub, node.cls, node.relation,
                                               node.features, node.children))
    return new, path, f"{node.lexeme}->{sub}", ()


def _negation_paraphrase(sent, rng, lex, memo):
    """Rewrite "did not V ..." as affirmative "failed to V' ...", leaving
    (original lemma, direct object node or None) in the memo for the
    restatement that may follow."""
    if sent.feature("polarity") != "neg" or not lex.has(sent.lexeme, VERB):
        return None
    if sent.lexeme in NOT_CARRIERS or sent.lexeme in ("do", "fail"):
        return None
    entry = lex.lookup(sent.lexeme, VERB)
    sub = synonym(entry, rng)
    if sub is None:
        return None
    moved, kept, places = [], [], []
    direct_object = None
    for c in sent.children:
        down = c.relation in (d.II, d.III) or (c.relation == d.APPEND and c.cls == d.PREPOSITION)
        group = moved if down else kept
        places.append((down, len(group)))
        group.append(c)
        if down and c.relation == d.II and c.cls != d.VERB:
            direct_object = c
    infinitive = d.DSyntNode(sub, d.VERB, d.II, {"polarity": "aff"}, tuple(moved))
    feats = dict(sent.features)
    feats["polarity"] = "aff"
    feats["sem_neg"] = "on"
    new = d.DSyntNode("fail", sent.cls, sent.relation, feats, tuple(kept) + (infinitive,))
    memo["paraphrased"] = (sent.lexeme, direct_object)
    where = tuple((len(kept), k) if down else (k,) for down, k in places)
    return new, (len(kept),), f"fail to {sub}", (((), where.__getitem__),)


def _restatement(sent, rng, lex, memo):
    """Append ", did not V it" after a paraphrased clause, restating the
    original negated verb with a pronominal object."""
    if "paraphrased" not in memo:
        return None
    orig_lemma, obj = memo["paraphrased"]
    children = ()
    if obj is not None:
        children = (d.DSyntNode(ACCUSATIVE.get(_pronoun(obj), "it"), d.FUNCTION_WORD, d.II,
                                {"number": obj.feature("number", "sg")}),)
    restate = d.DSyntNode(orig_lemma, d.VERB, d.APPEND,
                          {"polarity": "neg", "tense": "past"}, children)
    insert_at = len(sent.children)
    for i, c in enumerate(sent.children):
        if c.relation == d.APPEND and c.cls == d.FUNCTION_WORD:
            insert_at = i
            break
    new = sent.with_children(sent.children[:insert_at] + (restate,)
                             + sent.children[insert_at:])
    return new, (insert_at,), f"did not {orig_lemma}", (((), lambda k: (k + (k >= insert_at),)),)


def _contractions(sent, rng, lex, memo):
    moves = []
    new = enable_contractions(sent, True, moves)
    return None if new is sent else (new, (), "on", moves)


# (parameter, transform), in application order after the document-level
# PRONOMINALIZATION pass; the order fixes each sentence's random draws, so
# outputs depend on it. The transforms run only through apply_voice.
_SENTENCE_TRANSFORMS = (
    ("lexical_variation", _lexical_variation),
    ("negation_paraphrase", _negation_paraphrase),
    ("restatement", _restatement),
    (CONTRACTIONS, _contractions),
    ("softener_hedges", _softener),
    ("emphasizer_hedges", _emphasizer),
    ("filled_pauses", _filled_pause),
    ("initial_interjection", _interjection),
    ("expletives", _expletive),
    ("stuttering", _stutter),
    ("tag_question", _tag_question),
    ("exclamation", _exclamation),
)

PARAM_NAMES = frozenset({PRONOMINALIZATION} | {name for name, _ in _SENTENCE_TRANSFORMS})

BUILTIN_VOICES = {
    "NEUTRAL": VoiceModel("NEUTRAL", {}),
    "FORMAL": VoiceModel("FORMAL", {"contractions": 1.0, "pronominalization": 1.0}),
    "SHY": VoiceModel("SHY", {
        "softener_hedges": 0.4, "stuttering": 0.3, "filled_pauses": 0.3,
        "initial_interjection": 0.2, "pronominalization": 1.0, "contractions": 1.0,
    }),
    "LAID-BACK": VoiceModel("LAID-BACK", {
        "emphasizer_hedges": 0.3, "tag_question": 0.4, "expletives": 0.2,
        "initial_interjection": 0.3, "lexical_variation": 0.4,
        "negation_paraphrase": 0.5, "restatement": 0.3, "exclamation": 0.2,
        "pronominalization": 1.0, "contractions": 1.0,
    }),
}


# --- the engine ---------------------------------------------------------------

def _rebase(path: tuple[int, ...], moves: Sequence[tuple]) -> tuple[int, ...]:
    """``path`` carried through ``moves``, in the order the rewrites made
    them. A move is (a node's path, a function from the index of each of
    its old children to the child's new path under that node). The one
    node a rewrite removes, the ``able`` leaf of "not able to", is named
    by no decision, so every path is carried to the node it named."""
    for parent, where in moves:
        n = len(parent)
        if len(path) > n and path[:n] == parent:
            path = parent + where(path[n]) + path[n + 1:]
    return path


class _SharedPrefix:
    """What every voice with one pronominalization fire vector does alike
    on one document, made by one walk per sentence (see
    :func:`pronominalize_sentences`): the pronominalized sentences, each
    sentence's sites and its pronominalization decisions, one per site.
    Each sentence contracted, with its contractions decision and the
    rewrite's moves, is made when a voice first needs it; only a sentence
    the walk found a negated "be able to VP" in is walked again to contract
    it, and only there does the rewrite move a node. :func:`apply_voice`
    carries the sites through every move. Nothing here draws from the
    random streams, so the result depends on the sentences and the fire
    vector alone."""
    __slots__ = ("sentences", "sites", "decisions", "_unable", "_contracted", "_names")

    def __init__(self, sentences: tuple[d.DSyntNode, ...], fire: tuple[bool, ...]):
        self.sentences, self.sites, self._unable = pronominalize_sentences(sentences, fire)
        self._names: dict[tuple[int, ...], str] = {}
        self.decisions = [[StyleDecision(i, PRONOMINALIZATION, self.site(path), payload)
                           for path, payload in sites] for i, sites in enumerate(self.sites)]
        self._contracted: dict[int, Optional[tuple]] = {}

    def site(self, path: tuple[int, ...]) -> str:
        """``path`` as a site, spelled once: a few short paths recur in every sentence."""
        return self._names.get(path) or self._names.setdefault(path, _path_str(path))

    def contracted(self, i: int) -> Optional[tuple]:
        """Sentence ``i`` contracted, as (tree, contractions decision, the
        rewrite's moves), or None when contracting leaves it as it is."""
        if i not in self._contracted:
            sentence, moves = self.sentences[i], []
            new = enable_contractions(sentence, self._unable[i], moves)
            self._contracted[i] = None if new is sentence else (
                new, StyleDecision(i, CONTRACTIONS, "root", "on"), tuple(moves))
        return self._contracted[i]


def apply_voice(doc: d.Document, model: VoiceModel,
                seed: int) -> tuple[d.Document, list[StyleDecision]]:
    """Apply a voice model to a document.

    Reproducible: equal (doc, model, seed) triples give equal outputs and
    decision lists. The all-zero model is the identity.

    A voice draws if it has an activation strictly between 0 and 1 or an
    active sentence transform other than the contractions. Then sentence
    ``i`` draws from ``random.Random(f"{seed}:{i}")``, every active gate
    included, a gate at 1.0 too; otherwise (FORMAL) no stream is made. The
    stream is made when the loop reaches sentence ``i`` and dropped when
    that sentence is done, so one is alive at a time; only a
    pronominalization gate strictly between 0 and 1 makes every stream
    first, in sentence order, since the pass needs its draws.

    Each decision's site is a path into its final styled sentence: at the
    end of each sentence, every site is carried through the moves of the
    rewrites that came after its decision (:func:`_rebase`).

    The pronominalization pass, its decision records and the contractions
    of the sentences it leaves, with their moves, are made once per ``doc``
    object and fire vector and kept on the document
    (:meth:`record.Record.memo`) for later voices; a voice with another
    fire vector replaces them.
    """
    if not any(float(a) > 0.0 for a in model.params.values()):
        return doc, []
    lex = default_lexicon()
    active = [(param, transform, model.activation(param)) for param, transform in _SENTENCE_TRANSFORMS
              if model.activation(param) > 0.0]
    draws = (any(0.0 < float(a) < 1.0 for a in model.params.values())
             or any(transform is not _contractions for _, transform, _ in active))
    pronouns = model.activation(PRONOMINALIZATION)
    n = len(doc.sentences)
    if 0.0 < pronouns < 1.0:
        # the pass needs each sentence's gate draw, so every stream is made first
        rngs = [Random(f"{seed}:{i}") for i in range(n)]
        fire = tuple(rng.random() < pronouns for rng in rngs)
    else:
        # a gate at 0 or 1.0 fires whatever it draws: the loop makes each stream
        rngs = [None] * n
        fire = (pronouns > 0.0,) * n
    shared = doc.memo(fire, lambda: _SharedPrefix(doc.sentences, fire))
    # each active parameter's decisions, in sentence order
    applied: list[list[StyleDecision]] = [[] for _ in active]

    # the pronominalization pass runs first, so its decisions come first
    sentences, decisions = [], []
    for i, sentence in enumerate(shared.sentences):
        rng, memo = rngs[i], {}  # drops the last sentence's stream
        if rng is None and draws:
            rng = Random(f"{seed}:{i}")
            if pronouns > 0.0:
                rng.random()  # the gate's draw, which fires at 1.0
        moves = []  # where the sentence's rewrites moved nodes, in order
        mine = []  # (its parameter's decisions, parameter, site, payload, moves made by then)
        for (param, transform, a), made in zip(active, applied):
            if rng is not None and rng.random() >= a:
                continue
            if transform is _contractions and sentence is shared.sentences[i]:
                hit = shared.contracted(i)
                if hit is not None:
                    sentence, x, moved = hit
                    moves += moved
                    made.append(x)
                continue
            result = transform(sentence, rng, lex, memo)
            if result is not None:
                sentence, site, payload, moved = result
                moves += moved
                mine.append((made, param, site, payload, len(moves)))
        sentences.append(sentence)
        # every site is carried through the moves made after its decision,
        # here and only here; a pronominalization record whose site did
        # not move is the prefix's own
        records = shared.decisions[i]
        if moves:
            records = [x if (new := _rebase(path, moves)) == path
                       else StyleDecision(i, PRONOMINALIZATION, shared.site(new), payload)
                       for x, (path, payload) in zip(records, shared.sites[i])]
        decisions += records
        for made, param, site, payload, k in mine:
            if k < len(moves):
                site = _rebase(site, moves[k:])
            made.append(StyleDecision(i, param, shared.site(site), payload))
    for made in applied:
        decisions += made
    return d.Document(tuple(sentences)), decisions
