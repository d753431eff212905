"""Text comparison: stemmed tokens, word-level edit distance, BLEU, reports.

Texts are lowercased, whitespace-split, stripped of edge punctuation and
stemmed before scoring, so inflectional variation does not count as an
edit. Word-level edit distance is Hyyrö's form of Myers' bit-vector
algorithm over Python ints: O(n·m/w) word operations for w-bit machine
words, with one Python-level step per token of the shorter text. Its masks
are non-negative n-bit ints, and the distance is read off the bit counts
of the last column, so the loop tracks no cell.

Scoring costs one cached lookup per word; one strip and stem per distinct
word not among the 4,096 kept by :func:`_stemmed`, the one stem cache; the
edit distance; and n-gram counts. Tokenizing and stemming are one ``map``
over the whitespace-split words. BLEU counts each n-gram of the
candidate, and of the reference only those the candidate has, so its
clipped overlap is a walk over the shared n-grams alone. A pair of
300-word fable tellings scores in about 0.75 ms once its words are cached.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from itertools import repeat
from typing import Iterable, Sequence

from .porter import stem
from .record import Record, slot_setters

# string.punctuation, then typographic quotes, dashes and the ellipsis;
# written out so that importing retold does not import `string`
_STRIP_CHARS = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~" + "‘’“”–—…"


def without_bom(text: str) -> str:
    """``text`` less one leading byte-order mark, which an editor may write
    at the start of a UTF-8 file; the story, voice and text readers all drop
    it here."""
    return text.removeprefix("\ufeff")


def tokenize(text: str) -> list[str]:
    words = without_bom(text).lower().split()
    return list(filter(None, map(str.strip, words, repeat(_STRIP_CHARS))))


@functools.lru_cache(maxsize=4096)
def _stemmed(word: str) -> str:
    """The stem of one lowercased, whitespace-split word, or ``""`` for a
    word that is all edge punctuation."""
    word = word.strip(_STRIP_CHARS)
    return stem(word) if word else ""


def tokenize_and_stem(text: str, use_stemming: bool = True) -> list[str]:
    if not use_stemming:
        return tokenize(text)
    # a stem of a word is never empty, so only the all-punctuation words drop
    return list(filter(None, map(_stemmed, without_bom(text).lower().split())))


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum insert/delete/substitute edits between two token sequences.

    Tokens must be hashable. Each token of the longer sequence gets one bit
    of an n-bit mask; ``vp``/``vn`` hold the +1/-1 vertical deltas of the DP
    column for the current token of the shorter one (Hyyrö 2001's form of
    Myers 1999). Every mask is a non-negative int below ``1 << n``, with
    ``full ^ x`` for ``~x``. No cell is tracked in the loop: the distance is
    the last column's bottom cell, which is its top cell, ``len(b)``, plus
    its vertical deltas, ``vp.bit_count() - vn.bit_count()``.
    """
    if len(a) < len(b):
        a, b = b, a
    masks: dict = {}
    bit = 1
    for tok in a:
        masks[tok] = masks.get(tok, 0) | bit
        bit <<= 1
    full = bit - 1
    vp, vn = full, 0
    for tok in b:
        eq = masks.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hn = vp & xh
        # the shifts and xh's carry reach bit n, outside the column; only vp
        # is masked, since vn = hp & xv stays below 1 << n with xv
        hp = ((vn | (full ^ (xh | vp))) << 1) | 1
        vp = ((hn << 1) | (full ^ (xv | hp))) & full
        vn = hp & xv
    return len(b) + vp.bit_count() - vn.bit_count()


def _grams(tokens: Sequence[str], n: int) -> Iterable:
    """The n-grams of ``tokens`` in order: the tokens themselves for n = 1,
    else n-tuples."""
    return tokens if n == 1 else zip(*[tokens[i:] for i in range(n)])


BLEU_MAX_N = 4  # the longest n-gram counted
BLEU_EPSILON = 1e-9  # the precision that stands in for a zero count


def bleu(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """BLEU with a single reference: geometric mean of modified n-gram
    precisions for n=1..BLEU_MAX_N (zero counts smoothed to BLEU_EPSILON)
    times the brevity penalty."""
    if not candidate or not reference:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        cand = Counter(_grams(candidate, n))
        # only the candidate's n-grams can overlap: the reference is
        # counted for those alone, so no lookup below misses
        ref = Counter(filter(cand.__contains__, _grams(reference, n)))
        overlap = sum(map(min, ref.values(), map(cand.__getitem__, ref)))
        # a candidate shorter than n has no n-grams and so no overlap: only
        # a candidate with n-grams is divided by their count
        precision = overlap / (len(candidate) - n + 1) if overlap else BLEU_EPSILON
        log_sum += math.log(precision)
    geo = math.exp(log_sum / BLEU_MAX_N)
    c, r = len(candidate), len(reference)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


class EvalPair(Record):
    __slots__ = _fields = ("candidate_text", "reference_text", "label")

    def __init__(self, candidate_text: str, reference_text: str, label: str = ""):
        set_candidate, set_reference, set_label = _PAIR_SETTERS
        set_candidate(self, candidate_text)
        set_reference(self, reference_text)
        set_label(self, label)


_PAIR_SETTERS = slot_setters(EvalPair)


class EvalRow(Record):
    __slots__ = _fields = ("label", "levenshtein", "bleu")

    def __init__(self, label: str, levenshtein: int, bleu: float):
        set_label, set_levenshtein, set_bleu = _ROW_SETTERS
        set_label(self, label)
        set_levenshtein(self, levenshtein)
        set_bleu(self, bleu)


_ROW_SETTERS = slot_setters(EvalRow)


class EvalReport(Record):
    __slots__ = _fields = ("rows", "levenshtein_mean", "levenshtein_std", "bleu_mean", "bleu_std")

    def __init__(self, rows: tuple[EvalRow, ...], levenshtein_mean: float,
                 levenshtein_std: float, bleu_mean: float, bleu_std: float):
        set_rows, set_lev_mean, set_lev_std, set_bleu_mean, set_bleu_std = _REPORT_SETTERS
        set_rows(self, rows)
        set_lev_mean(self, levenshtein_mean)
        set_lev_std(self, levenshtein_std)
        set_bleu_mean(self, bleu_mean)
        set_bleu_std(self, bleu_std)


_REPORT_SETTERS = slot_setters(EvalReport)


def score_pair(pair: EvalPair, use_stemming: bool = True) -> EvalRow:
    cand = tokenize_and_stem(pair.candidate_text, use_stemming)
    ref = tokenize_and_stem(pair.reference_text, use_stemming)
    if not (cand and ref):
        raise ValueError(f"pair {pair.label!r}: both texts must hold a word")
    return EvalRow(pair.label, levenshtein(cand, ref), bleu(cand, ref))


def corpus_report(pairs: Sequence[EvalPair], use_stemming: bool = True) -> EvalReport:
    """Per-pair scores plus mean and population standard deviation."""
    from statistics import mean, pstdev  # on use, to keep it out of `import retold`

    if not pairs:
        raise ValueError("no pairs to score")
    rows = tuple(score_pair(p, use_stemming) for p in pairs)
    levs = [r.levenshtein for r in rows]
    bleus = [r.bleu for r in rows]
    return EvalReport(rows, mean(levs), pstdev(levs), mean(bleus), pstdev(bleus))


def report_to_json(report: EvalReport) -> str:
    import json  # on use, to keep it out of `import retold`

    payload = {
        "rows": [{"label": r.label, "levenshtein": r.levenshtein, "bleu": round(r.bleu, 6)}
                 for r in report.rows],
        "aggregate": {
            "levenshtein": {"mean": round(report.levenshtein_mean, 6),
                            "std": round(report.levenshtein_std, 6)},
            "bleu": {"mean": round(report.bleu_mean, 6),
                     "std": round(report.bleu_std, 6)},
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
