"""Porter's suffix-stripping stemmer (the classic 1980 algorithm).

Implements the original rule tables verbatim; conditions are evaluated on
the stem left after removing the candidate suffix, with the usual measure
m counting vowel-consonant sequences.

Stemming a word costs about 6 µs of Python work, and a fable-size text uses
each distinct word about four times, so :func:`stem` keeps the stems of the
4,096 most recently used words (about 0.7 MB when full) and computes any
other word again. The uncached stemmer is ``stem.__wrapped__``. Scoring
reaches this cache only on a miss of :mod:`retold.metrics`' own cache of
words as split from a text, so a word met both with and without edge
punctuation is stemmed once.
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if not vowel and prev_vowel:
            m += 1
        prev_vowel = vowel
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


def _replace(word: str, suffix: str, repl: str, min_measure: int) -> str | None:
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure - 1:
        return stem + repl
    return word  # suffix matched but the condition failed: stop this step


# each step tries its suffixes longest first
_STEP2 = sorted([("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
                 ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
                 ("biliti", "ble"), ("ation", "ate"), ("alism", "al"),
                 ("aliti", "al"), ("iviti", "ive"), ("enci", "ence"),
                 ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
                 ("alli", "al"), ("entli", "ent"), ("ousli", "ous"),
                 ("ator", "ate"), ("eli", "e")], key=lambda sr: -len(sr[0]))

_STEP3 = sorted([("icate", "ic"), ("ative", ""), ("alize", "al"),
                 ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", "")],
                key=lambda sr: -len(sr[0]))

_STEP4 = sorted(["ement", "ance", "ence", "able", "ible", "ment", "ant", "ent",
                 "ion", "ism", "ate", "iti", "ous", "ive", "ize", "al", "er",
                 "ic", "ou"], key=len, reverse=True)


@functools.lru_cache(maxsize=4096)
def stem(word: str) -> str:
    word = word.lower()
    if len(word) <= 2:
        return word

    # step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        trimmed = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            trimmed = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            trimmed = word[:-3]
        if trimmed is not None:
            word = trimmed
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _cvc(word):
                word += "e"

    # step 1c
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # step 2
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            word = _replace(word, suffix, repl, 1) or word
            break

    # step 3
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            word = _replace(word, suffix, repl, 1) or word
            break

    # step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_ = word[: len(word) - len(suffix)]
            if _measure(stem_) > 1:
                if suffix == "ion" and (not stem_ or stem_[-1] not in "st"):
                    break
                word = stem_
            break

    # step 5a
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _cvc(word[:-1])):
            word = word[:-1]

    # step 5b
    if _measure(word) > 1 and _double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word
