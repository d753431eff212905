"""Porter's suffix-stripping stemmer (the classic 1980 algorithm).

Implements the original rule tables verbatim; conditions are evaluated on
the stem left after removing the candidate suffix, with the usual measure
m counting vowel-consonant sequences.

Stemming a word costs about 6 µs of Python work. :func:`stem` keeps no
cache: scoring calls it only on a miss of :mod:`retold.metrics`' one cache
of words as split from a text.
"""

from __future__ import annotations

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


def _step(word: str, rules: list[tuple[str, str]]) -> str:
    """Steps 2 and 3: the longest suffix of ``rules`` that ``word`` ends
    with is replaced if the stem left has m > 0; either way the step ends."""
    for suffix, repl in rules:
        if word.endswith(suffix):
            base = word[: len(word) - len(suffix)]
            return base + repl if _measure(base) > 0 else word
    return word


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

    # steps 2 and 3
    word = _step(_step(word, _STEP2), _STEP3)

    # step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_ = word[: len(word) - len(suffix)]
            if _measure(stem_) > 1:
                if suffix == "ion" and stem_[-1] not in "st":
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
