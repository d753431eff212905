import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from retold import metrics
from retold.porter import stem
from conftest import fixture_text

WORDS = ["fox", "grape", "vine", "lion", "boar", "rock", "the", "a", "ran"]


def brute_min_edits(a, b):
    # exhaustive recursion over edit scripts; deliberately not the DP
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(brute_min_edits(a[1:], b) + 1,
               brute_min_edits(a, b[1:]) + 1,
               brute_min_edits(a[1:], b[1:]) + (a[0] != b[0]))


def two_row_dp(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def test_tokenize_and_stem_examples():
    assert metrics.tokenize_and_stem("The fox jumped.") == ["the", "fox", "jump"]
    assert metrics.tokenize_and_stem("") == []
    assert metrics.tokenize_and_stem("grapes Grapes grapes!") == ["grape"] * 3


def test_tokenize_strips_edge_punctuation_only():
    assert metrics.tokenize('"didn\'t," he said...') == ["didn't", "he", "said"]


def loop_tokenize(text):
    # the reference: one Python step per token
    out = []
    for raw in metrics.without_bom(text).lower().split():
        tok = raw.strip(metrics._STRIP_CHARS)
        if tok:
            out.append(tok)
    return out


def loop_stem(text):
    # the reference for the stemmed path: the stem of each token
    return [stem(tok) for tok in loop_tokenize(text)]


# letters, non-ASCII capitals, edge punctuation, typographic quotes and
# dashes that are not stripped, a byte-order mark and Unicode whitespace
TEXT_CHARS = ("aZ\u00c9\u00e9\u0130" + metrics._STRIP_CHARS
              + "\u201e\u2010\u2011\ufeff \u00a0\u2003\n\t")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=hst.text(alphabet=TEXT_CHARS, max_size=40))
def test_tokenize_equals_the_per_token_loop(text):
    assert metrics.tokenize(text) == loop_tokenize(text)
    assert metrics.tokenize_and_stem(text, use_stemming=False) == loop_tokenize(text)
    assert metrics.tokenize_and_stem(text) == loop_stem(text)


# letters, each ASCII strip character and ASCII whitespace: an ASCII text
# holds none of the typographic strip characters
ASCII_TEXT_CHARS = ("aZ" + "".join(filter(str.isascii, metrics._STRIP_CHARS)) + " \n\t")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=hst.text(alphabet=ASCII_TEXT_CHARS, max_size=40))
def test_tokenize_equals_the_per_token_loop_on_ascii_text(text):
    assert metrics.tokenize(text) == loop_tokenize(text)
    assert metrics.tokenize_and_stem(text) == loop_stem(text)


@pytest.mark.parametrize("text, stems", [
    ("Grapes grapes. grapes!", ["grape"] * 3),
    ("\ufeffGrapes, said the fox.", ["grape", "said", "the", "fox"]),
    ("... the \u2014 fox \u2026", ["the", "fox"]),
    ("... \u2014 \u201c\u201d", []),
], ids=["repeated-word", "byte-order-mark", "punctuation-words", "punctuation-only"])
def test_tokenize_and_stem_equals_the_per_token_loop(text, stems):
    assert metrics.tokenize_and_stem(text) == loop_stem(text) == stems


def test_word_cache_stays_bounded():
    maxsize = metrics._stemmed.cache_parameters()["maxsize"]
    assert maxsize == 4096
    for i in range(maxsize + 500):
        metrics._stemmed(f"unseen{i}ness,")
    assert metrics._stemmed.cache_info().currsize <= maxsize


@pytest.mark.parametrize("text, tokens", [
    ("\u201cfox,\u201d \u00e9", ["fox", "\u00e9"]),
    ("fox\u2026 \u00e9", ["fox", "\u00e9"]),
    ("\u00e9 \u2014fox\u2014", ["\u00e9", "fox"]),
])
def test_one_non_ascii_character_keeps_the_typographic_strip_characters(text, tokens):
    assert metrics.tokenize(text) == loop_tokenize(text) == tokens


def test_tokenize_without_stemming():
    assert metrics.tokenize_and_stem("The foxes jumped.", use_stemming=False) == \
        ["the", "foxes", "jumped"]


def test_levenshtein_examples():
    assert metrics.levenshtein(["a", "b", "c"], ["a", "b", "c"]) == 0
    assert metrics.levenshtein(["a", "b", "c"], ["a", "c"]) == 1
    assert metrics.levenshtein([], ["x", "y", "z"]) == 3
    assert metrics.levenshtein(["x", "y"], []) == 2


def test_levenshtein_matches_brute_force_enumeration():
    rng = random.Random(99)
    for _ in range(300):
        a = [rng.choice(WORDS) for _ in range(rng.randint(0, 5))]
        b = [rng.choice(WORDS) for _ in range(rng.randint(0, 5))]
        assert metrics.levenshtein(a, b) == brute_min_edits(a, b), (a, b)


def long_pairs():
    """60 seeded pairs of up to 340 tokens. Masks past 300 bits span several
    machine words; small vocabularies repeat tokens heavily; ints and tuples
    are hashable tokens too."""
    rng = random.Random(7)
    vocabularies = [WORDS, WORDS[:2], list(range(40)), [(0, "a"), (1, "b"), (0,)]]
    for i in range(60):
        vocab = vocabularies[i % len(vocabularies)]
        a = [rng.choice(vocab) for _ in range(rng.randint(0, 340))]
        b = [rng.choice(vocab) for _ in range(rng.randint(0, 340))]
        yield i, a, b


def test_levenshtein_matches_two_row_dp_on_long_pairs():
    for i, a, b in long_pairs():
        assert metrics.levenshtein(a, b) == two_row_dp(a, b), (i, len(a), len(b))


# CPython ints have 30-bit digits, so the carry in (eq & vp) + vp and the
# shifts cross a digit at these lengths
DIGIT_EDGE_LENGTHS = (0, 1, 2, 29, 30, 31, 59, 60, 61, 89, 90, 91)


def test_levenshtein_at_int_digit_edges():
    rng = random.Random(30)
    for m in DIGIT_EDGE_LENGTHS:
        for n in DIGIT_EDGE_LENGTHS:
            a = [rng.choice("xyz") for _ in range(m)]
            b = [rng.choice("xyz") for _ in range(n)]
            assert metrics.levenshtein(a, b) == two_row_dp(a, b), (m, n)
            disjoint = [rng.choice("pq") for _ in range(n)]
            assert metrics.levenshtein(a, disjoint) == max(m, n), (m, n)
        assert metrics.levenshtein(a, list(a)) == 0, m


def test_levenshtein_metric_axioms():
    rng = random.Random(5)
    for _ in range(200):
        a = [rng.choice(WORDS) for _ in range(rng.randint(0, 12))]
        b = [rng.choice(WORDS) for _ in range(rng.randint(0, 12))]
        c = [rng.choice(WORDS) for _ in range(rng.randint(0, 12))]
        dab = metrics.levenshtein(a, b)
        assert dab == metrics.levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert metrics.levenshtein(a, c) <= dab + metrics.levenshtein(b, c)


def slice_ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def grams_as_tuples(tokens, n):
    # bleu counts unigrams as the tokens themselves, not as 1-tuples
    grams = metrics._grams(tokens, n)
    return Counter(zip(grams) if n == 1 else grams)


def oracle_bleu(candidate, reference, max_n=4, epsilon=1e-9):
    """BLEU by its definition: every n-gram of each side counted from
    slices, and the clipped overlap summed over the candidate's n-grams."""
    if not candidate or not reference:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand, ref = slice_ngrams(candidate, n), slice_ngrams(reference, n)
        total = max(len(candidate) - n + 1, 0)
        if total == 0:
            precision = epsilon
        else:
            overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
            precision = overlap / total if overlap else epsilon
        log_sum += math.log(precision)
    geo = math.exp(log_sum / max_n)
    c, r = len(candidate), len(reference)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


@settings(derandomize=True, deadline=None)
@given(tokens=hst.lists(hst.sampled_from(WORDS), max_size=12), n=hst.integers(1, 4))
def test_ngrams_match_slice_definition(tokens, n):
    assert grams_as_tuples(tokens, n) == slice_ngrams(tokens, n)


def test_ngrams_of_short_and_empty_lists_are_empty():
    for n in range(1, 5):
        assert grams_as_tuples([], n) == Counter()
        assert grams_as_tuples(WORDS[:n - 1], n) == Counter()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=hst.data(), vocab_size=hst.integers(1, 3))
def test_bleu_equals_its_definition_on_repetitive_lists(data, vocab_size):
    # equal, not approximately equal: every overlap is the same integer and
    # the float expression is the oracle's; lengths from 0 reach total == 0
    tokens = hst.lists(hst.sampled_from(WORDS[:vocab_size]), max_size=30)
    a, b = data.draw(tokens), data.draw(tokens)
    assert metrics.bleu(a, b) == oracle_bleu(a, b)


def test_bleu_equals_its_definition_on_long_pairs():
    for i, a, b in long_pairs():
        assert metrics.bleu(a, b) == oracle_bleu(a, b), (i, len(a), len(b))


def test_bleu_identity_and_bounds():
    tokens = metrics.tokenize_and_stem(fixture_text("fox_and_grapes.golden.txt"))
    assert metrics.bleu(tokens, tokens) == pytest.approx(1.0)
    assert metrics.bleu([], tokens) == 0.0
    disjoint = metrics.bleu(["aa", "bb", "cc", "dd", "ee"], ["vv", "ww", "xx", "yy", "zz"])
    assert 0.0 <= disjoint < 1e-6


def test_bleu_in_unit_interval_on_random_pairs():
    rng = random.Random(11)
    for _ in range(200):
        a = [rng.choice(WORDS) for _ in range(rng.randint(1, 15))]
        b = [rng.choice(WORDS) for _ in range(rng.randint(1, 15))]
        score = metrics.bleu(a, b)
        assert 0.0 <= score <= 1.0


def test_bleu_brevity_penalty_direction():
    ref = ["the", "fox", "saw", "the", "grape", "on", "the", "vine"]
    full = metrics.bleu(ref, ref)
    short = metrics.bleu(ref[:4], ref)
    assert short < full


def test_development_pair_scores_fall_in_expected_windows():
    row = metrics.corpus_report([metrics.EvalPair(
        fixture_text("fox_and_grapes.golden.txt"),
        fixture_text("fox_and_grapes.reference.txt"),
        "dev")]).rows[0]
    assert 26 <= row.levenshtein <= 36
    assert 0.52 <= row.bleu <= 0.66


# recorded while BLEU still counted every n-gram of both sides; equal, not
# approximately equal, so that any change to its arithmetic shows here
@pytest.mark.parametrize("name, scores", [
    ("fox_and_grapes", (35, 0.5346210672909771)),
    ("lion_and_boar", (105, 0.29843990480609245)),
])
def test_fixture_pair_scores_are_pinned(name, scores):
    pair = metrics.EvalPair(fixture_text(f"{name}.golden.txt"),
                            fixture_text(f"{name}.reference.txt"))
    metrics._stemmed.cache_clear()
    cold = metrics.score_pair(pair)
    warm = metrics.score_pair(pair)
    assert (cold.levenshtein, cold.bleu) == (warm.levenshtein, warm.bleu) == scores


def test_corpus_report_identical_pair():
    text = fixture_text("fox_and_grapes.golden.txt")
    report = metrics.corpus_report([metrics.EvalPair(text, text, "same")])
    assert report.rows[0].levenshtein == 0
    assert report.rows[0].bleu == pytest.approx(1.0)
    assert report.levenshtein_std == 0.0


def test_corpus_report_aggregates():
    report = metrics.corpus_report([
        metrics.EvalPair("a b", "c d", "two"),       # distance 2
        metrics.EvalPair("a b c d", "e f g h", "four"),  # distance 4
    ])
    assert [r.levenshtein for r in report.rows] == [2, 4]
    assert report.levenshtein_mean == pytest.approx(3.0)
    assert report.levenshtein_std == pytest.approx(1.0)


def test_corpus_report_recomputable_from_rows():
    from statistics import mean, pstdev
    pairs = [metrics.EvalPair(fixture_text("fox_and_grapes.golden.txt"),
                              fixture_text("fox_and_grapes.reference.txt"), "a"),
             metrics.EvalPair(fixture_text("lion_and_boar.golden.txt"),
                              fixture_text("lion_and_boar.reference.txt"), "b")]
    report = metrics.corpus_report(pairs)
    assert report.levenshtein_mean == pytest.approx(mean(r.levenshtein for r in report.rows))
    assert report.bleu_std == pytest.approx(pstdev(r.bleu for r in report.rows))


def test_corpus_report_rejects_empty_input():
    with pytest.raises(ValueError):
        metrics.corpus_report([])


def test_score_pair_rejects_empty_text():
    # a text of punctuation alone has no words either
    for candidate, reference in [("", "reference"), ("reference", " \n"),
                                 ("...", "reference"), ("reference", "\u201c\u2014\u201d")]:
        with pytest.raises(ValueError, match="both texts must hold a word"):
            metrics.score_pair(metrics.EvalPair(candidate, reference, "x"))


def test_a_leading_byte_order_mark_is_no_token():
    # a two-word pair has no 3- or 4-grams, so even equal texts score a BLEU below 1
    row = metrics.score_pair(metrics.EvalPair("\ufeffThe fox.", "The fox."))
    assert row == metrics.score_pair(metrics.EvalPair("The fox.", "The fox."))
    assert row.levenshtein == 0
    golden = fixture_text("fox_and_grapes.golden.txt")
    row = metrics.score_pair(metrics.EvalPair("\ufeff" + golden, golden))
    assert (row.levenshtein, row.bleu) == (0, 1.0)
    assert metrics.tokenize("\ufeffThe fox.") == ["the", "fox"]
    with pytest.raises(ValueError):
        metrics.score_pair(metrics.EvalPair("\ufeff", "The fox.", "x"))


def test_report_rendering_is_deterministic():
    pairs = [metrics.EvalPair("a b c", "a c", "row")]
    r1, r2 = metrics.corpus_report(pairs), metrics.corpus_report(pairs)
    assert metrics.report_to_json(r1) == metrics.report_to_json(r2)


def test_import_pulls_in_no_heavy_or_compiled_modules():
    probe = ("import retold, sys; "
             "print(*[m for m in ('xml.sax', 'urllib.request', 'scipy') if m in sys.modules], "
             "*[n for n, m in sys.modules.items() if n.startswith('retold') "
             "and not getattr(m, '__file__', '').endswith('.py')])")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, encoding="utf-8", check=True)
    assert result.stdout.strip() == ""
    # nor the data-class machinery or modules only some commands use, beyond
    # what the bare interpreter (with its site hooks) has already loaded
    slow = ("dataclasses", "inspect", "json", "statistics")

    def loaded(imports: str) -> list[str]:
        code = f"import {imports}; print(*[m for m in {slow!r} if m in sys.modules])"
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, encoding="utf-8", check=True).stdout.split()

    assert loaded("retold, sys") == loaded("sys")
