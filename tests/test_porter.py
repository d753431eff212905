import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from retold import porter
from retold.metrics import tokenize
from retold.porter import stem
from conftest import FIXTURES

# classic behaviour of the original suffix-stripping rule tables
VECTORS = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"),
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"), ("sky", "sky"),
    ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
    ("digitizer", "digit"), ("operational", "oper"),
    ("generalization", "gener"), ("controlled", "control"),
    ("electricity", "electr"), ("hopefulness", "hope"), ("goodness", "good"),
    ("adjustable", "adjust"), ("defensible", "defens"),
    ("activate", "activ"), ("effective", "effect"),
    ("abilities", "abil"), ("absolutely", "absolut"),
    ("accompanied", "accompani"), ("accuracy", "accuraci"),
    ("achievement", "achiev"), ("acting", "act"), ("adoption", "adopt"),
    ("agreement", "agreement"), ("allowance", "allow"),
    ("annoyance", "annoy"), ("argument", "argument"), ("arrival", "arriv"),
    ("assumption", "assumpt"), ("attention", "attent"),
    ("authorization", "author"), ("basically", "basic"), ("cease", "ceas"),
    ("communication", "commun"), ("connection", "connect"),
    ("consider", "consid"), ("continuous", "continu"),
    ("creation", "creation"), ("dependent", "depend"), ("dying", "dy"),
    # project vocabulary
    ("jumped", "jump"), ("hanging", "hang"), ("grapes", "grape"),
    ("quarreled", "quarrel"), ("walked", "walk"), ("obtained", "obtain"),
    ("seated", "seat"), ("dignity", "digniti"), ("vultures", "vultur"),
]


@pytest.mark.parametrize("word,expected", VECTORS)
def test_vectors(word, expected):
    assert stem(word) == expected


def test_short_words_untouched():
    for w in ("a", "be", "as", "on", "is"):
        assert stem(w) == w


def test_case_folding():
    assert stem("Grapes") == "grape"
    assert stem("GRAPES") == "grape"


def test_non_alpha_tokens_survive():
    assert stem("didn't") == "didn't"


def test_cached_stem_matches_uncached_on_fixture_tokens():
    for path in sorted(FIXTURES.glob("*.txt")):
        for token in tokenize(path.read_text(encoding="utf-8")):
            assert stem(token) == stem.__wrapped__(token), (path.name, token)


@settings(derandomize=True, deadline=None)
@given(word=hst.text(alphabet="abcdefghijklmnopqrstuvwxyz'", max_size=16))
def test_cached_stem_matches_uncached(word):
    assert stem(word) == stem.__wrapped__(word)
    # the second call is answered from the cache
    assert stem(word) == stem.__wrapped__(word)


def test_stem_cache_stays_bounded():
    maxsize = stem.cache_parameters()["maxsize"]
    assert maxsize == 4096
    for i in range(maxsize + 500):
        stem(f"unseen{i}ness")
    assert stem.cache_info().currsize <= maxsize


@pytest.mark.parametrize("table", [[s for s, _ in porter._STEP2],
                                   [s for s, _ in porter._STEP3],
                                   porter._STEP4], ids=["step2", "step3", "step4"])
def test_step_tables_are_longest_first(table):
    lengths = [len(suffix) for suffix in table]
    assert lengths == sorted(lengths, reverse=True)
