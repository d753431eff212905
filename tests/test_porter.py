import pytest

from retold import porter
from retold.porter import stem

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
    # the paper's examples of the step 2 and step 3 rules, fully stemmed
    ("valenci", "valenc"), ("hesitanci", "hesit"), ("conformabli", "conform"),
    ("radicalli", "radic"), ("differentli", "differ"), ("vileli", "vile"),
    ("analogousli", "analog"), ("vietnamization", "vietnam"), ("predication", "predic"),
    ("operator", "oper"), ("feudalism", "feudal"), ("decisiveness", "decis"),
    ("callousness", "callous"), ("formaliti", "formal"), ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"), ("triplicate", "triplic"), ("formative", "form"),
    ("formalize", "formal"), ("electriciti", "electr"), ("electrical", "electr"),
    ("hopeful", "hope"),
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


@pytest.mark.parametrize("table", [[s for s, _ in porter._STEP2],
                                   [s for s, _ in porter._STEP3],
                                   porter._STEP4], ids=["step2", "step3", "step4"])
def test_step_tables_are_longest_first(table):
    lengths = [len(suffix) for suffix in table]
    assert lengths == sorted(lengths, reverse=True)
