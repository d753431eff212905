"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (visible with `pytest -s` or in the captured output of a failure)."""

import io
import random
import time

from retold import dsynt as d
from retold import metrics
from retold import story as st
from retold import style
from retold import transform as tr
from retold.cli import run
from retold.lexicon import NOUN, VERB, default_lexicon, past, plural
from retold.realize import realize_document

from conftest import FIXTURES, fixture_text, random_story

DESIGNATED_SEED = 0


def check(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _generate(story_name: str) -> str:
    graph = st.parse_story(fixture_text(story_name))
    return realize_document(tr.transform_story(graph))


def test_criterion_1_development_story_regeneration():
    start = time.perf_counter()
    text = _generate("fox_and_grapes.story")
    elapsed = time.perf_counter() - start
    golden = fixture_text("fox_and_grapes.golden.txt")
    distance = metrics.levenshtein(metrics.tokenize_and_stem(text),
                                   metrics.tokenize_and_stem(golden))
    check("1 golden regeneration (development)", distance <= 3 and elapsed < 1.0)


def test_criterion_2_test_story_regeneration():
    text = _generate("lion_and_boar.story")
    golden = fixture_text("lion_and_boar.golden.txt")
    distance = metrics.levenshtein(metrics.tokenize_and_stem(text),
                                   metrics.tokenize_and_stem(golden))
    check("2 golden regeneration (test)", distance <= 6)


def test_criterion_3_development_metric_reproduction():
    row = metrics.corpus_report([metrics.EvalPair(
        fixture_text("fox_and_grapes.golden.txt"),
        fixture_text("fox_and_grapes.reference.txt"),
        "development")]).rows[0]
    check("3 metric reproduction (dev row)",
          26 <= row.levenshtein <= 36 and 0.52 <= row.bleu <= 0.66)


def test_criterion_4_morphology_fixes():
    lex = default_lexicon()
    check("4 morphology fixes",
          past(lex.lookup("open", VERB), "sg") == "opened"
          and plural(lex.lookup("wife", NOUN)) == "wives")


def _eligible_sentences(param, doc, lex):
    n = len(doc.sentences)
    if param == "restatement":
        return set()
    if param == "lexical_variation":
        return {i for i, s in enumerate(doc.sentences)
                if {node.lexeme for _, node in d.walk(s)} & {"hang", "obtain"}}
    if param == "negation_paraphrase":
        return {i for i, s in enumerate(doc.sentences)
                if s.feature("polarity") == "neg" and s.lexeme == "obtain"}
    if param == "pronominalization":
        counts: dict[str, int] = {}
        eligible = set()
        for i, s in enumerate(doc.sentences):
            for _, node in d.walk(s):
                if node.feature("pron"):
                    counts[node.lexeme] = counts.get(node.lexeme, 0) + 1
                    if counts[node.lexeme] > 1:
                        eligible.add(i)
        return eligible
    return set(range(n))


def test_criterion_5_style_property_suite(fox_graph):
    lex = default_lexicon()
    fox_doc = tr.transform_story(fox_graph)

    # (a) the all-zero model is the identity on 100 randomized documents
    neutral = style.BUILTIN_VOICES["NEUTRAL"]
    identity = True
    for seed in range(100):
        doc = tr.transform_story(random_story(random.Random(seed)))
        out, decisions = style.apply_voice(doc, neutral, seed)
        identity = identity and out == doc and decisions == []
    check("5a zero model is identity (100 random documents)", identity)

    # (b) any single parameter at activation 1.0 fires on every eligible sentence
    all_fire = True
    for param in sorted(style.PARAM_NAMES):
        model = style.VoiceModel("probe", {param: 1.0})
        _, decisions = style.apply_voice(fox_doc, model, DESIGNATED_SEED)
        fired = {dec.sentence_index for dec in decisions}
        all_fire = all_fire and fired == _eligible_sentences(param, fox_doc, lex)
    check("5b activation 1.0 fires on every eligible sentence", all_fire)

    # (c) bit-reproducible across 10 repeated runs
    model = style.BUILTIN_VOICES["LAID-BACK"]
    first = style.apply_voice(fox_doc, model, DESIGNATED_SEED)
    reproducible = all(style.apply_voice(fox_doc, model, DESIGNATED_SEED) == first
                       for _ in range(10))
    check("5c reproducible across 10 runs", reproducible)

    # (d) attested marker categories at the designated seed
    _, shy = style.apply_voice(fox_doc, style.BUILTIN_VOICES["SHY"], DESIGNATED_SEED)
    _, laid_back = style.apply_voice(fox_doc, style.BUILTIN_VOICES["LAID-BACK"],
                                     DESIGNATED_SEED)
    shy_params = {dec.param for dec in shy}
    lb_params = {dec.param for dec in laid_back}
    check("5d attested marker categories at the designated seed",
          {"softener_hedges", "stuttering", "filled_pauses"} <= shy_params
          and {"tag_question", "expletives", "initial_interjection",
               "lexical_variation"} <= lb_params)


def test_criterion_6_metric_property_suite():
    words = ["fox", "grape", "vine", "lion", "boar", "rock", "the", "a", "ran", "saw"]

    def brute(a, b):
        if not a:
            return len(b)
        if not b:
            return len(a)
        return min(brute(a[1:], b) + 1, brute(a, b[1:]) + 1,
                   brute(a[1:], b[1:]) + (a[0] != b[0]))

    rng = random.Random(2024)
    axioms = True
    for _ in range(1000):
        a = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        b = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        c = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        dab = metrics.levenshtein(a, b)
        axioms = axioms and dab == metrics.levenshtein(b, a)
        axioms = axioms and (dab == 0) == (a == b)
        axioms = axioms and metrics.levenshtein(a, c) <= dab + metrics.levenshtein(b, c)
    check("6a edit distance metric axioms (1000 pairs)", axioms)

    brute_ok = True
    for _ in range(300):
        a = [rng.choice(words) for _ in range(rng.randint(0, 5))]
        b = [rng.choice(words) for _ in range(rng.randint(0, 5))]
        brute_ok = brute_ok and metrics.levenshtein(a, b) == brute(a, b)
    check("6b edit distance equals brute-force enumeration (len <= 5)", brute_ok)

    tokens = metrics.tokenize_and_stem(fixture_text("fox_and_grapes.golden.txt"))
    bounds = metrics.bleu(tokens, tokens) == 1.0
    for _ in range(200):
        a = [rng.choice(words) for _ in range(rng.randint(1, 15))]
        b = [rng.choice(words) for _ in range(rng.randint(1, 15))]
        bounds = bounds and 0.0 <= metrics.bleu(a, b) <= 1.0
    check("6c bleu bounds and identity", bounds)


def test_criterion_7_structural_invariants():
    ok = True
    for seed in range(50):
        g = random_story(random.Random(seed))
        doc = tr.transform_story(g)
        ok = ok and len(doc.sentences) == len(st.timeline_propositions(g))
        for sentence in doc.sentences:
            ok = ok and d.validate_tree(sentence) == []
    check("7 structural invariants on 50 random stories", ok)


def test_criterion_8_pipeline_determinism():
    def full_run():
        out, err = io.StringIO(), io.StringIO()
        code = run(["generate", str(FIXTURES / "fox_and_grapes.story"),
                    "--voice", "LAID-BACK", "--seed", "11", "--emit-dsynts"],
                   out=out, err=err)
        pipe_out = io.StringIO()
        pipe_code = run(["pipeline", str(FIXTURES / "lion_and_boar.story"),
                         "--reference", str(FIXTURES / "lion_and_boar.golden.txt")],
                        out=pipe_out, err=err)
        return code, pipe_code, out.getvalue(), pipe_out.getvalue()

    check("8 byte-identical pipeline runs", full_run() == full_run())
