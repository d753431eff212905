import random

import pytest

from retold import lexicon as lx


def test_lookup_irregular_past(lexicon):
    assert lexicon.lookup("see", lx.VERB).irregular["past"] == "saw"
    assert lexicon.lookup("hang", lx.VERB).irregular["past"] == "hung"


def test_lookup_unknown_lemma(lexicon):
    with pytest.raises(lx.UnknownLemmaError) as exc:
        lexicon.lookup("xyzzy", lx.NOUN)
    assert "xyzzy" in str(exc.value)
    assert "noun" in str(exc.value)


@pytest.mark.parametrize("lemma,expected", [
    ("open", "opened"),
    ("jump", "jumped"),
    ("stop", "stopped"),
    ("plan", "planned"),
    ("quarrel", "quarreled"),
    ("decide", "decided"),
    ("carry", "carried"),
    ("sober", "sobered"),
])
def test_regular_past_forms(lexicon, lemma, expected):
    entry = lexicon.lookup(lemma, lx.VERB)
    assert lx.inflect(entry, {"tense": "past"}) == expected


def test_irregular_pasts_win(lexicon):
    assert lx.inflect(lexicon.lookup("see", lx.VERB), {"tense": "past"}) == "saw"
    assert lx.inflect(lexicon.lookup("drink", lx.VERB), {"tense": "past"}) == "drank"
    assert lx.inflect(lexicon.lookup("eat", lx.VERB), {"tense": "past"}) == "ate"


def test_be_agrees_in_number(lexicon):
    be = lexicon.lookup("be", lx.VERB)
    assert lx.inflect(be, {"tense": "past"}) == "was"
    assert lx.inflect(be, {"tense": "past", "number": "sg"}) == "was"
    assert lx.inflect(be, {"tense": "past", "number": "pl"}) == "were"


@pytest.mark.parametrize("lemma,expected", [
    ("wife", "wives"),
    ("wolf", "wolves"),
    ("grape", "grapes"),
    ("branch", "branches"),
    ("story", "stories"),
])
def test_plurals(lexicon, lemma, expected):
    entry = lexicon.lookup(lemma, lx.NOUN)
    assert lx.inflect(entry, {"number": "pl"}) == expected


def test_base_features_return_the_lemma(lexicon):
    for entry in lexicon.entries:
        assert lx.inflect(entry, {}) == entry.lemma


def test_doubling_only_for_stressed_cvc_monosyllables():
    # fixed list: (lemma, correct past); the doubling rule must fire for the
    # first two and stay quiet for the rest
    cases = [("stop", "stopped"), ("plan", "planned"),
             ("jump", "jumped"), ("walk", "walked"), ("open", "opened"),
             ("quarrel", "quarreled"), ("sober", "sobered"), ("rest", "rested"),
             ("kill", "killed"), ("fail", "failed"), ("collect", "collected"),
             ("snow", "snowed"), ("play", "played")]
    for lemma, expected in cases:
        assert lx.regular_past(lemma) == expected, lemma


def test_feature_mismatch(lexicon):
    with pytest.raises(lx.FeatureMismatchError):
        lx.inflect(lexicon.lookup("fox", lx.NOUN), {"tense": "past"})
    with pytest.raises(lx.FeatureMismatchError):
        lx.inflect(lexicon.lookup("jump", lx.VERB), {"tense": "present"})
    with pytest.raises(lx.FeatureMismatchError):
        lx.inflect(lexicon.lookup("ripe", lx.ADJECTIVE), {"number": "pl"})


def test_synonym_register_and_determinism(lexicon):
    hang = lexicon.lookup("hang", lx.VERB)
    assert lx.synonym(hang, "casual", random.Random(1)) == "rest"
    obtain = lexicon.lookup("obtain", lx.VERB)
    picks = {lx.synonym(obtain, "casual", random.Random(seed)) for seed in range(20)}
    assert picks <= {"get", "collect"}
    assert len(picks) == 2  # both eventually chosen
    assert (lx.synonym(obtain, "casual", random.Random(7))
            == lx.synonym(obtain, "casual", random.Random(7)))


def test_synonym_absent(lexicon):
    assert lx.synonym(lexicon.lookup("jump", lx.VERB), "casual", random.Random(0)) is None
    assert lx.synonym(lexicon.lookup("hang", lx.VERB), "neutral", random.Random(0)) is None


def test_synonym_never_returns_own_lemma(lexicon):
    rng = random.Random(3)
    for entry in lexicon.entries:
        for register in ("neutral", "casual"):
            got = lx.synonym(entry, register, rng)
            assert got != entry.lemma


@pytest.mark.parametrize("lemma,expected", [
    ("trellis", ("tr", "ellis")),
    ("fox", ("f", "ox")),
    ("air", ("", "air")),
    ("grape_vine", ("", "grape_vine")),
    ("what was there", ("", "what was there")),
])
def test_split_onset(lexicon, lemma, expected):
    onset = lexicon.onset(lemma, lx.NOUN)
    assert (onset, lemma[len(onset):]) == expected


def test_split_onset_override_wins():
    entry = lx.LexemeEntry("trellis", lx.NOUN, onset_split=("tre", "llis"))
    one_entry = lx.Lexicon([entry], [])
    assert one_entry.onset("trellis", lx.NOUN) == "tre"
    assert one_entry.onset("trellis", lx.ADJECTIVE) == "tr"  # not listed: the spelling's


def test_split_onset_concatenation(lexicon):
    for entry in lexicon.entries:
        assert entry.lemma.startswith(lexicon.onset(entry.lemma, entry.pos))


def test_frames_loaded(lexicon):
    frame = lexicon.frame("say")
    assert ("Agent", "I") in frame.mandatory_roles
    assert ("Topic", "II") in frame.mandatory_roles
    assert ("Addressee", "prep:to") in frame.optional_roles
    assert frame.complement_kind == lx.FINITE
    with pytest.raises(lx.UnknownFrameError):
        lexicon.frame("no_such_frame")


def test_frame_relation_uniqueness_enforced():
    with pytest.raises(lx.LexiconError):
        lx.Lexicon([], [lx.FrameDef("bad", (("A", "I"), ("B", "I")))])


def test_coverage_for_fixture_vocabulary(lexicon):
    for lemma in ("fox", "grape", "group", "vine", "trellis", "lion", "boar",
                  "vulture", "rock", "spring", "air", "dignity", "unconcern"):
        assert lexicon.has(lemma, lx.NOUN), lemma
    for lemma in ("jump", "obtain", "reach", "see", "walk", "say", "think",
                  "hang", "decide", "drink", "quarrel", "attack", "stop",
                  "plan", "eat", "sober", "kill", "be", "rest", "collect",
                  "get", "fail", "seem", "can"):
        assert lexicon.has(lemma, lx.VERB), lemma
    for lemma in ("ripe", "sour", "hot", "hungry", "able", "seated"):
        assert lexicon.has(lemma, lx.ADJECTIVE), lemma


def test_loader_rejects_malformed_records():
    bad_lexicon_lines = [
        "fox",                       # missing pos
        "fox critter",               # bad pos
        "fox noun sparkle=yes",      # unknown field
        "fox noun onset=fo+xx",      # onset parts must spell the lemma
        "hang verb syn=rest",        # synonym missing register
        "hang verb syn=rest@slangy", # unknown register
        "now adverb",                # closed classes are not listed
        "the function",
        "see verb pp=seen",          # no stage reads these forms
        "be verb third=is",
    ]
    for line in bad_lexicon_lines:
        with pytest.raises(lx.LexiconError):
            lx.load_lexicon(line, "")
    bad_frame_lines = [
        "frame jump Agent=I",            # missing colon
        "frame jump : Agent=IV",         # bad relation
        "frame jump : complement=maybe", # bad complement kind
        "frame jump : Agent",            # missing '='
    ]
    for line in bad_frame_lines:
        with pytest.raises(lx.LexiconError):
            lx.load_lexicon("", line)


def test_loader_rejects_duplicates():
    with pytest.raises(lx.LexiconError):
        lx.load_lexicon("fox noun\nfox noun\n", "")
    with pytest.raises(lx.LexiconError):
        lx.load_lexicon("", "frame jump : Agent=I\nframe jump : Agent=I\n")
