"""The benchmark workloads, their inputs and their output checks.

Each workload holds a fixed pool of items built from the seed before timing
starts, runs one item per operation and checks every output outside the
timed region.
"""

from __future__ import annotations

import os
import random
import statistics
from pathlib import Path

from retold import metrics, realize, story, style, transform

import storygen
from calibrate import two_row_levenshtein as oracle_levenshtein

VOICES = ("NEUTRAL", "FORMAL", "SHY", "LAID-BACK")
FIXTURES = ("fox_and_grapes", "lion_and_boar")

# share of nested slots that reuse an earlier proposition through `ref`
REF_RATE = 0.25
# corpus-voices: every story tells in this many NEUTRAL words, ten times a
# fixture (about 120 timespans)
CORPUS_TOKENS = 2400
CORPUS_STORIES = 40

# eval-corpus: sides of 160 to 390 words, evenly spread
EVAL_TOKENS = tuple(range(160, 400, 10))
# (candidate voice, reference voice); the same voice is told with another seed
EVAL_PAIR_VOICES = (("LAID-BACK", "LAID-BACK"), ("SHY", "SHY"),
                    ("NEUTRAL", "SHY"), ("NEUTRAL", "LAID-BACK"))
ORACLE_SAMPLE = 8


def child_env(root: Path) -> dict:
    """Environment for child interpreters. The caller's PYTHON* settings are
    dropped, so that bytecode caches are written and used as they are for an
    installed program, and retold comes from this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def word_count(text: str) -> int:
    return len(text.split())


class Workload:
    """An item pool plus the operation run on each item."""

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list = []
        # items whose inputs already failed a check, with the reason
        self.bad: dict[int, str] = {}
        # ops that could not even be set up, one reason each
        self.setup_failures: list[str] = []

    def run(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output, first) -> str | None:
        """Why ``output`` is wrong, or None. ``first`` is the item's output
        from the untimed first pass (None during that pass)."""
        if first is not None and output != first:
            return "output differs from the first pass"
        return None

    def inputs(self, first: dict) -> dict:
        """Input sizes; ``first`` maps each item to its first-pass output."""
        raise NotImplementedError


class FixtureCommands:
    """The README's commands on the two shipped fables, with the output each
    must print; the traced run drives them in-process through ``cli.run``."""

    def __init__(self, root: Path, seed: int):
        fx = root / "fixtures"
        items = []
        for name in FIXTURES:
            path = f"fixtures/{name}.story"
            golden = f"fixtures/{name}.golden.txt"
            golden_text = (fx / f"{name}.golden.txt").read_text(encoding="utf-8")
            scores = "levenshtein: 0\nbleu: 1.0000\n"
            items.append((["validate", path], f"{path}: ok\n"))
            items.append((["generate", path], golden_text))
            for voice in VOICES[1:]:
                items.append((["generate", path, "--voice", voice, "--seed", str(seed)], None))
            items.append((["eval", "--candidate", golden, "--reference", golden], scores))
            items.append((["eval", "--candidate", golden,
                           "--reference", f"fixtures/{name}.reference.txt"], None))
            items.append((["pipeline", path, "--reference", golden],
                          golden_text + "\n" + scores))
        dsynts = (fx / "fox_and_grapes.dsynt.xml").read_text(encoding="utf-8")
        fox_golden = (fx / "fox_and_grapes.golden.txt").read_text(encoding="utf-8")
        items.append((["generate", "fixtures/fox_and_grapes.story", "--emit-dsynts"],
                      fox_golden + "\n" + dsynts))
        self.items = items

    def check(self, index: int, code: int, stdout: str) -> str | None:
        """Why a command's exit code and output are wrong, or None."""
        expected = self.items[index][1]
        if code != 0:
            return f"exit code {code}"
        if expected is not None and stdout != expected:
            return "stdout differs from the fixture"
        if not stdout.strip():
            return "empty output"
        return None


class CorpusVoices(Workload):
    """Synthetic stories of one size told in all four voices, unscored."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.timespans = []
        for i in range(CORPUS_STORIES):
            story_seed = seed * 1000 + i
            try:
                timespans = storygen.timespans_for(story_seed, CORPUS_TOKENS, REF_RATE)
            except Exception as exc:  # the story's op fails; counted, not fatal
                self.setup_failures.append(f"story {story_seed}: {type(exc).__name__}: {exc}")
                continue
            text, problems = storygen.story_text(story_seed, timespans, REF_RATE)
            if problems:
                self.bad[len(self.items)] = "; ".join(problems[:3])
            self.timespans.append(timespans)
            self.items.append(text)

    def run(self, index: int):
        graph = story.parse_story(self.items[index])
        if story.validate_story(graph):
            return None
        doc = transform.transform_story(graph)
        tellings = []
        for voice in VOICES:
            styled, _ = style.apply_voice(doc, style.BUILTIN_VOICES[voice], self.seed + index)
            tellings.append(realize.realize_document(styled))
        return tuple(tellings)

    def check(self, index: int, output, first) -> str | None:
        if output is None:
            return "validate_story reported diagnostics"
        return super().check(index, output, first)

    def inputs(self, first: dict) -> dict:
        graphs = [story.parse_story(text) for text in self.items]
        counts = [storygen.proposition_counts(g) for g in graphs]
        # the NEUTRAL telling of each story that told in the first pass
        doc_words = [word_count(tellings[0]) for tellings in first.values() if tellings]
        return {
            "stories": len(graphs),
            "timespans": sum(self.timespans),
            "ref_rate": REF_RATE,
            "propositions": sum(c[0] for c in counts),
            "propositions_expanded": sum(c[1] for c in counts),
            "neutral_tokens": sum(doc_words),
        }


class EvalCorpus(Workload):
    """Scoring only: pairs of tellings of fable-size synthetic stories.

    Each side is cut at the first sentence end past its target length, so
    that the sizes, and with them the cost of a pass, hardly depend on the
    seed; the content and the distance between the sides do.
    """

    def __init__(self, seed: int):
        super().__init__(seed)
        self.voices: list[tuple[str, str]] = []
        for n, words in enumerate(EVAL_TOKENS):
            story_seed = seed * 1000 + n
            # long enough for the tersest voice to reach ``words``
            text, problems = storygen.story_text(story_seed, words // 8 + 8, REF_RATE)

            def tell(doc, voice: str, voice_seed: int) -> str:
                styled, _ = style.apply_voice(doc, style.BUILTIN_VOICES[voice], voice_seed)
                sentences, count = [], 0
                for sentence in styled.sentences:
                    sentences.append(realize.realize_sentence(sentence))
                    count += word_count(sentences[-1])
                    if count >= words:
                        break
                return " ".join(sentences)

            try:
                graph = story.parse_story(text)
                doc = transform.transform_story(graph)
                pairs = [metrics.EvalPair(tell(doc, cand, 2 * n), tell(doc, ref, 2 * n + 1),
                                          label=f"{graph.id}:{cand}:{ref}")
                         for cand, ref in EVAL_PAIR_VOICES]
            except Exception as exc:  # the story's pairs fail; counted, not fatal
                self.setup_failures += [f"story {story_seed}: {type(exc).__name__}: "
                                        f"{exc}"] * len(EVAL_PAIR_VOICES)
                continue
            for pair, voices in zip(pairs, EVAL_PAIR_VOICES):
                if problems:
                    self.bad[len(self.items)] = "; ".join(problems[:3])
                self.items.append(pair)
                self.voices.append(voices)
        rng = random.Random(f"eval-corpus:{seed}")
        for index in rng.sample(range(len(self.items)), min(ORACLE_SAMPLE, len(self.items))):
            pair = self.items[index]
            try:
                got = metrics.score_pair(pair).levenshtein
                want = oracle_levenshtein(metrics.tokenize_and_stem(pair.candidate_text),
                                          metrics.tokenize_and_stem(pair.reference_text))
            except Exception:  # the op on this pair fails and reports it
                continue
            if got != want:
                self.bad[index] = f"levenshtein {got} but the oracle gives {want}"

    def run(self, index: int):
        return metrics.score_pair(self.items[index])

    def check(self, index: int, output, first) -> str | None:
        if not 0.0 <= output.bleu <= 1.0:
            return f"bleu {output.bleu} outside [0, 1]"
        return super().check(index, output, first)

    def inputs(self, first: dict) -> dict:
        cand = [word_count(p.candidate_text) for p in self.items]
        ref = [word_count(p.reference_text) for p in self.items]
        # edits / longer side, from the first pass's scores, per voice pairing
        shares: dict[str, list[float]] = {}
        for index, row in first.items():
            pair = self.items[index]
            longer = max(len(metrics.tokenize_and_stem(pair.candidate_text)),
                         len(metrics.tokenize_and_stem(pair.reference_text)), 1)
            if row is not None:
                shares.setdefault("/".join(self.voices[index]), []).append(
                    row.levenshtein / longer)
        return {
            "pairs": len(self.items),
            "stories": len(EVAL_TOKENS),
            "candidate_tokens": sum(cand),
            "reference_tokens": sum(ref),
            "side_tokens_min": min(cand + ref),
            "side_tokens_max": max(cand + ref),
            "oracle_checked_pairs": ORACLE_SAMPLE,
            "edit_share_median": {voices: round(statistics.median(values), 3)
                                  for voices, values in shares.items()},
        }


WORKLOADS = {"corpus-voices": CorpusVoices, "eval-corpus": EvalCorpus}
