"""Spans around calls into each layer of retold, recorded from outside it.

``Tracer.installed()`` replaces a fixed set of public functions in their
modules with timing wrappers and puts the originals back on exit. Because the
modules look these names up at call time, calls made inside the program (say,
``score_pair`` calling ``levenshtein``) are caught as well. Spans stay in
memory; a layer's self time is its duration minus that of its child spans.

Interpreter start and import costs come from fresh processes: wall time of
``python -c pass``, the in-process time of ``import retold.cli``, and the
``-X importtime`` table. Every time is scaled to the calibration kernel's
reference speed (see calibrate.py), as the end-to-end times are.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from retold import dsynt, metrics, realize, story, style, transform

import calibrate
import storygen

# modules whose import cost is reported; one that is not imported costs 0
IMPORT_MODULES = (
    "retold", "retold.cli", "retold.diagnostics", "retold.dsynt", "retold.lexicon",
    "retold.metrics", "retold.porter", "retold.realize", "retold.story",
    "retold.style", "retold.transform", "xml.sax.saxutils",
)
IMPORT_PROBE = ("import time; t = time.perf_counter(); import retold.cli; "
                "print(time.perf_counter() - t)")
PROBE_TIMEOUT_S = 60


@dataclass
class Span:
    name: str
    ms: float
    self_ms: float
    source: str
    counts: dict = field(default_factory=dict)


def _voice_counts(args, kwargs, result):
    doc, model = args[0], args[1]
    active = sum(1 for v in model.params.values() if float(v) > 0.0)
    return f"style.{model.name}", {"decisions": len(result[1]),
                                  "draws": len(doc.sentences) * active}


def _transform_counts(args, kwargs, result):
    return "transform", {"nodes": sum(1 for s in result.sentences for _ in dsynt.walk(s))}


def _parse_counts(args, kwargs, result):
    distinct, visits = storygen.proposition_counts(result)
    return "story.parse", {"props": distinct, "visits": visits}


def _realize_counts(args, kwargs, result):
    return "realize", {"tokens": len(result.split())}


def _levenshtein_counts(args, kwargs, result):
    return "metrics.levenshtein", {"cells": len(args[0]) * len(args[1])}


# (module, function, span name or a function giving (name, counts))
LAYERS = (
    (story, "parse_story", _parse_counts),
    (story, "validate_story", "story.validate"),
    (transform, "transform_story", _transform_counts),
    (style, "apply_voice", _voice_counts),
    (realize, "realize_document", _realize_counts),
    (dsynt, "serialize", "dsynt.serialize"),
    # the self time of tokenize_and_stem is the stemming
    (metrics, "tokenize_and_stem", "porter.stem"),
    (metrics, "tokenize", "metrics.tokenize"),
    (metrics, "levenshtein", _levenshtein_counts),
    (metrics, "bleu", "metrics.bleu"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.source = "workload"
        # the machine's slowness for the spans now being recorded
        self.factor = 1.0
        # child time accumulated by each open span
        self._open: list[float] = []
        # the tokens of the latest tokenize call, for the stemming span
        self._tokens: list[str] = []

    def _wrap(self, fn, label):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - start) * 1e3 / self.factor
                child_ms = self._open.pop()
                if self._open:
                    self._open[-1] += ms
            if isinstance(label, str):
                name, counts = label, {}
            else:
                name, counts = label(args, kwargs, result)
            if name == "metrics.tokenize":
                self._tokens = result
            elif name == "porter.stem":
                # tokenize_and_stem's own tokenize call has just ended
                counts = {"distinct": len(set(self._tokens)), "tokens": len(self._tokens)}
                self._tokens = []
            self.spans.append(Span(name, ms, ms - child_ms, self.source, counts))
            return result
        return traced

    @contextmanager
    def installed(self, source: str = "workload"):
        self.source = source
        # a function the program no longer has leaves its layer without spans
        present = [(module, name, label) for module, name, label in LAYERS
                   if hasattr(module, name)]
        originals = [(module, name, getattr(module, name)) for module, name, _ in present]
        try:
            for (module, name, fn), (_, _, label) in zip(originals, present):
                setattr(module, name, self._wrap(fn, label))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def add_importtime(self, stderr: str, source: str) -> None:
        """Turn ``-X importtime`` lines into one span per module."""
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, module = line[len("import time:"):].split("|")
            self.spans.append(Span(f"import.{module.strip()}", int(cum_us) / 1e3 / self.factor,
                                   int(self_us) / 1e3 / self.factor, source))

    def select(self, name: str) -> list[Span]:
        """Spans of ``name`` from the workload's own operations, or from the
        fixture pass when the workload does not reach that layer."""
        spans = [s for s in self.spans if s.name == name]
        own = [s for s in spans if s.source == "workload"]
        return own or spans


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def cold_start_probes(root, env, runs: int, tracer: Tracer) -> dict:
    """Interpreter start and ``import retold.cli`` time, each the fastest of
    ``runs`` fresh processes, and the import table of ``runs`` more."""
    interp, imports = [], []
    for _ in range(runs):
        tracer.factor = calibrate.import_kernel_factor()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                       timeout=PROBE_TIMEOUT_S)
        interp.append((time.perf_counter() - start) * 1e3 / tracer.factor)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                             check=True, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        imports.append(float(out.stdout) * 1e3 / tracer.factor)
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import retold.cli"],
                             cwd=root, env=env, check=True, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        tracer.add_importtime(out.stderr, source="probe")
    return {"cli.interp_ms": min(interp), "cli.import_ms": min(imports)}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans (medians per call)."""
    out = {}

    def ms(name, metric, use_self=False):
        out[metric] = _median([s.self_ms if use_self else s.ms for s in tracer.select(name)])

    def count(name, key, metric):
        out[metric] = _median([s.counts[key] for s in tracer.select(name)])

    ms("metrics.levenshtein", "metrics.levenshtein_ms")
    count("metrics.levenshtein", "cells", "metrics.levenshtein_cells")
    ms("porter.stem", "porter.stem_ms", use_self=True)
    # distinct tokens / tokens, within each tokenize_and_stem call
    out["porter.distinct_ratio"] = _median([s.counts["distinct"] / s.counts["tokens"]
                                            for s in tracer.select("porter.stem")
                                            if s.counts.get("tokens")])
    ms("metrics.tokenize", "metrics.tokenize_ms")
    ms("metrics.bleu", "metrics.bleu_ms")
    ms("story.parse", "story.parse_ms")
    ms("story.validate", "story.validate_ms")
    count("story.parse", "props", "story.props")
    parses = tracer.select("story.parse")
    out["story.expansion_ratio"] = _median([s.counts["visits"] / s.counts["props"]
                                            for s in parses if s.counts["props"]])
    ms("transform", "transform.ms")
    count("transform", "nodes", "transform.nodes")
    for voice in style.BUILTIN_VOICES:
        spans = tracer.select(f"style.{voice}")
        out[f"style.ms.{voice}"] = _median([s.ms for s in spans])
        out[f"style.decisions.{voice}"] = _median([s.counts["decisions"] for s in spans])
        # a voice with no active parameter draws nothing and fires nothing
        out[f"style.fire_ratio.{voice}"] = _median(
            [s.counts["decisions"] / s.counts["draws"] for s in spans if s.counts["draws"]])
    ms("realize", "realize.ms")
    count("realize", "tokens", "realize.tokens")
    ms("dsynt.serialize", "dsynt.serialize_ms")
    for module in IMPORT_MODULES:
        ms(f"import.{module}", f"import.{module}_self_ms", use_self=True)
    ms("import.xml.sax.saxutils", "import.xml.sax.saxutils_cum_ms")
    return out


SCALE_LAYERS = ("story.parse", "story.validate", "transform", "style", "realize")
# (label, timespans, runs): about 10x and 100x a fixture
SCALE_SIZES = (("x10", 120, 5), ("x100", 1200, 2))


def _time_story(text: str, seed: int) -> tuple[dict, int, list[str]]:
    """Seconds per generation layer, NEUTRAL words and problems for one story
    through every voice."""
    times = dict.fromkeys(SCALE_LAYERS, 0.0)

    def timed(layer, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[layer] += time.perf_counter() - start
        return result

    words, problems = 0, []
    try:
        graph = timed("story.parse", story.parse_story, text)
        problems += [str(d) for d in timed("story.validate", story.validate_story, graph)]
        doc = timed("transform", transform.transform_story, graph)
        for voice, model in style.BUILTIN_VOICES.items():
            styled, _ = timed("style", style.apply_voice, doc, model, seed)
            telling = timed("realize", realize.realize_document, styled)
            if voice == "NEUTRAL":
                words = len(telling.split())
    except Exception as exc:  # a story that fails is counted, not fatal
        problems.append(f"{type(exc).__name__}: {exc}")
    return times, words, problems


def scaling_check(seed: int, ref_rate: float) -> tuple[dict, int, int]:
    """ms per 1k realized NEUTRAL words for each generation layer, the fastest
    of a few runs of one story per size; also returns (runs, failed runs)."""
    out, runs, failed = {}, 0, 0
    for label, timespans, repeats in SCALE_SIZES:
        text, problems = storygen.story_text(seed, timespans, ref_rate)
        best = dict.fromkeys(SCALE_LAYERS, math.inf)
        words = 1
        for _ in range(repeats):
            factor = calibrate.kernel_factor(5)
            times, words, run_problems = _time_story(text, seed)
            times = {layer: t / factor for layer, t in times.items()}
            runs += 1
            if problems or run_problems:
                print(f"scaling check at {label}: {(problems + run_problems)[0]}",
                      file=sys.stderr)
                failed += 1
            best = {layer: min(best[layer], times[layer]) for layer in SCALE_LAYERS}
        for layer in SCALE_LAYERS:
            out[f"scale.{label}.{layer}_ms_per_ktok"] = best[layer] * 1e6 / max(words, 1)
    (small, *_), (large, *_) = SCALE_SIZES
    for layer in SCALE_LAYERS:
        base = out[f"scale.{small}.{layer}_ms_per_ktok"]
        large_cost = out[f"scale.{large}.{layer}_ms_per_ktok"]
        # a layer never reached (its story failed early) has no growth
        out[f"scale.growth.{layer}"] = large_cost / base if base else 0.0
    return out, runs, failed
