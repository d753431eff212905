#!/usr/bin/env python3
"""Benchmark for retold: one closed-loop client, one op at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval-corpus --seed 1 --seconds 35 --trace 0

Workloads (sizes in workloads.py):

* ``corpus-voices``  synthetic stories of 2400 NEUTRAL words (~120 timespans,
  ten times a fixture), some propositions reused through ``ref``; one op is
  one story parsed, validated, transformed, styled in all four voices and
  realized. Generation does the work, scoring none.
* ``eval-corpus``    scoring only; one op is one ``metrics.score_pair`` on a
  pair of tellings of 160 to 390 words a side, from near (one voice, two
  seeds) to far (NEUTRAL against LAID-BACK). Scoring does all the work.

Inputs come from ``--seed`` alone and are built before timing. Every output is
checked outside the timed region, against an untimed first pass, the
fixtures or an edit-distance oracle. The last stdout line is the result: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the interpreter, the machine, the
edit-distance backend, the input sizes and the times as measured.

Times are calibrated (see calibrate.py): a fixed pure-Python kernel is timed
before each op, and the op's time is scaled to the speed at which the kernel
takes ``REF_KERNEL_MS``. On a machine shared with other tenants this removes
most of the drift in speed between runs; the uncalibrated figures are in the
line before the result. ``setup_s`` is the calibrated median time for a fresh
interpreter to import retold and load the lexicon, sampled between passes.

The traced run alternates traced and untraced passes over the same items, so
the difference between the two is the tracing overhead. The README's fixture
commands are run in-process on top, for the layers the workload's ops do not
reach, and fresh interpreters give the start-up and import costs. The traced
run also times one story at 10x and one at 100x fixture size, so that cost
growing faster than the input shows.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

SETUP_MIN_RUNS = 15
# the kernel first, then import retold and load the lexicon; calibrate
# imports nothing that retold would then find already imported
SETUP_PROBE = ("import sys, time; sys.path.insert(0, 'perfbench'); import calibrate; "
               "k = calibrate.import_kernel_factor(); "
               "t0 = time.perf_counter(); import retold; t1 = time.perf_counter(); "
               "retold.default_lexicon(); "
               "print(time.perf_counter() - t0, time.perf_counter() - t1, k)")
PROBE_TIMEOUT_S = 60
COLD_START_RUNS = 7
FIXTURE_PASSES = 3
SHOWN_FAILURES = 5
# op_ms_p90 wants ten samples beyond it
MIN_SAMPLES = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class SetupProbe:
    """Times set-up in a fresh interpreter: import retold and load the
    lexicon. Called between passes, so that its samples spread over the run."""

    def __init__(self, env):
        self.env = env
        # seconds as measured, and the kernel's slowness factor in that process
        self.total: list[float] = []
        self.lexicon: list[float] = []
        self.factor: list[float] = []

    def __call__(self) -> None:
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=self.env,
                             check=True, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
        total, lexicon, factor = map(float, out.stdout.split())
        self.total.append(total)
        self.lexicon.append(lexicon)
        self.factor.append(factor)

    def calibrated(self, times) -> float:
        return statistics.median(t / f for t, f in zip(times, self.factor))


class Loop:
    """Closed loop over a workload's items, one op at a time, each op timed
    and scaled by the speed the calibration kernel shows just before it."""

    def __init__(self, workload, tracer=None, between_passes=None):
        self.workload = workload
        self.tracer = tracer
        self.between_passes = between_passes or (lambda: None)
        # the kernel's slowness factor before each timed op
        self.factors: list[float] = []
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failures: list[str] = []
        # calibrated ms of the timed ops, untraced and traced; measured ms
        self.ms: list[float] = []
        self.ms_traced: list[float] = []
        self.raw: list[float] = []

    def op(self, index: int, traced: bool = False) -> float:
        """Run and check one op; returns its time in ms as measured."""
        w = self.workload
        context = self.tracer.installed() if traced else nullcontext()
        reason = w.bad.get(index)
        output = None
        self.attempted += 1
        with context:
            start = time.perf_counter()
            try:
                output = w.run(index)
            except Exception as exc:  # the op failed; count it and go on
                reason = reason or f"{type(exc).__name__}: {exc}"
            ms = (time.perf_counter() - start) * 1e3
        if reason is None:
            reason = w.check(index, output, self.first.get(index))
        self.first.setdefault(index, output)
        if reason is not None:
            self.failures.append(f"item {index}: {reason}")
        return ms

    def measure(self, seconds: float) -> None:
        """An untimed first pass, then ops back to back for ``seconds``."""
        n = len(self.workload.items)
        if not n:
            return
        for index in range(n):
            self.op(index)
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            index = i % n
            if index == 0:
                self.between_passes()
            # each item alternates between traced and untraced passes
            traced = self.tracer is not None and (index + i // n) % 2 == 1
            factor = calibrate.kernel_factor()
            self.factors.append(factor)
            if traced:
                self.tracer.factor = factor
            ms = self.op(index, traced)
            (self.ms_traced if traced else self.ms).append(ms / factor)
            if not traced:
                self.raw.append(ms)
            i += 1
        # every item's output is compared with a second run at least once
        for index in range(i, n):
            self.op(index)


def fixture_pass(commands, tracer) -> tuple[int, list[str]]:
    """The fixture commands in-process, traced; returns (ops, failures)."""
    from retold import cli

    failures = []
    tracer.factor = calibrate.kernel_factor(5)
    with tracer.installed("fixtures"):
        for _ in range(FIXTURE_PASSES):
            for index, (argv, _) in enumerate(commands.items):
                out, err = io.StringIO(), io.StringIO()
                try:
                    code = cli.run(argv, out=out, err=err)
                except Exception as exc:  # counted as a failed op
                    failures.append(f"in-process {argv[0]}: {type(exc).__name__}: {exc}")
                    continue
                reason = commands.check(index, code, out.getvalue())
                if reason:
                    failures.append(f"in-process {' '.join(argv)}: {reason}")
    return FIXTURE_PASSES * len(commands.items), failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "retold" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: {ROOT} holds no retold sources (src/retold) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import retold
    from retold import metrics

    if Path(retold.__file__).resolve().parent != ROOT / "src" / "retold":
        print(f"perfbench: imported retold from {retold.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = workloads.child_env(ROOT)
    # write the bytecode caches once, so that every timed process finds them
    subprocess.run([sys.executable, "-c", "import retold.cli"], cwd=ROOT, env=env,
                   check=True, timeout=PROBE_TIMEOUT_S)
    setup = SetupProbe(env)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(workload, tracer, setup)
    loop.measure(args.seconds)
    while len(setup.total) < SETUP_MIN_RUNS:
        setup()
    if not loop.ms or (args.trace and not loop.ms_traced):
        print(f"perfbench: {args.seconds} s timed too few ops; give more --seconds",
              file=sys.stderr)
        return 2
    if len(loop.ms) < MIN_SAMPLES:
        print(f"perfbench: only {len(loop.ms)} untraced ops, so op_ms_p90 has fewer than "
              f"ten beyond it", file=sys.stderr)
    attempted = loop.attempted + len(workload.setup_failures)
    failures = workload.setup_failures + loop.failures

    if args.trace:
        ops, fixture_failures = fixture_pass(workloads.FixtureCommands(ROOT, args.seed), tracer)
        attempted += ops
        failures += fixture_failures
        values = tracing.cold_start_probes(ROOT, env, COLD_START_RUNS, tracer)
        values.update(tracing.layer_metrics(tracer))
        values["lexicon.load_ms"] = setup.calibrated(setup.lexicon) * 1e3
        scale, runs, scale_failed = tracing.scaling_check(args.seed, workloads.REF_RATE)
        values.update(scale)
        attempted += runs
        failures += [f"scaling check run {i}" for i in range(scale_failed)]
        plain, traced = statistics.median(loop.ms), statistics.median(loop.ms_traced)
        values["trace.overhead_ms"] = traced - plain
        values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    else:
        values = {
            "ops_per_s": len(loop.ms) / (sum(loop.ms) / 1e3),
            "op_ms_p50": statistics.median(loop.ms),
            "op_ms_p90": p90(loop.ms),
            "setup_s": setup.calibrated(setup.total),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - len(failures)) / attempted,
        }

    if set(values) != set(wanted):
        print(f"perfbench: metrics differ from {SPEC.name}: missing "
              f"{sorted(set(wanted) - set(values))}, extra {sorted(set(values) - set(wanted))}",
              file=sys.stderr)
        return 3
    for reason in failures[:SHOWN_FAILURES]:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            # the backend switch may be removed; then there is only one
            "edit_distance_backend": getattr(metrics, "BACKEND", "single"),
            "ref_kernel_ms": calibrate.REF_KERNEL_MS,
            "speed_factor_median": statistics.median(loop.factors),
        },
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": len(workload.items),
        # the sample counts behind the percentiles, and the times uncalibrated
        "timed_ops": len(loop.ms), "traced_ops": len(loop.ms_traced),
        "measured": {"op_ms_p50": statistics.median(loop.raw), "op_ms_p90": p90(loop.raw),
                     "setup_s": statistics.median(setup.total)},
        "inputs": workload.inputs(loop.first),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
