"""Command line entry point.

Subcommands wire the pipeline end to end:

    retold validate <story>
    retold generate <story> [--voice V] [--seed N] [--emit-dsynts] [--output F]
    retold eval --candidate F --reference F [--no-stem] [--json F]
    retold pipeline <story> --reference F [--no-stem] [--json F]

Exit codes: 0 success, 1 validation failure, 2 usage, I/O or syntax errors,
130 Ctrl-C. A diagnostic of a story file names the line that declares its
location (``error: line 8: t0.p0: ...``).
Output is byte-identical across runs for equal inputs (the seed included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import dsynt, metrics, realize, story, style, transform
from .diagnostics import ERROR


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # one `retold:` line, not argparse's usage block
        raise _CliError(message, 2)


def _read_file(path: str) -> str:
    """The text of ``path``. It is decoded as "utf-8", not "utf-8-sig", so a
    bad byte's offset counts a byte-order mark; the story parser and the
    tokenizer drop the mark (see :func:`metrics.without_bom`)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}", 2) from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not UTF-8 text (byte {exc.start})", 2) from exc


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}", 2) from exc


def _load_story(path: str) -> story.StoryGraph:
    try:
        return story.parse_story(_read_file(path))
    except story.StoryError as exc:
        raise _CliError(f"{path}: {exc}", 2) from exc


def _print_diagnostics(graph: story.StoryGraph, diagnostics, file) -> None:
    for d in diagnostics:
        line = story.line_of(graph, d.location)
        print(d if line is None else f"{d.severity}: line {line}: {d.location}: {d.message}",
              file=file)


def _transformed_story(path: str, err) -> tuple[story.StoryGraph, dsynt.Document]:
    graph = _load_story(path)
    try:
        return graph, transform.transform_story(graph)
    except transform.TransformError as exc:
        _print_diagnostics(graph, exc.diagnostics, err)
        raise _CliError(f"{path}: story is not valid", 1) from exc


def cmd_validate(args, out, err) -> int:
    graph = _load_story(args.story)
    diagnostics = story.validate_story(graph)
    _print_diagnostics(graph, diagnostics, out)
    if any(d.severity == ERROR for d in diagnostics):
        return 1
    print(f"{args.story}: ok", file=out)
    return 0


def cmd_generate(args, out, err) -> int:
    _, doc = _transformed_story(args.story, err)
    try:
        model = style.load_voice(args.voice)
    except style.VoiceError as exc:
        raise _CliError(str(exc), 2) from exc
    styled, _decisions = style.apply_voice(doc, model, args.seed)
    text = realize.realize_document(styled)
    if args.output:
        _write_file(args.output, text + "\n")
    else:
        print(text, file=out)
    if args.emit_dsynts:
        if not args.output:
            print(file=out)
        print(dsynt.serialize(styled), end="", file=out)
    return 0


def _score(pair: metrics.EvalPair, args, out, telling: Optional[str] = None) -> None:
    """Score ``pair`` and write the ``--json`` report, then print
    ``telling`` (if given) and a blank line, then the scores. The report is
    written first, so a failed write prints nothing."""
    try:
        report = metrics.corpus_report([pair], use_stemming=not args.no_stem)
    except ValueError as exc:
        raise _CliError(str(exc), 2) from exc
    if args.json:
        _write_file(args.json, metrics.report_to_json(report) + "\n")
    if telling is not None:
        print(telling, end="\n\n", file=out)
    row = report.rows[0]
    print(f"levenshtein: {row.levenshtein}", file=out)
    print(f"bleu: {row.bleu:.4f}", file=out)


def cmd_eval(args, out, err) -> int:
    _score(metrics.EvalPair(_read_file(args.candidate), _read_file(args.reference),
                            label=Path(args.candidate).stem), args, out)
    return 0


def cmd_pipeline(args, out, err) -> int:
    reference = _read_file(args.reference)
    if not metrics.tokenize(reference):
        raise _CliError(f"{args.reference}: reference text has no words", 2)
    graph, doc = _transformed_story(args.story, err)
    text = realize.realize_document(doc)
    _score(metrics.EvalPair(text, reference, label=graph.id), args, out, telling=text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="retold",
        description="Regenerate and restyle story tellings from timeline encodings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a story file and report diagnostics")
    p.add_argument("story")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="realize a story in a given voice")
    p.add_argument("story")
    p.add_argument("--voice", default="NEUTRAL",
                   help="built-in voice name or a voice file path (default NEUTRAL)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-dsynts", action="store_true",
                   help="also print the serialized dependency trees")
    p.add_argument("--output", help="write the realized text to a file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score a candidate text against a reference")
    p.add_argument("--candidate", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--no-stem", action="store_true", help="score raw tokens")
    p.add_argument("--json", help="also write a machine-readable report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="generate neutrally and score in one step")
    p.add_argument("story")
    p.add_argument("--reference", required=True)
    p.add_argument("--no-stem", action="store_true")
    p.add_argument("--json", help="also write a machine-readable report")
    p.set_defaults(func=cmd_pipeline)
    return parser


def run(argv: Optional[list[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, out, err)
    except _CliError as exc:
        print(f"retold: {exc}", file=err)
        return exc.code
    except OSError as exc:
        print(f"retold: {exc}", file=err)
        return 2
    except KeyboardInterrupt:
        print("retold: interrupted", file=err)
        return 130


def main() -> None:
    sys.exit(run())
