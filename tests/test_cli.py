import copy
import errno
import io
import os
import random

import pytest

from retold import cli, metrics
from retold import story as st
from retold.cli import run
from retold.style import BUILTIN_VOICES
from conftest import FIXTURES, fixture_text, nested_story, ref_chain_story

FOX = str(FIXTURES / "fox_and_grapes.story")
LION = str(FIXTURES / "lion_and_boar.story")
GOLDEN = str(FIXTURES / "fox_and_grapes.golden.txt")
LION_GOLDEN = str(FIXTURES / "lion_and_boar.golden.txt")
REFERENCE = str(FIXTURES / "fox_and_grapes.reference.txt")
FOX_BYTES = (FIXTURES / "fox_and_grapes.story").read_bytes()
# the fox fixture with one byte replaced by one that is never valid UTF-8
NOT_UTF8_STORY = FOX_BYTES[:60] + b"\xff" + FOX_BYTES[61:]


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_ok():
    code, out, err = invoke("validate", FOX)
    assert code == 0
    assert "ok" in out


def test_validate_failure_exits_1(tmp_path):
    bad = tmp_path / "bad.story"
    bad.write_text('story x "X"\n\nentities\n  fox character fox\n\n'
                   'timeline\n  0:\n    obtain obtain(Agent=fox)\n', encoding="utf-8")
    code, out, err = invoke("validate", str(bad))
    assert code == 1
    assert "mandatory role Theme unbound" in out


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "broken.story"
    bad.write_text("not a story\n", encoding="utf-8")
    code, out, err = invoke("validate", str(bad))
    assert code == 2
    assert "retold:" in err


def test_missing_file_exits_2():
    code, out, err = invoke("validate", "no/such/file.story")
    assert code == 2


def test_generate_neutral_matches_golden_text():
    code, out, err = invoke("generate", FOX)
    assert code == 0
    assert out.strip() == fixture_text("fox_and_grapes.golden.txt").strip()


def test_generate_emit_dsynts_appends_trees():
    code, out, err = invoke("generate", FOX, "--emit-dsynts")
    assert code == 0
    assert "<document>" in out
    assert out.index("The group of grapes") < out.index("<document>")


def test_generate_styled_output_differs_and_is_deterministic():
    code1, out1, _ = invoke("generate", FOX, "--voice", "LAID-BACK", "--seed", "7")
    code2, out2, _ = invoke("generate", FOX, "--voice", "LAID-BACK", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip() != fixture_text("fox_and_grapes.golden.txt").strip()


def test_generate_unknown_voice_exits_2():
    code, out, err = invoke("generate", FOX, "--voice", "BOGUS")
    assert code == 2


def test_an_empty_voice_name_names_no_voice():
    # Path("") is the working directory, which is no voice file either
    code, out, err = invoke("generate", FOX, "--voice", "")
    assert (code, out, err) == (2, "", "retold: no built-in voice or voice file ''\n")


def test_generate_voice_file(tmp_path):
    voice = tmp_path / "loud.voice"
    voice.write_text("voice LOUD\nexclamation: 1.0\n", encoding="utf-8")
    code, out, err = invoke("generate", FOX, "--voice", str(voice))
    assert code == 0
    assert out.count("!") == 8


def test_voice_file_that_sets_a_parameter_twice_exits_2(tmp_path):
    voice = tmp_path / "twice.voice"
    voice.write_text("voice LOUD\nexclamation: 1.0\nexclamation: 0.0\n", encoding="utf-8")
    code, out, err = invoke("generate", FOX, "--voice", str(voice))
    assert code == 2
    assert out == ""
    assert err == f"retold: {voice}: line 3: exclamation already set on line 2\n"


def test_generate_output_file(tmp_path):
    target = tmp_path / "story.txt"
    code, out, err = invoke("generate", FOX, "--output", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").strip() == \
        fixture_text("fox_and_grapes.golden.txt").strip()


def test_eval_prints_scores():
    code, out, err = invoke("eval", "--candidate", GOLDEN, "--reference", REFERENCE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("levenshtein: ")
    assert lines[1].startswith("bleu: 0.")


def test_eval_json_report(tmp_path):
    target = tmp_path / "report.json"
    code, out, err = invoke("eval", "--candidate", GOLDEN, "--reference", REFERENCE,
                            "--json", str(target))
    assert code == 0
    import json
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["aggregate"]["levenshtein"]["mean"] == float(
        out.splitlines()[0].split(": ")[1])


@pytest.mark.parametrize("argv", [
    ["eval", "--candidate", GOLDEN, "--reference", REFERENCE, "--json", "{target}"],
    ["generate", FOX, "--output", "{target}", "--emit-dsynts"],
    ["pipeline", LION, "--reference", LION_GOLDEN, "--json", "{target}"],
], ids=["eval-json", "generate-output", "pipeline-json"])
def test_a_failed_write_gives_one_message_line(tmp_path, argv):
    # a directory cannot be written as a file; nothing reaches stdout first
    code, out, err = invoke(*(a.format(target=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"retold: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"


def test_a_voice_that_cannot_be_read_gives_one_message_line(tmp_path):
    # a directory exists but cannot be read as a voice file
    code, out, err = invoke("generate", FOX, "--voice", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"retold: cannot read {tmp_path}: {os.strerror(errno.EISDIR)}\n"


def test_an_interrupt_gives_one_message_line(monkeypatch):
    # Ctrl-C during a long edit distance is one line and the shell's code 130
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(metrics, "corpus_report", interrupted)
    code, out, err = invoke("eval", "--candidate", GOLDEN, "--reference", REFERENCE)
    assert (code, out, err) == (130, "", "retold: interrupted\n")


def test_eval_no_stem_flag():
    code, out, _ = invoke("eval", "--candidate", GOLDEN, "--reference", GOLDEN, "--no-stem")
    assert code == 0
    assert "levenshtein: 0" in out


def test_pipeline_generates_and_scores():
    code, out, err = invoke("pipeline", LION, "--reference",
                            str(FIXTURES / "lion_and_boar.golden.txt"))
    assert code == 0
    assert "The air was hot." in out
    assert "levenshtein: 0" in out
    assert "bleu: 1.0000" in out


def test_identical_invocations_are_byte_identical():
    first = invoke("pipeline", FOX, "--reference", REFERENCE)
    second = invoke("pipeline", FOX, "--reference", REFERENCE)
    assert first == second


def test_generate_on_invalid_story_exits_1(tmp_path):
    bad = tmp_path / "bad.story"
    bad.write_text('story x "X"\n\nentities\n  fox character fox\n\n'
                   'timeline\n  0:\n    obtain obtain(Agent=fox)\n', encoding="utf-8")
    code, out, err = invoke("generate", str(bad))
    assert code == 1
    assert "unbound" in err


@pytest.mark.parametrize("argv", [["generate", FOX], ["pipeline", FOX, "--reference", REFERENCE]])
def test_each_command_validates_once(monkeypatch, argv):
    calls = []
    validate = st.validate_story
    monkeypatch.setattr(st, "validate_story", lambda *a: calls.append(a) or validate(*a))
    code, out, err = invoke(*argv)
    assert code == 0, err
    assert len(calls) == 1


def test_an_invalid_story_is_reported_before_a_bad_voice(tmp_path):
    bad = tmp_path / "bad.story"
    bad.write_text('story x "X"\n\nentities\n  fox character fox\n\n'
                   'timeline\n  0:\n    obtain obtain(Agent=fox)\n', encoding="utf-8")
    code, out, err = invoke("generate", str(bad), "--voice", "NO_SUCH_VOICE")
    assert code == 1
    assert out == ""
    assert err == ("error: line 8: t0.p0: mandatory role Theme unbound\n"
                   f"retold: {bad}: story is not valid\n")


def test_generate_output_file_with_emitted_trees(tmp_path):
    target = tmp_path / "story.txt"
    code, out, err = invoke("generate", FOX, "--output", str(target), "--emit-dsynts")
    assert code == 0
    assert "<document>" in out
    assert target.read_text(encoding="utf-8").startswith("The group of grapes")


@pytest.mark.parametrize("content, argv, code", [
    ('story x "X"\n\nentities\n  fox character fox\n\n'
     'timeline\n  0:\n    obtain obtain(Agent=fox, Theme=@ripe)\n',
     ["generate", "{input}"], 1),
    ("voice X\nexclamation: 1.2.3\n", ["generate", FOX, "--voice", "{input}"], 2),
    (" \n", ["pipeline", FOX, "--reference", "{input}"], 2),
    ("... \u2014\n", ["pipeline", FOX, "--reference", "{input}"], 2),
    ("...\n", ["eval", "--candidate", "{input}", "--reference", REFERENCE], 2),
    (ref_chain_story(30), ["generate", "{input}"], 1),
    (NOT_UTF8_STORY, ["generate", "{input}"], 2),
    (b"voice X\nexclamation: 1.0 # \xe9\n", ["generate", FOX, "--voice", "{input}"], 2),
    (nested_story(st.MAX_NESTING_DEPTH + 1), ["generate", "{input}", "--voice", "FORMAL"], 2),
    (ref_chain_story(st.MAX_NESTING_DEPTH + 1, uses=1), ["generate", "{input}", "--voice", "SHY"],
     1),
    ('story x "X"\n\nentities\n  fox character fox\n\n'
     'timeline\n  \u0660:\n    jump jump(Agent=fox)\n', ["validate", "{input}"], 2),
], ids=["property-argument-story", "bad-voice-value", "blank-reference",
        "punctuation-only-reference", "punctuation-only-candidate",
        "ref-expansion-over-budget", "story-not-utf8", "voice-not-utf8",
        "nesting-past-the-bound", "ref-nesting-past-the-bound", "timespan-index-not-ascii"])
def test_bad_input_gives_one_message_line(tmp_path, content, argv, code):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    got, out, err = invoke(*(a.format(input=path) for a in argv))
    assert got == code
    assert len([line for line in err.splitlines() if line.startswith("retold:")]) == 1
    assert out == ""


BOM = "\ufeff".encode("utf-8")  # the UTF-8 byte-order mark, 3 bytes


def test_a_reference_with_a_byte_order_mark_scores_as_without(tmp_path):
    reference = tmp_path / "golden.txt"
    reference.write_bytes(BOM + (FIXTURES / "fox_and_grapes.golden.txt").read_bytes())
    code, out, err = invoke("eval", "--candidate", GOLDEN, "--reference", str(reference))
    assert code == 0, err
    assert out.splitlines() == ["levenshtein: 0", "bleu: 1.0000"]


def test_a_story_with_a_byte_order_mark_validates_and_generates(tmp_path):
    path = tmp_path / "fox.story"
    path.write_bytes(BOM + FOX_BYTES)
    assert invoke("validate", str(path)) == (0, f"{path}: ok\n", "")
    assert invoke("generate", str(path)) == invoke("generate", FOX)


def test_a_voice_file_with_a_byte_order_mark_loads(tmp_path):
    voice = tmp_path / "loud.voice"
    voice.write_bytes(BOM + b"voice LOUD\nexclamation: 1.0\n")
    code, out, err = invoke("generate", FOX, "--voice", str(voice))
    assert code == 0, err
    assert out.count("!") == 8


@pytest.mark.parametrize("content, argv", [
    (NOT_UTF8_STORY, ["validate", "{input}"]),
    (b"voice X\n\xff", ["generate", FOX, "--voice", "{input}"]),
], ids=["story", "voice"])
def test_a_bad_byte_after_a_byte_order_mark_is_counted_from_the_file_start(tmp_path, content,
                                                                         argv):
    path = tmp_path / "input"
    path.write_bytes(BOM + content)
    bad = len(BOM) + content.index(b"\xff")
    code, out, err = invoke(*(a.format(input=path) for a in argv))
    assert code == 2
    assert err == f"retold: {path}: not UTF-8 text (byte {bad})\n"


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One random edit of a story file: a line deleted, duplicated or
    dedented, or one character or one raw byte replaced."""
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        lines[i] = lines[i][2:] if lines[i].startswith(b"  ") else lines[i].lstrip()
    elif kind == 3:
        text = data.decode("utf-8")
        k = rng.randrange(len(text))
        return (text[:k] + rng.choice("()=:@,\"# \tx0é\u2019") + text[k + 1:]).encode("utf-8")
    else:
        k = rng.randrange(len(data))
        return data[:k] + bytes([rng.randrange(256)]) + data[k + 1:]
    return b"\n".join(lines)


def _check_error_contract(path, n):
    """Every command on the story at ``path`` exits 0, 1 or 2, with one
    ``retold:`` line for exit 2; once validate says ok, every later command
    succeeds."""
    valid = False
    for argv in (["validate", str(path)],
                 *(["generate", str(path), "--voice", v] for v in BUILTIN_VOICES),
                 ["pipeline", str(path), "--reference", REFERENCE]):
        code, out, err = invoke(*argv)
        assert code in (0, 1, 2), (n, argv[0], code)
        if code == 2:
            messages = [line for line in err.splitlines() if line.startswith("retold:")]
            assert len(messages) == 1, (n, argv[0], err)
        if argv[0] == "validate":
            valid = code == 0
        elif valid:
            # validate said ok, so every later command must succeed
            assert code == 0, (n, argv, err)
            assert out.strip(), (n, argv)


def test_mutated_stories_never_escape_the_error_contract(tmp_path):
    rng = random.Random(20261018)
    sources = [FOX_BYTES, (FIXTURES / "lion_and_boar.story").read_bytes()]
    path = tmp_path / "mutant.story"
    for n in range(200):
        path.write_bytes(_mutate(rng.choice(sources), rng))
        _check_error_contract(path, n)


def _shift_indent(data: bytes, rng: random.Random) -> bytes:
    """One line of a story file, not blank, indented 1 to 4 spaces deeper
    or shallower (down to none)."""
    lines = data.split(b"\n")
    i = rng.choice([k for k, line in enumerate(lines) if line.strip()])
    shift = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    if shift > 0:
        lines[i] = b" " * shift + lines[i]
    else:
        indent = len(lines[i]) - len(lines[i].lstrip(b" "))
        lines[i] = lines[i][min(-shift, indent):]
    return b"\n".join(lines)


def test_reindented_stories_never_escape_the_error_contract(tmp_path):
    rng = random.Random(20261020)
    sources = [FOX_BYTES, (FIXTURES / "lion_and_boar.story").read_bytes()]
    path = tmp_path / "mutant.story"
    for n in range(200):
        path.write_bytes(_shift_indent(rng.choice(sources), rng))
        _check_error_contract(path, n)


def test_story_nested_to_the_bound_validates_generates_and_copies(tmp_path):
    path = tmp_path / "deep.story"
    text = nested_story(st.MAX_NESTING_DEPTH)
    path.write_text(text, encoding="utf-8")
    assert invoke("validate", str(path)) == (0, f"{path}: ok\n", "")
    for voice in BUILTIN_VOICES:
        code, out, err = invoke("generate", str(path), "--voice", voice, "--emit-dsynts")
        assert code == 0, (voice, err)
        assert out.count("<document>") == 1
    code, out, err = invoke("pipeline", str(path), "--reference", REFERENCE)
    assert code == 0, err
    graph, again = st.parse_story(text), st.parse_story(text)
    assert graph == again and hash(graph) == hash(again)
    assert repr(graph) == repr(again)
    assert st.parse_story(st.serialize_story(graph)) == graph
    assert copy.deepcopy(graph) == graph


def test_story_with_no_timespans_fails_validation(tmp_path):
    # an indented header reads as a line of the `original` block, which
    # leaves the timeline empty; the validator names the swallowed header
    path = tmp_path / "indented.story"
    path.write_bytes(FOX_BYTES.replace(b"\ntimeline\n", b"\n timeline\n", 1))
    code, out, err = invoke("validate", str(path))
    assert code == 1
    # the file has no `timeline` header, so that error names no line
    line = FOX_BYTES.split(b"\n").index(b"original") + 1
    assert out == (f"warning: line {line}: original: line 'timeline' is a section name; "
                   "is its header indented?\n"
                   "error: timeline: timeline has no timespans\n")
    for argv in (["generate", str(path)], ["pipeline", str(path), "--reference", REFERENCE]):
        code, out, err = invoke(*argv)
        assert code == 1, argv
        assert out == "", argv
        assert "timeline has no timespans" in err


def _voice_file(rng: random.Random) -> bytes:
    """A built-in voice written out as a voice file, with one random edit:
    a line dropped, duplicated or garbled, a value out of range, or an
    unknown parameter."""
    model = rng.choice(list(BUILTIN_VOICES.values()))
    lines = [f"voice {model.name}"] + [f"{k}: {v}" for k, v in model.params.items()]
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        k = rng.randrange(len(lines[i]))
        lines[i] = lines[i][:k] + rng.choice(":.# x-09é\t") + lines[i][k + 1:]
    elif kind == 3 and i > 0:
        value = rng.choice(["1.5", "2", "10", "1.0001", "-0.5", "1e3", ".5.", ""])
        lines[i] = lines[i].split(":")[0] + ": " + value
    else:
        lines.insert(i + 1, f"{rng.choice(['loudness', 'Exclamation', 'stutter'])}: 0.5")
    return "\n".join(lines).encode("utf-8") + b"\n"


def test_mutated_voice_files_never_escape_the_error_contract(tmp_path):
    rng = random.Random(20261019)
    path = tmp_path / "mutant.voice"
    codes = set()
    for n in range(200):
        path.write_bytes(_voice_file(rng))
        code, out, err = invoke("generate", FOX, "--voice", str(path))
        codes.add(code)
        assert code in (0, 2), (n, code, err)
        if code == 2:
            messages = [line for line in err.splitlines() if line.startswith("retold:")]
            assert len(messages) == 1, (n, err)
            assert "Traceback" not in err
            assert out == ""
        else:
            assert out.strip(), n
    assert codes == {0, 2}


def test_a_repeated_field_gives_one_message_line(tmp_path):
    path = tmp_path / "twice.story"
    path.write_text('story x "X"\n\nentities\n  fox character fox\n'
                    '  grapes object group group_of=grape\n\ntimeline\n  0:\n'
                    '    see see(Experiencer=fox, Stimulus=grapes) polarity=neg polarity=aff\n',
                    encoding="utf-8")
    for command in ("validate", "generate"):
        code, out, err = invoke(command, str(path))
        assert code == 2
        assert out == ""
        lines = [line for line in err.splitlines() if line.startswith("retold:")]
        assert len(lines) == 1
        assert "line 9: repeated proposition field 'polarity'" in lines[0]


def test_a_repeated_adverb_gives_one_message_line(tmp_path):
    path = tmp_path / "now_now.story"
    path.write_text('story x "X"\n\nentities\n  fox character fox\n\ntimeline\n  0:\n'
                    '    jump jump(Agent=fox) adv=now@pre adv=now@pre\n', encoding="utf-8")
    message = "error: line 8: t0.p0: repeated adverb 'now' at pre_verb\n"
    assert invoke("validate", str(path)) == (1, message, "")
    assert invoke("generate", str(path)) == (1, "", message
                                             + f"retold: {path}: story is not valid\n")


# lines 1-8; the first proposition is line 9
LINES_HEAD = ('story x "X"\n\nentities\n  fox character fox\n'
              '  grapes object group group_of=grape\n\ntimeline\n  0:\n')
JUMP = "    jump jump(Agent=fox)\n"


# each rule the validator holds a file to that the parser used to hold it
# to, with the one line `validate` prints for it
@pytest.mark.parametrize("content, line", [
    (LINES_HEAD.replace("fox character fox", "fox beast fox") + JUMP,
     "error: line 4: fox: bad entity kind 'beast'"),
    (LINES_HEAD.replace("fox character fox", "fox character fox number=dual") + JUMP,
     "error: line 4: fox: bad number 'dual'"),
    (LINES_HEAD.replace("fox character fox", "fox character fox pronoun=xe") + JUMP,
     "error: line 4: fox: bad pronoun 'xe'"),
    (LINES_HEAD.replace("fox character fox", "fox character fox mod=hot,hot") + JUMP,
     "error: line 4: fox: repeated modifier 'hot'"),
    # the id is declared on lines 4 and 5, so the error names neither
    (LINES_HEAD.replace("grapes object group group_of=grape", "fox character fox") + JUMP,
     "error: fox: duplicate entity id"),
    (LINES_HEAD + "    fly jump(Agent=fox)\n", "error: line 9: t0.p0: unknown frame 'fly'"),
    (LINES_HEAD + "    jump jump(Agent=wolf)\n", "error: line 9: t0.p0: unknown entity 'wolf'"),
    (LINES_HEAD + "  1:\n" + JUMP, "error: line 8: t0: timespan has no propositions"),
    (LINES_HEAD + "    jump jump(Agent=fox) adv=now@pre adv=now@pre\n",
     "error: line 9: t0.p0: repeated adverb 'now' at pre_verb"),
    # the to-infinitive does not tell the crow, so no voice would tell it
    (LINES_HEAD.replace("  grapes", "  crow character crow\n  grapes")
     + "    want want(Experiencer=fox)\n      role Action:\n"
       "        eat eat(Agent=crow, Patient=grapes)\n",
     "error: line 10: t0.p0: role Action must nest a clause with this proposition's subject"),
], ids=["entity-kind", "number", "pronoun", "repeated-modifier", "duplicate-entity",
        "unknown-frame", "unknown-entity", "empty-timespan", "repeated-adverb",
        "uncontrolled-subject"])
def test_a_validation_error_names_its_line(tmp_path, content, line):
    path = tmp_path / "bad.story"
    path.write_text(content, encoding="utf-8")
    assert invoke("validate", str(path)) == (1, line + "\n", "")
    for argv in (["generate", str(path)], ["pipeline", str(path), "--reference", REFERENCE]):
        assert invoke(*argv) == (1, "", f"{line}\nretold: {path}: story is not valid\n")


# rules the parser holds a file to, each one message line at its line
@pytest.mark.parametrize("content, message", [
    ('story x "X"\n\nentities\n  fox character fox\n\ntimeline\n  0:\n'
     "    jump jump(Agent=fox) id=a\n    walk walk(Agent=fox) id=a\n",
     "line 9: duplicate proposition id 'a'"),
    (LINES_HEAD + JUMP + "      prep on fox\n", "line 10: bad preposition line 'prep on fox'"),
    (LINES_HEAD + JUMP + "      prep with: ,\n", "line 10: bad preposition line 'prep with: ,'"),
], ids=["duplicate-proposition-id", "preposition-line", "preposition-line-with-no-target"])
def test_a_syntax_error_names_its_line(tmp_path, content, message):
    path = tmp_path / "bad.story"
    path.write_text(content, encoding="utf-8")
    for command in ("validate", "generate"):
        assert invoke(command, str(path)) == (2, "", f"retold: {path}: {message}\n")


def test_a_graph_built_in_code_prints_its_diagnostics_as_before(fox_graph):
    # no line table: a graph built in code, and a copy of a parsed one
    entities = tuple(e.replace(kind="beast") if e.id == "fox" else e for e in fox_graph.entities)
    for g in (fox_graph.replace(entities=entities),
              st.parse_story(fixture_text("fox_and_grapes.story").replace(
                  "fox character fox", "fox beast fox")).replace()):
        diagnostics = st.validate_story(g)
        out = io.StringIO()
        cli._print_diagnostics(g, diagnostics, out)
        assert out.getvalue() == "error: fox: bad entity kind 'beast'\n"
        assert [str(d) for d in diagnostics] == ["error: fox: bad entity kind 'beast'"]


@pytest.mark.parametrize("argv, message", [
    (["generate", FOX, "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
    (["validate", FOX, "--bogus"], "unrecognized arguments: --bogus"),
], ids=["bad-int", "no-subcommand", "unknown-flag"])
def test_a_usage_error_is_one_message_line(argv, message):
    assert invoke(*argv) == (2, "", f"retold: {message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["generate", "--help"]])
def test_help_is_printed_with_exit_code_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: retold")
