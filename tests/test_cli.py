"""Command line front end: exit codes, formats, env fallbacks, tracing."""

import json
import subprocess
import sys

import pytest

from clgram import fragment_source
from clgram.cli import main
from clgram.reader import MAX_TERM_DEPTH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_grammatical_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "dat arie wil slapen")
        assert code == 0
        assert "grammatical: yes (1 derivation, 1 reading)" in out
        assert "reading 1: sem_obj{" in out

    def test_ungrammatical_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "dat arie bob wil slapen")
        assert code == 1
        assert "grammatical: no" in out

    def test_unknown_token_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "parse", "dat arie frobnicates")
        assert code == 2
        assert "error:" in err and "frobnicates" in err

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "parse",
                               "dat arie vandaag bob wil slaan",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["grammatical"] is True
        assert data["derivations"] == 2
        assert data["tokens"] == ["arie", "vandaag", "bob", "wil", "slaan"]
        assert len(data["readings"]) == 2
        for reading in data["readings"]:
            assert reading["sort"] == "sem_obj"
        assert json.loads(run_cli(capsys, "parse",
                                  "dat arie vandaag bob wil slaan",
                                  "--format", "json")[1]) == data

    def test_text_and_json_counts_agree(self, capsys):
        sentence = "dat arie bob vandaag toevallig wil kussen"
        _, out_text, _ = run_cli(capsys, "parse", sentence)
        _, out_json, _ = run_cli(capsys, "parse", sentence, "--format", "json")
        data = json.loads(out_json)
        assert f"({data['derivations']} derivations, " \
               f"{len(data['readings'])} readings)" in out_text

    def test_avm_dump(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "dat arie wil slapen", "--avm")
        assert code == 0
        assert "derivation 1: cluster [wil slapen]" in out
        assert "@finite{" in out

    def test_avm_replays_untraced(self, capsys):
        # two of the three derivations share a reading, so --avm replays
        # the attempt for the second one's sign
        sentence = "dat arie bob vandaag wil kussen"
        _, traced, events = run_cli(capsys, "parse", sentence, "--trace")
        code, out, err = run_cli(capsys, "parse", sentence, "--trace", "--avm")
        assert code == 0 and out.count("\nderivation ") == 3
        assert err == events and "call    lexical_entry" in err
        assert out == run_cli(capsys, "parse", sentence, "--avm")[1]
        assert out.startswith(traced)

    def test_enable_slash_changes_judgment(self, capsys):
        code, _, _ = run_cli(capsys, "parse", "dat arie wil slaan")
        assert code == 1
        code, _, _ = run_cli(capsys, "parse", "dat arie wil slaan",
                             "--enable-slash")
        assert code == 0

    def test_max_depth_flag_reports_limit(self, capsys):
        code, _, err = run_cli(capsys, "parse", "dat arie bob kust",
                               "--max-depth", "3")
        assert code == 2
        assert "error:" in err

    def test_custom_lexicon_word_parses(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("zzann\tnoun\n"
                       "zzslapen\tverb\tframe=iv soa=zz_soa roles=a phon=zzslaap\n")
        code, out, _ = run_cli(capsys, "parse", "dat zzann zzslaapt",
                               "--lexicon", str(lex))
        assert code == 0
        assert "grammatical: yes (1 derivation, 1 reading)" in out

    def test_soa_naming_a_grammar_sort_is_a_lexicon_error(self, capsys, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("zzann\tnoun\nzz\tverb\tframe=iv soa=noun roles=a\n")
        code, _, err = run_cli(capsys, "parse", "dat zzann zzt", "--lexicon", str(lex))
        assert code == 2
        assert err == "error: line 2: soa 'noun' names an existing sort\n"


class TestCorpusCommand:
    def test_packaged_corpus_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "corpus")
        assert code == 0
        assert "16/16 passed" in out
        assert "FAIL" not in out

    def test_failing_line_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("dat arie wil slapen\t*\ndat arie bob kust\t1\n")
        code, out, _ = run_cli(capsys, "corpus", "--corpus", str(bad))
        assert code == 1
        assert "FAIL  dat arie wil slapen  (expected *, got 1)" in out
        assert "PASS  dat arie bob kust" in out
        assert "1/2 passed" in out

    def test_erroring_line_is_a_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("dat arie zzz wil slapen\t1\n")
        code, out, _ = run_cli(capsys, "corpus", "--corpus", str(bad))
        assert code == 1
        assert "FAIL" in out

    def test_empty_corpus_warns(self, capsys, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code, _, err = run_cli(capsys, "corpus", "--corpus", str(empty))
        assert code == 0
        assert "empty" in err

    def test_json_summary(self, capsys, tmp_path):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("dat arie bob kust\t1\ndat arie wil slapen\t*\n")
        code, out, _ = run_cli(capsys, "corpus", "--corpus", str(corpus),
                               "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] == 1 and data["failed"] == 1
        assert len(data["results"]) == 2

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_trace_prints_events_to_stderr(self, capsys, tmp_path,
                                           monkeypatch, how):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("dat arie bob kust\t1\ndat arie wil slapen\t*\n")
        argv = ["corpus", "--corpus", str(corpus)]
        _, plain, quiet = run_cli(capsys, *argv)
        if how == "env":
            monkeypatch.setenv("TRACE", "1")
        else:
            argv.append("--trace")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == plain and "PASS  dat arie bob kust" in out
        assert quiet == ""
        assert any(line.startswith("call    lexical_entry")
                   for line in err.splitlines())


class TestTraceCommand:
    def test_goal_shows_suspend_then_resume(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--goal",
                               "concat(A, [b], C), eq(A, [a]).")
        assert code == 0
        lines = out.splitlines()
        suspend = next(i for i, l in enumerate(lines) if l.startswith("suspend"))
        resume = next(i for i, l in enumerate(lines) if l.startswith("resume"))
        assert suspend < resume
        assert "A = ⟨a⟩" in out
        assert "C = ⟨a, b⟩" in out

    def test_ground_goal_never_suspends(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--goal",
                               "concat([a], [b], C).")
        assert code == 0
        assert "suspend" not in out
        assert "C = ⟨a, b⟩" in out

    def test_goal_with_residue_is_conditional(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--goal", "concat(A, [b], C).")
        assert code == 0
        assert "residue: concat(A, ⟨b⟩, C)" in out

    def test_failing_goal(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--goal", "concat([a], [b], []).")
        assert "no solutions" in out

    def test_sentence_mode(self, capsys):
        code, out, err = run_cli(capsys, "trace", "dat arie bob kust")
        assert code == 0
        text = out + err
        assert "call" in text and "lexical_entry" in text

    def test_json_events_one_object_per_line(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--goal",
                               "concat(A, [b], C), eq(A, [a]).",
                               "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        events = [r["event"] for r in records]
        assert {"call", "suspend", "resume", "bind"} <= set(events)
        assert events.index("suspend") < events.index("resume")
        assert records[-2]["event"] == "solution"
        assert records[-2]["bindings"]["C"] == [{"atom": "a"}, {"atom": "b"}]
        assert records[-1] == {"event": "done", "solutions": 1}

    def test_json_sentence_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "dat arie bob kust",
                               "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1] == {"event": "verdict", "grammatical": True,
                               "derivations": 1, "readings": 1}

    @pytest.mark.parametrize("sentence,verdict", [
        ("dat arie wil slapen", "yes (1 derivation, 1 reading)"),
        ("dat arie vandaag bob wil slaan", "yes (2 derivations, 2 readings)"),
        ("dat arie slapen wil", "no (0 derivations, 0 readings)"),
    ])
    def test_sentence_verdict_worded_as_parse(self, capsys, sentence, verdict):
        _, parsed, _ = run_cli(capsys, "parse", sentence)
        code, traced, _ = run_cli(capsys, "trace", sentence)
        assert code == 0
        assert f"grammatical: {verdict}" in parsed.splitlines()
        assert traced.splitlines()[-1] == f"grammatical: {verdict}"

    def test_requires_sentence_or_goal(self, capsys):
        assert run_cli(capsys, "trace")[0] == 2


def nested(depth: int, kind: str) -> str:
    """`depth` levels of structures, lists or records around `a`."""
    n = depth
    if kind == "struct":
        return "f(" * n + "a" + ")" * n
    if kind == "list":
        return "[" * n + "a" + "]" * n
    return "@sign{sc: " * n + "a" + "}" * n


class TestNestingBound:
    """The reader takes terms up to `MAX_TERM_DEPTH` levels deep, which
    every later stage handles, and rejects deeper ones as a syntax error
    at the token that goes too deep."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("kind", ["struct", "list", "record"])
    def test_goal_at_the_bound(self, capsys, kind, fmt):
        goal = f"eq(X, {nested(MAX_TERM_DEPTH - 1, kind)})."   # eq is a level
        code, out, err = run_cli(capsys, "trace", "--goal", goal, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out.splitlines()[-1]) == {"event": "done", "solutions": 1}
        else:
            assert "\nsolution 1:\n  X = " in out

    @pytest.mark.parametrize("kind", ["struct", "list", "record"])
    def test_goal_past_the_bound(self, capsys, kind):
        goal = f"eq(X, {nested(MAX_TERM_DEPTH, kind)})."
        code, out, err = run_cli(capsys, "trace", "--goal", goal)
        assert code == 2 and out == ""
        assert err.startswith("error: line 1, col ")
        assert err.endswith(f": term nested deeper than {MAX_TERM_DEPTH} levels\n")

    def test_grammar_at_the_bound(self, capsys, tmp_path):
        path = tmp_path / "deep.clg"
        path.write_text(fragment_source() + f"deep({nested(MAX_TERM_DEPTH - 1, 'struct')}).\n")
        code, out, err = run_cli(capsys, "trace", "--grammar", str(path),
                                 "--goal", "deep(X).")
        assert (code, err) == (0, "")
        assert "\nsolution 1:\n  X = f(f(" in out

    def test_grammar_past_the_bound(self, capsys, tmp_path):
        path = tmp_path / "deep.clg"
        lines = fragment_source().count("\n")
        path.write_text(fragment_source()
                        + f"deep({nested(MAX_TERM_DEPTH, 'struct')}).\n"
                        + "deep(a).\n" + "deep([).\n")
        code, out, err = run_cli(capsys, "trace", "--grammar", str(path),
                                 "--goal", "deep(X).")
        assert code == 2 and out == ""
        assert "Traceback" not in err
        # recovered at the period: the error after the deep clause is found too
        assert err.splitlines() == [
            f"error: fragment.clg:{lines + 1}:{6 + 2 * (MAX_TERM_DEPTH - 1)}: "
            f"term nested deeper than {MAX_TERM_DEPTH} levels",
            f"fragment.clg:{lines + 3}:7: unexpected token ')' in term"]

    def test_a_flat_list_is_one_level(self, capsys):
        goal = f"eq(X, [{', '.join(['a'] * 5000)}])."
        code, out, err = run_cli(capsys, "trace", "--goal", goal, "--format", "json")
        assert (code, err) == (0, "")
        solution = json.loads(out.splitlines()[-2])
        assert solution["bindings"]["X"] == [{"atom": "a"}] * 5000


class TestEnvFallbacks:
    def test_format_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FORMAT", "json")
        _, out, _ = run_cli(capsys, "parse", "dat arie wil slapen")
        assert json.loads(out)["grammatical"] is True

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FORMAT", "json")
        _, out, _ = run_cli(capsys, "parse", "dat arie wil slapen",
                            "--format", "text")
        assert out.startswith("sentence:")

    def test_enable_slash_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ENABLE_SLASH", "1")
        code, _, _ = run_cli(capsys, "parse", "dat arie wil slaan")
        assert code == 0

    def test_max_depth_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MAX_DEPTH", "3")
        code, _, err = run_cli(capsys, "parse", "dat arie bob kust")
        assert code == 2

    @pytest.mark.parametrize("name", ["MAX_DEPTH", "MAX_SC_LENGTH"])
    def test_bad_int_env_is_a_usage_error(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        with pytest.raises(SystemExit) as exc:
            main(["parse", "dat arie wil slapen"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["MAX_DEPTH", "MAX_SC_LENGTH"])
    def test_negative_int_is_a_usage_error(self, capsys, monkeypatch, name):
        flag = "--" + name.lower().replace("_", "-")
        for env, args in ((None, [flag, "-1"]), ("-5", [])):
            if env is not None:
                monkeypatch.setenv(name, env)
            with pytest.raises(SystemExit) as exc:
                main(["parse", "dat arie wil slapen", *args])
            assert exc.value.code == 2
            assert "must not be negative" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "clgram", "parse", "dat arie wil slapen"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "grammatical: yes" in proc.stdout
