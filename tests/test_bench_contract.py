"""The benchmark tracer (bench/tracer.py) patches clgram by attribute
name; every attribute it wraps must still exist where it looks, and what
it counts must not depend on how far the lexicon's clauses are made."""

import sys
from pathlib import Path

import clgram.parser
import clgram.solver
from clgram import Lexicon, Parser, build_program, fragment_source, lexicon_source
from clgram.solver import Engine, Program

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    before = {name: getattr(clgram.solver, name)
              for name in ("unify", "copy_term", "resolve", "parse_source")}
    originals = (Program.load, Program.candidates, Engine.solve,
                 Engine.prove_live, clgram.parser.Engine)
    t = tracer.Tracer()
    t.install()
    try:
        assert clgram.solver.unify is not before["unify"]
    finally:
        t.uninstall()
    assert {name: getattr(clgram.solver, name) for name in before} == before
    assert (Program.load, Program.candidates, Engine.solve,
            Engine.prove_live, clgram.parser.Engine) == originals
    for name in ("tracer", "workloads", "gen"):
        sys.modules.pop(name, None)


def test_tracer_counts_a_lazily_made_lexicon_in_full(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    sentence = "dat arie bob vandaag wil kussen"
    # the same parse on a program that reads the lexicon's text, so that
    # every clause exists before the parse asks for any
    lexicon = Lexicon(lexicon_source())
    eager = Program()
    eager.load(fragment_source(), "fragment.clg")
    eager.load(lexicon.compile(), "<lexicon>")
    defined, returned = [], []
    real = Program.candidates

    def counting(self, key, store, args):
        defined.append(len(real(self, key, store, ())))
        out = real(self, key, store, args)
        returned.append(len(out))
        return out
    with monkeypatch.context() as m:
        m.setattr(Program, "candidates", counting)
        want = Parser(eager, lexicon).parse(sentence)
    program, lexicon = build_program()
    t = tracer.Tracer()
    t.install()
    try:
        got = Parser(program, lexicon, trace=t.event).parse(sentence)
    finally:
        t.uninstall()
    assert len(got.derivations) == len(want.derivations) == 3
    assert t.counts["call"] > 0 and t.counts["attempts"] == 1
    assert t.counts["candidates_defined"] == sum(defined)
    assert t.counts["candidates_returned"] == sum(returned)
    for name in ("tracer", "workloads", "gen"):
        sys.modules.pop(name, None)
