"""The benchmark tracer (bench/tracer.py) patches clgram by attribute
name; every attribute it wraps must still exist where it looks, what it
counts must not depend on how far the lexicon's clauses are made, and it
must see every tabling solve."""

import sys
from pathlib import Path

import clgram.parser
import clgram.solver
from clgram import (Atom, Lexicon, Parser, build_program, fragment_source,
                    lexicon_source)
from clgram.parser import CLUSTER, DEPENDENT, ENTRY, FRAME
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


def test_tracer_sees_tabling_as_solver_solve_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    solve = tracer.NAMES.index("solver.solve")
    program, lexicon = build_program()
    t = tracer.Tracer()
    t.install()
    try:
        parser = Parser(program, lexicon, trace=t.event)
        first = parser.parse("dat arie bob vandaag wil kussen")
        spans = list(t.names).count(solve)
        again = parser.parse("dat arie bob vandaag wil kussen")
    finally:
        t.uninstall()
    wil, finite = Atom("wil"), Atom("finite")
    kussen, nonfinite = Atom("kussen"), Atom("nonfinite")
    assert set(program.table) == {
        (ENTRY, wil, finite), (DEPENDENT, Atom("arie")), (DEPENDENT, Atom("bob")),
        (DEPENDENT, Atom("vandaag")), (ENTRY, kussen, nonfinite),
        (FRAME, wil, finite, 4), (CLUSTER, kussen, nonfinite, 1),
        (CLUSTER, kussen, nonfinite, 2)}
    # one span per answer and one for the end, for each solve of the table
    assert spans == sum(len(answers) + 1 for answers in program.table.values())
    assert list(t.names).count(solve) == spans
    rows = [[(d.head_index, d.reading_text, d.members, d.cluster)
             for d in result.derivations] for result in (first, again)]
    assert len(rows[0]) == 3 and rows[1] == rows[0]
    for name in ("tracer", "workloads", "gen"):
        sys.modules.pop(name, None)
