"""The benchmark tracer (bench/tracer.py) patches clgram by attribute
name; every attribute it wraps must still exist where it looks."""

import sys
from pathlib import Path

import clgram.parser
import clgram.solver
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
