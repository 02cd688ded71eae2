"""Engine behavior: delays, waking, truncation, indexing, purity."""

import os
import subprocess
import sys
import textwrap

import pytest

import clgram
from clgram import (Atom, Avm, Engine, Program, Solution, SortTable, Store,
                    Struct, Truncated, UndefinedPredicateError, Var, canonical,
                    canonical_text, make_list, resolve)
from clgram.fragment import fragment_source
from clgram.reader import parse_goals
from clgram.solver import Clause


def run(engine, text):
    goals, names = parse_goals(text, engine.program.sorts)
    return list(engine.solve(goals, var_names=names))


def binding_texts(sols, name):
    return [canonical_text(canonical(s.bindings[name])) for s in sols
            if isinstance(s, Solution)]


class TestDelay:
    def test_ground_call_runs_immediately(self, program):
        sols = run(Engine(program), "concat([a], [b], C).")
        assert len(sols) == 1
        assert not sols[0].residue
        assert binding_texts(sols, "C") == ["[a, b]"]

    def test_unbound_ends_suspends_into_residue(self, program):
        sols = run(Engine(program), "concat(A, [b], C).")
        assert len(sols) == 1
        assert len(sols[0].residue) == 1
        assert canonical_text(canonical(sols[0].residue[0])).startswith("concat(")
        # the query vars stay open
        assert canonical(sols[0].bindings["A"])[0] == "var"

    def test_later_binding_wakes_goal(self, program):
        sols = run(Engine(program), "concat(A, [b], C), eq(A, [a]).")
        assert len(sols) == 1
        assert not sols[0].residue
        assert binding_texts(sols, "A") == ["[a]"]
        assert binding_texts(sols, "C") == ["[a, b]"]

    def test_partial_progress_then_suspend(self, program):
        sols = run(Engine(program), "concat([a | X], [b], C).")
        assert len(sols) == 1
        assert len(sols[0].residue) == 1
        assert canonical_text(canonical(sols[0].bindings["C"])).startswith("[a|")

    def test_trace_shows_suspend_then_resume(self, program):
        events = []
        eng = Engine(program, trace=lambda ev, store: events.append(ev))
        run(eng, "concat(A, [b], C), eq(A, [a]).")
        kinds = [e[0] for e in events]
        assert "suspend" in kinds and "resume" in kinds
        assert kinds.index("suspend") < kinds.index("resume")
        # eq ran between the suspension and the wake
        eq_call = next(i for i, e in enumerate(events)
                       if e[0] == "call" and e[1].name == "eq")
        assert kinds.index("suspend") < eq_call < kinds.index("resume")

    def test_fifo_wake_order(self):
        prog = Program()
        prog.load(":- block w1(-).\n"
                  ":- block w2(-).\n"
                  "w1(done).\nw2(done).\neq(A, A).\n")
        events = []
        eng = Engine(prog, trace=lambda ev, store: events.append(ev))
        sols = run(eng, "w1(X), w2(X), eq(X, done).")
        assert len(sols) == 1 and not sols[0].residue
        resumed = [e[1].name for e in events if e[0] == "resume"]
        assert resumed == ["w1", "w2"]

    def test_add_adj_insertion_enumeration(self, program):
        # one member embedded into two slots: insert before or after it
        sols = run(Engine(program), "add_adj([x], [A, B], s, S).")
        assert len(sols) == 2
        shapes = sorted((canonical_text(canonical(s.bindings["A"])),
                         canonical_text(canonical(s.bindings["B"])))
                        for s in sols)
        assert shapes[0][0].startswith("adverbial{")    # insert then consume
        assert shapes[0][1] == "x"
        assert shapes[1][0] == "x"                      # consume then insert
        assert shapes[1][1].startswith("adverbial{")


class TestTruncation:
    def test_runaway_reports_truncated(self):
        prog = Program()
        prog.load("loop :- loop.\n")
        eng = Engine(prog, max_depth=50)
        out = run(eng, "loop.")
        assert len(out) == 1
        assert isinstance(out[0], Truncated)
        assert out[0].steps > 0
        assert eng.truncated

    def test_truncation_aborts_enumeration(self):
        prog = Program()
        prog.load("p(a).\np(b).\nloop :- loop.\n")
        eng = Engine(prog, max_depth=50)
        out = run(eng, "p(X), loop.")
        assert [type(o) for o in out] == [Truncated]

    def test_exhaustion_is_not_truncation(self):
        prog = Program()
        prog.load("p(a).\np(b).\n")
        eng = Engine(prog)
        out = run(eng, "p(c).")
        assert out == []
        assert not eng.truncated

    def test_clause_tries_cost_no_steps(self):
        # 60 facts enumerate fully under max_depth 50: a step is a call,
        # and trying another clause for the same call costs none
        prog = Program()
        prog.load("".join(f"q(a{i}).\n" for i in range(60)))
        eng = Engine(prog, max_depth=50)
        out = run(eng, "q(X).")
        assert len(out) == 60
        assert all(isinstance(o, Solution) for o in out)

    def test_budget_spans_all_answers(self):
        # one call for q, then one per answer: the budget of 50 steps ends
        # the enumeration after 49 answers instead of restarting at each
        prog = Program()
        prog.load("".join(f"q(a{i}) :- t.\n" for i in range(60)) + "t.\n")
        eng = Engine(prog, max_depth=50)
        out = run(eng, "q(X).")
        assert isinstance(out[-1], Truncated)
        assert sum(isinstance(o, Solution) for o in out) == 49

    # calling p<k> takes k + 1 steps
    CHAIN = "".join(f"p{i} :- p{i - 1}.\n" for i in range(1, 12)) + "p0.\n"

    def test_solve_leaves_the_engine_budget_whole(self):
        prog = Program()
        prog.load(self.CHAIN)
        eng = Engine(prog, max_depth=10)
        assert [type(o) for o in run(eng, "p4.")] == [Solution]
        m = eng.store.mark()
        assert list(eng.prove_live([Atom("p9")])) == [None]     # 10 steps
        eng.store.undo_to(m)
        assert not eng.truncated
        assert not eng.count_step()     # the 11th step on the same budget

    def test_nested_solve_has_a_budget_of_its_own(self):
        prog = Program()
        prog.load(self.CHAIN + "".join(f"q(a{i}) :- t.\n" for i in range(20))
                  + "t.\n")
        eng = Engine(prog, max_depth=10)
        m = eng.store.mark()
        live = eng.prove_live([Struct("q", (Var("X"),))])
        next(live)                      # 2 steps: q, then t
        assert [type(o) for o in run(eng, "p9.")] == [Solution]  # 10 steps
        # the enumeration goes on from 2 steps, one more per answer
        assert sum(1 for _ in live) == 8
        eng.store.undo_to(m)
        assert eng.truncated


class TestEnumeration:
    def test_closing_solve_stops_early(self):
        # a caller stops early by closing the generator, which undoes the
        # store as an end does
        prog = Program()
        prog.load("q(a).\nq(b).\nq(c).\n")
        eng = Engine(prog)
        goals, names = parse_goals("q(X).", prog.sorts)
        before = eng.store.mark()
        gen = eng.solve(goals, var_names=names)
        out = [next(gen), next(gen)]
        assert eng.store.mark() > before
        gen.close()
        assert binding_texts(out, "X") == ["a", "b"]
        assert eng.store.mark() == before
        assert eng.store.deref(names["X"]) is names["X"]

    def test_solve_restores_store(self, program):
        eng = Engine(program)
        before = eng.store.mark()
        first = binding_texts(run(eng, "concat(A, B, [a, b, c])."), "A")
        assert eng.store.mark() == before
        second = binding_texts(run(eng, "concat(A, B, [a, b, c])."), "A")
        assert first == second == ["[]", "[a]", "[a, b]", "[a, b, c]"]

    def test_undefined_predicate_raises(self, program):
        with pytest.raises(UndefinedPredicateError):
            run(Engine(program), "nosuch(a).")

    def test_declared_predicate_may_be_empty(self, program):
        # the lexicon declares hooks even when a class has no entries
        assert program.defines("noun_entry", 2)


class TestIndexing:
    def make(self):
        prog = Program()
        prog.load("p(a).\np(X) :- eq(X, b).\neq(A, A).\n")
        return prog

    def test_var_headed_clause_always_kept(self):
        prog = self.make()
        eng = Engine(prog)
        assert len(run(eng, "p(a).")) == 1
        assert len(run(eng, "p(b).")) == 1
        assert len(run(eng, "p(c).")) == 0

    def test_candidate_filter(self):
        prog = self.make()
        eng = Engine(prog)
        clauses = prog.candidates(("p", 1), eng.store, (Atom("a"),))
        assert len(clauses) == 2
        clauses = prog.candidates(("p", 1), eng.store, (Atom("c"),))
        assert len(clauses) == 1
        assert clauses[0].index_key is None
        x = eng.store.new_var()
        assert len(prog.candidates(("p", 1), eng.store, (x,))) == 2


class TestHeadMatch:
    """Clause heads are matched in place by code made on the clause's first
    try: the occurs check looks only at the goal terms the clause met
    before."""

    def test_second_occurrence_is_checked(self):
        prog = Program()
        prog.load("eq(A, A).\n")
        assert run(Engine(prog), "eq(f(X), X).") == []

    def test_goal_variable_cannot_take_a_term_holding_itself(self):
        # A is X's value by the time it meets f(X)
        prog = Program()
        prog.load("p(X, f(X)).\n")
        assert run(Engine(prog), "p(A, A).") == []

    def test_clause_record_cannot_reach_goal_record(self):
        # X's value is the goal record, so merging the clause record into
        # it would make a record that contains itself
        prog = Program()
        prog.load("sort sign < top.\neq(A, A).\np(X, @sign{f: X}).\n")
        assert run(Engine(prog), "eq(A, @sign{}), p(A, A).") == []

    def test_shared_clause_record_unifies_its_goal_records(self):
        # a tabled answer can hold one record object in two places, as in
        # p(R, R); the goal records it meets must then become one record
        sorts = SortTable()
        sign = sorts.declare("sign", "top")
        record = Avm(sign, {"f": Var("X")})
        head = Struct("p", (record, record))
        clause = Clause(head, (), "<test>")
        store = Store(sorts)
        a, b = Avm(sign, {"f": Atom("a")}), Avm(sign, {"g": Atom("b")})
        assert clause.try_goal(store, Struct("p", (a, b))) == []
        assert store.deref(a) is store.deref(b)
        assert canonical_text(canonical(resolve(store, a))) == \
            "sign{f: a, g: b}"
        clash = Struct("p", (Avm(sign, {"f": Atom("a")}),
                             Avm(sign, {"f": Atom("b")})))
        assert clause.try_goal(store, clash) is None

    def test_shared_clause_record_cannot_reach_goal_record(self):
        # in h(N, @sign{g: N}) against h(A, A), N stands for A by the time
        # the second record meets A, which would then hold itself
        sorts = SortTable()
        sign = sorts.declare("sign", "top")
        node = Avm(sign)
        head = Struct("h", (node, Avm(sign, {"g": node})))
        a = Avm(sign)
        clause = Clause(head, (), "<test>")
        assert clause.try_goal(Store(sorts), Struct("h", (a, a))) is None

    def test_occurs_check_is_linear_in_list_length(self, program, monkeypatch):
        calls = 0
        real = clgram.terms._occurs

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        monkeypatch.setattr(clgram.terms, "_occurs", counting)
        n = 1000
        x, y = Var("X"), Var("Y")
        goals = [Struct("concat", (x, make_list([Atom("b")]), y)),
                 Struct("eq", (x, make_list([Atom("a")] * n)))]
        out = list(Engine(program).solve(goals, var_names={"Y": y}))
        assert len(out) == 1 and isinstance(out[0], Solution)
        assert calls <= 4 * n

    def test_code_is_made_on_first_try_only(self, monkeypatch):
        made = []
        real = clgram.solver.compile_clause

        def counting(head, body):
            made.append(head)
            return real(head, body)
        monkeypatch.setattr(clgram.solver, "compile_clause", counting)
        prog = Program()
        prog.load("count([], z).\ncount([_|T], s(N)) :- count(T, N).\n"
                  "unused(a).\n")
        assert made == []
        x = Var("X")
        goal = Struct("count", (make_list([Atom("a")] * 50), x))
        sols = list(Engine(prog).solve([goal], var_names={"X": x}))
        assert len(sols) == 1
        assert canonical_text(canonical(sols[0].bindings["X"])).count("s(") == 50
        assert len(made) == 2   # each count/2 clause once, unused/1 never
        store = Store(prog.sorts)
        assert all(c.code is not None
                   for c in prog.candidates(("count", 2), store, ()))
        assert prog.candidates(("unused", 1), store, ())[0].code is None


class TestNaiveEquivalence:
    """Without block declarations these directed queries run depth-first
    with no suspensions; answers must coincide with the delaying engine."""

    QUERIES = [
        "concat(A, B, [a, b, c]).",
        "concat([a], [b, c], C).",
        "concat([], X, [q]).",
        "take_one([a, b, c], X, R).",
        "take_one([a], X, R).",
        "add_adj([a, b], [a, b], s, S).",
        "add_adj([], [], s, S).",
        "add_adj([a], [b], s, S).",
    ]

    def answers(self, prog, text):
        goals, names = parse_goals(text, prog.sorts)
        out = []
        for s in Engine(prog).solve(goals, var_names=names):
            assert isinstance(s, Solution)
            assert not s.residue
            out.append(tuple(sorted((k, canonical(v))
                                    for k, v in s.bindings.items())))
        return sorted(out)

    def test_same_answers(self):
        src = fragment_source()
        stripped = "\n".join(line for line in src.splitlines()
                             if not line.strip().startswith(":- block"))
        with_blocks, without = Program(), Program()
        with_blocks.load(src)
        without.load(stripped)
        for q in self.QUERIES:
            assert self.answers(with_blocks, q) == self.answers(without, q), q


def run_python(code):
    """Run `code` in a fresh interpreter that imports this clgram, so a
    crash fails the one test instead of the test process."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(clgram.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=60, env=env)


class TestDepth:
    """Search depth and list length cost heap, not interpreter stack."""

    def test_long_concat_completes(self):
        proc = run_python("""
            import json
            from clgram import (Atom, Engine, Solution, Struct, Var,
                                build_program, canonical, canonical_text,
                                make_list, render)
            program, _ = build_program()
            engine = Engine(program, max_depth=200000)
            x, y = Var("X"), Var("Y")
            goals = [Struct("concat", (x, make_list([Atom("b")]), y)),
                     Struct("eq", (x, make_list([Atom("a")] * 100000)))]
            out = list(engine.solve(goals, var_names={"Y": y}))
            assert len(out) == 1 and isinstance(out[0], Solution), out
            assert not out[0].residue
            y = out[0].bindings["Y"]
            print(len(canonical_text(canonical(y)).split(", ")),
                  len(json.loads(render(y, "json"))))
            """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["100001", "100001"]

    def test_long_list_fact(self):
        # the clause's code is made and run along the list spine, both when
        # the fact builds the list for an unbound goal and when it matches it
        proc = run_python("""
            from clgram import Engine, Program, Solution, Struct, Var
            from clgram.reader import parse_goals
            n = 100000
            items = ", ".join("abc"[i % 3] for i in range(n))
            prog = Program()
            prog.load(f"big([{items}]).\\n")
            x = Var("X")
            out = list(Engine(prog).solve([Struct("big", (x,))],
                                          var_names={"X": x}))
            assert len(out) == 1 and isinstance(out[0], Solution), out
            goals, names = parse_goals(f"big([{items}]).", prog.sorts)
            again = list(Engine(prog).solve(goals, var_names=names))
            assert len(again) == 1 and isinstance(again[0], Solution), again
            print("ok")
            """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["ok"]

    def test_recursion_limit_untouched(self):
        proc = run_python("""
            import sys
            from clgram import Engine, Parser, build_program
            before = sys.getrecursionlimit()
            program, lexicon = build_program()
            Engine(program, max_depth=200000)
            assert Parser(program, lexicon).parse("dat arie wil slapen").grammatical
            print(before, sys.getrecursionlimit())
            """)
        assert proc.returncode == 0, proc.stderr[-2000:]
        before, after = proc.stdout.split()
        assert after == before
