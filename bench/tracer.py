"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public clgram entry points, at the module
attribute or class attribute their callers look up, with wrappers that
record a span around each call and count what the call did; `uninstall()`
puts the originals back.  Nothing under src/ changes.  Recursive
functions (`copy_term`, `canonical`, ...) are wrapped only where another
module calls them, so their self-recursion is not wrapped.

A span is (name, parent span, op id, start, end), kept in flat arrays
and written out by `write()` at the end of the run.  A span's self time
is its duration minus the durations of its child spans.  Enumerations
(`Engine.prove_live`, `Engine.solve`) get one span per resumption, from
the consumer's `next()` to the generator's next `yield`.

Solver events (call, suspend, resume, bind) come from the engine's own
`trace=` hook, which the workload passes in while tracing.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import clgram.parser
import clgram.solver
from clgram.lexicon import Lexicon
from clgram.parser import Parser
from clgram.solver import Engine, Program

import workloads

NAMES = ["reader.load", "lexicon.compile", "lexicon.tokenize",
         "parser.parse", "parser.entry", "parser.match", "solver.solve",
         "solver.candidates", "solver.rename", "terms.unify", "terms.resolve",
         "render.canonical", "render.canonical_text", "render.json"]
_ID = {name: i for i, name in enumerate(NAMES)}

# Spans of these names happen only while the program is being built, so
# their times are reported per set-up rather than per pass.
SETUP_SPANS = ("reader.load", "lexicon.compile")

# Inclusive time for the parser's two phases (solver work inside them
# included); self time for everything else.
INCLUSIVE = {"parser.entry_s": "parser.entry", "parser.match_s": "parser.match"}
SELF = {"reader.load_s": "reader.load", "lexicon.compile_s": "lexicon.compile",
        "lexicon.tokenize_s": "lexicon.tokenize",
        "solver.rename_s": "solver.rename",
        "solver.candidates_s": "solver.candidates",
        "terms.unify_s": "terms.unify", "terms.resolve_s": "terms.resolve",
        "render.canonical_s": "render.canonical",
        "render.canonical_text_s": "render.canonical_text",
        "render.json_s": "render.json"}
# The resolution loop itself: enumeration spans minus the calls above.
LOOP = ("parser.entry", "parser.match", "solver.solve")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = array("B")
        self.parents = array("i")
        self.ops = array("I")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.passes: list[Counter] = []
        self._saved: list[tuple] = []

    # -- spans

    def enter(self, name_id: int) -> int:
        i = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(_clock())
        return i

    def exit(self, i: int) -> None:
        self.ends[i] = _clock()
        self.stack.pop()

    def event(self, event, store) -> None:
        """The engine's trace= hook: count call/suspend/resume/bind."""
        self.counts[event[0]] += 1

    def begin_pass(self) -> None:
        self.counts = Counter()

    def end_pass(self) -> None:
        self.passes.append(self.counts)

    # -- wrappers

    def _span(self, name: str, fn, after=None):
        nid = _ID[name]

        def wrapper(*args, **kwargs):
            i = self.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(i)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _span_gen(self, fn, name_of):
        def wrapper(engine, goals, *args, **kwargs):
            nid = _ID[name_of(goals)]
            inner = fn(engine, goals, *args, **kwargs)
            try:
                while True:
                    i = self.enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit(i)
                    if nid == _ID["parser.entry"]:
                        self.counts["entry_answers"] += 1
                    yield item
            finally:
                inner.close()
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        c = self.counts_add
        self._patch(Program, "load", self._span("reader.load", Program.load))
        self._patch(Lexicon, "__init__", self._span("lexicon.compile", Lexicon.__init__))
        self._patch(Lexicon, "compile", self._span("lexicon.compile", Lexicon.compile))
        self._patch(Lexicon, "tokenize", self._span("lexicon.tokenize", Lexicon.tokenize))
        self._patch(Parser, "parse", self._span("parser.parse", Parser.parse,
                                                 self._after_parse))
        self._patch(Engine, "prove_live", self._span_gen(Engine.prove_live, _phase))
        self._patch(Engine, "solve", self._span_gen(Engine.solve,
                                                    lambda goals: "solver.solve"))
        self._patch(Program, "candidates", self._span(
            "solver.candidates", Program.candidates, self._after_candidates))
        self._real_candidates = self._saved[-1][2]

        real_engine = clgram.parser.Engine

        def engine_factory(*args, **kwargs):
            c("attempts")
            return real_engine(*args, **kwargs)
        self._patch(clgram.parser, "Engine", engine_factory)
        self._patch(clgram.solver, "unify", self._span(
            "terms.unify", clgram.solver.unify, self._after_unify))
        self._patch(clgram.solver, "copy_term", self._span(
            "solver.rename", clgram.solver.copy_term,
            lambda args, out: c("rename_calls")))
        self._patch(clgram.solver, "parse_source", _count_clauses(
            clgram.solver.parse_source, c))
        for module in (clgram.solver, clgram.parser):
            self._patch(module, "resolve", self._span("terms.resolve", module.resolve))
        for module in (clgram.parser, workloads):
            self._patch(module, "canonical", self._span("render.canonical",
                                                        module.canonical))
            self._patch(module, "canonical_text", self._span(
                "render.canonical_text", module.canonical_text))
        self._patch(workloads, "render", self._span("render.json", workloads.render))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def counts_add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def _after_parse(self, args, result) -> None:
        c = self.counts
        c["derivations"] += len(result.derivations)
        c["readings"] += len(result.readings)
        c["useful_attempts"] += len({(d.head_index, len(d.members))
                                     for d in result.derivations})

    def _after_unify(self, args, ok) -> None:
        self.counts["clause_tries"] += 1
        self.counts["unify_ok"] += bool(ok)

    def _after_candidates(self, args, out) -> None:
        program, key, store = args[:3]
        self.counts["candidates_returned"] += len(out)
        self.counts["candidates_defined"] += len(
            self._real_candidates(program, key, store, ()))

    # -- reporting

    def span_times(self) -> tuple[Counter, Counter]:
        """Self and inclusive seconds per span name over every span."""
        n = len(self.starts)
        child = [0.0] * n
        parents, starts, ends = self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s: Counter = Counter()
        incl: Counter = Counter()
        for i in range(n):
            name = NAMES[self.names[i]]
            d = ends[i] - starts[i]
            incl[name] += d
            self_s[name] += d - child[i]
        return self_s, incl

    def write(self, path) -> None:
        lines = ["op\tname\tparent\tstart\tend"]
        t0 = self.starts[0] if self.starts else 0.0
        for i in range(len(self.starts)):
            lines.append(f"{self.ops[i]}\t{NAMES[self.names[i]]}\t{self.parents[i]}\t"
                         f"{self.starts[i] - t0:.7f}\t{self.ends[i] - t0:.7f}")
        path.write_text("\n".join(lines) + "\n")


def _phase(goals) -> str:
    first = goals[0]
    if isinstance(first, clgram.Struct) and first.name == "match_members":
        return "parser.match"
    return "parser.entry"


def _count_clauses(fn, count):
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        count("clauses", sum(1 for item in items if item[0] == "clause"))
        return items
    return wrapper
