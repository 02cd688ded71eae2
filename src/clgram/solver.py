"""Clause store and a resolution engine with delayed goals.

The engine is a plain backtracking SLD prover over the term language in
`terms`, extended with block declarations: a goal whose declaration
matches (some pattern has every `-` argument unbound) is suspended on
those variables instead of being called.  Binding any watched variable
queues the suspension; before picking the next goal the engine drains
the queue, oldest suspension first, and runs the woken goals ahead of
the rest of the resolvent.  A woken goal whose declaration still
matches (another pattern, still unbound) simply suspends again.

Suspensions that never wake are the residue of an answer: the answer is
conditional on those goals, which is how lexical rules stay applicable
without being applied.

Control flow is one loop over a WAM-style choicepoint stack: the
resolvent is a linked chain of `(goal, rest)` pairs, and each call
pushes (trail mark, goal, rest, candidate clauses, next index), so a
deep search uses no interpreter stack.  Taking a call's last candidate
pops its choicepoint, so a deterministic recursion keeps none.  Each
solution is a `yield` at an empty resolvent, with bindings live in the
store until the consumer advances.  `solve`
wraps this with snapshotting and cleanup.  Exceeding the step budget
ends the enumeration with a `Truncated` marker so callers can tell a
cut-off search from an exhausted one.  The budget counts every step of
one `solve`, or of one `prove_live` enumeration together with those
nested in it, across all of its answers.

A clause is tried without renaming it first.  On its first try it is
compiled (`terms.compile_clause`) into a matcher per head argument and a
builder per body goal, kept on the clause; loading a program compiles
nothing.  The matchers unify the goal with the head as read, filling a
fresh list of registers, so a head that fails builds next to nothing.
Only once the head has unified are the body goals built, from the same
registers, so the body's variables are the goal terms the head met.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .errors import UndefinedPredicateError
from .reader import parse_source
from .terms import (Atom, Avm, ListCons, SortTable, Store, Struct, Var, _Nil,
                    compile_clause, resolve)
# no longer called here, but `bench/tracer.py` wraps these by name
from .terms import copy_term, unify  # noqa: F401


@dataclass
class BlockSpec:
    name: str
    arity: int
    patterns: tuple[tuple[bool, ...], ...]


class Clause:
    """A clause as read.  `code` is its `terms.compile_clause` code, made
    when the engine first tries the clause."""

    __slots__ = ("head", "body", "pos", "index_key", "code")

    def __init__(self, head, body: tuple, pos):
        self.head = head
        self.body = body
        self.pos = pos
        self.index_key = None
        self.code = None
        if type(head) is Struct and head.args:
            self.index_key = _index_key(head.args[0])

    def try_goal(self, store: Store, goal) -> list | None:
        """Match `goal` against the head and return the body built for it,
        or None if the head does not match; the caller undoes to its mark
        either way.  The clause's code is made on its first try."""
        code = self.code
        if code is None:
            code = self.code = compile_clause(self.head, self.body)
        matchers, builders, size = code
        regs = [None] * size
        args = goal.args if type(goal) is Struct else ()
        for i, match in matchers:
            if not match(store, args[i], regs):
                return None
        return [build(regs) for build in builders]

    def __repr__(self):
        name = self.head.name
        arity = len(self.head.args) if isinstance(self.head, Struct) else 0
        return f"Clause({name}/{arity} at {self.pos})"


def _index_key(t):
    """First-argument index key; None means `matches anything`."""
    tp = type(t)
    if tp is Atom:
        return ("atom", t.name)
    if tp is _Nil:
        return ("nil",)
    if tp is ListCons:
        return ("cons",)
    if tp is Struct:
        return ("struct", t.name, len(t.args))
    if tp is Avm:
        # sorts can still meet across declarations, so stay coarse
        return ("avm",)
    return None


class Program:
    """Sorts, clauses and block declarations loaded from source text."""

    def __init__(self, sorts: SortTable | None = None):
        self.sorts = sorts if sorts is not None else SortTable()
        self._clauses: dict[tuple[str, int], list[Clause]] = {}
        self._blocks: dict[tuple[str, int], BlockSpec] = {}
        self._loaded: set[str] = set()
        # candidates per (predicate, first-argument key), in clause order
        self._filtered: dict[tuple, list[Clause]] = {}
        # goals tabled by `Engine.table`, each with the predicate that holds
        # its answers as template clauses
        self._tabled: dict[tuple, tuple[str, int]] = {}

    def load(self, text: str, path: str | None = None) -> None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest in self._loaded:
            return
        self._loaded.add(digest)
        self._filtered.clear()
        for pred in set(self._tabled.values()):  # answers may rest on any clause
            self._clauses[pred] = []
        self._tabled.clear()
        for item in parse_source(text, self.sorts, path):
            kind = item[0]
            if kind == "sort":
                continue  # already applied by the reader
            if kind == "block":
                _, name, mask, _pos = item
                key = (name, len(mask))
                spec = self._blocks.get(key)
                if spec is None:
                    self._blocks[key] = BlockSpec(name, len(mask), (mask,))
                else:
                    if mask not in spec.patterns:
                        spec.patterns = spec.patterns + (mask,)
                self.ensure_predicate(name, len(mask))
                continue
            _, head, body, pos = item
            if isinstance(head, Struct):
                key = (head.name, len(head.args))
            else:
                key = (head.name, 0)
            self._clauses.setdefault(key, []).append(Clause(head, body, pos))

    def ensure_predicate(self, name: str, arity: int) -> None:
        """Register a predicate with no clauses yet, so calling it fails
        instead of raising."""
        self._clauses.setdefault((name, arity), [])

    def tabled(self, key: tuple) -> bool:
        return key in self._tabled

    def add_table(self, key: tuple, pred: tuple[str, int],
                  clauses: list[Clause]) -> None:
        """Record the answers to the tabled goal `key` as `clauses` of the
        predicate `pred`."""
        self._clauses.setdefault(pred, []).extend(clauses)
        if clauses:  # a filter cached for their first argument is stale
            self._filtered.pop((pred, clauses[0].index_key), None)
        self._tabled[key] = pred

    def defines(self, name: str, arity: int) -> bool:
        return (name, arity) in self._clauses

    def block_spec(self, name: str, arity: int) -> BlockSpec | None:
        return self._blocks.get((name, arity))

    def candidates(self, key: tuple[str, int], store: Store, args: tuple) -> list[Clause]:
        clauses = self._clauses[key]
        if len(clauses) <= 1 or not args:
            return clauses
        g = _index_key(store.deref(args[0]))
        if g is None:
            return clauses
        out = self._filtered.get((key, g))
        if out is None:
            out = self._filtered[key, g] = [
                c for c in clauses if c.index_key is None or c.index_key == g]
        return out


@dataclass
class Solution:
    """One answer: named query variables (detached), plus the goals still
    suspended when the answer was produced."""
    bindings: dict[str, object]
    residue: list
    steps: int


@dataclass
class Truncated:
    """End-of-stream marker: the search hit the step budget, so absence of
    further answers proves nothing."""
    steps: int


class Engine:
    def __init__(self, program: Program, max_depth: int = 10000, trace=None):
        self.program = program
        self.store = Store(program.sorts)
        self.store.trace = trace
        self.max_depth = max_depth
        self._steps = 0
        self._total_steps = 0
        self._truncated = False

    # -- blocking

    def _goal_key(self, goal) -> tuple[str, int]:
        tp = type(goal)
        if tp is Struct:
            return (goal.name, len(goal.args))
        if tp is Atom:
            return (goal.name, 0)
        if tp is Var:
            raise UndefinedPredicateError("unbound variable called as a goal")
        raise UndefinedPredicateError(f"cannot call {goal!r} as a goal")

    def _blocking_vars(self, key: tuple[str, int], args: tuple) -> list[Var] | None:
        """Variables to watch if the goal must suspend, else None.  A goal
        suspends iff some pattern has all `-` positions unbound; waking any
        one of those variables re-checks the whole declaration."""
        spec = self.program.block_spec(*key)
        if spec is None:
            return None
        deref = self.store.deref
        watched: list[Var] = []
        for mask in spec.patterns:
            vs = []
            for is_dash, arg in zip(mask, args):
                if is_dash:
                    a = deref(arg)
                    if type(a) is not Var:
                        break
                    vs.append(a)
            else:
                for v in vs:
                    if v not in watched:
                        watched.append(v)
        return watched or None  # every pattern has a `-`

    def is_blocked_goal(self, goal) -> bool:
        """Would this goal suspend if called right now?"""
        goal = self.store.deref(goal)
        if not isinstance(goal, (Atom, Struct)):
            return False
        key = self._goal_key(goal)
        args = goal.args if isinstance(goal, Struct) else ()
        return self._blocking_vars(key, args) is not None

    # -- proving

    def _prove(self, goals: list):
        store = self.store
        rest = None                     # the resolvent as (goal, rest) pairs
        for g in reversed(goals):
            rest = (g, rest)
        choices = []                    # (trail mark, goal, rest, clauses left)
        while True:
            if store.wake_list:
                for s in reversed(store.drain_wakes()):
                    rest = (s.goal, rest)
                continue
            if rest is None:
                yield None
                if self._truncated:     # a nested enumeration was cut off
                    return
            else:
                goal, rest = rest
                goal = store.deref(goal)
                key = self._goal_key(goal)
                args = goal.args if type(goal) is Struct else ()
                watched = self._blocking_vars(key, args)
                if watched is not None:
                    store.suspend_goal(goal, watched)
                    continue
                if not self.program.defines(*key):
                    raise UndefinedPredicateError(f"undefined predicate {key[0]}/{key[1]}")
                self._steps += 1
                self._total_steps += 1
                if self._steps > self.max_depth:
                    self._truncated = True
                    return
                if store.trace:
                    store.trace(("call", goal), store)
                clauses = self.program.candidates(key, store, args)
                if clauses:
                    choices.append((store.mark(), goal, rest, clauses, 0))
            while choices:              # backtrack into the newest clause left
                m, goal, rest, clauses, i = choices.pop()
                store.undo_to(m)
                if i + 1 < len(clauses):  # the last clause leaves no choicepoint
                    choices.append((m, goal, rest, clauses, i + 1))
                body = clauses[i].try_goal(store, goal)
                if body is not None:
                    for g in reversed(body):
                        rest = (g, rest)
                    break
            else:
                return

    def solve(self, goals: list, max_solutions: int | None = None,
              var_names: dict[str, Var] | None = None):
        """Yield Solutions for the conjunction of `goals`.  If the step
        budget runs out, the last item yielded is a Truncated marker."""
        if var_names is None:
            var_names = _named_vars(goals)
        store = self.store
        self._steps = 0
        self._truncated = False
        m0 = store.mark()
        produced = 0
        try:
            for _ in self._prove(goals):
                memo: dict = {}
                counter = itertools.count(1)
                bindings = {n: resolve(store, v, memo, counter)
                            for n, v in var_names.items()}
                residue = [resolve(store, g, memo, counter)
                           for g in store.pending_residue()]
                yield Solution(bindings, residue, self._total_steps)
                produced += 1
                if max_solutions is not None and produced >= max_solutions:
                    break
        finally:
            store.undo_to(m0)
        if self._truncated:
            yield Truncated(self._total_steps)

    def table(self, name: str, goal: Struct) -> bool:
        """Solve `goal`, whose last argument is an unbound variable and
        whose other arguments are atoms, once per Program.  Each answer is
        kept as a template clause `name(Args..., Answer) :- Residue`, with
        the answer and the goals it left suspended resolved together, so
        they share variables.  A call of `name` with the same leading
        arguments then matches an answer in place instead of deriving it
        again, and runs its residue as the clause body.  Returns False,
        adding nothing, if the step budget cut the solve off."""
        key = (name,) + goal.args[:-1]
        if self.program.tabled(key):
            return True
        clauses = []
        for sol in self.solve([goal], var_names={"answer": goal.args[-1]}):
            if isinstance(sol, Truncated):
                return False
            head = Struct(name, goal.args[:-1] + (sol.bindings["answer"],))
            clauses.append(Clause(head, tuple(sol.residue), f"<table {name}>"))
        self.program.add_table(key, (name, len(goal.args)), clauses)
        return True

    def prove_live(self, goals: list, reset: bool = True):
        """Low-level enumeration: yields None per answer with bindings
        still live in the store.  Caller inspects/resolves, then advances.
        Caller must mark/undo around the whole enumeration, also after a
        cut-off.  Pass reset=False when nesting inside another live
        enumeration, so the step budget and the cut-off flag stay shared."""
        if reset:
            self._steps = 0
            self._truncated = False
        yield from self._prove(goals)

    @property
    def truncated(self) -> bool:
        return self._truncated


def _named_vars(goals: list) -> dict[str, Var]:
    out: dict[str, Var] = {}

    def walk(t):
        while isinstance(t, ListCons):
            walk(t.head)
            t = t.tail
        if isinstance(t, Var) and t.name:
            out.setdefault(t.name, t)
        elif isinstance(t, Struct):
            for a in t.args:
                walk(a)
        elif isinstance(t, Avm):
            for v in t.feats.values():
                walk(v)

    for g in goals:
        walk(g)
    return out
