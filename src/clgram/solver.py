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
pushes (trail mark, goal, rest, clauses left), so a deep search uses no
interpreter stack.  Each solution is a `yield` at an empty resolvent,
with bindings live in the store until the consumer advances.  `solve`
wraps this with snapshotting and cleanup.  Exceeding the step budget
ends the enumeration with a `Truncated` marker so callers can tell a
cut-off search from an exhausted one.

A clause is tried without renaming it first: `terms.match` unifies the
goal with the clause head as read, using a fresh memo as the clause's
variable table, so a head that fails builds next to nothing.  Only once
the head has unified is the body copied, with the same memo, so the
body's variables are the goal terms the head bound them to.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .errors import UndefinedPredicateError
from .reader import parse_source
from .terms import (Atom, Avm, ListCons, SortTable, Store, Struct, Var, _Nil,
                    copy_term, match, resolve)
# no longer called here, but `bench/tracer.py` wraps `clgram.solver.unify`
from .terms import unify  # noqa: F401


@dataclass
class BlockSpec:
    name: str
    arity: int
    patterns: tuple[tuple[bool, ...], ...]


class Clause:
    __slots__ = ("head", "body", "pos", "index_key")

    def __init__(self, head, body: tuple, pos):
        self.head = head
        self.body = body
        self.pos = pos
        self.index_key = None
        if isinstance(head, Struct) and head.args:
            self.index_key = _index_key(head.args[0])

    def __repr__(self):
        name = self.head.name
        arity = len(self.head.args) if isinstance(self.head, Struct) else 0
        return f"Clause({name}/{arity} at {self.pos})"


def _index_key(t):
    """First-argument index key; None means `matches anything`."""
    if isinstance(t, Var):
        return None
    if isinstance(t, Atom):
        return ("atom", t.name)
    if isinstance(t, _Nil):
        return ("nil",)
    if isinstance(t, ListCons):
        return ("cons",)
    if isinstance(t, Struct):
        return ("struct", t.name, len(t.args))
    if isinstance(t, Avm):
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

    def load(self, text: str, path: str | None = None) -> None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest in self._loaded:
            return
        self._loaded.add(digest)
        self._filtered.clear()
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
        if isinstance(goal, Atom):
            return (goal.name, 0)
        if isinstance(goal, Struct):
            return (goal.name, len(goal.args))
        if isinstance(goal, Var):
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
                    if not isinstance(a, Var):
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
                self._steps = 0  # fresh budget per answer
            else:
                goal, rest = rest
                goal = store.deref(goal)
                key = self._goal_key(goal)
                args = goal.args if isinstance(goal, Struct) else ()
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
                choices.append((store.mark(), goal, rest,
                                iter(self.program.candidates(key, store, args))))
            while choices:              # backtrack into the newest clause left
                m, goal, rest, clauses = choices[-1]
                store.undo_to(m)
                clause = next(clauses, None)
                if clause is None:
                    choices.pop()
                    continue
                memo: dict = {}
                if match(store, goal, clause.head, memo):
                    body = [copy_term(store, g, memo) for g in clause.body]
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
