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
cut-off search from an exhausted one.  A step is a call.  Each `solve`
has a budget of its own, across all of its answers; every other step
an Engine takes (`prove_live`, `count_step`) draws on one budget that
starts when the Engine is made.

A clause is tried without renaming it first.  On its first try it is
compiled (`terms.compile_clause`) into a matcher per head argument and a
builder per body goal, kept on the clause; loading a program compiles
nothing.  The matchers unify the goal with the head as read, filling a
fresh list of registers, so a head that fails builds next to nothing.
Only once the head has unified are the body goals built, from the same
registers, so the body's variables are the goal terms the head met.

A Program keeps one clause list per predicate, in load order, which
`Program.candidates` alone reads.  An item of it may be a `Words`: one
clause per word, made when a goal first names the word or every clause.
"""

from __future__ import annotations

import itertools

from .errors import UndefinedPredicateError
from .reader import parse_source
from .terms import (Atom, Avm, ListCons, SortTable, Store, Struct, Var, _Nil,
                    compile_clause, resolve)
# no longer called here, but `bench/tracer.py` wraps these by name
from .terms import copy_term, unify  # noqa: F401


class _Record:
    """A slotted record: `==` and `repr` read the fields `_fields` names,
    in order, as a dataclass's would, and an instance is not hashable."""
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == \
            [getattr(other, f) for f in self._fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class BlockSpec(_Record):
    __slots__ = _fields = ("name", "arity", "patterns")

    def __init__(self, name: str, arity: int, patterns: tuple[tuple[bool, ...], ...]):
        self.name, self.arity, self.patterns = name, arity, patterns


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


class Words:
    """The clauses of the predicate `key`, one per word, each made by
    `make(word)` the first time it is asked for, and kept.  It is one item
    of its predicate's clause list (`Program`)."""

    __slots__ = ("key", "names", "make", "made")

    def __init__(self, key: tuple[str, int], words, make):
        self.key = key
        self.names = dict.fromkeys(words)
        self.make = make
        self.made: dict[str, Clause] = {}

    def clause(self, word: str) -> Clause:
        c = self.made.get(word)
        if c is None:
            c = self.made[word] = self.make(word)
        return c

    def clauses(self) -> list[Clause]:
        return [self.clause(w) for w in self.names]


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
    """Sorts, clauses and block declarations, from source text or
    `add_clauses`.  Each predicate has one clause list, in load order, in
    which a `Words` stands for its words' clauses; `candidates` makes a
    word's clause when a goal names the word, and replaces the `Words`
    with all of its clauses when a goal asks for every clause."""

    def __init__(self, sorts: SortTable | None = None):
        self.sorts = sorts if sorts is not None else SortTable()
        self._clauses: dict[tuple[str, int], list] = {}
        # the predicates whose clause list still holds a `Words`
        self._words: set[tuple[str, int]] = set()
        self._blocks: dict[tuple[str, int], BlockSpec] = {}
        # the source texts whose clauses were added
        self.loaded: set[str] = set()
        # candidates per (predicate, first-argument key), in clause order
        self._filtered: dict[tuple, list[Clause]] = {}
        # the answer clauses of each goal tabled by `Engine.table`, by key;
        # a key's first item is the predicate that holds the answers
        self.table: dict[tuple, list[Clause]] = {}
        # the frames a `Parser` attempt keeps, by (word, n, token sorts)
        self.frame_index: dict[tuple, list] = {}

    def load(self, text: str, path: str | None = None) -> None:
        if text in self.loaded:
            return
        clauses = []
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
            clauses.append(Clause(head, body, pos))
        self.add_clauses(clauses, text)

    def add_clauses(self, clauses: list, text: str) -> None:
        """Append `clauses` to their predicates, in order, and record their
        source `text`.  An item may be `Words`, standing for its clauses.
        A table's answers may rest on any clause, so the table, the frame
        index and the predicates that hold its answers are emptied."""
        self.loaded.add(text)
        self._filtered.clear()
        for key in self.table:
            self._clauses[key[0]] = []
        self.table.clear()
        self.frame_index.clear()
        for c in clauses:
            if type(c) is Words:
                key = c.key
                self._words.add(key)
            else:
                head = c.head
                key = (head.name, len(head.args) if type(head) is Struct else 0)
            self._clauses.setdefault(key, []).append(c)

    def ensure_predicate(self, name: str, arity: int) -> None:
        """Register a predicate with no clauses yet, so calling it fails
        instead of raising."""
        if not self.defines(name, arity):
            self._clauses[name, arity] = []

    def add_table(self, key: tuple, clauses: list[Clause]) -> None:
        """Keep `clauses`, the answers `Engine.table` found under `key`, in
        the table and as clauses of the predicate `key[0]`, which holds
        table answers only; one key's answers share an atom first argument.
        The key must tell apart any two goals whose answers may differ."""
        self.table[key] = clauses
        self._clauses.setdefault(key[0], []).extend(clauses)
        if clauses:     # a new list, as a live choicepoint may hold the cached one
            k = (key[0], clauses[0].index_key)
            self._filtered[k] = self._filtered.get(k, []) + clauses

    def defines(self, name: str, arity: int) -> bool:
        return (name, arity) in self._clauses

    def block_spec(self, name: str, arity: int) -> BlockSpec | None:
        return self._blocks.get((name, arity))

    def candidates(self, key: tuple[str, int], store: Store, args: tuple) -> list[Clause]:
        """The clauses of predicate `key` that may match a goal with
        arguments `args`, in clause order: those whose first argument has
        the goal's first-argument key or is a variable.  A predicate with
        at most one clause, or a goal with no first argument or an unbound
        one, gets every clause.  A `Words` gives the clause of the word a
        goal names, made the first time; a goal that gets every clause
        replaces the predicate's list, once, with every `Words` made."""
        clauses = self._clauses[key]
        words = key in self._words
        if not words and len(clauses) <= 1:
            return clauses
        g = _index_key(store.deref(args[0])) if args else None
        if g is None:
            if words:
                self._words.discard(key)
                clauses = self._clauses[key] = [
                    c for item in clauses
                    for c in (item.clauses() if type(item) is Words else (item,))]
            return clauses
        out = self._filtered.get((key, g))
        if out is None:
            word = g[1] if g[0] == "atom" else None
            out = self._filtered[key, g] = [
                c.clause(word) if type(c) is Words else c for c in clauses
                if (word in c.names if type(c) is Words else c.index_key in (None, g))]
        return out


class Solution(_Record):
    """One answer: named query variables (detached), the goals still
    suspended when it was produced, and the steps its solve had taken."""
    __slots__ = _fields = ("bindings", "residue", "steps")

    def __init__(self, bindings: dict[str, object], residue: list, steps: int):
        self.bindings, self.residue, self.steps = bindings, residue, steps


class Truncated(_Record):
    """End-of-stream marker: the solve spent its budget of `steps`, so
    absence of further answers proves nothing."""
    __slots__ = _fields = ("steps",)

    def __init__(self, steps: int):
        self.steps = steps


class Engine:
    def __init__(self, program: Program, max_depth: int = 10000, trace=None):
        self.program = program
        self.store = Store(program.sorts)
        self.store.trace = trace
        self.max_depth = max_depth
        self._steps = 0
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

    # -- proving

    def _prove(self, goals: list):
        """Low-level enumeration on the Engine's step budget
        (`prove_live`): yields None per answer with bindings still live
        in the store.  The caller inspects or resolves them, then
        advances, and must mark and undo around the whole enumeration,
        also after a cut-off."""
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
                self._steps += 1        # `count_step`, inlined in the hot loop
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

    def solve(self, goals: list, var_names: dict[str, Var]):
        """Yield a Solution per answer to the conjunction of `goals`, with
        the variables of `var_names` resolved by name.  The solve has a
        step budget of its own; if it runs out, the last item yielded is
        a Truncated marker.  Ending or closing the generator undoes the
        store and gives the caller's step count back."""
        store = self.store
        steps, self._steps, self._truncated = self._steps, 0, False
        m0 = store.mark()
        try:
            for _ in self._prove(goals):
                memo: dict = {}
                counter = itertools.count(1)
                bindings = {n: resolve(store, v, memo, counter)
                            for n, v in var_names.items()}
                residue = [resolve(store, g, memo, counter)
                           for g in store.pending_residue()]
                yield Solution(bindings, residue, self._steps)
        finally:
            store.undo_to(m0)
            steps, self._steps = self._steps, steps
        if self._truncated:
            yield Truncated(steps)

    def table(self, key: tuple, goal: Struct) -> list[Clause] | None:
        """The answers to `goal`, solved once per Program and `key`.  The
        goal's leading arguments are atoms and its last is unbound or
        partly built, so the key must tell apart any two goals whose
        answers may differ: a word's entry per form, a head's frames per
        subcat length.  Each answer is kept as a clause `name(Atoms...,
        Answer) :- Residue` of the predicate `key[0]`, `(name, arity)`,
        resolved with the goals it left suspended; a call of `name` then
        matches it in place and runs the residue.  Returns None, keeping
        nothing, if the step budget cut the solve off."""
        answers = self.program.table.get(key)
        if answers is not None:
            return answers
        name = key[0][0]
        pos, answers = f"<table {name}>", []
        for sol in self.solve([goal], var_names={"answer": goal.args[-1]}):
            if isinstance(sol, Truncated):
                return None
            head = Struct(name, goal.args[:-1] + (sol.bindings["answer"],))
            answers.append(Clause(head, tuple(sol.residue), pos))
        self.program.add_table(key, answers)
        return answers

    # `solve` calls `_prove`, so a wrapper of `prove_live` sees only the
    # enumerations made outside a `solve`
    prove_live = _prove

    def count_step(self) -> bool:
        """Count a step on the Engine's budget, as a call does; False if
        the budget is spent."""
        self._steps += 1
        if self._steps > self.max_depth:
            self._truncated = True
        return not self._truncated

    @property
    def truncated(self) -> bool:
        return self._truncated

