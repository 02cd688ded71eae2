"""Sorted feature structures and a destructive-unification store.

Terms are variables, atoms, structures, lists and open attribute-value
records (Avm).  An Avm carries a sort drawn from a single-inheritance
hierarchy; unifying two records computes the sort meet and merges the
feature sets, so records stay open to further refinement.

Unification is destructive with a trail, in the style of WAM-based
engines: every side effect pushes an undo entry, and `Store.undo_to`
rewinds to a mark.  Variables and records share one reference slot,
`ref`: a bound variable's `ref` holds its value, and a merged Avm node is
not copied but gets a `ref` to the survivor, so dereferencing follows
one kind of link.  This keeps structure sharing intact, which the
grammar relies on for its scope distinctions.  Since a binding lives on
the term, a term belongs to one live store at a time; every Engine and
parser attempt builds its own terms and undoes to its mark when done.

The occurs check is always on: a unification that would make a term
contain itself fails.  It walks in full where two goal terms unify.  A
clause is tried through code `compile_clause` makes on its first try,
WAM-style: one matcher per head argument and one builder per body goal,
over a list of registers that hold the clause's variables and the nodes
it holds twice.  The matchers unify the goal with the head as read and
build only what the goal lacks.  Since a built term is fresh except for
registers filled before it, they check only those registers.

The store also owns the suspension machinery used by the solver.  A
blocked goal hangs off the variables it waits for, in their `watch` slot,
as in WAM implementations of freeze (Carlsson, ICLP 1987), and binding
one of them moves it onto a wake list.  Like a binding, a watcher lives
on the term, so the one-live-store rule above covers it too.
"""

from __future__ import annotations

import itertools

from .errors import SortError

_var_ids = itertools.count(1)


# ---------------------------------------------------------------------------
# sorts

class Sort:
    __slots__ = ("name", "parent", "depth")

    def __init__(self, name: str, parent: "Sort | None"):
        self.name = name
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1

    def __repr__(self):
        return f"Sort({self.name})"


class SortTable:
    """Single-inheritance sort tree rooted at `top`."""

    def __init__(self):
        self._sorts: dict[str, Sort] = {}
        self.top = Sort("top", None)
        self._sorts["top"] = self.top

    def declare(self, name: str, parent: str) -> Sort:
        if name in self._sorts:
            raise SortError(f"duplicate sort declaration: {name}")
        if parent not in self._sorts:
            raise SortError(f"unknown parent sort: {parent}")
        s = Sort(name, self._sorts[parent])
        self._sorts[name] = s
        return s

    def undeclare(self, name: str) -> None:
        """Take back the declaration of `name`, a sort with no subsorts."""
        del self._sorts[name]

    def get(self, name: str) -> Sort:
        try:
            return self._sorts[name]
        except KeyError:
            raise SortError(f"unknown sort: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._sorts

    def names(self) -> list[str]:
        return list(self._sorts)

    def meet(self, a: Sort, b: Sort) -> Sort | None:
        """Greatest lower bound in a tree: the more specific sort if one
        dominates the other, else nothing."""
        if a is b:
            return a
        x, y = (a, b) if a.depth >= b.depth else (b, a)
        walk = x
        while walk.depth > y.depth:
            walk = walk.parent
        return x if walk is y else None


# ---------------------------------------------------------------------------
# terms

class Var:
    """Logic variable.  `ref` is None while unbound.  `watch` holds the
    suspensions waiting for a binding, newest first, as linked
    `(suspension, older)` pairs, or None.  `id` is only a display label,
    which `resolve` renumbers."""

    __slots__ = ("id", "name", "ref", "watch")

    def __init__(self, name: str | None = None):
        self.id = next(_var_ids)
        self.name = name
        self.ref = None
        self.watch = None

    def __repr__(self):
        return f"Var({self.name or '_G%d' % self.id})"


class Atom:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"Atom({self.name})"

    def __eq__(self, other):
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self):
        return hash(("Atom", self.name))


class Struct:
    """Predicate application / compound term: name(arg1, ..., argn)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = tuple(args)

    def __repr__(self):
        return f"Struct({self.name}/{len(self.args)})"


class _Nil:
    __slots__ = ()

    def __repr__(self):
        return "NIL"


NIL = _Nil()


class ListCons:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail

    def __repr__(self):
        return "ListCons(...)"


class Avm:
    """Open record with a sort.  `ref` points at the merge survivor, as a
    bound variable's `ref` points at its value."""

    __slots__ = ("sort", "feats", "ref")

    def __init__(self, sort: Sort, feats: dict | None = None):
        self.sort = sort
        self.feats = feats if feats is not None else {}
        self.ref = None

    def __repr__(self):
        return f"Avm({self.sort.name}, {sorted(self.feats)})"


def deref(t):
    """Follow variable bindings and record forwards to the term they end
    at.  No term class is subclassed, so the walkers dispatch on exact
    types."""
    tp = type(t)
    while tp is Var or tp is Avm:
        nxt = t.ref
        if nxt is None:
            return t
        t = nxt
        tp = type(t)
    return t


def make_list(items, tail=NIL):
    out = tail
    for x in reversed(list(items)):
        out = ListCons(x, out)
    return out


def list_to_python(t) -> tuple[list, object]:
    """Walk a list term, live or resolved; returns (prefix items, tail)
    where tail is NIL for a proper list or whatever non-cons term ends
    it."""
    items = []
    t = deref(t)
    while type(t) is ListCons:
        items.append(t.head)
        t = deref(t.tail)
    return items, t


# ---------------------------------------------------------------------------
# suspensions

class Suspension:
    __slots__ = ("goal", "seq", "woken")

    def __init__(self, goal, seq: int):
        self.goal = goal
        self.seq = seq
        self.woken = False

    def __repr__(self):
        return f"Suspension(seq={self.seq}, woken={self.woken})"


# ---------------------------------------------------------------------------
# store

class Store:
    """Trail and suspension bookkeeping for one solver run.

    Bindings and merge forwards live on the terms, in their `ref` slot,
    and suspensions on the variables they wait for, in `watch`;
    `susp_log` holds the live suspensions in creation order.  Trail
    entries are small tuples; the first element tags the undo action.
    Everything that mutates solver-visible state, a `ref` or `watch`
    included, goes through a helper here so backtracking restores it.
    """

    def __init__(self, sorts: SortTable | None = None):
        self.sorts = sorts if sorts is not None else SortTable()
        self.trail: list[tuple] = []
        self.wake_list: list[Suspension] = []
        self.susp_log: list[Suspension] = []
        self.trace = None

    # -- vars and marks

    def new_var(self, name: str | None = None) -> Var:
        return Var(name)

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, m: int) -> None:
        trail = self.trail
        while len(trail) > m:
            entry = trail.pop()
            tag = entry[0]
            if tag == "ref":
                entry[1].ref = None
            elif tag == "sort":
                entry[1].sort = entry[2]
            elif tag == "feat":
                del entry[1].feats[entry[2]]
            elif tag == "susp":
                self.susp_log.pop()
                for v in entry[1]:
                    v.watch = v.watch[1]
            elif tag == "wake":
                self.wake_list.pop()
                entry[1].woken = False
            elif tag == "drain":
                self.wake_list = entry[1]
            else:  # pragma: no cover
                raise AssertionError(f"bad trail tag {tag!r}")

    deref = staticmethod(deref)

    # -- mutation helpers (each one trails its own undo)

    def _set_ref(self, node, to) -> None:
        node.ref = to
        self.trail.append(("ref", node))

    def _bind(self, v: Var, t) -> None:
        self._set_ref(v, t)
        if self.trace:
            self.trace(("bind", v, t), self)
        w = v.watch
        while w is not None:
            s, w = w
            if not s.woken:
                s.woken = True
                self.wake_list.append(s)
                self.trail.append(("wake", s))

    def _set_sort(self, node: Avm, sort: Sort) -> None:
        self.trail.append(("sort", node, node.sort))
        node.sort = sort

    def _add_feat(self, node: Avm, name: str, value) -> None:
        node.feats[name] = value
        self.trail.append(("feat", node, name))

    # -- suspensions

    def suspend_goal(self, goal, variables: list[Var]) -> Suspension:
        """Park `goal` on the unbound `variables` until one is bound.  Its
        `seq` is its index in `susp_log`, its order among live ones."""
        s = Suspension(goal, len(self.susp_log))
        for v in variables:
            v.watch = (s, v.watch)
        self.susp_log.append(s)
        self.trail.append(("susp", variables))
        if self.trace:
            self.trace(("suspend", goal, variables), self)
        return s

    def drain_wakes(self) -> list[Suspension]:
        """Take every queued suspension off the wake list, oldest first.
        The drained list is trailed; each suspension's woken flag was set
        and trailed when it was queued."""
        drained = self.wake_list
        self.trail.append(("drain", drained))
        self.wake_list = []
        drained = sorted(drained, key=lambda s: s.seq)
        if self.trace:
            for s in drained:
                self.trace(("resume", s.goal), self)
        return drained

    def pending_residue(self) -> list:
        """Goals still suspended; read only once the wake list is drained."""
        return [s.goal for s in self.susp_log if not s.woken]


# ---------------------------------------------------------------------------
# unification

def unify(store: Store, a, b) -> bool:
    m = store.mark()
    if _unify(store, a, b):
        return True
    store.undo_to(m)
    return False


def _unify(store: Store, a, b) -> bool:
    a = deref(a)
    b = deref(b)
    while type(a) is ListCons and type(b) is ListCons and a is not b:
        if not _unify(store, a.head, b.head):
            return False
        a = deref(a.tail)
        b = deref(b.tail)
    if a is b:
        return True
    ta = type(a)
    if ta is Var:
        return _bind_var(store, a, b)
    tb = type(b)
    if tb is Var:
        return _bind_var(store, b, a)
    if ta is not tb:
        return False
    if ta is Atom:
        return a.name == b.name
    if ta is Struct:
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        for x, y in zip(a.args, b.args):
            if not _unify(store, x, y):
                return False
        return True
    if ta is Avm:
        return _merge_avms(store, a, b)
    return False  # two list cells were walked above, and NIL is one object


def _bind_var(store: Store, v: Var, t) -> bool:
    if _occurs((v,), [t]):
        return False
    store._bind(v, t)
    return True


def _occurs(targets: tuple, terms: list) -> bool:
    """Does one of `targets`, unbound variables or records, occur in one of
    `terms`?  Binds and merges ask, so as never to build a term that holds
    itself.  One walk, using up `terms` as its stack, visits each list
    cell, structure and record once however many paths reach it, and ends
    at the first target met.  Its visited set is made at the first such
    node, so a walk over atoms and variables makes none."""
    seen = None
    while terms:
        t = deref(terms.pop())
        tp = type(t)
        if tp is Atom or tp is _Nil:
            continue
        if tp is Var or tp is Avm:
            if t in targets:
                return True
            if tp is Var:
                continue
        if seen is None:
            seen = set()
        elif t in seen:
            continue
        seen.add(t)
        if tp is ListCons:
            terms.append(t.tail)
            terms.append(t.head)
        else:
            terms.extend(t.args if tp is Struct else t.feats.values())
    return False


def _merge_avms(store: Store, a: Avm, b: Avm) -> bool:
    meet = store.sorts.meet(a.sort, b.sort)
    if meet is None:
        return False
    if _occurs((a, b), [*a.feats.values(), *b.feats.values()]):
        return False
    store._set_ref(b, a)
    if a.sort is not meet:
        store._set_sort(a, meet)
    for f, v in list(b.feats.items()):
        # nested merges may forward the survivor itself; re-deref each time
        t = deref(a)
        if f in t.feats:
            if not _unify(store, t.feats[f], v):
                return False
        else:
            store._add_feat(t, f, v)
    return True


# ---------------------------------------------------------------------------
# clause code

def compile_clause(head, body) -> tuple:
    """Code for trying the clause `head :- body`: `(matchers, builders,
    size)`.  `matchers` holds `(i, match)` for each head argument `i` that
    not every goal term matches, and `match(store, goal_arg, regs)` unifies
    the goal's argument with that clause argument as read, building only
    what the goal lacks; `builders` holds one `build(regs)` per body goal.
    `regs` is a fresh list of `size` registers per try.  On failure the
    caller undoes to its mark.

    The clause is walked once, head then body, in the order the code runs,
    so a node's first occurrence is known here.  A clause variable, and a
    list cell, structure or record the clause holds twice (a tabled answer
    can), gets a register: its first occurrence fills it with the goal term
    it meets or with the term it built, and a later one unifies with it or
    reads it.  A variable the clause holds once matches anything.  The
    result is that of `unify(store, goal, copy_term(store, head, memo))`
    followed by copying the body with the same memo, except that a clause
    variable takes the goal term it first meets instead of binding it.

    A copied clause term is fresh except for the registers filled before
    it, so the occurs check has nothing else to look at: a goal variable
    that takes a built term, and a goal record that a clause record merges
    into, are checked only against those registers (Apt and Pellegrini,
    "On the occur-check-free Prolog programs", TOPLAS 1994; the WAM's
    first-occurrence `get_variable`).  An atom binds with no check."""
    counts: dict[int, int] = {}
    args = head.args if type(head) is Struct else ()
    for t in (*args, *body):
        _count_nodes(t, counts)
    walk = _ClauseWalk(counts)
    matchers = []
    for i, a in enumerate(args):
        match = walk.node(a, True)[0]
        if match is not None:
            matchers.append((i, match))
    builders = tuple(walk.node(g, False)[1] for g in body)
    return tuple(matchers), builders, len(walk.regs)


def _count_nodes(t, counts: dict) -> None:
    """Count the occurrences of each variable and compound node, walking
    a node's parts at its first occurrence only."""
    stack = [t]
    while stack:
        t = stack.pop()
        tp = type(t)
        if tp is Atom or tp is _Nil:
            continue
        n = counts.get(id(t), 0)
        counts[id(t)] = n + 1
        if n or tp is Var:
            continue
        if tp is ListCons:
            stack.append(t.tail)
            stack.append(t.head)
        else:
            stack.extend(t.args if tp is Struct else t.feats.values())


class _ClauseWalk:
    """One preorder walk of a clause, making code for each node."""

    def __init__(self, counts: dict):
        self.counts = counts
        self.regs: dict[int, int] = {}    # node id -> register
        # one code per constant, as a long list literal repeats a few atoms
        self.consts: dict[tuple, tuple] = {}

    def node(self, t, head: bool) -> tuple:
        """`(match, build, early)` for the clause term `t`, met at this
        point of the walk.  `match` is None where any goal term matches, or
        when `head` is false.  `early` lists the registers filled before
        `t` that `t` holds: the only goal terms a copy of `t` contains."""
        tp = type(t)
        if tp is Atom or tp is _Nil:
            key = (tp, getattr(t, "name", None))
            code = self.consts.get(key)
            if code is None:
                code = self.consts[key] = _const_code(t)
            return code
        r = self.regs.get(id(t))
        if r is not None:
            return _later_code(r)
        base = len(self.regs)
        if self.counts[id(t)] > 1:
            r = self.regs[id(t)] = base
        if tp is Var:
            return _var_code(t.name, r)
        if tp is ListCons:
            return self.spine(t, r, head, base)
        parts = [self.node(x, head)
                 for x in (t.args if tp is Struct else t.feats.values())]
        early = []
        for part in parts:
            for e in part[2]:
                if e < base and e not in early:
                    early.append(e)
        if tp is Struct:
            return _struct_code(t.name, r, parts, tuple(early), head)
        return _avm_code(t.sort, tuple(t.feats), r, parts, tuple(early), head)

    def spine(self, t, r, head: bool, base: int) -> tuple:
        """Code for the list cells from `t` up to a tail that is not a cell
        or was met before, looping along the spine."""
        cell_regs, matchers, builders = [], [], []
        last: dict[int, int] = {}  # early register -> last cell holding it
        while True:
            match, build, early = self.node(t.head, head)
            for e in early:
                last[e] = len(cell_regs)
            cell_regs.append(r)
            matchers.append(match)
            builders.append(build)
            t = t.tail
            if type(t) is not ListCons or id(t) in self.regs:
                break
            r = None
            if self.counts[id(t)] > 1:
                r = self.regs[id(t)] = len(self.regs)
        tail = self.node(t, head)
        for e in tail[2]:
            last[e] = len(cell_regs)
        return _list_code(tuple(cell_regs), tuple(matchers), tuple(builders),
                          tail, tuple(last.items()),
                          tuple(e for e in last if e < base), head)


def _checked(v: Var, early: tuple, regs: list) -> bool:
    """May the goal variable `v` take a copied clause term holding the
    registers `early`?  A loop gathers them, cheaper than a comprehension."""
    terms = []
    for e in early:
        terms.append(regs[e])
    return not terms or not _occurs((v,), terms)


def _const_code(c) -> tuple:
    name = c.name if type(c) is Atom else None     # None for `[]`

    def match(store, g, regs):
        g = deref(g)
        if type(g) is Var:
            store._bind(g, c)
            return True
        return g is c or (type(g) is Atom and g.name == name)
    return match, lambda regs: c, ()


def _later_code(r: int) -> tuple:
    def match(store, g, regs):
        return _unify(store, g, regs[r])
    return match, lambda regs: regs[r], (r,)


def _var_code(name, r) -> tuple:
    if r is None:
        return None, lambda regs: Var(name), ()

    def match(store, g, regs):
        regs[r] = g
        return True

    def build(regs):
        v = regs[r] = Var(name)
        return v
    return match, build, ()


def _struct_code(name: str, r, parts: list, early: tuple, head: bool) -> tuple:
    builders = tuple(p[1] for p in parts)

    def build(regs):
        node = Struct(name, [b(regs) for b in builders])
        if r is not None:
            regs[r] = node
        return node
    if not head:
        return None, build, early
    arity = len(parts)
    matchers = tuple((i, p[0]) for i, p in enumerate(parts) if p[0] is not None)

    def match(store, g, regs):
        g = deref(g)
        tp = type(g)
        if tp is Struct:
            if g.name != name or len(g.args) != arity:
                return False
            if r is not None:
                regs[r] = g
            args = g.args
            for i, m in matchers:
                if not m(store, args[i], regs):
                    return False
            return True
        if tp is Var and _checked(g, early, regs):
            store._bind(g, build(regs))
            return True
        return False
    return match, build, early


def _avm_code(sort: Sort, names: tuple, r, parts: list, early: tuple,
              head: bool) -> tuple:
    feats = tuple(zip(names, [p[1] for p in parts]))

    def build(regs):
        node = Avm(sort, {f: b(regs) for f, b in feats})
        if r is not None:
            regs[r] = node
        return node
    if not head:
        return None, build, early
    code = tuple((f, p[0], p[1]) for f, p in zip(names, parts))

    def match(store, g, regs):
        g = deref(g)
        tp = type(g)
        if tp is Avm:
            meet = store.sorts.meet(g.sort, sort)
            if meet is None or not _checked(g, early, regs):
                return False
            if r is not None:
                regs[r] = g
            if g.sort is not meet:
                store._set_sort(g, meet)
            for f, m, b in code:
                # nested merges may forward the goal record; re-deref each time
                t = deref(g)
                if f in t.feats:
                    if m is not None and not m(store, t.feats[f], regs):
                        return False
                else:
                    store._add_feat(t, f, b(regs))
            return True
        if tp is Var and _checked(g, early, regs):
            store._bind(g, build(regs))
            return True
        return False
    return match, build, early


def _list_code(cell_regs: tuple, matchers: tuple, builders: tuple, tail: tuple,
               last: tuple, early: tuple, head: bool) -> tuple:
    n = len(cell_regs)
    tail_match, tail_build = tail[0], tail[1]

    def build_from(regs, i):
        first = prev = None
        for j in range(i, n):
            cell = ListCons(builders[j](regs), None)
            if cell_regs[j] is not None:
                regs[cell_regs[j]] = cell
            if prev is None:
                first = cell
            else:
                prev.tail = cell
            prev = cell
        prev.tail = tail_build(regs)
        return first

    def build(regs):
        return build_from(regs, 0)
    if not head:
        return None, build, early

    def match(store, g, regs):
        i = 0
        while i < n:
            g = deref(g)
            tp = type(g)
            if tp is ListCons:
                if cell_regs[i] is not None:
                    regs[cell_regs[i]] = g
                m = matchers[i]
                if m is not None and not m(store, g.head, regs):
                    return False
                g = g.tail
                i += 1
            elif tp is Var:
                terms = []      # the filled registers that cells i.. reach
                for e, j in last:
                    if j >= i and regs[e] is not None:
                        terms.append(regs[e])
                if _occurs((g,), terms):
                    return False
                store._bind(g, build_from(regs, i))
                return True
            else:
                return False
        return tail_match is None or tail_match(store, g, regs)
    return match, build, early


# ---------------------------------------------------------------------------
# copying and snapshots

def copy_term(store: Store, t, memo: dict | None = None, counter=None):
    """Fresh copy with new variables and fresh Avm nodes; sharing inside
    the copied term is preserved via the memo (keyed by node identity).
    With a counter, the new variables are numbered from it in traversal
    order."""
    if memo is None:
        memo = {}
    t = deref(t)
    tp = type(t)
    if tp is Atom or tp is _Nil:
        return t
    key = id(t)
    if key in memo:
        return memo[key]
    if tp is Var:
        v = memo[key] = Var(t.name)
        if counter is not None:
            v.id = next(counter)
        return v
    if tp is ListCons:
        first = node = memo[key] = ListCons(None, None)
        while True:  # along the tail, copying cell by cell
            node.head = copy_term(store, t.head, memo, counter)
            t = deref(t.tail)
            if type(t) is not ListCons or id(t) in memo:
                node.tail = copy_term(store, t, memo, counter)
                return first
            node.tail = memo[id(t)] = ListCons(None, None)
            node = node.tail
    if tp is Struct:
        node = memo[key] = Struct(t.name, ())
        node.args = tuple([copy_term(store, a, memo, counter) for a in t.args])
        return node
    if tp is Avm:
        node = memo[key] = Avm(t.sort)
        for f, v in t.feats.items():
            node.feats[f] = copy_term(store, v, memo, counter)
        return node
    return t


def resolve(store: Store, t, memo: dict | None = None, counter=None):
    """Detached snapshot of a term: bindings and forwards followed, fresh
    nodes built, unbound variables renumbered in traversal order.  Use one
    memo (and counter) across several calls to keep cross-term sharing
    observable."""
    return copy_term(store, t, memo,
                     itertools.count(1) if counter is None else counter)
