"""Sorted feature structures and a destructive-unification store.

Terms are variables, atoms, structures, lists and open attribute-value
records (Avm).  An Avm carries a sort drawn from a single-inheritance
hierarchy; unifying two records computes the sort meet and merges the
feature sets, so records stay open to further refinement.

Unification is destructive with a trail, in the style of WAM-based
engines: every side effect pushes an undo entry, and `Store.undo_to`
rewinds to a mark.  Merged Avm nodes are not copied; the dead node gets
a forward pointer to the survivor (dereferencing follows both variable
bindings and forwards).  This keeps structure sharing intact, which the
grammar relies on for its scope distinctions.

The store also owns the suspension machinery used by the solver: goals
blocked on unbound variables are parked here, and binding one of their
watched variables moves them onto a wake list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    __slots__ = ("id", "name")

    def __init__(self, name: str | None = None):
        self.id = next(_var_ids)
        self.name = name

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
    """Open record with a sort.  `forward` points at the merge survivor."""

    __slots__ = ("sort", "feats", "forward")

    def __init__(self, sort: Sort, feats: dict | None = None):
        self.sort = sort
        self.feats = feats if feats is not None else {}
        self.forward = None

    def __repr__(self):
        return f"Avm({self.sort.name}, {sorted(self.feats)})"


def make_list(items, tail=NIL):
    out = tail
    for x in reversed(list(items)):
        out = ListCons(x, out)
    return out


def list_to_python(store: "Store", t) -> tuple[list, object]:
    """Walk a list term; returns (prefix items, tail) where tail is NIL
    for a proper list or whatever non-cons term ends it."""
    items = []
    t = store.deref(t)
    while isinstance(t, ListCons):
        items.append(t.head)
        t = store.deref(t.tail)
    return items, t


# ---------------------------------------------------------------------------
# suspensions

class Suspension:
    __slots__ = ("goal", "seq", "var_ids", "woken", "queued")

    def __init__(self, goal, seq: int, var_ids: tuple[int, ...]):
        self.goal = goal
        self.seq = seq
        self.var_ids = var_ids
        self.woken = False
        self.queued = False

    def __repr__(self):
        return f"Suspension(seq={self.seq}, woken={self.woken})"


# ---------------------------------------------------------------------------
# store

class Store:
    """Bindings, trail, and suspension bookkeeping for one solver run.

    Trail entries are small tuples; the first element tags the undo
    action.  Everything that mutates solver-visible state goes through a
    helper here so backtracking restores it exactly.
    """

    def __init__(self, sorts: SortTable | None = None, occurs_check: bool = True):
        self.sorts = sorts if sorts is not None else SortTable()
        self.bindings: dict[int, object] = {}
        self.suspensions: dict[int, list[Suspension]] = {}
        self.trail: list[tuple] = []
        self.wake_list: list[Suspension] = []
        self.susp_log: list[Suspension] = []
        self.occurs_check = occurs_check
        self.trace = None
        self._susp_seq = itertools.count(1)

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
            if tag == "b":
                del self.bindings[entry[1]]
            elif tag == "fwd":
                entry[1].forward = None
            elif tag == "sort":
                entry[1].sort = entry[2]
            elif tag == "feat":
                del entry[1].feats[entry[2]]
            elif tag == "susp":
                self.suspensions[entry[1]].pop()
            elif tag == "log":
                self.susp_log.pop()
            elif tag == "wake":
                self.wake_list.pop()
            elif tag == "drain":
                self.wake_list = entry[1]
            elif tag == "wk":
                entry[1].woken = False
            elif tag == "q":
                entry[1].queued = False
            else:  # pragma: no cover
                raise AssertionError(f"bad trail tag {tag!r}")

    # -- dereference

    def deref(self, t):
        while True:
            if isinstance(t, Var):
                nxt = self.bindings.get(t.id)
                if nxt is None:
                    return t
                t = nxt
            elif isinstance(t, Avm) and t.forward is not None:
                t = t.forward
            else:
                return t

    # -- mutation helpers (each one trails its own undo)

    def _bind(self, v: Var, t) -> None:
        self.bindings[v.id] = t
        self.trail.append(("b", v.id))
        if self.trace:
            self.trace(("bind", v, t), self)
        pending = self.suspensions.get(v.id)
        if pending:
            for s in pending:
                if not s.woken and not s.queued:
                    s.queued = True
                    self.trail.append(("q", s))
                    self.wake_list.append(s)
                    self.trail.append(("wake",))

    def _set_forward(self, node: Avm, to: Avm) -> None:
        node.forward = to
        self.trail.append(("fwd", node))

    def _set_sort(self, node: Avm, sort: Sort) -> None:
        self.trail.append(("sort", node, node.sort))
        node.sort = sort

    def _add_feat(self, node: Avm, name: str, value) -> None:
        node.feats[name] = value
        self.trail.append(("feat", node, name))

    # -- suspensions

    def suspend_goal(self, goal, variables: list[Var]) -> Suspension:
        s = Suspension(goal, next(self._susp_seq), tuple(v.id for v in variables))
        for v in variables:
            self.suspensions.setdefault(v.id, []).append(s)
            self.trail.append(("susp", v.id))
        self.susp_log.append(s)
        self.trail.append(("log",))
        if self.trace:
            self.trace(("suspend", goal, variables), self)
        return s

    def drain_wakes(self) -> list[Suspension]:
        """Take every queued suspension off the wake list, oldest first.
        The drained list and the woken flags are both trailed."""
        drained = self.wake_list
        self.trail.append(("drain", drained))
        self.wake_list = []
        drained = sorted(drained, key=lambda s: s.seq)
        for s in drained:
            s.woken = True
            self.trail.append(("wk", s))
            if self.trace:
                self.trace(("resume", s.goal), self)
        return drained

    def pending_residue(self) -> list:
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
    a = store.deref(a)
    b = store.deref(b)
    while isinstance(a, ListCons) and isinstance(b, ListCons) and a is not b:
        if not _unify(store, a.head, b.head):
            return False
        a = store.deref(a.tail)
        b = store.deref(b.tail)
    if a is b:
        return True
    if isinstance(a, Var):
        return _bind_var(store, a, b)
    if isinstance(b, Var):
        return _bind_var(store, b, a)
    if isinstance(a, Atom):
        return isinstance(b, Atom) and a.name == b.name
    if isinstance(a, _Nil):
        return isinstance(b, _Nil)
    if isinstance(a, Struct):
        if not (isinstance(b, Struct) and a.name == b.name
                and len(a.args) == len(b.args)):
            return False
        for x, y in zip(a.args, b.args):
            if not _unify(store, x, y):
                return False
        return True
    if isinstance(a, Avm):
        return isinstance(b, Avm) and _merge_avms(store, a, b)
    return False


def _bind_var(store: Store, v: Var, t) -> bool:
    if store.occurs_check and _occurs(store, v, t):
        return False
    store._bind(v, t)
    return True


def _occurs(store: Store, target, t, seen: set | None = None) -> bool:
    """Does `target` (an unbound variable or a record) occur in `t`?
    Guards binding and merging against building a term that contains
    itself.  Records walked are kept in `seen`, so a cycle through
    records ends the walk."""
    t = store.deref(t)
    while isinstance(t, ListCons):
        if _occurs(store, target, t.head, seen):
            return True
        t = store.deref(t.tail)
    if t is target:
        return True
    if isinstance(t, Struct):
        return any(_occurs(store, target, a, seen) for a in t.args)
    if isinstance(t, Avm):
        if seen is None:
            seen = set()
        if id(t) in seen:
            return False
        seen.add(id(t))
        return any(_occurs(store, target, x, seen) for x in t.feats.values())
    return False


def _merge_avms(store: Store, a: Avm, b: Avm) -> bool:
    meet = store.sorts.meet(a.sort, b.sort)
    if meet is None:
        return False
    if store.occurs_check and (_occurs(store, b, a) or _occurs(store, a, b)):
        return False
    store._set_forward(b, a)
    if a.sort is not meet:
        store._set_sort(a, meet)
    for f, v in list(b.feats.items()):
        # nested merges may forward the survivor itself; re-deref each time
        t = store.deref(a)
        if f in t.feats:
            if not _unify(store, t.feats[f], v):
                return False
        else:
            store._add_feat(t, f, v)
    return True


# ---------------------------------------------------------------------------
# copying and snapshots

def copy_term(store: Store, t, memo: dict | None = None, counter=None):
    """Fresh copy with new variables and fresh Avm nodes; sharing inside
    the copied term is preserved via the memo (keyed by node identity).
    With a counter, the new variables are numbered from it in traversal
    order."""
    if memo is None:
        memo = {}
    t = store.deref(t)
    if isinstance(t, Var):
        key = ("v", t.id)
        if key not in memo:
            v = memo[key] = Var(t.name)
            if counter is not None:
                v.id = next(counter)
        return memo[key]
    if isinstance(t, (Atom, _Nil)):
        return t
    key = id(t)
    if key in memo:
        return memo[key]
    if isinstance(t, ListCons):
        first = node = memo[key] = ListCons(None, None)
        while True:  # along the tail, copying cell by cell
            node.head = copy_term(store, t.head, memo, counter)
            t = store.deref(t.tail)
            if not isinstance(t, ListCons) or id(t) in memo:
                node.tail = copy_term(store, t, memo, counter)
                return first
            node.tail = memo[id(t)] = ListCons(None, None)
            node = node.tail
    if isinstance(t, Struct):
        node = memo[key] = Struct(t.name, ())
        node.args = tuple(copy_term(store, a, memo, counter) for a in t.args)
        return node
    if isinstance(t, Avm):
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
