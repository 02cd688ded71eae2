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

The solver tries a clause with `match`, which unifies a goal with the
clause head as read and builds only what the goal lacks; a clause
variable at its first occurrence needs no occurs check there.

The store also owns the suspension machinery used by the solver: goals
blocked on unbound variables are parked here, and binding one of their
watched variables moves them onto a wake list.
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
    """Logic variable.  `ref` is None while unbound; `id` is only a
    display label, which `resolve` renumbers."""

    __slots__ = ("id", "name", "ref")

    def __init__(self, name: str | None = None):
        self.id = next(_var_ids)
        self.name = name
        self.ref = None

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

    Bindings and merge forwards live on the terms, in their `ref` slot.
    Trail entries are small tuples; the first element tags the undo
    action.  Everything that mutates solver-visible state, a `ref`
    included, goes through a helper here so backtracking restores it.
    """

    def __init__(self, sorts: SortTable | None = None, occurs_check: bool = True):
        self.sorts = sorts if sorts is not None else SortTable()
        self.suspensions: dict[Var, list[Suspension]] = {}
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
            if tag == "ref":
                entry[1].ref = None
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
                entry[1].woken = False
            elif tag == "drain":
                self.wake_list = entry[1]
            else:  # pragma: no cover
                raise AssertionError(f"bad trail tag {tag!r}")

    # -- dereference

    def deref(self, t):
        while isinstance(t, Var) or isinstance(t, Avm):
            nxt = t.ref
            if nxt is None:
                return t
            t = nxt
        return t

    # -- mutation helpers (each one trails its own undo)

    def _set_ref(self, node, to) -> None:
        node.ref = to
        self.trail.append(("ref", node))

    def _bind(self, v: Var, t) -> None:
        self._set_ref(v, t)
        if self.trace:
            self.trace(("bind", v, t), self)
        pending = self.suspensions.get(v)
        if pending:
            for s in pending:
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
        s = Suspension(goal, next(self._susp_seq))
        for v in variables:
            self.suspensions.setdefault(v, []).append(s)
            self.trail.append(("susp", v))
        self.susp_log.append(s)
        self.trail.append(("log",))
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


def _unify(store: Store, a, b, pairs: set | None = None) -> bool:
    # without the occurs check terms may be cyclic: one set of visited
    # (list cell or structure) pairs per top-level call, so a pair met
    # again closes a loop whose other parts all unified
    if pairs is None and not store.occurs_check:
        pairs = set()
    a = store.deref(a)
    b = store.deref(b)
    while isinstance(a, ListCons) and isinstance(b, ListCons) and a is not b:
        if pairs is not None:
            if (id(a), id(b)) in pairs:
                return True
            pairs.add((id(a), id(b)))
        if not _unify(store, a.head, b.head, pairs):
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
        if pairs is not None:
            if (id(a), id(b)) in pairs:
                return True
            pairs.add((id(a), id(b)))
        for x, y in zip(a.args, b.args):
            if not _unify(store, x, y, pairs):
                return False
        return True
    if isinstance(a, Avm):
        return isinstance(b, Avm) and _merge_avms(store, a, b, pairs)
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


def _merge_avms(store: Store, a: Avm, b: Avm, pairs: set | None) -> bool:
    meet = store.sorts.meet(a.sort, b.sort)
    if meet is None:
        return False
    if store.occurs_check and (_occurs(store, b, a) or _occurs(store, a, b)):
        return False
    store._set_ref(b, a)
    if a.sort is not meet:
        store._set_sort(a, meet)
    for f, v in list(b.feats.items()):
        # nested merges may forward the survivor itself; re-deref each time
        t = store.deref(a)
        if f in t.feats:
            if not _unify(store, t.feats[f], v, pairs):
                return False
        else:
            store._add_feat(t, f, v)
    return True


# ---------------------------------------------------------------------------
# matching a clause head in place

def match(store: Store, goal, head, memo: dict) -> bool:
    """Unify `goal` with the clause term `head` as read, without copying
    `head` first: the result is that of `unify(store, goal, copy_term(
    store, head, memo))`, but only the parts the goal has no node for are
    built.  `memo` is `copy_term`'s memo and doubles as the clause's
    variable table, so copying the clause body with it afterwards shares
    what the head bound.  Clause terms are never bound, but they may share
    a record or list node as well as variables (a tabled answer does), so
    every clause node met is memoised with the goal term it met, and a
    node met again unifies with that term.  On failure the caller undoes
    to its mark.

    A clause variable at its first occurrence just stands for the goal
    term it meets: its copy would be a fresh variable, which cannot occur
    in that term, so the occurs check has nothing to find (Apt and
    Pellegrini, "On the occur-check-free Prolog programs", TOPLAS 1994;
    the WAM's first-occurrence `get_variable`).  Later occurrences unify
    with the full check."""
    while True:  # along list tails
        key = id(head)
        if key in memo:
            return _unify(store, goal, memo[key])
        if isinstance(head, Var):
            memo[key] = goal
            return True
        goal = store.deref(goal)
        if isinstance(goal, Var):
            return _bind_var(store, goal, copy_term(store, head, memo))
        if isinstance(head, ListCons):
            if not isinstance(goal, ListCons):
                return False
            memo[key] = goal
            if not match(store, goal.head, head.head, memo):
                return False
            goal, head = goal.tail, head.tail
            continue
        if isinstance(head, Atom):
            return isinstance(goal, Atom) and goal.name == head.name
        if isinstance(head, Struct):
            if not (isinstance(goal, Struct) and goal.name == head.name
                    and len(goal.args) == len(head.args)):
                return False
            memo[key] = goal
            for x, y in zip(goal.args, head.args):
                if not match(store, x, y, memo):
                    return False
            return True
        if isinstance(head, Avm):
            return isinstance(goal, Avm) and _match_avm(store, goal, head, memo)
        return goal is head  # NIL


def _match_avm(store: Store, goal: Avm, head: Avm, memo: dict) -> bool:
    """Merge the clause record `head` into the goal record, feature by
    feature in the clause's order, as `_merge_avms(goal, copy)` would.
    The copy would be fresh, so it can reach the goal record only through
    a clause node the memo already holds: that is the one occurs test left
    to make."""
    meet = store.sorts.meet(goal.sort, head.sort)
    if meet is None:
        return False
    if store.occurs_check and _reaches(store, goal, head, memo, set()):
        return False
    memo[id(head)] = goal
    if goal.sort is not meet:
        store._set_sort(goal, meet)
    for f, v in head.feats.items():
        # nested merges may forward the goal record; re-deref each time
        t = store.deref(goal)
        if f in t.feats:
            if not match(store, t.feats[f], v, memo):
                return False
        else:
            store._add_feat(t, f, copy_term(store, v, memo))
    return True


def _reaches(store: Store, target, t, memo: dict, seen: set) -> bool:
    """Does `target` occur in what the clause term `t` stands for under
    `memo`?  Only the nodes the memo holds lead out of the clause."""
    while isinstance(t, ListCons) and id(t) not in memo:
        if _reaches(store, target, t.head, memo, seen):
            return True
        t = t.tail
    if id(t) in memo:
        return _occurs(store, target, memo[id(t)], seen)
    if isinstance(t, Struct):
        return any(_reaches(store, target, a, memo, seen) for a in t.args)
    if isinstance(t, Avm):
        return any(_reaches(store, target, x, memo, seen) for x in t.feats.values())
    return False


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
    if isinstance(t, (Atom, _Nil)):
        return t
    key = id(t)
    if key in memo:
        return memo[key]
    if isinstance(t, Var):
        v = memo[key] = Var(t.name)
        if counter is not None:
            v.id = next(counter)
        return v
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
