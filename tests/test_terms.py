"""Term store basics: sorts, unification, trailing, suspensions, copying,
resolving."""

import copy
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clgram.terms
from clgram import (Atom, Avm, ListCons, NIL, SortError, SortTable, Store,
                    Struct, Var, canonical, copy_term, list_to_python,
                    make_list, resolve, unify)


@pytest.fixture
def sorts():
    t = SortTable()
    t.declare("sign", "top")
    t.declare("verbal", "sign")
    t.declare("finite", "verbal")
    t.declare("noun", "sign")
    t.declare("adverbial", "sign")
    return t


@pytest.fixture
def store(sorts):
    return Store(sorts)


@pytest.fixture
def deref_calls(monkeypatch):
    """A one-item list counting the calls of `terms.deref` from now on."""
    calls = [0]
    real = clgram.terms.deref

    def counting(t):
        calls[0] += 1
        return real(t)
    monkeypatch.setattr(clgram.terms, "deref", counting)
    return calls


class TestSorts:
    def test_meet_descends_to_subsort(self, sorts):
        v, f = sorts.get("verbal"), sorts.get("finite")
        assert sorts.meet(v, f) is f
        assert sorts.meet(f, v) is f

    def test_meet_reflexive(self, sorts):
        for name in sorts.names():
            s = sorts.get(name)
            assert sorts.meet(s, s) is s

    def test_meet_with_top(self, sorts):
        top = sorts.get("top")
        n = sorts.get("noun")
        assert sorts.meet(top, n) is n
        assert sorts.meet(n, top) is n

    def test_meet_incompatible(self, sorts):
        assert sorts.meet(sorts.get("noun"), sorts.get("verbal")) is None
        assert sorts.meet(sorts.get("finite"), sorts.get("adverbial")) is None

    def test_duplicate_declaration_rejected(self, sorts):
        with pytest.raises(SortError):
            sorts.declare("verbal", "top")

    def test_unknown_parent_rejected(self, sorts):
        with pytest.raises(SortError):
            sorts.declare("oops", "nothere")

    def test_unknown_lookup_rejected(self, sorts):
        with pytest.raises(SortError):
            sorts.get("nothere")


def shared_chain(bottom, n: int):
    """f(Xn-1, Xn-1) where X0 is `bottom` and X(i+1) = f(Xi, Xi)."""
    for _ in range(n):
        bottom = Struct("f", (bottom, bottom))
    return bottom


def built_pair(store, n: int, bottom: str):
    """The variables `xs` and two distinct chains n levels deep, one with
    a variable of `xs` at each level and `a` at the bottom, the other with
    `c` at each level and `bottom` at the bottom."""
    xs = [store.new_var() for _ in range(n)]
    left, right = Atom("a"), Atom(bottom)
    for x in xs:
        left = Struct("f", (x, left))
        right = Struct("f", (Atom("c"), right))
    return xs, left, right


class TestUnify:
    def test_atoms(self, store):
        assert unify(store, Atom("a"), Atom("a"))
        assert not unify(store, Atom("a"), Atom("b"))

    def test_var_binding_and_deref(self, store):
        x = store.new_var("X")
        assert unify(store, x, Atom("a"))
        assert store.deref(x) == Atom("a")

    def test_var_var_chain(self, store):
        x, y = store.new_var(), store.new_var()
        assert unify(store, x, y)
        assert unify(store, y, Atom("c"))
        assert store.deref(x) == Atom("c")

    def test_struct(self, store):
        x = store.new_var()
        assert unify(store, Struct("f", (x, Atom("b"))),
                     Struct("f", (Atom("a"), Atom("b"))))
        assert store.deref(x) == Atom("a")
        assert not unify(store, Struct("f", (Atom("a"),)),
                         Struct("g", (Atom("a"),)))
        assert not unify(store, Struct("f", (Atom("a"),)),
                         Struct("f", (Atom("a"), Atom("b"))))

    def test_list_elementwise(self, store):
        a, b, c = store.new_var(), store.new_var(), store.new_var()
        open_list = ListCons(a, ListCons(b, c))
        assert unify(store, open_list, make_list([Atom("p"), Atom("q"), Atom("r")]))
        assert store.deref(a) == Atom("p")
        items, tail = list_to_python(store.deref(c))
        assert [store.deref(i) for i in items] == [Atom("r")]
        assert tail is NIL

    def test_list_too_short_fails(self, store):
        a, b, c = store.new_var(), store.new_var(), store.new_var()
        assert not unify(store, ListCons(a, ListCons(b, c)),
                         make_list([Atom("arie")]))

    def test_avm_sort_refinement(self, store, sorts):
        x = store.new_var()
        a = Avm(sorts.get("verbal"), {"sc": x})
        b = Avm(sorts.get("finite"), {"lex": Atom("kust")})
        assert unify(store, a, b)
        merged = store.deref(a)
        assert merged is store.deref(b)
        assert merged.sort is sorts.get("finite")
        assert set(merged.feats) == {"sc", "lex"}
        assert store.deref(merged.feats["lex"]) == Atom("kust")

    def test_avm_feature_clash_fails(self, store, sorts):
        a = Avm(sorts.get("noun"), {"lex": Atom("arie")})
        b = Avm(sorts.get("noun"), {"lex": Atom("bob")})
        assert not unify(store, a, b)

    def test_avm_sort_clash_fails(self, store, sorts):
        a = Avm(sorts.get("noun"), {})
        b = Avm(sorts.get("verbal"), {})
        assert not unify(store, a, b)

    def test_avm_var_side(self, store, sorts):
        x = store.new_var()
        b = Avm(sorts.get("noun"), {"lex": Atom("bob")})
        assert unify(store, x, b)
        assert store.deref(x) is b

    def test_deep_built_chains_unify_without_recursion(self, store):
        # built, not read, and deeper than the recursion limit
        limit = sys.getrecursionlimit()
        xs, left, right = built_pair(store, 10_000, "a")
        assert unify(store, left, right)
        assert all(store.deref(x) == Atom("c") for x in xs)
        assert sys.getrecursionlimit() == limit

    def test_deep_built_chains_fail_at_the_bottom_and_undo(self, store):
        xs, left, right = built_pair(store, 10_000, "b")
        mark = store.mark()
        assert not unify(store, left, right)
        assert store.mark() == mark
        assert all(store.deref(x) is x for x in xs)

    def test_paired_shared_chains_unify_in_linear_time(self, store, deref_calls):
        # each pair of levels is met on 2^i paths, and unified once
        n = 30
        x, y = store.new_var(), store.new_var()
        assert unify(store, shared_chain(x, n), shared_chain(y, n))
        assert store.deref(x) is store.deref(y)
        assert deref_calls[0] <= 8 * n

    def test_binds_come_depth_first_left_to_right(self, store, sorts):
        x, y, z, t, u, v = (store.new_var(n) for n in "XYZTUV")
        a, b, c, d, e, k = (Atom(n) for n in "abcdek")
        left = Struct("g", (Struct("f", (Struct("h", (x,)), y)),
                            ListCons(Struct("h", (z,)), t),
                            Avm(sorts.get("sign"), {"f": u, "g": Struct("h", (v,))})))
        right = Struct("g", (Struct("f", (Struct("h", (a,)), b)),
                             make_list([Struct("h", (c,)), d]),
                             Avm(sorts.get("sign"), {"g": Struct("h", (e,)), "f": k})))
        events = []
        store.trace = lambda event, _store: events.append(event)
        assert unify(store, left, right)
        # a record's shared features come in the order of the second one
        assert [e[1].name for e in events if e[0] == "bind"] == list("XYZTVU")


class TestOccursCheck:
    def test_var_in_struct(self, store):
        x = store.new_var()
        assert not unify(store, x, Struct("f", (x,)))

    def test_var_in_list(self, store):
        x = store.new_var()
        assert not unify(store, x, make_list([Atom("a"), x]))

    def test_avm_containment(self, store, sorts):
        inner = Avm(sorts.get("sign"), {})
        outer = Avm(sorts.get("sign"), {"f": inner})
        assert not unify(store, inner, outer)

    @pytest.mark.parametrize("path", ["list", "bound_var"])
    def test_avm_containment_indirect(self, store, sorts, path):
        inner = Avm(sorts.get("sign"), {})
        if path == "list":
            value = make_list([Atom("a"), inner])
        else:
            value = store.new_var()
            assert unify(store, value, inner)
        outer = Avm(sorts.get("sign"), {"f": value})
        assert not unify(store, inner, outer)

    def test_deep_built_chain_binds_without_recursion(self, store):
        # built, not read, so the reader's depth bound does not apply
        x, y = store.new_var(), store.new_var()
        deep, holding_y = Atom("a"), y
        for _ in range(10_000):
            deep = Struct("f", (deep,))
            holding_y = Struct("f", (holding_y,))
        assert unify(store, x, deep)
        assert store.deref(x) is deep
        mark = store.mark()
        assert not unify(store, y, holding_y)
        assert store.mark() == mark

    def test_shared_chain_is_checked_in_linear_time(self, store, deref_calls):
        # X(i+1) = f(Xi, Xi): n + 1 nodes, 2^n paths from the top
        n = 22
        x = store.new_var()
        chain = shared_chain(x, n)
        assert unify(store, store.new_var(), chain)
        assert not unify(store, x, chain)
        assert deref_calls[0] <= 8 * n

    @pytest.mark.parametrize("holder_first", [True, False])
    def test_record_reaching_the_other_through_a_shared_record(
            self, store, sorts, holder_first):
        held = Avm(sorts.get("sign"), {"g": Atom("b")})
        shared = Avm(sorts.get("sign"), {"h": held})
        holder = Avm(sorts.get("verbal"), {"f": shared, "sc": make_list([shared])})
        before = canonical(holder)
        a, b = (holder, held) if holder_first else (held, holder)
        mark = store.mark()
        assert not unify(store, a, b)
        assert store.mark() == mark
        assert all(store.deref(t) is t for t in (held, shared, holder))
        assert canonical(holder) == before and holder.sort is sorts.get("verbal")

    def test_check_over_atoms_and_variables_makes_no_visited_set(
            self, store, monkeypatch):
        made = []

        def counting_set():
            made.append(1)
            return set()
        monkeypatch.setattr(clgram.terms, "set", counting_set, raising=False)
        assert unify(store, store.new_var(), Atom("a"))
        assert unify(store, store.new_var(), store.new_var())
        assert made == []
        assert unify(store, store.new_var(), Struct("f", (Atom("a"),)))
        assert made == [1]


class TestFailurePurity:
    def test_bindings_rolled_back(self, store):
        x, y = store.new_var(), store.new_var()
        before = store.mark()
        ok = unify(store, Struct("f", (x, y, Atom("a"))),
                   Struct("f", (Atom("p"), Atom("q"), Atom("b"))))
        assert not ok
        assert store.mark() == before
        assert store.deref(x) is x
        assert store.deref(y) is y

    def test_avm_merge_rolled_back(self, store, sorts):
        a = Avm(sorts.get("verbal"), {"sc": store.new_var()})
        b = Avm(sorts.get("finite"), {"sc": Atom("x"), "lex": Atom("kust")})
        c = Avm(sorts.get("finite"), {"sc": Atom("y")})
        before = store.mark()
        assert not unify(store, b, c)
        assert store.mark() == before
        assert store.deref(b) is b
        assert b.sort is sorts.get("finite")
        assert set(b.feats) == {"sc", "lex"}
        # and a later consistent attempt still works
        assert unify(store, a, b)
        assert store.deref(a).sort is sorts.get("finite")

    def test_explicit_undo_restores_avm(self, store, sorts):
        a = Avm(sorts.get("verbal"), {})
        b = Avm(sorts.get("finite"), {"lex": Atom("kust")})
        m = store.mark()
        assert unify(store, a, b)
        assert store.deref(a) is store.deref(b)
        store.undo_to(m)
        assert store.deref(a) is a
        assert a.sort is sorts.get("verbal")
        assert "lex" not in a.feats


class TestCopyResolve:
    def test_copy_freshens_vars_but_keeps_sharing(self, store):
        x, y = store.new_var(), store.new_var()
        t = Struct("f", (x, x, Struct("g", (y,))))
        c = copy_term(store, t)
        assert isinstance(c.args[0], Var) and c.args[0] is not x
        assert c.args[0] is c.args[1]
        assert c.args[2].args[0] is not y

    def test_copy_keeps_composite_sharing(self, store, sorts):
        node = Avm(sorts.get("noun"), {"lex": Atom("bob")})
        t = make_list([node, node])
        c = copy_term(store, t)
        assert c.head is c.tail.head
        assert c.head is not node

    def test_copy_follows_bindings(self, store):
        x = store.new_var()
        unify(store, x, Atom("a"))
        c = copy_term(store, Struct("f", (x,)))
        assert c.args[0] == Atom("a")

    def test_resolve_snapshot_is_detached(self, store, sorts):
        x = store.new_var()
        a = Avm(sorts.get("noun"), {"lex": x})
        m = store.mark()
        unify(store, x, Atom("bob"))
        r = resolve(store, a)
        store.undo_to(m)
        assert r.feats["lex"] == Atom("bob")
        assert store.deref(x) is x

    def test_resolve_shared_memo_keeps_identity(self, store, sorts):
        node = Avm(sorts.get("noun"), {})
        t1 = Struct("f", (node,))
        t2 = Struct("g", (node,))
        memo = {}
        r1 = resolve(store, t1, memo)
        r2 = resolve(store, t2, memo)
        assert r1.args[0] is r2.args[0]
        # without a shared memo the snapshots are independent
        assert resolve(store, t1).args[0] is not resolve(store, t2).args[0]

    def test_canonical_equal_under_renaming(self, store):
        x, y = store.new_var("A"), store.new_var("B")
        p, q = store.new_var("P"), store.new_var("Q")
        t1 = Struct("f", (x, y, x))
        t2 = Struct("f", (p, q, p))
        assert canonical(resolve(store, t1)) == canonical(resolve(store, t2))
        t3 = Struct("f", (p, q, q))
        assert canonical(resolve(store, t3)) != canonical(resolve(store, t1))

    def test_snapshot_vars_sharing_a_label_bind_apart(self):
        st = Store()
        a, b = resolve(st, st.new_var()), resolve(st, st.new_var())
        assert a.id == b.id == 1            # each snapshot numbers from 1
        fresh = Store()
        assert unify(fresh, a, Atom("x"))
        assert fresh.deref(b) is b
        assert unify(fresh, b, Atom("y"))
        assert fresh.deref(a) == Atom("x")

    def test_list_roundtrip(self, store):
        t = make_list([Atom("a"), Atom("b")])
        items, tail = list_to_python(t)
        assert [store.deref(i) for i in items] == [Atom("a"), Atom("b")]
        assert tail is NIL


def watchers(v: Var) -> list:
    """The goals on `v`'s watch chain, newest first."""
    out, w = [], v.watch
    while w is not None:
        out.append(w[0].goal.name)
        w = w[1]
    return out


STEPS = st.lists(st.one_of(
    st.tuples(st.just("suspend"),
              st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True)),
    st.tuples(st.just("bind"), st.integers(0, 2)),
    st.tuples(st.just("mark")),
    st.tuples(st.just("undo"), st.integers(0, 9)),
    st.tuples(st.just("drain")),
), max_size=40)


class TestSuspensions:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(STEPS)
    def test_store_agrees_with_a_plain_model(self, steps):
        """Suspend, bind, mark, undo and drain on one Store over three
        variables, against a model that keeps each variable's goals in a
        dict of lists and snapshots itself at each mark."""
        store = Store()
        vs = [Var(n) for n in "ABC"]
        model = {"bound": set(), "watch": {0: [], 1: [], 2: []},
                 "log": [], "woken": set(), "queue": []}
        marks = []          # (store mark, model snapshot)
        made = 0
        for step in steps:
            drained = expected = []
            if step[0] == "suspend":
                free = [i for i in step[1] if i not in model["bound"]]
                if free:
                    made += 1
                    goal = f"g{made}"
                    store.suspend_goal(Atom(goal), [vs[i] for i in free])
                    model["log"].append(goal)
                    for i in free:
                        model["watch"][i].append(goal)
            elif step[0] == "bind":
                i = step[1]
                if i not in model["bound"]:
                    assert unify(store, vs[i], Atom("a"))
                    model["bound"].add(i)
                    for goal in model["watch"][i]:
                        if goal not in model["woken"]:
                            model["woken"].add(goal)
                            model["queue"].append(goal)
            elif step[0] == "mark":
                marks.append((store.mark(), copy.deepcopy(model)))
            elif step[0] == "undo":
                if marks:
                    del marks[step[1] % len(marks) + 1:]
                    m, snapshot = marks[-1]
                    store.undo_to(m)
                    model = copy.deepcopy(snapshot)
            else:
                drained = [s.goal.name for s in store.drain_wakes()]
                expected = sorted(model["queue"], key=model["log"].index)
                model["queue"] = []
            assert drained == expected
            assert [g.name for g in store.pending_residue()] == \
                [g for g in model["log"] if g not in model["woken"]]
            for i, v in enumerate(vs):
                assert watchers(v) == model["watch"][i][::-1]

    def test_a_reused_seq_wakes_after_older_suspensions(self, store):
        x, y = Var("X"), Var("Y")
        store.suspend_goal(Atom("old"), [x])
        m = store.mark()
        undone = store.suspend_goal(Atom("undone"), [y])
        store.undo_to(m)
        new = store.suspend_goal(Atom("new"), [y])
        assert new.seq == undone.seq
        assert unify(store, y, Atom("a")) and unify(store, x, Atom("a"))
        assert [s.goal.name for s in store.drain_wakes()] == ["old", "new"]

    def test_a_suspension_pushes_one_trail_entry(self, store):
        x, y = Var("X"), Var("Y")
        m = store.mark()
        store.suspend_goal(Atom("g"), [x, y])
        assert store.trail[m:] == [("susp", [x, y])]

    def test_undo_to_zero_leaves_no_watcher(self, store):
        vs = [Var(n) for n in "XYZ"]
        store.suspend_goal(Atom("g1"), vs[:2])
        store.suspend_goal(Atom("g2"), vs[1:])
        store.suspend_goal(Atom("g3"), vs[:1])
        assert unify(store, vs[1], Atom("a"))
        store.drain_wakes()
        store.suspend_goal(Atom("g4"), vs[2:])
        store.undo_to(0)
        assert [v.watch for v in vs] == [None, None, None]
        assert store.susp_log == [] and store.wake_list == []
