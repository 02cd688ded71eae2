"""Randomized invariants for unification and the delaying engine, and a
check that a failing one is reported like any other test."""

import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clgram import (Atom, Avm, Engine, ListCons, NIL, Solution, SortTable,
                    Store, Struct, Var, canonical, copy_term, make_list,
                    resolve, unify)
from clgram.solver import Clause
from oracle import ReferenceUnifier

SETTINGS = dict(derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ATOMS = st.sampled_from(["a", "b", "c", "d"])
VARS = st.sampled_from(["X", "Y", "Z"])
SORTS = st.sampled_from(["sign", "verbal", "finite", "noun"])
FEATS = st.sampled_from(["f", "g", "h"])

specs = st.deferred(lambda: st.one_of(
    st.tuples(st.just("atom"), ATOMS),
    st.tuples(st.just("var"), VARS),
    st.builds(lambda items, tail: ("list", tuple(items), tail),
              st.lists(specs, max_size=3),
              st.one_of(st.none(), VARS)),
    st.builds(lambda sort, feats: ("avm", sort, tuple(sorted(feats.items()))),
              SORTS, st.dictionaries(FEATS, specs, max_size=3)),
    st.builds(lambda name, args: ("struct", name, tuple(args)),
              ATOMS, st.lists(specs, min_size=1, max_size=3)),
))


def sort_table() -> SortTable:
    t = SortTable()
    t.declare("sign", "top")
    t.declare("verbal", "sign")
    t.declare("finite", "verbal")
    t.declare("noun", "sign")
    return t


def build(store, spec, env):
    kind = spec[0]
    if kind == "atom":
        return Atom(spec[1])
    if kind == "var":
        if spec[1] not in env:
            env[spec[1]] = store.new_var(spec[1])
        return env[spec[1]]
    if kind == "list":
        tail = env.setdefault(spec[2], store.new_var(spec[2])) \
            if spec[2] else NIL
        t = tail
        for item in reversed(spec[1]):
            t = ListCons(build(store, item, env), t)
        return t
    if kind == "avm":
        return Avm(store.sorts.get(spec[1]),
                   {k: build(store, v, env) for k, v in spec[2]})
    if kind == "node":      # the node of this name built first in `env`
        if spec[1] not in env:
            env[spec[1]] = build(store, spec[2], env)
        return env[spec[1]]
    return Struct(spec[1], tuple(build(store, a, env) for a in spec[2]))


def snap(store, term):
    return canonical(resolve(store, term))


def shape(t, labels: dict):
    """Canonical form of a snapshot in which a record met again shows as
    the number of its first visit, and variables are numbered in the same
    sequence: list cells and structures are values, but a record's
    identity is what later merges reach."""
    if isinstance(t, (Var, Avm)):
        if id(t) in labels:
            return ("again", labels[id(t)])
        labels[id(t)] = len(labels)
        if isinstance(t, Var):
            return ("var", labels[id(t)])
        return ("avm", t.sort.name, tuple(sorted(
            (f, shape(v, labels)) for f, v in t.feats.items())))
    if isinstance(t, ListCons):
        return ("cons", shape(t.head, labels), shape(t.tail, labels))
    if isinstance(t, Struct):
        return ("struct", t.name, tuple(shape(a, labels) for a in t.args))
    return canonical(t)


@settings(max_examples=150, **SETTINGS)
@given(specs, specs)
@example(("avm", "sign", (("f", ("atom", "a")), ("g", ("var", "X")))),
         ("avm", "sign", (("f", ("atom", "a")), ("h", ("var", "X")))))
def test_unify_is_commutative(s1, s2):
    left = Store(sort_table())
    a, b = build(left, s1, {}), build(left, s2, {})
    ok_ab = unify(left, a, b)
    right = Store(sort_table())
    c, d = build(right, s1, {}), build(right, s2, {})
    ok_ba = unify(right, d, c)
    assert ok_ab == ok_ba
    if ok_ab:
        assert snap(left, a) == snap(right, c)
        assert snap(left, b) == snap(right, d)
        # both sides collapsed to one value
        assert snap(left, a) == snap(left, b)


@settings(max_examples=150, **SETTINGS)
@given(specs, specs)
def test_failed_unify_leaves_no_trace(s1, s2):
    store = Store(sort_table())
    a, b = build(store, s1, {}), build(store, s2, {})
    before_a, before_b = snap(store, a), snap(store, b)
    mark = store.mark()
    if not unify(store, a, b):
        assert store.mark() == mark
        assert snap(store, a) == before_a
        assert snap(store, b) == before_b


def around(spec):
    """`spec`, or a record that holds it under one feature."""
    return st.one_of(st.just(spec), st.builds(
        lambda sort, feat: ("avm", sort, ((feat, spec),)), SORTS, FEATS))


# Pairs that share a record, named P, at the same place (`build` makes one
# per env), each side holding it as is or inside a record of its own, so
# that a merge may make one record reach the other, either way round.
sharing = st.builds(
    lambda sort, feats: ("node", "P", ("avm", sort, tuple(sorted(feats.items())))),
    SORTS, st.dictionaries(FEATS, specs, max_size=2),
).flatmap(lambda r: st.tuples(around(r), around(r), specs)).map(
    lambda t: (("struct", "g", (t[0], t[2])), ("struct", "g", (t[1], t[2]))))


def generalised(spec):
    """`spec` with any subterm possibly replaced by a variable.  A goal and
    head pair where one generalises the other often matches, so repeated
    variables on either side meet different parts of the other."""
    kind = spec[0]
    if kind == "list":
        same = st.tuples(*map(generalised, spec[1])).map(
            lambda items: ("list", items, spec[2]))
    elif kind == "avm":
        same = st.tuples(*(generalised(v) for _, v in spec[2])).map(
            lambda vals: ("avm", spec[1],
                          tuple(zip((k for k, _ in spec[2]), vals))))
    elif kind == "struct":
        same = st.tuples(*map(generalised, spec[2])).map(
            lambda args: ("struct", spec[1], args))
    else:
        same = st.just(spec)
    return st.one_of(st.tuples(st.just("var"), VARS), same)


def goal_part(spec):
    return st.one_of(st.just(spec), generalised(spec))


# Pairs in which each side holds a list or structure of its own, named S
# and T (or both S), at two of four places, and at the other two terms
# built apart like the other side's node, so that unification meets a
# pair of nodes on more than one path, one node paired with several, and
# a pair it has unified already.  T is S generalised.
compounds = st.one_of(
    st.builds(lambda items, tail: ("list", tuple(items), tail),
              st.lists(specs, min_size=1, max_size=3),
              st.one_of(st.none(), VARS)),
    st.builds(lambda name, args: ("struct", name, tuple(args)),
              ATOMS, st.lists(specs, min_size=1, max_size=3)),
)


def twice(name, node, like):
    shared = ("node", name, node)
    return st.tuples(goal_part(like), goal_part(like)).flatmap(
        lambda apart: st.permutations([shared, shared, *apart])).map(
        lambda args: ("struct", "g", tuple(args)))


dag_sharing = compounds.flatmap(lambda s: st.tuples(
    st.just(s), generalised(s).filter(lambda t: t[0] != "var"),
    st.sampled_from("ST"))).flatmap(
    lambda t: st.tuples(twice("S", t[0], t[1]), twice(t[2], t[1], t[0])))


@settings(max_examples=300, **SETTINGS)
@given(st.one_of(st.tuples(specs, specs), sharing, dag_sharing))
@example(pair=(("var", "X"), ("struct", "f", (("var", "X"),))))
@example(pair=(
    ("struct", "g", (("var", "X"), ("avm", "sign", (("f", ("var", "X")),)))),
    ("struct", "g", (("avm", "sign", (("g", ("var", "Y")),)), ("var", "Y")))))
@example(pair=(
    ("struct", "g", (("var", "X"), ("avm", "sign", (("f", ("var", "X")),)))),
    ("struct", "g", (("avm", "sign", ()), ("var", "X")))))
@example(pair=(
    ("struct", "g", (("avm", "sign", ()), ("var", "X"))),
    ("struct", "g", (("var", "X"), ("avm", "sign", (("f", ("var", "X")),))))))
def test_unify_agrees_with_the_reference(pair):
    # one env, so the two sides share variables and records, and a pair
    # can form a cycle: X against f(X), or records that come to reach
    # each other
    s1, s2 = pair
    store = Store(sort_table())
    env: dict = {}
    a, b = build(store, s1, env), build(store, s2, env)
    ref = ReferenceUnifier(store.sorts)
    ok = ref.unify(a, b)
    want = (ref.canonical(a), ref.canonical(b)) if ok else None
    mark = store.mark()
    assert unify(store, a, b) == ok
    if ok:
        assert (canonical(a), canonical(b)) == want
    else:
        assert store.mark() == mark


@settings(max_examples=150, **SETTINGS)
@given(specs)
def test_copy_unifies_with_original(s):
    store = Store(sort_table())
    t = build(store, s, {})
    c = copy_term(store, t)
    assert canonical(resolve(store, c)) == canonical(resolve(store, t))
    assert unify(store, t, c)


@settings(max_examples=150, **SETTINGS)
@given(specs)
def test_canonical_is_stable(s):
    store = Store(sort_table())
    t = build(store, s, {})
    first = snap(store, t)
    assert snap(store, t) == first
    # unification with a fresh variable must not disturb the term
    x = store.new_var()
    assert unify(store, x, t)
    assert snap(store, t) == first


@settings(max_examples=150, **SETTINGS)
@given(specs, specs)
def test_canonical_reads_live_terms(s1, s2):
    # the two terms share variables, so unifying them binds and merges
    # nodes that both hold
    store = Store(sort_table())
    env: dict = {}
    a, b = build(store, s1, env), build(store, s2, env)
    unify(store, a, b)
    for t in (a, b, *env.values()):
        assert canonical(t) == canonical(resolve(store, t))


# A record, list or structure that the head holds at two positions, as a
# tabled answer can, with the two goal terms that meet it there, and which
# position (1 or 2, 0 for neither) holds it as the tail of one more list
# cell, so that a shared list cell can come past a list's first cell.
shared_nodes = st.one_of(
    st.builds(lambda item: ("list", (item,), None), specs),
    st.builds(lambda sort, value: ("avm", sort, (("f", value),)), SORTS, specs),
    st.builds(lambda name, arg: ("struct", name, (arg,)), ATOMS, specs),
).flatmap(lambda s: st.tuples(st.just(s), goal_part(s), goal_part(s),
                              st.sampled_from([0, 1, 2])))


def build_clause(store, goal_spec, head_spec, body_spec, shared):
    """A goal and a clause `w(Head...) :- b(Body...)`; the body shares the
    head's variables by name, and any shared node."""
    goal_env, head_env = {}, {}
    goal = build(store, goal_spec, goal_env)
    head = build(store, head_spec, head_env)
    body = build(store, body_spec, head_env)
    if shared is None:
        return Struct("w", (goal,)), Struct("w", (head,)), (Struct("b", (body,)),)
    node_spec, first, second, wrapped = shared
    node = build(store, node_spec, head_env)
    held = [node, node]
    met = [build(store, first, goal_env), build(store, second, goal_env)]
    if wrapped:
        held[wrapped - 1] = ListCons(Atom("a"), node)
        met[wrapped - 1] = ListCons(Atom("a"), met[wrapped - 1])
    return (Struct("w", (goal, *met)), Struct("w", (head, *held)),
            (Struct("b", (body, node)),))


@settings(max_examples=300, **SETTINGS)
@given(specs.flatmap(lambda s: st.one_of(
    st.tuples(st.just(s), specs),
    st.tuples(st.just(s), generalised(s)),
    st.tuples(generalised(s), st.just(s)))),
    specs, st.one_of(st.none(), shared_nodes))
@example(pair=(("var", "X"), ("var", "X")), body_spec=("atom", "a"),
         shared=(("list", (("var", "Y"),), None), ("var", "Z"),
                 ("list", (("atom", "b"),), None), 1))
@example(pair=(("var", "X"), ("var", "X")), body_spec=("atom", "a"),
         shared=(("list", (("var", "Y"),), None), ("list", (("atom", "b"),), None),
                 ("var", "Z"), 2))
def test_match_is_unify_with_a_copy(pair, body_spec, shared):
    # the clause is as read: built apart, never bound
    goal_spec, head_spec = pair
    store = Store(sort_table())
    goal, head, body = build_clause(store, goal_spec, head_spec, body_spec, shared)
    built = Clause(head, body, "<test>").try_goal(store, goal)
    ref = Store(sort_table())
    ref_goal, ref_head, ref_body = build_clause(ref, goal_spec, head_spec,
                                                body_spec, shared)
    memo: dict = {}
    assert (built is not None) == unify(ref, ref_goal, copy_term(ref, ref_head, memo))
    if built is not None:
        # one snapshot of goal and body, so that the variables and records
        # they share show
        ref_built = [copy_term(ref, g, memo) for g in ref_body]
        got = resolve(store, Struct("all", (goal, *built)))
        want = resolve(ref, Struct("all", (ref_goal, *ref_built)))
        assert shape(got, {}) == shape(want, {})


def atoms_list(names):
    return make_list([Atom(n) for n in names])


@settings(max_examples=80, **SETTINGS)
@given(st.lists(ATOMS, max_size=5), st.lists(ATOMS, max_size=5))
def test_concat_ground_is_concatenation(program, xs, ys):
    eng = Engine(program)
    c = eng.store.new_var()
    sols = [s for s in eng.solve([Struct("concat",
                                         (atoms_list(xs), atoms_list(ys), c))],
                                 var_names={"C": c})
            if isinstance(s, Solution)]
    assert len(sols) == 1
    assert not sols[0].residue
    assert canonical(sols[0].bindings["C"]) == canonical(atoms_list(xs + ys))


@settings(max_examples=80, **SETTINGS)
@given(st.lists(ATOMS, max_size=6))
def test_concat_splits_every_way(program, zs):
    eng = Engine(program)
    a, b = eng.store.new_var(), eng.store.new_var()
    sols = [s for s in eng.solve([Struct("concat", (a, b, atoms_list(zs)))],
                                 var_names={"A": a, "B": b})
            if isinstance(s, Solution)]
    assert len(sols) == len(zs) + 1
    for i, s in enumerate(sols):
        assert canonical(s.bindings["A"]) == canonical(atoms_list(zs[:i]))
        assert canonical(s.bindings["B"]) == canonical(atoms_list(zs[i:]))


@settings(max_examples=80, **SETTINGS)
@given(st.lists(ATOMS, min_size=1, max_size=6))
def test_take_one_removes_each_position(program, xs):
    eng = Engine(program)
    x, r = eng.store.new_var(), eng.store.new_var()
    sols = [s for s in eng.solve([Struct("take_one", (atoms_list(xs), x, r))],
                                 var_names={"X": x, "R": r})
            if isinstance(s, Solution)]
    assert len(sols) == len(xs)
    for i, s in enumerate(sols):
        assert canonical(s.bindings["X"]) == ("atom", xs[i])
        assert canonical(s.bindings["R"]) == \
            canonical(atoms_list(xs[:i] + xs[i + 1:]))


@settings(max_examples=80, **SETTINGS)
@given(st.lists(ATOMS, max_size=4), st.lists(ATOMS, max_size=4))
def test_adjunctless_embedding_is_list_equality(program, xs, ys):
    # with no adverbial members available, splicing embeds a list into
    # another exactly when they are equal
    eng = Engine(program)
    s = eng.store.new_var()
    sols = [sol for sol in eng.solve(
        [Struct("add_adj", (atoms_list(xs), atoms_list(ys), Atom("s"), s))],
        var_names={"S": s}) if isinstance(sol, Solution)]
    if xs == ys:
        assert len(sols) == 1
        assert canonical(sols[0].bindings["S"]) == ("atom", "s")
    else:
        assert sols == []


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # the hypothesis plugin warns while it reports a failed property, and
    # the project's warning settings must not turn that into an error
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_PROPERTY, encoding="utf-8")
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), str(path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
