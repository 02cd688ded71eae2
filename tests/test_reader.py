"""Grammar source reader: statements, terms, errors, goal strings."""

import pytest

from clgram import (Atom, Avm, GrammarSyntaxError, ListCons, LoadError,
                    Program, SortTable, Struct, Var, canonical)
from clgram.reader import parse_goals, parse_source


@pytest.fixture
def sorts():
    t = SortTable()
    t.declare("sign", "top")
    t.declare("noun", "sign")
    return t


def kinds(items):
    return [it[0] for it in items]


def test_fact_and_rule(sorts):
    items = parse_source("p(a). q(X) :- p(X), r(X, b).", sorts)
    assert kinds(items) == ["clause", "clause"]
    _, head, body, _ = items[0]
    assert canonical(head) == canonical(Struct("p", (Atom("a"),)))
    assert list(body) == []
    _, head, body, _ = items[1]
    assert head.name == "q"
    assert [g.name for g in body] == ["p", "r"]
    assert body[0].args[0] is head.args[0]


def test_atom_fact(sorts):
    items = parse_source("halt.", sorts)
    _, head, body, _ = items[0]
    assert head == Atom("halt")


def test_sort_declaration_applies_immediately(sorts):
    items = parse_source("sort verbal < sign. p(@verbal{lex: kus}).", sorts)
    assert kinds(items) == ["sort", "clause"]
    assert items[0][1:3] == ("verbal", "sign")
    avm = items[1][1].args[0]
    assert isinstance(avm, Avm)
    assert avm.sort is sorts.get("verbal")


def test_block_directive(sorts):
    items = parse_source(":- block concat(-, ?, -).", sorts)
    assert kinds(items) == ["block"]
    _, name, mask, _ = items[0]
    assert name == "concat"
    # True marks an argument whose unboundness blocks the call
    assert list(mask) == [True, False, True]


def test_block_requires_a_dash(sorts):
    with pytest.raises(LoadError):
        parse_source(":- block concat(?, ?, ?).", sorts)


def test_avm_literal(sorts):
    items = parse_source("p(@noun{lex: bob, sem: X}).", sorts)
    avm = items[0][1].args[0]
    assert avm.sort is sorts.get("noun")
    assert avm.feats["lex"] == Atom("bob")
    assert isinstance(avm.feats["sem"], Var)


def test_unknown_sort_positioned_error(sorts):
    with pytest.raises(LoadError) as exc:
        parse_source("p(@nosuch{f: a}).", sorts, "g.clg")
    err = exc.value.errors[0]
    assert "nosuch" in err.message
    assert err.line == 1
    assert err.path == "g.clg"


def test_duplicate_feature_rejected(sorts):
    with pytest.raises(LoadError) as exc:
        parse_source("p(@noun{lex: a, lex: b}).", sorts)
    assert "lex" in exc.value.errors[0].message


def test_list_syntaxes(sorts):
    items = parse_source("p([a, b], [c | T], ⟨d, e⟩, []).", sorts)
    a1, a2, a3, a4 = items[0][1].args
    assert isinstance(a1, ListCons) and a1.head == Atom("a")
    assert isinstance(a2.tail, Var)
    assert a3.head == Atom("d") and a3.tail.head == Atom("e")
    assert not isinstance(a4, ListCons)


def test_underscore_always_fresh(sorts):
    items = parse_source("p(_, _).", sorts)
    head = items[0][1]
    assert isinstance(head.args[0], Var)
    assert head.args[0] is not head.args[1]


def test_named_vars_shared_within_clause_only(sorts):
    items = parse_source("p(X, X). q(X).", sorts)
    h1, h2 = items[0][1], items[1][1]
    assert h1.args[0] is h1.args[1]
    assert h1.args[0] is not h2.args[0]


def test_comments_ignored(sorts):
    items = parse_source("% note\np(a). % trailing\n", sorts)
    assert kinds(items) == ["clause"]


def test_error_recovery_collects_several(sorts):
    src = "p(a.\nq(b).\nr(@nosuch{f: a}).\n"
    with pytest.raises(LoadError) as exc:
        parse_source(src, sorts)
    assert len(exc.value.errors) == 2
    lines = sorted(e.line for e in exc.value.errors)
    assert lines == [1, 3]
    # the well-formed statement in between still parses elsewhere
    ok = parse_source("q(b).", sorts)
    assert kinds(ok) == ["clause"]


BAD_SORTS = "sort a < top.\nsort b < a.\nfoo(.\n"


def test_failed_load_declares_no_sort():
    program = Program()
    with pytest.raises(LoadError):
        program.load(BAD_SORTS)
    assert "a" not in program.sorts and "b" not in program.sorts
    program.load("sort a < top.\nsort b < a.\nfoo.\n")
    assert program.sorts.get("b").parent is program.sorts.get("a")


def test_failed_load_fails_the_same_way_again():
    program = Program()
    for _ in range(2):
        with pytest.raises(LoadError) as exc:
            program.load(BAD_SORTS)
        assert [str(e) for e in exc.value.errors] == \
            ["line 3, col 5: unexpected token '.' in term"]


def test_error_has_position(sorts):
    with pytest.raises(LoadError) as exc:
        parse_source("p(] ).", sorts)
    err = exc.value.errors[0]
    assert isinstance(err, GrammarSyntaxError)
    assert err.line == 1 and err.col > 1


def test_parse_goals_named_vars(sorts):
    goals, names = parse_goals("concat(A, [b], C), eq(A, _)", sorts)
    assert [g.name for g in goals] == ["concat", "eq"]
    assert set(names) == {"A", "C"}
    assert goals[0].args[0] is goals[1].args[0]
    assert goals[0].args[0] is names["A"]


def test_parse_goals_trailing_period_optional(sorts):
    g1, _ = parse_goals("p(a).", sorts)
    g2, _ = parse_goals("p(a)", sorts)
    assert [canonical(g) for g in g1] == [canonical(g) for g in g2]
