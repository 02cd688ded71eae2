"""Output formats: text AVMs, JSON, canonical tuples."""

import json

import pytest

from clgram import (Atom, Avm, ListCons, NIL, SortTable, Store, Struct,
                    canonical, canonical_text, make_list, render, resolve)


@pytest.fixture
def sorts():
    t = SortTable()
    t.declare("noun", "top")
    t.declare("sem_obj", "top")
    return t


def test_json_atom():
    assert json.loads(render(Atom("bob"), "json")) == {"atom": "bob"}


def test_json_proper_list_is_array():
    t = make_list([Atom("a"), Atom("b")])
    assert json.loads(render(t, "json")) == [{"atom": "a"}, {"atom": "b"}]


def test_json_improper_list(sorts):
    st = Store(sorts)
    x = st.new_var("T")
    t = ListCons(Atom("a"), x)
    data = json.loads(render(resolve(st, t), "json"))
    assert data == {"items": [{"atom": "a"}], "tail": {"var": "T"}}


def test_json_avm(sorts):
    t = Avm(sorts.get("noun"), {"lex": Atom("bob"), "sem": Atom("b")})
    data = json.loads(render(t, "json"))
    assert data == {"sort": "noun",
                    "feats": {"lex": {"atom": "bob"}, "sem": {"atom": "b"}}}


def test_json_struct():
    t = Struct("stem", (Atom("kussen"), Atom("x")))
    data = json.loads(render(t, "json"))
    assert data == {"goal": "stem", "args": [{"atom": "kussen"}, {"atom": "x"}]}


def test_json_deterministic(sorts):
    a = Avm(sorts.get("noun"), {"b": Atom("x"), "a": Atom("y"), "c": Atom("z")})
    assert render(a, "json") == render(a, "json")
    assert render(a, "json").index('"a"') < render(a, "json").index('"b"')


def test_avm_text_inline(sorts):
    t = Avm(sorts.get("noun"), {"lex": Atom("bob")})
    assert render(t) == "@noun{lex: bob}"


def test_avm_text_lists():
    assert render(make_list([Atom("a"), Atom("b")])) == "⟨a, b⟩"
    st = Store(SortTable())
    x = st.new_var("T")
    assert render(resolve(st, ListCons(Atom("a"), x))) == "⟨a | T⟩"


def test_avm_text_shared_node_tagged(sorts):
    node = Avm(sorts.get("sem_obj"), {"index": Atom("arie")})
    out = render(make_list([node, node]))
    assert "#1=" in out
    assert out.count("#1") == 2
    assert out.count("arie") == 1


def test_unshared_nodes_untagged(sorts):
    out = render(make_list([Avm(sorts.get("noun"), {}),
                            Avm(sorts.get("noun"), {})]))
    assert "#" not in out


def test_multiline_when_wide(sorts):
    t = Avm(sorts.get("noun"),
            {f"feature_{i}": Atom("somewhat_long_value") for i in range(4)})
    out = render(t)
    assert "\n" in out
    assert out.splitlines()[1].startswith("  ")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(Atom("a"), "yaml")


class TestCanonical:
    def test_atoms_and_lists(self):
        assert canonical(Atom("a")) == ("atom", "a")
        assert canonical(NIL) == ("nil",)
        assert canonical(make_list([Atom("a")])) == \
            ("cons", ("atom", "a"), ("nil",))

    def test_var_numbering_first_visit(self):
        st = Store(SortTable())
        x, y = st.new_var(), st.new_var()
        c = canonical(resolve(st, make_list([x, y, x])))
        assert c == ("cons", ("var", 1),
                     ("cons", ("var", 2), ("cons", ("var", 1), ("nil",))))

    def test_avm_features_sorted(self, sorts):
        a = Avm(sorts.get("noun"), {"b": Atom("y"), "a": Atom("x")})
        assert canonical(a) == \
            ("avm", "noun", (("a", ("atom", "x")), ("b", ("atom", "y"))))

    def test_struct(self):
        assert canonical(Struct("f", (Atom("a"),))) == \
            ("struct", "f", (("atom", "a"),))

    def test_cycle_rejected(self, sorts):
        a = Avm(sorts.get("noun"), {})
        a.feats["self"] = a
        with pytest.raises(ValueError):
            canonical(a)

    @pytest.mark.parametrize("shape", ["list_tail", "record_through_list"])
    def test_cycle_through_list_rejected(self, sorts, shape):
        if shape == "list_tail":
            t = make_list([Atom("a"), Atom("b")])
            t.tail.tail = t
        else:
            t = Avm(sorts.get("noun"), {})
            t.feats["l"] = make_list([Atom("x"), t])
        with pytest.raises(ValueError):
            canonical(t)

    def test_shared_list_cell_is_not_a_cycle(self):
        last = ListCons(Atom("c"), NIL)
        t = ListCons(last, ListCons(Atom("b"), last))   # [[c], b, c]
        assert canonical_text(canonical(t)) == "[[c], b, c]"

    def test_text_forms(self, sorts):
        assert canonical_text(canonical(make_list([Atom("a"), Atom("b")]))) == "[a, b]"
        assert canonical_text(canonical(Struct("f", (Atom("a"),)))) == "f(a)"
        assert canonical_text(canonical(
            Avm(sorts.get("noun"), {"lex": Atom("bob")}))) == "noun{lex: bob}"
        st = Store(SortTable())
        assert canonical_text(canonical(resolve(st, st.new_var()))) == "_1"
