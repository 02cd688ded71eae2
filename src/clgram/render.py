"""Display and canonical forms for detached terms.

Everything here expects terms that went through `terms.resolve`, so no
store is needed: bindings and forwards are already chased.  Three views:

  render(t, "avm")   human-readable text, shared nodes tagged #n
  render(t, "json")  JSON text for machine consumption
  canonical(t)       hashable nested tuples, for comparing readings
"""

from __future__ import annotations

import json

from .terms import NIL, Atom, Avm, ListCons, Struct, Var, _Nil

_INLINE_WIDTH = 60


def render(t, fmt: str = "avm") -> str:
    if fmt == "avm":
        return _render_text(t)
    if fmt == "json":
        return json.dumps(_to_json(t), sort_keys=True, ensure_ascii=False)
    raise ValueError(f"unknown render format: {fmt}")


# ---------------------------------------------------------------------------
# sharing detection

def _count_nodes(t, counts: dict[int, int]) -> None:
    while isinstance(t, (Avm, ListCons, Struct)):
        k = id(t)
        counts[k] = counts.get(k, 0) + 1
        if counts[k] > 1:
            return
        if not isinstance(t, ListCons):
            for v in t.feats.values() if isinstance(t, Avm) else t.args:
                _count_nodes(v, counts)
            return
        _count_nodes(t.head, counts)
        t = t.tail


# ---------------------------------------------------------------------------
# text form

def _render_text(t) -> str:
    counts: dict[int, int] = {}
    _count_nodes(t, counts)
    shared = {k for k, n in counts.items() if n > 1}
    labels: dict[int, int] = {}
    return _text(t, 0, shared, labels)


def _var_text(v: Var) -> str:
    return v.name if v.name else f"_G{v.id}"


def _text(t, indent: int, shared: set[int], labels: dict[int, int]) -> str:
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Var):
        return _var_text(t)
    if isinstance(t, _Nil):
        return "⟨⟩"
    tag = ""
    if isinstance(t, (Avm, ListCons, Struct)) and id(t) in shared:
        if id(t) in labels:
            return f"#{labels[id(t)]}"
        labels[id(t)] = len(labels) + 1
        tag = f"#{labels[id(t)]}="
    if isinstance(t, ListCons):
        items, tail = [], t
        while isinstance(tail, ListCons):
            # stop at a shared cons cell we already labelled mid-list
            if tail is not t and id(tail) in shared:
                break
            items.append(tail.head)
            tail = tail.tail
        parts = [_text(x, indent + 1, shared, labels) for x in items]
        rest = ""
        if not isinstance(tail, _Nil):
            rest = " | " + _text(tail, indent + 1, shared, labels)
        one = tag + "⟨" + ", ".join(parts) + rest + "⟩"
        if "\n" not in one and len(one) <= _INLINE_WIDTH:
            return one
        pad = "  " * (indent + 1)
        body = ",\n".join(pad + p for p in parts)
        if rest:
            body += "\n" + pad + "|" + rest[2:]
        return tag + "⟨\n" + body + "\n" + "  " * indent + "⟩"
    if isinstance(t, Struct):
        parts = [_text(a, indent + 1, shared, labels) for a in t.args]
        return tag + t.name + "(" + ", ".join(parts) + ")"
    if isinstance(t, Avm):
        if not t.feats:
            return tag + "@" + t.sort.name
        parts = [(f, _text(v, indent + 1, shared, labels))
                 for f, v in sorted(t.feats.items())]
        one = tag + "@" + t.sort.name + "{" + ", ".join(f"{f}: {p}" for f, p in parts) + "}"
        if "\n" not in one and len(one) <= _INLINE_WIDTH:
            return one
        pad = "  " * (indent + 1)
        body = ",\n".join(f"{pad}{f}: {p}" for f, p in parts)
        return tag + "@" + t.sort.name + "{\n" + body + "\n" + "  " * indent + "}"
    return repr(t)


# ---------------------------------------------------------------------------
# JSON form

def _to_json(t):
    if isinstance(t, Atom):
        return {"atom": t.name}
    if isinstance(t, Var):
        return {"var": _var_text(t)}
    if isinstance(t, _Nil):
        return []
    if isinstance(t, ListCons):
        items, tail = [], t
        seen = set()
        while isinstance(tail, ListCons) and id(tail) not in seen:
            seen.add(id(tail))
            items.append(_to_json(tail.head))
            tail = tail.tail
        if isinstance(tail, _Nil):
            return items
        return {"items": items, "tail": _to_json(tail)}
    if isinstance(t, Struct):
        return {"goal": t.name, "args": [_to_json(a) for a in t.args]}
    if isinstance(t, Avm):
        return {"sort": t.sort.name,
                "feats": {f: _to_json(v) for f, v in t.feats.items()}}
    return {"opaque": repr(t)}


# ---------------------------------------------------------------------------
# canonical tuples

def canonical(t, _numbering: dict | None = None, _stack: set | None = None) -> tuple:
    """Order-independent hashable form.  Unbound variables are numbered by
    first visit, features sorted, so two snapshots of the same abstract
    object compare equal."""
    if _numbering is None:
        _numbering = {}
    if _stack is None:
        _stack = set()
    if isinstance(t, Atom):
        return ("atom", t.name)
    if isinstance(t, Var):
        if t.id not in _numbering:
            _numbering[t.id] = len(_numbering) + 1
        return ("var", _numbering[t.id])
    if isinstance(t, _Nil):
        return ("nil",)
    if isinstance(t, ListCons):
        cells, heads = [], []   # the cells stay open until the tail is done
        while isinstance(t, ListCons):
            if id(t) in _stack:
                raise ValueError("cyclic term has no canonical form")
            _stack.add(id(t))
            cells.append(id(t))
            heads.append(canonical(t.head, _numbering, _stack))
            t = t.tail
        out = canonical(t, _numbering, _stack)
        _stack.difference_update(cells)
        for h in reversed(heads):
            out = ("cons", h, out)
        return out
    if isinstance(t, (Struct, Avm)):
        if id(t) in _stack:
            raise ValueError("cyclic term has no canonical form")
        _stack.add(id(t))
        if isinstance(t, Struct):
            out = ("struct", t.name,
                   tuple(canonical(a, _numbering, _stack) for a in t.args))
        else:
            out = ("avm", t.sort.name,
                   tuple(sorted((f, canonical(v, _numbering, _stack))
                                for f, v in t.feats.items())))
        _stack.discard(id(t))
        return out
    raise TypeError(f"cannot canonicalize {t!r}")


def canonical_text(c: tuple) -> str:
    """Compact one-line rendering of a canonical tuple."""
    kind = c[0]
    if kind == "atom":
        return c[1]
    if kind == "var":
        return f"_{c[1]}"
    if kind == "nil":
        return "[]"
    if kind == "cons":
        items = []
        node = c
        while node[0] == "cons":
            items.append(canonical_text(node[1]))
            node = node[2]
        tail = "" if node == ("nil",) else "|" + canonical_text(node)
        return "[" + ", ".join(items) + tail + "]"
    if kind == "struct":
        return c[1] + "(" + ", ".join(canonical_text(a) for a in c[2]) + ")"
    if kind == "avm":
        inner = ", ".join(f"{f}: {canonical_text(v)}" for f, v in c[2])
        return c[1] + "{" + inner + "}"
    raise TypeError(f"bad canonical tuple {c!r}")
