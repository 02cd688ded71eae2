"""Reader for the grammar-language source format.

A source file is a sequence of statements, each ended by a period:

    sort verbal < sign.            declare a sort under a parent
    :- block concat(-, ?, -).      delay pattern for a predicate
    concat([], A, A).              fact
    concat([B|C], A, [B|D]) :- concat(C, A, D).

Terms are atoms (lowercase), variables (uppercase, `_` is fresh per
occurrence), structures `name(arg, ...)`, lists `[a, b | T]` (angle
brackets `⟨ ⟩` work too), and record literals `@sort{feat: term, ...}`.
`%` starts a comment.

Sort declarations take effect immediately so later record literals in
the same file can use them, and are taken back if the file fails to
load.  Errors carry line and column; parsing recovers at the next
period and reports every error at once.  Terms nest at most
`MAX_TERM_DEPTH` levels, as the term walkers recurse; a flat list of
any length is one level.
"""

from __future__ import annotations

from .errors import GrammarSyntaxError, LoadError, SortError
from .terms import NIL, Atom, Avm, SortTable, Struct, Var, make_list

MAX_TERM_DEPTH = 200

_PUNCT = {"(", ")", "[", "]", "{", "}", "⟨", "⟩", ",", "|", ":", ".", "@", "<", "-", "?"}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str, path: str | None = None) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(":-", i):
            toks.append(Token("NECK", ":-", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.islower():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ATOM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isupper() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("VAR", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise GrammarSyntaxError(f"unexpected character {ch!r}", line, col, path)
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token], sorts: SortTable, path: str | None):
        self.toks = tokens
        self.pos = 0
        self.sorts = sorts
        self.path = path
        self.vars: dict[str, Var] = {}
        self.depth = 0          # compound terms open around the next token

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def error(self, msg: str, tok: Token | None = None) -> GrammarSyntaxError:
        tok = tok or self.peek()
        return GrammarSyntaxError(msg, tok.line, tok.col, self.path)

    def expect(self, kind: str, what: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise self.error(f"expected {what}, got {t.text!r}" if t.text else f"expected {what}", t)
        return t

    def skip_to_period(self) -> None:
        while True:
            t = self.next()
            if t.kind in (".", "EOF"):
                return

    # -- statements

    def statement(self):
        self.depth = 0
        t = self.peek()
        if t.kind == "NECK":
            return self.directive()
        if (t.kind == "ATOM" and t.text == "sort"
                and self.peek(1).kind == "ATOM" and self.peek(2).kind == "<"):
            return self.sort_decl()
        return self.clause()

    def sort_decl(self):
        start = self.next()
        child = self.expect("ATOM", "sort name")
        self.expect("<", "'<'")
        parent = self.expect("ATOM", "parent sort name")
        self.expect(".", "'.'")
        try:
            self.sorts.declare(child.text, parent.text)
        except SortError as e:
            raise self.error(str(e), child) from None
        return ("sort", child.text, parent.text, (start.line, start.col))

    def directive(self):
        start = self.expect("NECK", "':-'")
        kw = self.expect("ATOM", "directive name")
        if kw.text != "block":
            raise self.error(f"unknown directive {kw.text!r}", kw)
        name = self.expect("ATOM", "predicate name")
        self.expect("(", "'('")
        mask: list[bool] = []
        while True:
            t = self.next()
            if t.kind == "-":
                mask.append(True)
            elif t.kind == "?":
                mask.append(False)
            else:
                raise self.error("expected '-' or '?' in block pattern", t)
            t = self.next()
            if t.kind == ")":
                break
            if t.kind != ",":
                raise self.error("expected ',' or ')' in block pattern", t)
        self.expect(".", "'.'")
        if not any(mask):
            raise self.error("block pattern needs at least one '-'", name)
        return ("block", name.text, tuple(mask), (start.line, start.col))

    def clause(self):
        start = self.peek()
        self.vars = {}
        head = self.term()
        if not isinstance(head, (Atom, Struct)):
            raise self.error("clause head must be an atom or a structure", start)
        body: list = []
        t = self.next()
        if t.kind == "NECK":
            while True:
                g = self.term()
                if not isinstance(g, (Atom, Struct, Var)):
                    raise self.error("goal must be an atom, structure or variable", start)
                body.append(g)
                t = self.next()
                if t.kind == ".":
                    break
                if t.kind != ",":
                    raise self.error("expected ',' or '.' after goal", t)
        elif t.kind != ".":
            raise self.error("expected ':-' or '.' after clause head", t)
        return ("clause", head, tuple(body), (start.line, start.col))

    # -- terms

    def term(self):
        # recursive, but bounded by MAX_TERM_DEPTH
        t = self.next()
        if t.kind == "VAR":
            if t.text == "_":
                return Var(None)
            if t.text not in self.vars:
                self.vars[t.text] = Var(t.text)
            return self.vars[t.text]
        if t.kind == "ATOM" and self.peek().kind != "(":
            return Atom(t.text)
        if t.kind not in ("ATOM", "@", "[", "⟨"):
            raise self.error(f"unexpected token {t.text!r} in term", t)
        if self.depth == MAX_TERM_DEPTH:
            raise self.error(f"term nested deeper than {MAX_TERM_DEPTH} levels", t)
        self.depth += 1
        if t.kind == "@":
            out = self.avm_literal(t)
        elif t.kind != "ATOM":
            out = self.list_literal(t)
        else:
            self.next()
            args = [self.term()]
            while True:
                nt = self.next()
                if nt.kind == ")":
                    break
                if nt.kind != ",":
                    raise self.error("expected ',' or ')' in argument list", nt)
                args.append(self.term())
            out = Struct(t.text, tuple(args))
        self.depth -= 1
        return out

    def avm_literal(self, at: Token):
        name = self.expect("ATOM", "sort name after '@'")
        if name.text not in self.sorts:
            raise self.error(f"unknown sort: {name.text}", name)
        sort = self.sorts.get(name.text)
        feats: dict = {}
        if self.peek().kind == "{":
            self.next()
            if self.peek().kind == "}":
                self.next()
                return Avm(sort, feats)
            while True:
                f = self.expect("ATOM", "feature name")
                if f.text in feats:
                    raise self.error(f"duplicate feature {f.text!r}", f)
                self.expect(":", "':'")
                feats[f.text] = self.term()
                t = self.next()
                if t.kind == "}":
                    break
                if t.kind != ",":
                    raise self.error("expected ',' or '}' in record literal", t)
        return Avm(sort, feats)

    def list_literal(self, opener: Token):
        closer = "]" if opener.kind == "[" else "⟩"
        if self.peek().kind == closer:
            self.next()
            return NIL
        items = [self.term()]
        tail = NIL
        while True:
            t = self.next()
            if t.kind == closer:
                break
            if t.kind == ",":
                items.append(self.term())
            elif t.kind == "|":
                tail = self.term()
                self.expect(closer, f"'{closer}'")
                break
            else:
                raise self.error(f"expected ',', '|' or '{closer}' in list", t)
        return make_list(items, tail)


def parse_source(text: str, sorts: SortTable, path: str | None = None) -> list[tuple]:
    """Parse a whole source file.  Returns statement items; sort
    declarations are applied to `sorts` as they are read.  All syntax
    errors are collected (skipping to the next period) and raised
    together as LoadError, after the declarations are taken back, so a
    source that fails declares no sort."""
    try:
        toks = tokenize(text, path)
    except GrammarSyntaxError as e:
        raise LoadError([e]) from None
    p = _Parser(toks, sorts, path)
    items: list[tuple] = []
    errors: list[GrammarSyntaxError] = []
    while p.peek().kind != "EOF":
        try:
            items.append(p.statement())
        except GrammarSyntaxError as e:
            errors.append(e)
            p.skip_to_period()
    if errors:
        for item in reversed(items):    # subsorts first
            if item[0] == "sort":
                sorts.undeclare(item[1])
        raise LoadError(errors)
    return items


def parse_goals(text: str, sorts: SortTable) -> tuple[list, dict[str, Var]]:
    """Parse a query: comma-separated goals with an optional final period.
    Returns the goals and the named variables they mention."""
    toks = tokenize(text, None)
    p = _Parser(toks, sorts, None)
    goals: list = []
    while True:
        g = p.term()
        if not isinstance(g, (Atom, Struct)):
            raise p.error("goal must be an atom or a structure")
        goals.append(g)
        t = p.next()
        if t.kind == ",":
            continue
        if t.kind in (".", "EOF"):
            if t.kind == "." and p.peek().kind != "EOF":
                raise p.error("unexpected text after query")
            break
        raise p.error(f"expected ',' or '.' after goal, got {t.text!r}", t)
    return goals, dict(p.vars)
