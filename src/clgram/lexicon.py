"""Lexicon: a word table compiled into grammar-language clauses.

Each line is `word <TAB> class [key=value ...]`.  Classes:

  verb       frame=iv|tv|dtv|aux|aci  soa=<sort>  roles=r1,r2,..
             phon=<stem form>   fin=<finite surface or ->   nonfin=+|-
  noun       index=<semantic index, defaults to the word>
  adv-restr  rel=<relation added to the restriction set>
  adv-opr    (spelled adv-op) soa=<operator sort>

Verb defaults: phon is the word itself, the finite surface is phon+"t",
nonfin is "+".  For iv/tv/dtv the first role is the subject's, the rest
follow the subcat list order.  Auxiliaries (aux) take a verbal
complement and inherit its subcat list, linking their subject's index
to the complement's subject (control).  Perception verbs (aci) inherit
the complement's subcat list plus its subject as a realized argument.

`install` checks the entries, declares each soa sort under the grammar's
`soa`, and adds the entries' clauses (stem/2, finite_form/2,
nonfinite_ok/1, noun_entry/2, adverbial_entry/2) to a Program as one
`solver.Words` per predicate, an item of the predicate's clause list:
every lexicon error is raised there, yet no clause is made.  A word's
clause is made the first time a goal names the word (or asks for every
clause of its predicate), copied from a shape read once per kind of
entry; a sentence uses a few of a large lexicon's words.  `compile`
writes the same sorts and clauses as source text: the reference install
is tested against, not a step of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import LexiconError
from .reader import parse_source
from .solver import Clause, Words
from .terms import Atom, Avm, ListCons, SortTable, Struct, Var

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

_FRAME_ROLE_COUNT = {"iv": 1, "tv": 2, "dtv": 3}


@dataclass(frozen=True)
class VerbEntry:
    word: str
    frame: str
    soa: str
    roles: tuple[str, ...]
    phon: str
    finite: str | None
    nonfinite: bool
    line: int


@dataclass(frozen=True)
class NounEntry:
    word: str
    index: str
    line: int


@dataclass(frozen=True)
class AdvEntry:
    word: str
    kind: str  # "restr" or "op"
    rel: str | None
    soa: str | None
    line: int


def _slot(e):
    """The entry `e`'s clauses are copied from: `e` with slot atoms and roles
    and the grammar's sort `soa`.  Also the names `e` puts in those slots."""
    if type(e) is NounEntry:
        return NounEntry("slot_word", "slot_index", 0), {"slot_word": e.word, "slot_index": e.index}
    if type(e) is AdvEntry:
        return (replace(e, word="slot_word", rel=e.rel and "slot_rel", soa=e.soa and "soa",
                        line=0), {"slot_word": e.word, "slot_rel": e.rel})
    roles = tuple(f"slot_role{i}" for i in range(len(e.roles)))
    return (replace(e, word="slot_word", soa="soa", roles=roles, phon="slot_phon",
                    finite=e.finite and "slot_form", line=0),
            {"slot_word": e.word, "slot_phon": e.phon, "slot_form": e.finite,
             **dict(zip(roles, e.roles))})


def _fill(shape: tuple, names: dict, sorts: SortTable, soa: str | None, pos) -> Clause:
    """A copy of the shape clause, fresh node by node as read, with slot
    atoms and roles renamed by `names`, and the sort named `soa` in place
    of the grammar's sort `soa`."""
    head, body = shape
    sort, fresh = soa and sorts.get(soa), {}
    return Clause(_renamed(head, names, sort, fresh),
                  tuple(_renamed(t, names, sort, fresh) for t in body), pos)


def _renamed(t, names: dict, soa, fresh: dict):
    """The copy `_fill` makes of `t`; `fresh` maps each variable met so far
    to its copy."""
    tp = type(t)
    if tp is Atom:
        return Atom(names.get(t.name, t.name))
    if tp is Var:
        return fresh.get(t) or fresh.setdefault(t, Var(t.name))
    if tp is Struct:
        return Struct(t.name, [_renamed(a, names, soa, fresh) for a in t.args])
    if tp is ListCons:
        return ListCons(_renamed(t.head, names, soa, fresh),
                        _renamed(t.tail, names, soa, fresh))
    if tp is Avm:
        return Avm(soa if t.sort.name == "soa" else t.sort,
                   {names.get(f, f): _renamed(x, names, soa, fresh)
                    for f, x in t.feats.items()})
    return t  # NIL


def _check_atom(value: str, what: str, lineno: int) -> str:
    if not _ATOM_RE.match(value):
        raise LexiconError(f"line {lineno}: {what} {value!r} is not a valid atom")
    return value


class Lexicon:
    def __init__(self, text: str, path: str | None = None):
        self.path = path
        self.text = text
        self.verbs: dict[str, VerbEntry] = {}
        self.nouns: dict[str, NounEntry] = {}
        self.advs: dict[str, AdvEntry] = {}
        self._parse(text)
        self.finite_map: dict[str, str] = {}
        for v in self.verbs.values():
            if v.finite is not None:
                if v.finite in self.finite_map:
                    raise LexiconError(
                        f"line {v.line}: finite surface {v.finite!r} belongs to both "
                        f"{self.finite_map[v.finite]!r} and {v.word!r}")
                self.finite_map[v.finite] = v.word
        self.vocabulary: set[str] = set(self.nouns) | set(self.advs) | set(self.finite_map)
        self.vocabulary |= {v.word for v in self.verbs.values() if v.nonfinite}
        self._space_forms = {w.replace("_", " "): w for w in self.vocabulary if "_" in w}
        self._max_parts = max((f.count(" ") + 1 for f in self._space_forms), default=1)

    # -- parsing

    def _parse(self, text: str) -> None:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 2:
                raise LexiconError(f"line {lineno}: expected `word class [params]`")
            word, cls = fields[0], fields[1]
            _check_atom(word, "word", lineno)
            params: dict[str, str] = {}
            for field in fields[2:]:
                if "=" not in field:
                    raise LexiconError(f"line {lineno}: bad parameter {field!r}")
                k, v = field.split("=", 1)
                if k in params:
                    raise LexiconError(f"line {lineno}: duplicate parameter {k!r}")
                params[k] = v
            if word in self.verbs or word in self.nouns or word in self.advs:
                raise LexiconError(f"line {lineno}: duplicate word {word!r}")
            if cls == "verb":
                self._add_verb(word, params, lineno)
            elif cls == "noun":
                self._add_noun(word, params, lineno)
            elif cls == "adv-restr":
                self._add_adv(word, "restr", params, lineno)
            elif cls == "adv-op":
                self._add_adv(word, "op", params, lineno)
            else:
                raise LexiconError(f"line {lineno}: unknown class {cls!r}")

    def _add_verb(self, word: str, params: dict, lineno: int) -> None:
        frame = params.pop("frame", None)
        if frame not in ("iv", "tv", "dtv", "aux", "aci"):
            raise LexiconError(f"line {lineno}: bad or missing frame for {word!r}")
        soa = params.pop("soa", None)
        if not soa:
            raise LexiconError(f"line {lineno}: verb {word!r} needs soa=")
        _check_atom(soa, "soa sort", lineno)
        roles_raw = params.pop("roles", None)
        if frame in _FRAME_ROLE_COUNT:
            if not roles_raw:
                raise LexiconError(f"line {lineno}: frame {frame} needs roles=")
            roles = tuple(roles_raw.split(","))
            if len(roles) != _FRAME_ROLE_COUNT[frame]:
                raise LexiconError(
                    f"line {lineno}: frame {frame} needs {_FRAME_ROLE_COUNT[frame]} roles, "
                    f"got {len(roles)}")
            for r in roles:
                _check_atom(r, "role", lineno)
            if len(set(roles)) != len(roles):
                raise LexiconError(f"line {lineno}: duplicate role in {roles_raw!r}")
        else:
            if roles_raw:
                raise LexiconError(f"line {lineno}: frame {frame} takes no roles=")
            roles = ()
        phon = params.pop("phon", word)
        _check_atom(phon, "phon", lineno)
        fin = params.pop("fin", phon + "t")
        finite = None if fin == "-" else _check_atom(fin, "finite form", lineno)
        nonfin = params.pop("nonfin", "+")
        if nonfin not in ("+", "-"):
            raise LexiconError(f"line {lineno}: nonfin must be + or -")
        if params:
            raise LexiconError(f"line {lineno}: unknown parameters {sorted(params)}")
        self.verbs[word] = VerbEntry(word, frame, soa, roles, phon, finite, nonfin == "+", lineno)

    def _add_noun(self, word: str, params: dict, lineno: int) -> None:
        index = params.pop("index", word)
        _check_atom(index, "index", lineno)
        if params:
            raise LexiconError(f"line {lineno}: unknown parameters {sorted(params)}")
        self.nouns[word] = NounEntry(word, index, lineno)

    def _add_adv(self, word: str, kind: str, params: dict, lineno: int) -> None:
        if kind == "restr":
            rel = params.pop("rel", word + "_rel")
            _check_atom(rel, "rel", lineno)
            soa = None
        else:
            soa = params.pop("soa", word + "_soa")
            _check_atom(soa, "operator soa", lineno)
            rel = None
        if params:
            raise LexiconError(f"line {lineno}: unknown parameters {sorted(params)}")
        self.advs[word] = AdvEntry(word, kind, rel, soa, lineno)

    # -- clauses

    def compile(self) -> str:
        soas = dict.fromkeys(e.soa for e in (*self.verbs.values(), *self.advs.values()) if e.soa)
        out = ["% compiled lexicon", *(f"sort {s} < soa." for s in soas), ""]
        for e in (*self.verbs.values(), *self.nouns.values(), *self.advs.values()):
            out += self._texts(e)
        return "\n".join(out) + "\n"

    def _texts(self, e) -> list[str]:
        """The grammar-language text of entry `e`'s clauses."""
        if type(e) is NounEntry:
            return [f"noun_entry({e.word}, @noun{{lex: {e.word}, dir: left, "
                    f"sem: @sem_obj{{index: {e.index}}}}})."]
        if type(e) is AdvEntry:
            return [self._adv_clause(e)]
        out = [self._stem_clause(e)]
        if e.finite is not None:
            out.append(f"finite_form({e.word}, {e.finite}).")
        if e.nonfinite:
            out.append(f"nonfinite_ok({e.word}).")
        return out

    def _stem_clause(self, v: VerbEntry) -> str:
        if v.frame in _FRAME_ROLE_COUNT:
            subj_role = v.roles[0]
            obj_roles = v.roles[1:]
            sc = ", ".join(f"@noun{{dir: left, sem: A{i + 2}}}"
                           for i in range(len(obj_roles)))
            feats = [f"{subj_role}: A1"]
            feats += [f"{role}: A{i + 2}" for i, role in enumerate(obj_roles)]
            qfsoa = f"@{v.soa}{{{', '.join(feats)}}}"
            return (f"stem({v.word}, @verbal{{phon: {v.phon}, sc: [{sc}],\n"
                    f"    subj: @noun{{dir: left, sem: A1}},\n"
                    f"    sem: @sem_obj{{nuc: @nucleus{{qfsoa: {qfsoa}, restr: []}}}}}}).")
        if v.frame == "aux":
            # control: the subject's index reappears on the complement's subject
            return (
                f"stem({v.word}, @verbal{{phon: {v.phon},\n"
                f"    sc: [@verbal{{dir: right, sem: CompSem, sc: Inh,\n"
                f"                 subj: @noun{{sem: @sem_obj{{index: Ix}}}}}} | Inh],\n"
                f"    subj: @noun{{dir: left, sem: SubjSem}},\n"
                f"    sem: @sem_obj{{nuc: @nucleus{{qfsoa: @{v.soa}{{arg1: SubjSem, "
                f"soa_arg: CompSem}}, restr: []}}}}}}) :-\n"
                f"    eq(SubjSem, @sem_obj{{index: Ix}}).")
        # aci: the complement's own subject is realized as an argument here
        return (
            f"stem({v.word}, @verbal{{phon: {v.phon},\n"
            f"    sc: [@verbal{{dir: right, sem: CompSem, sc: CompSc, "
            f"subj: CompSubj}} | Inh],\n"
            f"    subj: @noun{{dir: left, sem: SubjSem}},\n"
            f"    sem: @sem_obj{{nuc: @nucleus{{qfsoa: @{v.soa}{{arg1: SubjSem, "
            f"soa_arg: CompSem}}, restr: []}}}}}}) :-\n"
            f"    eq(CompSubj, @noun{{dir: left}}),\n"
            f"    concat(CompSc, [CompSubj], Inh).")

    def _adv_clause(self, a: AdvEntry) -> str:
        if a.kind == "restr":
            return (
                f"adverbial_entry({a.word}, @restr_adverbial{{lex: {a.word}, dir: left,\n"
                f"    mod: @mod{{arg: @sem_obj{{nuc: @nucleus{{qfsoa: Q, restr: R}}}},\n"
                f"              val: @sem_obj{{nuc: @nucleus{{qfsoa: Q, "
                f"restr: [{a.rel}|R]}}}}}}}}).")
        return (
            f"adverbial_entry({a.word}, @op_adverbial{{lex: {a.word}, dir: left,\n"
            f"    mod: @mod{{arg: A,\n"
            f"              val: @sem_obj{{nuc: @nucleus{{qfsoa: @{a.soa}{{soa_arg: A}}, "
            f"restr: []}}}}}}}}).")

    def install(self, program) -> None:
        """Declare the soa sorts on `program` and add the clauses `compile`'s
        text reads as, one `Words` per predicate, appended to its clause
        list like any loaded clause: no clause is made here.  A word's
        clause is `_fill`ed from the shape of its kind of entry (`_slot`),
        read once, when a goal first names the word or asks for every
        clause.  The text goes in `program.loaded`: a second install adds nothing."""
        if self.text in program.loaded:
            return
        sorts = program.sorts
        named = [e for e in (*self.verbs.values(), *self.advs.values()) if e.soa]
        for e in named:
            if e.soa in sorts:
                raise LexiconError(f"line {e.line}: soa {e.soa!r} names an existing sort")
        for soa in dict.fromkeys(e.soa for e in named):
            sorts.declare(soa, "soa")
        shapes: dict = {}
        where = self.path or "<lexicon>"

        def make(name: str, entries: dict):
            def clause(word: str) -> Clause:
                e = entries[word]
                slot, names = _slot(e)
                if slot not in shapes:
                    items = parse_source("\n".join(self._texts(slot)), sorts,
                                         "<lexicon shapes>")
                    shapes[slot] = {item[1].name: item[1:3] for item in items}
                return _fill(shapes[slot][name], names, sorts, getattr(e, "soa", None),
                             f"{where}:{e.line}")
            return clause
        verbs = self.verbs
        program.add_clauses([
            Words(("stem", 2), verbs, make("stem", verbs)),
            Words(("finite_form", 2), [w for w, v in verbs.items() if v.finite],
                  make("finite_form", verbs)),
            Words(("nonfinite_ok", 1), [w for w, v in verbs.items() if v.nonfinite],
                  make("nonfinite_ok", verbs)),
            Words(("noun_entry", 2), self.nouns, make("noun_entry", self.nouns)),
            Words(("adverbial_entry", 2), self.advs, make("adverbial_entry", self.advs)),
        ], self.text)

    # -- tokenization

    def tokenize(self, sentence: str) -> tuple[list[str], bool]:
        """Lowercase, split, join multi-word units known to the lexicon,
        and strip a leading complementizer `dat`.  Returns the tokens and
        whether `dat` was present."""
        raw = sentence.lower().split()
        if raw and raw[-1].endswith((".", "?", "!")):
            raw[-1] = raw[-1].rstrip(".?!")
            if not raw[-1]:
                raw.pop()
        had_dat = bool(raw) and raw[0] == "dat"
        if had_dat:
            raw = raw[1:]
        tokens: list[str] = []
        i = 0
        while i < len(raw):
            joined = None
            for width in range(min(self._max_parts, len(raw) - i), 1, -1):
                candidate = " ".join(raw[i:i + width])
                if candidate in self._space_forms:
                    joined = self._space_forms[candidate]
                    i += width
                    break
            if joined is None:
                joined = raw[i]
                i += 1
            tokens.append(joined)
        return tokens, had_dat
