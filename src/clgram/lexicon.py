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

`compile` produces grammar-language source (sort declarations, stem/2,
finite_form/2, nonfinite_ok/1, noun_entry/2, adverbial_entry/2);
`install` loads it into a Program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LexiconError

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

_FRAME_ROLE_COUNT = {"iv": 1, "tv": 2, "dtv": 3}


@dataclass
class VerbEntry:
    word: str
    frame: str
    soa: str
    roles: tuple[str, ...]
    phon: str
    finite: str | None
    nonfinite: bool


@dataclass
class NounEntry:
    word: str
    index: str


@dataclass
class AdvEntry:
    word: str
    kind: str  # "restr" or "op"
    rel: str | None
    soa: str | None


def _check_atom(value: str, what: str, lineno: int) -> str:
    if not _ATOM_RE.match(value):
        raise LexiconError(f"line {lineno}: {what} {value!r} is not a valid atom")
    return value


class Lexicon:
    def __init__(self, text: str, path: str | None = None):
        self.path = path
        self.verbs: dict[str, VerbEntry] = {}
        self.nouns: dict[str, NounEntry] = {}
        self.advs: dict[str, AdvEntry] = {}
        self._parse(text)
        self.finite_map: dict[str, str] = {}
        for v in self.verbs.values():
            if v.finite is not None:
                if v.finite in self.finite_map:
                    raise LexiconError(
                        f"finite surface {v.finite!r} belongs to both "
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
        self.verbs[word] = VerbEntry(word, frame, soa, roles, phon, finite, nonfin == "+")

    def _add_noun(self, word: str, params: dict, lineno: int) -> None:
        index = params.pop("index", word)
        _check_atom(index, "index", lineno)
        if params:
            raise LexiconError(f"line {lineno}: unknown parameters {sorted(params)}")
        self.nouns[word] = NounEntry(word, index)

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
        self.advs[word] = AdvEntry(word, kind, rel, soa)

    # -- compiling to grammar-language source

    def compile(self) -> str:
        out: list[str] = ["% compiled lexicon"]
        soa_sorts: list[str] = []
        for v in self.verbs.values():
            if v.soa not in soa_sorts:
                soa_sorts.append(v.soa)
        for a in self.advs.values():
            if a.soa and a.soa not in soa_sorts:
                soa_sorts.append(a.soa)
        for s in soa_sorts:
            out.append(f"sort {s} < soa.")
        out.append("")
        for v in self.verbs.values():
            out.append(self._stem_clause(v))
            if v.finite is not None:
                out.append(f"finite_form({v.word}, {v.finite}).")
            if v.nonfinite:
                out.append(f"nonfinite_ok({v.word}).")
        out.append("")
        for n in self.nouns.values():
            out.append(f"noun_entry({n.word}, "
                       f"@noun{{lex: {n.word}, dir: left, "
                       f"sem: @sem_obj{{index: {n.index}}}}}).")
        out.append("")
        for a in self.advs.values():
            out.append(self._adv_clause(a))
        out.append("")
        return "\n".join(out)

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
        program.load(self.compile(), self.path or "<lexicon>")
        for name, arity in (("stem", 2), ("finite_form", 2), ("nonfinite_ok", 1),
                            ("noun_entry", 2), ("adverbial_entry", 2)):
            program.ensure_predicate(name, arity)

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
