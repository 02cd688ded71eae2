"""Head-driven parsing over delayed lexical entries.

The parser never builds a phrase-structure tree.  It picks a finite
verb and asks the grammar for a finite entry whose subcat list is a
skeleton of fresh variables, one per other token of the sentence:
adjuncts sit on the list like complements and every member is matched
to exactly one token, so the length is derived, not guessed.  Solving
that goal runs the stem and the recursive rules as far as the skeleton
allows; the rules wake each other up as list structure appears,
bottom-to-top.  A second goal then matches skeleton members against the
remaining tokens: members left of the head in reverse list order,
cluster verbs right of the head in list order, one token per member.
Matching a cluster verb applies that verb's own lexical entry to the
member in place, which binds the next lower subcat list and wakes the
next round of delayed rules.

An answer counts as a derivation only if nothing is left suspended:
a parse conditional on an unapplied lexical rule is no parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LimitExceededError, NoFiniteVerbError, UnknownTokensError
from .lexicon import Lexicon
from .render import canonical, canonical_text
from .solver import Engine, Program
from .terms import NIL, Atom, Avm, ListCons, Struct, make_list, resolve

# Surface matching as clauses, so it can drive the same waking machinery
# as everything else.  The member spine comes in reverse subcat order:
# tokens left of the head are consumed front-to-back, cluster verbs
# deepest-first.
MATCH_RULES = """
match_members([], [], []).
match_members([M|Ms], [T|Ls], Rs) :-
    lexical_dependent(T, M),
    match_members(Ms, Ls, Rs).
match_members([M|Ms], Ls, [T|Rs]) :-
    lexical_entry(T, nonfinite, M),
    match_members(Ms, Ls, Rs).

lexical_dependent(T, M) :- noun_entry(T, M).
lexical_dependent(T, M) :- adverbial_entry(T, M).
"""


@dataclass
class Derivation:
    head_index: int
    sign: object                     # resolved finite sign, structure shared
    reading: tuple                   # canonical form of the sign's sem
    reading_text: str
    members: list[dict]              # per subcat member: dir, lex, token, token_index
    cluster: list[str]               # head plus governed cluster verbs, surface order


@dataclass
class ParseResult:
    sentence: str
    tokens: list[str]
    had_complementizer: bool
    derivations: list[Derivation] = field(default_factory=list)

    @property
    def grammatical(self) -> bool:
        return bool(self.derivations)

    @property
    def readings(self) -> list[tuple]:
        seen: list[tuple] = []
        for d in self.derivations:
            if d.reading not in seen:
                seen.append(d.reading)
        return seen


def _walk_list(t) -> list:
    items = []
    while isinstance(t, ListCons):
        items.append(t.head)
        t = t.tail
    return items


class Parser:
    def __init__(self, program: Program, lexicon: Lexicon,
                 max_depth: int = 200000, max_sc_length: int = 10,
                 trace=None):
        self.program = program
        self.lexicon = lexicon
        self.max_depth = max_depth
        self.max_sc_length = max_sc_length
        self.trace = trace
        program.load(MATCH_RULES, "<parser>")

    def parse(self, sentence: str) -> ParseResult:
        tokens, had_dat = self.lexicon.tokenize(sentence)
        if not tokens:
            raise NoFiniteVerbError(f"no usable tokens in {sentence!r}")
        unknown = [t for t in tokens if t not in self.lexicon.vocabulary]
        if unknown:
            raise UnknownTokensError(unknown)
        heads = [i for i, t in enumerate(tokens) if t in self.lexicon.finite_map]
        if not heads:
            raise NoFiniteVerbError(f"no finite verb in {sentence!r}")
        result = ParseResult(sentence, tokens, had_dat)
        if len(tokens) - 1 > self.max_sc_length:   # every other token is a member
            return result
        for h in heads:
            result.derivations.extend(self._attempt(tokens, h))
        return result

    # one finite-head hypothesis
    def _attempt(self, tokens: list[str], h: int) -> list[Derivation]:
        word = self.lexicon.finite_map[tokens[h]]
        left = tokens[:h]
        right = tokens[h + 1:]
        engine = Engine(self.program, max_depth=self.max_depth, trace=self.trace)
        store = engine.store
        skeleton = [store.new_var(f"M{i + 1}") for i in range(len(tokens) - 1)]
        sign = Avm(self.program.sorts.get("sign"),
                   {"sc": make_list(skeleton), "slash": NIL})
        entry_goal = Struct("lexical_entry",
                            (Atom(word), Atom("finite"), sign))
        match_goal = Struct("match_members",
                            (make_list(list(reversed(skeleton))),
                             make_list([Atom(t) for t in left]),
                             make_list([Atom(t) for t in reversed(right)])))
        out: list[Derivation] = []
        m0 = store.mark()
        try:
            for _ in engine.prove_live([entry_goal]):
                if store.pending_residue():
                    continue
                for _ in engine.prove_live([match_goal], reset=False):
                    if store.pending_residue():
                        continue
                    resolved = resolve(store, sign)
                    out.append(self._extract(resolved, tokens, h, left, right))
                if engine.truncated:
                    break
        finally:
            store.undo_to(m0)
        if engine.truncated:
            raise LimitExceededError(
                f"step limit {self.max_depth} hit while parsing "
                f"(head {tokens[h]!r})")
        return out

    def _extract(self, sign, tokens: list[str], h: int,
                 left: list[str], right: list[str]) -> Derivation:
        members = _walk_list(sign.feats["sc"])
        lefts = [m for m in members if _feat_atom(m, "dir") == "left"]
        rights = [m for m in members if _feat_atom(m, "dir") == "right"]
        assert len(lefts) == len(left) and len(rights) == len(right), \
            "member/token split mismatch"
        info: list[dict] = []
        li = ri = 0
        for m in members:
            d = _feat_atom(m, "dir")
            if d == "left":
                tok_index = len(left) - 1 - li
                li += 1
            else:
                tok_index = h + 1 + ri
                ri += 1
            tok = tokens[tok_index]
            lex = _feat_atom(m, "lex")
            assert lex == tok, f"member lex {lex!r} vs token {tok!r}"
            info.append({"dir": d, "lex": lex, "token": tok,
                         "token_index": tok_index})
        sem = sign.feats["sem"]
        reading = canonical(sem)
        return Derivation(
            head_index=h,
            sign=sign,
            reading=reading,
            reading_text=canonical_text(reading),
            members=info,
            cluster=cluster_expand(sign),
        )


def _feat_atom(m, name: str) -> str | None:
    if not isinstance(m, Avm):
        return None
    v = m.feats.get(name)
    return v.name if isinstance(v, Atom) else None


def cluster_expand(sign) -> list[str]:
    """Surface order of the verb cluster: the sign's own form, then every
    governed verbal member, skipping members already listed (a flat list
    names each inherited complement at several levels)."""
    out: list[str] = []
    seen: set[int] = set()

    def walk(v) -> None:
        if id(v) in seen:
            return
        seen.add(id(v))
        lex = _feat_atom(v, "lex")
        if lex is not None:
            out.append(lex)
        for m in _walk_list(v.feats.get("sc", NIL)):
            if isinstance(m, Avm) and _feat_atom(m, "dir") == "right":
                walk(m)

    walk(sign)
    return out
