"""Head-driven parsing over delayed lexical entries.

The parser never builds a phrase-structure tree.  It picks a finite
verb and asks the grammar for a finite entry whose subcat list is a
skeleton of fresh variables, one per other token of the sentence:
adjuncts sit on the list like complements and every member is matched
to exactly one token, so the length is derived, not guessed.  Solving
that goal runs the stem and the recursive rules as far as the skeleton
allows; the rules wake each other up as list structure appears,
bottom-to-top.  The match phase then pairs skeleton members with the
remaining tokens, one token per member, taking the members in reverse
list order: tokens left of the head front-to-back, cluster verbs right
of the head deepest-first.  Matching a cluster verb applies that verb's
own lexical entry to the member in place, which binds the next lower
subcat list and wakes the next round of delayed rules.

An answer counts as a derivation only if nothing is left suspended:
a parse conditional on an unapplied lexical rule is no parse.

Everything a word's entry does before its first suspension is the same
in every sentence, so it is derived once per Program and tabled
(Johnson and Dörre, "Memoization of coroutined constraints", ACL 1995).
The first time an attempt needs a word, `Engine.table` solves
`lexical_entry(W, Form, E)` or `lexical_dependent(W, E)`, `E` unbound,
on the attempt's Engine and under its trace hook, and keeps each answer
as a clause `tabled_entry(W, Form, E') :- Residue` (or `tabled_dependent(W, E')`),
where `Residue` is the goals still suspended (`add_adj`, the `concat`
of a finite or perception-verb entry, and with extraction on
`take_one`), resolved together with `E'` so the two share variables.
The finite entry goal and the match phase call these clauses: matching
the head puts the tabled entry in place, and the residue runs again
against the sentence's terms, driven by the same wakes as before.
Loading source into the Program drops the table.

The finite entry goal is tabled one level up, in the same table.  It
depends only on the head word and the subcat length n (the skeleton is
n fresh variables), so `Parser._frames` tables it under (word, n), not
the sentence, as clauses `tabled_frame(W, finite, Sign) :- Residue`
that nothing calls; an answer that leaves no residue is a frame.  An
attempt copies a frame (`copy_term`) and runs only the match phase,
whose step budget spans all of the attempt's frames; each tabling solve
has a budget of its own.  The frames keep the order of the answers, so
the derivations come out in the order the nested entry and match
enumeration gave them.  A cut-off solve records nothing.

The match phase (`_pair`) pairs member k with the next left token, by
`tabled_dependent`, or else the next right token, by `tabled_entry(T,
nonfinite, M)`, each a live enumeration nested under the attempt's, on
an explicit stack; each pairing tried is one step.  Most entry answers
place adverbials and inherited arguments where no token can stand, which
matching finds out only after running cluster-verb residues.  So a
read-only table (`_pairings`), built backwards over the states (k, i),
member k next and i left tokens taken, says which pairings still let
the later members finish, judging by sort alone.  An answer whose state
(0, 0) cannot finish is skipped, and only the pairings the table allows
are tried.  It reads each token's tabled answers once per attempt, as
`Engine.table` returned them: a member fits a token if some answer is
not a record or its sort meets the member's; an unbound member fits any
token.  Matching only refines a member's sort, and in a sort tree a
failed meet stays failed under refinement, so a pairing the table rules
out could never have matched: the derivations and their order are
unchanged.  A skipped frame is never copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LimitExceededError, NoFiniteVerbError, UnknownTokensError
from .lexicon import Lexicon
from .render import canonical, canonical_text
from .solver import Engine, Program
from .terms import (NIL, Atom, Avm, ListCons, SortTable, Struct, Var,
                    copy_term, deref, make_list, resolve)

# `_pair` matches a word left of the head as a noun or an adverbial.
MATCH_RULES = """
lexical_dependent(T, M) :- noun_entry(T, M).
lexical_dependent(T, M) :- adverbial_entry(T, M).
"""

FINITE, NONFINITE = Atom("finite"), Atom("nonfinite")
# the predicates that hold the table's answers: entries, and finite frames
ENTRY, DEPENDENT, FRAME = ("tabled_entry", 3), ("tabled_dependent", 2), ("tabled_frame", 3)
LEFT, RIGHT = 1, 2      # the ways a member may take a token, as table bits


@dataclass
class Derivation:
    head_index: int
    sign: object                     # resolved finite sign, structure shared
    reading: tuple                   # canonical form of the sign's sem, and
    reading_text: str                # its text, shared by equal readings
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
        return list(dict.fromkeys(d.reading for d in self.derivations))


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
        readings: dict = {}     # one (reading, text) per distinct reading
        for h in heads:
            result.derivations.extend(self._attempt(tokens, h, readings))
        return result

    # one finite-head hypothesis
    def _attempt(self, tokens: list[str], h: int, readings: dict) -> list[Derivation]:
        word = self.lexicon.finite_map[tokens[h]]
        left = tokens[:h]
        right = tokens[h + 1:]
        engine = Engine(self.program, max_depth=self.max_depth, trace=self.trace)
        self._table(engine, ENTRY, Struct(
            "lexical_entry", (Atom(word), FINITE, Var("Entry"))))
        left_answers = [self._table(engine, DEPENDENT, Struct(
            "lexical_dependent", (Atom(t), Var("Entry")))) for t in left]
        right_answers = [self._table(engine, ENTRY, Struct(
            "lexical_entry", (Atom(t), NONFINITE, Var("Entry")))) for t in right]
        answers = self._frames(engine, word, len(tokens) - 1)
        store = engine.store
        left_sorts = [_answer_sorts(a) for a in left_answers]
        right_sorts = [_answer_sorts(a) for a in reversed(right_answers)]
        lefts = [Atom(t) for t in left]
        rights = [Atom(t) for t in reversed(right)]
        out: list[Derivation] = []
        reset = True            # one step budget across the attempt's frames
        m0 = store.mark()
        try:
            for answer in answers:
                if answer.body:         # a frame leaves no residue
                    continue
                frame = answer.head.args[-1]
                table = _pairings(self.program.sorts,
                                  _walk_list(frame.feats["sc"])[::-1],
                                  left_sorts, right_sorts)
                if not table[0][0]:
                    continue
                sign = copy_term(store, frame)
                members = _walk_list(sign.feats["sc"])[::-1]
                for _ in _pair(engine, table, members, lefts, rights, reset):
                    if store.pending_residue():
                        continue
                    resolved = resolve(store, sign)
                    out.append(self._extract(resolved, tokens, h, left, right, readings))
                reset = False
                store.undo_to(m0)
                if engine.truncated:
                    break
        finally:
            store.undo_to(m0)
        if engine.truncated:
            raise LimitExceededError(
                f"step limit {self.max_depth} hit while parsing "
                f"(head {tokens[h]!r})")
        return out

    def _frames(self, engine: Engine, word: str, n: int) -> list:
        """The finite entries of `word` with `n` fresh subcat members,
        tabled per (word, n); those that leave no residue are frames."""
        skeleton = [engine.store.new_var(f"M{i + 1}") for i in range(n)]
        sign = Avm(self.program.sorts.get("sign"),
                   {"sc": make_list(skeleton), "slash": NIL})
        return self._table(engine, FRAME, Struct(
            "tabled_entry", (Atom(word), FINITE, sign)), n)

    def _table(self, engine: Engine, pred: tuple, goal: Struct, *extra) -> list:
        """The answers to `goal`, tabled as clauses of `pred` under a key of
        its atoms and `extra` (`Engine.table`)."""
        answers = engine.table((pred,) + goal.args[:-1] + extra, goal)
        if answers is None:
            raise LimitExceededError(
                f"step limit {self.max_depth} hit while parsing "
                f"(entry of {goal.args[0].name!r})")
        return answers

    def _extract(self, sign, tokens: list[str], h: int, left: list[str],
                 right: list[str], readings: dict) -> Derivation:
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
        reading = canonical(sign.feats["sem"])
        known = readings.get(reading)
        if known is None:
            known = readings[reading] = (reading, canonical_text(reading))
        return Derivation(
            head_index=h,
            sign=sign,
            reading=known[0],
            reading_text=known[1],
            members=info,
            cluster=cluster_expand(sign),
        )


def _answer_sorts(answers: list) -> list | None:
    """Sorts of the tabled `answers`, or None if some answer is not a
    record and so fits any member."""
    sorts = []
    for c in answers:
        answer = c.head.args[-1]
        if type(answer) is not Avm:
            return None
        if answer.sort not in sorts:
            sorts.append(answer.sort)
    return sorts


def _pairings(sorts: SortTable, members: list, left: list, right: list) -> list:
    """The sort table: `table[k][i]`, member k next with i left tokens
    taken, has LEFT set if member k may take left token i and RIGHT if it
    may take right token k - i, judging by sort alone, so that the members
    after it can still finish.  `left` and `right` hold the tokens' answer
    sorts as they are taken (None: fits any member).  Row n marks the
    finished state, so `table[0][0]` is 0 iff no order of tokens fits."""
    def fits(m, answer_sorts) -> bool:
        return (answer_sorts is None or type(m) is not Avm
                or any(sorts.meet(m.sort, s) is not None for s in answer_sorts))

    nl, nr = len(left), len(right)
    table = [[0] * nl + [1]]            # built backwards, from row n
    for k in range(len(members) - 1, -1, -1):
        m, after, row = deref(members[k]), table[-1], [0] * (nl + 1)
        for i in range(max(0, k - nr), min(k, nl) + 1):
            if i < nl and after[i + 1] and fits(m, left[i]):
                row[i] = LEFT
            if k - i < nr and after[i] and fits(m, right[k - i]):
                row[i] |= RIGHT
        table.append(row)
    return table[::-1]


def _pair(engine: Engine, table: list, members: list, lefts: list,
          rights: list, reset: bool):
    """Yield once per full pairing that `table` allows, bindings live; each
    pairing tried is a step (`reset`: start the budget)."""
    store = engine.store

    def answers(k: int, i: int):
        nonlocal reset
        tries = []
        if table[k][i] & LEFT:
            tries.append((Struct("tabled_dependent", (lefts[i], members[k])), i + 1))
        if table[k][i] & RIGHT:
            tries.append((Struct("tabled_entry",
                                 (rights[k - i], NONFINITE, members[k])), i))
        mark = store.mark()
        for goal, after in tries:
            if not engine.count_step(reset):
                return
            reset = False
            for _ in engine.prove_live([goal], reset=False):
                yield after
            store.undo_to(mark)     # an ended enumeration leaves bindings
            if engine.truncated:
                return

    stack = [iter((0,))]    # per member paired, a generator of next states
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
        elif len(stack) > len(members):
            yield
        else:
            stack.append(answers(len(stack) - 1, i))


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
