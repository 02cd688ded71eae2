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
attempt runs only the match phase on each frame.  Its Engine gives each
tabling solve a step budget of its own, and the match phase one budget
across all of the attempt's frames.  The frames keep the order of the
answers, so the derivations come out in the order the nested entry and
match enumeration gave them.  A cut-off solve records nothing.

The match phase pairs a frame in place, not a copy of it: every write to
a term goes through the store's trail, and the attempt undoes to its
mark after each frame and when it ends, raising or not, so the tabled
frame comes back as it was.  A Program's table is thus mutated, and
restored, during a parse, so two parses may not share a Program at the
same time (tabling already mutated it).  A derivation is read off the
live frame before that undo: its members, cluster and reading, the
canonical form of its `sem`.  Its sign, a resolved snapshot, is made
only for the first derivation of each reading; any other derivation's
sign is made on demand by replaying its head's attempt (`Derivation.sign`).

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
are tried.  A member fits a token if some of the token's tabled answers
is not a record or has a sort that meets the member's; an unbound member
fits any token.  Matching only refines a member's sort, and in a sort
tree a failed meet stays failed under refinement, so a pairing the table
rules out could never have matched: the derivations and their order are
unchanged.  A table depends only on its frame and the tokens' answer
sorts, so it is built once per Program: `Program.frame_index` keeps, per
(head word, n, left and right answer sorts), the frames whose table
passes, in answer order, each with its table, and an attempt pairs only
those.  Loading source empties the index with the answer table.
"""

from __future__ import annotations

from .errors import (LimitExceededError, NoFiniteVerbError, StaleParseError,
                     UnknownTokensError)
from .lexicon import Lexicon
from .render import canonical, canonical_text
from .solver import Engine, Program, _Record
from .terms import (NIL, Atom, Avm, SortTable, Store, Struct, Var, deref,
                    list_to_python, make_list, resolve)

# `_pair` matches a word left of the head as a noun or an adverbial.
MATCH_RULES = """
lexical_dependent(T, M) :- noun_entry(T, M).
lexical_dependent(T, M) :- adverbial_entry(T, M).
"""

FINITE, NONFINITE = Atom("finite"), Atom("nonfinite")
# the predicates that hold the table's answers: entries, and finite frames
ENTRY, DEPENDENT, FRAME = ("tabled_entry", 3), ("tabled_dependent", 2), ("tabled_frame", 3)
LEFT, RIGHT = 1, 2      # the ways a member may take a token, as table bits


class Derivation(_Record):
    __slots__ = ("head_index", "reading", "reading_text", "members", "cluster",
                 "_sign", "_signs", "_index")
    _fields = __slots__[:5]

    def __init__(self, head_index: int, reading: tuple, reading_text: str,
                 members: list[dict], cluster: list[str], _sign=None,
                 _signs: _Signs | None = None, _index: int = 0):
        self.head_index = head_index
        self.reading = reading              # canonical form of the sign's sem, and
        self.reading_text = reading_text    # its text, shared by equal readings
        self.members = members      # per subcat member: dir, lex, token, token_index
        self.cluster = cluster      # head plus governed cluster verbs, surface order
        self._sign, self._signs = _sign, _signs
        self._index = _index        # in its attempt

    @property
    def sign(self):
        """The resolved finite sign, structure shared.  The parse makes it
        for the first derivation of each reading.  Any other derivation's
        first read replays its head's attempt untraced, which costs about
        as much as that attempt did, and resolves every sign of it; later
        reads return the same object.  Raises StaleParseError if the
        Program has added clauses since the parse."""
        if self._sign is None:
            self._sign = self._signs.sign(self)
        return self._sign


class ParseResult(_Record):
    __slots__ = _fields = ("sentence", "tokens", "had_complementizer", "derivations")

    def __init__(self, sentence: str, tokens: list[str], had_complementizer: bool,
                 derivations: list[Derivation] | None = None):
        self.sentence, self.tokens, self.had_complementizer = sentence, tokens, had_complementizer
        self.derivations = [] if derivations is None else derivations

    @property
    def grammatical(self) -> bool:
        return bool(self.derivations)

    @property
    def readings(self) -> list[tuple]:
        return list(dict.fromkeys(d.reading for d in self.derivations))


class _Signs:
    """What one parse's derivations share to make their signs on demand:
    the tokens, the parse's readings, and each replayed attempt's
    derivations by head index, every sign resolved.  Only a derivation
    whose sign is not made yet holds it, so the replayed ones do not, and
    a result makes no reference cycle."""

    __slots__ = ("parser", "tokens", "readings", "loaded", "replayed")

    def __init__(self, parser: Parser, tokens: list[str]):
        self.parser = parser
        self.tokens = tokens
        self.readings: dict = {}     # one (reading, text) per distinct reading
        self.loaded = len(parser.program.loaded)
        self.replayed: dict[int, list[Derivation]] = {}

    def sign(self, d: Derivation):
        """`d`'s sign, from its head's attempt replayed once.  A replayed
        derivation must have `d`'s row, or its sign is not `d`'s."""
        h = d.head_index
        replay = self.replayed.get(h)
        if replay is None:
            parser = self.parser
            if len(parser.program.loaded) != self.loaded:
                raise StaleParseError(
                    "the program has added clauses since the parse; "
                    "parse again for this derivation's sign")
            replay = self.replayed[h] = parser._attempt(h, self, replay=True)
        r = replay[d._index] if d._index < len(replay) else None
        if r is None or (r.reading, r.members, r.cluster) != \
                (d.reading, d.members, d.cluster):
            raise StaleParseError(
                f"replaying head {self.tokens[h]!r} gave other derivations "
                "than the parse")
        return r._sign


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
        signs = _Signs(self, tokens)
        for h in heads:
            result.derivations.extend(self._attempt(h, signs))
        return result

    # one finite-head hypothesis
    def _attempt(self, h: int, signs: _Signs, replay: bool = False) -> list[Derivation]:
        """The derivations with head `h`, each sign resolved if its reading
        is new to `signs`.  A `replay` runs untraced and resolves every
        sign."""
        tokens = signs.tokens
        word = self.lexicon.finite_map[tokens[h]]
        left = tokens[:h]
        right = tokens[h + 1:]
        engine = Engine(self.program, max_depth=self.max_depth,
                        trace=None if replay else self.trace)
        self._table(engine, ENTRY, Struct(
            "lexical_entry", (Atom(word), FINITE, Var("Entry"))))
        left_answers = [self._table(engine, DEPENDENT, Struct(
            "lexical_dependent", (Atom(t), Var("Entry")))) for t in left]
        right_answers = [self._table(engine, ENTRY, Struct(
            "lexical_entry", (Atom(t), NONFINITE, Var("Entry")))) for t in right]
        frames = self._frames(engine, word, len(tokens) - 1,
                              tuple(_answer_sorts(a) for a in left_answers),
                              tuple(_answer_sorts(a) for a in reversed(right_answers)))
        store = engine.store
        lefts = [Atom(t) for t in left]
        rights = [Atom(t) for t in reversed(right)]
        out: list[Derivation] = []
        m0 = store.mark()
        try:
            for frame, sc, members, table in frames:   # paired in place, undone below
                for _ in _pair(engine, table, members, lefts, rights):
                    if store.pending_residue():
                        continue
                    out.append(self._extract(store, frame, sc, h, signs,
                                             len(out), replay))
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

    def _frames(self, engine: Engine, word: str, n: int, left: tuple,
                right: tuple) -> list:
        """The frames of `word` with `n` members whose `_pairings` table
        passes for tokens of answer sorts `left` and `right`, in answer
        order, as (frame, subcat list, members reversed, table), kept per
        (word, n, left, right) in `Program.frame_index`."""
        key = (word, n, left, right)
        frames = self.program.frame_index.get(key)
        if frames is None:
            skeleton = [engine.store.new_var(f"M{i + 1}") for i in range(n)]
            sign = Avm(self.program.sorts.get("sign"),
                       {"sc": make_list(skeleton), "slash": NIL})
            answers = self._table(engine, FRAME, Struct(
                "tabled_entry", (Atom(word), FINITE, sign)), n)
            frames = self.program.frame_index[key] = []
            for answer in answers:
                if answer.body:         # a frame leaves no residue
                    continue
                frame = answer.head.args[-1]
                sc = list_to_python(frame.feats["sc"])[0]
                members = sc[::-1]
                table = _pairings(self.program.sorts, members, left, right)
                if table[0][0]:
                    frames.append((frame, sc, members, table))
        return frames

    def _table(self, engine: Engine, pred: tuple, goal: Struct, *extra) -> list:
        """The answers to `goal`, tabled as clauses of `pred` under a key of
        its atoms and `extra` (`Engine.table`)."""
        answers = engine.table((pred,) + goal.args[:-1] + extra, goal)
        if answers is None:
            raise LimitExceededError(
                f"step limit {self.max_depth} hit while parsing "
                f"(entry of {goal.args[0].name!r})")
        return answers

    def _extract(self, store: Store, sign, members: list, h: int,
                 signs: _Signs, index: int, every_sign: bool) -> Derivation:
        """The derivation of the live `sign`, whose subcat list holds
        `members`, the attempt's `index`th, read before the attempt undoes
        it."""
        tokens = signs.tokens
        sign = deref(sign)
        dirs = [_feat_atom(m, "dir") for m in members]
        assert dirs.count("left") == h and \
            dirs.count("right") == len(tokens) - 1 - h, "member/token split mismatch"
        info: list[dict] = []
        li = ri = 0
        for m, d in zip(members, dirs):
            if d == "left":
                tok_index = h - 1 - li
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
        known = signs.readings.get(reading)
        if known is None:
            known = signs.readings[reading] = (reading, canonical_text(reading))
            every_sign = True
        made = resolve(store, sign) if every_sign else None
        return Derivation(
            head_index=h,
            reading=known[0],
            reading_text=known[1],
            members=info,
            cluster=cluster_expand(sign),
            _sign=made,
            _signs=signs if made is None else None,
            _index=index,
        )


def _answer_sorts(answers: list) -> tuple | None:
    """Sorts of the tabled `answers`, or None if some answer is not a
    record and so fits any member."""
    sorts = []
    for c in answers:
        answer = c.head.args[-1]
        if type(answer) is not Avm:
            return None
        if answer.sort not in sorts:
            sorts.append(answer.sort)
    return tuple(sorts)


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
          rights: list):
    """Yield once per full pairing that `table` allows, bindings live; each
    pairing tried is a step."""
    store = engine.store

    def answers(k: int, i: int):
        tries = []
        if table[k][i] & LEFT:
            tries.append((Struct("tabled_dependent", (lefts[i], members[k])), i + 1))
        if table[k][i] & RIGHT:
            tries.append((Struct("tabled_entry",
                                 (rights[k - i], NONFINITE, members[k])), i))
        mark = store.mark()
        for goal, after in tries:
            if not engine.count_step():
                return
            for _ in engine.prove_live([goal]):
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
    m = deref(m)
    if type(m) is not Avm:
        return None
    v = deref(m.feats.get(name))
    return v.name if type(v) is Atom else None


def cluster_expand(sign) -> list[str]:
    """Surface order of the verb cluster of a live or resolved sign: its
    own form, then every governed verbal member, depth first, skipping
    members already listed (a flat list names each inherited complement
    at several levels)."""
    out: list[str] = []
    seen: set[int] = set()
    stack = [deref(sign)]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        lex = _feat_atom(v, "lex")
        if lex is not None:
            out.append(lex)
        members = [m for m in map(deref, list_to_python(v.feats.get("sc", NIL))[0])
                   if type(m) is Avm and _feat_atom(m, "dir") == "right"]
        stack += reversed(members)
    return out
