"""End-to-end parsing: judgments, ambiguity, scope, cluster structure."""

import gc
import hashlib
import random
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracle import _sem_index, _sem_obj, _soa, _wrap_restr, oracle_parse
import clgram.parser
from clgram.parser import CLUSTER, DEPENDENT, ENTRY, FRAME, LEFT, RIGHT
from clgram import (NIL, Atom, Avm, BlockSpec, ClgramError, Derivation, Engine,
                    ListCons, LimitExceededError, NoFiniteVerbError, Parser,
                    ParseResult, Solution, StaleParseError, Struct, Truncated,
                    UnknownTokensError, Var, build_program, canonical,
                    cluster_expand, corpus_source, load_corpus, render)

CORPUS = load_corpus(corpus_source())

# sentence -> (derivations, distinct readings), hand-checked against the
# eager reference implementation in oracle.py
AMBIGUITY = {
    "dat arie wil slapen": (1, 1),
    "dat arie bob zou moeten kunnen willen kussen": (1, 1),
    "dat arie vandaag bob wil slaan": (2, 2),
    "dat arie bob vandaag wil kussen": (3, 2),
    "dat arie het artikel op tijd probeerde op te sturen": (3, 2),
    "dat arie bob de vrouwen met een verrekijker zag bekijken": (3, 2),
    "dat arie bob vandaag toevallig wil kussen": (7, 4),
}


def items(t):
    out = []
    while isinstance(t, ListCons):
        out.append(t.head)
        t = t.tail
    return out


def adverb_sharing(deriv):
    """(adverbial count in the finite verb's list, how many of those nodes
    also sit in the complement's list)."""
    sc = items(deriv.sign.feats["sc"])
    advs = [m for m in sc if m.sort.name.endswith("adverbial")]
    comps = [m for m in sc
             if m.sort.name == "verbal" and "sc" in m.feats]
    shared = 0
    for a in advs:
        for c in comps:
            if any(a is x for x in items(c.feats["sc"])):
                shared += 1
                break
    return len(advs), shared


class TestJudgments:
    @pytest.mark.parametrize("sentence,expect", CORPUS,
                             ids=[s for s, _ in CORPUS])
    def test_corpus_line(self, parser, sentence, expect):
        result = parser.parse(sentence)
        if expect == "*":
            assert not result.grammatical
        else:
            assert result.grammatical
            if expect.isdigit():
                assert len(result.readings) == int(expect)

    @pytest.mark.parametrize("sentence,counts", sorted(AMBIGUITY.items()))
    def test_frozen_counts(self, parser, sentence, counts):
        result = parser.parse(sentence)
        assert (len(result.derivations), len(result.readings)) == counts

    @pytest.mark.parametrize("sentence", list(AMBIGUITY))
    def test_readings_in_first_occurrence_order(self, parser, sentence):
        result = parser.parse(sentence)
        first: list = []
        for d in result.derivations:
            if d.reading not in first:
                first.append(d.reading)
        assert result.readings == first

    def test_repeated_adverb_collapses_readings(self, parser):
        result = parser.parse("dat arie vandaag vandaag bob wil kussen")
        assert (len(result.derivations), len(result.readings)) == (4, 3)

    def test_equal_readings_share_one_tuple_and_text(self, parser,
                                                      monkeypatch):
        texts = []
        real = clgram.parser.canonical_text
        monkeypatch.setattr(clgram.parser, "canonical_text",
                            lambda c: texts.append(c) or real(c))
        result = parser.parse("dat arie bob vandaag toevallig wil kussen")
        assert (len(result.derivations), len(texts)) == (7, 4)
        first = {}
        for d in result.derivations:
            f = first.setdefault(d.reading, d)
            assert d.reading is f.reading and d.reading_text is f.reading_text
        assert len(first) == 4


class TestScope:
    KISS = _sem_obj(_soa("kiss_soa", {"kisser": _sem_index("arie"),
                                      "kissed": _sem_index("bob")}), ("nil",))

    def want(self, inner):
        return _sem_obj(_soa("want_soa", {"arg1": _sem_index("arie"),
                                          "soa_arg": inner}), ("nil",))

    def test_narrow_and_wide_attachment(self, parser):
        result = parser.parse("dat arie bob vandaag wil kussen")
        narrow = [d for d in result.derivations if adverb_sharing(d) == (1, 1)]
        wide = [d for d in result.derivations if adverb_sharing(d) == (1, 0)]
        assert len(narrow) == 1 and len(wide) == 2
        # narrow scope: the adverbial node is one single object sitting in
        # both the matrix list and the embedded list, and it restricts the
        # embedded relation
        assert narrow[0].reading == self.want(
            _wrap_restr("vandaag_rel", self.KISS))
        # wide scope: both remaining derivations express the same reading,
        # the restriction on the matrix relation
        assert {d.reading for d in wide} == \
            {_wrap_restr("vandaag_rel", self.want(self.KISS))}
        assert set(result.readings) == {narrow[0].reading, wide[0].reading}

    def test_order_before_object_same_pair(self, parser):
        result = parser.parse("dat arie vandaag bob wil slaan")
        assert len(result.derivations) == 2
        pairs = sorted(adverb_sharing(d) for d in result.derivations)
        assert pairs == [(1, 0), (1, 1)]

    def test_operator_nesting_follows_token_order(self, parser):
        result = parser.parse("dat arie toevallig blijkbaar wil slapen")
        sleep = _sem_obj(_soa("sleep_soa", {"sleeper": _sem_index("arie")}),
                         ("nil",))
        both_embedded = self.wrap_ops(["toevallig", "blijkbaar"], sleep)
        assert len(result.readings) == 4
        # both operators below the matrix verb: the earlier token outscopes
        # the later one
        assert self.want_sleep(both_embedded) in result.readings
        # both above it, same relative order
        assert self.wrap_ops(["toevallig", "blijkbaar"],
                             self.want_sleep(sleep)) in result.readings

    def wrap_ops(self, tokens, sem):
        soas = {"toevallig": "accidental_soa", "blijkbaar": "blijkbaar_soa"}
        for t in reversed(tokens):
            sem = _sem_obj(_soa(soas[t], {"soa_arg": sem}), ("nil",))
        return sem

    def want_sleep(self, inner):
        return _sem_obj(_soa("want_soa", {"arg1": _sem_index("arie"),
                                          "soa_arg": inner}), ("nil",))


class TestClusterStructure:
    def test_cluster_surface_order(self, parser):
        result = parser.parse("dat arie bob zou moeten kunnen willen kussen")
        (d,) = result.derivations
        assert d.cluster == ["zou", "moeten", "kunnen", "willen", "kussen"]
        assert cluster_expand(d.sign) == d.cluster

    def test_perception_cluster(self, parser):
        result = parser.parse(
            "dat arie bob de vrouwen met een verrekijker zag bekijken")
        assert all(d.cluster == ["zag", "bekijken"] for d in result.derivations)

    def test_every_other_token_is_one_member(self, parser):
        for sentence, expect in CORPUS:
            if expect == "*":
                continue
            result = parser.parse(sentence)
            for d in result.derivations:
                assert len(d.members) == len(result.tokens) - 1
                indices = sorted(m["token_index"] for m in d.members)
                assert indices == [i for i in range(len(result.tokens))
                                   if i != d.head_index]
                for m in d.members:
                    assert m["token"] == result.tokens[m["token_index"]]
                    assert m["lex"] == m["token"]

    def test_left_members_reverse_right_members_forward(self, parser):
        result = parser.parse("dat arie bob zou moeten kunnen willen kussen")
        (d,) = result.derivations
        lefts = [m for m in d.members if m["dir"] == "left"]
        rights = [m for m in d.members if m["dir"] == "right"]
        assert [m["token_index"] for m in lefts] == [1, 0]
        assert [m["token_index"] for m in rights] == [3, 4, 5, 6]


class TestOracleAgreement:
    def test_corpus_matches_reference(self, parser, lexicon):
        for sentence, _ in CORPUS:
            tokens, _ = lexicon.tokenize(sentence)
            want_count, want_readings = oracle_parse(lexicon, tokens)
            result = parser.parse(sentence)
            assert len(result.derivations) == want_count, sentence
            assert Counter(d.reading for d in result.derivations) == \
                want_readings, sentence


class TestInputHandling:
    def test_unknown_token(self, parser):
        with pytest.raises(UnknownTokensError) as exc:
            parser.parse("dat arie xyz wil slapen")
        assert exc.value.tokens == ["xyz"]

    def test_no_finite_verb(self, parser):
        with pytest.raises(NoFiniteVerbError):
            parser.parse("dat arie slapen")

    def test_only_complementizer(self, parser):
        with pytest.raises(NoFiniteVerbError):
            parser.parse("dat")

    def test_complementizer_optional(self, parser):
        with_dat = parser.parse("dat arie wil slapen")
        without = parser.parse("arie wil slapen")
        assert with_dat.had_complementizer
        assert not without.had_complementizer
        assert with_dat.readings == without.readings
        assert without.tokens == ["arie", "wil", "slapen"]

    def test_trailing_punctuation_stripped(self, parser):
        assert parser.parse("dat arie wil slapen.").grammatical
        assert parser.parse("Dat arie bob kust!").grammatical

    def test_multiword_units_joined(self, lexicon):
        tokens, had = lexicon.tokenize(
            "dat arie het artikel op tijd probeerde op te sturen")
        assert had
        assert tokens == ["arie", "het_artikel", "op_tijd", "probeerde",
                          "op_te_sturen"]

    def test_parse_is_deterministic(self, parser):
        a = parser.parse("dat arie bob vandaag toevallig wil kussen")
        b = parser.parse("dat arie bob vandaag toevallig wil kussen")
        assert a.readings == b.readings
        assert [d.reading_text for d in a.derivations] == \
            [d.reading_text for d in b.derivations]


@pytest.fixture
def engines(monkeypatch):
    """Records every Engine the parser builds (one per parse attempt)."""
    made = []
    real = clgram.parser.Engine

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(clgram.parser, "Engine", counting)
    return made


class TestAttempts:
    # the subcat list holds every token but the head, so its length is
    # fixed by the sentence and each finite head is tried once
    @pytest.mark.parametrize("sentence", [
        "dat arie bob kust",
        "dat arie bob vandaag toevallig wil kussen",
    ])
    def test_one_engine_per_finite_head(self, parser, engines, sentence):
        assert parser.parse(sentence).grammatical
        assert len(engines) == 1


LONG_ATTEMPT = ("dat arie bob vandaag toevallig blijkbaar op tijd "
                "met een verrekijker wil kunnen kussen")


class TestResourceBounds:
    def test_subcat_length_cap(self, program, lexicon, engines):
        capped = Parser(program, lexicon, max_sc_length=3)
        assert capped.parse("dat arie wil slapen").grammatical
        long = "dat arie bob zou moeten kunnen willen kussen"
        assert not capped.parse(long).grammatical
        assert len(engines) == 1     # the over-long sentence is never tried

    def test_step_budget_exhaustion_is_an_error(self, program, lexicon):
        tiny = Parser(program, lexicon, max_depth=3)
        with pytest.raises(LimitExceededError):
            tiny.parse("dat arie bob kust")

    def test_step_budget_bounds_a_whole_attempt(self, program, lexicon):
        # about 20k steps over 966 derivations, but no one answer takes
        # 5,000: the budget must count the attempt, not each answer
        bounded = Parser(program, lexicon, max_depth=5000)
        t0 = time.monotonic()
        with pytest.raises(LimitExceededError):
            bounded.parse(LONG_ATTEMPT)
        assert time.monotonic() - t0 < 10.0


def derivation_rows(result) -> list[tuple]:
    return [(d.head_index, d.reading_text,
             [(m["dir"], m["lex"], m["token_index"]) for m in d.members],
             d.cluster) for d in result.derivations]


# sha256 over the corpus derivations in order, taken before word entries
# were tabled
CORPUS_DIGEST = {
    False: "37f85317a88b8eadfed1f42c53674ffbbc5aebf7790fef36b77ddb2211441359",
    True: "3a1908f21894e6881d82db25a91921ae66733439183dbcd43ea04b41db2f8b0a",
}


class TestEntryTable:
    """Each word's entry is derived once per Program and matched from the
    table after that; no derivation may change or move."""

    @pytest.mark.parametrize("slash", [False, True], ids=["slash_off", "slash_on"])
    def test_corpus_derivations_pinned(self, slash):
        parser = Parser(*build_program(enable_slash=slash))
        digest = hashlib.sha256()
        for sentence, _ in CORPUS:
            for d in parser.parse(sentence).derivations:
                digest.update(repr((d.head_index, d.reading_text,
                                    [m["token_index"] for m in d.members],
                                    d.cluster)).encode())
        assert digest.hexdigest() == CORPUS_DIGEST[slash]

    def test_entry_derived_only_on_first_sight(self):
        calls = []

        def trace(event, store):
            if event[0] == "call":
                calls.append(event[1].name)
        parser = Parser(*build_program(), trace=trace)
        first = parser.parse("dat arie bob vandaag wil kussen")
        derived = calls.count("lexical_entry")
        calls.clear()
        again = parser.parse("dat arie bob vandaag wil kussen")
        assert derived == 2       # finite wil, nonfinite kussen
        assert calls.count("lexical_entry") == 0
        assert derivation_rows(again) == derivation_rows(first)

    def test_loading_clauses_drops_the_table(self):
        sentences = ["dat arie wil slaan", "dat arie bob kust",
                     "dat arie bob vandaag wil kussen"]
        program, lexicon = build_program()
        parser = Parser(program, lexicon)
        before = [derivation_rows(parser.parse(s)) for s in sentences]
        program.load("slash_extraction(on).\n", "<slash>")
        after = [derivation_rows(parser.parse(s)) for s in sentences]
        fresh = Parser(*build_program(enable_slash=True))
        assert after == [derivation_rows(fresh.parse(s)) for s in sentences]
        assert after != before

    def test_tabling_a_word_extends_its_candidates(self):
        program, _ = build_program()
        engine = Engine(program)
        store = engine.store
        key = ("tabled_entry", 3)

        def candidates(word):
            return program.candidates(key, store, (Atom(word), Var(), Var()))
        held = []
        for word, form in (("kussen", "finite"), ("slapen", "finite"),
                           ("kussen", "nonfinite")):
            assert engine.table((ENTRY, Atom(word), Atom(form)), Struct(
                "lexical_entry", (Atom(word), Atom(form), Var("E")))) is not None
            every = program.candidates(key, store, ())
            for w in ("kussen", "slapen"):       # as a fresh scan gives them
                assert candidates(w) == (every if len(every) <= 1 else [
                    c for c in every if c.index_key in (None, ("atom", w))])
            held.append((candidates("kussen"), list(candidates("kussen"))))
        (_, finite), (second, copy), (third, both) = held
        assert second == copy == finite     # a list handed out never changes
        assert len(third) > len(second) and third[:len(second)] == second

    def test_parsers_share_one_table(self, program, lexicon):
        sentence = "dat arie bob vandaag toevallig wil kussen"
        for prog, lex in ((program, lexicon), build_program()):
            first = Parser(prog, lex).parse(sentence)
            second = Parser(prog, lex).parse(sentence)
            assert len(second.derivations) == AMBIGUITY[sentence][0]
            assert derivation_rows(second) == derivation_rows(first)


def frames(program, word: str, n: int) -> list:
    """The frames kept for `word` with `n` members: its answers with no
    residue."""
    return [a for a in program.table[FRAME, Atom(word), Atom("finite"), n]
            if not a.body]


class TestFrameTable:
    """A finite head's entry phase is solved once per Program and subcat
    length; each attempt runs only the match phase over the kept frames."""

    def test_entry_phase_only_on_first_sight(self):
        solved = []

        def trace(event, store):
            goal = event[1]
            if (event[0] == "call" and goal.name == "tabled_entry"
                    and goal.args[1] == Atom("finite")):
                solved.append(goal.args[0].name)
        program, lexicon = build_program()
        parser = Parser(program, lexicon, trace=trace)
        runs = []
        for sentence in ("dat arie bob wil kussen",    # wil, 3 members
                         "dat bob arie wil kussen",    # wil, 3 again
                         "dat arie wil slapen"):       # wil, 2 members
            solved.clear()
            result = parser.parse(sentence)
            runs.append(list(solved))
            assert derivation_rows(result) == \
                derivation_rows(Parser(*build_program()).parse(sentence))
        assert runs == [["wil"], [], ["wil"]]
        assert {key[1:] for key in program.table if key[0] == FRAME} == \
            {(Atom("wil"), Atom("finite"), n) for n in (3, 2)}

    def test_cut_off_frame_solve_records_nothing(self):
        program, lexicon = build_program()
        Parser(program, lexicon).parse("dat arie bob vandaag wil kussen")
        sentence = "dat arie vandaag wil kussen"   # every word tabled
        with pytest.raises(LimitExceededError, match="entry of 'wil'"):
            Parser(program, lexicon, max_depth=3).parse(sentence)
        assert (FRAME, Atom("wil"), Atom("finite"), 3) not in program.table
        full = Parser(program, lexicon).parse(sentence)
        assert derivation_rows(full) == \
            derivation_rows(Parser(*build_program()).parse(sentence))

    def test_budget_spans_frames(self):
        program, lexicon = build_program()
        assert len(Parser(program, lexicon).parse(LONG_ATTEMPT).derivations) \
            == 966
        assert len(frames(program, "wil", 9)) == 255
        # no one frame's match phase takes 5,000 steps; together they do
        with pytest.raises(LimitExceededError, match="head 'wil'"):
            Parser(program, lexicon, max_depth=5000).parse(LONG_ATTEMPT)


def frame_forms(program) -> dict:
    """The canonical form of every tabled frame answer, by table key."""
    return {key: [canonical(a.head) for a in answers]
            for key, answers in program.table.items() if key[0] == FRAME}


class Stop(Exception):
    """Raised by a trace hook to end a parse."""


def is_match_call(event) -> bool:
    """Whether a trace event is a call of the match phase."""
    goal = event[1]
    return event[0] == "call" and (
        goal.name in ("tabled_dependent", "tabled_cluster") or (
            goal.name == "tabled_entry" and goal.args[1] == Atom("nonfinite")))


def stop_at(n: int):
    """A trace hook that raises Stop at the match phase's nth call."""
    seen = []

    def hook(event, store):
        if is_match_call(event):
            seen.append(event)
            if len(seen) == n:
                raise Stop
    return hook


def tabled(sentence: str):
    """A Program whose table holds the entries and frames `sentence`
    needs, made without running its match phase."""
    program, lexicon = build_program()
    with pytest.raises(Stop):
        Parser(program, lexicon, trace=stop_at(1)).parse(sentence)
    assert any(key[0] == FRAME for key in program.table)
    return program, lexicon


class TestFramesInPlace:
    """The match phase pairs each tabled frame in place; the trail brings
    every frame back as it was tabled after a parse, after an attempt cut
    off by the step budget, and after a parse that raises mid-match."""

    @pytest.mark.parametrize("sentence", [
        "dat arie bob vandaag toevallig wil kussen",
        "dat arie bob de vrouwen met een verrekijker zag bekijken",
        LONG_ATTEMPT])
    def test_after_a_parse(self, sentence):
        program, lexicon = tabled(sentence)
        before = frame_forms(program)
        result = Parser(program, lexicon).parse(sentence)
        assert frame_forms(program) == before
        assert derivation_rows(result) == \
            derivation_rows(Parser(*build_program()).parse(sentence))

    def test_after_a_cut_off_attempt(self):
        program, lexicon = tabled(LONG_ATTEMPT)
        before = frame_forms(program)
        with pytest.raises(LimitExceededError, match="head 'wil'"):
            Parser(program, lexicon, max_depth=5000).parse(LONG_ATTEMPT)
        assert frame_forms(program) == before

    def test_after_a_parse_that_raises(self):
        sentence = "dat arie bob vandaag toevallig wil kussen"
        parser = Parser(*build_program())
        parser.parse(sentence)
        counted = []
        parser.trace = lambda event, store: counted.append(is_match_call(event))
        parser.parse(sentence)
        program, lexicon = tabled(sentence)
        before = frame_forms(program)
        with pytest.raises(Stop):
            Parser(program, lexicon, trace=stop_at(sum(counted) // 2)).parse(sentence)
        assert frame_forms(program) == before


def warm_calls(parser: Parser, sentences: list[str]) -> Counter:
    """The calls per predicate of a pass over `sentences` after a first
    one, read with the trace hook."""
    for sentence in sentences:
        parser.parse(sentence)
    calls: Counter = Counter()

    def trace(event, store):
        if event[0] == "call":
            calls[event[1].name] += 1
    parser.trace = trace
    for sentence in sentences:
        parser.parse(sentence)
    parser.trace = None
    return calls


def outputs(parser: Parser, sentence: str) -> tuple[list, list]:
    """The rows and the rendered signs of a parse of `sentence`."""
    result = parser.parse(sentence)
    return derivation_rows(result), [render(d.sign, "avm") for d in result.derivations]


@pytest.fixture
def residue_path(monkeypatch):
    """Every cluster verb pairs by its entry and residue, as if no answer
    for (word, n) could be used."""
    monkeypatch.setattr(clgram.parser, "_cluster_answers", lambda engine, goal: None)


class TestClusterTable:
    """A cluster verb whose member's subcat list is known, with nothing
    suspended, pairs through its answers for (word, n), solved once per
    Program; any other pairing runs the verb's entry and its residue.
    Either way the rows and signs are the same."""

    def test_one_verb_cluster_is_tabled(self, request):
        sentence = "dat arie bob wil kussen"
        program, lexicon = build_program()
        parser = Parser(program, lexicon)
        calls = warm_calls(parser, [sentence])
        assert (CLUSTER, Atom("kussen"), Atom("nonfinite"), 1) in program.table
        assert calls["tabled_cluster"] == 1 and calls["add_adj"] == 0
        got = outputs(parser, sentence)
        request.getfixturevalue("residue_path")
        assert outputs(Parser(*build_program()), sentence) == got

    @pytest.mark.parametrize("sentence,slash", [
        ("dat arie vandaag bob wil kunnen kussen", False),
        ("dat arie bob wil kussen", True),
        ("dat arie bob vandaag toevallig wil kussen", True)],
        ids=["two_aux", "slash_one_verb", "slash_adverbials"])
    def test_other_pairings_run_the_residue(self, request, sentence, slash):
        program, lexicon = build_program(enable_slash=slash)
        parser = Parser(program, lexicon)
        calls = warm_calls(parser, [sentence])
        assert calls["tabled_cluster"] == 0 and calls["add_adj"] > 0
        kept = [answers for key, answers in program.table.items()
                if key[0] == CLUSTER]
        # solved only with extraction on, where some answer carries a slash
        assert bool(kept) == slash
        assert all(any(a.head.args[-1].feats["slash"] is not NIL
                       for a in answers) for answers in kept)
        got = outputs(parser, sentence)
        request.getfixturevalue("residue_path")
        assert outputs(Parser(*build_program(enable_slash=slash)), sentence) == got

    def test_each_condition_falls_back(self):
        program, _ = build_program()
        engine = Engine(program)
        kussen, nonfinite = Atom("kussen"), Atom("nonfinite")
        engine.table((ENTRY, kussen, nonfinite), entry_goal("kussen", "nonfinite"))
        sign = program.sorts.get("sign")

        def answers(member):
            return clgram.parser._cluster_answers(
                engine, Struct("tabled_entry", (kussen, nonfinite, member)))
        assert answers(Var()) is None and answers(Avm(sign, {})) is None
        assert answers(Avm(sign, {"sc": ListCons(Var(), Var())})) is None
        assert not any(key[0] == CLUSTER for key in program.table)
        one = answers(Avm(sign, {"sc": ListCons(Var(), NIL)}))
        assert len(one) == 1 and one is program.table[CLUSTER, kussen, nonfinite, 1]
        engine.store.suspend_goal(Struct("zz", (Var(),)), [Var()])
        assert answers(Avm(sign, {"sc": ListCons(Var(), NIL)})) is None

    def test_cut_off_cluster_solve_records_nothing(self):
        sentence = "dat arie bob vandaag toevallig wil kussen"
        program, lexicon = tabled(sentence)
        assert not any(key[0] == CLUSTER for key in program.table)
        with pytest.raises(LimitExceededError, match="entry of 'kussen'"):
            Parser(program, lexicon, max_depth=10).parse(sentence)
        assert not any(key[0] == CLUSTER for key in program.table)
        full = Parser(program, lexicon).parse(sentence)
        assert derivation_rows(full) == \
            derivation_rows(Parser(*build_program()).parse(sentence))


class TestCallCounts:
    """The calls per predicate of a warm pass, pinned: a change that adds
    calls fails here by count, whatever the wall clock says."""

    def test_corpus(self):
        calls = warm_calls(Parser(*build_program()), [s for s, _ in CORPUS])
        assert calls == {"tabled_dependent": 87, "tabled_entry": 19,
                         "tabled_cluster": 22, "add_adj": 33}

    def test_three_adverbials_over_four_verbs(self):
        calls = warm_calls(Parser(*build_program()), [ADVERBIAL_SERIES[3]])
        assert calls == {"tabled_dependent": 1177, "tabled_entry": 1160,
                         "add_adj": 14386}


class TestSignsOnDemand:
    """A parse resolves one sign per distinct reading; any other
    derivation's sign replays its head's attempt on first use."""

    SENTENCE = "dat arie bob vandaag toevallig wil kussen"   # 7 derivations, 4 readings

    def test_one_resolve_per_reading(self, monkeypatch):
        parser = Parser(*build_program())
        parser.parse(self.SENTENCE)
        resolved = []
        real = clgram.parser.resolve

        def counting(*args, **kwargs):
            resolved.append(args[1])
            return real(*args, **kwargs)
        monkeypatch.setattr(clgram.parser, "resolve", counting)
        result = parser.parse(self.SENTENCE)
        assert (len(result.derivations), len(result.readings)) == (7, 4)
        assert len(resolved) == 4

    @staticmethod
    def split(result) -> tuple[dict, list]:
        """The first derivation of each reading, and the others."""
        firsts = {}
        for d in result.derivations:
            firsts.setdefault(d.reading, d)
        return firsts, [d for d in result.derivations if firsts[d.reading] is not d]

    def test_a_repeated_reading_replays_once(self, engines):
        result = Parser(*build_program()).parse(self.SENTENCE)
        firsts, repeated = self.split(result)
        kept = [d.sign for d in firsts.values()]
        assert len(repeated) == 3 and len(engines) == 1
        signs = [d.sign for d in repeated]
        assert len(engines) == 2        # one replay for the head's attempt
        assert all(d.sign is s for d, s in zip(repeated, signs))
        assert all(d.sign is s for d, s in zip(firsts.values(), kept))
        assert len(engines) == 2
        for d in repeated:
            assert canonical(d.sign.feats["sem"]) == d.reading
            assert cluster_expand(d.sign) == d.cluster

    def test_replay_is_untraced(self):
        events = []
        parser = Parser(*build_program(),
                        trace=lambda event, store: events.append(event))
        result = parser.parse(self.SENTENCE)
        n = len(events)
        assert n and all(d.sign is not None for d in result.derivations)
        assert len(events) == n

    def test_a_parse_leaves_no_reference_cycle(self):
        # made cold, so the lexicon clauses and tables are made in the parse
        parser = Parser(*build_program())
        gc.collect()
        gc.disable()
        try:
            result = parser.parse(self.SENTENCE)
            for d in result.derivations:
                assert d.sign is not None
            del result, d
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_sign_after_a_load_is_an_error(self):
        program, lexicon = build_program()
        result = Parser(program, lexicon).parse(self.SENTENCE)
        firsts, (second, *_) = self.split(result)
        first = firsts[second.reading]
        program.load("zz_fact(a).\n", "<zz>")
        assert first.sign is not None       # resolved by the parse
        with pytest.raises(StaleParseError):
            second.sign
        assert issubclass(StaleParseError, ClgramError)


def entry_goal(word: str, form: str) -> Struct:
    return Struct("lexical_entry", (Atom(word), Atom(form), Var("E")))


class TestAnswerTable:
    """`Engine.table` keeps each goal's answers once per Program, under a
    key that tells a word's entry per form apart from a head's frames per
    subcat length; loading source empties the table."""

    def test_a_hit_returns_the_list_the_miss_filled(self):
        program, _ = build_program()
        key = (ENTRY, Atom("kussen"), Atom("nonfinite"))
        first = Engine(program).table(key, entry_goal("kussen", "nonfinite"))
        assert first and program.table[key] is first
        calls = []
        engine = Engine(program, trace=lambda event, store: calls.append(event))
        assert engine.table(key, entry_goal("kussen", "nonfinite")) is first
        assert calls == []

    def test_a_cut_off_solve_records_nothing(self):
        program, _ = build_program()
        key = (ENTRY, Atom("kussen"), Atom("nonfinite"))
        assert Engine(program, max_depth=3).table(
            key, entry_goal("kussen", "nonfinite")) is None
        assert program.table == {}
        assert not program.defines(*ENTRY)
        full = Engine(program).table(key, entry_goal("kussen", "nonfinite"))
        assert full and program.table == {key: full}
        store = Engine(program).store
        assert program.candidates(ENTRY, store, (Atom("kussen"), Var(), Var())) \
            == full

    def test_frames_per_subcat_length_are_kept_apart(self):
        program, lexicon = build_program()
        parser = Parser(program, lexicon)
        wil, finite = Atom("wil"), Atom("finite")
        parser.parse("dat arie wil slapen")
        two = program.table[FRAME, wil, finite, 2]
        parser.parse("dat arie bob wil kussen")
        three = program.table[FRAME, wil, finite, 3]
        assert program.table[FRAME, wil, finite, 2] is two
        assert len(two) == 1 and len(three) == 3
        for n, answers in ((2, two), (3, three)):
            for a in answers:
                assert a.head.args[:2] == (Atom("wil"), Atom("finite"))
                assert len(items(a.head.args[2].feats["sc"])) == n
        entries = program.table[ENTRY, wil, finite]
        assert not set(map(id, entries)) & set(map(id, two + three))

    def test_loading_source_empties_the_table(self):
        program, lexicon = build_program()
        Parser(program, lexicon).parse("dat arie bob vandaag wil kussen")
        assert {key[0] for key in program.table} == {ENTRY, DEPENDENT, FRAME, CLUSTER}
        program.load("zz_fact(a).\n", "<zz>")
        assert program.table == {}
        store = Engine(program).store
        for pred, word in ((ENTRY, "wil"), (DEPENDENT, "arie"), (FRAME, "wil"),
                           (CLUSTER, "kussen")):
            args = (Atom(word),) + tuple(Var() for _ in range(pred[1] - 1))
            assert program.candidates(pred, store, ()) == []
            assert program.candidates(pred, store, args) == []


# `bench/gen.py`'s scope sentences for seeds 101-105, written out so that
# the pin below does not move when the benchmark's generator does
SCOPE_SENTENCES = [
    "dat boeken blijkbaar probeerde slapen",
    "dat bob blijkbaar de vrouwen probeerde kussen",
    "dat arie met een verrekijker probeerde kunnen slapen",
    "dat bob met een verrekijker blijkbaar wil slapen",
    "dat cadeautjes op tijd de vrouwen wil willen bekijken",
    "dat boeken op tijd met een verrekijker cadeautjes wil bekijken",
    "dat bob met een verrekijker vandaag blijkbaar probeerde slapen",
    "dat de vrouwen met een verrekijker toevallig zou moeten slapen",
    "dat het artikel toevallig blijkbaar op tijd arie probeerde bekijken",
    "dat cadeautjes toevallig met een verrekijker boeken wil kunnen kussen",
    "dat bob met een verrekijker vandaag cadeautjes probeerde willen slaan",
    "dat bob vandaag wil slapen",
    "dat arie vandaag de vrouwen wil slaan",
    "dat cadeautjes toevallig wil willen slapen",
    "dat het artikel toevallig blijkbaar wil slapen",
    "dat bob op tijd het artikel zou kunnen slaan",
    "dat bob op tijd met een verrekijker arie zou bekijken",
    "dat bob vandaag blijkbaar op tijd probeerde slapen",
    "dat de vrouwen vandaag toevallig probeerde moeten slapen",
    "dat bob met een verrekijker toevallig vandaag de vrouwen probeerde bekijken",
    "dat bob toevallig met een verrekijker cadeautjes probeerde kunnen slaan",
    "dat de vrouwen op tijd vandaag bob wil moeten bekijken",
    "dat cadeautjes met een verrekijker zou slapen",
    "dat bob blijkbaar arie probeerde slaan",
    "dat boeken blijkbaar wil moeten slapen",
    "dat boeken toevallig blijkbaar wil slapen",
    "dat cadeautjes met een verrekijker de vrouwen wil moeten bekijken",
    "dat bob blijkbaar op tijd cadeautjes probeerde kussen",
    "dat boeken toevallig blijkbaar met een verrekijker probeerde slapen",
    "dat cadeautjes vandaag met een verrekijker zou moeten slapen",
    "dat het artikel vandaag blijkbaar toevallig arie probeerde kussen",
    "dat de vrouwen vandaag blijkbaar arie probeerde moeten slaan",
    "dat arie toevallig met een verrekijker cadeautjes zou willen bekijken",
    "dat boeken met een verrekijker zou slapen",
    "dat cadeautjes toevallig het artikel probeerde kussen",
    "dat de vrouwen blijkbaar zou moeten slapen",
    "dat arie met een verrekijker op tijd wil slapen",
    "dat het artikel met een verrekijker de vrouwen probeerde willen kussen",
    "dat arie met een verrekijker op tijd cadeautjes zou bekijken",
    "dat de vrouwen blijkbaar vandaag met een verrekijker zou slapen",
    "dat arie toevallig met een verrekijker zou willen slapen",
    "dat cadeautjes op tijd met een verrekijker vandaag het artikel wil bekijken",
    "dat cadeautjes blijkbaar vandaag bob wil willen kussen",
    "dat cadeautjes blijkbaar op tijd arie zou kunnen kussen",
    "dat het artikel blijkbaar wil slapen",
    "dat boeken blijkbaar arie zou kussen",
    "dat arie met een verrekijker probeerde kunnen slapen",
    "dat arie vandaag met een verrekijker zou slapen",
    "dat cadeautjes vandaag arie zou moeten slaan",
    "dat cadeautjes vandaag toevallig bob probeerde kussen",
    "dat arie vandaag blijkbaar op tijd zou slapen",
    "dat boeken vandaag toevallig probeerde kunnen slapen",
    "dat de vrouwen met een verrekijker vandaag toevallig cadeautjes zou bekijken",
    "dat bob op tijd blijkbaar arie probeerde willen kussen",
    "dat cadeautjes blijkbaar toevallig arie zou moeten kussen",
]

# dat arie bob <k adverbials> zou moeten kunnen willen kussen, k = 0..3
ADVERBIAL_SERIES = [
    " ".join(["dat arie bob", *["vandaag", "toevallig", "blijkbaar"][:k],
              "zou moeten kunnen willen kussen"])
    for k in range(4)]

PINNED = SCOPE_SENTENCES + ADVERBIAL_SERIES + [LONG_ATTEMPT]

# sha256 over the rows of PINNED, slash off, taken before the match phase
# was driven from the parser
PINNED_DIGEST = \
    "4bc0f91e07ce1a6e32fabe3448523525fd4a03e2354593afa5cacc63bac33773"


# sha256 over `render(d.sign, "avm")` of every derivation in order, taken
# while every derivation's sign was resolved as the parse found it
SIGN_DIGEST = {
    "pinned_slash_off":
        "a10ae5f6ccbc690c18184c4e422a18afe6453b52a09a3bcf64bb97aa1c9e1277",
    "corpus_slash_on":
        "d3f6379d54516f98f1eb7afb20f009f3f988e7c36841a51b221fa76f62505e88",
}


@pytest.fixture(scope="module")
def pinned_rows():
    parser = Parser(*build_program())
    return [derivation_rows(parser.parse(s)) for s in PINNED]


class TestDerivationPin:
    """How answers are found may change; the derivations and their order
    may not."""

    def test_rows_pinned(self, pinned_rows):
        digest = hashlib.sha256(repr(pinned_rows).encode()).hexdigest()
        assert digest == PINNED_DIGEST

    def test_warmed_parser_gives_the_same_rows(self, pinned_rows):
        # reversed, each sentence meets other tables than in the forward
        # pass; the first parse of either pass meets none
        parser = Parser(*build_program())
        backwards = [derivation_rows(parser.parse(s)) for s in reversed(PINNED)]
        assert backwards[::-1] == pinned_rows

    @pytest.mark.parametrize("name,sentences,slash", [
        ("pinned_slash_off", PINNED, False),
        ("corpus_slash_on", [s for s, _ in CORPUS], True)],
        ids=["pinned_slash_off", "corpus_slash_on"])
    def test_signs_pinned(self, name, sentences, slash):
        parser = Parser(*build_program(enable_slash=slash))
        digest = hashlib.sha256()
        for sentence in sentences:
            for d in parser.parse(sentence).derivations:
                digest.update(render(d.sign, "avm").encode() + b"\0")
        assert digest.hexdigest() == SIGN_DIGEST[name]


def acceptance_sentences() -> list[str]:
    """The seeded scope sentences of acceptance criterion 7."""
    rng = random.Random(20260818)
    advs = ["vandaag", "op tijd", "met een verrekijker", "toevallig",
            "blijkbaar"]
    auxes = ["wil", "zou", "probeerde"]
    out = []
    for _ in range(100):
        chosen = rng.sample(advs, rng.randint(0, 4))
        middle = " ".join(chosen) + (" " if chosen else "")
        out.append(f"dat arie {middle}bob {rng.choice(auxes)} kussen")
    return out


class Answers:
    """The sort table's verdict on each frame, and for each derivation the
    verdict of the frame it came from.  A frame's table is built once per
    index key, before any frame of the key is paired, so each member list
    maps to its verdict.  With `skip` off every frame goes on to the
    match phase, under a table that allows every pairing."""

    def __init__(self):
        self.verdicts: list[bool] = []
        self.origin: list[int] = []
        self.skip = True
        # id of each member list -> (the list, the index of its verdict)
        self.verdict_of: dict[int, tuple] = {}
        self.pairing = -1       # the verdict index of the frame being paired


def every_pairing(n: int, nl: int, nr: int) -> list[list[int]]:
    """A table for n members, nl left and nr right tokens that allows every
    pairing the token counts allow."""
    return [[(LEFT if i < nl else 0) | (RIGHT if k - i < nr else 0)
             for i in range(nl + 1)] for k in range(n)] + [[0] * nl + [1]]


@pytest.fixture
def answers(monkeypatch):
    seen = Answers()
    real_table = clgram.parser._pairings
    real_pair = clgram.parser._pair
    real_extract = Parser._extract

    def table(sorts, members, left, right):
        pairings = real_table(sorts, members, left, right)
        seen.verdict_of[id(members)] = (members, len(seen.verdicts))
        seen.verdicts.append(bool(pairings[0][0]))
        if seen.skip:
            return pairings
        return every_pairing(len(members), len(left), len(right))

    def pair(engine, table, members, lefts, rights):
        seen.pairing = seen.verdict_of[id(members)][1]
        return real_pair(engine, table, members, lefts, rights)

    def extract(self, *args):
        seen.origin.append(seen.pairing)
        return real_extract(self, *args)
    monkeypatch.setattr(clgram.parser, "_pairings", table)
    monkeypatch.setattr(clgram.parser, "_pair", pair)
    monkeypatch.setattr(Parser, "_extract", extract)
    return seen


class TestSortCheck:
    """Entry answers whose members no token order can match by sort are
    skipped before the match phase, the match phase tries only the
    pairings the sort table allows, and nothing else changes."""

    @pytest.mark.parametrize("slash", [False, True], ids=["slash_off", "slash_on"])
    def test_skips_only_answers_that_derive_nothing(self, slash, answers):
        parser = Parser(*build_program(enable_slash=slash))
        sentences = ([s for s, _ in CORPUS] + acceptance_sentences()
                     + SCOPE_SENTENCES[:11])      # seed 101
        checked = [derivation_rows(parser.parse(s)) for s in sentences]
        answers.verdicts.clear()
        answers.origin.clear()
        answers.skip = False
        # a fresh Program, whose frame index holds no table of the pass above
        parser = Parser(*build_program(enable_slash=slash))
        unchecked = [derivation_rows(parser.parse(s)) for s in sentences]
        assert answers.verdicts.count(False) > 0
        assert all(answers.verdicts[i] for i in answers.origin)
        assert unchecked == checked

    def test_pinned_verdicts(self, answers):
        parser = Parser(*build_program())
        result = parser.parse("dat arie vandaag toevallig bob wil kussen")
        assert (answers.verdicts.count(True), answers.verdicts.count(False)) \
            == (4, 11)
        passed = [i for i, v in enumerate(answers.verdicts) if v]
        assert sorted(set(answers.origin)) == passed
        assert len(result.derivations) == len(answers.origin)
        answers.verdicts.clear()
        assert not parser.parse("dat wil arie slapen").grammatical
        assert answers.verdicts == [False]


class TestFrameIndex:
    """A Program keeps the frames that pass the sort table per (head word,
    n, token answer sorts), so an attempt under a key seen before builds
    no table; loading source drops the index with the frames.  Each
    `_pairings` call adds one verdict to `answers`."""

    def test_a_warm_corpus_pass_builds_no_table(self, answers):
        parser = Parser(*build_program())
        passes, calls = [], []
        for _ in range(2):
            answers.verdicts.clear()
            passes.append([derivation_rows(parser.parse(s)) for s, _ in CORPUS])
            calls.append(len(answers.verdicts))
        assert 0 < calls[0] <= 126 and calls[1] == 0
        assert passes[1] == passes[0]

    def test_other_words_of_the_same_sorts_share_a_key(self, answers):
        program, lexicon = build_program()
        parser = Parser(program, lexicon)
        parser.parse("dat arie vandaag bob zou kussen")
        keys = set(program.frame_index)
        answers.verdicts.clear()
        sentence = "dat cadeautjes op tijd boeken zou bekijken"
        result = parser.parse(sentence)
        assert answers.verdicts == [] and set(program.frame_index) == keys
        assert result.grammatical
        assert derivation_rows(result) == \
            derivation_rows(Parser(*build_program()).parse(sentence))

    def test_loading_source_drops_the_index(self, answers):
        program, lexicon = build_program()
        parser = Parser(program, lexicon)
        sentence = "dat arie bob vandaag wil kussen"
        first = parser.parse(sentence)
        built = len(answers.verdicts)
        assert built and program.frame_index
        program.load("zz_fact(a).\n", "<zz>")
        assert program.frame_index == {}
        answers.verdicts.clear()
        assert derivation_rows(parser.parse(sentence)) == derivation_rows(first)
        assert len(answers.verdicts) == built


# Surface words of the packaged lexicon for the harness below; a spaced
# surface is one token once tokenized.
NOUNS = ["arie", "bob", "cadeautjes", "boeken", "het artikel", "de vrouwen",
         "de voorstelling", "een uur"]
ADVERBIALS = ["vandaag", "op tijd", "met een verrekijker", "toevallig",
              "blijkbaar"]
FINITE_AUX = {"wil": 0, "zou": 0, "probeerde": 0, "zag": 1}  # -> own nouns
FINITE_MAIN = {"slaapt": 1, "slaat": 2, "kust": 2, "geeft": 3,
               "bekijkt": 2, "duurt": 2}                     # -> nouns
NONFINITE_AUX = ["willen", "kunnen", "moeten"]
NONFINITE_MAIN = {"slapen": 0, "slaan": 1, "kussen": 1, "geven": 2,
                  "bekijken": 1, "op te sturen": 1, "duren": 1}  # -> objects


@st.composite
def harness_sentences(draw) -> str:
    """A sentence of at most 9 tokens: nouns and 0-3 adverbials left of a
    finite verb and 0-3 nonfinite verbs.  Mostly a well-formed cluster
    with the nouns its verbs want; sometimes one noun more or less, a
    random cluster, scrambled order or no finite verb at all."""
    head = draw(st.sampled_from([*FINITE_AUX, *FINITE_MAIN]))
    if head in FINITE_MAIN:
        cluster, nouns = [], FINITE_MAIN[head]
    else:
        main = draw(st.sampled_from(sorted(NONFINITE_MAIN)))
        cluster = draw(st.lists(st.sampled_from(NONFINITE_AUX), max_size=2)) + [main]
        nouns = 1 + FINITE_AUX[head] + NONFINITE_MAIN[main]
    if draw(st.integers(0, 4)) == 4:
        cluster = draw(st.lists(st.sampled_from([*NONFINITE_AUX, *NONFINITE_MAIN]),
                                max_size=3))
    nouns = max(1, nouns + draw(st.sampled_from([0, 0, 0, -1, 1])))
    left = draw(st.lists(st.sampled_from(NOUNS), min_size=nouns, max_size=nouns,
                         unique=True))
    for adv in draw(st.lists(st.sampled_from(ADVERBIALS), max_size=3)):
        left.insert(draw(st.integers(1, len(left))), adv)
    if draw(st.integers(0, 9)) == 9:
        head = draw(st.sampled_from(NONFINITE_AUX))
    words = left + [head] + cluster
    assume(len(words) <= 9)
    if draw(st.integers(0, 3)) == 3:
        words = draw(st.permutations(words))
    return "dat " + " ".join(words)


def ground(c: tuple) -> bool:
    """Whether a canonical form holds no variable."""
    kind = c[0]
    if kind == "cons":
        return ground(c[1]) and ground(c[2])
    if kind == "struct":
        return all(map(ground, c[2]))
    if kind == "avm":
        return all(ground(v) for _, v in c[2])
    return kind != "var"


@pytest.fixture(scope="module")
def warmed():
    parser = Parser(*build_program())
    for sentence, _ in CORPUS:
        parser.parse(sentence)
    return parser


class TestDerivationHarness:
    """Drawn sentences, scrambled and of the wrong arity among them: the
    oracle's counts and readings, ground readings, typed errors, and the
    same rows from a fresh Program as from one warmed by other
    sentences."""

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(sentence=harness_sentences())
    def test_drawn_sentence(self, warmed, sentence):
        program, lexicon = build_program()
        try:
            fresh = Parser(program, lexicon).parse(sentence)
        except ClgramError as e:
            with pytest.raises(type(e)):
                warmed.parse(sentence)
            return
        tokens, _ = lexicon.tokenize(sentence)
        count, readings = oracle_parse(lexicon, tokens)
        assert len(fresh.derivations) == count
        assert Counter(d.reading for d in fresh.derivations) == readings
        assert all(ground(r) for r in fresh.readings)
        assert derivation_rows(warmed.parse(sentence)) == derivation_rows(fresh)


class TestRecordClasses:
    """The public record classes compare and print field by field, as
    dataclasses would: `==` wants the same class, an instance is not
    hashable, and a Derivation's private `_sign`, `_signs` and `_index`
    are left out of both."""

    def test_solver_records(self):
        sol = Solution({"X": Atom("a")}, [], 3)
        assert repr(sol) == "Solution(bindings={'X': Atom(a)}, residue=[], steps=3)"
        assert sol == Solution({"X": Atom("a")}, [], 3)
        assert sol != Solution({"X": Atom("b")}, [], 3)
        assert sol != Solution({"X": Atom("a")}, [], 4)
        assert repr(Truncated(7)) == "Truncated(steps=7)"
        assert Truncated(7) == Truncated(steps=7)
        assert Truncated(7) != Truncated(8)
        assert Truncated(7) != (7,)
        spec = BlockSpec("concat", 3, ((True, False, True),))
        assert repr(spec) == \
            "BlockSpec(name='concat', arity=3, patterns=((True, False, True),))"
        assert spec == BlockSpec(name="concat", arity=3, patterns=((True, False, True),))
        assert spec != BlockSpec("concat", 3, ((False, False, True),))
        assert spec != ("concat", 3, ((True, False, True),))
        spec.patterns += ((False, True, False),)
        assert spec.patterns == ((True, False, True), (False, True, False))
        for record in (sol, Truncated(7), spec):
            with pytest.raises(TypeError):
                hash(record)

    def test_parse_records(self):
        members = [{"dir": "left", "lex": "arie", "token": "arie", "token_index": 0}]
        row = (0, ("atom", "slaap"), "slaap", members, ["slaapt"])
        d = Derivation(*row)
        assert repr(d) == (
            "Derivation(head_index=0, reading=('atom', 'slaap'), reading_text='slaap', "
            "members=[{'dir': 'left', 'lex': 'arie', 'token': 'arie', 'token_index': 0}], "
            "cluster=['slaapt'])")
        other = Derivation(*row, _sign=Atom("s"), _signs=object(), _index=4)
        assert other == d and repr(other) == repr(d)
        assert (other._sign, other._index) == (Atom("s"), 4)
        assert d != Derivation(1, *row[1:])
        assert d != row
        result = ParseResult("arie slaapt", ["arie", "slaapt"], False)
        assert repr(result) == ("ParseResult(sentence='arie slaapt', tokens=['arie', "
                                "'slaapt'], had_complementizer=False, derivations=[])")
        assert result.derivations is not \
            ParseResult("arie slaapt", ["arie", "slaapt"], False).derivations
        result.derivations.append(d)
        assert result == ParseResult("arie slaapt", ["arie", "slaapt"], False, [other])
        assert result != ParseResult("arie slaapt", ["arie", "slaapt"], True, [d])
        assert repr(result).endswith(f"derivations=[{d!r}])")
        for record in (d, result):
            with pytest.raises(TypeError):
                hash(record)

    def test_parses_compare_equal_across_parsers(self):
        sentence = "dat arie bob vandaag wil kussen"
        a = Parser(*build_program()).parse(sentence)
        b = Parser(*build_program()).parse(sentence)
        # 3 derivations, 2 readings: one sign is left to make on demand
        assert [d._signs is None for d in a.derivations] == [True, True, False]
        assert a.derivations[0]._sign is not b.derivations[0]._sign
        assert a == b and repr(a) == repr(b)
        assert [d._index for d in a.derivations] == [0, 1, 2]
