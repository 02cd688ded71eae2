"""The lexicon's clauses, checked against the grammar-language text that
`Lexicon.compile` writes for it, and made only when a goal names a word."""

import json

import pytest

import clgram.lexicon
from clgram import (Atom, Avm, Lexicon, LexiconError, ListCons, Parser, Program, Store,
                    Struct, Var, build_program, canonical, canonical_text,
                    fragment_source, lexicon_source)
from clgram.cli import main
from clgram.parser import ENTRY, FRAME

PREDICATES = [("stem", 2), ("finite_form", 2), ("nonfinite_ok", 1),
              ("noun_entry", 2), ("adverbial_entry", 2)]

# every class, every frame and every parameter, and one soa shared by two verbs
EVERY_SHAPE = """\
ann\tnoun
the_box\tnoun\tindex=box
sleep\tverb\tframe=iv soa=sleep_soa roles=sleeper
hit\tverb\tframe=tv soa=hit_soa roles=hitter,hit phon=hitx fin=hits
give\tverb\tframe=dtv soa=give_soa roles=giver,given,recipient fin=-
want\tverb\tframe=aux soa=want_soa fin=wants nonfin=-
wanting\tverb\tframe=aux soa=want_soa fin=-
see\tverb\tframe=aci soa=see_soa phon=sie nonfin=-
today\tadv-restr
on_time\tadv-restr\trel=punctual_rel
maybe\tadv-op\tsoa=maybe_op
surely\tadv-op
"""


def installed(lexicon: Lexicon) -> Program:
    program = Program()
    program.load(fragment_source(), "fragment.clg")
    lexicon.install(program)
    return program


def read_back(lexicon: Lexicon) -> Program:
    """The program the lexicon's compiled text gives when read."""
    program = Program()
    program.load(fragment_source(), "fragment.clg")
    program.load(lexicon.compile(), "<lexicon>")
    for name, arity in PREDICATES:
        program.ensure_predicate(name, arity)
    return program


def rows(clauses) -> list:
    return [(canonical_text(canonical(Struct(":-", (c.head,) + c.body))), c.index_key)
            for c in clauses]


def every_clause(program: Program, key: tuple) -> list:
    """Every clause of the predicate `key`, in order: the whole-predicate
    request, which makes any clause not made yet."""
    return program.candidates(key, Store(program.sorts), ())


def naming(program: Program, key: tuple, word: str) -> list:
    """The candidates for a goal of `key` whose first argument is `word`."""
    args = (Atom(word),) + tuple(Var() for _ in range(key[1] - 1))
    return program.candidates(key, Store(program.sorts), args)


def clause_rows(program: Program) -> dict:
    return {key: rows(every_clause(program, key)) for key in PREDICATES}


def sort_rows(program: Program) -> list:
    sorts = program.sorts
    return [(name, sorts.get(name).parent and sorts.get(name).parent.name)
            for name in sorts.names()]


def occurrences(t, nodes: list, variables: set) -> None:
    """Append each record, list cell and structure `t` holds, once per
    occurrence; collect its variables."""
    while type(t) is ListCons:
        nodes.append(id(t))
        occurrences(t.head, nodes, variables)
        t = t.tail
    if type(t) is Var:
        variables.add(id(t))
    elif type(t) in (Struct, Avm):
        nodes.append(id(t))
        for x in t.args if type(t) is Struct else t.feats.values():
            occurrences(x, nodes, variables)


@pytest.fixture(params=["packaged", "every_shape"])
def lexicon(request):
    return Lexicon(lexicon_source() if request.param == "packaged" else EVERY_SHAPE)


class TestInstall:
    def test_clauses_equal_the_compiled_text(self, lexicon):
        program = installed(lexicon)
        assert clause_rows(program) == clause_rows(read_back(lexicon))
        assert sort_rows(program) == sort_rows(read_back(lexicon))

    def test_every_clause_is_a_fresh_tree(self, lexicon):
        program = installed(lexicon)
        nodes: list = []
        owner: dict = {}
        for key in PREDICATES:
            for clause in every_clause(program, key):
                variables: set = set()
                for t in (clause.head,) + clause.body:
                    occurrences(t, nodes, variables)
                for v in variables:
                    assert owner.setdefault(v, clause) is clause
        assert len(nodes) == len(set(nodes))

    @pytest.mark.parametrize("order", [1, -1], ids=["lexicon_order", "reversed"])
    def test_each_word_gets_the_clauses_of_the_compiled_text(self, lexicon, order):
        program, reference = installed(lexicon), read_back(lexicon)
        words = [*lexicon.verbs, *lexicon.nouns, *lexicon.advs, "zz_absent"]
        for word in words[::order]:
            for key in PREDICATES:
                assert rows(naming(program, key, word)) == \
                    rows(naming(reference, key, word)), (key, word)
        assert clause_rows(program) == clause_rows(reference)

    @pytest.mark.parametrize("text, sentence", [
        (lexicon_source(), "dat arie bob vandaag wil kussen"),
        (EVERY_SHAPE, "dat ann today the box wants hit"),
    ], ids=["packaged", "every_shape"])
    def test_every_clause_after_a_parse(self, text, sentence):
        lexicon = Lexicon(text)
        program = installed(lexicon)
        assert Parser(program, lexicon).parse(sentence).grammatical
        for key in PREDICATES:
            goal = (Var(),) + tuple(Var() for _ in range(key[1] - 1))
            assert rows(program.candidates(key, Store(program.sorts), goal)) == \
                rows(every_clause(read_back(lexicon), key))

    def test_a_repeated_word_follows_the_first_lexicon(self):
        first = Lexicon(lexicon_source())
        second = Lexicon("arie\tnoun\tindex=arie_too\n"
                         "slapen\tverb\tframe=iv soa=doze_soa roles=dozer phon=doze\n")
        program = installed(first)
        naming(program, ("noun_entry", 2), "arie")      # made before the second
        second.install(program)
        reference = read_back(first)
        reference.load(second.compile(), "<second>")
        for word in ("arie", "bob", "slapen", "kussen"):
            for key in PREDICATES:
                assert rows(naming(program, key, word)) == \
                    rows(naming(reference, key, word)), (key, word)
        assert len(naming(program, ("stem", 2), "slapen")) == 2
        assert clause_rows(program) == clause_rows(reference)

    def test_installing_twice_adds_nothing(self, lexicon):
        program = installed(lexicon)
        before = clause_rows(program)
        lexicon.install(program)
        assert clause_rows(program) == before

    def test_second_lexicon_after_a_parse(self):
        program, packaged = build_program()
        assert Parser(program, packaged).parse("dat arie wil slapen").grammatical
        assert (FRAME, Atom("wil"), Atom("finite"), 2) in program.table
        extra = Lexicon("zzann\tnoun\n"
                        "zzslapen\tverb\tframe=iv soa=zz_soa roles=a phon=zzslaap\n")
        assert (ENTRY, Atom("wil"), Atom("finite")) in program.table
        extra.install(program)
        assert not program.table
        assert Parser(program, extra).parse("dat zzann zzslaapt").grammatical


# a few hundred lines: 100 nouns, 100 transitive verbs, 100 adverbials
MANY = "".join(f"zzn{i}\tnoun\n" for i in range(100)) + "".join(
    f"zzv{i}\tverb\tframe=tv soa=zzv{i}_soa roles=a,b\n" for i in range(100)) + "".join(
    f"zza{i}\tadv-restr\n" for i in range(100))


@pytest.fixture
def made(monkeypatch):
    """The (predicate, word) of each clause the lexicon makes."""
    out = []
    real = clgram.lexicon._fill

    def fill(*args):
        clause = real(*args)
        out.append((clause.head.name, clause.head.args[0].name))
        return clause
    monkeypatch.setattr(clgram.lexicon, "_fill", fill)
    return out


class TestLazyFill:
    """Install makes no clause; a word's clause of a predicate is made the
    first time a goal of that predicate names the word."""

    def test_a_parse_makes_only_the_clauses_its_goals_name(self, made):
        program, lexicon = build_program(lexicon_text=lexicon_source() + MANY)
        assert made == []
        assert Parser(program, lexicon).parse("dat zzn3 zza5 zzn7 wil zzv9").grammatical
        assert sorted(made) == sorted([
            ("noun_entry", "zzn3"), ("noun_entry", "zzn7"),
            ("adverbial_entry", "zza5"),
            ("stem", "wil"), ("finite_form", "wil"),
            ("stem", "zzv9"), ("nonfinite_ok", "zzv9")])
        reference = read_back(lexicon)
        for name, word in made:
            key = (name, 1 if name == "nonfinite_ok" else 2)
            assert rows(naming(program, key, word)) == rows(naming(reference, key, word))
        assert len(made) == 7          # each made once

    def test_a_whole_predicate_is_made_once_in_lexicon_order(self, made):
        lexicon = Lexicon(lexicon_source() + MANY)
        program = installed(lexicon)
        naming(program, ("stem", 2), "zzv7")
        stems = every_clause(program, ("stem", 2))
        assert [c.head.args[0].name for c in stems] == list(lexicon.verbs)
        assert made.count(("stem", "zzv7")) == 1
        assert len(made) == len(lexicon.verbs)
        assert every_clause(program, ("stem", 2)) is stems

    def test_making_a_clause_drops_no_table(self, made):
        program, lexicon = build_program()
        assert Parser(program, lexicon).parse("dat arie wil slapen").grammatical
        table = {key: list(answers) for key, answers in program.table.items()}
        assert (FRAME, Atom("wil"), Atom("finite"), 2) in table
        assert (ENTRY, Atom("wil"), Atom("finite")) in table
        naming(program, ("stem", 2), "kussen")
        every_clause(program, ("noun_entry", 2))
        assert ("stem", "kussen") in made
        assert {key: list(answers) for key, answers in program.table.items()} \
            == table

    def test_trace_goal_lists_every_stem(self, capsys, tmp_path):
        path = tmp_path / "many.tsv"
        path.write_text(lexicon_source() + MANY)
        assert main(["trace", "--lexicon", str(path), "--goal", "stem(W, S).",
                     "--format", "json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        words = [r["bindings"]["W"]["atom"] for r in records if r["event"] == "solution"]
        assert words == list(Lexicon(lexicon_source() + MANY).verbs)


class TestErrors:
    @pytest.mark.parametrize("text, message", [
        ("zz\tverb\tframe=iv soa=noun roles=a\n",
         "line 1: soa 'noun' names an existing sort"),
        ("zz\tverb\tframe=iv soa=top roles=a\n",
         "line 1: soa 'top' names an existing sort"),
        ("zz\tnoun\nzzo\tadv-op\tsoa=sign\n",
         "line 2: soa 'sign' names an existing sort"),
        ("zz\tverb\tframe=tv soa=zz_soa roles=a,a\n",
         "line 1: duplicate role in 'a,a'"),
        ("zz\tverb\tframe=tv soa=zz_soa roles=a\n",
         "line 1: frame tv needs 2 roles, got 1"),
        ("zz\tverb\tframe=iv soa=zz_soa roles=a phon=P\n",
         "line 1: phon 'P' is not a valid atom"),
        ("zz\tverb\tframe=iv soa=a_soa roles=a fin=f\n"
         "zy\tverb\tframe=iv soa=b_soa roles=a fin=f\n",
         "line 2: finite surface 'f' belongs to both 'zz' and 'zy'"),
    ])
    def test_message_names_the_line(self, text, message):
        with pytest.raises(LexiconError) as e:
            installed(Lexicon(text))
        assert str(e.value) == message

    def test_a_clash_declares_nothing(self):
        program = Program()
        program.load(fragment_source(), "fragment.clg")
        before = sort_rows(program)
        with pytest.raises(LexiconError):
            Lexicon("zz\tverb\tframe=iv soa=zz_soa roles=a\n"
                    "zy\tverb\tframe=iv soa=noun roles=a\n").install(program)
        assert sort_rows(program) == before

    def test_entries_may_share_a_soa(self):
        program = installed(Lexicon("zz\tverb\tframe=iv soa=zz_soa roles=a\n"
                                    "zy\tverb\tframe=tv soa=zz_soa roles=a,b\n"))
        assert program.sorts.get("zz_soa").parent.name == "soa"
