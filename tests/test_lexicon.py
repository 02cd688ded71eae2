"""The lexicon's clauses, checked against the grammar-language text that
`Lexicon.compile` writes for it."""

import pytest

from clgram import (Avm, Lexicon, LexiconError, ListCons, Parser, Program, Struct, Var,
                    build_program, canonical, canonical_text, fragment_source,
                    lexicon_source)

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


def clause_rows(program: Program) -> dict:
    return {key: [(canonical_text(canonical(Struct(":-", (c.head,) + c.body))),
                   c.index_key)
                  for c in program._clauses[key]]
            for key in PREDICATES}


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
            for clause in program._clauses[key]:
                variables: set = set()
                for t in (clause.head,) + clause.body:
                    occurrences(t, nodes, variables)
                for v in variables:
                    assert owner.setdefault(v, clause) is clause
        assert len(nodes) == len(set(nodes))

    def test_installing_twice_adds_nothing(self, lexicon):
        program = installed(lexicon)
        before = clause_rows(program)
        lexicon.install(program)
        assert clause_rows(program) == before

    def test_second_lexicon_after_a_parse(self):
        program, packaged = build_program()
        assert Parser(program, packaged).parse("dat arie wil slapen").grammatical
        assert program.frames
        extra = Lexicon("zzann\tnoun\n"
                        "zzslapen\tverb\tframe=iv soa=zz_soa roles=a phon=zzslaap\n")
        extra.install(program)
        assert not program.frames
        assert Parser(program, extra).parse("dat zzann zzslaapt").grammatical


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
         "finite surface 'f' belongs to both 'zz' and 'zy'"),
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
