"""Constraint-logic grammar engine over sorted feature structures.

Unification-driven resolution with delayed goals (block declarations),
used to run recursive lexical rules as constraints, plus a Dutch
verb-cluster fragment and a head-driven parser for it.
"""

from .errors import (ClgramError, GrammarSyntaxError, LexiconError,
                     LimitExceededError, LoadError, NoFiniteVerbError,
                     SortError, StaleParseError, UndefinedPredicateError,
                     UnknownTokensError)
from .fragment import (build_program, corpus_source, fragment_source,
                       lexicon_source, load_corpus)
from .lexicon import Lexicon
from .parser import Derivation, Parser, ParseResult, cluster_expand
from .render import canonical, canonical_text, render
from .solver import BlockSpec, Clause, Engine, Program, Solution, Truncated
from .terms import (NIL, Atom, Avm, ListCons, Sort, SortTable, Store, Struct,
                    Var, copy_term, list_to_python, make_list, resolve, unify)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Avm", "BlockSpec", "Clause", "ClgramError", "Derivation",
    "Engine", "GrammarSyntaxError", "Lexicon", "LexiconError",
    "LimitExceededError", "ListCons", "LoadError", "NIL", "NoFiniteVerbError",
    "ParseResult", "Parser", "Program", "Solution", "Sort", "SortError",
    "SortTable", "StaleParseError", "Store", "Struct", "Truncated",
    "UndefinedPredicateError", "UnknownTokensError", "Var", "build_program",
    "canonical", "canonical_text", "cluster_expand", "copy_term",
    "corpus_source", "fragment_source", "lexicon_source", "list_to_python",
    "load_corpus", "make_list", "render", "resolve", "unify",
]
