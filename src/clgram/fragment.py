"""Packaged grammar fragment, lexicon and corpus, plus loader helpers."""

from __future__ import annotations

import os

from .errors import ClgramError
from .lexicon import Lexicon
from .solver import Program


def _data(name: str) -> str:
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


def fragment_source() -> str:
    return _data("fragment.clg")


def lexicon_source() -> str:
    return _data("lexicon.tsv")


def corpus_source() -> str:
    return _data("corpus.tsv")


def build_program(grammar_text: str | None = None,
                  lexicon_text: str | None = None,
                  enable_slash: bool = False) -> tuple[Program, Lexicon]:
    """Load the grammar and compile the lexicon into one Program."""
    program = Program()
    program.load(grammar_text if grammar_text is not None else fragment_source(),
                 "fragment.clg")
    if enable_slash:
        program.load("slash_extraction(on).\n", "<slash>")
    lexicon = Lexicon(lexicon_text if lexicon_text is not None else lexicon_source())
    lexicon.install(program)
    return program, lexicon


def load_corpus(text: str) -> list[tuple[str, str]]:
    """Corpus lines are `sentence <TAB> expectation` where the expectation
    is `*` (ungrammatical), `+` (grammatical) or an integer reading count."""
    rows: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "\t" in line:
            sentence, expect = line.rsplit("\t", 1)
        else:
            sentence, expect = line.rsplit(None, 1)
        sentence = sentence.strip()
        expect = expect.strip()
        if not sentence or (expect not in ("*", "+") and not expect.isdigit()):
            raise ClgramError(f"corpus line {lineno}: cannot read {raw!r}")
        rows.append((sentence, expect))
    return rows
