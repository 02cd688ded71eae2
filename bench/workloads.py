"""The four workloads: set-up, one operation, and its correctness check.

Importing this module imports clgram, so a set-up child imports it only
after its clock has started (`setup_s` includes `import clgram`).

An operation of the parse workloads is one `Parser.parse` plus rendering
each distinct reading's semantics with `render(..., "json")`, as
`clgram parse --format json` does.  An operation of `concat_chain` is
one `Engine.solve` of `concat(X, [t], Y), eq(X, [a1, ..., an])` run to
exhaustion.  Every output is checked against references that do not go
through the engine: the corpus judgments, the eager oracle in
`tests/oracle.py`, and Python list concatenation.
"""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen
from clgram import (Atom, Engine, Parser, Solution, Struct, Var, build_program,
                    corpus_source, lexicon_source, load_corpus, make_list)
from clgram.render import canonical, canonical_text, render

# The CLI's default step budget (clgram parse/corpus/trace --max-depth).
MAX_DEPTH = 200000

# Set-up ends with this parse, so a Parser counts as ready only once it
# has answered correctly.
PROBE_SENTENCE = "dat arie wil slapen"


def ready(lexicon_text: str | None) -> Parser:
    """A fresh Parser over the packaged grammar and lexicon (plus any
    synthetic lexicon lines), checked by one probe parse."""
    if lexicon_text is not None:
        lexicon_text = lexicon_source() + lexicon_text
    program, lexicon = build_program(lexicon_text=lexicon_text)
    parser = Parser(program, lexicon, max_depth=MAX_DEPTH)
    if len(parser.parse(PROBE_SENTENCE).readings) != 1:
        raise RuntimeError(f"probe sentence {PROBE_SENTENCE!r} did not parse")
    return parser


def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("clgram_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Item:
    """One operation's input and its reference answer."""
    text: str
    size: int                 # tokens, or list length for concat_chain
    ref: object


# ---------------------------------------------------------------------------
# parse workloads

@dataclass
class ParseRef:
    verdict: str              # "*", "+" or a reading count, as in corpus.tsv
    derivations: int
    readings: Counter         # canonical reading -> derivations
    payload: list[str]        # expected JSON of the distinct readings, sorted


def canonical_json(c: tuple):
    """The JSON `render(t, "json")` documents for a ground term, built
    from its canonical tuple."""
    kind = c[0]
    if kind == "atom":
        return {"atom": c[1]}
    if kind == "nil":
        return []
    if kind == "cons":
        items = []
        while c[0] == "cons":
            items.append(canonical_json(c[1]))
            c = c[2]
        return items if c == ("nil",) else {"items": items, "tail": canonical_json(c)}
    if kind == "struct":
        return {"goal": c[1], "args": [canonical_json(a) for a in c[2]]}
    if kind == "avm":
        return {"sort": c[1], "feats": {f: canonical_json(v) for f, v in c[2]}}
    raise ValueError(f"reading is not ground: {c!r}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def parse_item(parser: Parser, oracle, sentence: str, verdict: str | None) -> Item:
    tokens, _ = parser.lexicon.tokenize(sentence)
    count, readings = oracle.oracle_parse(parser.lexicon, tokens)
    if verdict is None:
        verdict = str(len(readings)) if readings else "*"
    payload = sorted(_dump(canonical_json(r)) for r in readings)
    return Item(sentence, len(tokens), ParseRef(verdict, count, readings, payload))


class ParseWorkload:
    def __init__(self, parser: Parser, items: list[Item]):
        self.parser = parser
        self.items = items

    def set_trace(self, hook) -> None:
        self.parser.trace = hook

    def op(self, item: Item):
        result = self.parser.parse(item.text)
        seen = set()
        payload = []
        for d in result.derivations:
            if d.reading not in seen:
                seen.add(d.reading)
                payload.append(render(d.sign.feats["sem"], "json"))
        return result, payload

    @staticmethod
    def check(item: Item, out) -> str | None:
        result, payload = out
        ref = item.ref
        if ref.verdict == "*":
            if result.grammatical:
                return "accepted an ungrammatical sentence"
        elif ref.verdict == "+":
            if not result.grammatical:
                return "rejected a grammatical sentence"
        elif len(result.readings) != int(ref.verdict):
            return f"{len(result.readings)} readings, expected {ref.verdict}"
        if len(result.derivations) != ref.derivations:
            return f"{len(result.derivations)} derivations, oracle has {ref.derivations}"
        if Counter(d.reading for d in result.derivations) != ref.readings:
            return "reading multiset differs from the oracle"
        if sorted(_dump(json.loads(p)) for p in payload) != ref.payload:
            return "rendered JSON differs from the oracle's readings"
        return None


def corpus(parser: Parser, oracle, seed: int) -> ParseWorkload:
    rows = load_corpus(corpus_source())
    return ParseWorkload(parser, [parse_item(parser, oracle, s, v) for s, v in rows])


def scope(parser: Parser, oracle, seed: int) -> ParseWorkload:
    return ParseWorkload(parser, [parse_item(parser, oracle, s, None)
                                  for s in gen.scope_sentences(seed)])


def lexicon_scale(parser: Parser, oracle, seed: int) -> ParseWorkload:
    synthetic = gen.SyntheticLexicon(seed)
    return ParseWorkload(parser, [parse_item(parser, oracle, s, None)
                                  for s in synthetic.sentences(seed)])


# ---------------------------------------------------------------------------
# concat_chain

class ConcatWorkload:
    def __init__(self, parser: Parser, seed: int):
        self.program = parser.program
        self.trace = None
        self.items = []
        for n in gen.concat_lengths(seed):
            prefix, suffix = gen.concat_items(seed, n)
            self.items.append(Item(f"concat/{n}", n, (prefix, suffix)))

    def set_trace(self, hook) -> None:
        self.trace = hook

    def op(self, item: Item):
        prefix, suffix = item.ref
        x, y = Var("X"), Var("Y")
        goals = [Struct("concat", (x, make_list([Atom(suffix)]), y)),
                 Struct("eq", (x, make_list([Atom(a) for a in prefix])))]
        engine = Engine(self.program, max_depth=MAX_DEPTH, trace=self.trace)
        return list(engine.solve(goals, var_names={"Y": y}))

    @staticmethod
    def check(item: Item, out) -> str | None:
        prefix, suffix = item.ref
        want = prefix + [suffix]
        if len(out) != 1 or not isinstance(out[0], Solution):
            return f"expected one solution, got {out!r:.200}"
        if out[0].residue:
            return f"{len(out[0].residue)} goals left suspended"
        y = out[0].bindings["Y"]
        if canonical_text(canonical(y)) != "[" + ", ".join(want) + "]":
            return "Y differs from the Python concatenation (text form)"
        if json.loads(render(y, "json")) != [{"atom": a} for a in want]:
            return "Y differs from the Python concatenation (JSON form)"
        return None


def concat_chain(parser: Parser, oracle, seed: int) -> ConcatWorkload:
    return ConcatWorkload(parser, seed)


WORKLOADS = {"corpus": corpus, "scope": scope, "lexicon_scale": lexicon_scale,
             "concat_chain": concat_chain}
