"""Write a snapshot of what clgram does on fixed inputs, as JSON.

    PYTHONPATH=src python3 scripts/snapshot.py > BENCH_<n>.json

For each sentence of the packaged corpus and of the benchmark's scope
workload at seed 101: its derivations, readings and the calls per
predicate of a warm parse, read with the engine's trace hook.  For each
of the two sets: the median wall time of 5 warm untraced passes.  For the
adverbial series `dat arie bob <k adverbials> zou moeten kunnen willen
kussen`, k = 0..3: the same counts, the median of 5 warm parses, and the
memory a warm result holds (tracemalloc).  Counts do not vary from run to
run; times do, so compare them only as medians on one machine.  Run it
from the root of a checkout; it reads the scope sentences from
`bench/gen.py` and changes nothing.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import gen  # noqa: E402
from clgram import Parser, build_program, corpus_source, load_corpus  # noqa: E402

PASSES = 5
SERIES = [" ".join(["dat arie bob", *["vandaag", "toevallig", "blijkbaar"][:k],
                    "zou moeten kunnen willen kussen"]) for k in range(4)]


def warm_parser(sentences: list[str]) -> Parser:
    """A parser whose Program has seen every sentence once."""
    parser = Parser(*build_program())
    for sentence in sentences:
        parser.parse(sentence)
    return parser


def counted(parser: Parser, sentence: str) -> dict:
    """Derivations, readings and calls per predicate of one traced parse."""
    calls: Counter = Counter()

    def trace(event, store):
        if event[0] == "call":
            calls[event[1].name] += 1
    parser.trace = trace
    try:
        result = parser.parse(sentence)
    finally:
        parser.trace = None
    return {"sentence": sentence, "derivations": len(result.derivations),
            "readings": len(result.readings), "calls": dict(sorted(calls.items()))}


def median_s(fn) -> float:
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 6)


def sentence_set(sentences: list[str]) -> dict:
    parser = warm_parser(sentences)
    rows = [counted(parser, s) for s in sentences]
    total: Counter = Counter()
    for row in rows:
        total.update(row["calls"])
    return {"sentences": rows,
            "derivations": sum(r["derivations"] for r in rows),
            "readings": sum(r["readings"] for r in rows),
            "calls": dict(sorted(total.items())),
            "call_total": sum(total.values()),
            "warm_pass_s": median_s(lambda: [parser.parse(s) for s in sentences])}


def held_bytes(parser: Parser, sentence: str) -> int:
    """What a warm result of `sentence` holds, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = parser.parse(sentence)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del result
    return held


def series() -> list[dict]:
    out = []
    for k, sentence in enumerate(SERIES):
        parser = warm_parser([sentence])
        row = counted(parser, sentence)
        row["call_total"] = sum(row["calls"].values())
        row["parse_s"] = median_s(lambda: parser.parse(sentence))
        row["held_mb"] = round(held_bytes(parser, sentence) / 2**20, 2)
        out.append({"k": k, **row})
    return out


def main() -> int:
    corpus = [s for s, _ in load_corpus(corpus_source())]
    snapshot = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "passes": PASSES,
        "corpus": sentence_set(corpus),
        "scope_101": sentence_set(gen.scope_sentences(101)),
        "adverbial_series": series(),
    }
    json.dump(snapshot, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
