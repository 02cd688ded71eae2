"""Command line interface.

Subcommands:
  parse SENTENCE     judge one sentence, print derivations and readings
  corpus             run a judgment corpus, PASS/FAIL per line
  trace              print suspend/resume/bind/call events for a
                     sentence or a raw --goal query (--format json: one
                     JSON object per line)

Options can also come from environment variables named like the flag,
uppercased (GRAMMAR, LEXICON, CORPUS, FORMAT, TRACE, ENABLE_SLASH,
MAX_DEPTH, MAX_SC_LENGTH); a flag on the command line wins.

Exit codes: parse returns 0 for grammatical, 1 for ungrammatical, 2 on
errors.  corpus returns 0 if every line passes, 1 on any failure, 2 on
errors.  trace returns 0 unless something goes wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fragment
from .errors import ClgramError
from .parser import Parser
from .reader import parse_goals
from .render import _var_text, canonical, canonical_text, render
from .solver import Engine, Truncated
from .terms import resolve

_TRUE_STRINGS = ("1", "true", "yes", "on")


def _env(name: str, default=None):
    return os.environ.get(name, default)


def _env_flag(name: str) -> bool:
    return str(_env(name, "")).lower() in _TRUE_STRINGS


def _bound(text: str) -> int:
    """A --max-* value, from the flag or its environment default: a
    non-negative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grammar", default=_env("GRAMMAR"),
                   help="grammar source file (default: packaged fragment)")
    p.add_argument("--lexicon", default=_env("LEXICON"),
                   help="lexicon file (default: packaged lexicon)")
    p.add_argument("--format", choices=("text", "json"),
                   default=_env("FORMAT", "text"))
    p.add_argument("--trace", action="store_true", default=_env_flag("TRACE"),
                   help="print suspend/resume/bind/call events")
    p.add_argument("--enable-slash", action="store_true",
                   default=_env_flag("ENABLE_SLASH"),
                   help="also build entries with an extracted argument")
    p.add_argument("--max-depth", type=_bound,
                   default=_env("MAX_DEPTH", "200000"),
                   help="step budget per parse attempt or --goal query")
    p.add_argument("--max-sc-length", type=_bound,
                   default=_env("MAX_SC_LENGTH", "10"),
                   help="longest subcat list accepted; longer sentences "
                        "are ungrammatical")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="clgram",
                                  description="constraint grammar engine")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="judge one sentence")
    p.add_argument("sentence")
    p.add_argument("--avm", action="store_true",
                   help="print the full sign for each derivation")
    _add_common(p)

    c = sub.add_parser("corpus", help="run a judgment corpus")
    c.add_argument("--corpus", default=_env("CORPUS"),
                   help="corpus file (default: packaged corpus)")
    _add_common(c)

    t = sub.add_parser("trace", help="trace delayed-goal activity")
    t.add_argument("sentence", nargs="?")
    t.add_argument("--goal", help="raw query, e.g. 'concat([a], [b], X).'")
    _add_common(t)
    return top


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _build(args):
    grammar_text = _read(args.grammar) if args.grammar else None
    lexicon_text = _read(args.lexicon) if args.lexicon else None
    return fragment.build_program(grammar_text, lexicon_text,
                                  enable_slash=args.enable_slash)


def _brief(term, store, limit: int = 160) -> str:
    try:
        text = canonical_text(canonical(resolve(store, term)))
    except ValueError:
        text = "<cyclic>"
    if len(text) > limit:
        text = text[:limit - 1] + "…"
    return text


def _json_line(obj, out=None) -> None:
    print(json.dumps(obj, ensure_ascii=False), file=out)


def _trace_printer(out, fmt: str):
    """The engine's trace= hook: one line per call/suspend/resume/bind
    event, as text or as a JSON object."""
    def emit(event, store):
        tag = event[0]
        if tag == "bind":
            fields = {"var": _var_text(event[1]), "value": _brief(event[2], store)}
        else:
            fields = {"goal": _brief(event[1], store)}
            if tag == "suspend":
                fields["on"] = [_var_text(v) for v in event[2]]
        if fmt == "json":
            _json_line({"event": tag, **fields}, out)
        elif tag == "bind":
            out.write(f"bind    {fields['var']} = {fields['value']}\n")
        elif tag == "suspend":
            out.write(f"suspend {fields['goal']}  on {', '.join(fields['on'])}\n")
        else:
            out.write(f"{tag:<8}{fields['goal']}\n")
    return emit


def _term_json(t):
    return json.loads(render(t, "json"))


def _reading_payload(result):
    # one derivation per distinct reading, its sem rendered structurally
    picked = []
    seen = set()
    for d in result.derivations:
        if d.reading not in seen:
            seen.add(d.reading)
            picked.append(d.sign.feats["sem"])
    return [_term_json(sem) for sem in picked]


def cmd_parse(args) -> int:
    program, lexicon = _build(args)
    trace = _trace_printer(sys.stderr, args.format) if args.trace else None
    parser = Parser(program, lexicon, max_depth=args.max_depth,
                    max_sc_length=args.max_sc_length, trace=trace)
    result = parser.parse(args.sentence)
    if args.format == "json":
        payload = {
            "sentence": result.sentence,
            "tokens": result.tokens,
            "grammatical": result.grammatical,
            "derivations": len(result.derivations),
            "readings": _reading_payload(result),
        }
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        print(f"sentence: {result.sentence}")
        print(f"tokens: {' '.join(result.tokens)}")
        verdict = "yes" if result.grammatical else "no"
        nd, nr = len(result.derivations), len(result.readings)
        print(f"grammatical: {verdict} "
              f"({nd} derivation{'s' if nd != 1 else ''}, "
              f"{nr} reading{'s' if nr != 1 else ''})")
        for i, reading in enumerate(result.readings, 1):
            print(f"reading {i}: {canonical_text(reading)}")
        if args.avm:
            for i, d in enumerate(result.derivations, 1):
                cluster = " ".join(d.cluster)
                print(f"\nderivation {i}: cluster [{cluster}]")
                print(render(d.sign, "avm"))
    return 0 if result.grammatical else 1


def cmd_corpus(args) -> int:
    program, lexicon = _build(args)
    corpus_text = _read(args.corpus) if args.corpus else fragment.corpus_source()
    rows = fragment.load_corpus(corpus_text)
    if not rows:
        print("warning: corpus is empty", file=sys.stderr)
        return 0
    parser = Parser(program, lexicon, max_depth=args.max_depth,
                    max_sc_length=args.max_sc_length)
    failures = 0
    results = []
    for sentence, expect in rows:
        observed, ok, note = None, False, ""
        try:
            result = parser.parse(sentence)
            observed = len(result.readings)
            if expect == "*":
                ok = not result.grammatical
            elif expect == "+":
                ok = result.grammatical
            else:
                ok = observed == int(expect)
        except ClgramError as e:
            note = f" ({e})"
        if not ok:
            failures += 1
        if args.format == "json":
            results.append({"sentence": sentence, "expected": expect,
                            "readings": observed, "pass": ok})
        else:
            status = "PASS" if ok else "FAIL"
            print(f"{status}  {sentence}  (expected {expect}, "
                  f"got {observed}){note}")
    if args.format == "json":
        print(json.dumps({"results": results,
                          "passed": len(rows) - failures,
                          "failed": failures}, sort_keys=True))
    else:
        print(f"{len(rows) - failures}/{len(rows)} passed")
    return 1 if failures else 0


def cmd_trace(args) -> int:
    program, lexicon = _build(args)
    as_json = args.format == "json"
    emit = _trace_printer(sys.stdout, args.format)
    if args.goal:
        goals, named = parse_goals(args.goal, program.sorts)
        engine = Engine(program, max_depth=args.max_depth, trace=emit)
        n = 0
        for item in engine.solve(goals, var_names=named):
            if isinstance(item, Truncated):
                if as_json:
                    _json_line({"event": "truncated", "steps": item.steps})
                else:
                    print(f"truncated after {item.steps} steps")
                break
            n += 1
            if as_json:
                _json_line({"event": "solution", "index": n,
                            "bindings": {name: _term_json(v)
                                         for name, v in sorted(item.bindings.items())},
                            "residue": [_term_json(g) for g in item.residue]})
                continue
            print(f"solution {n}:")
            for name in sorted(item.bindings):
                print(f"  {name} = {render(item.bindings[name], 'avm')}")
            for g in item.residue:
                print(f"  residue: {render(g, 'avm')}")
        if as_json:
            _json_line({"event": "done", "solutions": n})
        elif n == 0:
            print("no solutions")
        return 0
    if not args.sentence:
        print("error: trace needs a sentence or --goal", file=sys.stderr)
        return 2
    parser = Parser(program, lexicon, max_depth=args.max_depth,
                    max_sc_length=args.max_sc_length, trace=emit)
    result = parser.parse(args.sentence)
    if as_json:
        _json_line({"event": "verdict", "grammatical": result.grammatical,
                    "derivations": len(result.derivations),
                    "readings": len(result.readings)})
    else:
        print(f"grammatical: {'yes' if result.grammatical else 'no'} "
              f"({len(result.derivations)} derivations, "
              f"{len(result.readings)} readings)")
    return 0


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "parse":
            return cmd_parse(args)
        if args.command == "corpus":
            return cmd_corpus(args)
        return cmd_trace(args)
    except ClgramError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
