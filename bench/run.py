"""clgram benchmark: one workload, one process, one client in a closed loop.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a clgram checkout; the program is imported from its
src/ and checked against its tests/oracle.py.  Workloads: corpus, scope,
lexicon_scale, concat_chain (see README.md and BENCHMARK.json).

--trace 0 measures the end-to-end metrics: set-up time in fresh
processes, then operations back to back for --seconds, each started when
the previous one returned.  --trace 1 measures the per-layer metrics:
a third of --seconds untraced, the rest with the tracer installed.

Every operation's output is checked; a wrong answer, a hit step limit or
an exception counts as failed.  The last line of standard output is the
JSON result; the lines before it give each metric with its unit, the raw
(not drift-normalised) value beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import refloop

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_SAMPLES = 5       # measured fresh processes, after one that warms the bytecode cache
MIN_OPS = 21            # enough for a tail percentile with 10 samples beyond it
TAIL_BEYOND = 10
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run, for the overhead ratio
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170       # a hung operation ends the run with an error instead


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus", "scope", "lexicon_scale", "concat_chain"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def extra_lexicon(workload: str, seed: int) -> str | None:
    return gen.SyntheticLexicon(seed).text if workload == "lexicon_scale" else None


# ---------------------------------------------------------------------------
# set-up time, one fresh process per sample

def setup_child(args) -> int:
    text = extra_lexicon(args.workload, args.seed)
    norm = refloop.Normaliser()
    t0 = time.perf_counter()
    import workloads
    workloads.ready(text)
    raw = time.perf_counter() - t0
    print(json.dumps({"raw": raw, "norm": raw * norm.factor(norm.mark())}))
    return 0


def measure_setup(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    # Let the first child write bytecode the others load, as an installed
    # package would have it, whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    norm, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        if i:
            sample = json.loads(proc.stdout.splitlines()[-1])
            norm.append(sample["norm"])
            raw.append(sample["raw"])
    return statistics.median(norm), statistics.median(raw)


# ---------------------------------------------------------------------------
# the closed loop

class Sample:
    __slots__ = ("size", "raw", "norm")

    def __init__(self, size: int, raw: float):
        self.size = size
        self.raw = raw
        self.norm = raw


def measure(wl, seconds: float, norm: refloop.Normaliser, rng: random.Random,
            errors: list, tracer=None) -> list[Sample]:
    """Whole passes over the workload's items, in a seeded order, until
    another pass would overrun `seconds`.  Each op's raw time is scaled by
    the references measured around its stretch."""
    samples: list[Sample] = []
    stretches: list[tuple[list[Sample], int]] = []
    stretch: list[Sample] = []
    stretch_raw = 0.0
    start = time.perf_counter()
    last_pass = 0.0
    while len(samples) < MIN_OPS or time.perf_counter() - start + last_pass <= seconds:
        order = list(wl.items)
        rng.shuffle(order)
        p0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_pass()
        for item in order:
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = wl.op(item)
                error = None
            except Exception as e:  # a crash is a failed op, not a failed run
                error = f"{type(e).__name__}: {e}"
            sample = Sample(item.size, time.perf_counter() - t0)
            if error is None:
                error = wl.check(item, out)
            if error is not None:
                errors.append(f"{item.text}: {error}")
            samples.append(sample)
            stretch.append(sample)
            stretch_raw += sample.raw
            if stretch_raw >= refloop.STRETCH_S:
                stretches.append((stretch, norm.mark()))
                stretch, stretch_raw = [], 0.0
        if tracer is not None:
            tracer.end_pass()
        last_pass = time.perf_counter() - p0
    if stretch:
        stretches.append((stretch, norm.mark()))
    for stretch, ref in stretches:
        factor = norm.factor(ref)
        for s in stretch:
            s.norm = s.raw * factor
    return samples


def growth_exponent(samples: list[Sample], attr: str) -> float:
    """Least-squares slope of log(median latency) against log(size) over
    the distinct sizes: list length for concat_chain, tokens otherwise."""
    by_size: dict[int, list[float]] = {}
    for s in samples:
        by_size.setdefault(s.size, []).append(getattr(s, attr))
    xs = [math.log(n) for n in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def end_to_end(samples: list[Sample], setup: tuple[float, float]) -> tuple[dict, list[str]]:
    n = len(samples)
    metrics: dict = {}
    lines: list[str] = []

    def put(name, unit, value, raw=None, note=""):
        metrics[name] = {"value": value, "unit": unit}
        extra = f"  (raw {raw:.6g} {unit})" if raw is not None else ""
        lines.append(f"{name} = {value:.6g} {unit}{extra}{note}")

    put("setup_s", "s", setup[0], setup[1], f"  median of {SETUP_SAMPLES} fresh processes")
    view = {}
    for attr in ("norm", "raw"):
        lat = sorted(getattr(s, attr) for s in samples)
        view[attr] = {
            "throughput_ops_s": n / sum(lat),
            "latency_ms_p50": statistics.median(lat) * 1e3,
            "latency_ms_tail": lat[n - TAIL_BEYOND - 1] * 1e3,
            "growth_exponent": growth_exponent(samples, attr),
        }
    pct = 100 * (n - TAIL_BEYOND) / n
    units = {"throughput_ops_s": "1/s", "latency_ms_p50": "ms",
             "latency_ms_tail": "ms", "growth_exponent": "1"}
    notes = {"latency_ms_p50": f"  n={n}",
             "latency_ms_tail": f"  p{pct:.2f} of n={n}, {TAIL_BEYOND} samples beyond"}
    for name, unit in units.items():
        put(name, unit, view["norm"][name], view["raw"][name], notes.get(name, ""))
    put("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return metrics, lines


# ---------------------------------------------------------------------------
# per-layer report

PER_LAYER_UNITS = {
    "reader.load_s": "s", "reader.clauses": "count",
    "lexicon.compile_s": "s", "lexicon.tokenize_s": "s",
    "parser.attempts": "count", "parser.useful_attempt_ratio": "ratio",
    "parser.entry_s": "s", "parser.match_s": "s", "parser.entry_answers": "count",
    "parser.derivations": "count", "parser.readings": "count",
    "solver.calls": "count", "solver.suspends": "count", "solver.resumes": "count",
    "solver.clause_tries": "count", "solver.head_unify_ok_ratio": "ratio",
    "solver.rename_calls": "count", "solver.rename_s": "s",
    "solver.candidates_s": "s", "solver.index_selectivity": "ratio",
    "solver.loop_s": "s",
    "terms.unify_s": "s", "terms.binds": "count", "terms.resolve_s": "s",
    "render.canonical_s": "s", "render.canonical_text_s": "s", "render.json_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0


def per_layer(tracer, setup_counts, norm, untraced, traced) -> tuple[dict, list[str], dict]:
    """Counts are those of the first traced pass (they repeat pass to
    pass); times are drift-normalised self seconds per traced pass, set-up
    spans (and the probe parse) included, except the set-up layers, which
    are per set-up."""
    import tracer as spans
    self_s, incl = tracer.span_times()
    passes = len(tracer.passes)
    factor = norm.run_factor()
    first = tracer.passes[0]
    v: dict = {}
    for metric, span in spans.SELF.items():
        per = 1 if span in spans.SETUP_SPANS else passes
        v[metric] = self_s[span] * factor / per
    for metric, span in spans.INCLUSIVE.items():
        v[metric] = incl[span] * factor / passes
    v["solver.loop_s"] = sum(self_s[s] for s in spans.LOOP) * factor / passes
    v["reader.clauses"] = setup_counts["clauses"]
    v["parser.attempts"] = first["attempts"]
    v["parser.useful_attempt_ratio"] = _ratio(first["useful_attempts"],
                                              first["attempts"])
    v["parser.entry_answers"] = first["entry_answers"]
    v["parser.derivations"] = first["derivations"]
    v["parser.readings"] = first["readings"]
    v["solver.calls"] = first["call"]
    v["solver.suspends"] = first["suspend"]
    v["solver.resumes"] = first["resume"]
    v["solver.clause_tries"] = first["clause_tries"]
    v["solver.head_unify_ok_ratio"] = _ratio(first["unify_ok"], first["clause_tries"])
    v["solver.rename_calls"] = first["rename_calls"]
    v["solver.index_selectivity"] = _ratio(first["candidates_returned"],
                                           first["candidates_defined"])
    v["terms.binds"] = first["bind"]
    v["trace.overhead_ratio"] = (statistics.fmean(s.norm for s in traced)
                                 / statistics.fmean(s.norm for s in untraced))
    metrics = {k: {"value": v[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    lines = [f"{k} = {v[k]:.6g} {u}" for k, u in PER_LAYER_UNITS.items()]
    repeat = all(p == first for p in tracer.passes)
    lines.append(f"counts repeat over {passes} traced passes: {repeat}")
    return metrics, lines, v


def compare_baseline(workload: str, values: dict) -> list[str]:
    baseline = json.loads((BENCH / "baseline.json").read_text())["counts"].get(workload)
    if not baseline:
        return []
    diff = [f"{k} {values[k]} (baseline {want})" for k, want in baseline.items()
            if values[k] != want]
    return [f"baseline counts: {'match' if not diff else 'differ: ' + ', '.join(diff)}"]


# ---------------------------------------------------------------------------

def _overrun(signum, frame):
    raise SystemExit(f"error: run did not end within {RUN_LIMIT_S} s")


def run(args) -> int:
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_LIMIT_S)
    setup = None if args.trace else measure_setup(args)
    import workloads
    text = extra_lexicon(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as spans
        tracer = spans.Tracer()
        tracer.install()
    parser = workloads.ready(text)
    if tracer is not None:
        tracer.uninstall()
    wl = workloads.WORKLOADS[args.workload](parser, workloads.load_oracle(ROOT), args.seed)
    wl.op(wl.items[0])  # warm-up, untimed
    rng = random.Random(f"order-{args.seed}")
    norm = refloop.Normaliser()
    errors: list[str] = []
    if tracer is None:
        samples = measure(wl, args.seconds, norm, rng, errors)
        metrics, lines = end_to_end(samples, setup)
    else:
        setup_counts = tracer.counts
        untraced = measure(wl, args.seconds * UNTRACED_SHARE, norm, rng, errors)
        tracer.install()
        wl.set_trace(tracer.event)
        try:
            traced = measure(wl, args.seconds * (1 - UNTRACED_SHARE), norm, rng,
                             errors, tracer)
        finally:
            wl.set_trace(None)
            tracer.uninstall()
        metrics, lines, values = per_layer(tracer, setup_counts, norm, untraced, traced)
        lines += compare_baseline(args.workload, values)
        path = BENCH / "out" / f"spans-{args.workload}.tsv"
        path.parent.mkdir(exist_ok=True)
        tracer.write(path)
        lines.append(f"spans: {len(tracer.starts)} written to {path.relative_to(ROOT)}")
        samples = untraced + traced
    signal.alarm(0)
    attempted = len(samples)
    lines.append(f"error_rate = {len(errors) / attempted:.6g} "
                 f"({len(errors)} of {attempted} operations failed)")
    for e in errors[:5]:
        print(f"failed: {e}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "clgram" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: {ROOT} is not a clgram checkout "
              "(needs src/clgram and tests/oracle.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_child:
        return setup_child(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
