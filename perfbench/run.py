#!/usr/bin/env python3
"""Benchmark of the kauffman package, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

One process, a closed loop with one client: each op is one call of
``kauffman.cli.main`` with stdout captured, and the next op starts when
it returns.  A pass is the workload's fixed op list; passes repeat
until ``--seconds`` have elapsed.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  Times are scaled by the machine's speed while
they were taken (``speed.py``).  The last stdout line is the result as
JSON; the line before it carries details that are recorded but not
gated.
``--record-digests`` rewrites the reference digests from the default
seed.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import check
import gen
import speed
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# bracket.fast.peak_states bisects at most this many of the largest
# distinct fast-engine inputs of a pass, none over this many crossings:
# the width-4 figure-eight cable (64 crossings) needs about 18 calls of
# 3.6 s each, more than a run can spend.
PEAK_INPUTS = 4
PEAK_MAX_CROSSINGS = 48
SPANS_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Result:
    code: int | None
    error: str | None  # class name of the exception the op raised
    stdout: str
    exc_text: str = ""
    seconds: float = 0.0

    def same_outcome(self, other: "Result") -> bool:
        return (self.code, self.error, self.stdout) == (
            other.code, other.error, other.stdout)


def run_op(main, argv) -> Result:
    out = io.StringIO()
    code, error, trace = None, None, ""
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as err:
            code = err.code
        except Exception as err:  # an op that raises is a failed op
            error = type(err).__name__
            trace = traceback.format_exc()
    return Result(code, error, out.getvalue(), trace)


def setup(workload: str, seed: int):
    """Import the package afresh, make and validate the inputs, and run
    the warm-up op.  Returns the cli module and the ops."""
    for name in [m for m in sys.modules
                 if m == "kauffman" or m.startswith("kauffman.")]:
        del sys.modules[name]
    cli = importlib.import_module("kauffman.cli")
    corpus = {e.name: e.pd for e in cli.bundled()}
    ops = gen.make_ops(workload, seed, corpus)
    gen.validate(ops, cli.parse_pd)
    warm = run_op(cli.main, gen.WARMUP[workload] + (corpus[gen.WARMUP_INPUT],))
    if warm.code != 0:
        raise RuntimeError(f"warm-up op failed: {warm}")
    return cli, ops


def one_pass(cli, ops, probe):
    """Run every op once.  Returns the pass's raw and scaled seconds
    and the results, whose ``seconds`` are scaled."""
    results, spans = [], []
    for op in ops:
        r, seconds, start, end = probe.measure(run_op, cli.main, op.argv)
        r.seconds = seconds
        results.append(r)
        spans.append((start, end))
    probe.sample()
    raw = sum(r.seconds for r in results)
    for r, (start, end) in zip(results, spans):
        r.seconds *= probe.factor(start, end)
    return raw, sum(r.seconds for r in results), results


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "kauffman").glob("*.py"))
    )


def layer_metrics(snaps, untraced, traced, peaks) -> dict:
    """Per-layer metrics from the traced passes' snapshots.  Times are
    scaled milliseconds per pass and shares are of the traced time of
    all ops, both medians over the traced passes; counts are per pass."""
    def med(fn):
        return statistics.median(fn(s) for s in snaps)

    def ms(name):
        return med(lambda s: s["self_ms"].get(name, 0.0))

    def module_ms(s, prefix):
        return sum(v for k, v in s["self_ms"].items()
                   if k.startswith(prefix + "."))

    def share(fn):
        return med(lambda s: fn(s) / s["covered_ms"])

    def span_share(name):
        return share(lambda s: s["self_ms"].get(name, 0.0))

    # counts repeat exactly from pass to pass
    def calls(name):
        return snaps[-1]["calls"].get(name, 0)

    def count(name):
        return snaps[-1]["counts"].get(name, 0)

    analyses = calls("adequacy.analyze")
    m = {
        "diagram.parse_pd.ms": (ms("diagram.parse_pd"), "ms"),
        "diagram.parse_pd.calls": (calls("diagram.parse_pd"), "count"),
        "diagram.cable.share": (span_share("diagram.cable"), "ratio"),
        "diagram.cable.crossings": (count("diagram.cable.crossings"), "count"),
        "diagram.mirror.share": (span_share("diagram.mirror"), "ratio"),
        "diagram.mirror.calls": (calls("diagram.mirror"), "count"),
        "states.ribbon_graph.share": (span_share("states.ribbon_graph"), "ratio"),
        "states.ribbon_graph.calls": (calls("states.ribbon_graph"), "count"),
        "states.resolve.calls": (calls("states.resolve"), "count"),
        "states.faces.calls": (calls("states.faces"), "count"),
        "bracket.fast.ms": (ms("bracket.fast"), "ms"),
        "bracket.fast.share": (span_share("bracket.fast"), "ratio"),
        "bracket.fast.calls": (calls("bracket.fast"), "count"),
        "bracket.fast.crossings": (count("bracket.fast.crossings"), "count"),
        "bracket.fast.peak_states": (max(peaks, default=0), "count"),
        "bracket.statesum.share": (span_share("bracket.statesum"), "ratio"),
        "bracket.statesum.resolutions": (
            count("bracket.statesum.resolutions"), "count"),
        "bracket.subgraph.share": (span_share("bracket.subgraph"), "ratio"),
        "bracket.subgraph.subsets": (
            count("bracket.subgraph.subsets"), "count"),
        "jones.reduced.calls": (calls("jones.reduced"), "count"),
        "laurent.mul.ms": (ms("laurent.mul"), "ms"),
        "laurent.mul.calls": (calls("laurent.mul"), "count"),
        "laurent.exact_div.ms": (ms("laurent.exact_div"), "ms"),
        "laurent.max_terms": (count("laurent.max_terms"), "count"),
        "adequacy.analyze.self_share": (span_share("adequacy.analyze"), "ratio"),
        "adequacy.state_graph.calls": (
            calls("adequacy.state_graph"), "count"),
        "adequacy.state_graph.per_diagram": (
            calls("adequacy.state_graph") / analyses if analyses else 0.0,
            "ratio"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "trace.overhead_share": (
            statistics.median(traced) / statistics.median(untraced) - 1,
            "ratio"),
        "trace.uncovered_share": (med(lambda s: s["uncovered"]), "ratio"),
        "trace.spans": (snaps[-1]["spans"], "count"),
    }
    for module in ("diagram", "states", "bracket", "jones", "laurent",
                   "adequacy"):
        m[f"{module}.self_share"] = (
            share(lambda s, p=module: module_ms(s, p)), "ratio")
    return m


def run(args) -> int:
    digests = check.load_digests()
    tracer = tracing.Tracer() if args.trace else None
    first = None
    setups, untraced, traced, snaps, op_seconds = [], [], [], [], []
    raw_setups, raw_walls = [], []
    changed: list[int] = []  # ops whose outcome differs from pass one
    with speed.SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            (cli, ops), seconds, start, end = probe.measure(
                setup, args.workload, args.seed)
            raw_setups.append(seconds)
            setups.append((seconds, start, end))
            probe.sample()  # a set-up is shorter than the probe's interval
        setups = [t * probe.factor(a, b) for t, a, b in setups]

        # With --trace 1, passes alternate untraced and traced, untraced
        # first, and the run ends after a traced one.
        start = time.perf_counter()
        while True:
            traced_pass = tracer is not None and len(untraced) > len(traced)
            if traced_pass:
                probe.pause()
                tracer.install()
                tracer.reset()
                try:
                    raw, wall, results = one_pass(cli, ops, probe)
                finally:
                    tracer.uninstall()
                    probe.resume()
                traced.append(wall)
                snaps.append(tracer.snapshot(wall / raw, raw))
            else:
                raw, wall, results = one_pass(cli, ops, probe)
                untraced.append(wall)
                raw_walls.append(raw)
                op_seconds.extend(r.seconds for r in results)
            if first is None:
                first = results
            else:
                changed += [
                    i for i, (r, f) in enumerate(zip(results, first))
                    if not r.same_outcome(f)]
            if time.perf_counter() - start >= args.seconds and (
                    tracer is None or traced):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # attempted and failed count each op of the pass once, so that they
    # depend on the seed and the code but not on how many passes the
    # run's seconds allowed: an op fails if pass one's output is wrong
    # or a later pass's differs from it.
    verdict = check.account(args.workload, ops, first, digests)
    passes = len(untraced) + len(traced)
    attempted = len(ops)
    failed = len(verdict["failed_ops"] | set(changed))
    unknown = verdict["unknown"] + [
        f"output changed between passes: {' '.join(ops[i].argv[:-1])}"
        for i in sorted(set(changed))
    ]
    for i, reason in list(zip(verdict["unknown_ops"], verdict["unknown"]))[:3]:
        print(reason, first[i].exc_text, sep="\n", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(ops),
        "passes": passes,
        "components": dict(sorted(
            Counter(op.components for op in ops).items())),
        "failed_share": failed / attempted,
        "failures_by_class": verdict["by_class"],
        "unknown_failures": unknown[:10],
        "raw_setup_s": raw_setups,
        "raw_wall_s": raw_walls,
        "scaled_wall_s": untraced,
        "src_lines": src_lines(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if len(ops) >= 100:
            info["op_p50_ms"] = 1e3 * quantile(op_seconds, 50)
            info["op_p90_ms"] = 1e3 * quantile(op_seconds, 90)
            info["op_samples"] = len(op_seconds)
    else:
        candidates = sorted(
            (d for d in tracer.fast_inputs.values()
             if len(d.crossings) <= PEAK_MAX_CROSSINGS),
            key=lambda d: -len(d.crossings),
        )[:PEAK_INPUTS]
        bracket = importlib.import_module("kauffman.bracket")
        peaks = [
            tracing.peak_states(bracket.bracket_fast, bracket.CapExceeded, d)
            for d in candidates
        ]
        metrics = layer_metrics(snaps, untraced, traced, peaks)
        metrics["failed_share"] = (failed / attempted, "ratio")
        metrics["env.src_lines"] = (info["src_lines"], "count")
        metrics["env.nproc"] = (info["nproc"], "count")
        info["peak_states_by_crossings"] = [
            [len(d.crossings), p] for d, p in zip(candidates, peaks)]
        info["traced_wall_s"] = traced
        tracer.write_spans(SPANS_DIR / f"{args.workload}.spans.tsv.gz")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def record_digests() -> int:
    """Rewrite the reference digests from one pass of every workload at
    the default seed."""
    digests = {}
    for workload in gen.WORKLOADS:
        cli, ops = setup(workload, check.DEFAULT_SEED)
        with speed.SpeedProbe() as probe:
            _, _, results = one_pass(cli, ops, probe)
        digests.update(check.digests_of(zip(ops, results)))
    with open(check.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {check.DIGESTS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "kauffman" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
