"""Command-line interface.

Commands take a PD code either inline, as a path to a file holding one,
or as ``-`` for standard input; an argument with no ``[`` that is
neither empty nor only ``O`` loops is read as a path.  Each command
returns one JSON document, which ``--json`` prints in canonical form
(sorted keys, fixed separators, so identical inputs give identical
bytes) and from which the text form is rendered.  :func:`main` alone
picks the form and the exit code: 0 success, 1 a certified invariant
failed (a document with ``"agree": false`` or ``"ok": false`` is
printed, then the failed check is named on stderr), 2 malformed input
or a file that cannot be read, 3 a resource cap was hit or the process
ran out of memory.

The argument parser is built once per process and shared by every
:func:`main` call, so a long-lived caller pays for it once.  A short
call pays for every module it loads, so each command loads only what
it runs: ``bracket`` and ``cable`` load the polynomials, the diagram,
its states, the bracket engines and the corpus; ``cjones`` adds
:mod:`kauffman.jones`; ``adequacy`` and ``verify`` add
:mod:`kauffman.adequacy` as well, and ``verify --workers N`` the
process pool.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bracket import BRACKET_ENGINES, CapExceeded, InvariantViolation, bracket
from .corpus import bundled, load_corpus_file
from .diagram import (
    DiagramError,
    LinkDiagram,
    cable,
    mirror,
    parse_pd,
    serialize,
    simplify,
)
from .laurent import NotDivisibleByFourError

__all__ = ["main"]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_pd(arg: str) -> str:
    """The PD text an argument names: standard input for ``-``, an
    existing file, the argument itself when it holds a ``[``, is empty
    or is only ``O`` loops, and otherwise a file, so that a mistyped
    path is reported as a missing file."""
    if arg == "-":
        return sys.stdin.read()
    inline = "[" in arg or all(token == "O" for token in arg.split())
    if os.path.exists(arg) or not inline:
        with open(arg, encoding="utf-8") as fh:
            return fh.read()
    return arg


def _every_engine(diagram: LinkDiagram, cap: int | None) -> dict:
    """The diagram's bracket from each engine, keyed by engine name."""
    return {
        name: bracket(diagram, engine=name, cap=cap)
        for name in sorted(BRACKET_ENGINES)
    }


def _cmd_bracket(diagram: LinkDiagram, args) -> dict:
    if args.selftest:
        values = _every_engine(diagram, args.cap)
        return {
            "agree": len(set(values.values())) == 1,
            "engines": {k: v.to_json() for k, v in values.items()},
            "pd": serialize(diagram),
        }
    value = bracket(diagram, engine=args.engine, cap=args.cap)
    return {
        "bracket": value.to_json(),
        "engine": args.engine,
        "pd": serialize(diagram),
    }


def _render_bracket(doc: dict) -> str:
    if "engines" not in doc:
        return doc["bracket"]["text"]
    lines = [f"{name}: {v['text']}" for name, v in doc["engines"].items()]
    lines.append("engines agree" if doc["agree"] else "ENGINES DISAGREE")
    return "\n".join(lines)


def _cmd_cjones(diagram: LinkDiagram, args) -> dict:
    from .jones import reduced, unreduced

    doc = {"pd": serialize(diagram), "width": args.n}
    if args.unreduced:
        value, var = unreduced(diagram, args.n, cap=args.cap), "A"
        doc["form"] = "unreduced"
    else:
        value = reduced(simplify(diagram), args.n, cap=args.cap)
        try:
            value, var = value.to_q(), "q"
        except NotDivisibleByFourError:
            var = "A"
        doc.update(form="reduced", q_convertible=var == "q")
    doc.update(value=value.to_json(var=var), variable=var)
    return doc


def _render_report(j: dict) -> str:
    lines = [
        f"diagram: {j['name'] or '(unnamed)'} "
        f"({j['crossings']} crossings)",
        f"A-adequate: {j['a_adequate']}   B-adequate: {j['b_adequate']}",
        f"bracket exponent window: [{j['min_bound']}, {j['max_bound']}]",
        f"complexity (negatives, crossings, circles-writhe): "
        f"{tuple(j['complexity'])}",
    ]
    for n in sorted(j["ceilings"], key=int):
        actual = j["actual_degree"][n]
        ceiling = j["ceilings"][n]
        rel = "=" if actual == ceiling else "<"
        lines.append(
            f"width {n}: degree {actual} {rel} ceiling {ceiling}"
        )
    if j["cable_top"]:
        lines.append(f"cable top coefficients: {j['cable_top']}")
        lines.append(f"next-below coefficients: {j['cable_next']}")
    if j["t_poly"] is not None:
        lines.append(
            f"detector (width {j['t_width']}): {j['t_poly']['text']}"
        )
    if j["beta_series"]:
        lines.append(f"stable-tail prefix: {j['beta_series']}")
    lines.append(f"detector stability: {j['stability']}")
    for note in j["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_adequacy(diagram: LinkDiagram, args) -> dict:
    from .adequacy import analyze

    return analyze(
        diagram, n_max=args.nmax, series=args.series, cap=args.cap
    ).to_json()


def _cmd_cable(diagram: LinkDiagram, args) -> dict:
    cabled = cable(diagram, args.n)
    return {
        "cabled": serialize(cabled),
        "crossings": cabled.crossing_count,
        "pd": serialize(diagram),
        "width": args.n,
    }


def _verify_entry(payload) -> dict:
    """One corpus entry's whole check battery; runs in a worker."""
    from .adequacy import analyze, feasible_width

    name, pd, label_a, label_b, nmax, cap = payload
    checks: list[str] = []
    done = checks.append

    def fail(check: str, message: str) -> dict:
        return {
            "checks": checks,
            "failure": {"check": check, "message": message},
            "name": name,
            "ok": False,
        }

    try:
        diagram = parse_pd(pd)
    except DiagramError as err:
        return fail("parse", str(err))
    done("parse")

    try:
        values = _every_engine(diagram, cap)
        if len(set(values.values())) != 1:
            return fail(
                "engine-agreement",
                f"engines disagree: "
                f"{ {k: str(v) for k, v in values.items()} }",
            )
        done("engine-agreement")
        value = values["fast"]

        if not diagram.is_empty and diagram.crossing_count <= 3:
            cabled = _every_engine(cable(diagram, 2), cap)
            if len(set(cabled.values())) != 1:
                return fail(
                    "engine-agreement",
                    "engines disagree on the width-2 cable",
                )
            done("engine-agreement-cable")

        flipped = bracket(mirror(diagram), cap=cap)
        if flipped != value.invert_variable():
            return fail(
                "mirror-duality",
                "mirror bracket is not the variable-inverted bracket",
            )
        done("mirror-duality")

        width = feasible_width(diagram)
        if nmax is not None:
            width = min(width, nmax)
        report = analyze(diagram, n_max=width, name=name, cap=cap)
        done("adequacy-battery")

        for side, label, got in (("A", label_a, report.a_adequate),
                                 ("B", label_b, report.b_adequate)):
            if label is not None and got != label:
                return fail(
                    "labels", f"stored {side}-flag {label}, computed {got}"
                )
        done("labels")

        if report.t_poly is not None:
            if (len(report.t_poly) != 0) != report.a_adequate:
                return fail(
                    "t-dichotomy",
                    f"detector {report.t_poly.to_text(var='q')} "
                    f"inconsistent with A-adequate={report.a_adequate}",
                )
            done("t-dichotomy")

        if report.beta_series:
            first = report.beta_series[0]
            if (first != 0) != report.a_adequate:
                return fail(
                    "first-tail-coefficient",
                    f"leading tail coefficient {first} inconsistent "
                    f"with A-adequate={report.a_adequate}",
                )
            if report.a_adequate and abs(first) != 1:
                return fail(
                    "first-tail-coefficient",
                    f"A-adequate entries lead with +-1, got {first}",
                )
            done("first-tail-coefficient")
    except InvariantViolation as err:
        return fail(err.check, str(err))
    except CapExceeded as err:
        return fail("resource-cap", str(err))

    return {"checks": checks, "failure": None, "name": name, "ok": True}


def _cmd_verify(diagram: None, args) -> dict:
    if args.workers < 1:
        raise ValueError("need at least one worker")
    entries = load_corpus_file(args.corpus) if args.corpus else bundled()
    payloads = [
        (e.name, e.pd, e.a_adequate, e.b_adequate, args.nmax, args.cap)
        for e in entries
    ]
    # a forking pool starts all its workers at the first submit, so
    # ask for no more than there are entries
    workers = min(args.workers, len(payloads))
    if workers > 1:
        # imported here: the pool's machinery costs every other command
        # memory at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_entry, payloads))
    else:
        results = [_verify_entry(p) for p in payloads]
    return {"entries": results, "ok": all(r["ok"] for r in results)}


def _render_verify(doc: dict) -> str:
    lines = []
    for r in doc["entries"]:
        if r["ok"]:
            lines.append(f"ok   {r['name']} ({len(r['checks'])} checks)")
        else:
            f = r["failure"]
            lines.append(f"FAIL {r['name']}: {f['check']}: {f['message']}")
    total = len(doc["entries"])
    good = sum(1 for r in doc["entries"] if r["ok"])
    lines.append(f"verified {total} entries: {good} ok, {total - good} failed")
    return "\n".join(lines)


def _failure(doc: dict) -> str | None:
    """The failed check a document records, as stderr names it: engine
    disagreement under ``bracket --selftest``, the first failed entry
    under ``verify``."""
    if doc.get("agree") is False:
        return "engine-agreement: bracket engines disagree on this input"
    if doc.get("ok") is False:
        first = next(r for r in doc["entries"] if not r["ok"])
        return f"{first['failure']['check']} on {first['name']}"
    return None


def _command(subs, name: str, fn, render, help: str, *, pd: bool = True,
             cap: bool = True) -> argparse.ArgumentParser:
    """Register a subcommand whose handler ``fn`` returns its JSON
    document and whose text ``render`` builds from that document, with
    the shared ``pd`` positional unless it reads no diagram, ``--cap``
    unless it reads no bracket, and ``--json``."""
    p = subs.add_parser(name, help=help)
    if pd:
        p.add_argument("pd", help="PD code, path to one, or - for stdin")
    if cap:
        p.add_argument(
            "--cap",
            type=int,
            default=None,
            help="resource cap: live states per step for every engine",
        )
    p.add_argument(
        "--json",
        action="store_true",
        help="canonical JSON output",
    )
    p.set_defaults(fn=fn, render=render)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: ``parse_args``
    reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="kauffman",
        description="Exact bracket, cabled colored Jones, and "
        "semi-adequacy invariants of link diagrams.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _command(
        subs, "bracket", _cmd_bracket, _render_bracket,
        "bracket polynomial of a PD code",
    )
    p.add_argument(
        "--selftest",
        action="store_true",
        help="run every engine and require agreement",
    )
    p.add_argument(
        "--engine",
        choices=sorted(BRACKET_ENGINES),
        default="fast",
        help="bracket engine (default: fast)",
    )

    p = _command(
        subs, "cjones", _cmd_cjones, lambda doc: doc["value"]["text"],
        "colored Jones value at a cable width",
    )
    p.add_argument("--n", type=int, required=True, help="cable width")
    p.add_argument(
        "--unreduced",
        action="store_true",
        help="writhe-corrected unreduced value instead of the quotient",
    )

    p = _command(
        subs, "adequacy", _cmd_adequacy, _render_report,
        "full adequacy report for a diagram",
    )
    p.add_argument(
        "--nmax", type=int, default=None, help="largest cable width"
    )
    p.add_argument(
        "--series",
        type=int,
        default=1,
        help="stable-tail coefficients to extract (default 1)",
    )

    p = _command(
        subs, "cable", _cmd_cable, lambda doc: doc["cabled"],
        "PD code of a parallel cable", cap=False,
    )
    p.add_argument("--n", type=int, required=True, help="cable width")

    p = _command(
        subs, "verify", _cmd_verify, _render_verify,
        "recompute every certified identity over a corpus", pd=False,
    )
    p.add_argument(
        "--corpus",
        default=None,
        help="tab-separated corpus file (default: bundled entries)",
    )
    p.add_argument(
        "--nmax", type=int, default=None, help="cable width limit"
    )
    p.add_argument(
        "--workers", type=int, default=1, help="parallel workers"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a cap below zero is bad usage on every input, not a cap that
        # trips only where the engine gets as far as checking it
        if (getattr(args, "cap", None) or 0) < 0:
            raise ValueError("resource cap cannot be negative")
        diagram = parse_pd(_load_pd(args.pd)) if "pd" in args else None
        doc = args.fn(diagram, args)
    except InvariantViolation as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return 1
    except CapExceeded as err:
        print(f"resource cap exceeded: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        # --cap counts states, not bytes, so the process's own memory
        # limit is the backstop of the same budget
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(_dumps(doc) if args.json else args.render(doc))
    failure = _failure(doc)
    if failure is not None:
        print(f"invariant failure: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
