"""Byte-for-byte CLI output over the bundled corpus, against a golden file.

``golden_cli.json`` holds the exit code and stdout of every command
below, in text and ``--json`` form.  A refactor must leave every
record identical.  To re-record after an intended output change, run
``python tests/test_golden_cli.py`` from the repository root with
``src`` on the path.
"""

import contextlib
import io
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from kauffman import cli, diagram, states
from kauffman.corpus import bundled
from kauffman.diagram import parse_pd

GOLDEN = Path(__file__).with_name("golden_cli.json")


def commands() -> list[list[str]]:
    """Every golden invocation, text form first, then ``--json``."""
    base: list[list[str]] = []
    for entry in bundled():
        pd = entry.pd
        for engine in ("fast", "statesum", "subgraph"):
            base.append(["bracket", "--engine", engine, pd])
        base.append(["bracket", "--selftest", pd])
        if parse_pd(pd).crossing_count <= 3:
            for n in ("1", "2", "3"):
                base.append(["cjones", "--n", n, pd])
                base.append(["cjones", "--n", n, "--unreduced", pd])
        base.append(["adequacy", pd])
        base.append(["adequacy", "--nmax", "2", pd])
        base.append(["cable", "--n", "2", pd])
    base.append(["verify"])
    return [argv for b in base for argv in (b, b[:1] + ["--json"] + b[1:])]


def run(argv: list[str]) -> dict:
    """Exit code and stdout; an exception that escapes ``main`` is
    recorded by its class name in place of the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except Exception as err:
            rc = type(err).__name__
    return {"argv": argv, "rc": rc, "stdout": out.getvalue()}


def run_all(argvs: list[list[str]]) -> list[dict]:
    """Every invocation, spread over two worker processes to keep the
    test's wall time near half of its ten CPU-seconds."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        return list(pool.map(run, argvs))


def test_cli_output_matches_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == commands()
    for expected, got in zip(golden, run_all(commands())):
        assert got == expected



def test_the_battery_never_orients(monkeypatch):
    # adequacy, cjones and cable read only the extreme states' circles
    # and loops; orienting the all-A state serves bracket_subgraph alone
    def refuse(diagram):
        raise AssertionError("oriented the all-A state")

    monkeypatch.setattr(states, "resolve", refuse)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    checked = [
        g for g in golden
        if g["argv"][0] in ("cjones", "cable")
        or g["argv"][:2] == ["adequacy", "--json"]
    ]
    assert len(checked) == 180
    for expected in checked:
        assert run(expected["argv"]) == expected


def test_only_the_parse_is_validated(monkeypatch):
    # cables and simplifications are built from the parsed diagram's
    # validated data; tracing components is validation, so it runs once
    # per command on a code with crossings, for the parse alone
    traces = []

    def counted(tuples, partner):
        traces.append(len(tuples))
        return trace(tuples, partner)

    trace = diagram._trace_components
    monkeypatch.setattr(diagram, "_trace_components", counted)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    checked = [
        g for g in golden if g["argv"][0] in ("cjones", "adequacy", "cable")
    ]
    assert len(checked) == 204
    for expected in checked:
        crossings = parse_pd(expected["argv"][-1]).crossing_count
        traces.clear()
        assert run(expected["argv"]) == expected
        assert traces == ([crossings] if crossings else []), expected["argv"]


if __name__ == "__main__":
    records = run_all(commands())
    GOLDEN.write_text(
        json.dumps(records, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
