"""Command-line behavior: output forms, exit codes, the verify battery.

Everything but ``TestProcess`` drives ``cli.main`` in process, so exit
codes and streams are observable without spawning an interpreter.
JSON outputs must be byte-deterministic: the verify battery is
compared across runs and across worker counts.
"""

import concurrent.futures
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kauffman import bracket as bracket_module
from kauffman import cli
from kauffman.adequacy import InvariantViolation
from kauffman.corpus import CorpusEntry, load_corpus_file
from kauffman.diagram import cable, parse_pd, serialize, simplify
from kauffman.laurent import LaurentPoly

from conftest import braid_closure, seeded_closures
from oracles import habiro_figure_eight, masbaum_trefoil

LH_TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
KINK_POS = "X[1,1,2,2]"
HOPF = "X[1,3,2,4] X[3,1,4,2]"
FIGURE_EIGHT = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
LOOPY = "X[1,4,2,5] X[6,4,1,3] X[2,6,3,5]"
STABLE_UNKNOT = "X[6,2,1,1] X[5,3,6,2] X[4,4,5,3]"


def _curls(n):
    """The PD code of an unknot with ``n`` negative curls in a row."""
    return " ".join(
        f"X[{2 * i + 1},{2 * i + 2},{2 * i + 2},{(2 * i + 3) % (2 * n)}]"
        for i in range(n)
    )


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBracketCommand:
    def test_text_output(self, capsys):
        rc, out, err = run(capsys, "bracket", LH_TREFOIL)
        assert rc == 0
        assert out.strip() == "A^7 - A^3 - A^-5"
        assert err == ""

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "bracket", "--json", KINK_POS)
        assert rc == 0
        payload = json.loads(out)
        assert payload["engine"] == "fast"
        assert payload["pd"] == KINK_POS
        assert payload["bracket"]["pairs"] == [[3, -1]]

    def test_engine_selection(self, capsys):
        for engine in ("fast", "statesum", "subgraph"):
            rc, out, _ = run(capsys, "bracket", "--engine", engine, HOPF)
            assert rc == 0
            assert out.strip() == "-A^4 - A^-4"

    def test_selftest_agrees(self, capsys):
        rc, out, err = run(capsys, "bracket", "--selftest", LH_TREFOIL)
        assert rc == 0
        assert "engines agree" in out
        assert out.count("A^7 - A^3 - A^-5") == 3
        assert err == ""

    def test_selftest_json(self, capsys):
        rc, out, _ = run(capsys, "bracket", "--selftest", "--json", KINK_POS)
        assert rc == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert sorted(payload["engines"]) == ["fast", "statesum", "subgraph"]

    def test_selftest_past_twenty_crossings(self, capsys):
        # the checkers' default budget is the sweep's state budget,
        # which a 24-crossing closure stays far below
        (d,) = seeded_closures(37, 1, [24])
        rc, out, err = run(capsys, "bracket", "--selftest", serialize(d))
        assert rc == 0
        assert out.endswith("engines agree\n")
        assert err == ""

    @pytest.mark.parametrize("width", [3, 4])
    def test_selftest_on_wide_figure_eight_cables(self, capsys, width):
        # 36 and 64 crossings, but the checkers hold at most the
        # sweep's 132 and 1,430 pairings per depth
        pd = serialize(cable(parse_pd(FIGURE_EIGHT), width))
        rc, out, err = run(capsys, "bracket", "--selftest", pd)
        assert (rc, err) == (0, "")
        assert out.endswith("engines agree\n")

    @pytest.mark.parametrize(
        "argv", [["--selftest"], ["--engine", "statesum"]],
        ids=["selftest", "statesum"])
    def test_one_cap_for_every_engine(self, capsys, argv):
        # the width-4 Hopf cable peaks at 42 pairings in the sweep and
        # in each checker, so one number passes or trips them all
        pd = serialize(cable(parse_pd(HOPF), 4))
        assert run(capsys, "bracket", *argv, "--cap", "42", pd)[0] == 0
        rc, out, err = run(capsys, "bracket", *argv, "--cap", "41", pd)
        assert (rc, out) == (3, "")
        assert err == (
            "resource cap exceeded: open-boundary pairings exceed "
            "max_states=41\n"
        )


class TestInputForms:
    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(KINK_POS + "\n"))
        rc, out, _ = run(capsys, "bracket", "-")
        assert rc == 0
        assert out.strip() == "-A^3"

    def test_file_path(self, capsys, tmp_path):
        f = tmp_path / "diagram.pd"
        f.write_text(LH_TREFOIL + "\n")
        rc, out, _ = run(capsys, "bracket", str(f))
        assert rc == 0
        assert out.strip() == "A^7 - A^3 - A^-5"

    def test_loop_token(self, capsys):
        rc, out, _ = run(capsys, "bracket", "O O")
        assert rc == 0
        assert out.strip() == "-A^2 - A^-2"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        rc, out, err = run(capsys, "bracket", "X[1,2]")
        assert rc == 2
        assert "error: crossing needs four arc labels" in err

    def test_signed_label_is_two(self, capsys):
        rc, out, err = run(capsys, "bracket", LH_TREFOIL.replace("3]", "+3]"))
        assert (rc, out) == (2, "")
        assert "error: non-integer arc label in 'X[5,2,6,+3]'" in err

    def test_invalid_diagram_is_two(self, capsys):
        rc, _, err = run(capsys, "bracket", "X[1,2,1,2]")
        assert rc == 2
        assert "genus-1" in err

    def test_cap_exceeded_is_three(self, capsys):
        rc, _, err = run(
            capsys, "bracket", "--engine", "statesum", "--cap", "1", LH_TREFOIL
        )
        assert rc == 3
        assert err == (
            "resource cap exceeded: open-boundary pairings exceed "
            "max_states=1\n"
        )

    @pytest.mark.parametrize("argv", [
        ["cjones", "--n", "3", "--cap", "5", LH_TREFOIL],
        ["adequacy", "--cap", "5", LH_TREFOIL],
    ])
    def test_state_cap_on_colored_values_is_three(self, capsys, argv):
        # the colored values and the battery run the sweep, so their
        # cap is the sweep's live-state budget
        rc, out, err = run(capsys, *argv)
        assert rc == 3
        assert out == ""
        assert "resource cap exceeded" in err
        assert "exceed max_states=5" in err

    def test_value_error_is_two(self, capsys):
        rc, _, err = run(capsys, "cjones", "--n", "-1", KINK_POS)
        assert rc == 2
        assert "error: cable width must be nonnegative" in err

    @pytest.mark.parametrize("argv, message", [
        (["adequacy", "--series", "-1", KINK_POS],
         "stable-tail series length cannot be negative"),
        (["verify", "--workers", "0"], "need at least one worker"),
        (["verify", "--workers", "-2"], "need at least one worker"),
        *[(argv, "resource cap cannot be negative") for argv in (
            ["bracket", "--cap", "-1", KINK_POS],
            ["bracket", "--selftest", "--cap", "-1", LH_TREFOIL],
            ["adequacy", "--cap", "-3", KINK_POS],
            ["adequacy", "--cap", "-1", ""],
            ["cjones", "--n", "2", "--cap", "-1", LH_TREFOIL],
            ["cjones", "--n", "2", "--cap", "-1", "O"],
            ["verify", "--cap", "-1"],
        )],
    ], ids=["series-negative", "workers-zero", "workers-negative",
            "cap-bracket", "cap-selftest", "cap-adequacy", "cap-adequacy-empty",
            "cap-cjones", "cap-cjones-loop", "cap-verify"])
    def test_counts_below_their_floor_are_two(self, capsys, argv, message):
        # like --nmax 0: a count out of range is bad usage, not a
        # silently different run; a negative cap is rejected before any
        # work, whether or not an engine would reach it on this input
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unreadable_input_file_is_two(self, capsys, tmp_path):
        rc, out, err = run(capsys, "bracket", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_input_file_is_two(self, capsys, tmp_path):
        # an argument that cannot be PD text is a path, even a missing one
        missing = tmp_path / "knot.pd"
        rc, out, err = run(capsys, "bracket", str(missing))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "knot.pd" in err and "malformed" not in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_engine_disagreement_is_one(self, capsys, monkeypatch, json_flag):
        monkeypatch.setitem(
            bracket_module.BRACKET_ENGINES, "subgraph",
            lambda diagram, **limits: LaurentPoly({0: 1}),
        )
        rc, out, err = run(capsys, "bracket", "--selftest", *json_flag,
                           LH_TREFOIL)
        assert rc == 1
        if json_flag:
            assert json.loads(out)["agree"] is False
            assert '"agree":false' in out
        else:
            assert out.endswith("ENGINES DISAGREE\n")
        assert err == (
            "invariant failure: engine-agreement: bracket engines "
            "disagree on this input\n"
        )

    def test_adequacy_invariant_violation_is_one(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantViolation("cable-degree-ceiling", "planted")

        monkeypatch.setattr(cli, "analyze", broken)
        rc, out, err = run(capsys, "adequacy", LH_TREFOIL)
        assert rc == 1
        assert out == ""
        assert err == "invariant failure: cable-degree-ceiling: planted\n"

    def test_verify_json_on_a_broken_corpus_is_one(self, capsys, tmp_path):
        f = tmp_path / "broken.corpus"
        f.write_text(f"not-planar\tX[1,2,1,2]\nfine\t{KINK_POS}\n")
        rc, out, err = run(
            capsys, "verify", "--json", "--nmax", "1", "--corpus", str(f)
        )
        assert rc == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert [e["ok"] for e in payload["entries"]] == [False, True]
        assert err == "invariant failure: parse on not-planar\n"

    def test_missing_corpus_file_is_two(self, capsys, tmp_path):
        missing = tmp_path / "missing.tsv"
        rc, out, err = run(capsys, "verify", "--corpus", str(missing))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.tsv" in err


class TestProcess:
    """``python -m kauffman.cli`` as its own process: ``sys.exit(main())``
    turns the return code into the exit status."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def _python(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.SRC, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def _spawn(self, *argv):
        return self._python("-m", "kauffman.cli", *argv)

    def test_exit_codes_and_streams(self):
        ok = self._spawn("bracket", LH_TREFOIL)
        assert (ok.returncode, ok.stdout, ok.stderr) == (
            0, "A^7 - A^3 - A^-5\n", ""
        )
        bad = self._spawn("bracket", "X[1,2,3]")
        assert bad.returncode == 2 and bad.stdout == ""
        assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1
        assert "Traceback" not in bad.stderr
        capped = self._spawn("bracket", "--cap", "0", KINK_POS)
        assert capped.returncode == 3 and capped.stdout == ""
        assert capped.stderr.startswith("resource cap exceeded")

    @pytest.mark.parametrize(
        "engine", [["--engine", "statesum"], ["--selftest"]])
    def test_checker_recursion_is_a_cap(self, tmp_path, engine):
        # 1,200 negative curls pass a raised --cap, but the checkers'
        # depth-first descent would recurse past the interpreter's limit
        path = tmp_path / "curls.pd"
        path.write_text(_curls(1200))
        capped = self._spawn("bracket", *engine, "--cap", "5000", str(path))
        assert capped.returncode == 3 and capped.stdout == ""
        assert capped.stderr.count("\n") == 1
        assert capped.stderr.startswith("resource cap exceeded: state sum")
        assert "recursion limit" in capped.stderr

    def test_checker_memory_is_bounded_under_any_cap(self, tmp_path):
        # 300 negative curls hold one pairing per depth, so no state
        # budget stops the checkers, but their live histograms would
        # reach about 4 * 10**9 bits, a 570 MB process; the fixed bound
        # on those bits trips at 2**31, inside a 512 MiB address space
        path = tmp_path / "curls.pd"
        path.write_text(_curls(300))
        capped = self._python("-c", (
            "import resource, sys\n"
            "limit = 512 << 20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from kauffman.cli import main\n"
            "sys.exit(main(sys.argv[1:]))"
        ), "bracket", "--engine", "statesum", "--cap", "1000000", str(path))
        assert (capped.returncode, capped.stdout) == (3, "")
        assert capped.stderr == (
            "resource cap exceeded: memos exceed 2147483648 histogram bits\n"
        )

    def test_import_leaves_out_the_process_pool(self):
        # only verify --workers N uses it, and loading it costs every
        # command about 2 MB
        probe = self._python("-c", (
            "import sys, kauffman.cli; print(sorted(m for m in "
            "('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))"
        ))
        assert (probe.returncode, probe.stdout) == (0, "[]\n")


class TestOptionRegistration:
    """Each subcommand registers only the shared options it reads."""

    @pytest.mark.parametrize("argv", [
        ["bracket", "--workers", "2", KINK_POS],
        ["cjones", "--n", "1", "--workers", "2", KINK_POS],
        ["adequacy", "--workers", "2", KINK_POS],
        ["cable", "--n", "2", "--workers", "2", KINK_POS],
        ["cable", "--n", "2", "--engine", "fast", KINK_POS],
        ["cable", "--n", "2", "--cap", "5", KINK_POS],
        ["verify", "--engine", "fast"],
        ["cjones", "--n", "1", "--engine", "fast", KINK_POS],
        ["adequacy", "--engine", "fast", KINK_POS],
    ])
    def test_unregistered_option_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_registered_options_still_parse(self, capsys):
        rc, out, _ = run(
            capsys, "adequacy", "--cap", "20", "--nmax", "1", KINK_POS,
        )
        assert rc == 0
        assert "A-adequate: True" in out


class TestParserReuse:
    """``main`` shares one parser across calls, so nothing of one call's
    options or usage errors may reach the next."""

    TREFOIL = (0, "A^7 - A^3 - A^-5\n", "")

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("bad", [
        ["bracket", "--workers", "2", KINK_POS],
        ["cjones", KINK_POS],
    ])
    def test_valid_calls_after_a_usage_error(self, capsys, bad):
        with pytest.raises(SystemExit) as info:
            cli.main(bad)
        assert info.value.code == 2
        capsys.readouterr()
        assert run(capsys, "bracket", LH_TREFOIL) == self.TREFOIL
        assert run(capsys, "cjones", "--n", "1", LH_TREFOIL) == (
            0, "q^-1 + q^-3 - q^-4\n", ""
        )

    def test_options_do_not_carry_over(self, capsys):
        rc, out, _ = run(
            capsys, "bracket", "--json", "--engine", "statesum", "--cap",
            "20", LH_TREFOIL,
        )
        assert rc == 0
        assert json.loads(out)["engine"] == "statesum"
        args = cli._build_parser().parse_args(["bracket", LH_TREFOIL])
        assert (args.json, args.engine, args.cap) == (False, "fast", None)
        assert run(capsys, "bracket", LH_TREFOIL) == self.TREFOIL

    def test_a_cap_does_not_carry_over(self, capsys):
        for engine, cap in (("statesum", "1"), ("fast", "1")):
            rc, _, err = run(
                capsys, "bracket", "--engine", engine, "--cap", cap,
                LH_TREFOIL,
            )
            assert rc == 3
            assert "resource cap exceeded" in err
            rerun = run(capsys, "bracket", "--engine", engine, LH_TREFOIL)
            assert rerun == self.TREFOIL


class TestCjonesCommand:
    def test_reduced_text(self, capsys):
        rc, out, _ = run(capsys, "cjones", "--n", "1", LH_TREFOIL)
        assert rc == 0
        assert out.strip() == "q^-1 + q^-3 - q^-4"

    def test_reduced_json(self, capsys):
        rc, out, _ = run(capsys, "cjones", "--n", "1", "--json", LH_TREFOIL)
        payload = json.loads(out)
        assert rc == 0
        assert payload["form"] == "reduced"
        assert payload["q_convertible"] is True
        assert payload["variable"] == "q"
        assert payload["width"] == 1

    def test_reduced_stays_in_bracket_variable(self, capsys):
        rc, out, _ = run(capsys, "cjones", "--n", "1", HOPF)
        assert rc == 0
        assert out.strip() == "-A^-2 - A^-10"

    def test_reduced_json_flags_non_convertible(self, capsys):
        rc, out, _ = run(capsys, "cjones", "--n", "1", "--json", HOPF)
        payload = json.loads(out)
        assert payload["q_convertible"] is False
        assert payload["variable"] == "A"

    def test_cap_bounds_the_simplified_diagram(self, capsys):
        # a 3-crossing unknot: its width-6 cables would need more than
        # 100 live states, the crossingless unknot it simplifies to none
        rc, out, _ = run(
            capsys, "cjones", "--n", "6", "--cap", "100", STABLE_UNKNOT
        )
        assert (rc, out) == (0, "1\n")
        rc, _, _ = run(
            capsys, "cjones", "--n", "6", "--cap", "100", "--unreduced",
            STABLE_UNKNOT,
        )
        assert rc == 3

    @pytest.mark.parametrize("braid,crossings,closed", [
        ((3, [1, 1, 1, 2]), 3, lambda n: masbaum_trefoil(n, 1)),
        ((3, [1, -1, 1, 1, 1, 2]), 3, lambda n: masbaum_trefoil(n, 1)),
        ((4, [-1, -1, -1, -2, 3]), 3, lambda n: masbaum_trefoil(n, -1)),
        ((4, [1, -2, 1, -2, 3]), 4, habiro_figure_eight),
        ((4, [1, -2, 2, -2, 1, -2, -3]), 4, habiro_figure_eight),
    ])
    def test_padded_closures_match_closed_forms(
        self, capsys, braid, crossings, closed
    ):
        # stabilized and R2-padded closures of the trefoils and the
        # figure-eight, through the simplifying path of the command
        diagram = braid_closure(*braid)
        assert simplify(diagram).crossing_count == crossings
        for n in (1, 2, 3, 4):
            rc, out, _ = run(
                capsys, "cjones", "--n", str(n), "--json", serialize(diagram)
            )
            doc = json.loads(out)
            assert (rc, doc["variable"]) == (0, "q")
            assert dict(map(tuple, doc["value"]["pairs"])) == closed(n)

    def test_unreduced_text(self, capsys):
        rc, out, _ = run(capsys, "cjones", "--n", "2", "--unreduced", LOOPY)
        assert rc == 0
        assert out.strip() == "A^2 + A^-6 + A^-8"

    def test_unreduced_json(self, capsys):
        rc, out, _ = run(
            capsys, "cjones", "--n", "2", "--unreduced", "--json", LOOPY
        )
        payload = json.loads(out)
        assert payload["form"] == "unreduced"
        assert payload["variable"] == "A"
        assert payload["value"]["pairs"] == [[2, 1], [-6, 1], [-8, 1]]


class TestAdequacyCommand:
    def test_text_report(self, capsys):
        rc, out, _ = run(capsys, "adequacy", KINK_POS)
        assert rc == 0
        assert "A-adequate: True   B-adequate: False" in out
        assert "width 2: degree 2 = ceiling 2" in out
        assert "detector (width 3): 1" in out

    def test_text_report_shows_strict_gap(self, capsys):
        rc, out, _ = run(capsys, "adequacy", LOOPY)
        assert rc == 0
        assert "A-adequate: False   B-adequate: False" in out
        assert "width 2: degree 2 < ceiling 6" in out

    def test_json_matches_report(self, capsys):
        from kauffman.adequacy import analyze
        from kauffman.diagram import parse_pd

        rc, out, _ = run(capsys, "adequacy", "--json", KINK_POS)
        assert rc == 0
        assert json.loads(out) == analyze(parse_pd(KINK_POS)).to_json()

    def test_nmax_and_series(self, capsys):
        rc, out, _ = run(
            capsys, "adequacy", "--nmax", "2", "--series", "1", KINK_POS
        )
        assert rc == 0
        assert "stable-tail prefix: [1]" in out
        assert "width 3" not in out


class TestCableCommand:
    def test_frozen_output(self, capsys):
        rc, out, _ = run(capsys, "cable", "--n", "2", KINK_POS)
        assert rc == 0
        assert out.strip() == "X[1,8,2,7] X[5,5,6,8] X[2,4,3,3] X[6,1,7,4]"

    def test_width_one_echoes(self, capsys):
        rc, out, _ = run(capsys, "cable", "--n", "1", LH_TREFOIL)
        assert rc == 0
        assert out.strip() == LH_TREFOIL


@pytest.fixture(scope="module")
def full_run():
    # one full battery over the bundled corpus, shared by the verify
    # assertions; capsys is function-scoped so capture by hand
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify"])
    return rc, buf.getvalue()


class TestVerifyCommand:
    def test_all_entries_pass(self, full_run):
        rc, out = full_run
        assert rc == 0
        assert "verified 12 entries: 12 ok, 0 failed" in out
        assert "FAIL" not in out

    def test_check_counts(self, full_run):
        _, out = full_run
        assert "ok   empty (5 checks)" in out
        assert "ok   kink-positive (8 checks)" in out
        assert "ok   figure-eight (6 checks)" in out

    def test_json_determinism_across_workers(self, capsys):
        rc1, out1, _ = run(
            capsys, "verify", "--json", "--nmax", "2", "--workers", "1"
        )
        rc2, out2, _ = run(
            capsys, "verify", "--json", "--nmax", "2", "--workers", "2"
        )
        assert rc1 == rc2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["ok"] is True
        assert len(payload["entries"]) == 12

    def test_workers_capped_at_the_entry_count(self, capsys, monkeypatch):
        # a forking pool starts every worker it is asked for, so a large
        # --workers must not reach it; the fake maps serially
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", FakePool
        )
        serial = run(capsys, "verify", "--json", "--nmax", "2")
        wide = run(
            capsys, "verify", "--json", "--nmax", "2", "--workers", "1000"
        )
        assert asked == [12]
        assert wide == serial

    def test_corpus_file(self, capsys, tmp_path):
        f = tmp_path / "extra.corpus"
        f.write_text(
            "# one fine knot and a blank line\n"
            "\n"
            f"my-trefoil\t{LH_TREFOIL}\n"
        )
        rc, out, _ = run(capsys, "verify", "--corpus", str(f), "--nmax", "2")
        assert rc == 0
        assert "ok   my-trefoil" in out
        assert "verified 1 entries: 1 ok, 0 failed" in out

    def test_corpus_file_with_bad_entry_fails(self, capsys, tmp_path):
        f = tmp_path / "broken.corpus"
        f.write_text("not-planar\tX[1,2,1,2]\n")
        rc, out, err = run(capsys, "verify", "--corpus", str(f))
        assert rc == 1
        assert "FAIL not-planar: parse:" in out
        assert "invariant failure: parse on not-planar" in err

    def test_malformed_corpus_file_is_a_usage_error(self, capsys, tmp_path):
        f = tmp_path / "mangled.corpus"
        f.write_text("just-a-name-without-a-code\n")
        rc, _, err = run(capsys, "verify", "--corpus", str(f))
        assert rc == 2
        assert "mangled.corpus:1" in err

    def test_corpus_entry_without_a_name_is_refused(self, tmp_path):
        f = tmp_path / "nameless.corpus"
        f.write_text(f"# a code with no name\n\t{LH_TREFOIL}\n")
        with pytest.raises(ValueError) as err:
            load_corpus_file(str(f))
        assert str(err.value) == f"{f}:2: empty entry name"


class TestVerifyFailures:
    """Each check of the verify battery, made to fail: the entry and the
    document say ``"ok": false`` and name the check, and the exit code
    is 1."""

    def _failed(self, capsys, *extra, pd=LH_TREFOIL, tmp_path=None):
        argv = ["verify", "--json", "--nmax", "2", *extra]
        if tmp_path is not None:
            f = tmp_path / "one.corpus"
            f.write_text(f"entry\t{pd}\n")
            argv += ["--corpus", str(f)]
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        (entry,) = doc["entries"]
        assert entry["ok"] is False
        failure = entry["failure"]
        assert err == (
            f"invariant failure: {failure['check']} on {entry['name']}\n"
        )
        return failure

    @staticmethod
    def _patch_analyze(monkeypatch, **fields):
        real = cli.analyze

        def patched(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), **fields)

        monkeypatch.setattr(cli, "analyze", patched)

    def test_engine_agreement(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(
            bracket_module.BRACKET_ENGINES, "subgraph",
            lambda diagram, **limits: LaurentPoly({0: 1}),
        )
        failure = self._failed(capsys, tmp_path=tmp_path)
        assert failure["check"] == "engine-agreement"
        assert failure["message"].startswith("engines disagree: ")

    def test_engine_agreement_on_the_cable(
        self, capsys, monkeypatch, tmp_path
    ):
        real = bracket_module.bracket_subgraph
        monkeypatch.setitem(
            bracket_module.BRACKET_ENGINES, "subgraph",
            lambda diagram, **limits: real(diagram, **limits)
            if diagram.crossing_count <= 3 else LaurentPoly({0: 1}),
        )
        failure = self._failed(capsys, tmp_path=tmp_path)
        assert failure == {
            "check": "engine-agreement",
            "message": "engines disagree on the width-2 cable",
        }

    def test_mirror_duality(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "mirror", lambda diagram: diagram)
        failure = self._failed(capsys, tmp_path=tmp_path)
        assert failure["check"] == "mirror-duality"

    def test_labels(self, capsys, monkeypatch):
        # the left trefoil is A- and B-adequate
        monkeypatch.setattr(cli, "bundled", lambda: (
            CorpusEntry("relabelled", LH_TREFOIL, a_adequate=True,
                        b_adequate=False),
        ))
        failure = self._failed(capsys)
        assert failure == {
            "check": "labels",
            "message": "stored B-flag False, computed True",
        }

    def test_t_dichotomy(self, capsys, monkeypatch, tmp_path):
        # an A-adequate diagram with a vanishing detector
        self._patch_analyze(monkeypatch, t_poly=LaurentPoly())
        failure = self._failed(capsys, tmp_path=tmp_path)
        assert failure["check"] == "t-dichotomy"

    @pytest.mark.parametrize(
        "first,message",
        [
            (0, "leading tail coefficient 0 inconsistent with "
                "A-adequate=True"),
            (2, "A-adequate entries lead with +-1, got 2"),
        ],
    )
    def test_first_tail_coefficient(
        self, capsys, monkeypatch, tmp_path, first, message
    ):
        self._patch_analyze(monkeypatch, beta_series=(first,))
        failure = self._failed(capsys, tmp_path=tmp_path)
        assert failure == {
            "check": "first-tail-coefficient", "message": message,
        }

    def test_invariant_violation(self, capsys, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise InvariantViolation("adequacy-consistency", "planted")

        monkeypatch.setattr(cli, "analyze", broken)
        failure = self._failed(capsys, tmp_path=tmp_path)
        assert failure == {
            "check": "adequacy-consistency",
            "message": "adequacy-consistency: planted",
        }

    def test_resource_cap(self, capsys, tmp_path):
        # the trefoil's pairings fit in 2, its width-2 cable's do not
        failure = self._failed(capsys, "--cap", "2", tmp_path=tmp_path)
        assert failure == {
            "check": "resource-cap",
            "message": "open-boundary pairings exceed max_states=2",
        }
