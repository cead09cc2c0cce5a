"""Every ``$ kauffman ...`` example in README.md, run through the CLI.

Each example's documented output is compared with what ``cli.main``
prints, line by line.  A ``...`` line in the documented output stands
for any number of printed lines.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from kauffman import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ kauffman "


def _examples():
    """``(command, documented output lines)`` for each prompt line in
    the README's fenced blocks."""
    examples = []
    in_block = False
    output = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            output = None
        elif in_block and line.startswith(PROMPT):
            output = []
            examples.append((line[len(PROMPT):], output))
        elif in_block and line.startswith("$ "):
            raise AssertionError(f"unrecognised README prompt: {line}")
        elif output is not None:
            output.append(line)
    for _, lines in examples:
        while lines and not lines[-1].strip():
            lines.pop()
    return examples


def _matches(expected, printed):
    """True when ``printed`` equals ``expected`` with each ``...``
    line standing for any run of lines."""
    if not expected:
        return not printed
    if expected[0] == "...":
        return any(
            _matches(expected[1:], printed[k:])
            for k in range(len(printed) + 1)
        )
    return (
        bool(printed)
        and printed[0] == expected[0]
        and _matches(expected[1:], printed[1:])
    )


EXAMPLES = _examples()


def test_readme_has_examples():
    commands = {shlex.split(command)[0] for command, _ in EXAMPLES}
    assert commands == {"bracket", "cjones", "adequacy", "cable", "verify"}


@pytest.mark.parametrize(
    "command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES]
)
def test_readme_example(command, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(shlex.split(command))
    assert rc == 0
    printed = out.getvalue().splitlines()
    assert _matches(expected, printed), "\n".join(printed)


def test_ellipsis_matching():
    assert _matches(["a", "...", "d"], ["a", "b", "c", "d"])
    assert _matches(["a", "...", "d"], ["a", "d"])
    assert not _matches(["a", "...", "d"], ["a", "b", "c"])
    assert not _matches(["a", "b"], ["a", "b", "c"])
