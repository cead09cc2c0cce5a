"""Output checks and failure accounting for the benchmark.

Each op's stdout is checked in up to two ways, after the timed passes:

* against the committed digest of its canonical ``--json`` stdout,
  where ``reference_digests.json`` holds one (every op of the default
  seed, and the corpus ops of ``sweep-wide`` under any seed);
* against the bracket of the input computed here by a state sum that
  shares no code with the package (inputs have at most 14 crossings).
  ``bracket --selftest`` must print it for every engine; ``adequacy``
  must agree with it at width 1.  ``cjones`` prints a cable value the
  state sum cannot reach, so for knots it is checked to be 1 at q = 1.

An op fails when it raises, exits non-zero, or prints output that
differs from its reference.  Failures of a class listed in
``KNOWN_FAILURES`` are counted but leave the run correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

DIGESTS = Path(__file__).with_name("reference_digests.json")
DEFAULT_SEED = 1

# Defects present when the benchmark was defined.  Fixing one lowers
# failed_share; an op that fails any other way makes the run incorrect.
KNOWN_FAILURES = (
    {
        "workload": "sweep-wide",
        "error": "InexactDivisionError",
        "min_components": 2,
        "why": "jones.reduced raises on many multi-component closures "
               "at width >= 3; the CLI exits 1 with a traceback",
    },
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_key(argv) -> str:
    return _sha("\0".join(argv))


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def digests_of(results) -> dict[str, str]:
    """Digest of every successful op's stdout, keyed by its argv."""
    return {
        op_key(op.argv): _sha(r.stdout)
        for op, r in results if r.code == 0 and r.error is None
    }


def statesum(pd: str) -> dict[int, int]:
    """Normalized Kauffman bracket as {exponent: coefficient}, summed
    over all 2^c resolutions."""
    xs = [
        tuple(map(int, m))
        for m in re.findall(r"X\[(\d+),(\d+),(\d+),(\d+)\]", pd)
    ]
    c = len(xs)
    ends: dict[int, list[int]] = {}
    for ci, x in enumerate(xs):
        for si, label in enumerate(x):
            ends.setdefault(label, []).append(4 * ci + si)
    along = [0] * (4 * c)
    for p, q in ends.values():
        along[p], along[q] = q, p
    counts: Counter = Counter()
    for mask in range(1 << c):
        # the A smoothing joins slots 0-1 and 2-3, the B smoothing 3-0
        # and 1-2, so a port's partner across the crossing is p^1 or p^3
        join = [p ^ (3 if mask >> (p >> 2) & 1 else 1) for p in range(4 * c)]
        seen = [False] * (4 * c)
        loops = 0
        for start in range(4 * c):
            if seen[start]:
                continue
            loops += 1
            p = start
            while not seen[p]:
                seen[p] = seen[join[p]] = True
                p = along[join[p]]
        counts[(bin(mask).count("1"), loops)] += 1
    # delta = -A^2 - A^-2; a state with b B-smoothings and k loops
    # contributes A^(c - 2b) delta^(k - 1)
    powers = [{0: 1}]
    for _ in range(2 * c + 1):
        nxt: dict[int, int] = {}
        for e, v in powers[-1].items():
            nxt[e + 2] = nxt.get(e + 2, 0) - v
            nxt[e - 2] = nxt.get(e - 2, 0) - v
        powers.append(nxt)
    total: dict[int, int] = {}
    for (b, k), n in counts.items():
        for e, v in powers[k - 1].items():
            key = e + c - 2 * b
            total[key] = total.get(key, 0) + n * v
    return {e: v for e, v in total.items() if v}


def _pairs(poly_json) -> dict[int, int]:
    return {e: v for e, v in poly_json["pairs"]}


def check_output(workload: str, op, stdout: str, bracket) -> str | None:
    """Why ``stdout`` is wrong for ``op``, or None.  ``bracket`` is the
    state-sum bracket of the op's input, or None for corpus inputs."""
    out = json.loads(stdout)
    if workload == "selftest-exhaustive":
        if not out["agree"]:
            return "engines disagree"
        for name, value in out["engines"].items():
            if _pairs(value) != bracket:
                return f"{name} engine differs from the state sum"
    elif workload == "battery-small":
        hi = max(bracket)
        if out["crossings"] != op.crossings:
            return "crossing count differs"
        if not out["min_bound"] <= min(bracket) <= hi <= out["max_bound"]:
            return "bracket escapes the reported exponent window"
        if out["actual_degree"]["1"] != hi - 3 * op.writhe:
            return "width-1 degree differs from the state sum"
        if out["cable_top"]["1"] != bracket.get(out["max_bound"], 0):
            return "width-1 top coefficient differs from the state sum"
    elif op.components == 1:
        if sum(_pairs(out["value"]).values()) != 1:
            return "knot value is not 1 at q = 1"
    return None


def is_known(workload: str, op, error: str | None) -> bool:
    return any(
        k["workload"] == workload and k["error"] == error
        and op.components >= k["min_components"]
        for k in KNOWN_FAILURES
    )


def account(workload: str, ops, results, digests: dict[str, str]) -> dict:
    """Check one pass's results; return the failures by class, the
    indices of the failed ops, and the failures of no known class with
    their indices."""
    classes: Counter = Counter()
    failed: set[int] = set()
    unknown: list[str] = []
    unknown_ops: list[int] = []
    brackets: dict[str, dict[int, int]] = {}
    for i, (op, r) in enumerate(zip(ops, results)):
        reason = None
        if r.error is not None:
            reason = r.error
        elif r.code != 0:
            reason = f"exit {r.code}"
        else:
            want = digests.get(op_key(op.argv))
            if want is not None and want != _sha(r.stdout):
                reason = "digest mismatch"
            elif op.source == "braid":
                if op.pd not in brackets:
                    brackets[op.pd] = statesum(op.pd)
                reason = check_output(
                    workload, op, r.stdout, brackets[op.pd]
                )
        if reason is None:
            continue
        classes[reason] += 1
        failed.add(i)
        if not is_known(workload, op, r.error):
            unknown.append(f"{reason}: {' '.join(op.argv[:-1])} {op.pd!r}")
            unknown_ops.append(i)
    return {"by_class": dict(classes), "failed_ops": failed,
            "unknown": unknown, "unknown_ops": unknown_ops}
