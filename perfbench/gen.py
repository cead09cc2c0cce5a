"""Seeded workload inputs: braid closures as PD codes, and corpus knots.

A braid word on ``s`` strands is a list of signed generator indices
``±1 .. ±(s-1)``.  Its closure is connected exactly when every
generator appears, so words missing one are drawn again; nothing else
is filtered, and knots and links are kept as the seed draws them.

Strands run upward.  At generator ``i`` the strand entering bottom-left
(position ``i``) leaves top-right and the one entering bottom-right
leaves top-left; the four ends read counterclockwise are BL, BR, TR,
TL.  A positive letter puts the BL->TR strand over, so the understrand
enters at BR and the code is ``X[BR, TR, TL, BL]``; a negative letter
gives ``X[BL, BR, TR, TL]``.  With the package's slot convention the
crossing sign then equals the letter's sign, which :func:`validate`
checks.  Arcs are relabelled consecutively along each component, the
only labelling ``parse_pd`` accepts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes are stratified, so the seed changes which diagrams are drawn
# but not how many of each size: every engine's cost is driven by the
# crossing count, and a fixed size mix keeps a pass's cost steady
# across seeds.  Each entry is (crossings, strand counts to draw from,
# cable width or None, count).  Seeded sweep ops stay at width 3: at
# width 4 the sweep's cost on 3-crossing closures of one size ranges
# from 26 ms to 2.6 s with the greedy crossing order, which would make
# a pass's cost depend on the seed more than on the code.
SWEEP_CORPUS = (
    ("figure-eight", 4),
    ("trefoil-left", 4),
    ("loopy-unknot", 4),
)
PLANS = {
    "sweep-wide": ((3, (3, 4), 3, 12), (4, (3,), 3, 4)),
    "battery-small": tuple((c, (3, 4, 5), None, 60) for c in range(4, 9)),
    "selftest-exhaustive": (
        (9, (3, 4, 5), None, 30), (10, (3, 4, 5), None, 30),
        (11, (3, 4, 5), None, 20), (12, (3, 4, 5), None, 15),
        (13, (3, 4, 5), None, 10), (14, (3, 4, 5), None, 5),
    ),
}
WORKLOADS = tuple(PLANS)
# One small op of the workload's command, run before timing so that
# lazy set-up is done; it is not part of a pass.
WARMUP = {
    "sweep-wide": ("cjones", "--n", "2", "--json"),
    "battery-small": ("adequacy", "--json"),
    "selftest-exhaustive": ("bracket", "--selftest", "--json"),
}
WARMUP_INPUT = "figure-eight"


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass, with what the generator knows
    about its input independently of the package."""

    argv: tuple[str, ...]
    pd: str
    crossings: int
    components: int
    writhe: int | None
    source: str


def closure_pd(strands: int, word: list[int]) -> tuple[str, int, int]:
    """PD code of the closure of ``word``, its component count and
    its writhe."""
    pos = list(range(strands))
    fresh = strands
    succ: dict[int, int] = {}
    tuples: list[tuple[int, int, int, int]] = []
    for g in word:
        i = abs(g) - 1
        bl, br = pos[i], pos[i + 1]
        tr, tl = fresh, fresh + 1
        fresh += 2
        succ[bl] = tr
        succ[br] = tl
        tuples.append((br, tr, tl, bl) if g > 0 else (bl, br, tr, tl))
        pos[i], pos[i + 1] = tl, tr
    # closing the braid identifies each top arc with the bottom arc below
    top = {pos[j]: j for j in range(strands)}
    succ = {top.get(a, a): top.get(b, b) for a, b in succ.items()}
    label: dict[int, int] = {}
    components = 0
    for start in sorted(succ):
        if start in label:
            continue
        components += 1
        arc = start
        while arc not in label:
            label[arc] = len(label) + 1
            arc = succ[arc]
    text = " ".join(
        "X[{},{},{},{}]".format(*(label[top.get(a, a)] for a in t))
        for t in tuples
    )
    return text, components, sum(1 if g > 0 else -1 for g in word)


def draw_word(rng: random.Random, strands: int, length: int) -> list[int]:
    while True:
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(length)
        ]
        if len({abs(g) for g in word}) == strands - 1:
            return word


def _argv(workload: str, pd: str, width: int | None) -> tuple[str, ...]:
    if workload == "sweep-wide":
        return ("cjones", "--n", str(width), "--json", pd)
    if workload == "battery-small":
        return ("adequacy", "--json", pd)
    return ("bracket", "--selftest", "--json", pd)


def make_ops(workload: str, seed: int, corpus: dict[str, str]) -> list[Op]:
    """The fixed op list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "sweep-wide":
        for name, width in SWEEP_CORPUS:
            pd = corpus[name]
            ops.append(Op(_argv(workload, pd, width), pd,
                          pd.count("X["), 1, None, name))
    for crossings, strand_choices, width, count in PLANS[workload]:
        for _ in range(count):
            strands = rng.choice(strand_choices)
            word = draw_word(rng, strands, crossings)
            pd, components, w = closure_pd(strands, word)
            ops.append(Op(_argv(workload, pd, width), pd, crossings,
                          components, w, "braid"))
    rng.shuffle(ops)
    return ops


def validate(ops: list[Op], parse_pd) -> None:
    """Parse every code with the package and check that it agrees with
    what the generator built: crossings, components and writhe."""
    for op in ops:
        d = parse_pd(op.pd)
        signs = sum(x.sign for x in d.crossings)
        if (d.crossing_count != op.crossings
                or len(d.components) != op.components
                or (op.writhe is not None and signs != op.writhe)):
            raise ValueError(f"generated input disagrees with parse_pd: {op}")
