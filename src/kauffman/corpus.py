"""Bundled reference diagrams and the tab-separated corpus format.

Every entry carries the expected adequacy flags; the verification
command recomputes both predicates and refuses entries whose labels
disagree.  External corpus files hold one ``name<TAB>pd-code`` pair
per line (blank lines and ``#`` comments ignored) and carry no labels.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CorpusEntry", "bundled", "load_corpus_file"]


@dataclass(frozen=True)
class CorpusEntry:
    """A named diagram with optionally known adequacy flags."""

    name: str
    pd: str
    a_adequate: bool | None = None
    b_adequate: bool | None = None
    notes: str = ""


BUNDLED: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="empty",
        pd="",
        a_adequate=True,
        b_adequate=True,
        notes="no crossings and no circles; bracket 1 by convention",
    ),
    CorpusEntry(
        name="unknot-0",
        pd="O",
        a_adequate=True,
        b_adequate=True,
        notes="one crossingless circle",
    ),
    CorpusEntry(
        name="kink-positive",
        pd="X[1,1,2,2]",
        a_adequate=True,
        b_adequate=False,
        notes="single positive curl on the unknot",
    ),
    CorpusEntry(
        name="kink-negative",
        pd="X[1,2,2,1]",
        a_adequate=False,
        b_adequate=True,
        notes="single negative curl on the unknot",
    ),
    CorpusEntry(
        name="double-kink-positive",
        pd="X[1,3,2,2] X[3,1,4,4]",
        a_adequate=True,
        b_adequate=False,
        notes="two stacked positive curls, writhe 2",
    ),
    CorpusEntry(
        name="cancelling-kinks",
        pd="X[1,2,2,3] X[3,1,4,4]",
        a_adequate=False,
        b_adequate=False,
        notes="one curl of each sign, writhe 0, adequate on neither side",
    ),
    CorpusEntry(
        name="hopf-positive",
        pd="X[1,3,2,4] X[3,1,4,2]",
        a_adequate=True,
        b_adequate=True,
        notes="two-component alternating link, writhe 2",
    ),
    CorpusEntry(
        name="trefoil-left",
        pd="X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
        a_adequate=True,
        b_adequate=True,
        notes="alternating, writhe -3",
    ),
    CorpusEntry(
        name="trefoil-right",
        pd="X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]",
        a_adequate=True,
        b_adequate=True,
        notes="mirror image of trefoil-left",
    ),
    CorpusEntry(
        name="loopy-unknot",
        pd="X[1,4,2,5] X[6,4,1,3] X[2,6,3,5]",
        a_adequate=False,
        b_adequate=False,
        notes=(
            "unknot diagram whose all-A graph has three loops with an "
            "interleaved pair, so the top bracket coefficient survives "
            "despite the loops"
        ),
    ),
    CorpusEntry(
        name="figure-eight",
        pd="X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]",
        a_adequate=True,
        b_adequate=True,
        notes="amphichiral alternating knot, writhe 0",
    ),
    CorpusEntry(
        name="overlap-unlink",
        pd="X[1,3,2,4] X[2,3,1,4]",
        a_adequate=False,
        b_adequate=False,
        notes=(
            "two circles crossing twice, splittable; second entry whose "
            "top coefficient survives its loops"
        ),
    ),
)


def bundled() -> tuple[CorpusEntry, ...]:
    return BUNDLED


def load_corpus_file(path: str) -> list[CorpusEntry]:
    """Read ``name<TAB>pd-code`` lines; labels stay unknown."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected name<TAB>pd-code"
                )
            name, pd = line.split("\t", 1)
            name = name.strip()
            if not name:
                raise ValueError(f"{path}:{lineno}: empty entry name")
            entries.append(CorpusEntry(name=name, pd=pd.strip()))
    return entries
