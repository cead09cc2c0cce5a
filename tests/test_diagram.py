"""Diagram parsing, validation, and the mirror/cable operations.

Frozen values below (writhes, signs, serializations) were computed once
from the slot conventions by hand on the small entries and are pinned so
any convention drift shows up as a loud failure rather than a silent
re-derivation.
"""

import hashlib
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffman.corpus import bundled
from kauffman.diagram import (
    DiagramError,
    InvalidDiagramError,
    LinkDiagram,
    PDSyntaxError,
    cable,
    from_slot_tuples,
    mirror,
    parse_pd,
    serialize,
    simplify,
    writhe,
)

from conftest import braid_closure, seeded_closures, small_pool
from test_rmoves import CORPUS_KNOTS, add_bigon, add_kink, seeded_knots

# name -> (writhe, component count, arc count, free loops, crossing signs)
FROZEN_SHAPE = {
    "empty": (0, 0, 0, 0, ()),
    "unknot-0": (0, 1, 0, 1, ()),
    "kink-positive": (1, 1, 2, 0, (1,)),
    "kink-negative": (-1, 1, 2, 0, (-1,)),
    "double-kink-positive": (2, 1, 4, 0, (1, 1)),
    "cancelling-kinks": (0, 1, 4, 0, (-1, 1)),
    "hopf-positive": (2, 2, 4, 0, (1, 1)),
    "trefoil-left": (-3, 1, 6, 0, (-1, -1, -1)),
    "trefoil-right": (3, 1, 6, 0, (1, 1, 1)),
    "loopy-unknot": (1, 1, 6, 0, (-1, 1, 1)),
    "figure-eight": (0, 1, 8, 0, (1, 1, -1, -1)),
    "overlap-unlink": (0, 2, 4, 0, (-1, 1)),
}


class TestParse:
    def test_empty_string_is_empty_diagram(self):
        d = parse_pd("")
        assert d.is_empty
        assert d == LinkDiagram.crossingless(0)
        assert serialize(d) == ""

    def test_whitespace_only_is_empty(self):
        assert parse_pd("  \n\t ").is_empty

    def test_single_loop_token(self):
        d = parse_pd("O")
        assert d.free_loops == 1
        assert not d.crossings
        assert serialize(d) == "O"

    def test_two_loop_tokens(self):
        d = parse_pd("O O")
        assert d.free_loops == 2
        assert d == LinkDiagram.crossingless(2)
        assert serialize(d) == "O O"

    @pytest.mark.parametrize("name", sorted(FROZEN_SHAPE))
    def test_frozen_shape(self, corpus_diagrams, name):
        d = corpus_diagrams[name]
        w, comps, arcs, loops, signs = FROZEN_SHAPE[name]
        assert writhe(d) == w
        assert len(d.components) == comps
        assert len({a for x in d.crossings for a in x.slots}) == arcs
        assert d.free_loops == loops
        assert tuple(c.sign for c in d.crossings) == signs

    def test_repr_equality_and_hash(self, corpus_diagrams):
        # a crossing is a named (slots, sign) pair: a diagram's repr,
        # equality and hash read only its crossings, components and
        # free loops, and hash as the plain tuple of those would
        d = corpus_diagrams["hopf-positive"]
        assert repr(d) == (
            "LinkDiagram(crossings=(Crossing(slots=(1, 3, 2, 4), sign=1), "
            "Crossing(slots=(3, 1, 4, 2), sign=1)), "
            "components=((1, 2), (3, 4)), free_loops=0)"
        )
        plain = ((((1, 3, 2, 4), 1), ((3, 1, 4, 2), 1)), ((1, 2), (3, 4)), 0)
        assert hash(d) == hash(plain)
        assert d == parse_pd(serialize(d)) and d != mirror(d)
        assert [x.sign for x in mirror(d).crossings] == [-1, -1]

    def test_corpus_round_trips(self):
        for entry in bundled():
            assert serialize(parse_pd(entry.pd)) == entry.pd

    def test_token_separation_is_flexible(self):
        a = parse_pd("X[1,1,2,2]")
        b = parse_pd("  X[1,1,2,2] \n ")
        assert a == b

    def test_tokens_are_case_sensitive(self):
        with pytest.raises(PDSyntaxError, match="malformed crossing token"):
            parse_pd("x[1,1,2,2]")


class TestParseErrors:
    @pytest.mark.parametrize(
        "code, exc, message",
        [
            ("X(1,1,2,2)", PDSyntaxError, "malformed crossing token"),
            ("X[1,2]", PDSyntaxError, "crossing needs four arc labels"),
            ("X[1,2,3,a]", PDSyntaxError, "non-integer arc label"),
            ("X[0,0,1,1]", PDSyntaxError, "arc labels must be positive"),
            # int() alone reads each of these as 3: a sign, an
            # underscore, an Arabic-Indic and a fullwidth digit
            ("X[1,1,2,+3]", PDSyntaxError, "non-integer arc label"),
            ("X[1,1,2,0_3]", PDSyntaxError, "non-integer arc label"),
            ("X[1,1,2,\u0663]", PDSyntaxError, "non-integer arc label"),
            ("X[1,1,2,\uff13]", PDSyntaxError, "non-integer arc label"),
            ("X[1,1,2,-3]", PDSyntaxError, "arc labels must be positive"),
            ("Y[1,1,2,2]", PDSyntaxError, "malformed crossing token"),
            # one crossing carries 2 arcs, so label 3 is out of range
            ("X[1,1,2,3]", InvalidDiagramError, "unexpected"),
            # all of 1..4 present but 1 appears once and 2 three times
            ("X[1,2,2,2] X[3,4,4,3]", InvalidDiagramError, "exactly twice"),
            # label 2 is skipped entirely
            ("X[1,1,3,3]", InvalidDiagramError, "missing"),
            (
                "X[1,1,2,2] X[3,3,4,4]",
                InvalidDiagramError,
                "disconnected",
            ),
            ("O X[1,1,2,2]", InvalidDiagramError, "free loops beside crossings"),
            # one crossing whose strand crosses itself: forced genus 1
            ("X[1,2,1,2]", InvalidDiagramError, "genus-1"),
            # the trace reads 1, 3, 2, 4, 5, 6 along the only component
            (
                "X[1,4,3,5] X[2,6,4,1] X[5,3,6,2]",
                InvalidDiagramError,
                "arc numbering is not consecutive along a component",
            ),
            # one component carries arcs 1 and 3, the other 2 and 4
            (
                "X[1,2,3,4] X[2,1,4,3]",
                InvalidDiagramError,
                "do not form a consecutive block",
            ),
            # trefoil code with one crossing rotated out of convention
            (
                "X[2,5,1,4] X[3,6,4,1] X[5,2,6,3]",
                InvalidDiagramError,
                "understrand would enter at slot 2",
            ),
        ],
    )
    def test_rejects(self, code, exc, message):
        with pytest.raises(exc, match=re.escape(message)):
            parse_pd(code)

    def test_leading_zeros_are_digits(self):
        assert parse_pd("X[01,4,2,5] X[3,6,4,1] X[5,2,6,003]") == parse_pd(
            "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
        )

    def test_virtual_trefoil_variant_rejected(self):
        # same arc multiset as the left trefoil, but the slot layout
        # forces genus 1; planarity must be checked before orientation
        with pytest.raises(InvalidDiagramError, match="genus-1 .virtual."):
            parse_pd("X[2,4,1,5] X[3,6,4,1] X[5,2,6,3]")

    def test_negative_free_loops_rejected(self):
        with pytest.raises(InvalidDiagramError, match="cannot be negative"):
            LinkDiagram.crossingless(-1)


def _random_layouts(seed, count):
    """PD codes of ``count`` random label layouts of 1-6 crossings: the
    labels ``1..2c``, each twice, dealt into the slots at random.  About
    one in ten has one label replaced by a random one up to ``2c + 1``."""
    rng = Random(seed)
    codes = []
    for _ in range(count):
        c = rng.randint(1, 6)
        labels = [a for a in range(1, 2 * c + 1) for _ in range(2)]
        rng.shuffle(labels)
        if rng.random() < 0.1:
            labels[rng.randrange(4 * c)] = rng.randint(1, 2 * c + 1)
        codes.append(" ".join(
            "X[{},{},{},{}]".format(*labels[i:i + 4])
            for i in range(0, 4 * c, 4)
        ))
    return codes


def _parse_outcome(code):
    """The components and signs a code parses to, or its error."""
    try:
        d = parse_pd(code)
    except DiagramError as err:
        return f"{type(err).__name__}: {err}"
    return f"{d.components} {[x.sign for x in d.crossings]}"


class TestParseOutcomesPinned:
    """Every outcome of validation, pinned as one digest: components,
    orientations and signs of the codes that parse, the error class and
    message of those that do not.  The random layouts reach every check
    of the component trace; the small pool, its mirrors and its width-2
    cables hold the short components whose orientation only the slot
    convention and the tie-break settle."""

    # 319 of the 3,000 random layouts parse; the rest fail every check
    DIGEST = "af214ab73fd2d9d76e6dcdc35851e1c8857745aad02db9592b581d6a6ea42634"

    def test_outcomes_are_pinned(self):
        pool = small_pool()
        codes = _random_layouts(2024, 3000) + [
            serialize(x) for d in pool for x in (d, mirror(d), cable(d, 2))
        ]
        record = "\n".join(f"{c}\t{_parse_outcome(c)}" for c in codes)
        assert hashlib.sha256(record.encode()).hexdigest() == self.DIGEST

    # seeded 4-14-crossing closures: 18 knots and 42 links of up to 4
    # components, their mirrors, their width-2 cables (up to 56
    # crossings) and, per closure, one code with a crossing rotated
    # and one with two labels swapped; 208 of the 300 codes parse
    CLOSURES_DIGEST = (
        "dfe3d7d99843e3c632ba6a5c99246048d1389532c7f972339d7b730bb352df17"
    )

    def test_closure_outcomes_are_pinned(self):
        closures = seeded_closures(2025, 60, range(4, 15))
        codes = [
            serialize(x) for d in closures for x in (d, mirror(d), cable(d, 2))
        ]
        rng = Random(2025)
        for d in closures:
            tuples = [x.slots for x in d.crossings]
            i = rng.randrange(len(tuples))
            rotated = list(tuples)
            rotated[i] = tuples[i][1:] + tuples[i][:1]
            a, b = rng.sample(range(1, 2 * d.crossing_count + 1), 2)
            swap = {a: b, b: a}
            swapped = [[swap.get(x, x) for x in t] for t in tuples]
            codes += [
                " ".join("X[{},{},{},{}]".format(*t) for t in ts)
                for ts in (rotated, swapped)
            ]
        record = "\n".join(f"{c}\t{_parse_outcome(c)}" for c in codes)
        assert hashlib.sha256(record.encode()).hexdigest() == (
            self.CLOSURES_DIGEST
        )


class TestMirror:
    def test_involution_on_corpus(self, corpus_diagrams):
        # the small pool and its cables hold the links whose short
        # components a fresh validation would orient the other way
        pool = list(small_pool())
        pool += [cable(d, n) for d in pool for n in (2, 3)]
        assert len(pool) == 276
        for d in [*corpus_diagrams.values(), *pool]:
            assert mirror(mirror(d)) == d

    def test_writhe_negates(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            assert writhe(mirror(d)) == -writhe(d)

    def test_signs_negate(self, corpus_diagrams):
        d = corpus_diagrams["figure-eight"]
        assert tuple(c.sign for c in mirror(d).crossings) == (-1, -1, 1, 1)

    def test_frozen_serializations(self, corpus_diagrams):
        cases = {
            "trefoil-left": "X[4,2,5,1] X[6,4,1,3] X[2,6,3,5]",
            "kink-positive": "X[2,1,1,2]",
            "hopf-positive": "X[4,1,3,2] X[2,3,1,4]",
            "unknot-0": "O",
        }
        for name, expected in cases.items():
            assert serialize(mirror(corpus_diagrams[name])) == expected

    # two-crossing links with a two-arc component that passes only
    # under the other one in the mirror: the rotated code leaves its
    # orientation open, and validation picks the reverse of the kept one
    OPEN_ORIENTATION = {
        "X[2,3,1,4] X[1,3,2,4]",
        "X[4,1,3,2] X[3,1,4,2]",
        "X[2,4,1,3] X[1,4,2,3]",
        "X[4,2,3,1] X[3,2,4,1]",
    }

    def test_equals_the_parse_of_the_rotated_code(self, corpus_diagrams):
        # mirror builds its result from the diagram's validated data;
        # validating the rotated slot tuples afresh gives the same one,
        # up to the orientation the code leaves open
        base = [d for d in corpus_diagrams.values() if d.crossings]
        base += [d for d in small_pool() if d.crossings]
        base += seeded_closures(11, 40)
        reoriented = set()
        for d in base + [cable(d, n) for d in base for n in (2, 3)]:
            m = mirror(d)
            # the overstrand enters at slot 3 if positive, 1 if negative
            expected = from_slot_tuples([
                x.slots[k:] + x.slots[:k]
                for x in d.crossings for k in [3 if x.sign > 0 else 1]
            ])
            assert serialize(m) == serialize(expected)
            assert m.partner == expected.partner
            assert m.components == expected.components
            signs = [x.sign for x in m.crossings]
            if signs != [x.sign for x in expected.crossings]:
                reoriented.add(serialize(d))
            assert signs == [-x.sign for x in d.crossings]
        assert reoriented == self.OPEN_ORIENTATION

    def test_left_trefoil_mirrors_to_right(self, corpus_diagrams):
        pds = {e.name: e.pd for e in bundled()}
        assert serialize(mirror(corpus_diagrams["trefoil-left"])) == pds[
            "trefoil-right"
        ]

    def test_component_structure_preserved(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            assert len(mirror(d).components) == len(d.components)
            assert mirror(d).free_loops == d.free_loops


class TestCable:
    def test_width_one_is_identity(self, corpus_diagrams):
        crossingless = [LinkDiagram.crossingless(2), LinkDiagram.crossingless(0)]
        for d in [*corpus_diagrams.values(), *crossingless]:
            assert cable(d, 1) == d
            assert cable(d, 1) is d

    @pytest.mark.parametrize("n", [2, 3])
    def test_crossing_and_writhe_scaling(self, corpus_diagrams, n):
        for name in ("kink-positive", "hopf-positive", "trefoil-left"):
            d = corpus_diagrams[name]
            c = cable(d, n)
            assert len(c.crossings) == len(d.crossings) * n * n
            assert writhe(c) == writhe(d) * n * n

    def test_crossingless_cables(self):
        assert cable(LinkDiagram.crossingless(2), 3) == LinkDiagram.crossingless(6)
        assert cable(LinkDiagram.crossingless(0), 5).is_empty

    def test_zero_width_rejected(self, corpus_diagrams):
        with pytest.raises(InvalidDiagramError, match="at least 1"):
            cable(corpus_diagrams["kink-positive"], 0)

    def test_frozen_two_cable_of_positive_kink(self, corpus_diagrams):
        c = cable(corpus_diagrams["kink-positive"], 2)
        assert serialize(c) == "X[1,8,2,7] X[5,5,6,8] X[2,4,3,3] X[6,1,7,4]"

    # name -> 16-hex sha256 prefixes of serialize(cable(d, 3)) and, where
    # the width-4 cable has at most 64 crossings, serialize(cable(d, 4))
    FROZEN_WIDE_CABLES = {
        "kink-positive": ("911fd3e743fa6523", "336ba217e532b49b"),
        "kink-negative": ("1f9e9da44167c937", "89ee694144bc36c0"),
        "double-kink-positive": ("1bb8b8f1a248ffd8", "a89b92b30bc68c2c"),
        "cancelling-kinks": ("175303a1d55ef50e", "dbed98da6707a9d3"),
        "hopf-positive": ("d8156c1825be9e5d", "7f0328ac3c7c0947"),
        "trefoil-left": ("1f2579dffab8dfba", "88ca60c398e16163"),
        "trefoil-right": ("e7ba8deadbec7033", "996c2f55de2ebeaf"),
        "loopy-unknot": ("88ac5b838096c3f9", "14c4a1d01383bb32"),
        "figure-eight": ("413ec231f647416f", "208671b7801ec205"),
        "overlap-unlink": ("d8558a9d6daa7d1d", "867baa6e412f704b"),
    }

    def test_frozen_wide_cable_labels(self, corpus_diagrams):
        crossed = {
            name for name, d in corpus_diagrams.items() if d.crossings
        }
        assert crossed == set(self.FROZEN_WIDE_CABLES)
        for name, digests in self.FROZEN_WIDE_CABLES.items():
            d = corpus_diagrams[name]
            widths = [3] + [4] * (16 * d.crossing_count <= 64)
            assert len(digests) == len(widths)
            for n, digest in zip(widths, digests):
                text = serialize(cable(d, n)).encode()
                assert hashlib.sha256(text).hexdigest()[:16] == digest

    def test_cables_reparse(self, corpus_diagrams):
        # the serialized cable must itself be a valid code with the
        # same writhe and component count scaling
        for name in ("cancelling-kinks", "trefoil-right", "loopy-unknot"):
            d = corpus_diagrams[name]
            c = cable(d, 2)
            back = parse_pd(serialize(c))
            assert back == c
            assert len(back.components) == 2 * len(d.components)


class TestSmallPool:
    """Exhaustive checks over every valid one- and two-crossing code."""

    def test_pool_is_nonempty(self, small_diagrams):
        assert len(small_diagrams) >= 4

    def test_round_trip(self, small_diagrams):
        for d in small_diagrams:
            assert parse_pd(serialize(d)) == d

    def test_mirror_involution_and_writhe(self, small_diagrams):
        # a handful of two-component codes have an orientation choice,
        # so the constructor may relabel arcs; the double mirror then
        # differs by that relabeling but is a fixed point afterwards
        for d in small_diagrams:
            assert writhe(mirror(d)) == -writhe(d)
            m2 = mirror(mirror(d))
            assert writhe(m2) == writhe(d)
            assert len(m2.crossings) == len(d.crossings)
            assert mirror(mirror(m2)) == m2

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cable_scaling_property(self, data):
        d = data.draw(st.sampled_from(small_pool()))
        n = data.draw(st.integers(min_value=1, max_value=3))
        c = cable(d, n)
        assert len(c.crossings) == len(d.crossings) * n * n
        assert writhe(c) == writhe(d) * n * n
        assert parse_pd(serialize(c)) == c


class TestDerivedBuilds:
    """Cables, mirrors and simplifications are built from their source
    diagram's validated data, never validated again.  Each must equal
    the validation of its own slot tuples, which stays the independent
    reference: the same diagram, port table, components and signs."""

    @staticmethod
    def _matches_validation(built):
        rebuilt = from_slot_tuples([x.slots for x in built.crossings])
        signs = [x.sign for x in built.crossings]
        return (built == rebuilt and built.partner == rebuilt.partner
                and built.components == rebuilt.components
                and signs == [x.sign for x in rebuilt.crossings])

    def _bases(self, corpus_diagrams):
        bases = [d for d in corpus_diagrams.values() if d.crossings]
        bases += [d for d in small_pool() if d.crossings]
        bases += seeded_closures(11, 40)
        return bases + [mirror(d) for d in bases]

    def test_cables_and_their_mirrors(self, corpus_diagrams):
        built = [
            cable(d, n)
            for d in self._bases(corpus_diagrams)
            for n in (2, 3, 4, 5) if d.crossing_count * n * n <= 100
        ]
        built += [mirror(c) for c in built]
        assert len(built) > 1000
        assert max(c.crossing_count for c in built) == 100
        for c in built:
            assert self._matches_validation(c), serialize(c)

    def test_simplified_padded_knots(self, corpus_diagrams):
        knots = [corpus_diagrams[name] for name in CORPUS_KNOTS]
        knots += [braid_closure(*b) for b in seeded_knots(12, 40, range(5, 11))]
        knots += [mirror(k) for k in knots]
        rng = Random(13)
        checked = 0
        for knot in knots:
            moved, _ = add_kink(knot, rng)
            moved = add_bigon(moved, rng)
            for d in (knot, moved):
                s = simplify(d)
                if s is d or not s.crossings:
                    continue
                checked += 1
                assert self._matches_validation(s), serialize(d)
        assert checked >= 70
