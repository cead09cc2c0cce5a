"""End-to-end acceptance battery over the bundled corpus.

Each test here is one gate the package must clear before release:
engine cross-validation, the genus behavior of loops under cabling,
normalization anchors, degree ceilings, the width-2 degree
characterization of adequacy, top-coefficient vanishing, the detector
dichotomy, mirror dualities, and the first stable-tail coefficient.
The face/circle duality is checked over every spanning subgraph in
``test_states.py::TestDuality``.  Wall-clock ceilings are asserted
where the computation could in principle blow up, so a performance
regression fails loudly instead of hanging CI.
"""

import time

import pytest

from kauffman.adequacy import (
    analyze,
    cable_top_coeffs,
    degree_ceilings,
    feasible_width,
    h_ceiling,
    is_a_adequate,
    is_b_adequate,
)
from kauffman.bracket import bracket
from kauffman.corpus import bundled
from kauffman.diagram import cable, mirror, parse_pd
from kauffman.jones import reduced, unreduced
from kauffman.laurent import LaurentPoly
from kauffman.states import RibbonGraph, circles, resolve

from surfaces import genus


@pytest.fixture(scope="module")
def corpus():
    return {e.name: e for e in bundled()}


@pytest.fixture(scope="module")
def cable_data(corpus):
    """Per entry: the diagram, whose memo keeps its cables and their
    fast-engine brackets for the tests below, and its top coeffs."""
    data = {}
    for name, entry in corpus.items():
        d = parse_pd(entry.pd)
        if d.is_empty:
            continue
        top_width = 3 if d.crossing_count <= 3 else 2
        tops, nexts = cable_top_coeffs(d, top_width)
        data[name] = {
            "diagram": d,
            "top_width": top_width,
            "tops": tops,
            "nexts": nexts,
        }
    return data


def test_bracket_engines_agree_up_to_twelve_crossings(corpus):
    started = time.monotonic()
    targets = []
    for entry in corpus.values():
        d = parse_pd(entry.pd)
        targets.append((entry.name, d))
        if 1 <= d.crossing_count <= 3:
            targets.append((entry.name + "^2", cable(d, 2)))
    for label, d in targets:
        assert d.crossing_count <= 12, label
        fast = bracket(d, engine="fast")
        assert bracket(d, engine="statesum") == fast, label
        assert bracket(d, engine="subgraph") == fast, label
    assert time.monotonic() - started < 60


def test_interleaved_loops_have_genus_one_and_cabled_loops_none(cable_data):
    # one vertex, two interleaved loops: the smallest genus-1 graph
    assert genus(RibbonGraph(((0, 2, 1, 3),)), 0b11) == 1

    # cabling untangles loops: the loops-only part of every cabled
    # all-A graph embeds in the plane
    for name, data in cable_data.items():
        for m in (2, 3):
            d = cable(data["diagram"], m)
            graph = RibbonGraph(resolve(d))
            assert genus(graph, circles(d, "A")[1]) == 0, (name, m)


def test_reduced_unknot_is_one_and_kink_invariant(corpus):
    started = time.monotonic()
    unknot = parse_pd(corpus["unknot-0"].pd)
    for n in (1, 2, 3, 4):
        assert reduced(unknot, n) == LaurentPoly({0: 1})
    for kink in ("kink-positive", "kink-negative"):
        d = parse_pd(corpus[kink].pd)
        for n in (1, 2):
            assert reduced(d, n) == reduced(unknot, n)
    assert time.monotonic() - started < 10


def test_degrees_stay_under_ceilings(cable_data):
    for name, data in cable_data.items():
        d = data["diagram"]
        hi, lo = degree_ceilings(d)
        value = bracket(d)
        assert lo <= value.min_degree(), name
        assert value.max_degree() <= hi, name
        for n in range(1, data["top_width"] + 1):
            g = unreduced(d, n)
            assert g.max_degree() <= h_ceiling(d, n), (name, n)


def test_width_two_degree_equality_characterizes_adequacy(cable_data):
    started = time.monotonic()
    for name, data in cable_data.items():
        d = data["diagram"]
        adequate = is_a_adequate(d)
        h2 = h_ceiling(d, 2)
        g2 = unreduced(d, 2)
        equal2 = g2.max_degree() == h2
        assert equal2 == adequate, name
        if adequate:
            assert g2.coeff(h2) in (-1, 1), name
        if data["top_width"] >= 3:
            g3 = unreduced(d, 3)
            equal3 = g3.max_degree() == h_ceiling(d, 3)
            assert equal2 == equal3, name
    assert time.monotonic() - started < 1800


def test_cable_top_coefficient_vanishing_pattern(cable_data):
    for name, data in cable_data.items():
        adequate = is_a_adequate(data["diagram"])
        for n in range(2, data["top_width"] + 1):
            top = data["tops"][n]
            if adequate:
                assert top in (-1, 1), (name, n)
            else:
                assert top == 0, (name, n)


def test_next_coefficient_dies_at_width_three(cable_data):
    # the entries whose own top coefficient survives without adequacy:
    # interleaved loops protect it at width 1, cabling kills the next
    # coefficient down by width 3
    deep = [
        name
        for name, data in cable_data.items()
        if data["tops"][1] != 0 and not is_a_adequate(data["diagram"])
    ]
    assert sorted(deep) == ["loopy-unknot", "overlap-unlink"]
    for name in deep:
        assert cable_data[name]["nexts"][3] == 0, name


def test_detector_dichotomy(cable_data):
    for name, data in cable_data.items():
        d = data["diagram"]
        adequate = is_a_adequate(d)
        if data["top_width"] >= 3:
            alpha = abs(data["tops"][1] * data["tops"][3])
            beta = abs(data["tops"][1] * data["nexts"][3])
            detector = LaurentPoly({0: alpha, 1: beta})
            if adequate:
                assert alpha == 1, name
            else:
                assert detector == LaurentPoly(), name
        if adequate:
            # at every computed width the leading product stays 1
            for n in range(2, data["top_width"] + 1):
                assert abs(data["tops"][1] * data["tops"][n]) == 1, (name, n)


def test_mirror_dualities(corpus):
    for entry in corpus.values():
        d = parse_pd(entry.pd)
        assert bracket(mirror(d)) == bracket(d).invert_variable(), entry.name
        assert is_b_adequate(d) == is_a_adequate(mirror(d)), entry.name


def test_first_tail_coefficient_dichotomy(cable_data):
    for name, data in cable_data.items():
        # the first stable-tail coefficient sits at the width-2 ceiling
        d = data["diagram"]
        first = unreduced(d, 2).coeff(h_ceiling(d, 2))
        assert analyze(d, n_max=2).beta_series == (first,), name
        if is_a_adequate(d):
            assert first in (-1, 1), name
        else:
            assert first == 0, name


def test_every_entry_was_exercised(corpus, cable_data):
    # the batteries above must have seen the whole corpus: the empty
    # diagram is the only entry without cables
    assert set(corpus) - set(cable_data) == {"empty"}
    assert len(corpus) == 12
    widths = {feasible_width(parse_pd(e.pd)) for e in corpus.values()}
    assert widths == {2, 3}
