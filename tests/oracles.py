"""Independent evaluators used as test oracles.

Everything here recomputes results from the raw slot tuples of a
parsed diagram, or from closed forms, sharing no code with the engines
under test: circles are counted by merging slot pairs with union-find
instead of walking port permutations, and the bracket is the literal
sum over all resolution choices, exponential and fine below about 16
crossings.  The spanning trees of the checkerboard graphs, which bound
the bracket's coefficients, come from an exact Kirchhoff determinant,
and the colored Jones values of the trefoils and the figure-eight from
the cyclotomic formulas of Masbaum and Habiro.
"""

from collections import Counter
from itertools import product

# slot pairs merged by each resolution choice, matching the package's
# orientation convention (slots counterclockwise from the incoming
# understrand)
_A_PAIRS = ((0, 1), (2, 3))
_B_PAIRS = ((3, 0), (1, 2))


def _find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


def oracle_circles(diagram, choices):
    """Circle count of one resolution, by union-find over slot ends."""
    crossings = diagram.crossings
    n = len(crossings)
    if n == 0:
        return diagram.free_loops
    parent = list(range(4 * n))
    ends = {}
    for ci, x in enumerate(crossings):
        for si, label in enumerate(x.slots):
            ends.setdefault(label, []).append(4 * ci + si)
    for pair in ends.values():
        _union(parent, pair[0], pair[1])
    for ci, choice in enumerate(choices):
        pairs = _A_PAIRS if choice == "A" else _B_PAIRS
        for p, q in pairs:
            _union(parent, 4 * ci + p, 4 * ci + q)
    return len({_find(parent, i) for i in range(4 * n)})


def oracle_bracket(diagram):
    """Bracket as {exponent: coefficient}, literal state sum."""
    n = len(diagram.crossings)
    if n == 0 and diagram.free_loops == 0:
        # the empty diagram is the unit for disjoint union
        return {0: 1}
    histogram = Counter()
    for choices in product("AB", repeat=n):
        a_count = choices.count("A")
        circles = oracle_circles(diagram, choices)
        histogram[(a_count - (n - a_count), circles - 1)] += 1
    total = Counter()
    for (writhe_exp, loops), mult in histogram.items():
        # delta**loops expanded by hand: (-A^2 - A^-2)**loops
        for k in range(loops + 1):
            comb = 1
            for i in range(k):
                comb = comb * (loops - i) // (i + 1)
            exp = writhe_exp + 2 * k - 2 * (loops - k)
            total[exp] += mult * comb * (-1) ** loops
    return {e: c for e, c in total.items() if c}


def _ports(diagram):
    """The port table from the raw slot tuples: port ``4*ci + si`` is
    slot ``si`` of crossing ``ci``, paired with the other end of its arc."""
    ends = {}
    for ci, x in enumerate(diagram.crossings):
        for si, label in enumerate(x.slots):
            ends.setdefault(label, []).append(4 * ci + si)
    partner = [0] * (4 * len(diagram.crossings))
    for p, q in ends.values():
        partner[p], partner[q] = q, p
    return partner


def _determinant(rows):
    """Exact determinant of an integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def checkerboard_tree_counts(diagram):
    """Spanning trees of the two checkerboard graphs of a connected
    diagram with crossings, by Kirchhoff's matrix-tree theorem.

    Corner ``p`` of a crossing lies between port ``p`` and the next
    port counterclockwise, ``next_ccw(p)``; the face beyond that port's
    arc continues at corner ``partner[next_ccw(p)]``.  Corners ``p`` and
    ``next_ccw(p)`` lie on the two sides of one arc, so their faces take
    opposite colours.  Each crossing joins the faces of its two corners
    of one colour by an edge of that colour's graph.  The two graphs are
    planar duals, so the counts agree.
    """
    partner = _ports(diagram)

    def next_ccw(p):
        return (p & ~3) | ((p + 1) & 3)

    face = [-1] * len(partner)
    faces = 0
    for start in range(len(partner)):
        if face[start] >= 0:
            continue
        p = start
        while face[p] < 0:
            face[p] = faces
            p = partner[next_ccw(p)]
        faces += 1
    assert faces == len(partner) // 4 + 2, "a planar diagram has c + 2 faces"
    corners = [[] for _ in range(faces)]
    for p, f in enumerate(face):
        corners[f].append(p)
    colour = [0] + [-1] * (faces - 1)
    todo = [0]
    while todo:
        f = todo.pop()
        for p in corners[f]:
            g = face[next_ccw(p)]
            if colour[g] < 0:
                colour[g] = 1 - colour[f]
                todo.append(g)
    counts = []
    for side in (0, 1):
        nodes = [f for f in range(faces) if colour[f] == side]
        index = {f: i for i, f in enumerate(nodes)}
        laplacian = [[0] * len(nodes) for _ in nodes]
        for p in range(len(partner)):
            if p & 2 == 0 and colour[face[p]] == side:
                a, b = index[face[p]], index[face[p ^ 2]]
                if a != b:
                    laplacian[a][a] += 1
                    laplacian[b][b] += 1
                    laplacian[a][b] -= 1
                    laplacian[b][a] -= 1
        counts.append(_determinant([r[1:] for r in laplacian[1:]]))
    return tuple(counts)


def _cyclotomic_sum(n, twist):
    """``sum over k < N of twist(k) * prod over j = 1..k of
    (q^N - q^j - q^-j + q^-N)`` with ``N = n + 1``, as {q-exponent:
    coefficient}; ``twist(k)`` is a (sign, q-exponent) pair."""
    big = n + 1
    total = Counter()
    product = {0: 1}
    for k in range(big):
        if k:
            factor = {big: 1, -big: 1, k: -1, -k: -1}
            step = Counter()
            for a, x in product.items():
                for b, y in factor.items():
                    step[a + b] += x * y
            product = step
        sign, shift = twist(k)
        for e, c in product.items():
            total[e + shift] += sign * c
    return {e: c for e, c in total.items() if c}


def habiro_figure_eight(n):
    """Habiro's cyclotomic formula for the width-``n`` (``N = n + 1``
    dimensional) colored Jones polynomial of the figure-eight knot, in
    ``q = A**-4``, normalized so the unknot is 1."""
    return _cyclotomic_sum(n, lambda k: (1, 0))


def masbaum_trefoil(n, sign):
    """Masbaum's formula for the trefoils in the same normalization:
    Habiro's sum twisted by ``(-1)**k * q**(sign * k * (k + 3) / 2)``,
    ``sign`` -1 for the left-handed and +1 for the right-handed one."""
    return _cyclotomic_sum(
        n, lambda k: ((-1) ** k, sign * k * (k + 3) // 2)
    )
