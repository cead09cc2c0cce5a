"""Components and genus of spanning subgraphs of a ribbon graph.

The package reads neither; the tests use them to pin down what
``RibbonGraph.faces`` counts.  Components come from a union-find over
the rotations, and the genus from the rotations' chord diagrams, so
neither counts a face and the Euler relation ``v - e + f = 2k - 2g``
is a check on the face count.
"""


def component_count(graph, mask):
    """Connected components of the spanning subgraph with the edges in
    ``mask`` (isolated vertices count)."""
    vertex_of = {}
    for v, rot in enumerate(graph.rotations):
        for d in rot:
            vertex_of[d] = v
    parent = list(range(len(graph.rotations)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in range(len(vertex_of) // 2):
        if mask >> e & 1:
            parent[find(vertex_of[2 * e])] = find(vertex_of[2 * e + 1])
    return len({find(i) for i in range(len(parent))})


def genus(graph, mask):
    """Genus of the spanning subgraph with the edges in ``mask``.

    Contracting the edges of a spanning forest keeps the genus and
    leaves one vertex per component, a bouquet whose edges are chords
    of its rotation.  Contracting edge ``e`` splices the rotation at
    dart ``2e``'s vertex, read from after ``2e``, to the one at dart
    ``2e + 1``'s, read from after ``2e + 1``.  A bouquet's genus is half
    the rank over GF(2) of its interlacement matrix, two chords
    interlacing when their ends alternate around the vertex.
    """
    rotations = [
        [d for d in rot if mask >> (d >> 1) & 1] for rot in graph.rotations
    ]
    vertex_of = {d: v for v, rot in enumerate(rotations) for d in rot}
    for e in range(graph.edge_count):
        u, w = vertex_of.get(2 * e), vertex_of.get(2 * e + 1)
        if u is None or u == w:
            continue  # absent, or a loop: a chord
        ru, rw = rotations[u], rotations[w]
        i, j = ru.index(2 * e), rw.index(2 * e + 1)
        rotations[u] = ru[i + 1:] + ru[:i] + rw[j + 1:] + rw[:j]
        rotations[w] = []
        for d in rotations[u]:
            vertex_of[d] = u
    total = 0
    for rot in rotations:
        at = {d: k for k, d in enumerate(rot)}
        chords = sorted({d >> 1 for d in rot})
        basis = []
        for a in chords:
            lo, hi = sorted((at[2 * a], at[2 * a + 1]))
            row = 0
            for bit, b in enumerate(chords):
                inside = [lo < at[2 * b + s] < hi for s in (0, 1)]
                row |= (inside[0] != inside[1]) << bit
            for pivot in basis:
                row = min(row, row ^ pivot)
            if row:
                basis.append(row)
        assert len(basis) % 2 == 0, "an interlacement matrix has even rank"
        total += len(basis) // 2
    return total
