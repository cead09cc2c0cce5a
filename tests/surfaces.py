"""Components and genus of spanning subgraphs of a ribbon graph.

The package reads neither; the tests use them to pin down what
``RibbonGraph.faces`` counts.  Components come from a union-find over
the rotations, and the genus from the Euler relation
``v - e + f = 2k - 2g`` with the package's face count.
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
    """Genus of the spanning subgraph with the edges in ``mask``."""
    v = len(graph.rotations)
    e = bin(mask).count("1")
    k = component_count(graph, mask)
    f = graph.faces(mask)
    doubled = 2 * k - v + e - f
    assert doubled >= 0 and doubled % 2 == 0, (
        f"impossible Euler data: k={k} v={v} e={e} f={f}"
    )
    return doubled // 2
