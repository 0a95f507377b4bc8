"""The commuting graph C(G) as a materialized ``SimpleGraph`` and the
clique-decomposition extraction that walks its rows.

The library computes the Zagreb indices of C(G) and NC(G) from one
centralizer mask per conjugacy class of G/Z(G), without building either
graph; these build the graph from the mask of every element, read off the
table, so the tests can check every index, and the decomposition, against
a route that shares none of that code.  Rows are upper rows, as in the
library: ``rows[v]`` holds v's neighbours above v.
"""

from operator import eq, itemgetter

from groupzagreb.grp import AbelianGroupError, FiniteGroup
from groupzagreb.zagreb import CliqueDecomposition, SimpleGraph, ZagrebReport


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def centralizer_mask(G: FiniteGroup, x: int) -> int:
    """C_G(x) as a bitmask, from the table alone: bit g is set iff
    x*g == g*x.  n cells."""
    t = G.table
    return int(bytes(t[x][g] == t[g][x] for g in reversed(range(G.order)))
               .translate(_BIT_CHARS), 2)


def centralizer_masks(G: FiniteGroup) -> list[int]:
    """``centralizer_mask`` of every x, row x against column x: n^2 cells."""
    t = G.table
    return [
        int(bytes(map(eq, row[::-1], col[::-1])).translate(_BIT_CHARS), 2)
        for row, col in zip(t, zip(*t))
    ]


def commuting_graph(G: FiniteGroup) -> SimpleGraph:
    """Vertices are the non-central elements in ascending index order; edges
    join commuting pairs, read off ``centralizer_masks``.  Each distinct mask
    is turned into a row once and every vertex only clears its bits up to its
    own."""
    n = G.order
    masks = centralizer_masks(G)
    full = (1 << n) - 1
    vertices = [x for x, m in enumerate(masks) if m != full]
    if not vertices:
        raise AbelianGroupError("Group must be non-abelian")
    # a row: the vertex digits of the mask in binary, highest first
    pick = itemgetter(*[n - 1 - x for x in reversed(vertices)])
    row_of: dict[int, int] = {}
    rows = []
    for a, x in enumerate(vertices):
        m = masks[x]
        row = row_of.get(m)
        if row is None:
            row = row_of[m] = int("".join(pick(format(m, f"0{n}b"))), 2)
        rows.append(row >> (a + 1) << (a + 1))
    return SimpleGraph(len(vertices), rows)


def complement(graph: SimpleGraph) -> SimpleGraph:
    """The complement graph, row by row: every vertex above v that is not
    v's neighbour."""
    n = graph.vertex_count
    full = (1 << n) - 1
    return SimpleGraph(n, [(full ^ r) >> (v + 1) << (v + 1) for v, r in enumerate(graph.rows)])


def naive_degrees(graph: SimpleGraph) -> list[int]:
    """Each vertex's degree, one step per edge end: the bits of its own row
    and one for every row that holds it."""
    deg = [r.bit_count() for r in graph.rows]
    for r in graph.rows:
        while r:
            low = r & -r
            deg[low.bit_length() - 1] += 1
            r ^= low
    return deg


def extract_clique_decomposition(graph: SimpleGraph) -> CliqueDecomposition | None:
    """If every connected component is complete, the multiset of clique sizes;
    otherwise None.  A component is read off the upper row of its lowest
    vertex u; it is a clique with no edge leaving it iff it meets no earlier
    component and each of its vertices v holds exactly its vertices above v."""
    counts: dict[int, int] = {}
    seen = 0
    for u in range(graph.vertex_count):
        if (seen >> u) & 1:
            continue
        comp = graph.rows[u] | (1 << u)
        if comp & seen:
            return None
        mm = comp
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            if graph.rows[v] != comp >> (v + 1) << (v + 1):
                return None
        size = comp.bit_count()
        counts[size] = counts.get(size, 0) + 1
        seen |= comp
    parts = tuple((counts[s], s) for s in sorted(counts))
    return CliqueDecomposition(parts)


def zagreb_by_degree_classes(graph: SimpleGraph) -> ZagrebReport:
    """M1 and M2 summed by degree class: with mask_d the vertices of degree
    d, M2 = sum_u d_u * sum_d d * |row_u & mask_d| over the upper rows, one
    AND per vertex and distinct degree."""
    deg = naive_degrees(graph)
    classes: dict[int, int] = {}
    for v, d in enumerate(deg):
        classes[d] = classes.get(d, 0) | (1 << v)
    m2 = sum(
        du * sum(d * (row & mask).bit_count() for d, mask in classes.items())
        for row, du in zip(graph.rows, deg)
    )
    m1 = sum(d * d for d in deg)
    return ZagrebReport(m1, m2, graph.vertex_count, sum(deg) // 2)
