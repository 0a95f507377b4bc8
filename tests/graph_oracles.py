"""The commuting graph C(G) as a materialized ``SimpleGraph`` and the
clique-decomposition extraction that walks its rows.

The library computes the Zagreb indices of C(G) and NC(G) from one
centralizer mask per conjugacy class of G/Z(G), without building either
graph; these build the graph from the mask of every coset and
read it, so the tests can check every index, and the decomposition, against
a route that shares none of that code.
"""

from operator import itemgetter

from groupzagreb.grp import AbelianGroupError, FiniteGroup
from groupzagreb.zagreb import CliqueDecomposition, SimpleGraph


def commuting_graph(G: FiniteGroup) -> SimpleGraph:
    """Vertices are the non-central elements in ascending index order; edges
    join commuting pairs, read off the group's centralizer masks.  Elements
    of one central coset share a mask, so each distinct mask is turned into
    a row once and every vertex only clears its own bit."""
    n = G.order
    masks = G.centralizer_masks
    coset_of, _ = G.cosets
    vertices = [x for x, c in enumerate(coset_of) if c]  # coset 0 is Z(G)
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
        rows.append(row ^ (1 << a))
    return SimpleGraph(len(vertices), rows)


def extract_clique_decomposition(graph: SimpleGraph) -> CliqueDecomposition | None:
    """If every connected component is complete, the multiset of clique sizes;
    otherwise None."""
    counts: dict[int, int] = {}
    seen = 0
    for u in range(graph.vertex_count):
        if (seen >> u) & 1:
            continue
        comp = graph.rows[u] | (1 << u)
        mm = comp
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            if graph.rows[v] | (1 << v) != comp:
                return None
        size = comp.bit_count()
        counts[size] = counts.get(size, 0) + 1
        seen |= comp
    parts = tuple((counts[s], s) for s in sorted(counts))
    return CliqueDecomposition(parts)
