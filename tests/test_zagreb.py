"""Graphs, the three Zagreb routes, decompositions, and verdicts."""

import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupzagreb.build import (
    FamilySpec,
    _symmetric,
    build_family,
    catalog,
    cyclic,
    direct_product,
    special_group,
)
from groupzagreb.grp import AbelianGroupError, FiniteGroup
from groupzagreb import zagreb
from groupzagreb.zagreb import (
    CliqueDecomposition,
    GraphFormatError,
    SimpleGraph,
    Verdict,
    ZagrebReport,
    _walk_edges,
    conjecture_verdict,
    group_report,
    read_edge_list,
    zagreb_complement,
    zagreb_direct,
    zagreb_direct_complement,
    zagreb_from_decomposition,
)
from graph_oracles import (
    commuting_graph,
    complement,
    extract_clique_decomposition,
    naive_degrees,
    zagreb_by_degree_classes,
)
from test_grp import extraspecial_32, relabelled

B = lambda fam, *ps: build_family(FamilySpec(fam, tuple(ps)))

K15_K3_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7), (6, 8), (7, 8)]


def graph_from_edges(n, edges):
    """The SimpleGraph on vertices 0..n-1 with the given undirected edges,
    each set once, in the row of its lower end."""
    rows = [0] * n
    for u, v in edges:
        rows[min(u, v)] |= 1 << max(u, v)
    return SimpleGraph(n, rows)


def non_commuting_graph(G):
    return complement(commuting_graph(G))


def adjacent(graph, u, v):
    return bool((graph.rows[min(u, v)] >> max(u, v)) & 1)


def m2_by_edge_walk(graph):
    """The reference M2: one degree product per edge, each edge u < v taken
    once from u's row, with the degrees counted edge end by edge end."""
    deg = naive_degrees(graph)
    m2 = 0
    for u, row in enumerate(graph.rows):
        r = row >> (u + 1)
        while r:
            low = r & -r
            m2 += deg[u] * deg[u + low.bit_length()]
            r ^= low
    return m2


def union_of_cliques(parts):
    """Materialize l copies of K_s for each (l, s) part."""
    edges, n = [], 0
    for copies, size in parts:
        for _ in range(copies):
            vs = range(n, n + size)
            edges += [(u, v) for u in vs for v in vs if u < v]
            n += size
    return graph_from_edges(n, edges)


# -- commuting graphs --------------------------------------------------------

def test_commuting_graph_d10():
    g = commuting_graph(B("dihedral", 5))
    assert g.vertex_count == 9
    assert extract_clique_decomposition(g).parts == ((5, 1), (1, 4))


def test_commuting_graph_q8():
    g = commuting_graph(B("dicyclic", 2))
    assert extract_clique_decomposition(g).parts == ((3, 2),)


def test_commuting_graph_heisenberg27():
    g = commuting_graph(B("hanaki_a2", 1, 3))
    assert extract_clique_decomposition(g).parts == ((4, 6),)


def test_commuting_graph_rejects_abelian():
    Z6 = FiniteGroup([[(i + j) % 6 for j in range(6)] for i in range(6)], label="Z_6")
    with pytest.raises(AbelianGroupError):
        commuting_graph(Z6)
    with pytest.raises(AbelianGroupError):
        non_commuting_graph(Z6)


def test_commuting_graph_vertex_order_is_ascending_noncentral():
    G = B("dicyclic", 2)  # center = {0, 2}
    g = commuting_graph(G)
    # vertex 0 of the graph is element 1 = f, whose non-central commuters
    # are f^3 (element 3): graph vertex 1
    assert adjacent(g, 0, 1)
    assert not adjacent(g, 0, 2)


def test_non_commuting_graph_counts():
    assert non_commuting_graph(B("dihedral", 3)).edge_count == 9
    assert non_commuting_graph(B("dicyclic", 2)).edge_count == 12
    # true S_4 complement count (25 commuting-graph edges on 23 vertices)
    assert non_commuting_graph(special_group("S_4")).edge_count == 253 - 25


# -- zagreb_direct --------------------------------------------------------------

def test_direct_edgeless():
    g = graph_from_edges(7, [])
    assert zagreb_direct(g) == ZagrebReport(0, 0, 7, 0)


def test_direct_a4():
    rep = zagreb_direct(commuting_graph(special_group("A_4")))
    assert rep == ZagrebReport(20, 16, 11, 7)


def test_direct_counterexample_graph():
    rep = zagreb_direct(graph_from_edges(9, K15_K3_EDGES))
    assert rep == ZagrebReport(42, 37, 9, 8)


CATALOG_64 = catalog(64)


@pytest.mark.parametrize("entry", CATALOG_64, ids=[e.label for e in CATALOG_64])
def test_direct_m2_matches_edge_walk_on_catalog_graphs(entry):
    cg = commuting_graph(entry.build())
    for g in (cg, complement(cg)):
        assert zagreb_direct(g).m2 == m2_by_edge_walk(g)
    assert zagreb_direct_complement(cg) == zagreb_direct(complement(cg))


def test_direct_m2_matches_edge_walk_on_200_random_graphs():
    rng = random.Random(20261018)
    graphs = [
        SimpleGraph(1, [0]),
        graph_from_edges(5, []),
        union_of_cliques([(1, 7)]),
        graph_from_edges(9, K15_K3_EDGES + [(0, 6)]),
        graph_from_edges(12, K15_K3_EDGES),  # three isolated vertices
    ]
    while len(graphs) < 200:
        n = rng.randint(1, 40)
        isolated = set(rng.sample(range(n), rng.randint(0, n // 3)))
        p = rng.random()
        graphs.append(graph_from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if u not in isolated and v not in isolated and rng.random() < p
        ]))
    for g in graphs:
        assert zagreb_direct(g).m2 == m2_by_edge_walk(g), g
        assert zagreb_direct_complement(g).m2 == m2_by_edge_walk(complement(g)), g


def test_direct_m2_matches_edge_walk_with_many_degree_classes():
    rng = random.Random(600)
    g = graph_from_edges(600, [
        (u, v) for u in range(600) for v in range(u + 1, 600) if rng.random() < 0.3
    ])
    assert len(set(g.degrees())) >= 50
    assert zagreb_direct(g).m2 == m2_by_edge_walk(g)


@pytest.mark.parametrize("n,p,seed", [
    (1, 0.5, 1), (2, 1.0, 2), (30, 0.0, 3), (30, 1.0, 4), (50, 0.5, 5),
    (200, 0.05, 6), (300, 0.3, 7), (500, 0.9, 8),
])
def test_direct_bit_planes_match_degree_classes_on_gnp(n, p, seed):
    # G(n, p) and its complement: the bit-plane sum against the sum over
    # the distinct degrees, which shares no mask with it
    rng = random.Random(seed)
    g = graph_from_edges(n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ])
    for h in (g, complement(g)):
        assert zagreb_direct(h) == zagreb_by_degree_classes(h)


# -- zagreb_from_decomposition ----------------------------------------------------

def test_decomposition_route_d10():
    rep = zagreb_from_decomposition(CliqueDecomposition(((5, 1), (1, 4))))
    assert (rep.m1, rep.m2) == (36, 54)
    assert (rep.vertices, rep.edges) == (9, 6)


def test_decomposition_route_isolated_vertices():
    rep = zagreb_from_decomposition(CliqueDecomposition(((9, 1),)))
    assert rep == ZagrebReport(0, 0, 9, 0)


def test_decomposition_route_sl23():
    rep = zagreb_from_decomposition(CliqueDecomposition(((3, 2), (4, 4))))
    assert (rep.m1, rep.m2) == (150, 219)


def test_decomposition_type_invariants():
    with pytest.raises(ValueError):
        CliqueDecomposition(((1, 4), (3, 2)))  # not sorted by size
    with pytest.raises(ValueError):
        CliqueDecomposition(((1, 2), (3, 2)))  # duplicate size
    with pytest.raises(ValueError):
        CliqueDecomposition(((0, 2),))


# -- zagreb_complement ---------------------------------------------------------------

def test_complement_of_complete_graph():
    base = zagreb_direct(union_of_cliques([(1, 6)]))
    comp = zagreb_complement(base)
    assert comp == ZagrebReport(0, 0, 6, 0)


def test_complement_a4():
    comp = zagreb_complement(ZagrebReport(20, 16, 11, 7))
    assert comp == ZagrebReport(840, 3672, 11, 48)


def test_complement_formula_on_given_s4_inputs():
    # formula check on the inputs (M1, M2, V, E) = (86, 115, 23, 19):
    # 23*22^2 - 4*19*22 + 86 = 9546 (not 9456, a frequent miscopy)
    comp = zagreb_complement(ZagrebReport(86, 115, 23, 19))
    assert comp == ZagrebReport(9546, 97320, 23, 234)


def test_complement_rejects_odd_m1():
    with pytest.raises(ValueError):
        zagreb_complement(ZagrebReport(3, 0, 4, 1))


# -- extraction --------------------------------------------------------------------------

def test_extract_d12():
    parts = extract_clique_decomposition(commuting_graph(B("dihedral", 6)))
    assert parts.parts == ((3, 2), (1, 4))


def test_extract_path_graph_is_none():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    assert extract_clique_decomposition(path) is None


def test_extract_gl2_3():
    parts = extract_clique_decomposition(commuting_graph(B("gl2", 3)))
    assert parts.parts == ((6, 2), (4, 4), (3, 6))


def test_extract_s4_is_none():
    assert extract_clique_decomposition(commuting_graph(special_group("S_4"))) is None


# -- verdicts ------------------------------------------------------------------------------

def test_verdict_d8_equality():
    rep = zagreb_direct(commuting_graph(B("dihedral", 4)))
    v = conjecture_verdict(rep)
    assert v.status is Verdict.HOLDS_WITH_EQUALITY
    assert v.gap_numerator == 0
    assert v.gap_string() == "0/1"


def test_verdict_counterexample():
    v = conjecture_verdict(ZagrebReport(42, 37, 9, 8))
    assert v.status is Verdict.FAILS
    assert (v.gap_numerator, v.gap_denominator) == (-3, 72)
    assert v.gap_string() == "-1/24"


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_verdict_complete_graphs_equality(n):
    rep = zagreb_direct(union_of_cliques([(1, n)]))
    assert conjecture_verdict(rep).status is Verdict.HOLDS_WITH_EQUALITY


def test_verdict_undefined_edgeless():
    assert conjecture_verdict(ZagrebReport(0, 0, 4, 0)).status is Verdict.UNDEFINED
    assert conjecture_verdict(ZagrebReport(0, 0, 4, 0)).gap_string() == "NA"


def test_verdict_cycle_equality():
    cyc = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert conjecture_verdict(zagreb_direct(cyc)).status is Verdict.HOLDS_WITH_EQUALITY


# -- group_report ---------------------------------------------------------------------------

GOLDEN_REPORTS = [
    ("sz2", (), (96, 114, 4740, 37440), (19, 21, 150)),
    ("dihedral", (4,), (6, 3, 96, 192), (6, 3, 12)),
    ("v8n", (2,), (108, 162, 768, 3072), (12, 18, 48)),
    ("sd8n", (2,), (158, 379, 1536, 8064), (14, 19, 72)),
]


@pytest.mark.parametrize("fam,params,indices,counts", GOLDEN_REPORTS)
def test_group_report_goldens(fam, params, indices, counts):
    rep = group_report(build_family(FamilySpec(fam, params)))
    assert (rep.c.m1, rep.c.m2, rep.nc.m1, rep.nc.m2) == indices
    assert (rep.c.vertices, rep.c.edges, rep.nc.edges) == counts


def test_group_report_toroidal_products():
    rep = group_report(special_group("D_6xZ_3"))
    assert (rep.c.m1, rep.c.m2, rep.nc.m1, rep.nc.m2) == (186, 411, 1782, 9720)
    rep = group_report(special_group("A_4xZ_2"))
    assert (rep.c.m1, rep.c.m2, rep.nc.m1, rep.nc.m2) == (294, 591, 6720, 58752)


def test_group_report_has_edge_for_all_small_families():
    # any non-abelian group has a commuting pair of non-central elements
    for fam, params in [("dihedral", (3,)), ("dihedral", (4,)), ("dicyclic", (2,)),
                        ("pq", (2, 3)), ("sz2", ()), ("v8n", (1,))]:
        rep = group_report(build_family(FamilySpec(fam, params)))
        assert rep.c.edges >= 1
        assert rep.nc.edges >= 1


# -- group_report against the materialized graphs ------------------------------

def assert_report_matches_graph_oracles(G):
    """The mask sums, the complement and the decomposition against the same
    numbers read off the materialized C(G) and its complement."""
    rep = group_report(G)
    cg = commuting_graph(G)
    assert rep.center_size == G.order - cg.vertex_count
    assert rep.c == zagreb_direct(cg)
    assert rep.nc == zagreb_direct(complement(cg))
    assert rep.decomposition == extract_clique_decomposition(cg)
    return rep


CATALOG_256 = catalog(256)


@pytest.mark.parametrize("entry", CATALOG_256, ids=[e.label for e in CATALOG_256])
def test_group_report_matches_graph_oracles_on_catalog(entry):
    assert_report_matches_graph_oracles(entry.build())


RELABELLED = {
    "SL(2,3)": lambda: relabelled(special_group("SL(2,3)"), 7),
    "S_4": lambda: relabelled(special_group("S_4"), 5),
    "GL(2,3)": lambda: relabelled(B("gl2", 3), 13),
    "M_2mn(13,20)": lambda: relabelled(B("m2mn", 13, 20), 11),
    "hanaki_a2(1,7)": lambda: relabelled(B("hanaki_a2", 1, 7), 3),
}


@pytest.mark.parametrize("build", RELABELLED.values(), ids=list(RELABELLED))
def test_group_report_matches_graph_oracles_on_relabelled_tables(build):
    assert_report_matches_graph_oracles(build())


# C(G) is no union of cliques, so only the NC cross-check guards the C sums;
# S_4 is the only such group in catalog(256)
NO_DECOMPOSITION = {
    "S_4": lambda: special_group("S_4"),
    "S_5": lambda: _symmetric(5),
    "S_4xZ_3": lambda: direct_product(special_group("S_4"), cyclic(3)),
}


@pytest.mark.parametrize("build", NO_DECOMPOSITION.values(), ids=list(NO_DECOMPOSITION))
def test_group_report_without_decomposition_matches_graph_oracles(build):
    assert assert_report_matches_graph_oracles(build()).decomposition is None


def test_group_report_on_2_1_4_needs_abelian_centralizers():
    """In 2^{1+4}_+ all non-central centralizers have order 16, so commuting
    elements always have centralizers of equal order; still no centralizer
    is abelian and C(G) is no union of cliques."""
    G = relabelled(extraspecial_32(), 9)
    z = G.center()
    assert len(z) == 2
    orders = {x: len(G.centralizer(x)) for x in range(G.order) if x not in z}
    assert set(orders.values()) == {16}
    rep = assert_report_matches_graph_oracles(G)
    assert rep.decomposition is None
    assert (rep.c.m1, rep.c.m2, rep.c.edges) == (5070, 32955, 195)


@pytest.mark.parametrize("G", [cyclic(6), direct_product(cyclic(2), cyclic(2))],
                         ids=["Z_6", "Z_2xZ_2"])
def test_group_report_rejects_abelian(G):
    with pytest.raises(AbelianGroupError, match="^Group must be non-abelian$"):
        group_report(G)


# -- random-graph properties -----------------------------------------------------------------

def random_graph(rng, max_n=40):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random()]
    return graph_from_edges(n, edges)


def test_complement_properties_on_200_random_graphs():
    rng = random.Random(20250808)
    for _ in range(200):
        g = random_graph(rng)
        base = zagreb_direct(g)
        via_formula = zagreb_complement(base)
        via_direct = zagreb_direct(complement(g))
        assert via_formula == via_direct
        assert zagreb_complement(via_formula) == base  # double complement
        assert sum(g.degrees()) == 2 * g.edge_count  # handshake


def test_streamed_complement_matches_the_materialized_one():
    rng = random.Random(20261019)
    graphs = [random_graph(rng) for _ in range(200)] + [
        SimpleGraph(0, []),
        SimpleGraph(1, [0]),
        graph_from_edges(7, []),
        graph_from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)]),
    ]
    for g in graphs:
        assert zagreb_direct_complement(g) == zagreb_direct(complement(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.randoms(use_true_random=False))
def test_complement_roundtrip_property(n, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = graph_from_edges(n, edges)
    base = zagreb_direct(g)
    assert zagreb_complement(zagreb_complement(base)) == base
    assert zagreb_complement(base) == zagreb_direct(complement(g))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 8)), min_size=1, max_size=4))
def test_decomposition_route_matches_direct(parts):
    g = union_of_cliques(parts)
    merged: dict[int, int] = {}
    for copies, size in parts:
        merged[size] = merged.get(size, 0) + copies
    d = CliqueDecomposition(tuple((merged[s], s) for s in sorted(merged)))
    assert zagreb_from_decomposition(d) == zagreb_direct(g)
    assert extract_clique_decomposition(g) == d


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(2, 9))
def test_uniform_clique_unions_give_equality(copies, size):
    rep = zagreb_from_decomposition(CliqueDecomposition(((copies, size),)))
    assert conjecture_verdict(rep).status is Verdict.HOLDS_WITH_EQUALITY
    if copies * size > size:  # complement has edges
        comp = zagreb_complement(rep)
        assert conjecture_verdict(comp).status is Verdict.HOLDS_WITH_EQUALITY


# -- edge-list parsing -------------------------------------------------------------------------

def test_read_edge_list(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    g = read_edge_list(p)
    assert g.vertex_count == 3 and g.edge_count == 2


def test_read_edge_list_path_with_space(tmp_path):
    # a str is a path iff it has no newline, whatever else it contains
    d = tmp_path / "dir with space"
    d.mkdir()
    p = d / "g.txt"
    p.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    for source in (p, str(p)):
        g = read_edge_list(source)
        assert g.vertex_count == 3 and g.edge_count == 2


def test_read_edge_list_errors():
    with pytest.raises(GraphFormatError, match="^empty edge-list file$"):
        read_edge_list("")
    with pytest.raises(GraphFormatError, match='first line must be "n m"'):
        read_edge_list("3\n0 1\n")  # bad header
    with pytest.raises(GraphFormatError, match="expected 2 edge lines, found 1"):
        read_edge_list("3 2\n0 1\n")  # missing edge line
    with pytest.raises(GraphFormatError, match=r"edge \(1, 0\) must satisfy"):
        read_edge_list("3 1\n1 0\n")  # u >= v
    with pytest.raises(GraphFormatError, match=r"duplicate edge \(0, 1\)"):
        read_edge_list("3 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(GraphFormatError, match=r"edge \(0, 5\) must satisfy"):
        read_edge_list("3 1\n0 5\n")  # out of range
    with pytest.raises(GraphFormatError, match="bad edge line '0 1 2'"):
        read_edge_list("3 1\n0 1 2\n")
    with pytest.raises(GraphFormatError, match="^bad edge line '0 x'$"):
        read_edge_list("3 1\n0 x\n")
    with pytest.raises(GraphFormatError, match=r"^bad edge line '0 1\.5'$"):
        read_edge_list("3 1\n0 1.5\n")
    with pytest.raises(GraphFormatError, match="^bad edge line '0'$"):
        read_edge_list("3 1\n0\n")
    # the first bad line is the one reported
    with pytest.raises(GraphFormatError, match="duplicate"):
        read_edge_list("3 3\n0 1\n0 1\n0 5\n")
    with pytest.raises(GraphFormatError, match="must satisfy"):
        read_edge_list("3 3\n0 5\n0 1\n0 1\n")


def test_read_edge_list_rows_match_from_edges():
    rng = random.Random(31)
    n = 60
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    rng.shuffle(edges)
    text = f"{n} {len(edges)}\n" + "".join(f" {u}  {v}\n\n" for u, v in edges)
    assert read_edge_list(text).rows == graph_from_edges(n, edges).rows


# -- canonical tokens against the int() walk --------------------------------------------

def gnp_edge_lines(rng, n, p, noisy=False):
    """The edges of a G(n, p) graph as "u v" lines in shuffled order; with
    ``noisy``, tokens get a "+" or leading zeros and the separators are
    tabs and runs of spaces."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    if not noisy:
        return [f"{u} {v}" for u, v in edges]

    def token(x):
        return rng.choice((str(x), f"+{x}", f"00{x}", str(x)))

    seps = (" ", "\t", "   ", " \t")
    return [token(u) + rng.choice(seps) + token(v) for u, v in edges]


def edge_text(n, lines):
    return f"{n} {len(lines)}\n" + "".join(f"{ln}\n" for ln in lines)


def outcome(read):
    try:
        return "rows", read()
    except GraphFormatError as err:
        return "error", str(err)


def walked(text):
    """The rows the int() walk gives for the body of an edge-list text whose
    header is well formed."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    return _walk_edges(int(lines[0].split()[0]), lines[1:])


def assert_reads_as_walk(text):
    got = outcome(lambda: read_edge_list(text).rows)
    assert got == outcome(lambda: walked(text))
    return got


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("noisy", [False, True], ids=["canonical", "noisy"])
def test_read_edge_list_matches_walk_on_gnp(seed, noisy):
    rng = random.Random(seed)
    n = rng.randint(2, 70)
    text = edge_text(n, gnp_edge_lines(rng, n, rng.choice((0.05, 0.3, 0.7)), noisy))
    if noisy:
        text = text.replace("\n", "\n\n  ", seed % 3)
    kind, rows = assert_reads_as_walk(text)
    assert kind == "rows"


# each fault as a line put into a canonical G(40, 0.3) body, with the
# start of the message the walk gives for it
EDGE_FAULTS = {
    "token_count": ("1 2 3", "bad edge line"),
    "one_token": ("4", "bad edge line"),
    "non_integer": ("3 x", "bad edge line"),
    "decimal": ("1.5 2", "bad edge line"),
    "u_above_v": ("9 3", "edge (9, 3) must"),
    "self_loop": ("5 5", "edge (5, 5) must"),
    "out_of_range": ("0 40", "edge (0, 40) must"),
    "negative": ("-1 3", "edge (-1, 3) must"),
    "duplicate": (None, "duplicate edge"),  # a copy of the first line
}


@pytest.mark.parametrize("second", list(EDGE_FAULTS))
@pytest.mark.parametrize("first", list(EDGE_FAULTS))
def test_read_edge_list_names_the_first_fault_like_the_walk(first, second):
    rng = random.Random(f"{first}/{second}")
    lines = gnp_edge_lines(rng, 40, 0.3)
    i, j = sorted(rng.sample(range(1, len(lines)), 2))
    for at, kind in ((j, second), (i, first)):
        lines.insert(at, EDGE_FAULTS[kind][0] or lines[0])
    kind, message = assert_reads_as_walk(edge_text(40, lines))
    assert kind == "error" and message.startswith(EDGE_FAULTS[first][1]), message


@pytest.mark.parametrize("text", [
    "200000 1\n0 199999\n",
    "200000 0\n",
    "1 0\n",
    "0 0\n",
    "3 1\n+0 002\n",
], ids=["sparse_huge_n", "edgeless_huge_n", "one_vertex", "empty_graph", "non_canonical"])
def test_read_edge_list_matches_walk_on_sparse_and_huge_n(text):
    assert assert_reads_as_walk(text)[0] == "rows"


def test_read_edge_list_matches_walk_on_20000_random_edges():
    rng = random.Random(20000)
    n, edges = 20000, set()
    while len(edges) < 20000:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    assert assert_reads_as_walk(edge_text(n, [f"{u} {v}" for u, v in edges]))[0] == "rows"


# -- regression guard: a canonical file never takes the int() walk ----------------------

def test_canonical_edge_list_is_read_without_the_walk(monkeypatch):
    rng = random.Random(300)
    edges = [(u, v) for u in range(300) for v in range(u + 1, 300) if rng.random() < 0.3]
    text = edge_text(300, [f"{u} {v}" for u, v in edges])

    def no_walk(*args):
        raise AssertionError("canonical edge list fell back to the int() walk")

    monkeypatch.setattr(zagreb, "_walk_edges", no_walk)
    assert read_edge_list(text).rows == graph_from_edges(300, edges).rows


def test_simple_graph_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop at vertex 1"):
        SimpleGraph(3, [0, 0b010, 0])


# -- upper rows: one bit per edge -----------------------------------------------------------

@pytest.mark.parametrize("n,rows", [
    (2, [0b10, 0b01]),  # the edge {0, 1} stored at both ends
    (3, [0, 0, 0b011]),
    (3, [0, 0b101, 0]),  # a neighbour above 1 and one below it
    (4, [0b0110, 0b0001, 0, 0]),
])
def test_simple_graph_rejects_a_bit_below_its_vertex(n, rows):
    with pytest.raises(GraphFormatError, match="has a bit below its own vertex"):
        SimpleGraph(n, rows)


def test_simple_graph_counts_each_upper_bit_as_one_edge():
    g = SimpleGraph(2, [0b10, 0])
    assert (g.edge_count, g.degrees()) == (1, [1, 1])
    with pytest.raises(GraphFormatError, match="adjacency bits out of range"):
        SimpleGraph(2, [0b100, 0])


def random_upper_rows(rng, n, p):
    return [sum(1 << u for u in range(v + 1, n) if rng.random() < p) for v in range(n)]


@pytest.mark.parametrize("n,p", [(0, 0.5), (1, 0.5), (2, 1.0), (3, 0.5), (64, 0.5),
                                 (64, 1.0), (1500, 0.9)])
def test_bit_sliced_degrees_match_column_counts(n, p):
    rng = random.Random(n)
    rows = random_upper_rows(rng, n, p)
    columns = [sum(r >> v & 1 for r in rows) for v in range(n)]
    if n == 1500:  # the counters need at least 11 bit planes
        assert max(columns).bit_length() >= 11
    assert SimpleGraph(n, rows).degrees() == [
        r.bit_count() + c for r, c in zip(rows, columns)
    ]


def neighbour_sums_of_every_row(rows, deg):
    """The generator the edge-product sum replaced: for every row, the empty
    ones included, the sum of deg over its bits, with planes built bit by
    bit."""
    planes = [
        int(bytes(d >> k & 1 for d in reversed(deg)).translate(zagreb._BIT_CHARS), 2)
        for k in range(max(deg, default=0).bit_length())
    ]
    return (sum((row & plane).bit_count() << k for k, plane in enumerate(planes))
            for row in rows)


def test_edge_products_skip_only_empty_rows():
    rng = random.Random(2026)
    graphs = [random_graph(rng, max_n=60) for _ in range(100)]
    graphs.append(read_edge_list("200000 1\n0 199999\n"))
    for g in graphs:
        for deg in (g.degrees(), [g.vertex_count - 1 - d for d in g.degrees()]):
            old = list(neighbour_sums_of_every_row(g.rows, deg))
            assert not any(s for s, r in zip(old, g.rows) if not r)
            assert zagreb._edge_products(g.rows, deg) == sum(map(mul, deg, old))
