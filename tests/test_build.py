"""Family builders, special groups, ingestion, and the catalog."""

import random
from itertools import permutations

import pytest

from groupzagreb import build, ff
from groupzagreb.build import (
    CayleyFormatError,
    FamilyError,
    FamilySpec,
    OrderCapError,
    _parse_row,
    build_family,
    builtin_special_groups,
    catalog,
    cyclic,
    direct_product,
    ingest_cayley,
    special_group,
)
from groupzagreb.grp import FiniteGroup, GroupTableError, close
from groupzagreb.zagreb import group_report
from graph_oracles import commuting_graph, extract_clique_decomposition
from quotient_oracles import element_order

B = lambda fam, *ps: build_family(FamilySpec(fam, tuple(ps)))


# -- order formulas and validation ------------------------------------------

ORDER_SWEEP = (
    [("dihedral", (m,)) for m in range(3, 13)]
    + [("dicyclic", (n,)) for n in range(2, 8)]
    + [("quasidihedral", (n,)) for n in (4, 5, 6)]
    + [("sd8n", (n,)) for n in (2, 3, 4, 5)]
    + [("v8n", (n,)) for n in (1, 2, 3, 4, 5)]
    + [("u6n", (n,)) for n in (1, 2, 3, 4)]
    + [("m2mn", (m, n)) for m in (3, 5, 6, 7) for n in (1, 2, 3)]
    + [("pq", pq) for pq in ((2, 3), (2, 5), (3, 7), (2, 11), (5, 11))]
    + [("sz2", ())]
    + [("hanaki_a1", (n,)) for n in (2, 3)]
    + [("hanaki_a2", np) for np in ((1, 2), (1, 3), (1, 5), (2, 2))]
    + [("gl2", (q,)) for q in (3, 4, 5)]
    + [("psl2", (k,)) for k in (2, 3)]
)


@pytest.mark.parametrize("fam,params", ORDER_SWEEP)
def test_order_formula_and_axioms(fam, params):
    spec = FamilySpec(fam, params)
    G = build_family(spec)
    assert G.order == spec.order()
    assert G.family == fam and G.params == params
    G.validate()


def test_dihedral_3_is_s3():
    G = B("dihedral", 3)
    assert G.order == 6 and not G.is_abelian() and len(G.center()) == 1


def test_gl2_3():
    G = B("gl2", 3)
    assert G.order == 48 == (9 - 1) * (9 - 3)
    assert len(G.center()) == 2


def test_pq_3_7():
    G = B("pq", 3, 7)
    assert G.order == 21
    assert len(G.center()) == 1
    # the 7 Sylow-3 subgroups give 7 K_2 cliques, the Sylow-7 a K_6
    assert extract_clique_decomposition(commuting_graph(G)).parts == ((7, 2), (1, 6))


def test_hanaki_a1_2():
    G = B("hanaki_a1", 2)
    assert G.order == 16
    # center = {U(0, b)}: with (a, b) pairs indexed a-major, these are 0..3
    assert G.center() == (0, 1, 2, 3)


def test_invalid_parameters_rejected():
    for fam, params in [
        ("dihedral", (2,)), ("dicyclic", (1,)), ("quasidihedral", (3,)),
        ("sd8n", (1,)), ("v8n", (0,)), ("u6n", (0,)),
        ("m2mn", (4, 2)), ("m2mn", (2, 1)),
        ("pq", (3, 5)),   # 3 does not divide 4
        ("pq", (7, 3)),   # p >= q
        ("pq", (2, 9)),   # 9 not prime
        ("hanaki_a1", (1,)), ("hanaki_a2", (1, 4)),
        ("gl2", (2,)), ("gl2", (6,)), ("psl2", (1,)),
    ]:
        with pytest.raises(FamilyError):
            FamilySpec(fam, params)
    with pytest.raises(FamilyError):
        FamilySpec("nosuch", ())


def test_order_cap():
    with pytest.raises(OrderCapError):
        build_family(FamilySpec("dihedral", (60,)), order_cap=100)
    assert build_family(FamilySpec("dihedral", (60,)), order_cap=120).order == 120


# -- table oracles ----------------------------------------------------------------
# Each builder gives ``close`` the rows of a generating set and close composes
# the rest.  The oracles below compute every entry with the builder's own
# arithmetic, one product per cell, and the built tables must equal them.

def dihedral_oracle(m):
    n = 2 * m
    table = []
    for i in range(n):
        u1, s1 = i % m, i // m
        sign = -1 if s1 else 1
        table.append([((u1 + sign * (j % m)) % m) + (((s1 + j // m) % 2) * m) for j in range(n)])
    return table


def dicyclic_oracle(n):
    twon = 2 * n
    table = []
    for i in range(4 * n):
        u1, s1 = i % twon, i // twon
        sign = -1 if s1 else 1
        row = []
        for j in range(4 * n):
            u2, s2 = j % twon, j // twon
            u = u1 + sign * u2 + (n if s1 and s2 else 0)
            row.append((u % twon) + (((s1 + s2) % 2) * twon))
        table.append(row)
    return table


def u6n_oracle(n):
    twon = 2 * n
    table = []
    for idx in range(6 * n):
        i1, j1 = idx % 3, idx // 3
        sign = -1 if j1 % 2 else 1
        table.append([((i1 + sign * (jdx % 3)) % 3) + 3 * ((j1 + jdx // 3) % twon)
                      for jdx in range(6 * n)])
    return table


def m2mn_oracle(m, n):
    twon = 2 * n
    table = []
    for idx in range(2 * m * n):
        i1, j1 = idx % m, idx // m
        sign = -1 if j1 % 2 else 1
        table.append([((i1 + sign * (jdx % m)) % m) + m * ((j1 + jdx // m) % twon)
                      for jdx in range(2 * m * n)])
    return table


def metacyclic_oracle(m, k, r, s=0):
    """<a, b | a^m, b^k = a^s, b a b^-1 = a^r> with a^i b^j at index i + m*j:
    (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + r^j1 i2) b^(j1 + j2), b^k = a^s."""
    table = []
    for x in range(m * k):
        i1, j1 = x % m, x // m
        row = []
        for y in range(m * k):
            i2, j2 = y % m, y // m
            i = i1 + r ** j1 * i2
            if j1 + j2 >= k:
                i += s
            row.append(i % m + m * ((j1 + j2) % k))
        table.append(row)
    return table


def abelian_by_cyclic_oracle(m1, m2, k, act, s=(0, 0)):
    """(Z_m1 x Z_m2) : Z_k, b acting on (x, y) as (p x + q y, r x + t y) for
    act = (p, q, r, t) and b^k = s, with (x, y) b^j at index x + m1*y + m1*m2*j:
    each product applies act j1 times to (x2, y2)."""
    p, q, r, t = act
    m = m1 * m2
    table = []
    for i in range(m * k):
        x1, y1, j1 = i % m1, i // m1 % m2, i // m
        row = []
        for j in range(m * k):
            x2, y2, j2 = j % m1, j // m1 % m2, j // m
            for _ in range(j1):
                x2, y2 = p * x2 + q * y2, r * x2 + t * y2
            x, y = x1 + x2, y1 + y2
            if j1 + j2 >= k:
                x, y = x + s[0], y + s[1]
            row.append(x % m1 + m1 * (y % m2) + m * ((j1 + j2) % k))
        table.append(row)
    return table


def pq_oracle(p, q):
    return metacyclic_oracle(q, p, next(r for r in range(2, q) if pow(r, p, q) == 1))


def cyclic_oracle(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# The three oracles below give the whole table, or with ``rows`` only the
# listed rows, each cell one product and one lookup of its coefficient tuple.

def hanaki_a1_oracle(n, rows=None):
    q = 2**n
    add, mul = ff.field_of_order(q)
    frob = [mul[i][i] for i in range(q)]
    els = [(a, b) for a in range(q) for b in range(q)]
    idx = {e: i for i, e in enumerate(els)}
    return [[idx[(add[a1][a2], add[add[b1][b2]][mul[frob[a1]][a2]])] for a2, b2 in els]
            for a1, b1 in (els if rows is None else map(els.__getitem__, rows))]


def hanaki_a2_oracle(n, p, rows=None):
    q = p**n
    add, mul = ff.field_of_order(q)
    els = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    idx = {e: i for i, e in enumerate(els)}
    return [[idx[(add[a1][a2], add[add[b1][b2]][mul[c1][a2]], add[c1][c2])]
             for a2, b2, c2 in els]
            for a1, b1, c1 in (els if rows is None else map(els.__getitem__, rows))]


def matrix_oracle(q, det_ok, rows=None):
    """2x2 matrices over GF(q) with det_ok(det, one), lex order, identity first."""
    add, mul = ff.field_of_order(q)
    neg = [row.index(0) for row in add]
    one = 1
    els = [
        (a, b, c, d)
        for a in range(q) for b in range(q) for c in range(q) for d in range(q)
        if det_ok(add[mul[a][d]][neg[mul[b][c]]], one)
    ]
    els.remove((one, 0, 0, one))
    els.insert(0, (one, 0, 0, one))
    idx = {e: i for i, e in enumerate(els)}
    return [
        [idx[(add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
              add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])]
         for e, f, g, h in els]
        for a, b, c, d in (els if rows is None else map(els.__getitem__, rows))
    ]


def gl2_oracle(q, rows=None):
    return matrix_oracle(q, lambda det, one: det != 0, rows)


def sl2_oracle(q, rows=None):
    return matrix_oracle(q, lambda det, one: det == one, rows)


def perm_group_oracle(n, even_only=False):
    els = sorted(
        p for p in permutations(range(n))
        if not even_only or sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0
    )
    idx = {e: i for i, e in enumerate(els)}
    return [[idx[tuple(s[t[i]] for i in range(n))] for t in els] for s in els]


def direct_product_oracle(tg, th):
    og, oh = len(tg), len(th)
    return [
        [tg[i1][i2] * oh + th[j1][j2] for i2 in range(og) for j2 in range(oh)]
        for i1 in range(og) for j1 in range(oh)
    ]


ORACLES = {
    "dihedral": dihedral_oracle,
    "dicyclic": dicyclic_oracle,
    "u6n": u6n_oracle,
    "m2mn": m2mn_oracle,
    "pq": pq_oracle,
    "quasidihedral": lambda n: metacyclic_oracle(2 ** (n - 1), 2, 2 ** (n - 2) - 1),
    "sd8n": lambda n: metacyclic_oracle(4 * n, 2, 2 * n - 1),
    "v8n": lambda n: abelian_by_cyclic_oracle(2 * n, 2, 2, (-1, 0, 1, 1), (0, 1)),
    "sz2": lambda: metacyclic_oracle(5, 4, 3),
    "hanaki_a1": hanaki_a1_oracle,
    "hanaki_a2": hanaki_a2_oracle,
    "gl2": gl2_oracle,
    "psl2": lambda k: sl2_oracle(2 ** k),
    "A_4": lambda: abelian_by_cyclic_oracle(2, 2, 3, (0, 1, 1, 1)),
    "S_4": lambda: perm_group_oracle(4),
    "A_5": lambda: sl2_oracle(4),
    "SL(2,3)": lambda: sl2_oracle(3),
    "M_16": lambda: metacyclic_oracle(8, 2, 5),
    "Z_4:Z_4": lambda: metacyclic_oracle(4, 4, -1),
    "D_8*Z_4": lambda: abelian_by_cyclic_oracle(4, 2, 2, (1, 2, 0, 1)),
    "SG(16,3)": lambda: abelian_by_cyclic_oracle(4, 2, 2, (1, 0, 1, 1)),
    "Z_2xD_8": lambda: direct_product_oracle(cyclic_oracle(2), dihedral_oracle(4)),
    "Z_2xQ_8": lambda: direct_product_oracle(cyclic_oracle(2), dicyclic_oracle(2)),
    "D_6xZ_3": lambda: direct_product_oracle(dihedral_oracle(3), cyclic_oracle(3)),
    "A_4xZ_2": lambda: abelian_by_cyclic_oracle(2, 2, 6, (0, 1, 1, 1)),
}


@pytest.mark.parametrize("entry", catalog(128), ids=lambda e: e.label)
def test_table_matches_per_entry_oracle(entry):
    key = entry.label if entry.family == "special" else entry.family
    assert entry.build().table == ORACLES[key](*entry.params)


@pytest.mark.parametrize("name,oracle", [
    ("A_4", lambda: perm_group_oracle(4, even_only=True)),
    ("A_4xZ_2", lambda: direct_product_oracle(perm_group_oracle(4, even_only=True),
                                              cyclic_oracle(2))),
])
def test_a4_builds_match_even_permutations(name, oracle):
    # the even permutations of 4 points are a construction independent of
    # the (Z_2 x Z_2) : Z_k normal form
    built = group_report(special_group(name))
    assert group_report(FiniteGroup(oracle()))._replace(label=name) == built


@pytest.mark.parametrize("fam,params", [
    ("psl2", (3,)),          # order 504
    ("gl2", (5,)),           # order 480
    ("dihedral", (1000,)),   # order 2000
])
def test_large_table_matches_per_entry_oracle(fam, params):
    assert build_family(FamilySpec(fam, params)).table == ORACLES[fam](*params)


def asking(table, asked):
    """A row_of for close that serves rows of ``table`` and records each request."""
    return lambda s: asked.append(s) or list(table[s])


def test_close_cyclic_asks_for_one_row():
    table = cyclic_oracle(12)
    asked = []
    assert close(12, asking(table, asked)) == table
    assert asked == [1]


def test_close_direct_product_asks_for_each_new_generator():
    # D_6 x Q_8 at index i*8 + j: (1, f) reaches <f> of order 4, (1, g) all
    # of Q_8, (r, 1) the order-24 subgroup, (s, 1) the whole group
    table = direct_product_oracle(dihedral_oracle(3), dicyclic_oracle(2))
    asked = []
    assert close(48, asking(table, asked)) == table
    assert asked == [1, 4, 8, 24]


def test_direct_product_matches_oracle():
    G = direct_product(special_group("S_4"), B("dicyclic", 3))
    assert G.table == direct_product_oracle(perm_group_oracle(4), dicyclic_oracle(3))


# -- direct products -----------------------------------------------------------

def test_direct_product_with_trivial():
    G = B("dihedral", 3)
    P = direct_product(G, cyclic(1))
    assert P.table == G.table


def test_d6_z3():
    P = special_group("D_6xZ_3")
    assert P.order == 18
    assert len(P.center()) == 3


def test_a4_z2():
    P = special_group("A_4xZ_2")
    assert P.order == 24
    assert len(P.center()) == 2
    # five distinct centralizers of non-central elements (plus G itself)
    assert P.count_distinct_centralizers() == 6


def test_direct_product_component_orders():
    G = direct_product(cyclic(4), B("dihedral", 3))
    assert G.order == 24
    G.validate()


def test_direct_product_cap():
    with pytest.raises(OrderCapError):
        direct_product(cyclic(100), cyclic(100), order_cap=5000)


# -- special groups ---------------------------------------------------------------

def test_special_group_roster():
    groups = builtin_special_groups()
    assert [G.label for G in groups] == [
        "A_4", "S_4", "A_5", "SL(2,3)", "M_16", "Z_4:Z_4", "D_8*Z_4",
        "SG(16,3)", "Z_2xD_8", "Z_2xQ_8", "D_6xZ_3", "A_4xZ_2",
    ]
    for G in groups:
        G.validate()
        assert not G.is_abelian()


def test_order16_specials_have_klein_quotient():
    from quotient_oracles import central_quotient, recognize_elementary_abelian_p2

    for name in ("M_16", "Z_4:Z_4", "D_8*Z_4", "SG(16,3)", "Z_2xD_8", "Z_2xQ_8"):
        G = special_group(name)
        assert G.order == 16 and len(G.center()) == 4
        assert recognize_elementary_abelian_p2(central_quotient(G)) == 2


def test_a4_commuting_graph():
    G = special_group("A_4")
    assert G.order == 12 and len(G.center()) == 1
    assert extract_clique_decomposition(commuting_graph(G)).parts == ((4, 2), (1, 3))


def test_sl23_commuting_graph():
    G = special_group("SL(2,3)")
    assert G.order == 24
    assert extract_clique_decomposition(commuting_graph(G)).parts == ((3, 2), (4, 4))


def test_s4_commuting_graph_counts():
    # Every 4-cycle commutes with its square, so the 4-cycles attach to the
    # double-transposition component: 23 vertices and 25 edges, and the graph
    # is not a disjoint union of cliques.
    G = special_group("S_4")
    cg = commuting_graph(G)
    assert (cg.vertex_count, cg.edge_count) == (23, 25)
    assert extract_clique_decomposition(cg) is None


def test_a5_matches_psl2_4():
    a5 = special_group("A_5")
    psl = B("psl2", 2)
    stats = lambda G: (
        G.order,
        len(G.center()),
        sorted(element_order(G, x) for x in range(G.order)),
        sorted(len(G.centralizer(x)) for x in range(G.order)),
    )
    assert stats(a5) == stats(psl)


def test_unknown_special():
    with pytest.raises(FamilyError):
        special_group("F_42")


# -- ingestion -----------------------------------------------------------------------

def cayley_text(G, name=None):
    lines = [str(G.order)]
    lines += [" ".join(str(v) for v in row) for row in G.table]
    if name:
        lines.append(f"# name: {name}")
    return "\n".join(lines) + "\n"


def test_ingest_z2():
    G = ingest_cayley("2\n0 1\n1 0\n")
    assert G.order == 2 and G.is_abelian()


def test_ingest_s3_matches_builder(tmp_path):
    built = B("dihedral", 3)
    path = tmp_path / "s3.cayley"
    path.write_text(cayley_text(built, name="S_3"), encoding="utf-8")
    G = ingest_cayley(path)
    assert G.label == "S_3"
    assert G.table == built.table
    assert G.commutativity_degree() == built.commutativity_degree()
    assert G.count_distinct_centralizers() == built.count_distinct_centralizers()


def test_ingest_renumbers_identity():
    # Z_2 written with the identity at index 1
    G = ingest_cayley("2\n1 0\n0 1\n")
    assert G.table == [[0, 1], [1, 0]]


def test_ingest_renumbering_preserves_structure():
    built = B("dihedral", 3)
    # relabel elements by the permutation that swaps 0 <-> 3
    perm = [3, 1, 2, 0, 4, 5]
    inv = [perm.index(i) for i in range(6)]
    scrambled = [
        [inv[built.table[perm[i]][perm[j]]] for j in range(6)]
        for i in range(6)
    ]
    G = ingest_cayley(cayley_text_from(scrambled))
    assert sorted(element_order(G, x) for x in range(6)) == \
        sorted(element_order(built, x) for x in range(6))
    assert G.commutativity_degree() == built.commutativity_degree()


def cayley_text_from(table):
    lines = [str(len(table))]
    lines += [" ".join(str(v) for v in row) for row in table]
    return "\n".join(lines) + "\n"


# frozen order-5 loop: identity, Latin rows/columns, two-sided inverses,
# but (1*2)*3 != 1*(2*3)
NONASSOC_LOOP = (
    "5\n"
    "0 1 2 3 4\n"
    "1 0 4 2 3\n"
    "2 3 0 4 1\n"
    "3 4 1 0 2\n"
    "4 2 3 1 0\n"
)


def test_ingest_rejects_nonassociative_latin_square():
    with pytest.raises(GroupTableError, match="associativity"):
        ingest_cayley(NONASSOC_LOOP)


def test_ingest_rejects_no_identity():
    with pytest.raises(GroupTableError, match="identity"):
        ingest_cayley("2\n1 0\n1 0\n")


def test_ingest_format_errors():
    with pytest.raises(CayleyFormatError):
        ingest_cayley("")
    with pytest.raises(CayleyFormatError):
        ingest_cayley("x\n")
    with pytest.raises(CayleyFormatError):
        ingest_cayley("2\n0 1\n")  # missing row
    with pytest.raises(CayleyFormatError):
        ingest_cayley("2\n0 1 0\n1 0 1\n")  # wrong row width
    with pytest.raises(CayleyFormatError):
        ingest_cayley("2\n0 5\n1 0\n")  # entry out of range


@pytest.mark.parametrize("text,bad_row", [
    ("3\n0 1 2\n1 2 -1\n2 0 3\n", "1 2 -1"),  # the first row out of range is named
    ("3\n0 1 2\n1 2 0\n2 0 3\n", "2 0 3"),
    ("3\n0 1 2\n9 2 0\n2 0 1\n", "9 2 0"),
])
def test_ingest_names_the_first_row_out_of_range(text, bad_row):
    with pytest.raises(CayleyFormatError) as err:
        ingest_cayley(text)
    assert str(err.value) == f"entry out of range [0,3) in row {bad_row!r}"


def relabelled_text(G, seed):
    """G's table under a seeded random relabelling that moves the identity
    off index 0."""
    rng = random.Random(seed)
    n = G.order
    new = list(range(n))
    rng.shuffle(new)
    if new[0] == 0:
        new[0], new[1] = new[1], new[0]
    old = [0] * n
    for o, nw in enumerate(new):
        old[nw] = o
    return cayley_text_from(
        [[new[G.table[old[a]][old[b]]] for b in range(n)] for a in range(n)]
    )


@pytest.mark.parametrize("fam,params,seed", [
    ("hanaki_a2", (1, 7), 1),  # order 343
    ("m2mn", (13, 20), 2),     # order 520
], ids=["hanaki_a2(1,7)", "m2mn(13,20)"])
def test_ingest_relabelled_large_table_matches_closed_form(fam, params, seed):
    from groupzagreb.formulas import ENTRIES

    G = ingest_cayley(relabelled_text(B(fam, *params), seed))
    rep = group_report(G)
    pred = ENTRIES[fam].evaluate(params)
    assert G.order == FamilySpec(fam, params).order()
    assert (rep.c.vertices, rep.c.edges, rep.c.m1, rep.c.m2) == \
        (pred.vertices, pred.edges_c, pred.m1_c, pred.m2_c)
    assert (rep.nc.edges, rep.nc.m1, rep.nc.m2) == (pred.edges_nc, pred.m1_nc, pred.m2_nc)
    assert rep.decomposition == pred.decomposition


# -- canonical tokens against the per-row int() parse -------------------------------

def table_lines(G, identity_at, seed):
    """G's table under a seeded relabelling that puts the identity at index
    ``identity_at``, one row of tokens per line."""
    n = G.order
    new = list(range(n))
    random.Random(seed).shuffle(new)
    k = new.index(identity_at)
    new[0], new[k] = new[k], new[0]
    old = [0] * n
    for o, nw in enumerate(new):
        old[nw] = o
    return [[str(new[G.table[old[a]][old[b]]]) for b in range(n)] for a in range(n)]


def ingest_by_rows(text):
    """The reference ingestion: every row read by _parse_row, then the
    identity moved to index 0 by one dict lookup per cell."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0])
    t = [_parse_row(ln, n) for ln in lines[1:]]
    e = next(e for e in range(n)
             if t[e] == list(range(n)) and all(t[i][e] == i for i in range(n)))
    order = [e] + [i for i in range(n) if i != e]
    new_of_old = {old: new for new, old in enumerate(order)}
    return [[new_of_old[t[i][j]] for j in order] for i in order]


def table_outcome(read, text):
    try:
        return "table", read(text)
    except CayleyFormatError as err:
        return "error", str(err)


def assert_ingests_as_rows(text):
    got = table_outcome(lambda t: ingest_cayley(t).table, text)
    assert got == table_outcome(ingest_by_rows, text)
    return got


@pytest.mark.parametrize("identity_at", [0, 1, 11, 23])  # S_4 has 24 elements
def test_ingest_matches_per_row_parse_on_noisy_tokens(identity_at):
    rng = random.Random(identity_at)
    rows = table_lines(special_group("S_4"), identity_at, identity_at)
    for r in rows:
        for j in rng.sample(range(24), 6):
            r[j] = rng.choice(("+", "0", "00")) + r[j]
    text = cayley_text_from(rows).replace(" ", "\t ", 40)
    kind, table = assert_ingests_as_rows(text)
    assert kind == "table" and table[0] == list(range(24))


# each fault as an edit of one row, with the start of the message the
# per-row parse gives for it; "non_canonical" is no fault
TABLE_FAULTS = {
    "non_canonical": (lambda r: ["+" + r[0]] + r[1:], None),
    "out_of_range": (lambda r: r[:-1] + ["24"], "entry out of range"),
    "negative": (lambda r: ["-1"] + r[1:], "entry out of range"),
    "non_integer": (lambda r: r[:3] + ["x"] + r[4:], "non-integer entry"),
    "decimal": (lambda r: r[:-1] + ["1.0"], "non-integer entry"),
    "short": (lambda r: r[:-1], "row has 23 entries"),
    "long": (lambda r: r + ["0"], "row has 25 entries"),
    "short_non_integer": (lambda r: r[:-2] + ["y"], "non-integer entry"),
}


@pytest.mark.parametrize("identity_at", [0, 11, 23])
@pytest.mark.parametrize("second", list(TABLE_FAULTS))
@pytest.mark.parametrize("first", list(TABLE_FAULTS))
def test_ingest_names_the_first_fault_like_the_per_row_parse(first, second, identity_at):
    rows = table_lines(special_group("S_4"), identity_at, 7)
    i, j = sorted(random.Random(f"{first}/{second}").sample(range(24), 2))
    rows[i] = TABLE_FAULTS[first][0](rows[i])
    rows[j] = TABLE_FAULTS[second][0](rows[j])
    kind, message = assert_ingests_as_rows(cayley_text_from(rows))
    expected = TABLE_FAULTS[first][1] or TABLE_FAULTS[second][1]
    if expected is None:
        assert kind == "table"
    else:
        assert kind == "error" and message.startswith(expected), message


# -- regression guard: a canonical table never takes the per-row int() parse --------

def test_canonical_table_is_read_without_the_per_row_parse(monkeypatch):
    built = B("hanaki_a2", 1, 3)
    text = relabelled_text(built, 5)

    def no_parse(*args):
        raise AssertionError("canonical table fell back to the per-row int() parse")

    monkeypatch.setattr(build, "_parse_row", no_parse)
    G = ingest_cayley(text)
    monkeypatch.undo()
    assert G.table == ingest_by_rows(text)
    assert G.commutativity_degree() == built.commutativity_degree()


# -- the axioms after the parse ------------------------------------------------------

def test_ingest_never_runs_the_entry_screen(monkeypatch):
    def no_screen(self):
        raise AssertionError("ingest ran the entry screen")

    monkeypatch.setattr(FiniteGroup, "_screen_entries", no_screen)
    built = B("hanaki_a2", 1, 3)
    G = ingest_cayley(relabelled_text(built, 5))
    assert G.commutativity_degree() == built.commutativity_degree()
    with pytest.raises(GroupTableError, match="associativity"):
        ingest_cayley(NONASSOC_LOOP)
    rows = table_lines(special_group("S_4"), 11, 3)
    rows[4][7] = rows[4][8]
    with pytest.raises(GroupTableError, match="Latin square violated: row"):
        ingest_cayley(cayley_text_from(rows))


def _extra_zero_in_row_0(rows):
    rows[0][3] = "0"  # a 0 before the identity's column 11


def _no_zero_in_row_0(rows):
    rows[0][11] = rows[0][3]


def _identity_column_broken(rows):
    rows[5][11] = rows[5][12]


@pytest.mark.parametrize("edit,message", [
    (_extra_zero_in_row_0, "Latin square violated: row 1 is not a permutation"),
    (_no_zero_in_row_0, "identity axiom violated: no two-sided identity element"),
    (_identity_column_broken, "identity axiom violated: no two-sided identity element"),
])
def test_wrong_row_0_candidate_keeps_the_message(edit, message):
    rows = table_lines(special_group("S_4"), 11, 7)
    assert rows[0].index("0") == 11
    edit(rows)
    with pytest.raises(GroupTableError) as err:
        ingest_cayley(cayley_text_from(rows))
    assert str(err.value) == message


def test_group_rejects_a_table_whose_only_fault_is_a_column(tmp_path, capsys):
    from groupzagreb.cli import main

    rows = [[int(v) for v in r] for r in table_lines(special_group("S_4"), 11, 9)]
    rows[4][2], rows[4][7] = rows[4][7], rows[4][2]  # off the identity's row and column
    assert all(sorted(r) == list(range(24)) for r in rows)
    assert any(sorted(col) != list(range(24)) for col in zip(*rows))
    path = tmp_path / "column.cayley"
    path.write_text(cayley_text_from(rows), encoding="utf-8")
    assert main(["group", "--cayley", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {path}: ")
    assert "associativity violated" in line or "has no two-sided inverse" in line


# -- catalog ----------------------------------------------------------------------------

def test_catalog_max_order_8():
    got = [(e.family, e.params) for e in catalog(8)]
    assert got == [
        ("dihedral", (3,)), ("m2mn", (3, 1)), ("pq", (2, 3)), ("u6n", (1,)),
        ("dicyclic", (2,)), ("dihedral", (4,)), ("hanaki_a2", (1, 2)), ("v8n", (1,)),
    ]


def test_catalog_excludes_pq_3_7_at_20():
    fams = [(e.family, e.params) for e in catalog(20)]
    assert ("pq", (2, 3)) in fams and ("pq", (2, 5)) in fams
    assert ("pq", (3, 7)) not in fams  # order 21 > 20
    assert ("sz2", ()) in fams


def test_catalog_includes_psl2_at_60():
    labels = [e.label for e in catalog(60)]
    assert "PSL(2,4)" in labels
    assert "A_5" in labels  # the special-group realization is distinct


def test_catalog_sorted_and_buildable():
    entries = catalog(24)
    keys = [e.sort_key() for e in entries]
    assert keys == sorted(keys)
    for e in entries:
        G = e.build()
        assert G.order == e.order


def test_catalog_entry_cap_applies_to_special_groups():
    entry = next(e for e in catalog(60) if e.label == "A_5")
    with pytest.raises(OrderCapError, match="A_5 has order 60, above the cap 10"):
        entry.build(order_cap=10)
    assert entry.build(order_cap=60).order == 60


def test_catalog_rejects_tiny_bound():
    with pytest.raises(FamilyError):
        catalog(5)


@pytest.mark.parametrize("fam,params", [
    ("gl2", (7,)),           # order 2016
    ("hanaki_a2", (1, 13)),  # order 2197
    ("quasidihedral", (10,)),
    ("dihedral", (500,)),
    ("m2mn", (9, 55)),
    ("gl2", (8,)),           # order 3528
    ("psl2", (4,)),          # order 4080
])
def test_order_formulas_above_512(fam, params):
    # samples the order-formula and closed-form agreement well above the
    # scan range, up to a few thousand elements
    from groupzagreb.formulas import ENTRIES, crosscheck

    spec = FamilySpec(fam, params)
    G = build_family(spec)
    assert G.order == spec.order()
    assert crosscheck(ENTRIES[fam], params, report=group_report(G)).clean
