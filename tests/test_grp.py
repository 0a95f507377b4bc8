"""Group queries against independent brute-force oracles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from groupzagreb.build import (
    FamilySpec,
    _symmetric,
    build_family,
    catalog,
    direct_product,
    ingest_cayley,
    special_group,
)
from groupzagreb.grp import (
    Commutation,
    FiniteGroup,
    GroupTableError,
    bitmask,
    flags_of,
    group_of_table,
)
from graph_oracles import centralizer_mask, centralizer_masks, commuting_graph
from test_build import assert_group, cyclic, fingerprint
from quotient_oracles import (
    center_cosets,
    central_quotient,
    distinct_centralizers,
    element_order,
    recognize_dihedral,
    recognize_elementary_abelian_p2,
)

B = lambda fam, *ps: build_family(FamilySpec(fam, tuple(ps)))


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# -- independent oracles ------------------------------------------------------

def naive_center(G):
    return tuple(
        x for x in range(G.order)
        if all(G.table[x][g] == G.table[g][x] for g in range(G.order))
    )


def naive_commuting_pairs(G):
    return sum(
        1
        for x in range(G.order)
        for y in range(G.order)
        if G.table[x][y] == G.table[y][x]
    )


def naive_centralizer(G, x):
    return tuple(g for g in range(G.order) if G.table[x][g] == G.table[g][x])


def bits(mask):
    return tuple(g for g in range(mask.bit_length()) if mask >> g & 1)


def naive_commuting_rows(G):
    z = naive_center(G)
    vertices = [x for x in range(G.order) if x not in z]
    rows = [0] * len(vertices)
    for a, x in enumerate(vertices):
        for b, y in enumerate(vertices):
            if a < b and G.table[x][y] == G.table[y][x]:
                rows[a] |= 1 << b
    return rows


def naive_conjugacy_class_count(G):
    """k(G) by conjugating every x by every g: O(n^2)."""
    t = G.table
    n = G.order
    inv = [t[g].index(0) for g in range(n)]
    seen = [False] * n
    classes = 0
    for x in range(n):
        if seen[x]:
            continue
        classes += 1
        for g in range(n):
            seen[t[t[g][x]][inv[g]]] = True
    return classes


def naive_quotient_classes(G):
    """The classes of G/Z(G) as sets of elements, numbered by their lowest
    element: the class of x is every z*g^-1*x*g, z central, so conjugate x
    by every g and multiply by every z: O(n + z*|class|) per class."""
    t = G.table
    n = G.order
    inv = [t[g].index(0) for g in range(n)]
    z = naive_center(G)
    class_of = [-1] * n
    sizes, reps = [], []
    for x in range(n):
        if class_of[x] < 0:
            conjugates = {t[t[inv[g]][x]][g] for g in range(n)}
            cls = {t[zz][y] for zz in z for y in conjugates}
            for y in cls:
                class_of[y] = len(reps)
            sizes.append(len(cls))
            reps.append(x)
    return class_of, sizes, reps


def naive_central_quotient(G):
    """G/Z(G) cell by cell on lowest-index coset representatives."""
    t = G.table
    z = naive_center(G)
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        for zz in z:
            coset_of[t[g][zz]] = len(reps)
        reps.append(g)
    return [[coset_of[t[a][b]] for b in reps] for a in reps]


def relabelled(G, seed):
    """G ingested from a table whose elements were shuffled, so that its
    identity and generators sit at other indices of the file."""
    t = G.table
    n = len(t)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert perm[0] != 0
    inv = [perm.index(i) for i in range(n)]
    rows = [[inv[t[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
    return ingest_cayley(f"{n}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")


def relabelled_sl23():
    return relabelled(special_group("SL(2,3)"), 7)


def extraspecial_32() -> FiniteGroup:
    """2^{1+4}_+ = D_8 o D_8: the real Pauli group on two qubits, closed from
    X(x)I, Z(x)I, I(x)X and I(x)Z as 4x4 signed matrices.  Its center is
    {I, -I}, every non-central centralizer has order 16 and none is abelian."""
    pauli_x, pauli_z, one = ((0, 1), (1, 0)), ((1, 0), (0, -1)), ((1, 0), (0, 1))

    def kron(a, b):
        return tuple(tuple(a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4))
                     for i in range(4))

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
                     for i in range(4))

    gens = [kron(pauli_x, one), kron(pauli_z, one), kron(one, pauli_x), kron(one, pauli_z)]
    elements = [kron(one, one)]
    index = {elements[0]: 0}
    for a in elements:
        for g in gens:
            b = mul(a, g)
            if b not in index:
                index[b] = len(elements)
                elements.append(b)
    return group_of_table([[index[mul(a, b)] for b in elements] for a in elements])


# -- table products ------------------------------------------------------------

def test_multiply_identity():
    G = B("dihedral", 5)
    for x in range(G.order):
        assert G.table[0][x] == x
        assert G.table[x][0] == x


def test_dihedral_relation():
    # s * r = r^(m-1) * s in D_2m (element u + flip*m encoding)
    G = B("dihedral", 3)
    m = 3
    r, s = 1, m
    assert G.table[s][r] == (m - 1) + m
    # and r^(m-1) s equals s r as group elements (the defining relation)
    assert G.table[G.table[s][r]][s] == m - 1  # s r s = r^-1


def test_quaternion_central_involution():
    G = B("dicyclic", 2)  # Q_8: f index 1 (order 4), g index 4
    g = 4
    gg = G.table[g][g]
    assert gg == 2  # f^2, the unique central involution
    assert gg in G.center()


# -- center / centralizer ------------------------------------------------------

def test_center_abelian_is_everything():
    G = group_of_table(cyclic_table(6), "Z_6")
    assert G.center() == tuple(range(6))
    assert G.count_distinct_centralizers() == 1


@pytest.mark.parametrize("fam,params,size", [
    ("dicyclic", (2,), 2),       # Q_8
    ("gl2", (3,), 2),            # |Z(GL(2,q))| = q-1
    ("gl2", (4,), 3),
    ("gl2", (5,), 4),
    ("dihedral", (7,), 1),
    ("hanaki_a1", (2,), 4),
    ("sd8n", (2,), 2),
    ("psl2", (2,), 1),
])
def test_center_sizes(fam, params, size):
    G = build_family(FamilySpec(fam, params))
    assert len(G.center()) == size
    assert G.center() == naive_center(G)


def test_center_of_q8_is_identity_and_f2():
    G = B("dicyclic", 2)
    assert G.center() == (0, 2)


def test_centralizer_contains_center_self_identity():
    for G in (B("dihedral", 6), B("sd8n", 2), special_group("A_4")):
        z = set(G.center())
        for x in range(G.order):
            c = set(bits(G._centralizer_mask(x)))
            assert z <= c and x in c and 0 in c
            assert G.order % len(c) == 0  # Lagrange


def test_centralizer_of_central_element_is_everything():
    G = B("dihedral", 4)
    for x in G.center():
        assert bits(G._centralizer_mask(x)) == tuple(range(G.order))


def test_centralizer_of_rotation_in_d8():
    G = B("dihedral", 4)  # rotations are indices 0..3
    assert bits(G._centralizer_mask(1)) == (0, 1, 2, 3)


def test_centralizer_sizes_in_sd16():
    G = B("sd8n", 2)
    sizes = sorted(G._centralizer_mask(x).bit_count() for x in range(G.order))
    # identity & central f^(2n): 16 each; <f>: 8 each; the 8 outside elements: 4
    assert sizes == [4] * 8 + [8] * 6 + [16] * 2


# -- distinct centralizers ------------------------------------------------------

def test_q8_is_4_centralizer():
    assert B("dicyclic", 2).count_distinct_centralizers() == 4


def test_d6z3_is_5_centralizer():
    assert special_group("D_6xZ_3").count_distinct_centralizers() == 5


def test_d6_is_5_centralizer():
    assert B("dihedral", 3).count_distinct_centralizers() == 5


# every non-abelian group of catalog(256), then larger and relabelled ones; in
# D_10 and A_4 two classes of G/Z(G) share a centralizer, so the count is too
# high unless it skips the second
DISTINCT_CENTRALIZER_CASES = {
    "D_10": lambda: B("dihedral", 5),
    "A_4": lambda: special_group("A_4"),
    **{f"catalog {e.label}": e.build for e in catalog(256)},
    "S_4": lambda: special_group("S_4"),
    "S_5": lambda: _symmetric(5),
    "A_5": lambda: special_group("A_5"),
    "S_4xZ_3": lambda: direct_product(special_group("S_4"), cyclic(3)),
    "2^{1+4}_+": extraspecial_32,
    "ingested 2^{1+4}_+": lambda: relabelled(extraspecial_32(), 9),
    "PSL(2,8)": lambda: B("psl2", 3),
    "GL(2,5)": lambda: B("gl2", 5),
}


@pytest.mark.parametrize("build", DISTINCT_CENTRALIZER_CASES.values(),
                         ids=DISTINCT_CENTRALIZER_CASES)
def test_distinct_centralizers_match_coset_mask_count(build):
    G = build()
    assert not G.is_abelian()
    assert G.count_distinct_centralizers() == distinct_centralizers(G)


# -- commutativity degree --------------------------------------------------------

def test_pr_abelian():
    G = group_of_table(cyclic_table(5), "Z_5")
    assert G.commutativity_degree() == 1


@pytest.mark.parametrize("fam,params,pr", [
    ("dicyclic", (2,), Fraction(5, 8)),
    ("dihedral", (4,), Fraction(5, 8)),
    ("dihedral", (3,), Fraction(1, 2)),
    ("hanaki_a2", (1, 3), Fraction(11, 27)),
    ("dihedral", (5,), Fraction(2, 5)),
    ("dihedral", (7,), Fraction(5, 14)),
    ("gl2", (3,), Fraction(1, 6)),
    ("psl2", (2,), Fraction(1, 12)),
])
def test_pr_known_values(fam, params, pr):
    G = build_family(FamilySpec(fam, params))
    assert G.commutativity_degree() == pr
    assert G.commutativity_degree() == Fraction(naive_commuting_pairs(G), G.order**2)


def test_pr_equals_class_count_over_order():
    # classical identity, checked on groups of order <= 100
    for fam, params in [("dihedral", (6,)), ("dicyclic", (5,)), ("u6n", (3,)),
                        ("pq", (3, 7)), ("sz2", ()), ("gl2", (3,)),
                        ("m2mn", (5, 3)), ("v8n", (4,)), ("hanaki_a1", (3,))]:
        G = build_family(FamilySpec(fam, params))
        assert G.order <= 100
        assert G.commutativity_degree() == Fraction(naive_conjugacy_class_count(G), G.order)


# -- the bit-mask codec ----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 8, 9])
def test_flags_round_trip_at_byte_edges(n):
    for flags in product(b"\x00\x01", repeat=n):
        f = bytes(flags)
        assert flags_of(bitmask(f), n) == f
        assert bitmask(f) == sum(1 << i for i, b in enumerate(f) if b)


def test_flags_round_trip_on_random_flags():
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randrange(1, 300)
        f = bytes(rng.randrange(2) for _ in range(n))
        assert flags_of(bitmask(f), n) == f


def test_element_0_is_the_lowest_bit():
    assert bitmask(b"\x01\x00\x00") == 1
    assert bitmask(b"\x00\x00\x01") == 4
    assert flags_of(2, 3) == b"\x00\x01\x00"


@pytest.mark.parametrize("n", [1, 2, 12])
def test_an_abelian_group_gives_one_class(n):
    c = cyclic(n).commutation
    assert isinstance(c, Commutation)
    assert (c.sizes, c.k, c.class_of, c.reps) == ([n], n, [0] * n, [0])
    assert c.masks == (2 ** n - 1,) and c.abelian == {2 ** n - 1}


# -- every commutation query against the table-scanning oracles ----------------------

CATALOG_64 = catalog(64)

# groups whose center is large, so that most masks are shared by a coset
LARGE_CENTER = {
    "GL(2,5)": lambda: B("gl2", 5),
    "Dic_12": lambda: B("dicyclic", 12),
    "D_6xQ_8": lambda: direct_product(B("dihedral", 3), B("dicyclic", 2)),
    "ingested M_2mn(13,20)": lambda: relabelled(B("m2mn", 13, 20), 11),
    "ingested A(3,nu)": lambda: relabelled(B("hanaki_a1", 3), 5),
}


COMMUTATION_GROUPS = pytest.mark.parametrize(
    "build",
    [e.build for e in CATALOG_64] + [relabelled_sl23, lambda: relabelled(extraspecial_32(), 9)]
    + list(LARGE_CENTER.values()),
    ids=[e.label for e in CATALOG_64] + ["ingested SL(2,3)", "ingested 2^{1+4}_+"]
    + list(LARGE_CENTER),
)


@COMMUTATION_GROUPS
def test_commutation_queries_match_naive_oracles(build):
    G = build()
    assert G.center() == naive_center(G)
    cents = [naive_centralizer(G, x) for x in range(G.order)]
    assert [bits(G._centralizer_mask(x)) for x in range(G.order)] == cents
    assert G.count_distinct_centralizers() == len(set(cents))
    pairs = naive_commuting_pairs(G)
    assert G.commutativity_degree() == Fraction(pairs, G.order**2)
    comm = G.commutation
    assert (comm.class_of, comm.sizes, comm.reps) == naive_quotient_classes(G)
    class_of, sizes, reps = comm.class_of, comm.sizes, comm.reps
    # masks[c] is the centralizer of some element of class c, not
    # necessarily of reps[c]
    class_cents = [set() for _ in reps]
    for x, c in enumerate(class_of):
        class_cents[c].add(cents[x])
    assert all(bits(m) in cs for m, cs in zip(comm.masks, class_cents))
    # the sizes[c] elements of class c have centralizers of one order
    assert sum(k * m.bit_count() for k, m in zip(sizes, comm.masks)) == pairs
    assert G.is_abelian() == (pairs == G.order**2)
    assert commuting_graph(G).rows == naive_commuting_rows(G)


@COMMUTATION_GROUPS
def test_unit_powers_share_the_class_mask(build):
    # with o the order of rZ(G), r^j for gcd(j, o) = 1 has C(r^j) = C(r): its
    # class carries c's mask, and every class holding one has order o, which
    # is the coset order, not the order of r
    G = build()
    t = G.table
    z = set(naive_center(G))
    comm = G.commutation
    class_of, reps, masks, orders = comm.class_of, comm.reps, comm.masks, comm.orders
    for c, r in enumerate(reps):
        powers = [r]
        while powers[-1] not in z:
            powers.append(t[r][powers[-1]])
        o = len(powers)
        assert orders[c] == o
        for j, y in enumerate(powers, 1):
            if gcd(j, o) == 1:
                d = class_of[y]
                assert masks[d] == masks[c]
                assert orders[d] == o


@COMMUTATION_GROUPS
def test_masks_are_kept_and_shared_by_copies(build):
    # every mask computed is kept under its element, the generators' among
    # them, each the table's own centralizer, and a kept mask is read, not
    # computed again
    G = build()
    G.count_distinct_centralizers()
    assert set(G.generators) <= set(G._masks)
    x = G.order - 1
    G._centralizer_mask(x)
    assert x in G._masks
    assert all(m == centralizer_mask(G, y) for y, m in G._masks.items())
    G._masks[x] = -1
    assert G._centralizer_mask(x) == -1


def coset_order(G, y, center):
    """The order of yZ(G), walking y's powers along the table."""
    x, k = y, 1
    while x not in center:
        x, k = G.table[x][y], k + 1
    return k


# products with non-abelian centralizers of every kind, where neither proof
# of the power walk may be taken on trust
NON_AC_PRODUCTS = {
    "S_4xD_8": lambda: direct_product(special_group("S_4"), B("dihedral", 4)),
    "S_4xQ_8": lambda: direct_product(special_group("S_4"), B("dicyclic", 2)),
    "Z_7:Z_3xS_4": lambda: direct_product(B("pq", 3, 7), special_group("S_4")),
}
CATALOG_128 = catalog(128)
POWER_WALK_GROUPS = pytest.mark.parametrize(
    "build",
    [e.build for e in CATALOG_128] + [relabelled_sl23, lambda: relabelled(extraspecial_32(), 9)]
    + list(LARGE_CENTER.values()) + list(NON_AC_PRODUCTS.values()),
    ids=[e.label for e in CATALOG_128] + ["ingested SL(2,3)", "ingested 2^{1+4}_+"]
    + list(LARGE_CENTER) + list(NON_AC_PRODUCTS),
)


@POWER_WALK_GROUPS
def test_class_mask_and_order_belong_to_one_element(build):
    # (masks[c], orders[c]) is (C(y), |yZ(G)|) for one y of class
    # c, whether the walk reached c by a coprime power or by Lagrange
    G = build()
    cents = centralizer_masks(G)
    center = set(naive_center(G))
    c = G.commutation
    pairs = [set() for _ in c.masks]
    for y, d in enumerate(c.class_of):
        pairs[d].add((cents[y], coset_order(G, y, center)))
    assert all(p in ps for p, ps in zip(zip(c.masks, c.orders), pairs))


@POWER_WALK_GROUPS
def test_certified_masks_are_abelian(build):
    # |C(y)| = |yZ(G)|*|Z(G)| proves C(y) = <y>Z(G), so the certificate is
    # never wrong, the test decides the other masks, and the count that
    # reads them matches the table's
    G = build()
    masks = set(G.commutation.masks)
    assert G.commutation.abelian == {m for m in masks if naive_is_abelian(G, m)}
    assert G.count_distinct_centralizers() == len(set(centralizer_masks(G)))


def assert_abelian_masks_match_the_table(G):
    # per the table: a class mask is in ``abelian`` iff every element of it
    # commutes with all of it
    cents = centralizer_masks(G)
    per_table = {m for m in set(G.commutation.masks)
                 if all(m & ~cents[y] == 0 for y in bits(m))}
    assert G.commutation.abelian == per_table, G.label


@COMMUTATION_GROUPS
def test_certified_masks_are_abelian_per_the_table(build):
    assert_abelian_masks_match_the_table(build())


@pytest.mark.parametrize("entry", catalog(256), ids=lambda e: e.label)
def test_certified_masks_of_the_catalog_are_abelian_per_the_table(entry):
    assert_abelian_masks_match_the_table(entry.build())


def test_prime_index_certifies_the_centralizer_of_a_transposition():
    # S_4: C((12)) = <(12), (34)> has index 2 over <(12)>, C(4-cycle) is
    # the cycle's own <y>, C(3-cycle) too; C((12)(34)) = D_8 has index 4
    # over <(12)(34)>, stays uncertified, and the test finds it non-abelian
    G = special_group("S_4")
    assert sorted(len(bits(m)) for m in G.commutation.abelian) == [3, 4, 4]


def test_class_masks_of_pgl_2_7_are_one_per_class():
    # GL(2,7)/Z = PGL(2,7), with 9 classes against 336 cosets
    G = B("gl2", 7)
    class_of, sizes = G.commutation.class_of, G.commutation.sizes
    coset_of, coset_reps = center_cosets(G)
    assert (len(coset_reps), len(sizes), len(G.commutation.masks)) == (336, 9, 9)
    assert sum(sizes) == len(class_of) == 2016
    # each class is a union of cosets of Z(G)
    assert all(class_of[x] == class_of[coset_reps[c]] for x, c in enumerate(coset_of))


def naive_is_abelian(G, mask):
    els = bits(mask)
    return all(G.table[a][b] == G.table[b][a] for a in els for b in els)


@pytest.mark.parametrize("build", [
    lambda: special_group("S_4"),
    lambda: B("dicyclic", 2),
    lambda: B("gl2", 3),
    lambda: relabelled(extraspecial_32(), 9),
], ids=["S_4", "Q_8", "GL(2,3)", "ingested 2^{1+4}_+"])
def test_is_abelian_subgroup_matches_all_pairs(build):
    G = build()
    masks = G.commutation.masks
    assert [G.is_abelian_subgroup(m) for m in masks] == [naive_is_abelian(G, m) for m in masks]


def test_is_abelian_subgroup_on_s4():
    # C(4-cycle) = Z_4 and C((12)) = Z_2 x Z_2, but C((12)(34)) = D_8
    G = special_group("S_4")
    assert sorted((len(bits(m)), G.is_abelian_subgroup(m)) for m in G.commutation.masks[1:]) == [
        (3, True), (4, True), (4, True), (8, False)]


def test_large_centers_are_large():
    sizes = {name: len(build().center()) for name, build in LARGE_CENTER.items()}
    assert sizes == {"GL(2,5)": 4, "Dic_12": 2, "D_6xQ_8": 2, "ingested M_2mn(13,20)": 20,
                     "ingested A(3,nu)": 8}


@pytest.mark.parametrize("entry", CATALOG_64, ids=[e.label for e in CATALOG_64])
def test_class_orbits_match_conjugation_loop(entry):
    # k(G), summed from the class masks, against conjugating every x by every g
    G = entry.build()
    assert G.commutation.k == naive_conjugacy_class_count(G)


def test_generators_generate_from_index_order():
    G = direct_product(B("dihedral", 3), B("dicyclic", 2))
    # (1, f) reaches <f> of order 4, (1, g) reaches all of 1 x Q_8, then
    # (r, 1) and (s, 1) each double it
    assert G.generators == (1, 4, 8, 24)
    assert group_of_table([[0]]).generators == ()
    # each generator is the least index outside the subgroup generated by the
    # ones before it, which is closed here under products with every element
    for entry in CATALOG_64:
        G = entry.build()
        t = G.table
        sub = {0}
        for s in G.generators:
            assert s == min(set(range(G.order)) - sub, default=None), entry.label
            todo = list(sub) + [s]
            sub.add(s)
            while todo:
                x = todo.pop()
                for y in list(sub):
                    for p in (t[x][y], t[y][x]):
                        if p not in sub:
                            sub.add(p)
                            todo.append(p)
        assert len(sub) == G.order, entry.label


def naive_greedy_generators(t, members):
    """Each member outside the subgroup the earlier ones generate, which is
    closed here under products on both sides with the table read directly."""
    gens, sub = [], {0}
    for s in members:
        if s in sub:
            continue
        gens.append(s)
        sub.add(s)
        todo = list(sub)
        while todo:
            x = todo.pop()
            for y in list(sub):
                for p in (t[x][y], t[y][x]):
                    if p not in sub:
                        sub.add(p)
                        todo.append(p)
    return gens


@pytest.mark.parametrize("entry", CATALOG_64, ids=[e.label for e in CATALOG_64])
def test_greedy_generators_of_the_center_and_each_centralizer(entry):
    # the coset closure against the naive one, on every subgroup it serves
    G = entry.build()
    subgroups = [G.center()] + [G._members(m) for m in G.commutation.masks[1:]]
    t = G.table
    for members in subgroups:
        assert G._greedy_generators(members) == naive_greedy_generators(t, members)


# -- central quotient -------------------------------------------------------------

def test_quotient_of_abelian_is_trivial():
    G = group_of_table(cyclic_table(4), "Z_4")
    Q = central_quotient(G)
    assert Q.order == 1
    assert Q.table == [[0]]


CATALOG_128 = catalog(128)


@pytest.mark.parametrize("entry", CATALOG_128, ids=[e.label for e in CATALOG_128])
def test_central_quotient_matches_per_cell_oracle(entry):
    G = entry.build()
    assert central_quotient(G).table == naive_central_quotient(G)


def test_centerless_quotient_shares_the_table():
    G = B("dihedral", 7)
    Q = central_quotient(G)
    assert all(Q.row(x) is G.table[x] for x in range(G.order)) and Q.label == "D_14/Z"


def test_quotient_orders():
    for fam, params in [("dicyclic", (2,)), ("v8n", (2,)), ("u6n", (2,)), ("m2mn", (5, 2))]:
        G = build_family(FamilySpec(fam, params))
        Q = central_quotient(G)
        assert Q.order == G.order // len(G.center())
        assert_group(Q)


def test_q8_quotient_is_klein_four():
    Q = central_quotient(B("dicyclic", 2))
    assert recognize_elementary_abelian_p2(Q) == 2


def test_u12_quotient_is_d6():
    Q = central_quotient(B("u6n", 2))
    assert recognize_dihedral(Q) == 3


def test_dihedral_quotient_center_trivial_for_odd_m():
    # D_2m with odd m is centerless, so G/Z = G
    G = B("dihedral", 7)
    Q = central_quotient(G)
    assert Q.order == G.order and len(Q.center()) == 1


# -- recognizers --------------------------------------------------------------------

def test_recognize_dihedral_on_dihedral():
    for m in (3, 5, 7, 10):
        assert recognize_dihedral(B("dihedral", m)) == m


def test_recognize_dihedral_rejects_cyclic():
    assert recognize_dihedral(group_of_table(cyclic_table(6), "Z_6")) is None


def test_recognize_dihedral_rejects_quaternion():
    assert recognize_dihedral(B("dicyclic", 2)) is None


def test_recognize_dihedral_on_m2mn_quotient():
    Q = central_quotient(B("m2mn", 5, 2))
    assert recognize_dihedral(Q) == 5


def test_recognize_p2_on_klein():
    t = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert recognize_elementary_abelian_p2(group_of_table(t, "V_4")) == 2


def test_recognize_p2_rejects_z4():
    assert recognize_elementary_abelian_p2(group_of_table(cyclic_table(4), "Z_4")) is None


def test_recognize_p2_on_heisenberg_quotient():
    Q = central_quotient(B("hanaki_a2", 1, 3))
    assert recognize_elementary_abelian_p2(Q) == 3


# -- is_abelian ----------------------------------------------------------------------

def test_is_abelian():
    assert group_of_table(cyclic_table(5), "Z_5").is_abelian()
    assert not B("dihedral", 3).is_abelian()
    assert not B("hanaki_a1", 2).is_abelian()


# -- proving a table a group -----------------------------------------------------------

def test_validate_accepts_built_groups():
    for fam, params in [("dihedral", (9,)), ("dicyclic", (4,)), ("sz2", ()),
                        ("pq", (2, 11)), ("hanaki_a2", (2, 2)), ("psl2", (2,))]:
        assert_group(build_family(FamilySpec(fam, params)))


def test_validate_rejects_broken_latin_square():
    t = cyclic_table(4)
    t[2][3] = t[2][2]  # duplicate in a row
    with pytest.raises(GroupTableError, match="Latin"):
        group_of_table(t, "bad")


def test_validate_names_a_corrupted_latin_row():
    t = cyclic_table(6)
    t[4][2] = t[4][5]  # in range, but row 4 repeats a value
    with pytest.raises(GroupTableError) as err:
        group_of_table(t, "bad")
    assert str(err.value) == "Latin square violated: row 4 is not a permutation"


@pytest.mark.parametrize("t", [
    [[1, 0], [0, 1]],  # Z_2 with its identity at 1
    [[2, 0, 1], [0, 1, 2], [1, 2, 0]],  # Z_3 with its identity at 1
])
def test_group_of_table_refuses_an_identity_off_index_0(t):
    # the rows are permutations and every element has a two-sided inverse,
    # so only the identity check stands between the table and the walk
    with pytest.raises(GroupTableError) as err:
        group_of_table(t, "moved")
    assert str(err.value) == "identity axiom violated: element 0 is not a two-sided identity"


def reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose row 0 and column 0 are in order."""
    sq = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    in_row = [set(range(n))] + [{i} for i in range(1, n)]
    in_col = [set(range(n))] + [{j} for j in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in sq]
            return
        i, j = divmod(cell, n)
        if j == 0:
            yield from fill(cell + 1)
            return
        for v in range(n):
            if v not in in_row[i] and v not in in_col[j]:
                sq[i][j] = v
                in_row[i].add(v)
                in_col[j].add(v)
                yield from fill(cell + 1)
                in_row[i].discard(v)
                in_col[j].discard(v)

    return list(fill(n + 1))


def naive_associative(t):
    r = range(len(t))
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r)


@pytest.mark.parametrize("n,squares,groups", [(4, 4, 4), (5, 56, 6), (6, 9408, 80)])
def test_validate_is_exact_on_reduced_latin_squares(n, squares, groups):
    tables = reduced_latin_squares(n)
    assert len(tables) == squares
    associative = 0
    for t in tables:
        expected = naive_associative(t)
        associative += expected
        try:
            group_of_table(t, "L")
            accepted = True
        except GroupTableError:
            accepted = False
        assert accepted == expected, t
    assert associative == groups


def test_validate_rejects_intercalate_swap_at_520():
    G = B("m2mn", 13, 20)
    t = [row[:] for row in G.table]
    n = G.order
    # r1 = r2*d and c2 = d*c1 for an involution d give t[r1][c1] == t[r2][c2]
    # and t[r1][c2] == t[r2][c1]: a 2x2 subsquare whose swap keeps the Latin
    # property; avoiding row, column and value 0 keeps identity and inverses
    d = next(x for x in range(1, n) if t[x][x] == 0)
    r2, c1 = next(
        (r, c) for r in range(1, n) for c in range(1, n)
        if 0 not in (t[r][d], t[d][c], t[t[r][d]][c], t[r][c])
    )
    r1, c2 = t[r2][d], t[d][c1]
    assert t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]
    t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
    t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
    with pytest.raises(GroupTableError, match="associativity"):
        group_of_table(t, "swapped")


def naive_is_group(t):
    """Whether t, with 0 a two-sided identity, is a group: associative at
    every triple, and every element has a two-sided inverse."""
    r = range(len(t))
    return naive_associative(t) and all(any(t[i][j] == 0 == t[j][i] for j in r) for i in r)


def tables_with_latin_rows(n):
    """Every n x n table on 0..n-1 whose row 0 and column 0 are the identity
    map and whose rows are permutations; its columns may repeat a value."""
    rows = [[[i, *p] for p in permutations([v for v in range(n) if v != i])]
            for i in range(1, n)]
    return [[list(range(n)), *choice] for choice in product(*rows)]


def test_validate_is_exact_on_order_4_tables_with_latin_rows():
    tables = tables_with_latin_rows(4)
    assert len(tables) == 216
    assert sum(any(len(set(col)) < 4 for col in zip(*t)) for t in tables) == 212
    groups = 0
    for t in tables:
        expected = naive_is_group(t)
        groups += expected
        try:
            group_of_table(t, "L")
            accepted = True
        except GroupTableError:
            accepted = False
        assert accepted == expected, t
    assert groups == 4  # Z_4 three ways, Z_2 x Z_2 one


def test_validate_is_exact_on_z2_times_order_4_tables_with_latin_rows():
    """Z_2 x T for each order-4 table T above, relabelled with the identity
    kept at 0: the elements that pass Light's test include Z_2 x {0}, so the
    greedy generators can pass it without generating the table."""
    rng = random.Random(8)
    groups = 0
    for T in tables_with_latin_rows(4):
        perm = [0, *rng.sample(range(1, 8), 7)]
        t = [[0] * 8 for _ in range(8)]
        for a, b, c, d in product(range(2), range(4), range(2), range(4)):
            t[perm[4 * a + b]][perm[4 * c + d]] = perm[4 * (a ^ c) + T[b][d]]
        expected = naive_is_group(t)
        groups += expected
        try:
            group_of_table(t, "L")
            accepted = True
        except GroupTableError:
            accepted = False
        assert accepted == expected, t
    assert groups == 4


def test_validate_rejects_every_within_row_swap_of_catalog_64():
    """Swapping two cells of row x > 0 off column 0 keeps the identity and
    the Latin rows, but repeats a value in both columns, so no such table is
    a group; with no column screen, the associativity or the inverse check
    must reject each one."""
    rng = random.Random(64)
    seen = set()
    faults = Counter()
    for entry in catalog(64):
        G = entry.build()
        if fingerprint(G) in seen:
            continue
        seen.add(fingerprint(G))
        n = G.order
        for x in range(1, n):
            t = list(G.table)
            t[x] = t[x][:]
            a, b = rng.sample(range(1, n), 2)
            t[x][a], t[x][b] = t[x][b], t[x][a]
            with pytest.raises(GroupTableError) as err:
                group_of_table(t, "swapped")
            faults[str(err.value).split()[0]] += 1
    assert set(faults) == {"associativity", "element"}, faults


def test_element_order():
    G = B("dihedral", 6)
    assert element_order(G, 0) == 1
    assert element_order(G, 1) == 6  # the rotation
    assert element_order(G, 6) == 2  # a reflection


def test_element_order_raises_when_no_power_is_the_identity():
    # not a group: the powers of 1 cycle 1 -> 2 -> 1 and never reach 0;
    # FiniteGroup trusts its rows, so it holds this table unproved
    t = [[0, 1, 2], [1, 2, 1], [2, 1, 0]]
    G = FiniteGroup(order=3, row_of=t.__getitem__, inverses=[0, 2, 2])
    assert element_order(G, 2) == 2
    with pytest.raises(GroupTableError, match="element 1"):
        element_order(G, 1)


def test_inverse():
    # the cached inverses, against the table read directly
    for entry in CATALOG_64:
        G = entry.build()
        t = G.table
        for x in range(G.order):
            assert G._inverses[x] == t[x].index(0), (entry.label, x)
            assert t[G._inverses[x]][x] == 0, (entry.label, x)
