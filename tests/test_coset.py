"""Coset enumeration: known orders, determinism, overflow behavior, and the
presentations that prove the normal-form builds are the presented groups."""

import pytest

from groupzagreb.build import FamilySpec, build_family, catalog
from groupzagreb.coset import (
    EnumerationOverflow,
    Presentation,
    PresentationError,
    coset_enumerate,
)
from groupzagreb.grp import group_of_table
from graph_oracles import centralizer_mask
from quotient_oracles import element_order, recognize_dihedral
from test_build import assert_group

# Presentations of groups the builders construct from a normal form.  Coset
# enumeration gives each one a second construction that shares no arithmetic
# with its builder.
A, B, C = 1, 2, 3  # generator letters


def _power(letter, e):
    return (letter,) * e if e >= 0 else (-letter,) * (-e)


def _commutes(x, y):
    return (x, y, -x, -y)


def dihedral_presentation(m):
    return Presentation(2, (_power(A, m), _power(B, 2), (B, A, -B, A)))


def sd8n_presentation(n):
    return Presentation(2, (
        _power(A, 4 * n),
        _power(B, 2),
        (B, A, B) + _power(A, -(2 * n - 1)),  # b a b = a^(2n-1)
    ))


def quasidihedral_presentation(n):
    return Presentation(2, (
        _power(A, 2 ** (n - 1)),
        _power(B, 2),
        (B, A, -B) + _power(A, -(2 ** (n - 2) - 1)),  # b a b^-1 = a^(2^(n-2)-1)
    ))


def v8n_presentation(n):
    return Presentation(2, (
        _power(A, 2 * n),
        _power(B, 4),
        (B, A, B, A),        # b a = a^-1 b^-1
        (-B, A, -B, A),      # b^-1 a = a^-1 b
    ))


def pq_presentation(p, q):
    # b a b^-1 = a^r for an r of multiplicative order p mod q; every such r
    # gives the same group
    r = next(r for r in range(2, q) if pow(r, p, q) == 1)
    return Presentation(2, (_power(A, q), _power(B, p), (B, A, -B) + _power(A, -r)))


def sz2_presentation():
    return Presentation(2, (
        _power(A, 5),
        _power(B, 4),
        (-B, A, B, -A, -A),  # b^-1 a b = a^2
    ))


# modular (Iwasawa) group of order 16: b a b^-1 = a^5
M16_PRESENTATION = Presentation(2, (_power(A, 8), _power(B, 2), (B, A, -B) + _power(A, -5)))
Z4_Z4_PRESENTATION = Presentation(2, (_power(A, 4), _power(B, 4), (B, A, -B, A)))
# central product of D_8 = <a, b> and Z_4 = <c> over their common central involution
D8_Z4_PRESENTATION = Presentation(3, (
    _power(A, 4), _power(B, 2), (B, A, -B, A),
    _power(C, 4), (C, C, -A, -A),
    _commutes(C, A), _commutes(C, B),
))
# (Z_2 x Z_2) : Z_4 with the order-4 generator swapping the factors
SG16_3_PRESENTATION = Presentation(3, (
    _power(A, 2), _power(B, 2), _power(C, 4),
    _commutes(A, B),
    (C, A, -C, B), (C, B, -C, A),
))
A4_RELATORS = (_power(A, 2), _power(B, 3), (A, B) * 3)
A4_PRESENTATION = Presentation(2, A4_RELATORS)
# A_4 with a central involution c
A4_Z2_PRESENTATION = Presentation(3, A4_RELATORS + (
    _power(C, 2), _commutes(C, A), _commutes(C, B),
))

# catalog family or special-group label -> (the built indices of the
# generators, the presentation), by parameters.  A normal-form build puts the
# generator a of its abelian part at index 1, its second generator c at m1 and
# b at m1*m2 (_abelian_by_cyclic).
PRESENTED = {
    "quasidihedral": lambda n: ((1, 2 ** (n - 1)), quasidihedral_presentation(n)),
    "sd8n": lambda n: ((1, 4 * n), sd8n_presentation(n)),
    "v8n": lambda n: ((1, 4 * n), v8n_presentation(n)),
    "pq": lambda p, q: ((1, q), pq_presentation(p, q)),
    "sz2": lambda: ((1, 5), sz2_presentation()),
    "A_4": lambda: ((1, 4), A4_PRESENTATION),
    "M_16": lambda: ((1, 8), M16_PRESENTATION),
    "Z_4:Z_4": lambda: ((1, 4), Z4_Z4_PRESENTATION),
    # the presentation's a, b, c are the built c b, c, a
    "D_8*Z_4": lambda: ((12, 4, 1), D8_Z4_PRESENTATION),
    # the presentation's a, b, c are the built b, c b, a
    "SG(16,3)": lambda: ((8, 12, 1), SG16_3_PRESENTATION),
    # the presentation's a, b, c are the built a, b^2, b^3
    "A_4xZ_2": lambda: ((1, 8, 12), A4_Z2_PRESENTATION),
}


def suzuki2_affine():
    """Sz(2) as the affine maps x -> a*x + b over GF(5), a != 0: a construction
    independent of the presentation route, which it cross-checks."""
    els = [(a, b) for a in range(1, 5) for b in range(5)]  # identity (1,0) first
    idx = {e: i for i, e in enumerate(els)}
    table = [
        [idx[((a1 * a2) % 5, (a1 * b2 + b1) % 5)] for a2, b2 in els]
        for a1, b1 in els
    ]
    return group_of_table(table, "Sz(2)")


def test_cyclic_five():
    G = coset_enumerate(Presentation(1, ((1, 1, 1, 1, 1),)), bound=100)
    assert G.order == 5
    assert G.is_abelian()
    assert_group(G)


def test_sz2_presentation_order_20():
    G = coset_enumerate(sz2_presentation(), bound=1000)
    assert G.order == 20
    assert_group(G)


def test_sz2_presentation_matches_affine_construction():
    def stats(G):
        return (
            G.order,
            len(G.center()),
            sorted(centralizer_mask(G, x).bit_count() for x in range(G.order)),
            sorted(element_order(G, x) for x in range(G.order)),
        )

    family = stats(build_family(FamilySpec("sz2", ())))
    assert family == stats(coset_enumerate(sz2_presentation(), bound=1000))
    assert family == stats(suzuki2_affine())


def evaluate_word(table, word, gens):
    """The product of a relator word in a built table, with generator letter
    i at index gens[i - 1]."""
    inverse = {g: table[g].index(0) for g in gens}
    x = 0
    for letter in word:
        g = gens[abs(letter) - 1]
        x = table[x][g if letter > 0 else inverse[g]]
    return x


@pytest.mark.parametrize(
    "entry",
    [e for e in catalog(256) if (e.label if e.family == "special" else e.family) in PRESENTED],
    ids=lambda e: e.label,
)
def test_metacyclic_build_is_the_presented_group(entry):
    # von Dyck: the generators' images satisfy every relator and generate the
    # built group, so it is a quotient of the presented group; equal orders
    # make the quotient map an isomorphism
    key = entry.label if entry.family == "special" else entry.family
    gens, pres = PRESENTED[key](*entry.params)
    table = entry.build().table
    n = len(table)
    for rel in pres.relators:
        assert evaluate_word(table, rel, gens) == 0, rel
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert len(reached) == n
    assert coset_enumerate(pres, bound=16 * n + 64).order == n


def test_v8n_n2_order_16():
    G = build_family(FamilySpec("v8n", (2,)))
    assert G.order == 16
    assert G.order - len(G.center()) == 12  # 8n - 4 vertices in the commuting graph


@pytest.mark.parametrize("m", range(3, 21))
def test_dihedral_presentations_recognized(m):
    G = coset_enumerate(dihedral_presentation(m), bound=1000)
    assert G.order == 2 * m
    assert recognize_dihedral(G) == m


def test_enumerated_groups_pass_validation():
    for G in (
        coset_enumerate(v8n_presentation(3), bound=1000),
        coset_enumerate(sd8n_presentation(3), bound=1000),
        coset_enumerate(quasidihedral_presentation(5), bound=1000),
    ):
        assert_group(G)
        assert G.table[0][1] == 1  # identity is coset 0


def test_overflow_on_too_small_bound():
    with pytest.raises(EnumerationOverflow, match="overflow"):
        coset_enumerate(Presentation(1, ((1,) * 50,)), bound=10)


def test_overflow_on_infinite_group():
    # <a, b | a^2> is infinite; the bound must stop the enumeration
    with pytest.raises(EnumerationOverflow):
        coset_enumerate(Presentation(2, ((1, 1),)), bound=500)


def test_determinism():
    pres = dihedral_presentation(8)
    a = coset_enumerate(pres, bound=200)
    b = coset_enumerate(pres, bound=200)
    assert a.table == b.table


def test_presentation_validation():
    with pytest.raises(PresentationError):
        Presentation(0, ((1,),))
    with pytest.raises(PresentationError):
        Presentation(1, ())
    with pytest.raises(PresentationError):
        Presentation(1, ((2,),))  # letter references a missing generator
    with pytest.raises(PresentationError):
        Presentation(1, ((),))


def test_coincidence_heavy_presentation():
    # redundant relators force many coincidences; result must still be Z_6
    pres = Presentation(2, ((1, 1), (2, 2, 2), (1, 2, -1, -2), (1, 2) * 6))
    G = coset_enumerate(pres, bound=500)
    assert G.order == 6
    assert G.is_abelian()
    assert_group(G)


def test_total_collapse_to_trivial_group():
    # b a b^-1 = a^2 and a b a^-1 = b^2 force a = b = 1
    pres = Presentation(2, ((2, 1, -2, -1, -1), (1, 2, -1, -2, -2)))
    assert coset_enumerate(pres, bound=10000).order == 1


def test_psl27_presentation():
    # <a, b | a^2, b^3, (ab)^7, [a,b]^4> has order 168 and trivial center
    comm = (1, 2, -1, -2)
    pres = Presentation(2, ((1, 1), (2, 2, 2), (1, 2) * 7, comm * 4))
    G = coset_enumerate(pres, bound=20000)
    assert G.order == 168
    assert len(G.center()) == 1
    assert_group(G)
