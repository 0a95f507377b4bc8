"""Coset enumeration: known orders, determinism, overflow behavior, and the
presentations that prove the metacyclic builds are the presented groups."""

import pytest

from groupzagreb.build import FamilySpec, _power, build_family, catalog
from groupzagreb.coset import (
    EnumerationOverflow,
    Presentation,
    PresentationError,
    coset_enumerate,
)
from groupzagreb.grp import FiniteGroup, recognize_dihedral

# Presentations of groups the builders construct from a normal form.  Coset
# enumeration gives each one a second construction that shares no arithmetic
# with its builder.
A, B = 1, 2  # generator letters: a is index 1 and b index m in the built table


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


def sz2_presentation():
    return Presentation(2, (
        _power(A, 5),
        _power(B, 4),
        (-B, A, B, -A, -A),  # b^-1 a b = a^2
    ))


# modular (Iwasawa) group of order 16: b a b^-1 = a^5
M16_PRESENTATION = Presentation(2, (_power(A, 8), _power(B, 2), (B, A, -B) + _power(A, -5)))
Z4_Z4_PRESENTATION = Presentation(2, (_power(A, 4), _power(B, 4), (B, A, -B, A)))

# catalog family or special-group label -> (m, the presentation), by parameters
PRESENTED = {
    "quasidihedral": lambda n: (2 ** (n - 1), quasidihedral_presentation(n)),
    "sd8n": lambda n: (4 * n, sd8n_presentation(n)),
    "sz2": lambda: (5, sz2_presentation()),
    "M_16": lambda: (8, M16_PRESENTATION),
    "Z_4:Z_4": lambda: (4, Z4_Z4_PRESENTATION),
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
    return FiniteGroup(table, label="Sz(2)")


def test_cyclic_five():
    G = coset_enumerate(Presentation(1, ((1, 1, 1, 1, 1),)), bound=100)
    assert G.order == 5
    assert G.is_abelian()
    G.validate()


def test_sz2_presentation_order_20():
    G = coset_enumerate(sz2_presentation(), bound=1000)
    assert G.order == 20
    G.validate()


def test_sz2_presentation_matches_affine_construction():
    def stats(G):
        return (
            G.order,
            len(G.center()),
            sorted(len(G.centralizer(x)) for x in range(G.order)),
            sorted(G.element_order(x) for x in range(G.order)),
        )

    family = stats(build_family(FamilySpec("sz2", ())))
    assert family == stats(coset_enumerate(sz2_presentation(), bound=1000))
    assert family == stats(suzuki2_affine())


def evaluate_word(table, word, m):
    """The product of a relator word in a built table, with a at index 1
    and b at index m."""
    gens = {A: 1, B: m}
    inverse = {x: table[x].index(0) for x in gens.values()}
    x = 0
    for letter in word:
        g = gens[abs(letter)]
        x = table[x][g if letter > 0 else inverse[g]]
    return x


@pytest.mark.parametrize(
    "entry",
    [e for e in catalog(256) if (e.label if e.family == "special" else e.family) in PRESENTED],
    ids=lambda e: e.label,
)
def test_metacyclic_build_is_the_presented_group(entry):
    # von Dyck: a and b satisfy every relator and generate the built group,
    # so it is a quotient of the presented group; equal orders make the
    # quotient map an isomorphism
    key = entry.label if entry.family == "special" else entry.family
    m, pres = PRESENTED[key](*entry.params)
    table = entry.build().table
    n = len(table)
    for rel in pres.relators:
        assert evaluate_word(table, rel, m) == 0, rel
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in (1, m):
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
        build_family(FamilySpec("v8n", (3,))),
        coset_enumerate(sd8n_presentation(3), bound=1000),
        coset_enumerate(quasidihedral_presentation(5), bound=1000),
    ):
        G.validate()
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
    G.validate()


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
    G.validate()
