"""Coset enumeration: known orders, determinism, overflow behavior."""

import pytest

from groupzagreb.build import FamilySpec, build_family, dihedral_presentation
from groupzagreb.coset import (
    EnumerationOverflow,
    Presentation,
    PresentationError,
    coset_enumerate,
)
from groupzagreb.grp import FiniteGroup, recognize_dihedral


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
    G = build_family(FamilySpec("sz2", ()))
    assert G.order == 20
    G.validate()


def test_sz2_presentation_matches_affine_construction():
    pres_route = build_family(FamilySpec("sz2", ()))
    affine_route = suzuki2_affine()

    def stats(G):
        return (
            G.order,
            len(G.center()),
            sorted(len(G.centralizer(x)) for x in range(G.order)),
            sorted(G.element_order(x) for x in range(G.order)),
        )

    assert stats(pres_route) == stats(affine_route)


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
    for fam, params in [("sd8n", (3,)), ("v8n", (3,)), ("quasidihedral", (5,))]:
        G = build_family(FamilySpec(fam, params))
        G.validate()
        assert G.multiply(0, 1) == 1  # identity is coset 0


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
