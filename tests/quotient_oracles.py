"""Element orders by repeated multiplication, G/Z(G) as its own Cayley
table, the three recognizers that walk that table, and the formula dispatch
built on them.

The library dispatches the quotient formulas from the element orders of
G/Z(G), read off its classes of G/Z(G), and builds no second group; this
numbers the cosets of Z(G) from the table, builds the quotient and
recognizes its shape from it, and derives the consequence tags from the
centralizer of every element and its own table of what Pr(G) implies, so the
tests can check every dispatch against a route that shares none of that code.
"""

from fractions import Fraction
from math import isqrt
from operator import itemgetter

from groupzagreb.ff import is_prime
from groupzagreb.formulas import ENTRIES, Applicable
from groupzagreb.grp import FiniteGroup, GroupTableError, group_of_table
from graph_oracles import centralizer_mask, centralizer_masks


def element_order(G: FiniteGroup, i: int) -> int:
    """The least k with i^k = 1; at most n steps, or the table is no group."""
    t = G.table
    x = i
    for k in range(1, G.order + 1):
        if x == 0:
            return k
        x = t[x][i]
    raise GroupTableError(f"element {i}: no power of it is the identity")


def center_cosets(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """(coset_of, reps): the cosets gZ(G), each numbered by its lowest
    element in ascending order, g*Z(G) read off row g of the table."""
    t = G.table
    z = G.center()
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if coset_of[g] < 0:
            for c in z:
                coset_of[t[g][c]] = len(reps)
            reps.append(g)
    return coset_of, reps


def central_quotient(G: FiniteGroup) -> FiniteGroup:
    """G/Z(G) on lowest-index coset representatives, identity coset first;
    a centerless G gives a group on its own table."""
    coset_of, reps = center_cosets(G)
    label = f"{G.label}/Z"
    if len(reps) == G.order:
        return group_of_table(G.table, label)
    if len(reps) == 1:
        return group_of_table([[0]], label)
    t = G.table
    pick = itemgetter(*reps)
    return group_of_table([list(map(coset_of.__getitem__, pick(t[a]))) for a in reps], label)


def recognize_dihedral(G: FiniteGroup) -> int | None:
    """Return m if G is dihedral of order 2m (m >= 3): a cyclic ``r`` of order
    m plus an involution inverting it.  None otherwise."""
    n = G.order
    if n < 6 or n % 2:
        return None
    m = n // 2
    t = G.table
    # one r suffices: for m >= 3 every element of order m in D_2m generates
    # the rotations, and every reflection inverts all of them
    r = next((r for r in range(n) if element_order(G, r) == m), None)
    if r is None:
        return None
    for s in range(1, n):
        # s r s = r^-1 iff s*r is an involution too, as s = s^-1
        sr = t[s][r]
        if t[s][s] == 0 and t[sr][sr] == 0:
            return m
    return None


def recognize_elementary_abelian_p2(G: FiniteGroup) -> int | None:
    """Return p if G is Z_p x Z_p for a prime p, else None."""
    n = G.order
    p = isqrt(n)
    if p * p != n or not is_prime(p):
        return None
    if not G.is_abelian():
        return None
    if any(element_order(G, x) != p for x in range(1, n)):
        return None
    return p


_F20_ORDER_PROFILE = {1: 1, 2: 5, 4: 10, 5: 4}


def looks_like_f20(G: FiniteGroup) -> bool:
    if G.order != 20 or len(G.center()) != 1:
        return False
    profile: dict[int, int] = {}
    for x in range(20):
        o = element_order(G, x)
        profile[o] = profile.get(o, 0) + 1
    return profile == _F20_ORDER_PROFILE


# Pr(G) -> the G/Z(G) it implies: (m + 3)/4m for D_2m with m odd, (p^2 + p - 1)/p^3
# for Z_p x Z_p, 7/16 for D_8
PR_SHAPES = {
    Fraction(1, 2): "D_6",
    Fraction(2, 5): "D_10",
    Fraction(5, 14): "D_14",
    Fraction(7, 16): "D_8",
    Fraction(5, 8): "Z_2xZ_2",
    Fraction(11, 27): "Z_3xZ_3",
}


def distinct_centralizers(G: FiniteGroup) -> int:
    """|Cent(G)| as the distinct masks of one element per coset of Z(G),
    which its whole coset shares."""
    _, reps = center_cosets(G)
    return len({centralizer_mask(G, r) for r in reps})


def consequence_tags(G: FiniteGroup) -> tuple[str, ...]:
    """``formulas.consequence_tags`` from the centralizer of every element:
    the number of distinct ones, and Pr(G) as the commuting pairs over n^2."""
    tags: tuple[str, ...] = ()
    cents = distinct_centralizers(G)
    if cents in (4, 5):
        tags += (f"{cents}-centralizer",)
    pr = Fraction(sum(m.bit_count() for m in centralizer_masks(G)), G.order**2)
    if shape := PR_SHAPES.get(pr):
        tags += (f"pr={pr}=>G/Z={shape}",)
    return tags


def registry_for(G: FiniteGroup, family: str | None = None,
                 params: tuple[int, ...] = ()) -> tuple[Applicable, ...]:
    """``formulas.registry_for`` with the quotient built and recognized."""
    apps: list[Applicable] = []
    tags = consequence_tags(G)

    if family in ENTRIES:
        apps.append(Applicable(ENTRIES[family], params, "family", tags))

    z = len(G.center())
    if z < G.order:
        quotient = central_quotient(G)
        m = recognize_dihedral(quotient)
        if m is not None:
            apps.append(Applicable(
                ENTRIES["quot_dihedral"], (m, z), "quotient",
                tags + (f"G/Z=D_{2 * m}",),
            ))
        p = recognize_elementary_abelian_p2(quotient)
        if p is not None:
            apps.append(Applicable(
                ENTRIES["quot_zpzp"], (p, z), "quotient",
                tags + (f"G/Z=Z_{p}xZ_{p}",),
            ))
        if looks_like_f20(quotient):
            apps.append(Applicable(
                ENTRIES["quot_sz2"], (z,), "quotient",
                tags + ("G/Z=Sz(2)",),
            ))
    return tuple(apps)
