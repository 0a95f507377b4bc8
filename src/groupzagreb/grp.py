"""Finite groups as explicit multiplication tables, plus the structural
queries the rest of the library needs: the commutation relation, computed
once per group as one centralizer bitmask per element, which the center,
centralizers, Pr(G) and ``zagreb.commuting_graph`` read; central quotients;
and the two quotient-shape recognizers used for formula dispatch.

Conventions: elements are the indices 0..n-1 and index 0 is always the
identity.  Tables produced by the builders are trusted by construction;
``FiniteGroup.validate`` runs the full axiom screen and is applied to every
ingested table; its associativity check is an exact proof at every order
(Light's test on a generating set).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import eq

from .ff import is_prime

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


class GroupTableError(ValueError):
    """A table failed one of the group axioms; the message names it."""


class AbelianGroupError(ValueError):
    """Raised where a non-abelian group is required (commuting graphs)."""


class FiniteGroup:
    """Immutable-by-convention finite group on an explicit Cayley table.

    table[i][j] is the index of g_i * g_j.  Queries cache their results on
    the instance; none of them mutate the table, so sharing across threads
    is safe.
    """

    def __init__(
        self,
        table: list[list[int]],
        label: str = "G",
        family: str | None = None,
        params: tuple[int, ...] | None = None,
    ):
        self.table = table
        self.order = len(table)
        self.label = label
        self.family = family
        self.params = params
        if self.order == 0:
            raise GroupTableError("empty table")
        for row in table:
            if len(row) != self.order:
                raise GroupTableError("table is not square")

    # -- basic operations ---------------------------------------------------
    def inverse(self, i: int) -> int:
        row = self.table[i]
        for j in range(self.order):
            if row[j] == 0:
                return j
        raise GroupTableError(f"element {i} has no right inverse")

    def element_order(self, i: int) -> int:
        k = 1
        x = i
        while x != 0:
            x = self.table[x][i]
            k += 1
        return k

    # -- the commutation relation ----------------------------------------------
    @cached_property
    def centralizer_masks(self) -> tuple[int, ...]:
        """Bit g of mask x is set iff x*g == g*x, so mask x is C_G(x); the one
        commutation pass over the table."""
        t = self.table
        cols = list(zip(*t))
        # one byte 0/1 per g, reversed so that g = 0 is the lowest bit
        return tuple(
            int(bytes(map(eq, t[x], cols[x]))[::-1].translate(_BIT_CHARS), 2)
            for x in range(self.order)
        )

    def center(self) -> tuple[int, ...]:
        n = self.order
        return tuple(x for x, m in enumerate(self.centralizer_masks) if m.bit_count() == n)

    def is_abelian(self) -> bool:
        return len(self.center()) == self.order

    def centralizer(self, x: int) -> tuple[int, ...]:
        m = self.centralizer_masks[x]
        return tuple(g for g in range(self.order) if m >> g & 1)

    def count_distinct_centralizers(self) -> int:
        """Number of distinct subgroups {C_G(x) : x in G}, including G itself."""
        return len(set(self.centralizer_masks))

    def commutativity_degree(self) -> Fraction:
        """Probability that a uniform ordered pair commutes, as an exact fraction."""
        return Fraction(sum(m.bit_count() for m in self.centralizer_masks), self.order**2)

    def conjugacy_class_count(self) -> int:
        t = self.table
        n = self.order
        inv = [self.inverse(g) for g in range(n)]
        seen = [False] * n
        classes = 0
        for x in range(n):
            if seen[x]:
                continue
            classes += 1
            for g in range(n):
                seen[t[t[g][x]][inv[g]]] = True
        return classes

    # -- quotients -------------------------------------------------------------
    def central_quotient(self) -> "FiniteGroup":
        """G/Z(G) on lowest-index coset representatives, identity coset first."""
        t = self.table
        z = self.center()
        coset_of = [-1] * self.order
        reps: list[int] = []
        for g in range(self.order):
            if coset_of[g] >= 0:
                continue
            rep_id = len(reps)
            reps.append(g)  # g is the smallest member of its coset
            for zz in z:
                coset_of[t[g][zz]] = rep_id
        qtable = [[coset_of[t[a][b]] for b in reps] for a in reps]
        return FiniteGroup(qtable, label=f"{self.label}/Z")

    # -- validation --------------------------------------------------------------
    def validate(self) -> None:
        """Full group-axiom screen; raises GroupTableError naming the violation.

        Associativity is Light's test on a generating set: the a with
        (x*a)*y == x*(a*y) for all x, y are closed under the product, so it
        suffices that the checked elements generate the table.  Each one at
        least doubles the subgroup they generate: at most log2(n) checks.
        """
        t = self.table
        n = self.order
        for i in range(n):
            for j in range(n):
                v = t[i][j]
                if not isinstance(v, int) or not 0 <= v < n:
                    raise GroupTableError(f"entry table[{i}][{j}]={v!r} out of range")
        if t[0] != list(range(n)):
            raise GroupTableError("identity axiom violated: row 0 is not the identity map")
        for i in range(n):
            if t[i][0] != i:
                raise GroupTableError("identity axiom violated: column 0 is not the identity map")
        full = set(range(n))
        for i in range(n):
            if set(t[i]) != full:
                raise GroupTableError(f"Latin square violated: row {i} is not a permutation")
        for col in zip(*t):
            if set(col) != full:
                raise GroupTableError("Latin square violated: a column is not a permutation")
        for i in range(n):
            j = t[i].index(0)
            if t[j][i] != 0:
                raise GroupTableError(f"element {i} has no two-sided inverse")
        reached = bytearray(n)  # the products of the checked generators
        reached[0] = 1
        gens: list[int] = []
        for s in range(n):
            if reached[s]:
                continue
            ts = t[s]
            # (x*s)*y == x*(s*y) for all y, phrased as a whole-row comparison
            for x in range(n):
                tx = t[x]
                if t[tx[s]] != [tx[v] for v in ts]:
                    raise GroupTableError(f"associativity violated at i={x}, j={s}")
            gens.append(s)
            todo = [r for r in range(n) if reached[r]]
            while todo:
                tr = t[todo.pop()]
                for g in gens:
                    p = tr[g]
                    if not reached[p]:
                        reached[p] = 1
                        todo.append(p)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def recognize_dihedral(G: FiniteGroup) -> int | None:
    """Return m if G is dihedral of order 2m (m >= 3): a cyclic ``r`` of order
    m plus an involution inverting it.  None otherwise."""
    n = G.order
    if n < 6 or n % 2:
        return None
    m = n // 2
    t = G.table
    rotations = [r for r in range(n) if G.element_order(r) == m]
    if not rotations:
        return None
    involutions = [s for s in range(1, n) if t[s][s] == 0]
    for r in rotations:
        r_inv = G.inverse(r)
        if r_inv == r:
            continue  # m = 2 would land here; excluded by n >= 6 anyway
        for s in involutions:
            if t[t[s][r]][s] == r_inv:
                return m
    return None


def recognize_elementary_abelian_p2(G: FiniteGroup) -> int | None:
    """Return p if G is Z_p x Z_p for a prime p, else None."""
    n = G.order
    p = _integer_sqrt(n)
    if p is None or not is_prime(p):
        return None
    if not G.is_abelian():
        return None
    if any(G.element_order(x) != p for x in range(1, n)):
        return None
    return p


def _integer_sqrt(n: int) -> int | None:
    r = int(n**0.5)
    for c in (r - 1, r, r + 1):
        if c >= 0 and c * c == n:
            return c
    return None
