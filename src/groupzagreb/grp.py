"""Finite groups as explicit multiplication tables, plus the structural
queries the rest of the library needs.

A greedy generating set (at most log2(n) elements, found once and cached)
serves both validation and the center: Z(G) is the intersection of the
generators' centralizers, n cells per generator.  Whether x and y commute
depends only on their cosets xZ(G) and yZ(G), so the commutation relation is
computed once per central coset, as one centralizer bitmask per coset
representative that its whole coset shares; the centralizers, Pr(G) and
``zagreb.group_report``, which sums the Zagreb indices over the distinct
masks, read it.  The conjugacy classes are orbits under the generators and
never read it.  Also here: central quotients on the cached cosets, and the
two quotient-shape recognizers used for formula dispatch.

Conventions: elements are the indices 0..n-1 and index 0 is always the
identity.  Tables produced by the builders are trusted by construction;
``FiniteGroup.validate`` runs the full axiom screen and is applied to every
ingested table; its associativity check is an exact proof at every order
(Light's test on a generating set).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import and_, eq, itemgetter

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
        return self._inverses[i]

    def element_order(self, i: int) -> int:
        """The least k with i^k = 1; at most n steps, or the table is no group."""
        t = self.table
        x = i
        for k in range(1, self.order + 1):
            if x == 0:
                return k
            x = t[x][i]
        raise GroupTableError(f"element {i}: no power of it is the identity")

    # -- generators, the center and its cosets -----------------------------------
    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A greedy generating set: walk the indices in order and take each one
        not yet reached, then close the reached set under right multiplication
        by the generators taken so far.  The reached set is already closed
        under the earlier ones, so the closure starts from its products with
        the new one: n*|S| steps in all.  Each one at least doubles the
        reached subgroup, so there are at most log2(n)."""
        t = self.table
        n = self.order
        reached = bytearray(n)
        reached[0] = 1
        gens: list[int] = []
        for s in range(n):
            if reached[s]:
                continue
            gens.append(s)
            todo = [p for p in map(itemgetter(s), compress(t, reached)) if not reached[p]]
            for p in todo:
                reached[p] = 1
            while todo:
                tr = t[todo.pop()]
                for g in gens:
                    p = tr[g]
                    if not reached[p]:
                        reached[p] = 1
                        todo.append(p)
        return tuple(gens)

    @cached_property
    def _inverses(self) -> list[int]:
        """g -> g^-1, spread from the generators' inverses along
        (p*s)^-1 = s^-1 * p^-1: n*|S| lookups."""
        t = self.table
        inv = [-1] * self.order
        inv[0] = 0
        steps = [(s, t[t[s].index(0)]) for s in self.generators]
        reached = [0]
        for p in reached:
            tp, ip = t[p], inv[p]
            for s, row_of_s_inv in steps:
                q = tp[s]
                if inv[q] < 0:
                    inv[q] = row_of_s_inv[ip]
                    reached.append(q)
        return inv

    @cached_property
    def _at_inverses(self) -> itemgetter:
        """Reads a row at g^-1 for every g, in one C-level gather."""
        return itemgetter(*self._inverses)

    def _commutes_with(self, x: int) -> bytes:
        """Byte g is 1 iff x*g == g*x, for x other than the identity.

        Compared as (x*g)^-1 == x^-1 * g^-1, so that both sides are C-level
        gathers of one row: the inverses read along row x, and row x^-1 read
        at the inverses.  n cells, and no column of the table is fetched.
        """
        t = self.table
        inv = self._inverses
        return bytes(map(eq, itemgetter(*t[x])(inv), self._at_inverses(t[inv[x]])))

    @cached_property
    def _center(self) -> tuple[int, ...]:
        # Z(G) is the intersection of the generators' centralizers
        z = b"\x01" * self.order
        for s in self.generators:
            z = bytes(map(and_, z, self._commutes_with(s)))
        return tuple(compress(range(self.order), z))

    def center(self) -> tuple[int, ...]:
        return self._center

    def is_abelian(self) -> bool:
        return len(self.center()) == self.order

    @cached_property
    def cosets(self) -> tuple[list[int], list[int]]:
        """(coset_of, reps): the cosets gZ(G), each represented by its lowest
        index; reps ascend, so the center's coset is 0, and g lies in the
        coset of reps[coset_of[g]]."""
        t = self.table
        z = self.center()
        coset_of = [-1] * self.order
        reps: list[int] = []
        for g in range(self.order):
            if coset_of[g] < 0:
                c = len(reps)
                reps.append(g)
                tg = t[g]
                for zz in z:
                    coset_of[tg[zz]] = c
        return coset_of, reps

    # -- the commutation relation ----------------------------------------------
    @cached_property
    def centralizer_masks(self) -> tuple[int, ...]:
        """Bit g of mask x is set iff x*g == g*x, so mask x is C_G(x).

        Central factors cancel (C_G(xz) = C_G(x) for z in Z(G)), so only the
        k = n/|Z| coset representatives compare x*g with g*x, k*n cells in
        all, and every element shares its representative's mask.
        """
        coset_of, reps = self.cosets
        # the center's coset commutes with everything; for the others one
        # byte 0/1 per g, reversed so that g = 0 is the lowest bit
        rep_masks = [(1 << self.order) - 1] + [
            int(self._commutes_with(r)[::-1].translate(_BIT_CHARS), 2) for r in reps[1:]
        ]
        return tuple(map(rep_masks.__getitem__, coset_of))

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
        """k(G), as the orbits of x -> s^-1*x*s over the generators s: O(n*|S|),
        and it never reads the commutation masks."""
        t = self.table
        # conjugation by s: x -> s^-1*x -> (s^-1*x)*s, two C-level maps
        conj = [
            list(map(itemgetter(s), map(t.__getitem__, t[self.inverse(s)])))
            for s in self.generators
        ]
        seen = bytearray(self.order)
        classes = 0
        for x in range(self.order):
            if seen[x]:
                continue
            classes += 1
            seen[x] = 1
            todo = [x]
            while todo:
                y = todo.pop()
                for c in conj:
                    w = c[y]
                    if not seen[w]:
                        seen[w] = 1
                        todo.append(w)
        return classes

    # -- quotients -------------------------------------------------------------
    def central_quotient(self) -> "FiniteGroup":
        """G/Z(G) on lowest-index coset representatives, identity coset first;
        a centerless G gives a group on its own table."""
        coset_of, reps = self.cosets
        label = f"{self.label}/Z"
        if len(reps) == self.order:
            return FiniteGroup(self.table, label=label)
        if len(reps) == 1:
            return FiniteGroup([[0]], label=label)
        t = self.table
        pick = itemgetter(*reps)
        return FiniteGroup(
            [list(map(coset_of.__getitem__, pick(t[a]))) for a in reps], label=label
        )

    # -- validation --------------------------------------------------------------
    def validate(self) -> None:
        """Full group-axiom screen; raises GroupTableError naming the violation.

        Associativity is Light's test on the generating set ``generators``:
        the a with (x*a)*y == x*(a*y) for all x, y are closed under the
        product, so it suffices that the checked elements generate the table.
        There are at most log2(n) of them.
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
        for s in self.generators:
            ts = t[s]
            # (x*s)*y == x*(s*y) for all y, phrased as a whole-row comparison
            for x in range(n):
                tx = t[x]
                if t[tx[s]] != [tx[v] for v in ts]:
                    raise GroupTableError(f"associativity violated at i={x}, j={s}")

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
    # one r suffices: for m >= 3 every element of order m in D_2m generates
    # the rotations, and every reflection inverts all of them
    r = next((r for r in range(n) if G.element_order(r) == m), None)
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
