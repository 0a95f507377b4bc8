"""Finite groups as explicit multiplication tables, plus the structural
queries the rest of the library needs.

A greedy generating set (at most log2(n) elements, found once and cached)
serves both validation and the center: Z(G) is the intersection of the
generators' centralizers, n cells per generator.  Conjugation by the
generators, one cached map each, gives the conjugacy classes of G as orbits,
so k(G) and Pr(G) = k(G)/n never compare x*g with g*x, and the classes of
G/Z(G) as orbits of the cosets.  Whether x and y commute depends only on
their cosets xZ(G) and yZ(G), and conjugate elements have conjugate
centralizers, so ``zagreb.group_report`` reads one centralizer bitmask per
class of G/Z(G) (``class_masks``).  The per-coset masks are kept for
``centralizer(x)`` and the distinct-centralizer count alone.
``formulas.registry_for`` reads the shape of G/Z(G) off the cosets too; no
quotient table is built.  Also here: the reader of text sources that the
Cayley-table and edge-list parsers share.

Conventions: elements are the indices 0..n-1 and index 0 is always the
identity.  Tables produced by the builders are trusted by construction;
``FiniteGroup.validate`` runs the full axiom screen and is applied to every
ingested table; its associativity check is an exact proof at every order
(Light's test on a generating set).
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import and_, eq, itemgetter

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

    def __init__(self, table: list[list[int]], label: str = "G"):
        self.table = table
        self.order = len(table)
        self.label = label
        self.family: str | None = None  # set by build.build_family
        self.params: tuple[int, ...] | None = None
        if self.order == 0:
            raise GroupTableError("empty table")
        for row in table:
            if len(row) != self.order:
                raise GroupTableError("table is not square")

    # -- basic operations ---------------------------------------------------
    def inverse(self, i: int) -> int:
        return self._inverses[i]

    # -- generators, the center and its cosets -----------------------------------
    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A greedy generating set of G; see ``_greedy_generators``."""
        return tuple(self._greedy_generators(range(self.order)))

    def _greedy_generators(self, members) -> list[int]:
        """A greedy generating set of the subgroup whose elements, ascending,
        are ``members``: walk them and take each one not yet reached, then
        close the reached set under right multiplication by the generators
        taken so far.  The reached set is already closed under the earlier
        ones, so the closure starts from its products with the new one:
        n*|S| steps in all.  Each one at least doubles the reached subgroup,
        so there are at most log2 of its order."""
        t = self.table
        reached = bytearray(self.order)
        reached[0] = 1
        gens: list[int] = []
        for s in members:
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
        return gens

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

    # -- conjugation and the classes of G/Z(G) -----------------------------------
    @cached_property
    def _conjugations(self) -> list[list[int]]:
        """x -> s^-1*x*s for each generator s, as s^-1*x -> (s^-1*x)*s: two
        C-level maps of n cells each."""
        t = self.table
        return [list(map(itemgetter(s), map(t.__getitem__, t[self.inverse(s)])))
                for s in self.generators]

    def conjugacy_class_count(self) -> int:
        """k(G), as the orbits of G under the conjugations: O(n*|S|), and it
        never reads a centralizer mask."""
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
                for c in self._conjugations:
                    w = c[y]
                    if not seen[w]:
                        seen[w] = 1
                        todo.append(w)
        return classes

    @cached_property
    def quotient_classes(self) -> tuple[list[int], list[int], list[int]]:
        """(class_of, sizes, reps): the conjugacy classes of G/Z(G), as the
        orbits of the cosets under the conjugations, k*|S| steps.  Coset c
        lies in class class_of[c] of sizes[c'] cosets, represented by the
        element reps[c'], the lowest index in its cosets; reps ascend, so
        the center's class is 0."""
        coset_of, coset_reps = self.cosets
        class_of = [-1] * len(coset_reps)
        sizes: list[int] = []
        reps: list[int] = []
        for c, r in enumerate(coset_reps):
            if class_of[c] >= 0:
                continue
            k = len(reps)
            class_of[c] = k
            reps.append(r)
            todo = [r]
            for y in todo:
                for conj in self._conjugations:
                    d = coset_of[conj[y]]
                    if class_of[d] < 0:
                        class_of[d] = k
                        todo.append(coset_reps[d])
            sizes.append(len(todo))
        return class_of, sizes, reps

    # -- the commutation relation ----------------------------------------------
    def _centralizer_mask(self, x: int) -> int:
        """C_G(x) as a bitmask, bit g set iff x*g == g*x: the bytes of
        ``_commutes_with`` reversed, so that g = 0 is the lowest bit."""
        return int(self._commutes_with(x)[::-1].translate(_BIT_CHARS), 2)

    @cached_property
    def class_masks(self) -> tuple[int, ...]:
        """C_G(r) for the representative r of each class of G/Z(G).

        C_G(x) depends only on the coset xZ(G), and conjugate elements have
        conjugate centralizers of equal order, so one mask per class carries
        every degree of C(G) and NC(G): n cells for each of the k(G/Z) - 1
        non-central classes.  The center's class commutes with everything.
        """
        _, _, reps = self.quotient_classes
        return ((1 << self.order) - 1,) + tuple(map(self._centralizer_mask, reps[1:]))

    def is_abelian_subgroup(self, mask: int) -> bool:
        """Whether the subgroup with bitmask ``mask`` is abelian: whether a
        greedy generating set of it commutes pairwise, at most log2 of its
        order generators."""
        t = self.table
        members = [g for g in range(self.order) if mask >> g & 1]
        gens = self._greedy_generators(members)
        return all(t[a][b] == t[b][a] for i, a in enumerate(gens) for b in gens[:i])

    @cached_property
    def centralizer_masks(self) -> tuple[int, ...]:
        """Mask x is C_G(x), for every x: one mask per central coset, k*n
        cells, which its whole coset shares.  Only ``centralizer`` and
        ``count_distinct_centralizers`` read these; the Zagreb sums, Pr(G)
        and the tags need one mask per class (``class_masks``) or none."""
        coset_of, reps = self.cosets
        rep_masks = [(1 << self.order) - 1] + list(map(self._centralizer_mask, reps[1:]))
        return tuple(map(rep_masks.__getitem__, coset_of))

    def centralizer(self, x: int) -> tuple[int, ...]:
        m = self.centralizer_masks[x]
        return tuple(g for g in range(self.order) if m >> g & 1)

    def count_distinct_centralizers(self) -> int:
        """Number of distinct subgroups {C_G(x) : x in G}, including G itself."""
        return len(set(self.centralizer_masks))

    def commutativity_degree(self) -> Fraction:
        """Probability that a uniform ordered pair commutes, as an exact
        fraction: k(G)/n, since sum_x |C_G(x)| = k(G)*n."""
        return Fraction(self.conjugacy_class_count(), self.order)

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


def _read_text(source) -> str:
    """The text of ``source``: a file object, an ``os.PathLike``, or a str,
    which is a path if it is non-empty with no newline and the text itself
    otherwise."""
    if hasattr(source, "read"):
        return source.read()
    if isinstance(source, os.PathLike) or (
        isinstance(source, str) and source and "\n" not in source
    ):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    return source
