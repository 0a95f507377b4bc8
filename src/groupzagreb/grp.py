"""Finite groups on the rows of their multiplication tables, plus the
structural queries the rest of the library needs.

Row x of the table is left multiplication by x, ``row(x)[j]`` = x*j, and
every query reads the table through ``FiniteGroup.row``.  An ingested
table serves the rows from its list.  A group from a builder keeps the
builder's ``row_of`` and computes a row only when a query asks for it.  The
Zagreb report, the formula dispatch and the cross-check read the rows of
the generators, of the class representatives of G/Z(G), of their inverses
and of the generators of Z(G), and no other: for D_2000 that is about a
quarter of the rows, for GL(2,7) 31 of 2016.  ``FiniteGroup.table`` is the
full list of rows; for a built group ``close`` materializes it on first
access, for validation and the tests.

A greedy generating set (at most log2(n) elements, found once and cached)
serves validation, the inverses and the center: Z(G) is the intersection
of the generators' centralizers, n cells per generator.  Conjugation by the
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
from itertools import compress, repeat
from operator import and_, eq, itemgetter
from typing import Callable

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


class GroupTableError(ValueError):
    """A table failed one of the group axioms; the message names it."""


class AbelianGroupError(ValueError):
    """Raised where a non-abelian group is required (commuting graphs)."""


def close(n: int, row_of: Callable[[int], list[int]]) -> list[list[int]]:
    """The Cayley table of an order-n group from the rows of a generating set.

    Row p is left multiplication by p, so row(p*g)[j] = p*(g*j) is row(p)
    read at the entries of row(g): one C-level gather, prebuilt once per
    generator g, and the new element p*g is row(p)[g].  The walk takes the
    elements in index order.  An element the rows so far do not reach gets
    its row from ``row_of(s)``, and the reached set is then closed under
    right multiplication by every generator obtained that way.  Each such
    element at least doubles the subgroup reached, so ``row_of`` runs at
    most log2(n) times.  Index 0 must be the identity.
    """
    rows: list[list[int] | None] = [None] * n
    rows[0] = list(range(n))
    gens: list[tuple[int, itemgetter]] = []
    for s in range(1, n):
        if rows[s] is not None:
            continue
        rows[s] = row_of(s)
        gens.append((s, itemgetter(*rows[s])))
        todo = [p for p in range(n) if rows[p] is not None]
        while todo:
            p = todo.pop()
            rp = rows[p]
            for g, gather in gens:
                q = rp[g]
                if rows[q] is None:
                    rows[q] = list(gather(rp))
                    todo.append(q)
    return rows


class FiniteGroup:
    """Immutable-by-convention finite group on the rows of its Cayley table.

    Give it either ``table``, with table[i][j] the index of g_i * g_j, or
    its ``order`` and a ``row_of`` that computes row i.  Queries cache their
    results on the instance and never change a row; two threads that race
    to compute the same row store equal lists, so sharing is safe.
    """

    def __init__(self, table: list[list[int]] | None = None, label: str = "G", *,
                 order: int = 0, row_of: Callable[[int], list[int]] | None = None):
        self.label = label
        self.family: str | None = None  # set by build.build_family
        self.params: tuple[int, ...] | None = None
        if table is None:
            self.order = order
            self._row_of = row_of
            self._rows: list[list[int] | None] = [None] * order
        else:
            self.table = table  # set on the instance, so ``close`` never runs
            self.order = len(table)
            self._rows = table
            if any(len(row) != self.order for row in table):
                raise GroupTableError("table is not square")
        if self.order == 0:
            raise GroupTableError("empty table")

    # -- rows ---------------------------------------------------------------------
    def row(self, x: int) -> list[int]:
        """Row x of the table, left multiplication by x: row(x)[j] = x*j,
        computed on the first request and kept."""
        r = self._rows[x]
        if r is None:
            r = self._rows[x] = self._row_of(x)
        return r

    @cached_property
    def table(self) -> list[list[int]]:
        """Every row, table[i][j] = g_i * g_j.  A built group fills it on
        first access with ``close``, from the rows of a generating set; the
        report path never reads it."""
        rows = close(self.order, self.row)
        self._rows = rows
        return rows

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
        close the reached set under left multiplication by the generators
        taken so far, which reads their rows and no other.  The reached set
        is already closed under the earlier ones, so the closure starts from
        the new one's products with it: n*|S| steps in all.  Each one at
        least doubles the reached subgroup, so there are at most log2 of
        its order."""
        reached = bytearray(self.order)
        reached[0] = 1
        gens: list[int] = []
        rows: list[list[int]] = []
        for s in members:
            if reached[s]:
                continue
            gens.append(s)
            rows.append(self.row(s))
            todo = list(compress(rows[-1], reached))  # s*H misses the subgroup H
            for p in todo:
                reached[p] = 1
            while todo:
                y = todo.pop()
                for r in rows:
                    p = r[y]
                    if not reached[p]:
                        reached[p] = 1
                        todo.append(p)
        return gens

    @cached_property
    def _inverses(self) -> list[int]:
        """g -> g^-1 from the generators' rows alone, n*|S| steps.

        A search from the identity reaches every y as s*p, with p found
        earlier and s a generator.  Along that tree, right multiplication by
        t = s'^-1, for each generator s', spreads as (s*p)*t = s*(p*t) from
        1*t = t, with t read off row s' as the entry 0.  Then
        (s*p)^-1 = p^-1 * s^-1 is that map applied to p^-1."""
        n = self.order
        rows = [self.row(s) for s in self.generators]
        tree: list[tuple[int, int, int]] = []  # (y, p, i) with y = s_i * p
        seen = bytearray(n)
        seen[0] = 1
        reached = [0]
        for p in reached:
            for i, r in enumerate(rows):
                y = r[p]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
                    tree.append((y, p, i))
        rights = []  # rights[i][y] = y * s_i^-1
        for r in rows:
            right = [0] * n
            right[0] = r.index(0)
            for y, p, i in tree:
                right[y] = rows[i][right[p]]
            rights.append(right)
        inv = [0] * n
        for y, p, i in tree:
            inv[y] = rights[i][inv[p]]
        return inv

    @cached_property
    def _at_inverses(self) -> itemgetter:
        """Reads a row at g^-1 for every g, in one C-level gather."""
        return itemgetter(*self._inverses)

    def _commutes_with(self, x: int) -> bytes:
        """Byte g is 1 iff x*g == g*x, for x other than the identity.

        Compared as (x*g)^-1 == x^-1 * g^-1, so that both sides are C-level
        gathers of one row: the inverses read along row x, and row x^-1 read
        at the inverses.  n cells, and no other row is read.
        """
        inv = self._inverses
        return bytes(map(eq, itemgetter(*self.row(x))(inv), self._at_inverses(self.row(inv[x]))))

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
        coset of reps[coset_of[g]].  The coset gZ(G) = Z(G)g is the closure
        of g under left multiplication by a greedy generating set of Z(G),
        whose rows are the only ones read: n*|S_Z| steps."""
        zrows = [self.row(s) for s in self._greedy_generators(self.center())]
        coset_of = [-1] * self.order
        reps: list[int] = []
        for g in range(self.order):
            if coset_of[g] >= 0:
                continue
            c = len(reps)
            reps.append(g)
            coset_of[g] = c
            todo = [g]
            for y in todo:
                for r in zrows:
                    p = r[y]
                    if coset_of[p] < 0:
                        coset_of[p] = c
                        todo.append(p)
        return coset_of, reps

    # -- conjugation and the classes of G/Z(G) -----------------------------------
    @cached_property
    def _conjugations(self) -> list[tuple[int, ...]]:
        """x -> s^-1*x*s for each generator s, as f(f(x)) with
        f(x) = (s^-1*x)^-1 = x^-1*s, since f(x^-1*s) = s^-1*x*s.  f is the
        inverses read along row s^-1, so each map is two C-level gathers of
        n cells and reads one row."""
        inv = self._inverses
        out = []
        for s in self.generators:
            f = itemgetter(*self.row(inv[s]))(inv)
            out.append(itemgetter(*f)(f))
        return out

    @cached_property
    def conjugacy_class_count(self) -> int:
        """k(G), as the orbits of G under the conjugations: O(n*|S|), and it
        never reads a centralizer mask.  Cached, since Pr(G) and the tags
        both read it."""
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
        row = self.row
        members = [g for g in range(self.order) if mask >> g & 1]
        gens = self._greedy_generators(members)
        return all(row(a)[b] == row(b)[a] for i, a in enumerate(gens) for b in gens[:i])

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
        return Fraction(self.conjugacy_class_count, self.order)

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
        for i, row in enumerate(t):
            # one C-level pass per row; the cells are walked only to name a bad one
            if all(map(isinstance, row, repeat(int))) and min(row) >= 0 and max(row) < n:
                continue
            for j, v in enumerate(row):
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
            at_s_row = itemgetter(*t[s])
            # (x*s)*y == x*(s*y) for all y: row x*s against row x read along
            # row s, one C-level gather
            for x in range(n):
                tx = t[x]
                if t[tx[s]] != list(at_s_row(tx)):
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
