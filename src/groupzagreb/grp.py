"""Finite groups on the rows of their multiplication tables, plus the
structural queries the rest of the library needs.

Row x of the table is left multiplication by x, ``row(x)[j]`` = x*j, and
every query reads the table through ``FiniteGroup.row``.  An ingested
table serves the rows from its list and reads the inverses off them.  A
group from a builder gets its order, a ``row_of`` and the inverse map, the
last two from the builder's own arithmetic, and computes a row only when a
query asks for it; no inverse is found by walking the table.  The Zagreb
report, the formula dispatch and the cross-check read the rows of the
generators, of the class representatives of G/Z(G) that
``class_masks`` walks and of the generators of Z(G), and no other: for
D_2000 that is 14 of 2000 rows, for GL(2,7) 20 of 2016.
``FiniteGroup.table`` is the full list of rows; for a built group ``close``
materializes it on first access, for validation and the tests.

A greedy generating set (at most log2(n) elements, found once and cached,
a subgroup closed one left coset at a time) serves validation, the center
and ``fingerprint``: the generators' rows fix the whole table, so two
groups share a fingerprint iff they share a table.  Z(G) is the
intersection of the generators' centralizers, one row and n cells per
generator.  Conjugation by the generators, one cached map each, and left
multiplication by a greedy generating set of Z(G) label every element with
its class of G/Z(G) in one walk (``quotient_classes``): the class of xZ(G)
is the set of the c*h*x*h^-1 with c central, so no coset is numbered on the
way.  Whether x and y commute depends only on their cosets xZ(G) and
yZ(G), and conjugate elements have conjugate centralizers, so one
centralizer bitmask per class of G/Z(G) (``class_masks``) carries every
commutation fact the library reports.  The classes of the coprime powers of
an element share its centralizer, so one walk along its row, to the first
central power, gives both the mask of every such class and their order in
G/Z(G) (``class_orders``): one mask per power class.  From them come the
Zagreb sums of ``zagreb.group_report``, k(G) = sum_x |C_G(x)| / n and
Pr(G) = k(G)/n, the distinct-centralizer count, which adds the center of
each class's centralizer, at most log2 of its order further masks, and the
element orders of G/Z(G) from which ``formulas.registry_for`` reads its
shape; no quotient table is built.  ``centralizer(x)`` computes the one
mask it returns.  Also here: the reader of text sources that the
Cayley-table and edge-list parsers share.

Conventions: elements are the indices 0..n-1 and index 0 is always the
identity.  Tables produced by the builders are trusted by construction;
``FiniteGroup.validate`` screens the entries and then proves the group
axioms exactly at every order (``check_axioms``: identity, Latin rows,
inverses, and Light's test on a generating set, which with them proves the
columns Latin too).  An ingested table, whose parse has already proved
every entry an int in [0, n), gets ``check_axioms`` alone.
"""

from __future__ import annotations

import copy
import os
from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from math import gcd
from operator import and_, eq, itemgetter
from typing import Callable

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_CHAR_BITS = bytes.maketrans(b"01", b"\x00\x01")


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

    Give it either ``table``, with table[i][j] the index of g_i * g_j, whose
    inverses it reads off the rows (``row.index(0)``), or its ``order``, a
    ``row_of`` that computes row i and ``inverses``, with inverses[i] the
    index of g_i^-1, both from the builder's own arithmetic.  Queries cache
    their results on the instance and never change a row; two threads that
    race to compute the same row store equal lists, so sharing is safe.
    """

    def __init__(self, table: list[list[int]] | None = None, label: str = "G", *,
                 order: int = 0, row_of: Callable[[int], list[int]] | None = None,
                 inverses: list[int] | None = None):
        self.label = label
        self.family: str | None = None  # set by build.build_family
        self.params: tuple[int, ...] | None = None
        if table is None:
            if inverses is None:
                raise TypeError("a group built from row_of needs its inverses")
            self.order = order
            self._row_of = row_of
            self._rows: list[list[int] | None] = [None] * order
            self._inverses = inverses  # set on the instance, so the table is never read
        else:
            self.table = table  # set on the instance, so ``close`` never runs
            self.order = len(table)
            self._rows = table
            if any(len(row) != self.order for row in table):
                raise GroupTableError("table is not square")
        if self.order == 0:
            raise GroupTableError("empty table")

    def copy_as(self, label: str, family: str | None,
                params: tuple[int, ...] | None) -> FiniteGroup:
        """The group on the same table under another label, family and
        params, sharing every row and every cached query with this one."""
        G = copy.copy(self)
        G.label, G.family, G.params = label, family, params
        return G

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

    # -- generators and the center -----------------------------------------------
    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A greedy generating set of G; see ``_greedy_generators``."""
        return tuple(self._greedy_generators(range(self.order)))

    @cached_property
    def fingerprint(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``generators``, which fix the whole table: every
        element is a word in the generators, and row(a*b) is row(a) read along
        row(b).  Two groups have equal fingerprints iff their tables are
        equal, since equal tables give the same greedy generators."""
        return tuple(tuple(self.row(s)) for s in self.generators)

    def _greedy_generators(self, members) -> list[int]:
        """A greedy generating set of the subgroup whose elements, ascending,
        are ``members``: walk them and take each one not yet reached, so each
        one at least doubles the reached subgroup H, and there are at most
        log2 of its order.  A new generator s reaches <H, s> as the union of
        the left cosets gL of L, the larger of H and <s>, that left
        multiplication by the generators finds from L, each new one a gather
        of a generator's row at a known coset: such an image tgL is a known
        coset or disjoint from them all.  <s> is a walk along row s.  Only the
        generators' rows are read, and the Python steps are one per power of
        a generator plus one per coset and generator."""
        reached = {0}
        gens: list[int] = []
        rows: list[list[int]] = []
        sub: list[int] = [0]  # the subgroup H reached so far
        for s in members:
            if s in reached:
                continue
            gens.append(s)
            row = self.row(s)
            rows.append(row)
            powers = [0]
            x = s
            while x:
                powers.append(x)
                x = row[x]
            cosets = [max(sub, powers, key=len)]
            reached = set(cosets[0])
            for coset in cosets:
                at_coset = itemgetter(*coset)
                for r in rows:
                    if r[coset[0]] not in reached:
                        image = at_coset(r)
                        reached.update(image)
                        cosets.append(image)
            sub = list(chain.from_iterable(cosets))
            if len(sub) == len(members):
                break
        return gens

    @cached_property
    def _inverses(self) -> list[int]:
        """g -> g^-1 read off the rows of an ingested table; a built group
        sets its builder's map on the instance instead."""
        return [row.index(0) for row in self._rows]

    def _commutes_with(self, x: int) -> bytes:
        """Byte g is 1 iff x*g == g*x, for x other than the identity.

        Since x*(x*g)^-1 = x*g^-1*x^-1, x*g == g*x iff x*(x*g)^-1 == g^-1:
        the inverses read along row x, row x read at those, compared with the
        inverses.  Two C-level gathers of n cells, and no other row is read.
        """
        row = self.row(x)
        inv = self._inverses
        return bytes(map(eq, itemgetter(*itemgetter(*row)(inv))(row), inv))

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

    # -- conjugation and the classes of G/Z(G) -----------------------------------
    @cached_property
    def _conjugations(self) -> list[tuple[int, ...]]:
        """x -> s*x*s^-1 for each generator s, as h(h(x)) with
        h(x) = (s*x)^-1 = x^-1*s^-1, since h(x^-1*s^-1) = s*x*s^-1.  h is the
        inverses read along row s, so each map is two C-level gathers of
        n cells and reads only the generator's own row."""
        inv = self._inverses
        out = []
        for s in self.generators:
            h = itemgetter(*self.row(s))(inv)
            out.append(itemgetter(*h)(h))
        return out

    @cached_property
    def quotient_classes(self) -> tuple[list[int], list[int], list[int]]:
        """(class_of, sizes, reps): the conjugacy classes of G/Z(G), as the
        sets of their elements.  Element g lies in class c = class_of[g] of
        sizes[c] elements, |Z(G)| times its size in G/Z(G), represented by
        reps[c], its lowest element; reps ascend, so Z(G) is class 0.

        The class of gZ(G) holds the elements c*h*g*h^-1, c central, so it is
        the orbit of g under the conjugations by the generators and left
        multiplication by a greedy generating set of Z(G), whose rows are
        the only ones read: n*(|S| + |S_Z|) steps in one walk."""
        maps = self._conjugations + [
            self.row(s) for s in self._greedy_generators(self.center())]
        class_of = [-1] * self.order
        sizes: list[int] = []
        reps: list[int] = []
        for g in range(self.order):
            if class_of[g] >= 0:
                continue
            k = len(reps)
            class_of[g] = k
            reps.append(g)
            todo = [g]
            for y in todo:
                for m in maps:
                    p = m[y]
                    if class_of[p] < 0:
                        class_of[p] = k
                        todo.append(p)
            sizes.append(len(todo))
        return class_of, sizes, reps

    # -- the commutation relation ----------------------------------------------
    def _centralizer_mask(self, x: int) -> int:
        """C_G(x) as a bitmask, bit g set iff x*g == g*x: the bytes of
        ``_commutes_with`` reversed, so that g = 0 is the lowest bit."""
        return int(self._commutes_with(x)[::-1].translate(_BIT_CHARS), 2)

    @cached_property
    def _power_classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(masks, orders): for each class of G/Z(G), the centralizer mask of
        one of its elements and the order of that element's coset.

        The classes are taken in ascending order.  A class c with no mask yet
        gets C_G(r) for its representative r, and row r walks r, r^2, ... until
        the coset is central: o steps, o the order of rZ(G).  If gcd(j, o) = 1
        then C_G(r^j) = C_G(r): with j*j' = 1 mod o, (r^j)^j' = r*z' for a
        central z', so C(r^j) lies in C(r*z') = C(r), which lies in C(r^j).
        So every class that holds such an r^j, c among them, gets the same
        mask and the order o.  Such a class had no mask yet: its own walk
        would have reached c by the inverse power.  The center's class
        commutes with everything and has order 1.
        """
        class_of, _, reps = self.quotient_classes
        masks = [(1 << self.order) - 1] + [0] * (len(reps) - 1)
        orders = [1] * len(reps)
        for c in range(1, len(reps)):
            if masks[c]:
                continue
            r = reps[c]
            row = self.row(r)
            powers = []  # the classes of r, r^2, ..., r^(o-1)
            x = r
            while class_of[x]:
                powers.append(class_of[x])
                x = row[x]
            o = len(powers) + 1
            m = self._centralizer_mask(r)
            for j, d in enumerate(powers, 1):
                if gcd(j, o) == 1:
                    masks[d] = m
                    orders[d] = o
        return tuple(masks), tuple(orders)

    @property
    def class_masks(self) -> tuple[int, ...]:
        """C_G(x) for some x in each class of G/Z(G), by ``_power_classes``.

        C_G(x) depends only on the coset xZ(G), and conjugate elements have
        conjugate centralizers of equal order, so one mask per class carries
        every degree of C(G) and NC(G).  Classes of coprime powers share one
        int, so at most one mask is computed per power class of G/Z(G), n
        cells each."""
        return self._power_classes[0]

    @property
    def class_orders(self) -> tuple[int, ...]:
        """The order in G/Z(G) of the cosets of each class, read off the same
        walk as ``class_masks``."""
        return self._power_classes[1]

    @cached_property
    def conjugacy_class_count(self) -> int:
        """k(G) = sum_x |C_G(x)| / n, summed over the classes of G/Z(G): each
        element of class c has a centralizer of order |m_c|."""
        _, sizes, _ = self.quotient_classes
        return sum(k * m.bit_count() for k, m in zip(sizes, self.class_masks)) // self.order

    def _members(self, mask: int) -> list[int]:
        """The elements whose bits are set in ``mask``, ascending."""
        bits = format(mask, f"0{self.order}b").encode().translate(_CHAR_BITS)[::-1]
        return list(compress(range(self.order), bits))

    def is_abelian_subgroup(self, mask: int) -> bool:
        """Whether the subgroup with bitmask ``mask`` is abelian: whether a
        greedy generating set of it commutes pairwise, at most log2 of its
        order generators."""
        row = self.row
        gens = self._greedy_generators(self._members(mask))
        return all(row(a)[b] == row(b)[a] for i, a in enumerate(gens) for b in gens[:i])

    def centralizer(self, x: int) -> tuple[int, ...]:
        """C_G(x), ascending; a central x commutes with everything."""
        if x in self.center():
            return tuple(range(self.order))
        return tuple(self._members(self._centralizer_mask(x)))

    def count_distinct_centralizers(self) -> int:
        """|Cent(G)|, the number of distinct subgroups C_G(x), G included.

        For m = C_G(x), the mask of x's non-central class c, C_G(y) = m iff
        y lies in Z(m) and |C_G(y)| = |m|.  Z(m) is m ANDed with the masks of
        a greedy generating set of m.  The elements of the class have
        conjugate centralizers, each shared by as many of them as lie in
        Z(m).  A class with elements in Z(m) and centralizers of order |m|
        has the same centralizers, and is skipped.
        """
        class_of, sizes, _ = self.quotient_classes
        masks = self.class_masks
        skip: set[int] = set()
        count = 1
        for c, m in enumerate(masks[1:], 1):
            if c in skip:
                continue
            gens = self._greedy_generators(self._members(m))
            center_of_m = reduce(and_, map(self._centralizer_mask, gens), m)
            inside = Counter(class_of[y] for y in self._members(center_of_m))
            skip.update(d for d in inside if masks[d].bit_count() == m.bit_count())
            count += sizes[c] // inside[c]
        return count

    def commutativity_degree(self) -> Fraction:
        """Probability that a uniform ordered pair commutes, as an exact
        fraction: k(G)/n, since sum_x |C_G(x)| = k(G)*n."""
        return Fraction(self.conjugacy_class_count, self.order)

    # -- validation --------------------------------------------------------------
    def validate(self) -> None:
        """Full group-axiom screen; raises GroupTableError naming the violation.

        The entry screen proves every cell an int in [0, n); ``check_axioms``
        that row 0 and column 0 are the identity map, the rows permutations,
        j*i = 0 for the j with i*j = 0, and Light's test on ``generators``.
        In any magma the a with (x*a)*y == x*(a*y) for all x, y contain the
        identity and are closed under the product: (x*(a*b))*y =
        ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y).  With injective
        left multiplications they form a group A.  So if the generators pass,
        the greedy walk that found them ran inside A, as the group algorithm:
        they generate the table, and A is all of it, an associative monoid
        with inverses, a group.  Its columns are then permutations too, and
        are not screened.
        """
        self._screen_entries()
        self.check_axioms()

    def _screen_entries(self) -> None:
        """Raise GroupTableError naming the first cell, in row-major order,
        that is no int in [0, n)."""
        n = self.order
        for i, row in enumerate(self.table):
            # one C-level pass per row; the cells are walked only to name a bad one
            if all(map(isinstance, row, repeat(int))) and min(row) >= 0 and max(row) < n:
                continue
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise GroupTableError(f"entry table[{i}][{j}]={v!r} out of range")

    def check_axioms(self) -> None:
        """The group axioms of a table whose cells are known to be ints in
        [0, n), proved as ``validate`` sets out; raises GroupTableError
        naming the first violation."""
        t = self.table
        n = self.order
        if t[0] != list(range(n)):
            raise GroupTableError("identity axiom violated: row 0 is not the identity map")
        for i in range(n):
            if t[i][0] != i:
                raise GroupTableError("identity axiom violated: column 0 is not the identity map")
        for i in range(n):
            if len(set(t[i])) != n:
                raise GroupTableError(f"Latin square violated: row {i} is not a permutation")
        for i, j in enumerate(self._inverses):
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
