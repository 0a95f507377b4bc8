"""Finite groups on the rows of their multiplication tables, plus the
structural queries the rest of the library needs.

Row x of the table is left multiplication by x, ``row(x)[j]`` = x*j, and
every query reads the table through ``FiniteGroup.row``.  An ingested
table serves the rows from its list and reads the inverses off them.  A
group from a builder gets its order, a ``row_of`` and the inverse map, the
last two from the builder's own arithmetic, and computes a row only when a
query asks for it; no inverse is found by walking the table.  The Zagreb
report, the formula dispatch and the cross-check read the rows of the
generators, of the class representatives of G/Z(G) that the power walk
starts from and of the generators of Z(G), and no other, row 0 included:
for D_2000 that is 5 of 2000 rows, for GL(2,7) 9 of 2016.
``FiniteGroup.table`` is the full list of rows; a built group computes
every row on its first access, for validation and the tests.

The one commutation primitive is the conjugation map of an element s,
x -> s*x*s^-1 (``_conjugation``): two C-level gathers along row s, and no
other row.  Its fixed points, compared with ``range(n)``, are C_G(s)
(``_centralizer_mask``, which keeps every mask it computes: one mask per
element per group at most, so a generator that comes back as a class
representative, or as a generator of a centralizer, costs no second one),
and its orbits, with Z(G), give the classes.  One cached pass per group
(``_commutation``) starts from the maps of a greedy generating set (at
most log2(n) elements, a subgroup closed one left coset at a time, found
once and cached, or named by the builder, which the tests pin to the same
set), the only maps kept, and finds in turn: Z(G), the
intersection of their masks, where an abelian G stops; the classes of
G/Z(G), in one walk of those maps and of left multiplication by a greedy
generating set of Z(G) (``quotient_classes``), since the class of xZ(G) is
the set of the c*h*x*h^-1 with c central, so no coset is numbered on the
way; a mask and a coset order per class; the abelian certificates; and
k(G).  Whether x and y commute depends only on their cosets xZ(G) and
yZ(G), and conjugate elements have conjugate centralizers, so one
centralizer bitmask per class of G/Z(G) (``class_masks``) carries every
commutation fact the library reports.  The power walk (``_power_walk``)
goes along an element's row, to the first central power, and proves which
of its powers share its centralizer: the coprime ones, and every one whose
class is so small that Lagrange leaves no room between the two
centralizers.  It hands the mask to each such class, with the order of the
power's coset in G/Z(G) (``class_orders``): at most one mask per power
class, often fewer.  A mask whose index over <y>Z(G), which is central in
it, is 1 or a prime is abelian (``certified_abelian``, decided once per
distinct mask and order), which spares the AC test of
``zagreb.group_report`` and the generator masks of the count below on all
but 1 of the distinct masks of ``catalog(256)``.  The accessors
``center``, ``quotient_classes``, ``class_masks``, ``class_orders``,
``certified_abelian`` and ``conjugacy_class_count`` read that one record.
From it come the Zagreb sums of ``zagreb.group_report``, Pr(G) = k(G)/n,
the distinct-centralizer count, which adds the center of each class's
centralizer, the mask itself when certified and otherwise at most log2 of
its order further masks, and the element orders of G/Z(G) from which
``formulas.dispatch`` reads its shape; no quotient table is built.  Also
here: the reader of text sources that the Cayley-table and edge-list
parsers share.

Conventions: elements are the indices 0..n-1 and index 0 is always the
identity.  Tables produced by the builders are trusted by construction;
``FiniteGroup.validate`` screens the entries, checks that row 0 and
column 0 are the identity map, and then proves the other group axioms
exactly at every order (``check_axioms``: Latin rows, inverses, and Light's
test on ``generators``, the walk's or the builder's, which with them
proves the columns Latin too).  An ingested table, whose parse has already
proved every entry an int in [0, n) and found the identity, gets
``check_axioms`` alone.
"""

from __future__ import annotations

import copy
import os
from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from math import gcd
from operator import and_, eq, itemgetter, mul
from typing import Callable

from .ff import is_prime

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_CHAR_BITS = bytes.maketrans(b"01", b"\x00\x01")


class GroupTableError(ValueError):
    """A table failed one of the group axioms; the message names it."""


class AbelianGroupError(ValueError):
    """Raised where a non-abelian group is required (commuting graphs)."""


class FiniteGroup:
    """Immutable-by-convention finite group on the rows of its Cayley table.

    Give it either ``table``, with table[i][j] the index of g_i * g_j, whose
    inverses it reads off the rows (``row.index(0)``), or its ``order``, a
    ``row_of`` that computes row i and ``inverses``, with inverses[i] the
    index of g_i^-1, both from the builder's own arithmetic, and optionally
    the ``generators`` its presentation names, the walk's set.  Queries cache
    their results on the instance and never change a row; two threads that
    race to compute the same row store equal lists, so sharing is safe.
    """

    def __init__(self, table: list[list[int]] | None = None, label: str = "G", *,
                 order: int = 0, row_of: Callable[[int], list[int]] | None = None,
                 inverses: list[int] | None = None,
                 generators: tuple[int, ...] | None = None):
        self.label = label
        self.family: str | None = None  # set by build.build_family
        self.params: tuple[int, ...] | None = None
        self._masks: dict[int, int] = {}  # x -> C_G(x), see _centralizer_mask
        if table is None:
            if inverses is None:
                raise TypeError("a group built from row_of needs its inverses")
            self.order = order
            self._row_of = row_of
            self._rows: list[list[int] | None] = [None] * order
            self._inverses = inverses  # set on the instance, so the table is never read
            if generators is not None:
                self.generators = generators  # set on the instance: no walk
        else:
            self.table = table  # set on the instance: the rows are its list
            self.order = len(table)
            self._rows = table
            if any(len(row) != self.order for row in table):
                raise GroupTableError("table is not square")
        if self.order == 0:
            raise GroupTableError("empty table")

    def copy_as(self, label: str, family: str | None,
                params: tuple[int, ...] | None) -> FiniteGroup:
        """The group on the same table under another label, family and
        params, sharing every row, every centralizer mask and every cached
        query with this one."""
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
        """Every row, table[i][j] = g_i * g_j.  A built group computes each
        row with ``row`` on first access; the report path never reads it."""
        return [self.row(x) for x in range(self.order)]

    # -- generators ----------------------------------------------------------------
    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A greedy generating set of G, the builder's or the walk's; tests pin them equal."""
        return tuple(self._greedy_generators(range(self.order)))

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

    # -- the commutation pass ----------------------------------------------------
    def _conjugation(self, s: int) -> tuple[int, ...]:
        """The conjugation map x -> s*x*s^-1, in a group of order at least 2,
        as h(h(x)) with h(x) = (s*x)^-1 = x^-1*s^-1, since
        h(x^-1*s^-1) = s*x*s^-1.  h is the inverses read along row s, so the
        map is two C-level gathers of n cells and reads only row s.  Its
        fixed points are C_G(s) (``_centralizer_mask``), and its orbits, with
        Z(G), are the classes of G/Z(G) (``_commutation``)."""
        h = itemgetter(*self.row(s))(self._inverses)
        return itemgetter(*h)(h)

    def _centralizer_mask(self, x: int, conj: tuple[int, ...] | None = None) -> int:
        """C_G(x) as a bitmask, bit g set iff x*g == g*x, in a group of order
        at least 2, computed on the first request and kept in ``_masks``:
        the fixed points of x's conjugation map ``conj``, made here unless
        the caller holds it, compared with the identity map ``range(n)`` in
        one C-level pass, so no identity row is built.  Reversed, the bytes
        put g = 0 lowest."""
        m = self._masks.get(x)
        if m is None:
            if conj is None:
                conj = self._conjugation(x)
            same = bytes(map(eq, conj, range(self.order)))
            m = self._masks[x] = int(same[::-1].translate(_BIT_CHARS), 2)
        return m

    @cached_property
    def _commutation(self) -> tuple:
        """(maps, center, (class_of, sizes, reps), masks, orders, certified,
        k), in one pass on locals: the generators' conjugation maps; Z(G),
        the intersection of their masks, where an abelian G stops with one
        class, of mask G and order 1; the classes of G/Z(G), one walk of
        those maps and the rows of a greedy generating set of Z(G), since
        the class of gZ(G) holds the c*h*g*h^-1 with c central:
        n*(|S| + |S_Z|) steps; ``_power_walk``; the certificates, once per
        distinct (mask, order) pair; and k(G) = sum_x |C_G(x)| / n.

        A class's mask C_G(y) contains K = <y>Z(G), of order o*z with
        o = |yZ(G)|, and K is central in it.  When [C_G(y) : K] is 1 or a
        prime, C_G(y)/K is cyclic, so C_G(y) is K and one element that
        commutes with K: abelian."""
        n = self.order
        gens = self.generators
        maps = list(map(self._conjugation, gens))
        z_mask = reduce(and_, map(self._centralizer_mask, gens, maps), (1 << n) - 1)
        center = tuple(self._members(z_mask))
        z = len(center)
        if z == n:
            return maps, center, ([0] * n, [n], [0]), (z_mask,), (1,), frozenset((z_mask,)), n
        walk = maps + [self.row(s) for s in self._greedy_generators(center)]
        class_of = [-1] * n
        sizes: list[int] = []
        reps: list[int] = []
        for g in range(n):
            if class_of[g] >= 0:
                continue
            k = len(reps)
            class_of[g] = k
            reps.append(g)
            todo = [g]
            for y in todo:
                for m in walk:
                    p = m[y]
                    if class_of[p] < 0:
                        class_of[p] = k
                        todo.append(p)
            sizes.append(len(todo))
        masks, orders = self._power_walk(class_of, sizes, reps, z)
        order_of = [m.bit_count() for m in masks]
        certified = frozenset(
            m for m, s, o in set(zip(masks, order_of, orders))
            if not s % (o * z) and (s == o * z or is_prime(s // (o * z))))
        k = sum(map(mul, sizes, order_of)) // n
        return maps, center, (class_of, sizes, reps), masks, orders, certified, k

    def _power_walk(self, class_of: list[int], sizes: list[int], reps: list[int],
                    z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(masks, orders): for each class of G/Z(G) (``quotient_classes``,
        z = |Z(G)|), the centralizer mask of one of its elements y and the
        order of yZ(G).

        The classes are taken in ascending order.  A class c with no mask yet
        gets C_G(r) for its representative r, and row r walks r, r^2, ... until
        the coset is central: o steps, o the order of rZ(G).  Each power
        y = r^j, j < o, in class d, has C_G(y) = C_G(r) when one of two proofs
        holds, and then d, if it has no mask yet, gets that mask and the order
        o/gcd(j, o) of yZ(G):
          - gcd(j, o) = 1: with j*j' = 1 mod o, y^j' = r*z' for a central z',
            so C(y) lies in C(r*z') = C(r), which lies in C(y);
          - n*z < 2*|C(r)|*sizes[d]: C(r) <= C(y) <= P(y), the preimage of
            C_{G/Z}(yZ(G)), of order n*z/sizes[d], since sizes[d] counts the
            elements of d; so [C(y) : C(r)] < 2, and Lagrange gives
            C(y) = C(r).
        The mask is kept under y too, since it is exactly C(y).  A class
        that neither proof reaches gets its own walk.  The center's class
        commutes with everything and has order 1."""
        n = self.order
        row, mask, held = self.row, self._centralizer_mask, self._masks
        masks = [(1 << n) - 1] + [0] * (len(reps) - 1)
        orders = [1] * len(reps)
        for c in range(1, len(reps)):
            if masks[c]:
                continue
            r = reps[c]
            step = row(r)
            powers = []  # r, r^2, ..., r^(o-1)
            x = r
            while class_of[x]:
                powers.append(x)
                x = step[x]
            o = len(powers) + 1
            m = mask(r)
            twice = 2 * m.bit_count()
            for j, y in enumerate(powers, 1):
                d = class_of[y]
                g = gcd(j, o)
                if g == 1 or n * z < twice * sizes[d]:  # C(y) = C(r)
                    held[y] = m
                    if not masks[d]:
                        masks[d] = m
                        orders[d] = o // g
        return tuple(masks), tuple(orders)

    def center(self) -> tuple[int, ...]:
        """Z(G), ascending."""
        return self._commutation[1]

    def is_abelian(self) -> bool:
        return len(self.center()) == self.order

    @property
    def _conjugations(self) -> list[tuple[int, ...]]:
        """The conjugation maps of the generators, in their order."""
        return self._commutation[0]

    @property
    def quotient_classes(self) -> tuple[list[int], list[int], list[int]]:
        """(class_of, sizes, reps): the conjugacy classes of G/Z(G), as the
        sets of their elements.  Element g lies in class c = class_of[g] of
        sizes[c] elements, |Z(G)| times its size in G/Z(G), represented by
        reps[c], its lowest element; reps ascend, so Z(G) is class 0."""
        return self._commutation[2]

    @property
    def class_masks(self) -> tuple[int, ...]:
        """C_G(y) for some y in each class of G/Z(G), by ``_power_walk``:
        C_G(y) depends only on the coset yZ(G), and conjugate elements have
        conjugate centralizers of equal order, so one mask per class carries
        every degree of C(G) and NC(G)."""
        return self._commutation[3]

    @property
    def class_orders(self) -> tuple[int, ...]:
        """The order in G/Z(G) of the cosets of each class, read off the same
        walk as ``class_masks``."""
        return self._commutation[4]

    @property
    def certified_abelian(self) -> frozenset[int]:
        """The class masks that their size proves abelian (``_commutation``),
        which ``zagreb.group_report`` and ``count_distinct_centralizers``
        read instead of testing the mask."""
        return self._commutation[5]

    @property
    def conjugacy_class_count(self) -> int:
        """k(G) = sum_x |C_G(x)| / n."""
        return self._commutation[6]

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

    def count_distinct_centralizers(self) -> int:
        """|Cent(G)|, the number of distinct subgroups C_G(x), G included.

        For m = C_G(x), the mask of x's non-central class c, C_G(y) = m iff
        y lies in Z(m) and |C_G(y)| = |m|.  Z(m) is m itself when the mask is
        ``certified_abelian``, and otherwise m ANDed with the masks of a
        greedy generating set of m.  The elements of the class have
        conjugate centralizers, each shared by as many of them as lie in
        Z(m).  A class with elements in Z(m) and centralizers of order |m|
        has the same centralizers, and is skipped.
        """
        class_of, sizes, _ = self.quotient_classes
        masks = self.class_masks
        certified = self.certified_abelian
        skip: set[int] = set()
        count = 1
        for c, m in enumerate(masks[1:], 1):
            if c in skip:
                continue
            center_of_m = m
            if m not in certified:
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

        The entry screen proves every cell an int in [0, n), the identity
        checks that row 0 and column 0 are the identity map, and
        ``check_axioms`` that the rows are permutations, j*i = 0 for the j
        with i*j = 0, and Light's test on ``generators``, the walk's set or
        the builder's, which the tests pin equal.
        In any magma the a with (x*a)*y == x*(a*y) for all x, y contain the
        identity and are closed under the product: (x*(a*b))*y =
        ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y).  With injective
        left multiplications they form a group A.  So if the generators pass,
        the greedy walk that finds them runs inside A, as the group algorithm:
        they generate the table, and A is all of it, an associative monoid
        with inverses, a group.  Its columns are then permutations too, and
        are not screened.
        """
        self._screen_entries()
        identity = list(range(self.order))
        if self.table[0] != identity:
            raise GroupTableError("identity axiom violated: row 0 is not the identity map")
        if [row[0] for row in self.table] != identity:
            raise GroupTableError("identity axiom violated: column 0 is not the identity map")
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
        """The other group axioms of a table whose cells are ints in [0, n)
        and whose row 0 and column 0 are the identity map, proved as
        ``validate`` sets out; raises GroupTableError naming the first one
        violated."""
        t = self.table
        n = self.order
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
