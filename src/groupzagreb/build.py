"""Constructors for every group family the checker knows about, plus direct
products, the special groups of the planarity/toroidality golden tests,
Cayley-table ingestion, and the deterministic catalog the scan reads.

Each family is one record in ``FAMILIES``: its parameter names, validity
rule, order, label, normal form and catalog instances.  The formula registry
and the CLI read the same table.  A normal form (``NormalForm``) is a
builder and its arguments, reduced where the builder reads them by a
modulus; every family instance and special group declares one, by which
the scan shares a table between the catalog entries that name it.  One step
(``_labelled``) builds a form, checks the order its family or the roster
states and names the group, for ``build_family``, ``special_group`` and
``CatalogEntry.build`` alike.

A builder numbers its elements and hands ``FiniteGroup`` the order, a
``row_of`` for any one element and the inverse map, both from its own
arithmetic; a row is computed only when a query reads it, by a few C-level
gathers over shared index lists, and the full table of a built group is
every such row, so no second construction composes it.  One
abelian-by-cyclic normal form, (x, y) b^j with A = Z_m1 x Z_m2 and b acting
on A by a 2x2 integer matrix, builds every solvable family but A(n,nu) and
A(n,p), and every special group but S_4, A_5 and SL(2,3), and names the
generators the greedy walk finds.  GL(2,q), SL(2,q) =
PSL(2,2^k) and the unitriangular A(n,p) number their column vectors; left
multiplication permutes each column on its own, so a row reads a table of
the elements by their two column keys.  A(n,nu) permutes one block of q
cells per a', a direct product one block of H per cell of G's row.  S_4 is
built on its permutations; no group is built by coset enumeration.
"""

from __future__ import annotations

import io
from itertools import chain, compress, permutations, repeat
from operator import getitem, itemgetter
from typing import Callable, Iterator, NamedTuple

from . import ff
from .grp import FiniteGroup, GroupTableError, group_of_table

_LONG_ORDER = 10 ** 4300  # the least order with more digits than Python prints by default


class FamilyError(ValueError):
    """Invalid family name or parameters."""


class OrderCapError(ValueError):
    """Requested group exceeds the configured order cap."""


class CayleyFormatError(ValueError):
    """A Cayley-table file violated the text format."""


# ---------------------------------------------------------------------------
# the normal-form builders
# ---------------------------------------------------------------------------

def _abelian_by_cyclic(m1: int, m2: int, k: int, act: tuple[int, int, int, int],
                       s: tuple[int, int] = (0, 0)) -> FiniteGroup:
    """<A, b | b^k = s, b u b^-1 = act(u) for u in A>, A = Z_m1 x Z_m2, with
    (x, y) b^j at index x + m1*y + m1*m2*j.

    ``act`` = (p, q, r, t) sends (x, y) to (p x + q y, r x + t y), so
    (u1 b^j1)(u2 b^j2) = (u1 + act^j1(u2)) b^(j1 + j2), and b^k folds back
    to s.  The caller picks parameters with |A| >= 2, act an automorphism
    of A, act^k = 1 and act(s) = s.

    A row is built at gather speed, from slices of one shared index list, so
    its cells are the list's own ints: with w = u1, or u1 + s once
    b^(j1 + j2) wraps past b^k, the A-part of a cell is w + act^j1(u2), the
    translate of A by w (slices) permuted by act^j1 (one prebuilt gather per
    power of b).  The loop runs over whichever axis is shorter: the powers
    b^j2, one block of m1*m2 cells each, or the elements u2 of A, whose k
    cells lie m1*m2 apart in the row.  The generators a = (1, 0) at 1,
    c = (0, 1) at m1 and b at m1*m2, each where its factor is not trivial,
    are the greedy walk's: each is the least index outside <the ones before>.
    """
    p, q, r, t = act
    m = m1 * m2
    n = m * k
    base = list(range(n))
    step = [(p * x + q * y) % m1 + m1 * ((r * x + t * y) % m2)
            for y in range(m2) for x in range(m1)]
    identity = tuple(base[:m])
    cycle = []  # act^j on the indices of A, j < e, e the order of act
    perm = identity
    while not cycle or perm != identity:
        cycle.append(itemgetter(*perm))
        perm = cycle[-1](step)  # act^(j+1)(u) = step[act^j(u)]
    e = len(cycle)  # act^k = 1, so e divides k
    powers = cycle * (k // e)
    s1, s2 = s

    def translate(wx: int, wy: int, offset: int) -> list[int]:
        """offset + the index of (wx, wy) + u, for u in A in index order."""
        cells: list[int] = []
        for y in range(m2):
            row_start = offset + m1 * ((y + wy) % m2)
            cells += base[row_start + wx:row_start + m1]
            cells += base[row_start:row_start + wx]
        return cells

    def row_of(idx: int) -> list[int]:
        x1, y1, j1 = idx % m1, idx // m1 % m2, idx // m
        wrap = (x1 + s1) % m1, (y1 + s2) % m2
        act_j1 = powers[j1]
        if k <= m:
            row: list[int] = []
            for j in range(j1, j1 + k):
                row += act_j1(translate(x1, y1, m * j) if j < k else translate(*wrap, m * (j - k)))
            return row
        # A-part of u2 b^j2 before (a0) and after (a1) the wrap, at j2 = 0
        a0, a1 = act_j1(translate(x1, y1, 0)), act_j1(translate(*wrap, 0))
        row = [0] * n
        for u2 in range(m):
            row[u2::m] = base[a0[u2] + m * j1::m] + base[a1[u2]:a1[u2] + m * j1:m]
        return row

    # (u b^j)^-1 is -u at j = 0, and act^(k-j)(-u) - s at b^(k-j) for 0 < j < k:
    # b^-j = b^(k-j) b^-k and b^-k = -s, which is central.  Over the shorter
    # axis again: the powers b^j, one block each, or the elements u, whose
    # cells for the j of one residue mod e are one slice of indices apart
    # -u: the translate by (1, 1) read backwards, since u + (1, 1) at index
    # m - 1 - u is (m1 - x, m2 - y)
    neg = translate(1 % m1, 1 % m2, 0)[::-1]
    at_neg = itemgetter(*neg)
    minus_s = (-s1) % m1, (-s2) % m2
    inverses = neg[:]
    if k <= m:
        for j in range(1, k):
            inverses += at_neg(powers[k - j](translate(*minus_s, m * (k - j))))
    else:
        inverses += base[m:]
        stride = m * e
        for t in range(1, e + 1):
            # j = t, t + e, ...: the index a of act^(-t mod e)(-u) - s, plus m*(k - j)
            for u, a in enumerate(at_neg(powers[-t % e](translate(*minus_s, 0)))):
                inverses[m * t + u::stride] = base[m * (k - t) + a:m - 1:-stride]
    gens = tuple(g for g, keep in ((1, m1 > 1), (m1, m2 > 1), (m, k > 1)) if keep)
    return FiniteGroup(order=n, row_of=row_of, inverses=inverses, generators=gens)


class NormalForm(NamedTuple):
    """A builder and the arguments it is called with, reduced where the
    builder reads them by a modulus (``_abc``).  Equal forms build equal
    tables, so the scan keys the tables it has reported by the form and
    builds each one once: the families overlap (M_2m[m,1] = D_2m,
    Z_q:Z_2 = D_2q, QD_16 = SD_16, A_5 = PSL(2,4), ...)."""

    builder: Callable[..., FiniteGroup]
    args: tuple = ()

    def build(self) -> FiniteGroup:
        return self.builder(*self.args)


def _abc(m1: int, m2: int, k: int, act: tuple[int, int, int, int],
         s: tuple[int, int] = (0, 0)) -> NormalForm:
    """The form of ``_abelian_by_cyclic(m1, m2, k, act, s)``, with act = (p, q,
    r, t) and s = (s1, s2) reduced by the moduli its arithmetic reads them
    by: p, q and s1 mod m1, r, t and s2 mod m2."""
    p, q, r, t = act
    return NormalForm(_abelian_by_cyclic, (m1, m2, k, (p % m1, q % m1, r % m2, t % m2),
                                           (s[0] % m1, s[1] % m2)))


def _metacyclic(m: int, k: int, r: int, s: int = 0) -> NormalForm:
    """<a, b | a^m = 1, b^k = a^s, b a b^-1 = a^r>, with a^i b^j at index i + m*j:
    the m2 = 1 case of ``_abelian_by_cyclic``."""
    return _abc(m, 1, k, (r, 0, 0, 1), (s, 0))


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def _two_key_rows(pair: list[list[int]], key1: list[int], key2: list[int]):
    """``row(pi1, pi2)``: ``pair[pi1[key1[j]]][pi2[key2[j]]]`` for every element
    j = ``pair[key1[j]][key2[j]]``, by three C-level passes over the n cells."""
    at1, at2 = itemgetter(*key1), itemgetter(*key2)
    return lambda pi1, pi2: list(map(getitem, at1(itemgetter(*pi1)(pair)), at2(pi2)))


def _hanaki_a1(n: int) -> FiniteGroup:
    # pairs (a, b) over GF(2^n) at a*q + b, (a,b)(a',b') = (a+a', b+b'+nu(a)*a'): the
    # block of a' in row (a, b) is block a + a' permuted by b' -> b + nu(a)*a' + b'
    q = 2 ** n
    add, mul = ff.field_of_order(q)
    frob = [mul[i][i] for i in range(q)]  # nu(a) = a^2, the Frobenius map
    base = list(range(q * q))
    blocks = [base[a * q:a * q + q] for a in range(q)]
    shift = [itemgetter(*row) for row in add]

    def row_of(i: int) -> list[int]:
        adda1, addb1, mfa1 = add[i // q], add[i % q], mul[frob[i // q]]
        return list(chain.from_iterable(shift[addb1[mfa1[a2]]](blocks[adda1[a2]])
                                        for a2 in range(q)))
    # (a, b)^-1 = (a, b + nu(a)*a): -x = x in characteristic 2
    inverses = list(chain.from_iterable(shift[mul[frob[a]][a]](blocks[a]) for a in range(q)))
    return FiniteGroup(order=q * q, row_of=row_of, inverses=inverses)


def _hanaki_a2(n: int, p: int) -> FiniteGroup:
    # triples (a, b, c) over GF(p^n) at (a*q + b)*q + c, (a,b,c)(a',b',c') =
    # (a+a', b+b'+c*a', c+c'): the matrix [[1, c, b], [0, 1, a], [0, 0, 1]], whose
    # columns c' and (a', b') move on their own, to c + c' and (a + a', b + b' + c*a')
    q = p ** n
    add, mul = ff.field_of_order(q)
    neg = [row.index(0) for row in add]
    base = list(range(q ** 3))
    pair = [base[c::q] for c in range(q)]  # pair[c][a*q + b]
    addq = [[x * q for x in row] for row in add]
    row = _two_key_rows(pair, list(range(q)) * (q * q), [k for k in range(q * q) for _ in range(q)])

    def row_of(i: int) -> list[int]:
        (a, b), c = divmod(i // q, q), i % q
        adda, addb, mc = addq[a], add[b], mul[c]
        return row(add[c], [adda[a2] + x for a2 in range(q) for x in add[addb[mc[a2]]]])
    # (a, b, c)^-1 = (-a, -b + c*a, -c)
    inverses = [pair[neg[c]][neg[a] * q + add[neg[b]][mul[c][a]]]
                for a in range(q) for b in range(q) for c in range(q)]
    return FiniteGroup(order=q ** 3, row_of=row_of, inverses=inverses)


def _matrix_group(q: int, dets: range | tuple[int, ...]) -> FiniteGroup:
    """2x2 matrices (a, b, c, d) over GF(q) with determinant in dets, lex-ordered
    with the identity moved to index 0.  Column (x, y) has the key x*q + y,
    and ``pair[k1][k2]`` is the matrix with the column keys k1 = (a, c) and
    k2 = (b, d).  M moves each column of the other factor on its own, by a
    permutation pi of the q^2 keys, so row M is one ``_two_key_rows`` gather
    after q^2 Python steps for pi.  The enumeration takes a few C-level
    passes per (a, b), and the inverses read the same table."""
    add, mul = ff.field_of_order(q)
    neg = [row.index(0) for row in add]
    base = list(range(q * q))
    cols = [base[b * q:b * q + q] for b in range(q)]
    # allowed[v][x]: whether x - v is an allowed determinant
    allowed = [[add[x][neg[v]] in dets for x in range(q)] for v in range(q)]
    key1, key2 = [], []  # the column keys (a, c) and (b, d), in lex order
    for a in range(q):
        # ds[v]: the d with a*d - v allowed; (a, b, c) has the d in ds[b*c]
        ds = [list(compress(range(q), map(allowed[v].__getitem__, mul[a]))) for v in range(q)]
        counts = list(map(len, ds))
        for b in range(q):
            at_bc = itemgetter(*mul[b])
            key2 += map(cols[b].__getitem__, chain.from_iterable(at_bc(ds)))
            key1 += chain.from_iterable(map(repeat, cols[a], at_bc(counts)))
    ident = key2.index(1, key1.index(q))  # (1, 0, 0, 1): keys q and 1
    key1.insert(0, key1.pop(ident))
    key2.insert(0, key2.pop(ident))
    pair = [[0] * (q * q) for _ in base]
    for j, (k1, k2) in enumerate(zip(key1, key2)):
        pair[k1][k2] = j
    addq = [[x * q for x in row] for row in add]
    split = [divmod(k, q) for k in base].__getitem__  # key -> (top, bottom)
    row = _two_key_rows(pair, key1, key2)

    def row_of(i: int) -> list[int]:
        (a, c), (b, d) = split(key1[i]), split(key2[i])
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        pi = [addq[ma[x]][mb[y]] + add[mc[x]][md[y]] for x in range(q) for y in range(q)]
        return row(pi, pi)
    # (a, b, c, d)^-1 = det^-1 * (d, -b, -c, a), columns (d, -c) and (-b, a)
    recip = [0] + [mul[x].index(1) for x in range(1, q)]
    inverses = [pair[(s := mul[recip[add[mul[a][d]][neg[mul[b][c]]]]])[d] * q + s[neg[c]]]
                [s[neg[b]] * q + s[a]]
                for (a, c), (b, d) in zip(map(split, key1), map(split, key2))]
    return FiniteGroup(order=len(key1), row_of=row_of, inverses=inverses)


def _gl2(q: int) -> FiniteGroup:
    return _matrix_group(q, range(1, q))


def _sl2(q: int) -> FiniteGroup:
    return _matrix_group(q, (1,))


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

class Family(NamedTuple):
    """Everything the checker knows about one group family.

    ``check``, ``order``, ``label`` and ``form`` take the parameters
    positionally.  ``check`` returns None for a valid tuple and otherwise
    the reason it is invalid.  ``form`` returns the group's ``NormalForm``,
    which ``build_family`` builds and the scan keys its shared tables by.
    """

    params: tuple[str, ...]
    check: Callable[..., str | None]
    order: Callable[..., int]
    label: Callable[..., str]
    form: Callable[..., NormalForm]

    def instances(self, max_order: int) -> list[tuple[int, ...]]:
        """Every valid parameter tuple whose group has order <= max_order.
        Each parameter counts up from 1 (``within``), and stops at max_order
        itself, since no valid parameter exceeds its group's order."""
        ranges = [range(1, max_order + 1)] * len(self.params)
        return [ps for ps in self.within(ranges, max_order) if self.check(*ps) is None]

    def within(self, ranges: list[range], max_order: int) -> Iterator[tuple[int, ...]]:
        """The tuples of parameters >= 1, one from each range, the first
        varying slowest, whose order is at most max_order, valid or not.  No
        family's order shrinks as a parameter >= 1 grows, so each range
        stops at its first value whose order, with the later parameters at
        1, exceeds max_order.  Where a parameter is above the bit length
        that ``_bounded_order`` clamps to, that order is bounded as
        ``_cap_refusal`` bounds it, so a huge parameter costs no huge power."""
        k = len(ranges)
        bits = max(max_order, _LONG_ORDER).bit_length()

        def grow(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            ones = (1,) * (k - len(prefix) - 1)
            for v in ranges[len(prefix)]:
                ps = (*prefix, v)
                full = ps + ones
                if (self.order(*full) if max(full) <= bits
                        else _bounded_order(self, full, max_order)) > max_order:
                    break
                if ones:
                    yield from grow(ps)
                else:
                    yield ps

        if k:
            yield from grow(())
        elif self.order() <= max_order:
            yield ()


def _at_least(name: str, least: int, why: str = "") -> Callable[[int], str | None]:
    return lambda v: None if v >= least else f"{name} must be >= {least}{why}"


def _m2mn_check(m: int, n: int) -> str | None:
    if m < 3 or m == 4:
        return "m must be >= 3 and != 4"
    return None if n >= 1 else "n must be >= 1"


def _pq_check(p: int, q: int) -> str | None:
    if not (ff.is_prime(p) and ff.is_prime(q)):
        return "p and q must be prime"
    if p >= q:
        return "p must be < q"
    return "p must divide q-1" if (q - 1) % p else None


def _hanaki_a2_check(n: int, p: int) -> str | None:
    if n < 1:
        return "n must be >= 1"
    return None if ff.is_prime(p) else "p must be prime"


def _gl2_check(q: int) -> str | None:
    return None if q > 2 and ff.prime_power(q) else "q must be a prime power > 2"


# fields: params, check, order, label, form
FAMILIES: dict[str, Family] = {
    "dihedral": Family(
        ("m",), _at_least("m", 3),
        lambda m: 2 * m, lambda m: f"D_{2 * m}", lambda m: _metacyclic(m, 2, -1)),
    "dicyclic": Family(
        ("n",), _at_least("n", 2),
        lambda n: 4 * n, lambda n: f"Q_{4 * n}", lambda n: _metacyclic(2 * n, 2, -1, n)),
    "quasidihedral": Family(
        ("n",), _at_least("n", 4, " (order 2^n >= 16)"),
        lambda n: 2 ** n, lambda n: f"QD_{2 ** n}",
        lambda n: _metacyclic(2 ** (n - 1), 2, 2 ** (n - 2) - 1)),
    "sd8n": Family(
        ("n",), _at_least("n", 2),
        lambda n: 8 * n, lambda n: f"SD_{8 * n}", lambda n: _metacyclic(4 * n, 2, 2 * n - 1)),
    "v8n": Family(
        ("n",), _at_least("n", 1),
        lambda n: 8 * n, lambda n: f"V_{8 * n}",
        # b a b^-1 = a^-1 c with c = b^2 central: A = <a> x <c> = Z_2n x Z_2
        lambda n: _abc(2 * n, 2, 2, (-1, 0, 1, 1), (0, 1))),
    "u6n": Family(
        ("n",), _at_least("n", 1),
        lambda n: 6 * n, lambda n: f"U_{6 * n}", lambda n: _metacyclic(3, 2 * n, -1)),
    "m2mn": Family(
        ("m", "n"), _m2mn_check,
        lambda m, n: 2 * m * n, lambda m, n: f"M_{2 * m * n}[m={m},n={n}]",
        lambda m, n: _metacyclic(m, 2 * n, -1)),
    "pq": Family(
        ("p", "q"), _pq_check,
        lambda p, q: p * q, lambda p, q: f"Z_{q}:Z_{p}",
        lambda p, q: _metacyclic(q, p, next(r for r in range(2, q) if pow(r, p, q) == 1))),
    # Sz(2): b^-1 a b = a^2, so b a b^-1 = a^3 mod 5
    "sz2": Family(
        (), lambda: None,
        lambda: 20, lambda: "Sz(2)", lambda: _metacyclic(5, 4, 3)),
    "hanaki_a1": Family(
        ("n",), _at_least("n", 2, " (n = 1 gives an abelian group)"),
        lambda n: 4 ** n, lambda n: f"A({n},nu)", lambda n: NormalForm(_hanaki_a1, (n,))),
    "hanaki_a2": Family(
        ("n", "p"), _hanaki_a2_check,
        lambda n, p: p ** (3 * n), lambda n, p: f"A({n},{p})",
        lambda n, p: NormalForm(_hanaki_a2, (n, p))),
    "gl2": Family(
        ("q",), _gl2_check,
        lambda q: (q * q - 1) * (q * q - q), lambda q: f"GL(2,{q})",
        lambda q: NormalForm(_gl2, (q,))),
    # in characteristic 2 the center of SL(2, 2^k) is trivial, so SL = PSL
    "psl2": Family(
        ("k",), _at_least("k", 2),
        lambda k: (2 ** k + 1) * 2 ** k * (2 ** k - 1), lambda k: f"PSL(2,{2 ** k})",
        lambda k: NormalForm(_sl2, (2 ** k,))),
}


class _FamilyParams(NamedTuple):
    family: str
    params: tuple[int, ...] = ()


class FamilySpec(_FamilyParams):
    """A family name plus parameter tuple, e.g. FamilySpec("dihedral", (6,)).

    With ``order_cap``, this is the one place a family's order cap is
    checked, in three steps: a parameter above the cap raises OrderCapError
    before the validity rule runs, which may trial-divide it (no valid
    parameter exceeds its group's order, so no such group is within the
    cap); then the rule raises FamilyError; then an order above the cap
    raises OrderCapError (``_cap_refusal``).  Without it only the rule runs.
    ``build_family`` builds whatever spec it is handed."""

    __slots__ = ()

    def __new__(cls, family: str, params: tuple[int, ...] = (),
                order_cap: int | None = None):
        fam = FAMILIES.get(family)
        if fam is None:
            raise FamilyError(f"unknown family {family!r}")
        if len(params) != len(fam.params):
            raise FamilyError(f"family {family} takes parameters {fam.params}, got {params}")
        if order_cap is not None and params and max(params) > order_cap:
            # an order is named only where every parameter is >= 1, the
            # domain on which no order shrinks as a parameter grows
            why = _cap_refusal(family, params, order_cap) if min(params) >= 1 else None
            raise OrderCapError(why or f"{family} {_named(fam, params)} has a parameter "
                                       f"above the cap {order_cap}")
        err = fam.check(*params)
        if err:
            raise FamilyError(f"{family}{params}: {err}")
        if order_cap is not None and (why := _cap_refusal(family, params, order_cap)):
            raise OrderCapError(why)
        return super().__new__(cls, family, params)

    def order(self) -> int:
        return FAMILIES[self.family].order(*self.params)

    def label(self) -> str:
        return FAMILIES[self.family].label(*self.params)


def _named(fam: Family, params: tuple[int, ...]) -> str:
    return ", ".join(map("{}={}".format, fam.params, params))


def _bounded_order(fam: Family, params: tuple[int, ...], order_cap: int) -> int:
    """The order of ``fam`` at ``params``, or ``limit`` + 1, limit =
    max(order_cap, _LONG_ORDER), when the order exceeds that.  No order
    shrinks as a parameter grows and an exponent v gives at least 2**v, so
    the order with each parameter clamped to the bit length of ``limit`` is
    a cheap lower bound, and it exceeds ``limit`` when the order itself
    might take hours to compute."""
    limit = max(order_cap, _LONG_ORDER)
    clamped = (min(v, limit.bit_length()) for v in params)
    return fam.order(*params) if fam.order(*clamped) <= limit else limit + 1


def _cap_refusal(family: str, params: tuple[int, ...], order_cap: int) -> str | None:
    """Why the group of ``family`` at ``params`` is above ``order_cap``,
    naming its order, or its parameters where it has too many digits to
    print (``_bounded_order``); None if it is within the cap."""
    fam = FAMILIES[family]
    order = _bounded_order(fam, params, order_cap)
    if order <= order_cap:
        return None
    named = (f"{fam.label(*params)} has order {order}" if order < _LONG_ORDER
             else f"{family} {_named(fam, params)} has an order too long to print")
    return f"{named}, above the cap {order_cap}"


# ---------------------------------------------------------------------------
# build_family / direct products
# ---------------------------------------------------------------------------

def _labelled(form: NormalForm, order: int, label: str) -> FiniteGroup:
    """The group ``form`` builds, named ``label``; a FamilyError, which the
    CLI names, if its order is not the ``order`` its family or roster states."""
    G = form.build()
    if G.order != order:
        raise FamilyError(f"construction produced order {G.order}, expected {order}")
    G.label = label
    return G


def build_family(spec: FamilySpec) -> FiniteGroup:
    """Build the group a family spec names.  Any order cap was checked when
    the spec was made (``FamilySpec``), so none is checked here."""
    return _labelled(FAMILIES[spec.family].form(*spec.params), spec.order(), spec.label())


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with element (i, j) at index i*|H| + j."""
    oh = H.order
    base = list(range(G.order * oh))
    blocks = [base[g * oh:g * oh + oh] for g in range(G.order)]

    def row_of(i: int) -> list[int]:
        # block g of the row is G's block g permuted by H's row: one gather each
        hrow = H.row(i % oh)
        return list(chain.from_iterable(map(blocks[g].__getitem__, hrow) for g in G.row(i // oh)))
    inverses = [g * oh + h for g in G._inverses for h in H._inverses]
    return FiniteGroup(label=f"{G.label}x{H.label}", order=G.order * oh,
                       row_of=row_of, inverses=inverses)


# ---------------------------------------------------------------------------
# special groups
# ---------------------------------------------------------------------------

def _symmetric(n: int) -> FiniteGroup:
    """S_n on its permutations in lex order (identity first); the product
    s*t is the composition s o t."""
    els = list(permutations(range(n)))
    idx = {e: i for i, e in enumerate(els)}

    def row_of(i: int) -> list[int]:
        return [idx[tuple(map(els[i].__getitem__, t))] for t in els]
    # the inverse of a permutation e sorts the positions by e's entries
    inverses = [idx[tuple(sorted(range(n), key=e.__getitem__))] for e in els]
    return FiniteGroup(order=len(els), row_of=row_of, inverses=inverses)


# name -> (order, normal form), in roster order
SPECIAL_GROUPS: dict[str, tuple[int, NormalForm]] = {
    # (Z_2 x Z_2) : Z_3, b cycling the three involutions
    "A_4": (12, _abc(2, 2, 3, (0, 1, 1, 1))),
    "S_4": (24, NormalForm(_symmetric, (4,))),
    "A_5": (60, NormalForm(_sl2, (4,))),  # A_5 = PSL(2,4) = SL(2,4), the psl2 k = 2 form
    "SL(2,3)": (24, NormalForm(_sl2, (3,))),
    # modular (Iwasawa) group of order 16: b a b^-1 = a^5
    "M_16": (16, _metacyclic(8, 2, 5)),
    "Z_4:Z_4": (16, _metacyclic(4, 4, -1)),
    # central product of D_8 = <c, b> and Z_4 = <a> over (c b)^2 = a^2:
    # (Z_4 x Z_2) : Z_2 with b c b^-1 = a^2 c
    "D_8*Z_4": (16, _abc(4, 2, 2, (1, 2, 0, 1))),
    # (Z_4 x Z_2) : Z_2 with b a b^-1 = a c, which is (Z_2 x Z_2) : Z_4
    "SG(16,3)": (16, _abc(4, 2, 2, (1, 0, 1, 1))),
    # (Z_4 x Z_2) : Z_2 with b inverting the Z_4 and fixing the Z_2; with
    # b^2 = a^2 the dihedral factor becomes Q_8
    "Z_2xD_8": (16, _abc(4, 2, 2, (-1, 0, 0, 1))),
    "Z_2xQ_8": (16, _abc(4, 2, 2, (-1, 0, 0, 1), (2, 0))),
    # Z_3 : Z_6 with b inverting a, the form of U_18
    "D_6xZ_3": (18, _metacyclic(3, 6, -1)),
    # A_4 with b of order 6, so b^3 is a central involution
    "A_4xZ_2": (24, _abc(2, 2, 6, (0, 1, 1, 1))),
}


def special_group(name: str) -> FiniteGroup:
    if name not in SPECIAL_GROUPS:
        raise FamilyError(f"unknown special group {name!r}")
    order, form = SPECIAL_GROUPS[name]
    return _labelled(form, order, name)


# ---------------------------------------------------------------------------
# Cayley-table ingestion
# ---------------------------------------------------------------------------

def ingest_cayley(source, label: str = "ingested") -> FiniteGroup:
    """Parse a Cayley table and prove it a group.  ``source`` is the text
    itself or a text stream, read whole.

    Format: first line the order n, then n lines of n space-separated
    indices in [0, n) (row i lists the products g_i * g_j), optionally
    followed by a ``# name: <label>`` comment line.  A non-empty name is
    the group's label, and otherwise ``label``, the caller's.  The identity
    need not be index 0 in the file: the rows are read straight into a table
    renumbered so that it is, the others keeping their order, for the e that
    row 0 names (g_0 * e = g_0, the first 0 there); only if e is no
    two-sided identity is every element tried.  The parse proves every entry
    an int in [0, n) and the search that row 0 and column 0 are the identity
    map, so ``grp.group_of_table`` proves the other axioms.
    """
    text = source if isinstance(source, str) else source.read()
    lines = [ln.strip() for ln in io.StringIO(text)]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise CayleyFormatError("empty Cayley file")
    try:
        n = int(lines[0])
    except ValueError:
        raise CayleyFormatError(f"first line must be the order, got {lines[0]!r}") from None
    if n < 1:
        raise CayleyFormatError(f"order must be positive, got {n}")
    body = lines[1:]
    while body and body[-1].startswith("#"):
        comment = body.pop().lstrip("#").strip()
        if comment.startswith("name:") and (name := comment[5:].strip()):
            label = name
    if len(body) != n:
        raise CayleyFormatError(f"expected {n} table rows, found {len(body)}")
    row0 = _read_rows(body[:1], n, 0)[0]
    table = _read_rows(body, n, row0.index(0) if 0 in row0 else 0)
    identity_row = list(range(n))
    if table[0] != identity_row or [row[0] for row in table] != identity_row:
        # e is no two-sided identity: try every element, in the file's numbering
        table = _read_rows(body, n, 0)
        identity = next((e for e in range(n) if table[e] == identity_row
                         and all(table[i][e] == i for i in range(n))), None)
        if identity is None:
            raise GroupTableError("identity axiom violated: no two-sided identity element")
        table = _read_rows(body, n, identity)
    return group_of_table(table, label)


def _read_rows(body: list[str], n: int, e: int) -> list[list[int]]:
    """The lines of ``body`` as a table renumbered so that element e is 0,
    the others in order: line i is row new[i], its tokens read as new
    labels, canonical decimals through one dict and any other row by
    _parse_row, which accepts it or names its fault, in new column order."""
    old = [e, *range(e), *range(e + 1, n)]  # the old label of each new one
    new = [*range(1, e + 1), 0, *range(e + 1, n)]  # the new label of each old one
    label_of = dict(zip(map(str, old), range(n))).__getitem__
    gather = itemgetter(*old) if n > 1 else list
    table: list = [None] * n
    for i, ln in zip(new, body):
        tokens = ln.split()
        try:
            row = list(map(label_of, gather(tokens))) if len(tokens) == n else None
        except KeyError:
            row = None
        if row is None:
            row = list(map(new.__getitem__, gather(_parse_row(ln, n))))
        table[i] = row
    return table


def _parse_row(ln: str, n: int) -> list[int]:
    """One table row, each entry read with ``int()``; raises
    CayleyFormatError if an entry is no integer, the row is not n wide or an
    entry lies outside [0, n)."""
    try:
        row = list(map(int, ln.split()))
    except ValueError:
        raise CayleyFormatError(f"non-integer entry in row {ln!r}") from None
    if len(row) != n:
        raise CayleyFormatError(f"row has {len(row)} entries, expected {n}")
    if min(row) < 0 or max(row) >= n:
        raise CayleyFormatError(f"entry out of range [0,{n}) in row {ln!r}")
    return row


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class CatalogEntry(NamedTuple):
    """One buildable catalog item; its fields, in order, are its sort key."""

    order: int
    family: str
    params: tuple[int, ...]
    label: str

    def build(self) -> FiniteGroup:
        return _labelled(self.form(), self.order, self.label)

    def form(self) -> NormalForm:
        """The normal form ``build`` builds."""
        if self.family == "special":
            return SPECIAL_GROUPS[self.label][1]
        return FAMILIES[self.family].form(*self.params)


def catalog(max_order: int) -> list[CatalogEntry]:
    """Every builtin family instance and special group of order <= max_order,
    deterministically sorted."""
    if max_order < 6:
        raise FamilyError("max_order must be >= 6")
    entries = [
        CatalogEntry(fam.order(*ps), name, ps, fam.label(*ps))
        for name, fam in FAMILIES.items()
        for ps in fam.instances(max_order)
    ]
    entries += [
        CatalogEntry(order, "special", (), name)
        for name, (order, _) in SPECIAL_GROUPS.items()
        if order <= max_order
    ]
    return sorted(entries)
