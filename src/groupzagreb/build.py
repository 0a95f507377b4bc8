"""Constructors for every group family the checker knows about, plus direct
products, the special groups needed by the planarity/toroidality golden
tests, Cayley-table ingestion, and the deterministic catalog used by the
scan command.

Each family is one record in ``FAMILIES``: its parameter names, validity
rule, order, label, builder and catalog instances.  The formula registry and
the CLI read the same table.

Construction routes: a builder numbers its elements and computes the row
of any one element with its own arithmetic, and ``close`` asks it for the
rows of a generating set only and composes the rest, keeping its indices.
One metacyclic normal form, a^i b^j in <a, b | a^m, b^k = a^s,
b a b^-1 = a^r>, serves the dihedral, dicyclic, quasidihedral, SD_8n, U_6n
and M_2mn families, Sz(2), M_16 and Z_4:Z_4.  The other builders are 2x2
matrices over GF(q) (Hanaki A(n,nu) and A(n,p), GL(2,q) and
PSL(2,2^k) = SL(2,2^k)), permutations (A_4, S_4), the order-pq normal form,
cyclic groups and pairs for direct products.  Coset enumeration serves only
the presentations of V_8n, D_8*Z_4 and SG(16,3): none has a cyclic normal
subgroup with a cyclic quotient (V_8n checked for n = 2..11, while V_8 is
D_8).  Matrix-group elements are indexed lexicographically on their
row-major coefficient vectors, with the identity moved to index 0.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Callable

from . import ff
from .coset import Presentation, coset_enumerate
from .grp import FiniteGroup, GroupTableError

DEFAULT_ORDER_CAP = 5000


class FamilyError(ValueError):
    """Invalid family name or parameters."""


class OrderCapError(ValueError):
    """Requested group exceeds the configured order cap."""


class CayleyFormatError(ValueError):
    """A Cayley-table file violated the text format."""


# ---------------------------------------------------------------------------
# the shared table builder, and the normal-form builders
# ---------------------------------------------------------------------------

def close(n: int, row_of: Callable[[int], list[int]]) -> list[list[int]]:
    """The Cayley table of an order-n group from the rows of a generating set.

    Row s is left multiplication by s, so row(s*p) is row(s) composed with
    row(p).  The walk takes the elements in index order.  An element the
    rows so far do not reach gets its row from ``row_of(s)``, and the
    reached set is then closed under left multiplication by every row
    obtained that way.  Each such element at least doubles the subgroup
    reached, so ``row_of`` runs at most log2(n) times and every other row
    is one C-level map.  Index 0 must be the identity.
    """
    rows: list[list[int] | None] = [None] * n
    rows[0] = list(range(n))
    gens: list[list[int]] = []
    for s in range(1, n):
        if rows[s] is not None:
            continue
        rows[s] = row_of(s)
        gens.append(rows[s])
        todo = [p for p in range(n) if rows[p] is not None]
        while todo:
            p = todo.pop()
            rp = rows[p]
            for g in gens:
                q = g[p]
                if rows[q] is None:
                    rows[q] = list(map(g.__getitem__, rp))
                    todo.append(q)
    return rows


def _metacyclic(m: int, k: int, r: int, s: int = 0) -> FiniteGroup:
    """<a, b | a^m = 1, b^k = a^s, b a b^-1 = a^r>, with a^i b^j at index i + m*j.

    (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + r^j1 i2) b^(j1 + j2), and b^k folds back
    to a^s.  The caller picks (m, k, r, s) with r^k = 1 and r*s = s mod m.
    """
    rpow = [pow(r, j, m) for j in range(k)]

    def row_of(idx: int) -> list[int]:
        i1, j1 = idx % m, idx // m
        r1 = rpow[j1]
        return [(i1 + r1 * i2 + s * (j1 + j2 >= k)) % m + m * ((j1 + j2) % k)
                for j2 in range(k) for i2 in range(m)]
    return FiniteGroup(close(m * k, row_of))


def _least_primitive_root(q: int) -> int:
    phi = q - 1
    prime_factors = []
    mm = phi
    d = 2
    while d * d <= mm:
        if mm % d == 0:
            prime_factors.append(d)
            while mm % d == 0:
                mm //= d
        d += 1
    if mm > 1:
        prime_factors.append(mm)
    for g in range(2, q):
        if all(pow(g, phi // f, q) != 1 for f in prime_factors):
            return g
    raise FamilyError(f"no primitive root mod {q}")  # pragma: no cover


def _pq(p: int, q: int) -> FiniteGroup:
    # Z_q x| Z_p with y acting as multiplication by r^y, r = g^((q-1)/p);
    # elements (x, y), index = x*p + y
    r = pow(_least_primitive_root(q), (q - 1) // p, q)
    rpow = [pow(r, y, q) for y in range(p)]
    size = p * q

    def row_of(i: int) -> list[int]:
        x1, y1 = divmod(i, p)
        ry1 = rpow[y1]
        return [((x1 + ry1 * (j // p)) % q) * p + ((y1 + j % p) % p) for j in range(size)]
    return FiniteGroup(close(size, row_of))


def cyclic(n: int, label: str | None = None) -> FiniteGroup:
    return FiniteGroup(close(n, lambda i: [(i + j) % n for j in range(n)]), label=label or f"Z_{n}")


# ---------------------------------------------------------------------------
# presentations (coset-enumerated by build_family and special_group)
# ---------------------------------------------------------------------------

def _power(letter: int, e: int) -> tuple[int, ...]:
    return (letter,) * e if e >= 0 else (-letter,) * (-e)


def _v8n_presentation(n: int) -> Presentation:
    F, G = 1, 2
    return Presentation(2, (
        _power(F, 2 * n),
        _power(G, 4),
        (G, F, G, F),        # g f = f^-1 g^-1
        (-G, F, -G, F),      # g^-1 f = f^-1 g
    ))


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def _hanaki_a1(n: int) -> FiniteGroup:
    # pairs (a, b) over GF(2^n): (a,b)(a',b') = (a+a', b+b'+nu(a)*a')
    q = 2 ** n
    add, mul = ff.field_of_order(q)
    frob = [mul[i][i] for i in range(q)]  # nu(a) = a^2, the Frobenius map
    els = [(a, b) for a in range(q) for b in range(q)]  # identity (0,0) first
    idx = {e: i for i, e in enumerate(els)}

    def row_of(i: int) -> list[int]:
        a1, b1 = els[i]
        fa1 = frob[a1]
        addb1 = add[b1]
        return [idx[(add[a1][a2], add[addb1[b2]][mul[fa1][a2]])] for a2, b2 in els]
    return FiniteGroup(close(len(els), row_of))


def _hanaki_a2(n: int, p: int) -> FiniteGroup:
    # triples (a, b, c) over GF(p^n): (a,b,c)(a',b',c') = (a+a', b+b'+c*a', c+c')
    q = p ** n
    add, mul = ff.field_of_order(q)
    els = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    idx = {e: i for i, e in enumerate(els)}

    def row_of(i: int) -> list[int]:
        a1, b1, c1 = els[i]
        mc1 = mul[c1]
        return [
            idx[(add[a1][a2], add[add[b1][b2]][mc1[a2]], add[c1][c2])]
            for a2, b2, c2 in els
        ]
    return FiniteGroup(close(len(els), row_of))


def _matrix_group(q: int, det_condition) -> FiniteGroup:
    """2x2 matrices over GF(q) whose determinant satisfies det_condition,
    lex-ordered by (a, b, c, d) with the identity moved to index 0."""
    add, mul = ff.field_of_order(q)
    neg = [row.index(0) for row in add]
    els = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                mb = mul[b]
                ad_row = mul[a]
                for d in range(q):
                    det = add[ad_row[d]][neg[mb[c]]]
                    if det_condition(det):
                        els.append((a, b, c, d))
    ident = (1, 0, 0, 1)  # index 1 is the field's one
    els.remove(ident)
    els.insert(0, ident)
    idx = {e: i for i, e in enumerate(els)}

    def row_of(i: int) -> list[int]:
        a, b, c, d = els[i]
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        return [
            idx[(
                add[ma[e]][mb[g]], add[ma[f2]][mb[h]],
                add[mc[e]][md[g]], add[mc[f2]][md[h]],
            )]
            for e, f2, g, h in els
        ]
    return FiniteGroup(close(len(els), row_of))


def _gl2(q: int) -> FiniteGroup:
    return _matrix_group(q, lambda det: det != 0)


def _sl2(q: int) -> FiniteGroup:
    return _matrix_group(q, lambda det: det == 1)


def _psl2_2k(k: int) -> FiniteGroup:
    # in characteristic 2 the center of SL(2, 2^k) is trivial, so SL = PSL
    return _sl2(2 ** k)


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """Everything the checker knows about one group family.

    ``check``, ``order``, ``label`` and ``build`` take the parameters
    positionally.  ``check`` returns None for a valid tuple and otherwise
    the reason it is invalid.  ``build`` returns the group, or a
    presentation that build_family coset-enumerates.
    """

    params: tuple[str, ...]
    check: Callable[..., str | None]
    order: Callable[..., int]
    label: Callable[..., str]
    build: Callable[..., FiniteGroup | Presentation]

    def instances(self, max_order: int) -> list[tuple[int, ...]]:
        """Every valid parameter tuple whose group has order <= max_order.

        Each parameter counts up from 1 while the order, with the later
        parameters at 1, stays within max_order: no family's order shrinks
        as a parameter grows.  The count also stops at max_order itself,
        since no valid parameter exceeds its group's order.
        """
        found: list[tuple[int, ...]] = [()]
        for rest in reversed(range(len(self.params))):
            grown = []
            for ps in found:
                for v in range(1, max_order + 1):
                    if self.order(*ps, v, *(1,) * rest) > max_order:
                        break
                    grown.append(ps + (v,))
            found = grown
        return [ps for ps in found if self.order(*ps) <= max_order and self.check(*ps) is None]


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


# fields: params, check, order, label, build
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
        lambda n: 8 * n, lambda n: f"V_{8 * n}", _v8n_presentation),
    "u6n": Family(
        ("n",), _at_least("n", 1),
        lambda n: 6 * n, lambda n: f"U_{6 * n}", lambda n: _metacyclic(3, 2 * n, -1)),
    "m2mn": Family(
        ("m", "n"), _m2mn_check,
        lambda m, n: 2 * m * n, lambda m, n: f"M_{2 * m * n}[m={m},n={n}]",
        lambda m, n: _metacyclic(m, 2 * n, -1)),
    "pq": Family(
        ("p", "q"), _pq_check,
        lambda p, q: p * q, lambda p, q: f"Z_{q}:Z_{p}", _pq),
    # Sz(2): b^-1 a b = a^2, so b a b^-1 = a^3 mod 5
    "sz2": Family(
        (), lambda: None,
        lambda: 20, lambda: "Sz(2)", lambda: _metacyclic(5, 4, 3)),
    "hanaki_a1": Family(
        ("n",), _at_least("n", 2, " (n = 1 gives an abelian group)"),
        lambda n: 4 ** n, lambda n: f"A({n},nu)", _hanaki_a1),
    "hanaki_a2": Family(
        ("n", "p"), _hanaki_a2_check,
        lambda n, p: p ** (3 * n), lambda n, p: f"A({n},{p})", _hanaki_a2),
    "gl2": Family(
        ("q",), _gl2_check,
        lambda q: (q * q - 1) * (q * q - q), lambda q: f"GL(2,{q})", _gl2),
    "psl2": Family(
        ("k",), _at_least("k", 2),
        lambda k: (2 ** k + 1) * 2 ** k * (2 ** k - 1), lambda k: f"PSL(2,{2 ** k})", _psl2_2k),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus parameter tuple, e.g. FamilySpec("dihedral", (6,))."""

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise FamilyError(f"unknown family {self.family!r}")
        if len(self.params) != len(fam.params):
            raise FamilyError(
                f"family {self.family} takes parameters {fam.params}, got {self.params}"
            )
        err = fam.check(*self.params)
        if err:
            raise FamilyError(f"{self.family}{self.params}: {err}")

    def order(self) -> int:
        return FAMILIES[self.family].order(*self.params)

    def label(self) -> str:
        return FAMILIES[self.family].label(*self.params)


# ---------------------------------------------------------------------------
# build_family / direct products
# ---------------------------------------------------------------------------

def build_family(spec: FamilySpec, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build the group for a family spec as a validated FiniteGroup."""
    expected = spec.order()
    if expected > order_cap:
        raise OrderCapError(
            f"{spec.label()} has order {expected}, above the cap {order_cap}"
        )
    G = FAMILIES[spec.family].build(*spec.params)
    if isinstance(G, Presentation):
        G = coset_enumerate(G, bound=16 * expected + 64)
    G.label = spec.label()
    if G.order != expected:
        raise FamilyError(
            f"{spec.label()}: construction produced order {G.order}, expected {expected}"
        )
    G.family = spec.family
    G.params = spec.params
    return G


def direct_product(G: FiniteGroup, H: FiniteGroup, label: str | None = None,
                   order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """G x H with element (i, j) at index i*|H| + j."""
    if G.order * H.order > order_cap:
        raise OrderCapError(
            f"direct product order {G.order * H.order} exceeds the cap {order_cap}"
        )
    tg, th = G.table, H.table
    oh = H.order

    def row_of(i: int) -> list[int]:
        i1, j1 = divmod(i, oh)
        hrow = th[j1]
        return [g * oh + h for g in tg[i1] for h in hrow]
    return FiniteGroup(close(G.order * oh, row_of), label=label or f"{G.label}x{H.label}")


# ---------------------------------------------------------------------------
# special groups
# ---------------------------------------------------------------------------

def _symmetric(n: int, even_only: bool) -> FiniteGroup:
    """S_n, or A_n if even_only, on its permutations in lex order (identity
    first); the product s*t is the composition s o t."""
    from itertools import permutations

    els = []
    for perm in permutations(range(n)):
        if even_only:
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if perm[i] > perm[j]
            )
            if inv % 2:
                continue
        els.append(perm)
    idx = {e: i for i, e in enumerate(els)}

    def row_of(i: int) -> list[int]:
        return [idx[tuple(map(els[i].__getitem__, t))] for t in els]
    return FiniteGroup(close(len(els), row_of))


def _special_groups() -> dict[str, tuple[int, Callable[[], FiniteGroup | Presentation]]]:
    A, B, C = 1, 2, 3
    return {
        "A_4": (12, lambda: _symmetric(4, True)),
        "S_4": (24, lambda: _symmetric(4, False)),
        "A_5": (60, lambda: _sl2(4)),  # A_5 = PSL(2,4) = SL(2,4)
        "SL(2,3)": (24, lambda: _sl2(3)),
        # modular (Iwasawa) group of order 16: b a b^-1 = a^5
        "M_16": (16, lambda: _metacyclic(8, 2, 5)),
        "Z_4:Z_4": (16, lambda: _metacyclic(4, 4, -1)),
        # central product of D_8 and Z_4 over their common central involution
        "D_8*Z_4": (16, lambda: Presentation(3, (
            _power(A, 4), _power(B, 2), (B, A, -B, A),
            _power(C, 4), (C, C, -A, -A),
            (C, A, -C, -A), (C, B, -C, -B),
        ))),
        # (Z_2 x Z_2) : Z_4 with the order-4 generator swapping the factors
        "SG(16,3)": (16, lambda: Presentation(3, (
            _power(A, 2), _power(B, 2), _power(C, 4),
            (A, B, -A, -B),
            (C, A, -C, B), (C, B, -C, A),
        ))),
        "Z_2xD_8": (16, lambda: direct_product(cyclic(2), _metacyclic(4, 2, -1))),
        "Z_2xQ_8": (16, lambda: direct_product(cyclic(2), _metacyclic(4, 2, -1, 2))),
        "D_6xZ_3": (18, lambda: direct_product(_metacyclic(3, 2, -1), cyclic(3))),
        "A_4xZ_2": (24, lambda: direct_product(_symmetric(4, True), cyclic(2))),
    }


# name -> (order, builder), in roster order; a builder returns the group or a
# presentation that special_group coset-enumerates
SPECIAL_GROUPS = _special_groups()


def special_group(name: str) -> FiniteGroup:
    if name not in SPECIAL_GROUPS:
        raise FamilyError(f"unknown special group {name!r}")
    order, build = SPECIAL_GROUPS[name]
    G = build()
    if isinstance(G, Presentation):
        G = coset_enumerate(G, bound=2048)
    if G.order != order:  # pragma: no cover - construction bug guard
        raise FamilyError(f"{name}: built order {G.order} != {order}")
    G.label = name
    return G


def builtin_special_groups() -> list[FiniteGroup]:
    """The named groups from the planarity/toroidality results, concretely built."""
    return [special_group(name) for name in SPECIAL_GROUPS]


# ---------------------------------------------------------------------------
# Cayley-table ingestion
# ---------------------------------------------------------------------------

def ingest_cayley(source) -> FiniteGroup:
    """Parse and fully validate a Cayley-table file.

    Format: first line the order n, then n lines of n space-separated
    indices in [0, n) (row i lists the products g_i * g_j), optionally
    followed by a ``# name: <label>`` comment line.  The identity need not
    be index 0 in the file; the group is renumbered so that it is.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, os.PathLike) or (
        isinstance(source, str) and source and "\n" not in source
    ):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
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
    label = "ingested"
    body = lines[1:]
    while body and body[-1].startswith("#"):
        comment = body.pop()
        if comment.lstrip("#").strip().startswith("name:"):
            label = comment.lstrip("#").strip()[5:].strip()
    if len(body) != n:
        raise CayleyFormatError(f"expected {n} table rows, found {len(body)}")
    table = []
    for ln in body:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise CayleyFormatError(f"non-integer entry in row {ln!r}") from None
        if len(row) != n:
            raise CayleyFormatError(f"row has {len(row)} entries, expected {n}")
        if any(not 0 <= v < n for v in row):
            raise CayleyFormatError(f"entry out of range [0,{n}) in row {ln!r}")
        table.append(row)

    identity = None
    identity_row = list(range(n))
    for e in range(n):
        if table[e] == identity_row and all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("identity axiom violated: no two-sided identity element")
    if identity != 0:
        # renumber so the identity is index 0, preserving the relative order
        # of the remaining elements
        old_order = [identity] + [i for i in range(n) if i != identity]
        new_of_old = {old: new for new, old in enumerate(old_order)}
        table = [
            [new_of_old[table[i][j]] for j in old_order]
            for i in old_order
        ]
    G = FiniteGroup(table, label=label)
    G.validate()
    return G


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One buildable catalog item; sortable by (order, family, params, label)."""

    order: int
    family: str
    params: tuple[int, ...]
    label: str

    def sort_key(self):
        return (self.order, self.family, self.params, self.label)

    def build(self, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
        if self.order > order_cap:
            raise OrderCapError(f"{self.label} has order {self.order}, above the cap {order_cap}")
        if self.family == "special":
            return special_group(self.label)
        return build_family(FamilySpec(self.family, self.params), order_cap=order_cap)


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
    return sorted(entries, key=CatalogEntry.sort_key)
