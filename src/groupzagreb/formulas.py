"""Closed-form Zagreb evaluators for every group family, with equality-case
predicates, quotient-hypothesis entries, and the crosscheck that compares a
formula prediction against a brute-forced group report field by field.

Each entry carries exact integer polynomial evaluators for M1/M2 of both the
commuting and non-commuting graph, the predicted vertex/edge counts and
clique decomposition, and an equality predicate for the conjecture.  There
is one closed form per shape of G/Z(G) (quot_dihedral, quot_zpzp, quot_sz2)
and one for each of pq, hanaki_a1, gl2 and psl2; every other family entry
maps its parameters onto the quotient form for its G/Z(G) and |Z(G)|.  A few
families additionally carry ``alt_forms``: variant closed forms that fail
the complement identity (they cannot be reproduced from the clique
decomposition).  Those are never used as predictions; sweeps evaluate them
and report the disagreement, with the brute-force oracle as the arbiter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from math import isqrt
from typing import Callable

from .build import FAMILIES
from .ff import is_prime
from .grp import FiniteGroup
from .zagreb import (
    CliqueDecomposition,
    GroupReport,
    Verdict,
)


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class FormulaPrediction:
    vertices: int
    edges_c: int
    edges_nc: int
    m1_c: int
    m2_c: int
    m1_nc: int
    m2_nc: int
    decomposition: CliqueDecomposition
    equality_c: bool
    equality_nc: bool


@dataclass(frozen=True)
class AltForm:
    """A variant closed form kept only so that sweeps can flag it."""

    field: str
    note: str
    fn: Callable


@dataclass(frozen=True)
class FormulaEntry:
    key: str
    param_names: tuple[str, ...]
    validate: Callable[..., str | None]
    predict: Callable[..., FormulaPrediction]
    alt_forms: tuple[AltForm, ...] = ()

    def evaluate(self, params: tuple[int, ...]) -> FormulaPrediction:
        if len(params) != len(self.param_names):
            raise FormulaError(
                f"{self.key} takes parameters {self.param_names}, got {params}"
            )
        err = self.validate(*params)
        if err:
            raise FormulaError(f"{self.key}{params}: {err}")
        return self.predict(*params)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _half(v: int) -> int:
    if v % 2:
        raise FormulaError(f"expected an even value, got {v}")
    return v // 2


def _parts(*pairs: tuple[int, int]) -> CliqueDecomposition:
    merged: dict[int, int] = {}
    for copies, size in pairs:
        if copies and size:
            merged[size] = merged.get(size, 0) + copies
    return CliqueDecomposition(tuple((merged[s], s) for s in sorted(merged)))


def _prediction(parts, m1_c, m2_c, m1_nc, m2_nc, vertices, edges_c, edges_nc, eq):
    return FormulaPrediction(
        vertices=vertices,
        edges_c=edges_c,
        edges_nc=edges_nc,
        m1_c=m1_c,
        m2_c=m2_c,
        m1_nc=m1_nc,
        m2_nc=m2_nc,
        decomposition=parts,
        equality_c=eq,
        equality_nc=eq,
    )


# ---------------------------------------------------------------------------
# closed forms, one per shape of G/Z(G) and for the other families
# ---------------------------------------------------------------------------

def _quot_dihedral_predict(m: int, n: int) -> FormulaPrediction:
    """G/Z(G) = D_2m with |Z(G)| = n.  D_4 = Z_2 x Z_2 is quot_zpzp's p = 2
    case, the one m with equality."""
    return _prediction(
        _parts((1, (m - 1) * n), (m, n)),
        m1_c=n * (m - 1) * (m * n - n - 1) ** 2 + m * n * (n - 1) ** 2,
        m2_c=_half((m * n - n) * (m * n - n - 1) ** 3 + m * n * (n - 1) ** 3),
        m1_nc=n**3 * (5 * m**3 - 9 * m**2 + 4 * m),
        m2_nc=n**4 * (4 * m**4 - 10 * m**3 + 8 * m**2 - 2 * m),
        vertices=(2 * m - 1) * n,
        edges_c=_half((m * n - n) * (m * n - n - 1) + m * n * (n - 1)),
        edges_nc=_half(3 * m**2 * n**2 - 3 * m * n**2),
        eq=m == 2,
    )


def _pq_predict(p: int, q: int) -> FormulaPrediction:
    return _prediction(
        _parts((1, q - 1), (q, p - 1)),
        m1_c=(q - 1) * (q - 2) ** 2 + q * (p - 1) * (p - 2) ** 2,
        m2_c=_half((q - 1) * (q - 2) ** 3 + q * (p - 1) * (p - 2) ** 3),
        m1_nc=q * (p - 1) * (q - 1) * (p**2 * q - p**2 + p * q - q),
        m2_nc=_half(
            p**4 * q**4 - 3 * p**4 * q**3 + 3 * p**4 * q**2 - p**4 * q
            + 2 * p**3 * q**3 - 4 * p**3 * q**2 + 2 * p**3 * q
            - 3 * p**2 * q**4 + 5 * p**2 * q**3 - p**2 * q**2 - p**2 * q
            + 2 * p * q**4 - 4 * p * q**3 + 2 * p * q**2
        ),
        vertices=p * q - 1,
        edges_c=_half((q - 1) * (q - 2) + q * (p - 1) * (p - 2)),
        edges_nc=_half(p**2 * q**2 - p**2 * q - q**2 + q),
        eq=False,
    )


def _pq_alt_m1_nc(p: int, q: int):
    return (
        p**3 * q**3 - 2 * p**2 * q**2 - p * q**3 - p**3 * q**2 + p * q**2
        - 3 * q**2 - 3 * q * p**2 + 2 * q + p**3 * q + q**3 - 4
    )


def _pq_alt_m2_nc(p: int, q: int):
    return Fraction(
        p**4 * q**4 - 7 * p**3 * q**3 + 41 * p**2 * q**2 - 51 * p * q
        + 3 * p**4 * q**2 + 13 * q**2 - 16 * p**3 * q**2 + 14 * p * q**2
        + 2 * p**2 * q**3 - 16 * p * q**3 + 8 * p**2 * q - 9 * q
        + 2 * p * q**4 + 2 * p**3 * q + p**4 * q + 18,
        2,
    )


def _quot_zpzp_predict(p: int, n: int) -> FormulaPrediction:
    return _prediction(
        _parts((p + 1, (p - 1) * n)),
        m1_c=(p * n - n) * (p + 1) * (p * n - n - 1) ** 2,
        m2_c=_half((p + 1) * (p * n - n) * (p * n - n - 1) ** 3),
        m1_nc=(p + 1) * (p * n - n) * (p**4 * n**2 - 2 * p**3 * n**2 + p**2 * n**2),
        m2_nc=_half((p + 1) * p**3 * n**4 * (p - 1) ** 4),
        vertices=n * (p**2 - 1),
        edges_c=_half((p + 1) * (p * n - n) * (p * n - n - 1)),
        edges_nc=_half((p**2 * n - n) * (p**2 * n - p * n)),
        eq=True,
    )


def _quot_zpzp_alt_m2_nc(p: int, n: int):
    return Fraction(
        (p + 1) ** 2 * (p * n - n) ** 2 * (p**4 * n**2 - 2 * p**3 * n**2 + p**2 * n**2),
        2,
    )


def _quot_sz2_predict(n: int) -> FormulaPrediction:
    return _prediction(
        _parts((1, 4 * n), (5, 3 * n)),
        m1_c=4 * n * (4 * n - 1) ** 2 + 15 * n * (3 * n - 1) ** 2,
        m2_c=_half(4 * n * (4 * n - 1) ** 3 + 15 * n * (3 * n - 1) ** 3),
        m1_nc=4740 * n**3,
        m2_nc=37440 * n**4,
        vertices=19 * n,
        edges_c=_half(4 * n * (4 * n - 1) + 15 * n * (3 * n - 1)),
        edges_nc=150 * n**2,
        eq=False,
    )


def _hanaki_a1_predict(n: int) -> FormulaPrediction:
    x = 2**n
    return _prediction(
        _parts((x - 1, x)),
        m1_c=x * (x - 1) ** 3,
        m2_c=_half(x * (x - 1) ** 4),
        m1_nc=x**5 * (x - 5) + 4 * x**3 * (2 * x - 1),
        m2_nc=_half(x**7 * (x - 7)) + 9 * x**6 - 10 * x**5 + 4 * x**4,
        vertices=x * x - x,
        edges_c=_half(x * (x - 1) ** 2),
        edges_nc=_half(x**2 * (x - 1) * (x - 2)),
        eq=True,
    )


def _hanaki_a1_alt_e_nc(n: int):
    x = 2**n
    return x * (x - 2) * (x**2 - x)


def _gl2_predict(q: int) -> FormulaPrediction:
    return _prediction(
        _parts(
            (q * (q + 1) // 2, (q - 1) * (q - 2)),
            (q + 1, (q - 1) ** 2),
            (q * (q - 1) // 2, q * (q - 1)),
        ),
        m1_c=q * (q - 1) * (q**6 - 4 * q**5 + 4 * q**4 + 2 * q**3 - 4 * q**2 + q - 1),
        m2_c=_half(
            q * (q - 1)
            * (q**8 - 6 * q**7 + 14 * q**6 - 15 * q**5 + 3 * q**4
               + 12 * q**3 - 16 * q**2 + 9 * q - 1)
        ),
        m1_nc=(q - 1) * (
            q**11 - 2 * q**10 - 4 * q**9 + 9 * q**8 + 5 * q**7 - 15 * q**6
            + q**5 + 7 * q**4 - 2 * q**3 + q**2 - q
        ),
        m2_nc=_half(
            q * (q - 1)
            * (q**14 - 3 * q**13 - 4 * q**12 + 19 * q**11 - 47 * q**9 + 28 * q**8
               + 43 * q**7 - 50 * q**6 + 11 * q**5 + 4 * q**4 - 12 * q**3
               + 19 * q**2 - 11 * q + 2)
        ),
        vertices=(q - 1) * (q**3 - q - 1),
        edges_c=_half(q * (q - 1) * (q**4 - 2 * q**3 - q**2 + 2 * q + 1)),
        edges_nc=_half(q * (q**7 - 2 * q**6 - 2 * q**5 + 5 * q**4 + q**3 - 4 * q**2 + 1)),
        eq=False,
    )


def _psl2_predict(k: int) -> FormulaPrediction:
    x = 2**k
    return _prediction(
        _parts((x + 1, x - 1), (x * (x + 1) // 2, x - 2), (x * (x - 1) // 2, x)),
        m1_c=x**5 - 4 * x**4 + 4 * x**3 + 4 * x**2 - 5 * x - 4,
        m2_c=_half(x**6 - 6 * x**5 + 14 * x**4 - 9 * x**3 - 15 * x**2 + 15 * x + 8),
        m1_nc=x**9 - 5 * x**7 - x**6 + 8 * x**5 + 2 * x**4 - 3 * x**3 - x**2 - x,
        m2_nc=_half(
            x**12 - 7 * x**10 - x**9 + 18 * x**8 + 3 * x**7 - 18 * x**6
            - 2 * x**5 + x**4 + 2 * x**3 + 5 * x**2 - 2 * x
        ),
        vertices=x**3 - x - 1,
        edges_c=_half(x**4 - 2 * x**3 - x**2 + 2 * x + 2),
        edges_nc=_half(x**6 - 3 * x**4 - x**3 + 2 * x**2 + x),
        eq=False,
    )


def _psl2_alt_e_c(k: int):
    x = 2**k
    return Fraction(x**4 - 2 * x**3 - 2 * x**2 + 3 * x + 2, 2)


def _psl2_alt_e_nc(k: int):
    x = 2**k
    return Fraction(x**6 - 3 * x**4 - x**3 + 3 * x**2, 2)


def _psl2_alt_m1_nc(k: int):
    x = 2**k
    return x**9 - 5 * x**7 - x**6 + 9 * x**5 - 5 * x**3 - 3 * x**2 + 3 * x


def _psl2_alt_m2_nc(k: int):
    x = 2**k
    return Fraction(
        x**12 - 7 * x**10 - x**9 + 21 * x**8 - 26 * x**6 - 2 * x**5
        + 15 * x**4 + 3 * x**3 + 6 * x**2 - 8 * x,
        2,
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_ALT_COMPLEMENT_NOTE = "variant form; fails the complement identity"
_ALT_EQUALITY_NOTE = "variant equality claim; contradicted by the oracle"

ENTRIES: dict[str, FormulaEntry] = {}


def _register(entry: FormulaEntry) -> FormulaEntry:
    ENTRIES[entry.key] = entry
    return entry


def _register_family(key: str, predict, alt_forms: tuple[AltForm, ...] = ()) -> FormulaEntry:
    """A family's entry; its parameter names and validity rule come from build.FAMILIES."""
    family = FAMILIES[key]
    return _register(FormulaEntry(key, family.params, family.check, predict, alt_forms))


def _dihedral_type(profile: Callable[..., tuple[int, int]]) -> Callable[..., FormulaPrediction]:
    """A family with G/Z(G) = D_2m': the closed forms depend only on the
    quotient and z = |Z(G)| (isoclinism, P. Hall 1940), so its C(G) is the
    quot_dihedral graph at profile(*params) = (m', z)."""
    return lambda *params: _quot_dihedral_predict(*profile(*params))


# variant NC forms stated for the G/Z(G) = D_2n, |Z(G)| = 4 block: V_8n with
# n even and SD_8n with n odd
def _z4_alt_m1_nc(n: int):
    return 8 * n * (40 * n**2 + 8 * n - 93)


def _z4_alt_m2_nc(n: int):
    return 2 * n * (512 * n**3 - 1180 * n**2 + 1024 * n - 229)


_register_family("dihedral", _dihedral_type(lambda m: (m, 1) if m % 2 else (m // 2, 2)))
_register_family("dicyclic", _dihedral_type(lambda n: (n, 2)))
_register_family("quasidihedral", _dihedral_type(lambda n: (2 ** (n - 2), 2)))
_register_family("sd8n", _dihedral_type(lambda n: (n, 4) if n % 2 else (2 * n, 2)), (
    AltForm("m1_nc", _ALT_COMPLEMENT_NOTE, lambda n: _z4_alt_m1_nc(n) if n % 2 else None),
    AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, lambda n: _z4_alt_m2_nc(n) if n % 2 else None),
    AltForm("equality_c", _ALT_EQUALITY_NOTE, lambda n: n == 2),
    AltForm("equality_nc", _ALT_EQUALITY_NOTE, lambda n: n == 2),
))
_register_family("v8n", _dihedral_type(lambda n: (2 * n, 2) if n % 2 else (n, 4)), (
    AltForm("m1_nc", _ALT_COMPLEMENT_NOTE, lambda n: None if n % 2 else _z4_alt_m1_nc(n)),
    AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, lambda n: None if n % 2 else _z4_alt_m2_nc(n)),
))
_register_family("u6n", _dihedral_type(lambda n: (3, n)))
_register_family("m2mn", _dihedral_type(lambda m, n: (m, n) if m % 2 else (m // 2, 2 * n)))
_register_family("pq", _pq_predict, (
    AltForm("m1_nc", _ALT_COMPLEMENT_NOTE, _pq_alt_m1_nc),
    AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, _pq_alt_m2_nc),
))
_register_family("sz2", lambda: _quot_sz2_predict(1))
_register_family("hanaki_a1", _hanaki_a1_predict, (
    AltForm("edges_nc", _ALT_COMPLEMENT_NOTE, _hanaki_a1_alt_e_nc),
))
# A(n,p)/Z(G) = Z_q x Z_q with |Z(G)| = q = p^n
_register_family("hanaki_a2", lambda n, p: _quot_zpzp_predict(p**n, p**n))
_register_family("gl2", _gl2_predict)
_register_family("psl2", _psl2_predict, (
    AltForm("edges_c", _ALT_COMPLEMENT_NOTE, _psl2_alt_e_c),
    AltForm("edges_nc", _ALT_COMPLEMENT_NOTE, _psl2_alt_e_nc),
    AltForm("m1_nc", _ALT_COMPLEMENT_NOTE, _psl2_alt_m1_nc),
    AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, _psl2_alt_m2_nc),
))
_register(FormulaEntry(
    "quot_dihedral", ("m", "n"),
    lambda m, n: ("m must be >= 3" if m < 3 else ("n must be >= 1" if n < 1 else None)),
    _quot_dihedral_predict,
))
_register(FormulaEntry(
    "quot_zpzp", ("p", "n"),
    lambda p, n: (
        "p must be prime" if not is_prime(p) else ("n must be >= 1" if n < 1 else None)
    ),
    _quot_zpzp_predict,
    alt_forms=(AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, _quot_zpzp_alt_m2_nc),),
))
_register(FormulaEntry(
    "quot_sz2", ("n",), lambda n: None if n >= 1 else "n must be >= 1", _quot_sz2_predict,
))


# ---------------------------------------------------------------------------
# dispatch: which entries apply to a concrete group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Applicable:
    entry: FormulaEntry
    params: tuple[int, ...]
    source: str  # "family" or "quotient"
    tags: tuple[str, ...] = ()


# of the five groups of order 20, only F_20 = Sz(2) has these element orders
_F20_ORDER_PROFILE = {1: 1, 2: 5, 4: 10, 5: 4}

_PR_CONSEQUENCES = {
    Fraction(5, 14): "D_14",
    Fraction(2, 5): "D_10",
    Fraction(11, 27): "Z_3xZ_3",
    Fraction(1, 2): "D_6",
    Fraction(7, 16): "D_8",
    Fraction(5, 8): "Z_2xZ_2",
}


def _quotient_orders(G: FiniteGroup) -> Counter:
    """How many elements of G/Z(G) have each order, read off G's cosets: the
    order of rZ is the least j >= 1 with r^j in Z(G).  It is a class function
    on G/Z(G), so one representative per class counts for the whole class.
    The powers walk row r, r^(j+1) = r*r^j, and read no other row."""
    coset_of, _ = G.cosets
    _, sizes, reps = G.quotient_classes
    orders: Counter = Counter()
    for r, size in zip(reps, sizes):
        row = G.row(r)
        x, j = r, 1
        while coset_of[x]:
            x = row[x]
            j += 1
        orders[j] += size
    return orders


def consequence_tags(G: FiniteGroup) -> tuple[str, ...]:
    """What |G/Z(G)| and Pr(G) = k(G)/n imply about G/Z(G).  G is
    4-centralizer iff G/Z(G) = Z_2 x Z_2, and 5-centralizer iff G/Z(G) is
    Z_3 x Z_3 or S_3 (Belcastro-Sherman 1994); a non-trivial G/Z(G) is never
    cyclic, so that is iff |G/Z(G)| is 4, or 6 or 9."""
    k = G.order // len(G.center())
    tags: tuple[str, ...] = ()
    if k == 4:
        tags += ("4-centralizer",)
    elif k in (6, 9):
        tags += ("5-centralizer",)
    pr = G.commutativity_degree()
    if pr in _PR_CONSEQUENCES:
        tags += (f"pr={pr}=>G/Z={_PR_CONSEQUENCES[pr]}",)
    return tags


def registry_for(G: FiniteGroup) -> tuple[Applicable, ...]:
    """Entries applicable to G: its own family entry (when it was built from a
    family spec) plus quotient-hypothesis entries whenever G/Z(G), read off its
    element orders, has their shape, each with G's ``consequence_tags``."""
    apps: list[Applicable] = []
    tags = consequence_tags(G)

    if G.family in ENTRIES:
        apps.append(Applicable(ENTRIES[G.family], G.params or (), "family", tags))

    z = len(G.center())
    k = G.order // z
    shapes: list[tuple[str, tuple[int, ...], str]] = []
    if k > 1:
        orders = _quotient_orders(G)
        m, p = k // 2, isqrt(k)
        # a cyclic <rZ> of index 2 holds [m even] involutions, so m + [m even]
        # of them means every s outside it is one, as is sr: then srs = r^-1
        if k % 2 == 0 and m >= 3 and orders[m] and orders[2] == m + (m % 2 == 0):
            shapes.append(("quot_dihedral", (m, z), f"D_{2 * m}"))
        # G/Z(G) is not cyclic, and every group of order p^2 is abelian
        if p * p == k and is_prime(p):
            shapes.append(("quot_zpzp", (p, z), f"Z_{p}xZ_{p}"))
        if orders == _F20_ORDER_PROFILE:
            shapes.append(("quot_sz2", (z,), "Sz(2)"))
    apps += [Applicable(ENTRIES[key], params, "quotient", tags + (f"G/Z={shape}",))
             for key, params, shape in shapes]
    return tuple(apps)


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDiff:
    field: str
    predicted: object
    actual: object
    note: str = ""


@dataclass(frozen=True)
class CrosscheckResult:
    entry_key: str
    params: tuple[int, ...]
    diffs: tuple[FieldDiff, ...]
    alt_mismatches: tuple[FieldDiff, ...]

    @property
    def clean(self) -> bool:
        return not self.diffs


def crosscheck(
    entry: FormulaEntry, params: tuple[int, ...], report: GroupReport
) -> CrosscheckResult:
    """Compare a formula prediction against a brute-forced group report.

    Primary closed forms that disagree land in ``diffs``; alternate forms
    that disagree with the confirmed value land in ``alt_mismatches`` (they
    are expected to disagree - that is why they are retained)."""
    pred = entry.evaluate(params)

    actual = FormulaPrediction(
        vertices=report.c.vertices,
        edges_c=report.c.edges,
        edges_nc=report.nc.edges,
        m1_c=report.c.m1,
        m2_c=report.c.m2,
        m1_nc=report.nc.m1,
        m2_nc=report.nc.m2,
        decomposition=report.decomposition,
        equality_c=report.verdict_c.status == Verdict.HOLDS_WITH_EQUALITY,
        equality_nc=report.verdict_nc.status == Verdict.HOLDS_WITH_EQUALITY,
    )
    diffs = tuple(
        FieldDiff(f.name, getattr(pred, f.name), getattr(actual, f.name))
        for f in fields(FormulaPrediction)
        if getattr(pred, f.name) != getattr(actual, f.name)
    )
    alt = []
    for alt_form in entry.alt_forms:
        value = alt_form.fn(*params)
        if value is None:
            continue  # variant does not apply to this parameter case
        confirmed = getattr(pred, alt_form.field)
        if value != confirmed:
            alt.append(FieldDiff(alt_form.field, value, confirmed, alt_form.note))
    return CrosscheckResult(entry.key, tuple(params), diffs, tuple(alt))
