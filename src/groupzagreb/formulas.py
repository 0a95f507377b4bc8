"""The formula registry: one exact Zagreb prediction for every group family
and quotient shape, the dispatch that finds the entries applying to a group,
and the crosscheck that compares a prediction against a brute-forced group
report, field by field when the two differ.

The dispatch (``dispatch``) is kept apart from the annotation: it finds the
entries, their params, source and G/Z(G) shape tag, and is all that the
scan, ``family`` and ``verify`` need, since they print no tags.
``registry_for`` adds ``consequence_tags``, what |G/Z(G)| and Pr(G) imply,
for the full report of one group.

Every group an entry describes is an AC-group: its non-central centralizers
are abelian, and their images split G/Z(G) into l_i abelian subgroups of
order t_i that meet only in the identity.  C(G) is then l_i copies of
K_{(t_i - 1) z}, z = |Z(G)|, and NC(G) its complement.  The multiset
{(l_i, t_i)}, the AC type, does not depend on z (isoclinism, P. Hall 1940),
so an entry declares only ``ac_type(*params) -> (z, ((l, t), ...))`` and
``_ac_type_predict`` evaluates every index from it, C(G) by the clique sums
and NC(G) by the complement identities, once per (z, AC type) in a process:
it is cached, and the groups of a scan share far fewer types than they have
crosschecks.  A few entries also
carry ``alt_forms``: variant closed forms that fail the complement identity.
They are never used as predictions; sweeps evaluate them and report the
disagreement, with the brute-force oracle as the arbiter.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Callable, Iterable, NamedTuple

from .build import FAMILIES
from .ff import is_prime
from .grp import FiniteGroup
from .zagreb import (
    CliqueDecomposition,
    GroupReport,
    Verdict,
    zagreb_complement,
    zagreb_from_decomposition,
)


class FormulaError(ValueError):
    pass


class FormulaPrediction(NamedTuple):
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


class AltForm(NamedTuple):
    """A variant closed form kept only so that sweeps can flag it."""

    field: str
    note: str
    fn: Callable


class FieldDiff(NamedTuple):
    field: str
    predicted: object
    actual: object
    note: str = ""


# (z, ((l, t), ...)): |Z(G)| and the AC type that partitions G/Z(G)
ACType = tuple[int, tuple[tuple[int, int], ...]]


class FormulaEntry(NamedTuple):
    key: str
    param_names: tuple[str, ...]
    validate: Callable[..., str | None]
    ac_type: Callable[..., ACType]
    alt_forms: tuple[AltForm, ...] = ()

    def evaluate(self, params: tuple[int, ...]) -> FormulaPrediction:
        if len(params) != len(self.param_names):
            raise FormulaError(
                f"{self.key} takes parameters {self.param_names}, got {params}"
            )
        err = self.validate(*params)
        if err:
            raise FormulaError(f"{self.key}{params}: {err}")
        return _ac_type_predict(*self.ac_type(*params))

    def alt_mismatches(self, params: tuple[int, ...]) -> tuple[FieldDiff, ...]:
        """The alternate forms that disagree with the prediction at
        ``params``, each as the variant's value against the confirmed one
        (they are expected to disagree: that is why they are kept); a form
        that returns None does not apply to these params."""
        pred = self.evaluate(params)
        diffs = []
        for alt_form in self.alt_forms:
            value = alt_form.fn(*params)
            confirmed = getattr(pred, alt_form.field)
            if value is not None and value != confirmed:
                diffs.append(FieldDiff(alt_form.field, value, confirmed, alt_form.note))
        return tuple(diffs)


@cache
def _ac_type_predict(z: int, parts: tuple[tuple[int, int], ...]) -> FormulaPrediction:
    """Every index of an AC-group with |Z(G)| = z whose G/Z(G) is split into
    l abelian subgroups of order t for each (l, t) in ``parts``.

    C(G) is l copies of K_s, s = (t - 1) z, for each pair, and NC(G) its
    complement on the same vertices (``zagreb_complement``).  Both equality
    flags say that all t are equal: Chebyshev's equality case on C(G), the
    regular one on NC(G).  Cached: the prediction depends on (z, parts)
    alone and is immutable."""
    cliques: Counter = Counter()
    for l, t in parts:
        cliques[(t - 1) * z] += l
    decomposition = CliqueDecomposition(tuple((cliques[s], s) for s in sorted(cliques)))
    c = zagreb_from_decomposition(decomposition)
    nc = zagreb_complement(c)
    equal = len({t for _, t in parts}) == 1
    return FormulaPrediction(c.vertices, c.edges, nc.edges, c.m1, c.m2, nc.m1, nc.m2,
                             decomposition, equal, equal)


# ---------------------------------------------------------------------------
# AC types, one per shape of G/Z(G) and for the other families; variant forms
# ---------------------------------------------------------------------------

def _quot_dihedral(m: int, z: int) -> ACType:
    """G/Z(G) = D_2m: the rotations <r> and the m subgroups <s r^i>.  D_4 =
    Z_2 x Z_2 is quot_zpzp's p = 2 case, the one m with equality."""
    return z, ((1, m), (m, 2))


def _quot_zpzp(p: int, z: int) -> ACType:
    """G/Z(G) = Z_p x Z_p: its p + 1 subgroups of order p."""
    return z, ((p + 1, p),)


def _quot_sz2(z: int) -> ACType:
    """G/Z(G) = Sz(2) = Z_5 : Z_4: the kernel and its five complements."""
    return z, ((1, 5), (5, 4))


def _pq(p: int, q: int) -> ACType:
    """Z_q : Z_p, centerless: the kernel and its q complements."""
    return 1, ((1, q), (q, p))


def _hanaki_a1(n: int) -> ACType:
    """A(n, nu): z = 2^n and G/Z(G) = Z_2^n, split into its 2^n - 1 lines."""
    return 2**n, ((2**n - 1, 2),)


def _gl2(q: int) -> ACType:
    """PGL(2, q) at z = q - 1: split tori, unipotent subgroups, non-split tori."""
    return q - 1, ((q * (q + 1) // 2, q - 1), (q + 1, q), (q * (q - 1) // 2, q + 1))


def _psl2(k: int) -> ACType:
    """PSL(2, 2^k), centerless: Sylow 2-subgroups, split and non-split tori."""
    x = 2**k
    return 1, ((x + 1, x), (x * (x + 1) // 2, x - 1), (x * (x - 1) // 2, x + 1))


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


def _quot_zpzp_alt_m2_nc(p: int, n: int):
    return Fraction(
        (p + 1) ** 2 * (p * n - n) ** 2 * (p**4 * n**2 - 2 * p**3 * n**2 + p**2 * n**2),
        2,
    )


def _hanaki_a1_alt_e_nc(n: int):
    x = 2**n
    return x * (x - 2) * (x**2 - x)


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


def _register_family(key: str, ac_type, alt_forms: tuple[AltForm, ...] = ()) -> FormulaEntry:
    """A family's entry; its parameter names and validity rule come from build.FAMILIES."""
    family = FAMILIES[key]
    return _register(FormulaEntry(key, family.params, family.check, ac_type, alt_forms))


def _dihedral_type(profile: Callable[..., tuple[int, int]]) -> Callable[..., ACType]:
    """A family with G/Z(G) = D_2m': quot_dihedral's type at (m', z) = profile(*params)."""
    return lambda *params: _quot_dihedral(*profile(*params))


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
_register_family("pq", _pq, (
    AltForm("m1_nc", _ALT_COMPLEMENT_NOTE, _pq_alt_m1_nc),
    AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, _pq_alt_m2_nc),
))
_register_family("sz2", lambda: _quot_sz2(1))
_register_family("hanaki_a1", _hanaki_a1, (
    AltForm("edges_nc", _ALT_COMPLEMENT_NOTE, _hanaki_a1_alt_e_nc),
))
# A(n,p)/Z(G) = Z_q x Z_q with |Z(G)| = q = p^n
_register_family("hanaki_a2", lambda n, p: _quot_zpzp(p**n, p**n))
_register_family("gl2", _gl2)
_register_family("psl2", _psl2, (
    AltForm("edges_c", _ALT_COMPLEMENT_NOTE, _psl2_alt_e_c),
    AltForm("edges_nc", _ALT_COMPLEMENT_NOTE, _psl2_alt_e_nc),
    AltForm("m1_nc", _ALT_COMPLEMENT_NOTE, _psl2_alt_m1_nc),
    AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, _psl2_alt_m2_nc),
))
_register(FormulaEntry(
    "quot_dihedral", ("m", "n"),
    lambda m, n: ("m must be >= 3" if m < 3 else ("n must be >= 1" if n < 1 else None)),
    _quot_dihedral,
))
_register(FormulaEntry(
    "quot_zpzp", ("p", "n"),
    # G/Z(G) = Z_p x Z_p has class 2, so G' = <[a, b]> = Z_p lies in Z(G)
    lambda p, n: (
        "p must be prime" if not is_prime(p)
        else "n must be a positive multiple of p" if n < 1 or n % p else None
    ),
    _quot_zpzp,
    alt_forms=(AltForm("m2_nc", _ALT_COMPLEMENT_NOTE, _quot_zpzp_alt_m2_nc),),
))
_register(FormulaEntry(
    "quot_sz2", ("n",), lambda n: None if n >= 1 else "n must be >= 1", _quot_sz2,
))


# ---------------------------------------------------------------------------
# dispatch: which entries apply to a concrete group
# ---------------------------------------------------------------------------

class Applicable(NamedTuple):
    entry: FormulaEntry
    params: tuple[int, ...]
    source: str  # "family" or "quotient"
    tags: tuple[str, ...] = ()


# of the five groups of order 20, only F_20 = Sz(2) has these element orders
_F20_ORDER_PROFILE = {1: 1, 2: 5, 4: 10, 5: 4}

# Pr(G) = k(G)/n in lowest terms -> the G/Z(G) it implies
_PR_CONSEQUENCES = {
    (5, 14): "D_14",
    (2, 5): "D_10",
    (11, 27): "Z_3xZ_3",
    (1, 2): "D_6",
    (7, 16): "D_8",
    (5, 8): "Z_2xZ_2",
}


def _quotient_orders(G: FiniteGroup) -> dict[int, int]:
    """How many elements of G/Z(G) have each order: the order of a coset is
    a class function on G/Z(G), so each class adds its elements over z at
    its order (``FiniteGroup.commutation``)."""
    c = G.commutation
    z = len(c.center)
    orders: dict[int, int] = {}
    for o, size in zip(c.orders, c.sizes):
        orders[o] = orders.get(o, 0) + size // z
    return orders


def consequence_tags(G: FiniteGroup) -> tuple[str, ...]:
    """What |G/Z(G)| and Pr(G) = k(G)/n imply about G/Z(G).  G is
    4-centralizer iff G/Z(G) = Z_2 x Z_2, and 5-centralizer iff G/Z(G) is
    Z_3 x Z_3 or S_3 (Belcastro-Sherman 1994); a non-trivial G/Z(G) is never
    cyclic, so that is iff |G/Z(G)| is 4, or 6 or 9.  Pr(G) is
    ``G.commutativity_degree()``, looked up by its numerator and denominator."""
    q = G.order // len(G.commutation.center)
    tags: tuple[str, ...] = ()
    if q == 4:
        tags += ("4-centralizer",)
    elif q in (6, 9):
        tags += ("5-centralizer",)
    pr = G.commutativity_degree()
    if shape := _PR_CONSEQUENCES.get((pr.numerator, pr.denominator)):
        tags += (f"pr={pr}=>G/Z={shape}",)
    return tags


def dispatch(G: FiniteGroup, family: str | None = None,
             params: tuple[int, ...] = ()) -> tuple[Applicable, ...]:
    """Entries applicable to G, with no consequence tags: the entry of the
    ``family`` the caller built G as, at ``params``, untagged, when it has
    one, plus quotient-hypothesis entries whenever G/Z(G), read off its
    element orders, has their shape, each tagged with that shape alone."""
    apps: list[Applicable] = []
    if family in ENTRIES:
        apps.append(Applicable(ENTRIES[family], params, "family"))

    z = len(G.center())
    k = G.order // z
    shapes: list[tuple[str, tuple[int, ...], str]] = []
    if k > 1:
        orders = _quotient_orders(G)
        m, p = k // 2, isqrt(k)
        # a cyclic <rZ> of index 2 holds [m even] involutions, so m + [m even]
        # of them means every s outside it is one, as is sr: then srs = r^-1
        if k % 2 == 0 and m >= 3 and m in orders and orders.get(2) == m + (m % 2 == 0):
            shapes.append(("quot_dihedral", (m, z), f"D_{2 * m}"))
        # G/Z(G) is not cyclic, and every group of order p^2 is abelian
        if p * p == k and is_prime(p):
            shapes.append(("quot_zpzp", (p, z), f"Z_{p}xZ_{p}"))
        if orders == _F20_ORDER_PROFILE:
            shapes.append(("quot_sz2", (z,), "Sz(2)"))
    apps += [Applicable(ENTRIES[key], params, "quotient", (f"G/Z={shape}",))
             for key, params, shape in shapes]
    return tuple(apps)


def registry_for(G: FiniteGroup, family: str | None = None,
                 params: tuple[int, ...] = ()) -> tuple[Applicable, ...]:
    """``dispatch(G, family, params)`` with G's ``consequence_tags`` ahead
    of each entry's own tags."""
    tags = consequence_tags(G)
    return tuple(app._replace(tags=tags + app.tags) for app in dispatch(G, family, params))


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

def crosscheck(
    entry: FormulaEntry, params: tuple[int, ...], report: GroupReport
) -> tuple[FieldDiff, ...]:
    """The fields in which a formula prediction and a brute-forced group
    report disagree, each as (field, predicted, actual)."""
    return crosschecks([Applicable(entry, params, "family")], report)[0][1]


def crosschecks(apps: Iterable[Applicable],
                report: GroupReport) -> list[tuple[Applicable, tuple[FieldDiff, ...]]]:
    """``crosscheck`` of each applicable entry against one report, whose own
    fields are read into a prediction once for all of them."""
    c, nc, equal = report.c, report.nc, Verdict.HOLDS_WITH_EQUALITY
    actual = FormulaPrediction(c.vertices, c.edges, nc.edges, c.m1, c.m2, nc.m1, nc.m2,
                               report.decomposition, report.verdict_c.status == equal,
                               report.verdict_nc.status == equal)
    checks = []
    for app in apps:
        pred = app.entry.evaluate(app.params)
        diffs = () if pred == actual else tuple(
            FieldDiff(name, p, a)
            for name, p, a in zip(FormulaPrediction._fields, pred, actual)
            if p != a
        )
        checks.append((app, diffs))
    return checks
