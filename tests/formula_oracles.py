"""Hand-expanded closed forms, one polynomial set per formula entry, with
the variant alternate forms of V_8n and SD_8n.

The library evaluates every entry through one AC-type form
(``formulas._ac_type_predict``): C(G) as l copies of K_{(t - 1) z} for each
(l, t) of the entry's declared type, and NC(G) as its complete multipartite
complement.  The polynomial sets here are independent of it: the seven
closed forms (quot_dihedral, quot_zpzp, quot_sz2, pq, hanaki_a1, gl2, psl2)
and each family's own set as the paper states it, so the tests can check
every entry of ``formulas.ENTRIES`` against them field by field.
"""

from groupzagreb.formulas import FormulaPrediction
from groupzagreb.zagreb import CliqueDecomposition


def _half(v: int) -> int:
    if v % 2:
        raise ValueError(f"expected an even value, got {v}")
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


# -- the seven closed forms: one per shape of G/Z(G), and pq, hanaki_a1, gl2, psl2

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


# -- each mapped family's own polynomials

def _dihedral_predict(m: int) -> FormulaPrediction:
    if m % 2:
        return _prediction(
            _parts((1, m - 1), (m, 1)),
            m1_c=(m - 1) * (m - 2) ** 2,
            m2_c=_half((m - 1) * (m - 2) ** 3),
            m1_nc=m * (m - 1) * (5 * m - 4),
            m2_nc=m * (m - 1) * (4 * m * m - 6 * m + 2),
            vertices=2 * m - 1,
            edges_c=_half((m - 1) * (m - 2)),
            edges_nc=_half(3 * m * (m - 1)),
            eq=False,
        )
    return _prediction(
        _parts((1, m - 2), (m // 2, 2)),
        m1_c=(m - 2) * (m - 3) ** 2 + m,
        m2_c=_half((m - 2) * (m - 3) ** 3 + m),
        m1_nc=5 * m**3 - 18 * m**2 + 16 * m,
        m2_nc=4 * m**4 - 20 * m**3 + 32 * m**2 - 16 * m,
        vertices=2 * m - 2,
        edges_c=_half((m - 2) * (m - 3) + m),
        edges_nc=_half(3 * m * (m - 2)),
        eq=m == 4,
    )


def _dicyclic_predict(n: int) -> FormulaPrediction:
    pred = _dihedral_predict(2 * n)
    return _prediction(
        pred.decomposition,
        m1_c=(2 * n - 2) * (2 * n - 3) ** 2 + 2 * n,
        m2_c=(n - 1) * (2 * n - 3) ** 3 + n,
        m1_nc=40 * n**3 - 72 * n**2 + 32 * n,
        m2_nc=64 * n**4 - 160 * n**3 + 128 * n**2 - 32 * n,
        vertices=pred.vertices,
        edges_c=pred.edges_c,
        edges_nc=pred.edges_nc,
        eq=n == 2,
    )


def _quasidihedral_predict(n: int) -> FormulaPrediction:
    h = 2 ** (n - 1)
    pred = _dihedral_predict(h)
    return _prediction(
        pred.decomposition,
        m1_c=(h - 2) * (h - 3) ** 2 + h,
        m2_c=(2 ** (n - 2) - 1) * (h - 3) ** 3 + 2 ** (n - 2),
        m1_nc=5 * 2 ** (3 * n - 3) - 18 * 2 ** (2 * n - 2) + 16 * 2 ** (n - 1),
        m2_nc=4 * 2 ** (4 * n - 4) - 20 * 2 ** (3 * n - 3)
        + 32 * 2 ** (2 * n - 2) - 16 * 2 ** (n - 1),
        vertices=pred.vertices,
        edges_c=pred.edges_c,
        edges_nc=pred.edges_nc,
        eq=h == 4,  # only at order 8, below this family's validity range
    )


def _v8n_predict(n: int) -> FormulaPrediction:
    if n % 2:
        # same graph as the dihedral group of order 8n
        return _prediction(
            _parts((1, 4 * n - 2), (2 * n, 2)),
            m1_c=(4 * n - 2) * (4 * n - 3) ** 2 + 4 * n,
            m2_c=(2 * n - 1) * (4 * n - 3) ** 3 + 2 * n,
            m1_nc=16 * n * (20 * n**2 - 18 * n + 4),
            m2_nc=64 * n * (16 * n**3 - 20 * n**2 + 8 * n - 1),
            vertices=8 * n - 2,
            edges_c=_half((4 * n - 2) * (4 * n - 3) + 4 * n),
            edges_nc=24 * n**2 - 12 * n,
            eq=n == 1,
        )
    return _prediction(
        _parts((1, 4 * n - 4), (n, 4)),
        m1_c=(4 * n - 4) * (4 * n - 5) ** 2 + 36 * n,
        m2_c=(2 * n - 2) * (4 * n - 5) ** 3 + 54 * n,
        m1_nc=8 * n * (40 * n**2 - 72 * n + 32),
        m2_nc=2 * n * (512 * n**3 - 1280 * n**2 + 1024 * n - 256),
        vertices=8 * n - 4,
        edges_c=(2 * n - 2) * (4 * n - 5) + 6 * n,
        edges_nc=24 * n * (n - 1),
        eq=n == 2,
    )


def _v8n_even_alt_m1_nc(n: int):
    return 8 * n * (40 * n**2 + 8 * n - 93) if n % 2 == 0 else None


def _v8n_even_alt_m2_nc(n: int):
    return 2 * n * (512 * n**3 - 1180 * n**2 + 1024 * n - 229) if n % 2 == 0 else None


def _sd8n_predict(n: int) -> FormulaPrediction:
    # parities swapped relative to V_8n
    if n % 2:
        return _prediction(
            _parts((1, 4 * n - 4), (n, 4)),
            m1_c=(4 * n - 4) * (4 * n - 5) ** 2 + 36 * n,
            m2_c=(2 * n - 2) * (4 * n - 5) ** 3 + 54 * n,
            m1_nc=8 * n * (40 * n**2 - 72 * n + 32),
            m2_nc=2 * n * (512 * n**3 - 1280 * n**2 + 1024 * n - 256),
            vertices=8 * n - 4,
            edges_c=(2 * n - 2) * (4 * n - 5) + 6 * n,
            edges_nc=24 * n * (n - 1),
            eq=False,
        )
    return _prediction(
        _parts((1, 4 * n - 2), (2 * n, 2)),
        m1_c=(4 * n - 2) * (4 * n - 3) ** 2 + 4 * n,
        m2_c=(2 * n - 1) * (4 * n - 3) ** 3 + 2 * n,
        m1_nc=16 * n * (20 * n**2 - 18 * n + 4),
        m2_nc=64 * n * (16 * n**3 - 20 * n**2 + 8 * n - 1),
        vertices=8 * n - 2,
        edges_c=_half((4 * n - 2) * (4 * n - 3) + 4 * n),
        edges_nc=24 * n**2 - 12 * n,
        eq=False,
    )


def _sd8n_alt_m1_nc(n: int):
    return 8 * n * (40 * n**2 + 8 * n - 93) if n % 2 else None


def _sd8n_alt_m2_nc(n: int):
    return 2 * n * (512 * n**3 - 1180 * n**2 + 1024 * n - 229) if n % 2 else None


def _u6n_predict(n: int) -> FormulaPrediction:
    return _prediction(
        _parts((1, 2 * n), (3, n)),
        m1_c=2 * n * (2 * n - 1) ** 2 + 3 * n * (n - 1) ** 2,
        m2_c=_half(2 * n * (2 * n - 1) ** 3 + 3 * n * (n - 1) ** 3),
        m1_nc=66 * n**3,
        m2_nc=120 * n**4,
        vertices=5 * n,
        edges_c=_half(2 * n * (2 * n - 1) + 3 * n * (n - 1)),
        edges_nc=9 * n**2,
        eq=False,
    )


def _m2mn_predict(m: int, n: int) -> FormulaPrediction:
    if m % 2:
        return _quot_dihedral_predict(m, n)
    return _prediction(
        _parts((1, (m - 2) * n), (m // 2, 2 * n)),
        m1_c=n * (m - 2) * (m * n - 2 * n - 1) ** 2 + m * n * (2 * n - 1) ** 2,
        m2_c=_half((m * n - 2 * n) * (m * n - 2 * n - 1) ** 3 + m * n * (2 * n - 1) ** 3),
        m1_nc=n**3 * (5 * m**3 - 18 * m**2 + 16 * m),
        m2_nc=4 * n**4 * (m**4 - 5 * m**3 + 8 * m**2 - 4 * m),
        vertices=(m - 1) * 2 * n,
        edges_c=_half((m * n - 2 * n) * (m * n - 2 * n - 1) + m * n * (2 * n - 1)),
        edges_nc=_half(3 * (m // 2) ** 2 * (2 * n) ** 2 - 3 * (m // 2) * (2 * n) ** 2),
        eq=False,
    )


def _hanaki_a2_predict(n: int, p: int) -> FormulaPrediction:
    x = p**n
    return _prediction(
        _parts((x + 1, x * x - x)),
        m1_c=x * (x**2 - 1) * (x**2 - x - 1) ** 2,
        m2_c=_half(x * (x**2 - 1) * (x**2 - x - 1) ** 3),
        m1_nc=x**8 * (x - 2) + x**5 * (2 * x - 1),
        m2_nc=_half((x**3 - x) * (x**8 * (x - 3) + x**6 * (3 * x - 1))),
        vertices=x**3 - x,
        edges_c=_half(x * (x**2 - 1) * (x**2 - x - 1)),
        edges_nc=_half(x**2 * (x - 1) * (x**3 - x)),
        eq=True,
    )


PREDICT = {
    "quot_dihedral": _quot_dihedral_predict,
    "quot_zpzp": _quot_zpzp_predict,
    "quot_sz2": _quot_sz2_predict,
    "pq": _pq_predict,
    "sz2": lambda: _quot_sz2_predict(1),
    "hanaki_a1": _hanaki_a1_predict,
    "gl2": _gl2_predict,
    "psl2": _psl2_predict,
    "dihedral": _dihedral_predict,
    "dicyclic": _dicyclic_predict,
    "quasidihedral": _quasidihedral_predict,
    "v8n": _v8n_predict,
    "sd8n": _sd8n_predict,
    "u6n": _u6n_predict,
    "m2mn": _m2mn_predict,
    "hanaki_a2": _hanaki_a2_predict,
}

# (field, evaluator) of each entry's alternate forms, in the entry's order; an
# entry not listed here has none, except those of ALT_FORMS_ONLY_IN_ENTRIES
ALT_FORMS = {
    "sd8n": (
        ("m1_nc", _sd8n_alt_m1_nc),
        ("m2_nc", _sd8n_alt_m2_nc),
        ("equality_c", lambda n: n == 2),
        ("equality_nc", lambda n: n == 2),
    ),
    "v8n": (
        ("m1_nc", _v8n_even_alt_m1_nc),
        ("m2_nc", _v8n_even_alt_m2_nc),
    ),
}

# entries whose variant forms are stated once, as the entry's own alt_forms,
# with no second statement here to compare them against
ALT_FORMS_ONLY_IN_ENTRIES = frozenset({"pq", "hanaki_a1", "psl2", "quot_zpzp"})
