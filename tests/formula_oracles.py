"""The family closed forms as the paper states them, one polynomial set per
family, with the variant alternate forms of V_8n and SD_8n.

The library evaluates D_2m, Q_4n, QD_2^n, V_8n, SD_8n, U_6n and M_2mn through
the quot_dihedral closed form at (m', |Z(G)|), since each has G/Z(G) = D_2m',
and A(n,p) through quot_zpzp at (p^n, p^n); these evaluate each family's own
polynomials, so the tests can check every mapped entry against them.
"""

from groupzagreb.formulas import (
    FormulaPrediction,
    _half,
    _parts,
    _prediction,
    _quot_dihedral_predict,
)


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
        base = _quot_dihedral_predict(m, n)
        return base
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
    "dihedral": _dihedral_predict,
    "dicyclic": _dicyclic_predict,
    "quasidihedral": _quasidihedral_predict,
    "v8n": _v8n_predict,
    "sd8n": _sd8n_predict,
    "u6n": _u6n_predict,
    "m2mn": _m2mn_predict,
    "hanaki_a2": _hanaki_a2_predict,
}

# (field, evaluator) of each family's alternate forms, in the entry's order
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
