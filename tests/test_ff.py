"""Finite-field tables against independent oracles: digitwise addition and
naive polynomial arithmetic modulo the least irreducible polynomial."""

import pytest

from groupzagreb import ff

# (p, k) of every GF(p^k) the builders reach: q = 2^k (hanaki_a1, psl2),
# p^n (hanaki_a2) and the prime powers gl2 reaches below the order cap
BUILT = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
         (2, 4), (17, 1), (2, 5), (2, 6)]


# -- independent oracle: naive polynomial arithmetic mod (p, modulus) --------

def oracle_reduce(coeffs, modulus, p):
    r = list(coeffs)
    dm = len(modulus) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm + 1):
                r[shift + i] = (r[shift + i] - lead * modulus[i]) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def oracle_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div, c = [], code
            for _ in range(d):
                div.append(c % p)
                c //= p
            div.append(1)
            if not oracle_reduce(poly, tuple(div), p):
                return False
    return True


def digits(i, p, k):
    """Element i as its k coefficients, constant term first."""
    return [i // p**j % p for j in range(k)]


def undigits(c, p):
    return sum(cj * p**j for j, cj in enumerate(c))


def oracle_modulus(p, k):
    """x^k + r(x) for the least index r whose polynomial is irreducible."""
    return next(m for m in (tuple(digits(r, p, k)) + (1,) for r in range(p**k))
                if oracle_irreducible(m, p))


def oracle_mul(a, b, modulus, p):
    raw = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            raw[i + j] = (raw[i + j] + ai * bj) % p
    return oracle_reduce(raw, modulus, p)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    # derive it independently: enumerate all monic quadratics over GF(2)
    irreducibles = [
        (c0, c1, 1)
        for c0 in range(2)
        for c1 in range(2)
        if oracle_irreducible((c0, c1, 1), 2)
    ]
    assert irreducibles == [(1, 1, 1)]  # x^2 + x + 1
    # and the library multiplies by it: x*x = x + 1, elements as base-2 digits
    assert ff.field_of_order(4)[1][2][2] == 3


def test_prime_fields_trivial():
    add, mul = ff.field_of_order(3)
    assert add == [[(a + b) % 3 for b in range(3)] for a in range(3)]
    assert mul == [[a * b % 3 for b in range(3)] for a in range(3)]


def test_gf2_char_two():
    assert ff.field_of_order(2) == ([[0, 1], [1, 0]], [[0, 0], [0, 1]])


def test_gf4_x_times_x():
    # x is index 2 and x + 1 is index 3; oracle: x*x = x^2, reduced mod
    # x^2+x+1, leaves x+1
    assert oracle_reduce((0, 0, 1), (1, 1, 1), 2) == [1, 1]
    _, mul = ff.field_of_order(4)
    assert mul[2][2] == 3
    # GF(8) mod x^3+x+1: x * x^2 = x + 1
    assert ff.field_of_order(8)[1][2][4] == 3


def test_frobenius_small_cases():
    # in characteristic 2 the Frobenius map is i -> mul[i][i]
    def frob(q):
        _, mul = ff.field_of_order(q)
        return [mul[i][i] for i in range(q)]
    assert frob(2) == [0, 1]
    assert frob(4)[2] == 3 and frob(4)[3] == 2  # x <-> x + 1
    f8 = frob(8)
    assert [f8[f8[f8[i]]] for i in range(8)] == list(range(8))  # x^(2^3) = x on GF(8)


@pytest.mark.parametrize("p,k", BUILT + [(7, 2), (61, 1)])
def test_field_axioms(p, k):
    """Every axiom over every element, as whole-row comparisons."""
    q = p**k
    add, mul = ff.field_of_order(q)
    els = range(q)
    perm = list(els)
    assert add[0] == perm and mul[1] == perm and mul[0] == [0] * q
    assert add == [list(col) for col in zip(*add)]
    assert mul == [list(col) for col in zip(*mul)]
    for a in els:
        assert sorted(add[a]) == perm  # a has a negative
        if a:
            assert sorted(mul[a]) == perm  # and, nonzero, an inverse
        for b in els:
            # (a+b)+c == a+(b+c), (a*b)*c == a*(b*c) and a*(b+c) == a*b + a*c
            assert add[add[a][b]] == [add[a][y] for y in add[b]]
            assert mul[mul[a][b]] == [mul[a][y] for y in mul[b]]
            assert [mul[a][y] for y in add[b]] == [add[mul[a][b]][z] for z in mul[a]]


# the modulus search also past the first few candidates, over odd
# characteristic and degree 3 and 4
@pytest.mark.parametrize("p,k", BUILT + [(5, 2), (7, 2), (3, 3), (3, 4)])
def test_tables_match_digit_oracles(p, k):
    """add is digitwise addition mod p, and mul the polynomial product
    reduced by the least irreducible: this pins the index encoding."""
    q = p**k
    add, mul = ff.field_of_order(q)
    modulus = oracle_modulus(p, k)
    for a in range(q):
        da = digits(a, p, k)
        for b in range(q):
            db = digits(b, p, k)
            assert add[a][b] == undigits([(x + y) % p for x, y in zip(da, db)], p)
            assert mul[a][b] == undigits(oracle_mul(da, db, modulus, p), p)


@pytest.mark.parametrize("p,k", BUILT)
def test_multiplicative_group_cyclic(p, k):
    q = p**k
    _, mul = ff.field_of_order(q)

    def mult_order(x):
        v, o = x, 1
        while v != 1:
            v = mul[v][x]
            o += 1
        return o

    orders = [mult_order(e) for e in range(1, q)]
    assert all((q - 1) % o == 0 for o in orders)
    assert (q - 1) in orders  # a generator exists


@pytest.mark.parametrize("p,k", [pk for pk in BUILT if pk[0] == 2] + [(3, 2), (5, 2)])
def test_frobenius_is_field_automorphism(p, k):
    q = p**k
    add, mul = ff.field_of_order(q)
    frob = []
    for a in range(q):
        v = 1
        for _ in range(p):
            v = mul[v][a]
        frob.append(v)
    if p == 2:
        assert frob == [mul[a][a] for a in range(q)]  # as _hanaki_a1 reads it
    for a in range(q):
        for b in range(q):
            assert frob[add[a][b]] == add[frob[a]][frob[b]]
            assert frob[mul[a][b]] == mul[frob[a]][frob[b]]
    for a in range(q):
        v = a
        for _ in range(k):
            v = frob[v]
        assert v == a


def test_construction_errors():
    for q in (12, 1):
        assert ff.prime_power(q) is None
        with pytest.raises(ff.FieldError):
            ff.field_of_order(q)


def test_field_of_order_factors():
    assert ff.prime_power(8) == (2, 3)
    assert ff.prime_power(49) == (7, 2)
    assert ff.prime_power(5) == (5, 1)
    assert ff.prime_power(64) == (2, 6)
    assert len(ff.field_of_order(49)[1]) == 49
