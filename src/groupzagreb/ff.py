"""The finite fields GF(p^k) the matrix builders need, as two index tables.

An element of GF(p^k) is a polynomial of degree < k over GF(p), and its
index is its coefficient vector read as base-p digits, constant term first:
0 is zero and 1 is one.  ``field_of_order(q)`` returns the addition and
multiplication tables over the indices 0..q-1, built once per q.  The
reducing modulus is chosen deterministically: of the monic irreducible
polynomials x^k + r(x) over GF(p), the one whose lower part r has the least
index, so the tables are reproducible across runs (GF(8) reduces by
x^3 + x + 1, not x^3 + x^2 + 1).
"""

from __future__ import annotations

from functools import lru_cache


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul_mod_p(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod is monic; classic long division, remainder only
    r = list(a)
    dm = len(mod) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm + 1):
                r[shift + i] = (r[shift + i] - lead * mod[i]) % p
        r.pop()
    return _poly_trim(r)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = []
            c = code
            for _ in range(d):
                div.append(c % p)
                c //= p
            div.append(1)  # monic
            if not _poly_rem(poly, tuple(div), p):
                return False
    return True


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The monic irreducible x^k + r(x) over GF(p) whose lower part r has the
    least index, as an ascending-power coefficient tuple."""
    if k == 1:
        return (0, 1)  # the polynomial x
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        cand = tuple(coeffs) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")  # pragma: no cover


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k and p prime, or None if q is not a prime power."""
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
        p += 1
    return (q, 1) if q > 1 else None


@lru_cache(maxsize=None)
def field_of_order(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """(add, mul) tables of GF(q) over the element indices 0..q-1; cached per q."""
    pk = prime_power(q)
    if pk is None:
        raise FieldError(f"{q} is not a prime power")
    p, k = pk
    modulus = _least_irreducible(p, k)
    # element i as its k coefficients, constant term first, and back
    digits = [tuple(i // p**j % p for j in range(k)) for i in range(q)]

    def index(c) -> int:
        return sum(cj * p**j for j, cj in enumerate(c))
    add = [[index((x + y) % p for x, y in zip(a, b)) for b in digits] for a in digits]
    polys = [_poly_trim(list(a)) for a in digits]
    mul = [[index(_poly_rem(_poly_mul_mod_p(a, b, p), modulus, p)) for b in polys] for a in polys]
    return add, mul
