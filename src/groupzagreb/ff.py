"""The finite fields GF(p^k) the matrix builders need, as two index tables.

An element of GF(p^k) is a polynomial of degree < k over GF(p), and its
index is its coefficient vector read as base-p digits, constant term first:
0 is zero and 1 is one.  ``field_of_order(q)`` returns the addition and
multiplication tables over the indices 0..q-1, built once per q from the
digits and a "times x" map, with no polynomial arithmetic of their own.  The
reducing modulus is chosen deterministically: of the monic irreducible
polynomials x^k + r(x) over GF(p), the one whose lower part r has the least
index, found as the first r whose table has no zero divisor, so the tables
are reproducible across runs (GF(8) reduces by x^3 + x + 1, not
x^3 + x^2 + 1).
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
    """(add, mul) tables of GF(q) over the element indices 0..q-1; cached per q.

    add is digitwise addition mod p.  For a modulus x^k + r(x), x*b shifts
    b's digits up one place and folds its leading digit c back as -c*r(x),
    and a*b = x*((a div p)*b) + (a mod p)*b builds row a of mul from two
    earlier rows, the rows of the constants being digitwise products.  The
    quotient ring is a field iff the modulus is irreducible, and a reducible
    one has a zero divisor among the polynomials of lower degree, so the
    first r, ascending, whose rows each hold a single 0 is the least
    irreducible; a row with a second 0 rejects r at once."""
    pk = prime_power(q)
    if pk is None:
        raise FieldError(f"{q} is not a prime power")
    p, k = pk
    top = q // p  # the place value of the leading digit
    # element i as its k coefficients, constant term first, and back
    digits = [tuple(i // p**j % p for j in range(k)) for i in range(q)]

    def index(c) -> int:
        return sum(cj * p**j for j, cj in enumerate(c))
    add = [[index((x + y) % p for x, y in zip(a, b)) for b in digits] for a in digits]
    scale = [[index(c * y % p for y in b) for b in digits] for c in range(p)]  # c*b, c < p
    for r in range(q):  # the modulus x^k + r(x)
        times_x = [add[b % top * p][scale[-(b // top) % p][r]] for b in range(q)]
        mul = scale[:]
        for a in range(p, q):
            row = [add[times_x[u]][v] for u, v in zip(mul[a // p], mul[a % p])]
            if row.count(0) > 1:
                break
            mul.append(row)
        else:
            return add, mul
