"""Coset enumeration for finitely presented groups (relator-table strategy
with immediate coincidence processing), used to realize the presented group
families as explicit Cayley tables.

Enumeration runs over the trivial subgroup, so live cosets are exactly the
group elements and the completed action table is the regular representation.
Definitions follow a fixed order (lowest coset, lowest generator column
first), which makes the output table deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .grp import FiniteGroup


class EnumerationOverflow(RuntimeError):
    """The coset bound was exceeded before the table closed."""


class PresentationError(ValueError):
    pass


@dataclass(frozen=True)
class Presentation:
    """A group presentation: ``ngens`` generators and relator words.

    Relator letters are 1-based signed generator indices: +i means generator
    i-1, -i its inverse.
    """

    ngens: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ngens < 1:
            raise PresentationError("presentation needs at least one generator")
        if not self.relators:
            raise PresentationError("presentation needs at least one relator")
        for rel in self.relators:
            if not rel:
                raise PresentationError("empty relator word")
            for letter in rel:
                if letter == 0 or abs(letter) > self.ngens:
                    raise PresentationError(f"relator letter {letter} references no generator")


def _columns(letter: int) -> int:
    # generator i -> column 2i, inverse -> column 2i+1
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def coset_enumerate(pres: Presentation, bound: int = 100_000, label: str = "E") -> FiniteGroup:
    """Enumerate the group defined by ``pres`` over the trivial subgroup.

    Returns the regular-representation Cayley table (identity = coset 0).
    Raises EnumerationOverflow if more than ``bound`` cosets get defined,
    which is also how presentations of infinite groups surface.
    """
    ncols = 2 * pres.ngens
    rel_cols = [tuple(_columns(letter) for letter in rel) for rel in pres.relators]

    table: list[list[int | None]] = [[None] * ncols]
    p = [0]  # union-find over cosets; p[a] == a iff live

    def rep(a: int) -> int:
        r = a
        while p[r] != r:
            r = p[r]
        while p[a] != r:  # path compression
            p[a], a = r, p[a]
        return r

    def define(a: int, col: int) -> int:
        if len(table) >= bound:
            raise EnumerationOverflow(
                f"enumeration overflow: more than {bound} cosets defined"
            )
        b = len(table)
        table.append([None] * ncols)
        p.append(b)
        table[a][col] = b
        table[b][col ^ 1] = a
        return b

    def merge(a: int, b: int, queue: deque[int]) -> None:
        a, b = rep(a), rep(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        p[b] = a
        queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue: deque[int] = deque()
        merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            row = table[dead]
            for col in range(ncols):
                d = row[col]
                if d is None:
                    continue
                row[col] = None
                if table[d][col ^ 1] == dead:
                    table[d][col ^ 1] = None
                mu, nu = rep(dead), rep(d)
                t = table[mu][col]
                if t is not None:
                    merge(nu, t, queue)
                    continue
                t = table[nu][col ^ 1]
                if t is not None:
                    merge(mu, t, queue)
                    continue
                table[mu][col] = nu
                table[nu][col ^ 1] = mu

    def scan_and_fill(a: int, word: tuple[int, ...]) -> None:
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                # deduction closes the scan
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):
        if rep(alpha) == alpha:
            for word in rel_cols:
                if rep(alpha) != alpha:
                    break
                scan_and_fill(alpha, word)
            if rep(alpha) == alpha:
                for col in range(ncols):
                    if table[alpha][col] is None:
                        define(alpha, col)
        alpha += 1

    live = [a for a in range(len(table)) if p[a] == a]
    renum = {a: i for i, a in enumerate(live)}
    act = [[renum[rep(table[a][col])] for col in range(ncols)] for a in live]
    return _regular_table(act, label)


def _regular_table(act: list[list[int]], label: str) -> FiniteGroup:
    """Turn the completed coset action into a full Cayley table.

    Each column of the action is right multiplication by one letter.  BFS
    from the identity coset reaches each coset b as a*letter, and its
    right-multiplication permutation is a's pushed through that letter's
    column: one C-level map per coset.  The Cayley table is the transpose.
    """
    n = len(act)
    columns = list(zip(*act))
    perm: list[list[int] | None] = [None] * n
    perm[0] = list(range(n))
    order_bfs = [0]
    for a in order_bfs:
        pa = perm[a]
        for column in columns:
            b = column[a]
            if perm[b] is None:
                perm[b] = list(map(column.__getitem__, pa))
                order_bfs.append(b)
    if len(order_bfs) != n:  # pragma: no cover - completed tables are connected
        raise PresentationError("coset table is not transitive")
    return FiniteGroup([list(row) for row in zip(*perm)], label=label)
