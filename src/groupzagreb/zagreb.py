"""Zagreb indices of the commuting graph C(G) and the non-commuting graph
NC(G) of a finite group by three independent routes, and the exact
conjecture verdict.

Both graphs have the non-central elements as vertices; x and y are adjacent
in C(G) iff they commute.  ``group_report`` builds neither graph: it sums
once per distinct centralizer mask of the non-central conjugacy classes of
G/Z(G), which the group computes once (``FiniteGroup.commutation``).  The
routes are
  1. those direct sums, for C(G) and, separately, for NC(G);
  2. the clique decomposition of C(G), when it is a disjoint union of
     cliques, that is when every centralizer of a non-central element is
     abelian, as the same pass records (``Commutation.abelian``);
  3. the complement identities, which give NC(G) from C(G).
C must agree across routes 1 and 2 whenever 2 exists, and NC across 1 and 3.

Everything here is integer or rational arithmetic: the verdict compares
M2*|V| against M1*|E| by cross-multiplication, so equality cases are exact.
``SimpleGraph`` and ``zagreb_direct`` serve edge-list files: each edge is
stored once, in the bitmask of its lower end's neighbours above it, and
each non-empty row's sum of neighbour degrees is taken once, by the degrees'
bit planes.  M2 and ``zagreb_direct_complement`` both read those sums, so
route 3 is checked without making a complement row or plane.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from math import gcd
from itertools import compress, repeat
from operator import add, and_, eq, itemgetter, lshift, mul, rshift
from typing import NamedTuple

from .grp import AbelianGroupError, FiniteGroup, bitmask, flags_of


class GraphFormatError(ValueError):
    pass


class RouteMismatchError(AssertionError):
    """Two independent index computations disagreed; indicates a bug."""


class SimpleGraph:
    """Undirected simple graph; ``rows[v]`` is the bitmask of v's neighbours
    above v, so each edge {u < v} is stored once, at ``rows[u]``.  The
    degrees add the rows' column counts, kept bit-sliced, to their popcounts."""

    def __init__(self, vertex_count: int, rows: list[int]):
        if len(rows) != vertex_count:
            raise GraphFormatError("adjacency row count != vertex count")
        planes: list[int] = []  # bit u of planes[k]: bit k of the count of rows holding u
        for v, r in compress(enumerate(rows), rows):
            if r >> vertex_count:
                raise GraphFormatError("adjacency bits out of range")
            if not (r & -r) >> (v + 1):
                raise GraphFormatError(f"self-loop at vertex {v}" if r >> v & 1
                                       else f"row {v} has a bit below its own vertex")
            for k, plane in enumerate(planes):  # add r to the counters, with carry
                planes[k], r = plane ^ r, plane & r
                if not r:
                    break
            else:
                planes.append(r)
        self.vertex_count, self.rows = vertex_count, rows
        deg = list(map(int.bit_count, rows))
        self.edge_count = sum(deg)
        for k, plane in enumerate(planes):  # add 2^k where plane k has bit u
            deg = list(map(add, deg, map(lshift, flags_of(plane, vertex_count), repeat(k))))
        self._degrees = deg

    def degrees(self) -> list[int]:
        return self._degrees

    @cached_property
    def neighbour_sums(self) -> list[int]:
        """S_v, the sum of d_u over the u in ``rows[v]``, for each non-empty
        row v in order.  Each goes by the bit planes P_k of the degrees, the
        u whose d_u has bit k set: S_v = sum_k 2^k * |rows[v] & P_k|, one AND
        and popcount per plane."""
        deg = self._degrees
        planes = [bitmask(bytes(map(and_, map(rshift, deg, repeat(k)), repeat(1))))
                  for k in range(max(deg, default=0).bit_length())]
        return [sum((row & plane).bit_count() << k for k, plane in enumerate(planes))
                for row in filter(None, self.rows)]

    def __repr__(self) -> str:
        return f"SimpleGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


class ZagrebReport(NamedTuple):
    m1: int
    m2: int
    vertices: int
    edges: int


class _CliqueParts(NamedTuple):
    parts: tuple[tuple[int, int], ...]


class CliqueDecomposition(_CliqueParts):
    """Disjoint union of complete graphs: ((copies, size), ...) sorted by size."""

    __slots__ = ()

    def __new__(cls, parts: tuple[tuple[int, int], ...]):
        sizes = [s for _, s in parts]
        if sizes != sorted(set(sizes)):
            raise ValueError("parts must be sorted with distinct clique sizes")
        if any(l < 1 or s < 1 for l, s in parts):
            raise ValueError("copy counts and clique sizes must be positive")
        return super().__new__(cls, parts)


class Verdict(Enum):
    HOLDS_STRICT = "strict"
    HOLDS_WITH_EQUALITY = "equality"
    FAILS = "fails"
    UNDEFINED = "undefined"


class ConjectureVerdict(NamedTuple):
    """Sign of M2/|E| - M1/|V| as the exact fraction gap = num/den."""

    status: Verdict
    gap_numerator: int | None
    gap_denominator: int | None

    def gap_string(self) -> str:
        if self.gap_numerator is None:
            return "NA"
        g = gcd(self.gap_numerator, self.gap_denominator) or 1
        return f"{self.gap_numerator // g}/{self.gap_denominator // g}"


# ---------------------------------------------------------------------------
# the three Zagreb routes
# ---------------------------------------------------------------------------

def zagreb_direct(graph: SimpleGraph) -> ZagrebReport:
    """M1 = sum of squared degrees, M2 = sum of degree products over edges,
    sum_v d_v * S_v over the non-empty rows (``SimpleGraph.neighbour_sums``)."""
    deg = graph.degrees()
    m2 = sum(map(mul, compress(deg, graph.rows), graph.neighbour_sums))
    return ZagrebReport(sum(map(mul, deg, deg)), m2, graph.vertex_count, graph.edge_count)


def zagreb_direct_complement(graph: SimpleGraph) -> ZagrebReport:
    """``zagreb_direct`` of the complement from the graph's own rows and
    ``neighbour_sums``: there v has degree e_v = n - 1 - d_v, and each pair
    is an edge of one graph, so with S = sum e, 2*M2 = S^2 - M1 minus twice
    sum_v e_v * ((n - 1)*|rows[v]| - S_v) over the non-empty rows, the sum
    of e_u*e_v over this graph's edges uv."""
    n = graph.vertex_count
    deg = [n - 1 - d for d in graph.degrees()]
    m1 = sum(map(mul, deg, deg))
    edge_products = sum(e * ((n - 1) * row.bit_count() - s) for e, row, s in zip(
        compress(deg, graph.rows), filter(None, graph.rows), graph.neighbour_sums))
    m2 = (sum(deg) ** 2 - m1) // 2 - edge_products
    return ZagrebReport(m1, m2, n, n * (n - 1) // 2 - graph.edge_count)


def zagreb_from_decomposition(d: CliqueDecomposition) -> ZagrebReport:
    """Indices of a disjoint union of cliques from (copies, size) pairs alone."""
    m1 = sum(l * s * (s - 1) ** 2 for l, s in d.parts)
    m2_twice = sum(l * s * (s - 1) ** 3 for l, s in d.parts)
    vertices = sum(l * s for l, s in d.parts)
    edges_twice = sum(l * s * (s - 1) for l, s in d.parts)
    return ZagrebReport(m1, m2_twice // 2, vertices, edges_twice // 2)


def zagreb_complement(base: ZagrebReport) -> ZagrebReport:
    """Indices of the complement graph from the base report alone."""
    v, e, m1, m2 = base.vertices, base.edges, base.m1, base.m2
    m1c = v * (v - 1) ** 2 - 4 * e * (v - 1) + m1
    # M2 terms with denominator 2 combined; always integral because M1 is even
    num = v * (v - 1) ** 3 + (2 * v - 3) * m1
    if num % 2:
        raise ValueError("inconsistent report: odd M1 cannot come from a graph")
    m2c = num // 2 + 2 * e * e - 3 * e * (v - 1) ** 2 - m2
    return ZagrebReport(m1c, m2c, v, v * (v - 1) // 2 - e)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def conjecture_verdict(r: ZagrebReport) -> ConjectureVerdict:
    """Compare M2/|E| against M1/|V| exactly; Undefined when |E| or |V| is 0."""
    if r.vertices == 0 or r.edges == 0:
        return ConjectureVerdict(Verdict.UNDEFINED, None, None)
    num = r.m2 * r.vertices - r.m1 * r.edges
    den = r.edges * r.vertices
    if num > 0:
        status = Verdict.HOLDS_STRICT
    elif num == 0:
        status = Verdict.HOLDS_WITH_EQUALITY
    else:
        status = Verdict.FAILS
    return ConjectureVerdict(status, num, den)


# ---------------------------------------------------------------------------
# one-stop group report
# ---------------------------------------------------------------------------

class GroupReport(NamedTuple):
    order: int
    center_size: int
    c: ZagrebReport
    nc: ZagrebReport
    verdict_c: ConjectureVerdict
    verdict_nc: ConjectureVerdict
    decomposition: CliqueDecomposition | None


def group_report(G: FiniteGroup) -> GroupReport:
    """Zagreb reports and verdicts for C(G) and NC(G), summed once per
    distinct centralizer mask of the non-central conjugacy classes of G/Z(G).

    With z = |Z(G)|, a non-central x with centralizer mask m has degree
    d = |m| - z - 1 in C(G), its non-central commuters other than itself, and
    d' = n - |m| in NC(G).  Both depend only on the class of xZ(G) in G/Z(G):
    C_G(x) is shared by the coset xZ(G), and conjugation is an automorphism
    of both graphs.  ``FiniteGroup.commutation`` labels each element with
    its class (``class_of``); let V_s be the non-central elements whose
    class's centralizer has order s.  V_s is built with no step per
    element: the classes' 0/1 flags for "order s" (``bytes(map(eq, ...))``),
    gathered along ``class_of`` by one ``itemgetter`` in element order and
    read by ``bitmask``, one gather per distinct s, ascending.  Each
    distinct class mask m (``masks``), with w the elements of the classes
    that carry it, adds
      w*d^2 to M1 and w*d*(sum_s (s-z-1)*|m & V_s| - d) to 2*M2 of C(G),
      where -d takes out x itself, which lies in m; and
      w*d'^2 to M1 and w*d'*sum_s (n-s)*|V_s - m| to 2*M2 of NC(G).

    C(G) is a disjoint union of cliques iff commuting is transitive on the
    non-central elements, iff C_G(x) is abelian for every non-central x (G is
    an AC-group), iff every distinct class mask is in ``abelian``, which
    the pass decides once per mask (``grp``).  Then the cliques are the
    sets C_G(x) - Z(G), and V_s holds |V_s|/(s - z) of them, of size s - z.
    A mask wrongly held abelian mostly shows as a decomposition that route 1
    does not match, or as a V_s that is no whole number of cliques; where
    every non-central centralizer has one order the two routes would agree,
    so the tests check ``abelian`` against the table.

    The report reads only G's ``order``, ``label`` and ``commutation``.

    NC indices are computed twice - by these sums and through the complement
    formulas - and must agree.  C indices are computed by these sums and,
    whenever C(G) is a disjoint union of cliques, from that decomposition
    too.  A mismatch means a bug and raises RouteMismatchError.

    The decomposition also fixes the C verdict.  Weight each of the l
    cliques of size s by l*s, its vertices, and put X = s - 1, a vertex's
    degree.  Then M1/|V| = E[X^2] and M2/|E| = E[X^3]/E[X], so the gap is
    (E[X^3] - E[X]*E[X^2])/E[X] = Cov(X, X^2)/E[X], where
    Cov(X, X^2) = E[(X - X')^2 (X + X')]/2 for an independent copy X' of X,
    and X >= 0.  With |E| > 0, E[X] > 0, so the gap is never negative, and
    it is 0 iff X is constant, iff there is one clique size.  A C verdict
    that is not equality for one size and strict otherwise raises
    RouteMismatchError too.
    """
    n = G.order
    c = G.commutation
    z = len(c.center)
    if len(c.sizes) == 1:
        raise AbelianGroupError("Group must be non-abelian")
    order_of = [m.bit_count() for m in c.masks]  # class 0, Z(G), has n: no non-central s
    at_elements = itemgetter(*c.class_of)
    classes = {s: bitmask(bytes(at_elements(bytes(map(eq, order_of, repeat(s))))))
               for s in sorted(set(order_of[1:]))}  # s -> V_s as a bitmask

    weights: dict[int, int] = {}  # mask -> the elements of its classes
    for m, size in zip(c.masks[1:], c.sizes[1:]):
        weights[m] = weights.get(m, 0) + size
    m1 = m2_twice = edges_twice = 0
    m1_nc = m2_nc_twice = edges_nc_twice = 0
    for m, w in weights.items():
        d = m.bit_count() - z - 1
        edges_twice += w * d
        m1 += w * d * d
        degrees_in_m = sum((s - z - 1) * (m & v).bit_count() for s, v in classes.items())
        m2_twice += w * d * (degrees_in_m - d)
        d_nc = n - m.bit_count()
        edges_nc_twice += w * d_nc
        m1_nc += w * d_nc * d_nc
        m2_nc_twice += w * d_nc * sum((n - s) * (v & ~m).bit_count() for s, v in classes.items())
    rep_c = ZagrebReport(m1, m2_twice // 2, n - z, edges_twice // 2)
    rep_nc = ZagrebReport(m1_nc, m2_nc_twice // 2, n - z, edges_nc_twice // 2)

    decomposition = None
    if c.abelian.issuperset(weights):
        parts = []
        for s, v in classes.items():
            # V_s is not empty, so a count of 0 leaves a remainder
            count, rest = divmod(v.bit_count(), s - z)
            if rest:
                raise RouteMismatchError(f"{G.label}: {v.bit_count()} elements with centralizer "
                                         f"order {s} are no union of cliques of size {s - z}")
            parts.append((count, s - z))
        decomposition = CliqueDecomposition(tuple(parts))
        rep_c_parts = zagreb_from_decomposition(decomposition)
        if rep_c != rep_c_parts:
            raise RouteMismatchError(
                f"{G.label}: direct C report {rep_c} != decomposition {rep_c_parts}"
            )
    rep_nc_formula = zagreb_complement(rep_c)
    if rep_nc != rep_nc_formula:
        raise RouteMismatchError(
            f"{G.label}: direct NC report {rep_nc} != complement-formula {rep_nc_formula}"
        )
    verdict_c = conjecture_verdict(rep_c)
    if decomposition and rep_c.edges:
        sizes = len(decomposition.parts)
        if verdict_c.status is not (Verdict.HOLDS_WITH_EQUALITY if sizes == 1
                                    else Verdict.HOLDS_STRICT):
            raise RouteMismatchError(
                f"{G.label}: C verdict {verdict_c.status.value} contradicts the "
                f"decomposition {decomposition.parts}, which has {sizes} clique size(s)"
            )
    return GroupReport(
        order=n,
        center_size=z,
        c=rep_c,
        nc=rep_nc,
        verdict_c=verdict_c,
        verdict_nc=conjecture_verdict(rep_nc),
        decomposition=decomposition,
    )


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------

_PLAIN = bytes(range(32, 127)) + b"\t\r\n"  # on these, bytes and str split lines and tokens alike


def read_edge_list(source) -> SimpleGraph:
    """Parse the edge-list format: first line "n m", then m lines "u v" with
    0 <= u < v < n; duplicate edges are rejected.  ``source`` is the text
    itself or a text stream, read whole.

    A text of printable ASCII, tabs and line ends is encoded once and read
    as bytes by ``_read_plain``.  Any other text, and any plain one it
    refuses, is read as stripped non-blank lines: the header is checked,
    then ``_walk_edges`` reads each token with ``int()`` and names the first
    bad line.
    """
    text = source if isinstance(source, str) else source.read()
    if text.isascii() and not (data := text.encode()).translate(None, _PLAIN):
        graph = _read_plain(data)
        if graph is not None:
            return graph
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f'first line must be "n m", got {lines[0]!r}')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f'first line must be "n m", got {lines[0]!r}') from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative vertex or edge count")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    return SimpleGraph(n, _walk_edges(n, lines[1:]))


def _read_plain(data: bytes) -> SimpleGraph | None:
    """The graph of a text whose every line, the header included, is two
    tokens and whose edge tokens are canonical decimals, ``str(i).encode()``
    for i < min(n, 2m): one dict lookup per token and no per-edge duplicate
    test, since a repeated edge sets no new bit and the edge count comes out
    short.  None for a blank line, any other token or width, u >= v, a wrong
    count or a negative n (which SimpleGraph refuses)."""
    try:
        lines = data.splitlines()
        n, m = map(int, lines[0].split())
        if len(lines) - 1 != m:
            return None
        ids = {str(i).encode(): i for i in range(min(n, 2 * m))}
        rows = [0] * n
        for a, b in map(bytes.split, lines[1:]):
            u, v = ids[a], ids[b]
            if u >= v:
                return None
            rows[u] |= 1 << v
        graph = SimpleGraph(n, rows)
    except (IndexError, KeyError, ValueError):
        return None
    return graph if graph.edge_count == m else None


def _walk_edges(n: int, body: list[str]) -> list[int]:
    """The rows of the edge lines ``body``, each token read with
    ``int()``; raises GraphFormatError naming the first bad line."""
    rows = [0] * n
    for ln in body:
        toks = ln.split()
        try:
            if len(toks) != 2:
                raise ValueError
            u, v = int(toks[0]), int(toks[1])
        except ValueError:  # not two integers
            raise GraphFormatError(f"bad edge line {ln!r}") from None
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge ({u}, {v}) must satisfy 0 <= u < v < n")
        if rows[u] >> v & 1:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
    return rows
