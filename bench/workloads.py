"""The benchmark's workloads: the CLI calls each makes, the inputs it
generates from the seed, and the reference every output is checked against.

No reference comes from the route under test:

- catalog_scan: stdout must be byte-identical to the output recorded at the
  seed commit (expected_scan.json), and every row is re-checked here with
  this file's own integer arithmetic: complement identities, verdicts, gaps,
  zero formula diffs and no failing verdict.
- large_groups: each row must equal the family's closed form,
  ``formulas.ENTRIES[family].evaluate(params)``, not the brute-force route.
- user_files: a Cayley table must give the closed-form indices of the
  builder-built group it was relabelled from; an edge list must give the
  M1, M2 and |E| counted here from the generator's own edge list, for the
  graph and for its complement; a corrupted table must be refused (exit 2).

All are closed loops in one process: each call starts when the previous one
has returned.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

from groupzagreb.build import FamilySpec, build_family
from groupzagreb.formulas import ENTRIES

SCAN_FIELDS = (
    "label", "family", "params", "order", "center", "vertices", "edges_c", "m1_c",
    "m2_c", "edges_nc", "m1_nc", "m2_nc", "verdict_c", "verdict_nc", "gap_c",
    "gap_nc", "formula_diffs",
)
GRAPH_FIELDS = ("graph", "vertices", "edges", "m1", "m2", "verdict", "gap")
EXPECTED_SCAN = Path(__file__).with_name("expected_scan.json")

# Full sizes, as BENCHMARK.json runs them.
#  catalog_scan: the paper's experiment on 788 groups, every family and the
#    special groups; order 512 takes ~100 s, too long to repeat.
#  large_groups: order 504 with centre 1 (dense graph, GF(8)), order 2016
#    over GF(7), and order 2000 whose commuting graph is one giant clique.
#    psl2 --k 4 (order 4080, ~16 s) would leave room for one pass per run,
#    too few for a steady median on a machine whose speed drifts.
#  user_files: one table under the 512 full associativity screen and one
#    above it on the sampled screen, a corrupted copy, and two G(n, p) edge
#    lists whose many degree classes no commuting graph has.
SIZES = {
    "catalog_scan": {"max_order": 256},
    "large_groups": {"families": (("psl2", (("k", 3),)), ("gl2", (("q", 7),)),
                                  ("dihedral", (("m", 1000),)))},
    "user_files": {"tables": (("hanaki_a2", (1, 7)), ("m2mn", (13, 20))),
                   "graphs": ((1500, 0.3), (1200, 0.1))},
}
# Tiny sizes for the smoke test (smoke.py); same code paths, seconds of work.
TINY = {
    "catalog_scan": {"max_order": 24},
    "large_groups": {"families": (("psl2", (("k", 2),)), ("gl2", (("q", 3),)),
                                  ("dihedral", (("m", 10),)))},
    "user_files": {"tables": (("hanaki_a2", (1, 3)), ("dihedral", (9,))),
                   "graphs": ((40, 0.3),)},
}


@dataclass
class Op:
    """One CLI call, the check its output must pass, and how many
    operations it counts for (one per scan row, plus the call itself)."""

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)
    units: int = 1


def make_ops(workload: str, size: dict, seed: int, workdir: Path) -> list[Op]:
    """The workload's calls; inputs are written to ``workdir`` from ``seed``."""
    rng = random.Random(seed)
    if workload == "catalog_scan":
        return _catalog_ops(size)
    if workload == "large_groups":
        return _large_group_ops(size)
    if workload == "user_files":
        return _user_file_ops(size, rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _catalog_ops(size: dict) -> list[Op]:
    max_order = size["max_order"]
    recorded = json.loads(EXPECTED_SCAN.read_text(encoding="utf-8"))
    if str(max_order) not in recorded:
        raise ValueError(f"no recorded scan output for max order {max_order}")
    expect = recorded[str(max_order)]
    argv = ["scan", "--max-order", str(max_order), "--jobs", "1"]
    return [Op(argv, "scan", dict(expect), units=expect["rows"] + 1)]


def _large_group_ops(size: dict) -> list[Op]:
    ops = []
    for family, flags in size["families"]:
        params = tuple(v for _, v in flags)
        spec = FamilySpec(family, params)
        row = expected_row(spec.label(), family, params, spec.order(),
                           ENTRIES[family].evaluate(params))
        argv = ["family", family] + [a for k, v in flags for a in (f"--{k}", str(v))]
        ops.append(Op(argv, "row", {"row": row}))
    return ops


def _user_file_ops(size: dict, rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    first_table = None
    for i, (family, params) in enumerate(size["tables"]):
        G = build_family(FamilySpec(family, params))
        path = workdir / f"table{i}.txt"
        path.write_text(cayley_text(G.table, rng), encoding="utf-8")
        pred = ENTRIES[family].evaluate(params)
        ops.append(Op(["group", "--cayley", str(path)], "row", {
            "row": expected_row(path.name, "ingested", (), G.order, pred),
            "commutativity_degree": commutativity_degree(G.order, pred),
        }))
        if first_table is None:
            first_table = G.table
    bad = workdir / "corrupted.txt"
    bad.write_text(cayley_text(first_table, rng, corrupt=True), encoding="utf-8")
    ops.append(Op(["group", "--cayley", str(bad)], "reject", {"rc": 2}))
    for i, (n, p) in enumerate(size["graphs"]):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        path = workdir / f"graph{i}.txt"
        path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges),
                        encoding="utf-8")
        ops.append(Op(["graph", "--edges", str(path), "--complement"], "graph",
                      {"rows": graph_rows(n, edges)}))
    return ops


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def cayley_text(table: list[list[int]], rng: random.Random, corrupt: bool = False) -> str:
    """The table under a random relabelling that moves the identity off index
    0; with ``corrupt``, one entry is then changed, which breaks its row's
    Latin square property."""
    n = len(table)
    new = list(range(n))
    rng.shuffle(new)
    if new[0] == 0:
        new[0], new[1] = new[1], new[0]
    old = [0] * n
    for o, nw in enumerate(new):
        old[nw] = o
    rows = [[new[table[old[a]][old[b]]] for b in range(n)] for a in range(n)]
    if corrupt:
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = (rows[i][j] + rng.randrange(1, n)) % n
    return f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def verdict(m1: int, m2: int, v: int, e: int) -> tuple[str, str]:
    """Sign and reduced value of M2/|E| - M1/|V|, by cross-multiplication."""
    if v == 0 or e == 0:
        return "undefined", "NA"
    num, den = m2 * v - m1 * e, e * v
    status = "strict" if num > 0 else ("equality" if num == 0 else "fails")
    g = gcd(num, den)
    return status, f"{num // g}/{den // g}"


def expected_row(label, family, params, order, pred) -> dict[str, str]:
    v = pred.vertices
    verdict_c, gap_c = verdict(pred.m1_c, pred.m2_c, v, pred.edges_c)
    verdict_nc, gap_nc = verdict(pred.m1_nc, pred.m2_nc, v, pred.edges_nc)
    values = (label, family, ";".join(map(str, params)), order, order - v, v,
              pred.edges_c, pred.m1_c, pred.m2_c, pred.edges_nc, pred.m1_nc, pred.m2_nc,
              verdict_c, verdict_nc, gap_c, gap_nc, 0)
    return dict(zip(SCAN_FIELDS, map(str, values)))


def commutativity_degree(order: int, pred) -> str:
    # |C(x)| is n for a central x and |Z| + 1 + deg(x) otherwise
    z = order - pred.vertices
    pairs = order * z + pred.vertices * (z + 1) + 2 * pred.edges_c
    pr = Fraction(pairs, order * order)
    return f"{pr.numerator}/{pr.denominator}"


def graph_rows(n: int, edges: list[tuple[int, int]]) -> list[dict[str, str]]:
    """M1, M2, |E| and verdicts of the graph and its complement, counted from
    the edge list (the complement's M2 as all pairs minus the edges)."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    co = [n - 1 - d for d in deg]
    e = len(edges)
    m1 = sum(d * d for d in deg)
    m2 = sum(deg[u] * deg[v] for u, v in edges)
    m1c = sum(d * d for d in co)
    m2c = (sum(co) ** 2 - m1c) // 2 - sum(co[u] * co[v] for u, v in edges)
    rows = []
    for name, a, b, edges_count in (("graph", m1, m2, e),
                                    ("complement", m1c, m2c, n * (n - 1) // 2 - e)):
        status, gap = verdict(a, b, n, edges_count)
        rows.append(dict(zip(GRAPH_FIELDS, map(str, (name, n, edges_count, a, b, status, gap)))))
    return rows


# ---------------------------------------------------------------------------
# checks: each returns one message per failed operation
# ---------------------------------------------------------------------------

def check(op: Op, rc, out: str, err: str) -> list[str]:
    return _CHECKS[op.kind](op.expect, rc, out, err)[:op.units]


def _scan_row_problem(row: dict[str, str]) -> str | None:
    try:
        order, center, v, e, m1, m2, e_nc, m1_nc, m2_nc, diffs = (
            int(row[k]) for k in ("order", "center", "vertices", "edges_c", "m1_c", "m2_c",
                                  "edges_nc", "m1_nc", "m2_nc", "formula_diffs"))
    except (KeyError, ValueError):
        return f"unparsable row {row}"
    problems = []
    if order - v != center:
        problems.append("centre + vertices != order")
    if e_nc != v * (v - 1) // 2 - e:
        problems.append("edges_nc")
    if m1_nc != v * (v - 1) ** 2 - 4 * e * (v - 1) + m1:
        problems.append("m1_nc fails the complement identity")
    if 2 * m2_nc != v * (v - 1) ** 3 + (2 * v - 3) * m1 + 4 * e * e - 6 * e * (v - 1) ** 2 - 2 * m2:
        problems.append("m2_nc fails the complement identity")
    if (row["verdict_c"], row["gap_c"]) != verdict(m1, m2, v, e):
        problems.append("verdict_c/gap_c")
    if (row["verdict_nc"], row["gap_nc"]) != verdict(m1_nc, m2_nc, v, e_nc):
        problems.append("verdict_nc/gap_nc")
    if diffs:
        problems.append(f"{diffs} formula diffs")
    if "fails" in (row["verdict_c"], row["verdict_nc"]):
        problems.append("conjecture fails")
    return f"{row['label']}: {', '.join(problems)}" if problems else None


def _check_scan(expect, rc, out, err) -> list[str]:
    failures = []
    call = []
    if rc != 0:
        call.append(f"exit code {rc}")
    if hashlib.sha256(out.encode("utf-8")).hexdigest() != expect["sha256"]:
        call.append("stdout differs from the recorded seed output")
    lines = out.splitlines()
    if lines[:1] != [",".join(SCAN_FIELDS)]:
        call.append("bad CSV header")
    rows = [dict(zip(SCAN_FIELDS, r)) for r in csv.reader(
        ln for ln in lines[1:] if not ln.startswith("#"))]
    for row in rows:
        problem = _scan_row_problem(row)
        if problem:
            failures.append(problem)
    if len(rows) < expect["rows"]:
        failures += [f"missing row ({len(rows)} of {expect['rows']})"] * (expect["rows"] - len(rows))
    counts = {"groups": len(rows), "strict": 0, "equality": 0, "fails": 0, "undefined": 0}
    for row in rows:
        for key in ("verdict_c", "verdict_nc"):
            if row.get(key) in counts:
                counts[row[key]] += 1
    summary = "# scan: " + " ".join(f"{k}={v}" for k, v in counts.items())
    if summary not in lines:
        call.append("summary line missing or wrong")
    if call:
        failures.append("scan: " + "; ".join(call))
    return failures


def _check_row(expect, rc, out, err) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}: {err.strip()[-300:]}")
    lines = out.splitlines()
    if lines[:1] != [",".join(SCAN_FIELDS)]:
        problems.append("bad CSV header")
    got = dict(zip(SCAN_FIELDS, next(csv.reader(lines[1:2]), [])))
    wrong = [f"{k}={got.get(k)!r} (expected {v!r})" for k, v in expect["row"].items()
             if got.get(k) != v]
    if wrong:
        problems.append("row: " + ", ".join(wrong))
    if "commutativity_degree" in expect:
        line = f"# commutativity_degree: {expect['commutativity_degree']}"
        if line not in lines:
            problems.append(f"missing {line!r}")
        formulas = [ln for ln in lines if ln.startswith("# formula:")]
        if any(" diffs=0 " not in ln for ln in formulas):
            problems.append("a dispatched formula has diffs")
    return [f"{expect['row']['label']}: {'; '.join(problems)}"] if problems else []


def _check_graph(expect, rc, out, err) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}: {err.strip()[-300:]}")
    lines = out.splitlines()
    if lines[:1] != [",".join(GRAPH_FIELDS)]:
        problems.append("bad CSV header")
    got = [dict(zip(GRAPH_FIELDS, r)) for r in csv.reader(lines[1:])]
    if got != expect["rows"]:
        problems.append(f"rows {got} != expected {expect['rows']}")
    return ["graph: " + "; ".join(problems)] if problems else []


def _check_reject(expect, rc, out, err) -> list[str]:
    if rc == expect["rc"] and not out and err.startswith("error:"):
        return []
    return [f"corrupted table: exit {rc}, stdout {out[:80]!r}, stderr {err[:200]!r}"]


_CHECKS = {"scan": _check_scan, "row": _check_row, "graph": _check_graph,
           "reject": _check_reject}
