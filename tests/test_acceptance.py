"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All numeric checks are exact (tolerance 0); everything is integer or
rational arithmetic.

Two deliberately honest red spots, analyzed in the project notes:

* criterion 3 lists S_4 golden values (86, 115, 9456, 97320) that no correct
  implementation can reproduce: in the real S_4 every 4-cycle commutes with
  its square, so C(S_4) has 25 edges, not 19 (three independent
  constructions agree), and even taking the stated inputs (86, 115, 23, 19)
  at face value the complement formula yields M1 = 9546, not 9456.  The
  stated assertion is kept, failing, in
  ``test_criterion_3_s4_stated_values``; the verified values pass in
  ``test_criterion_3_s4_verified_values``.

* criterion 2 names SD_16/QD_16 among the equality cases.  Their commuting
  graph is K_6 + 4K_2, which gives strict inequality (M2/E = 379/19 >
  M1/V = 158/14); the equality claim contradicts the criterion's own
  governing clause ("HoldsStrict everywhere else").  The oracle-confirmed
  set is asserted, and the variant equality claim for SD_8n at n=2 is
  required to be *flagged* by the crosscheck rather than silently dropped.
"""

import random
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import groupby

import pytest

from groupzagreb.build import FamilySpec, build_family, catalog, ingest_cayley
from groupzagreb.cli import _scan_order, main
from groupzagreb.formulas import ENTRIES, crosscheck, registry_for
from groupzagreb.zagreb import (
    Verdict,
    ZagrebReport,
    conjecture_verdict,
    group_report,
    zagreb_complement,
    zagreb_direct,
)
from graph_oracles import complement
from quotient_oracles import central_quotient, recognize_dihedral
from test_zagreb import graph_from_edges

B = lambda fam, *ps: build_family(FamilySpec(fam, tuple(ps)))

# Criterion 1: the standard verification ranges for every family.
SWEEP = (
    [("dihedral", (m,)) for m in range(3, 31)]
    + [("dicyclic", (n,)) for n in range(2, 16)]
    + [("quasidihedral", (n,)) for n in range(4, 8)]
    + [("sd8n", (n,)) for n in range(2, 9)]
    + [("v8n", (n,)) for n in range(1, 9)]
    + [("u6n", (n,)) for n in range(1, 11)]
    + [("m2mn", (m, n)) for m in (3, 5, 6, 7, 8) for n in range(1, 5)]
    + [("pq", pq) for pq in ((2, 3), (2, 5), (2, 7), (3, 7), (2, 11), (5, 11), (3, 13))]
    + [("sz2", ())]
    + [("hanaki_a1", (n,)) for n in (2, 3, 4)]
    + [("hanaki_a2", np) for np in ((1, 2), (1, 3), (1, 5), (2, 2))]
    + [("gl2", (q,)) for q in (3, 4, 5)]
    + [("psl2", (k,)) for k in (2, 3)]
)


def _sweep_reports():
    if not hasattr(_sweep_reports, "cache"):
        reports = {}
        for fam, params in SWEEP:
            G = build_family(FamilySpec(fam, params))
            reports[(fam, params)] = group_report(G)
        _sweep_reports.cache = reports
    return _sweep_reports.cache


def test_criterion_1_formula_vs_oracle_sweeps():
    """Brute-force group reports equal the registry closed forms exactly,
    and statement-version polynomials are reported as mismatching."""
    t0 = time.time()
    reports = _sweep_reports()
    diffs = []
    flagged_fields: dict[tuple, set] = {}
    for (fam, params), rep in reports.items():
        res = crosscheck(ENTRIES[fam], params, report=rep)
        diffs.extend((fam, params, d) for d in res.diffs)
        flagged_fields[(fam, params)] = {d.field for d in res.alt_mismatches}
    assert not diffs, f"primary closed forms disagree with brute force: {diffs[:5]}"
    # the inconsistent statement versions must surface, never silently pass
    for n in (2, 4, 6, 8):
        assert {"m1_nc", "m2_nc"} <= flagged_fields[("v8n", (n,))]
    for n in (3, 5, 7):
        assert {"m1_nc", "m2_nc"} <= flagged_fields[("sd8n", (n,))]
    for pq in ((2, 3), (2, 5), (2, 7), (3, 7), (2, 11), (5, 11), (3, 13)):
        assert {"m1_nc", "m2_nc"} <= flagged_fields[("pq", pq)]
    for k in (2, 3):
        assert {"edges_c", "edges_nc", "m1_nc", "m2_nc"} <= flagged_fields[("psl2", (k,))]
    elapsed = time.time() - t0
    assert elapsed < 120, f"sweep took {elapsed:.1f}s, budget is 2 minutes"
    print(f"\n[criterion 1] PASS: {len(reports)} instances, zero diffs, "
          f"statement variants flagged, {elapsed:.1f}s")


EXPECTED_EQUALITY_INSTANCES = (
    {("dihedral", (4,)), ("dicyclic", (2,)), ("v8n", (1,)), ("v8n", (2,))}
    | {("hanaki_a1", (n,)) for n in (2, 3, 4)}
    | {("hanaki_a2", np) for np in ((1, 2), (1, 3), (1, 5), (2, 2))}
)


def test_criterion_2_equality_cases():
    """HoldsWithEquality exactly where the (oracle-confirmed) theorems say
    equality; HoldsStrict everywhere else in the sweep ranges.  SD_16 and
    QD_16 are strict - their commuting graph K_6 + 4K_2 is not regular - and
    the variant equality claim for SD_8n at n=2 must be flagged."""
    reports = _sweep_reports()
    for key, rep in reports.items():
        want_eq = key in EXPECTED_EQUALITY_INSTANCES
        assert (rep.verdict_c.status is Verdict.HOLDS_WITH_EQUALITY) == want_eq, key
        assert (rep.verdict_nc.status is Verdict.HOLDS_WITH_EQUALITY) == want_eq, key
        if not want_eq:
            assert rep.verdict_c.status is Verdict.HOLDS_STRICT, key
            assert rep.verdict_nc.status is Verdict.HOLDS_STRICT, key
    # every Z_p x Z_p-quotient instance in the sweep is an equality case
    for key, rep in reports.items():
        for app in registry_for(B(key[0], *key[1])):
            if app.entry.key == "quot_zpzp":
                assert rep.verdict_c.status is Verdict.HOLDS_WITH_EQUALITY, key
    # the contradicted equality claim is reported, not silently resolved
    res = crosscheck(ENTRIES["sd8n"], (2,), report=reports[("sd8n", (2,))])
    assert {d.field for d in res.alt_mismatches} >= {"equality_c", "equality_nc"}
    assert reports[("sd8n", (2,))].verdict_c.status is Verdict.HOLDS_STRICT
    assert reports[("quasidihedral", (4,))].verdict_c.status is Verdict.HOLDS_STRICT
    print("\n[criterion 2] PASS: equality exactly for "
          "{D_8, Q_8, V_8, V_16, all A(n,nu), all A(n,p)}; "
          "SD_16/QD_16 strict with the variant claim flagged")


GOLDEN = {
    "A_4": ((20, 16, 840, 3672), (11, 7, 48)),
    "SL(2,3)": ((150, 219, 7584, 70464), (22, 27, 204)),
    "D_6xZ_3": ((186, 411, 1782, 9720), (15, 24, 81)),
    "A_4xZ_2": ((294, 591, 6720, 58752), (22, 39, 192)),
}


def test_criterion_3_golden_values():
    from groupzagreb.build import special_group

    for name, (indices, counts) in GOLDEN.items():
        rep = group_report(special_group(name))
        assert (rep.c.m1, rep.c.m2, rep.nc.m1, rep.nc.m2) == indices, name
        assert (rep.c.vertices, rep.c.edges, rep.nc.edges) == counts, name
    rep = group_report(B("sz2"))
    assert (rep.c.m1, rep.c.m2, rep.nc.m1, rep.nc.m2) == (96, 114, 4740, 37440)
    assert rep.nc.edges == 150
    print("\n[criterion 3] PASS for A_4, SL(2,3), D_6xZ_3, A_4xZ_2, Sz(2) "
          "(S_4 handled in the two dedicated tests)")


def test_criterion_3_s4_stated_values():
    """The criterion's stated S_4 numbers, asserted verbatim.

    This fails, and must fail: the numbers describe a commuting graph of
    S_4 with 19 edges, but the centralizer of a 4-cycle is the cyclic group
    it generates, which joins each 4-cycle to its square.  The honest graph
    has 25 edges (see test_criterion_3_s4_verified_values and the project
    notes), so no correct implementation can return these values.
    """
    from groupzagreb.build import special_group

    rep = group_report(special_group("S_4"))
    assert (rep.c.vertices, rep.c.edges, rep.nc.edges) == (23, 19, 234), (
        "stated S_4 edge counts are not those of the real commuting graph"
    )
    assert (rep.c.m1, rep.c.m2, rep.nc.m1, rep.nc.m2) == (86, 115, 9456, 97320)
    print("\n[criterion 3/S_4 stated] PASS")  # pragma: no cover - unreachable


def test_criterion_3_s4_verified_values():
    """The S_4 values confirmed by three independent constructions
    (permutations, a presentation, and a raw in-test composition oracle),
    plus the mechanical complement-formula check showing that even the
    stated inputs (86, 115, 23, 19) lead to 9546, not 9456."""
    from groupzagreb.build import special_group

    rep = group_report(special_group("S_4"))
    assert (rep.c.m1, rep.c.m2, rep.nc.m1, rep.nc.m2) == (164, 280, 9096, 90648)
    assert (rep.c.vertices, rep.c.edges, rep.nc.edges) == (23, 25, 228)
    assert rep.verdict_c.status is Verdict.HOLDS_STRICT
    assert rep.verdict_nc.status is Verdict.HOLDS_STRICT
    assert zagreb_complement(ZagrebReport(86, 115, 23, 19)).m1 == 9546
    print("\n[criterion 3/S_4 verified] PASS: (164, 280, 9096, 90648), "
          "|E_C|=25, |E_NC|=228, both verdicts strict")


def test_criterion_4_counterexample_sanity():
    """The checker can fail: K_{1,5} + K_3 gives gap -3/72 before reduction."""
    g = graph_from_edges(
        9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7), (6, 8), (7, 8)]
    )
    rep = zagreb_direct(g)
    assert rep == ZagrebReport(42, 37, 9, 8)
    v = conjecture_verdict(rep)
    assert v.status is Verdict.FAILS
    assert (v.gap_numerator, v.gap_denominator) == (-3, 72)
    print("\n[criterion 4] PASS: K_{1,5}+K_3 fails with gap -3/72")


def test_criterion_5_complement_property_suite():
    """200 random graphs with <= 40 vertices: the complement formulas agree
    with direct computation on the materialized complement and the double
    complement is the identity on reports."""
    rng = random.Random(971203)
    for i in range(200):
        n = rng.randint(1, 40)
        p = rng.random()
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = graph_from_edges(n, edges)
        base = zagreb_direct(g)
        via_formula = zagreb_complement(base)
        assert via_formula == zagreb_direct(complement(g)), f"graph #{i}"
        assert zagreb_complement(via_formula) == base, f"graph #{i}"
    print("\n[criterion 5] PASS: 200 random graphs, both complement properties hold")


# the labels the registry's equality conditions pick out below order 512:
# every Hanaki instance, V_8, V_16, D_8, Q_8, and the order-16 groups whose
# central quotient is Z_2 x Z_2
EXPECTED_EQUALITY_AT_512 = {
    "A(1,2)", "A(1,3)", "A(1,5)", "A(1,7)", "A(2,2)", "A(3,2)",
    "A(2,nu)", "A(3,nu)", "A(4,nu)",
    "V_8", "V_16", "D_8", "Q_8",
    "D_8*Z_4", "M_16", "SG(16,3)", "Z_2xD_8", "Z_2xQ_8", "Z_4:Z_4",
}


def test_criterion_6_scan_at_512():
    """The desk-scale conjecture scan: zero violations over the full catalog
    (families plus the special groups) up to order 512."""
    t0 = time.time()
    entries = catalog(512)
    # one unit per order, as the CLI's scan cuts them, so that entries of one
    # order share a table through the memo of _scan_order
    units = [(list(group), 5000) for _, group in groupby(entries, key=lambda e: e.order)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        rows = [r for unit in pool.map(_scan_order, units) for r in unit]
    elapsed = time.time() - t0
    assert len(rows) == len(entries) >= 1700
    fails = [r.label for r in rows if "fails" in (r.verdict_c, r.verdict_nc)]
    assert not fails, f"conjecture violations found: {fails}"
    assert all(r.formula_diffs == 0 for r in rows)
    eq = {r.label for r in rows if r.verdict_c == "equality"}
    assert eq == EXPECTED_EQUALITY_AT_512
    for r in rows:
        assert (r.verdict_c == "equality") == (r.verdict_nc == "equality")
    assert elapsed < 300, f"scan took {elapsed:.1f}s, budget is 5 minutes"
    print(f"\n[criterion 6] PASS: {len(rows)} groups scanned to order 512, "
          f"zero violations, equality rows as predicted, {elapsed:.1f}s")


def test_criterion_7_consequence_dispatch():
    """Q_8: 4-centralizer, Pr = 5/8, matched to the Z_2 x Z_2-quotient
    formulas; ingested Heisenberg-27: Pr = 11/27, matches quot_zpzp(3,3);
    U_12's central quotient is recognized as D_6."""
    from fractions import Fraction

    q8 = B("dicyclic", 2)
    assert q8.count_distinct_centralizers() == 4
    assert q8.commutativity_degree() == Fraction(5, 8)
    apps = {a.entry.key: a for a in registry_for(q8)}
    assert apps["quot_zpzp"].params == (2, 2)
    assert crosscheck(ENTRIES["quot_zpzp"], (2, 2), report=group_report(q8)).clean
    assert any("4-centralizer" in t for t in apps["quot_zpzp"].tags)

    built = B("hanaki_a2", 1, 3)
    text = "27\n" + "\n".join(" ".join(map(str, row)) for row in built.table) + "\n"
    heis = ingest_cayley(text)
    assert heis.commutativity_degree() == Fraction(11, 27)
    apps = {a.entry.key: a for a in registry_for(heis)}
    assert apps["quot_zpzp"].params == (3, 3)
    assert crosscheck(ENTRIES["quot_zpzp"], (3, 3), report=group_report(heis)).clean
    pred = ENTRIES["quot_zpzp"].evaluate((3, 3))
    assert pred.equality_c and pred.equality_nc

    u12 = B("u6n", 2)
    assert recognize_dihedral(central_quotient(u12)) == 3
    print("\n[criterion 7] PASS: Q_8, Heisenberg-27, U_12 dispatch as required")


def test_criterion_8_determinism(capsys):
    """Byte-identical output across repeated runs and across --jobs values."""
    def capture(argv):
        code = main(argv)
        assert code == 0
        return capsys.readouterr().out

    a = capture(["scan", "--max-order", "16", "--jobs", "1"])
    b = capture(["scan", "--max-order", "16", "--jobs", "2"])
    c = capture(["scan", "--max-order", "16", "--jobs", "1"])
    assert a == b == c
    fam1 = capture(["family", "gl2", "--q", "4", "--format", "json"])
    fam2 = capture(["family", "gl2", "--q", "4", "--format", "json"])
    assert fam1 == fam2
    with capsys.disabled():
        print("\n[criterion 8] PASS: identical bytes across runs and --jobs values")
