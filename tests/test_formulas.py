"""Formula registry: anchor values, internal identities, dispatch, crosscheck."""

import itertools

import pytest

from groupzagreb.build import (
    FAMILIES,
    FamilyError,
    FamilySpec,
    build_family,
    ingest_cayley,
    special_group,
)
from groupzagreb.formulas import (
    ENTRIES,
    FormulaError,
    crosscheck,
    registry_for,
)
from groupzagreb.zagreb import (
    ZagrebReport,
    group_report,
    zagreb_complement,
    zagreb_from_decomposition,
)

B = lambda fam, *ps: build_family(FamilySpec(fam, tuple(ps)))


def indices(pred):
    return (pred.m1_c, pred.m2_c, pred.m1_nc, pred.m2_nc)


# -- anchor evaluations -------------------------------------------------------

def test_dihedral_m3():
    pred = ENTRIES["dihedral"].evaluate((3,))
    assert indices(pred) == (2, 1, 66, 120)
    assert (pred.vertices, pred.edges_c, pred.edges_nc) == (5, 1, 9)
    assert not pred.equality_c


def test_dihedral_m4_equality():
    pred = ENTRIES["dihedral"].evaluate((4,))
    assert indices(pred) == (6, 3, 96, 192)
    assert pred.equality_c and pred.equality_nc


def test_sz2_n1():
    pred = ENTRIES["quot_sz2"].evaluate((1,))
    assert indices(pred) == (96, 114, 4740, 37440)
    assert pred.edges_nc == 150
    assert ENTRIES["sz2"].evaluate(()) == pred


def test_u6n_n1_matches_d6():
    pred = ENTRIES["u6n"].evaluate((1,))
    assert pred.m1_nc == 66 and pred.m2_nc == 120


def test_equality_conditions():
    assert ENTRIES["dicyclic"].evaluate((2,)).equality_c
    assert not ENTRIES["dicyclic"].evaluate((3,)).equality_c
    assert ENTRIES["v8n"].evaluate((1,)).equality_c
    assert ENTRIES["v8n"].evaluate((2,)).equality_c
    assert not ENTRIES["v8n"].evaluate((3,)).equality_c
    # quasidihedral never reaches its degenerate case within validity (n >= 4)
    for n in range(4, 9):
        assert not ENTRIES["quasidihedral"].evaluate((n,)).equality_c
    # the oracle-confirmed SD_8n condition: never equality for n >= 2
    for n in range(2, 9):
        assert not ENTRIES["sd8n"].evaluate((n,)).equality_c
    for n in (2, 3, 4):
        assert ENTRIES["hanaki_a1"].evaluate((n,)).equality_c
        assert ENTRIES["quot_zpzp"].evaluate((2, n)).equality_c
    assert ENTRIES["hanaki_a2"].evaluate((1, 5)).equality_c
    assert not ENTRIES["gl2"].evaluate((3,)).equality_c
    assert not ENTRIES["psl2"].evaluate((2,)).equality_c


def test_validity_errors():
    with pytest.raises(FormulaError):
        ENTRIES["dihedral"].evaluate((2,))
    with pytest.raises(FormulaError):
        ENTRIES["m2mn"].evaluate((4, 1))
    with pytest.raises(FormulaError):
        ENTRIES["pq"].evaluate((3, 5))
    with pytest.raises(FormulaError):
        ENTRIES["quot_zpzp"].evaluate((6, 2))
    with pytest.raises(FormulaError):
        ENTRIES["dihedral"].evaluate((3, 1))  # arity
    with pytest.raises(FormulaError):
        ENTRIES["gl2"].evaluate((6,))  # GL(2,6) does not exist


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_spec_and_formula_accept_the_same_params(family):
    for params in itertools.product(range(-1, 10), repeat=len(FAMILIES[family].params)):
        try:
            FamilySpec(family, params)
            spec_ok = True
        except FamilyError:
            spec_ok = False
        try:
            ENTRIES[family].evaluate(params)
            formula_ok = True
        except FormulaError:
            formula_ok = False
        assert spec_ok == formula_ok, params


# -- entry-internal identities ---------------------------------------------------

PARAM_POINTS = {
    "dihedral": [(m,) for m in range(3, 23)],
    "dicyclic": [(n,) for n in range(2, 22)],
    "quasidihedral": [(n,) for n in range(4, 12)],
    "sd8n": [(n,) for n in range(2, 22)],
    "v8n": [(n,) for n in range(1, 21)],
    "u6n": [(n,) for n in range(1, 21)],
    "m2mn": [(m, n) for m in (3, 5, 6, 7, 9) for n in (1, 2, 3, 7)],
    "pq": [(2, 3), (2, 5), (2, 7), (3, 7), (2, 11), (5, 11), (3, 13),
           (2, 13), (3, 19), (5, 31), (7, 29), (2, 17), (13, 53), (2, 19),
           (3, 31), (11, 23), (2, 23), (5, 41), (3, 37), (7, 43)],
    "sz2": [()],
    "hanaki_a1": [(n,) for n in range(2, 22)],
    "hanaki_a2": [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (1, 7),
                  (2, 5), (4, 2), (1, 11), (3, 3), (1, 13), (2, 7), (5, 2),
                  (1, 17), (4, 3), (1, 19), (2, 11), (6, 2), (1, 23)],
    "gl2": [(q,) for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                           29, 31, 32, 37, 41, 43)],
    "psl2": [(k,) for k in range(2, 22)],
    "quot_dihedral": [(m, n) for m in (3, 4, 5, 8, 13) for n in (1, 2, 3, 9)],
    "quot_zpzp": [(p, n) for p in (2, 3, 5, 7, 11) for n in (1, 2, 3, 10)],
    "quot_sz2": [(n,) for n in range(1, 21)],
}


@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_entry_internal_consistency(key):
    """The four polynomial evaluators, the predicted counts, and the predicted
    decomposition must satisfy the clique-sum and complement identities."""
    entry = ENTRIES[key]
    for params in PARAM_POINTS[key]:
        pred = entry.evaluate(params)
        from_parts = zagreb_from_decomposition(pred.decomposition)
        assert from_parts == ZagrebReport(
            pred.m1_c, pred.m2_c, pred.vertices, pred.edges_c
        ), f"{key}{params}: C side disagrees with its decomposition"
        comp = zagreb_complement(from_parts)
        assert comp == ZagrebReport(
            pred.m1_nc, pred.m2_nc, pred.vertices, pred.edges_nc
        ), f"{key}{params}: NC side disagrees with the complement identity"


# -- overlapping entries ------------------------------------------------------------

def test_dicyclic_matches_dihedral_at_2n():
    for n in range(2, 12):
        a = ENTRIES["dicyclic"].evaluate((n,))
        b = ENTRIES["dihedral"].evaluate((2 * n,))
        assert indices(a) == indices(b) and a.decomposition == b.decomposition


def test_quasidihedral_matches_dihedral_at_half_order():
    for n in range(4, 10):
        a = ENTRIES["quasidihedral"].evaluate((n,))
        b = ENTRIES["dihedral"].evaluate((2 ** (n - 1),))
        assert indices(a) == indices(b)


def test_v8n_odd_matches_dihedral_at_4n():
    for n in (1, 3, 5, 7):
        a = ENTRIES["v8n"].evaluate((n,))
        b = ENTRIES["dihedral"].evaluate((4 * n,))
        assert indices(a) == indices(b)


def test_u6n_matches_quot_dihedral_m3():
    for n in range(1, 12):
        a = ENTRIES["u6n"].evaluate((n,))
        b = ENTRIES["quot_dihedral"].evaluate((3, n))
        assert indices(a) == indices(b)


def test_m2mn_matches_quot_dihedral():
    for n in (1, 2, 3):
        assert indices(ENTRIES["m2mn"].evaluate((5, n))) == indices(
            ENTRIES["quot_dihedral"].evaluate((5, n))
        )
        assert indices(ENTRIES["m2mn"].evaluate((6, n))) == indices(
            ENTRIES["quot_dihedral"].evaluate((3, 2 * n))
        )


# -- alternate (inconsistent) stated forms ---------------------------------------------

def test_v8n_even_alt_forms_flagged():
    G = B("v8n", 2)
    res = crosscheck(ENTRIES["v8n"], (2,), G=G)
    assert res.clean
    flagged = {d.field: d.predicted for d in res.alt_mismatches}
    assert flagged == {"m1_nc": 1328, "m2_nc": 4780}


def test_v8n_odd_has_no_alt_mismatch():
    res = crosscheck(ENTRIES["v8n"], (3,), G=B("v8n", 3))
    assert res.clean and not res.alt_mismatches


def test_sd8n_odd_alt_forms_flagged():
    res = crosscheck(ENTRIES["sd8n"], (3,), G=B("sd8n", 3))
    assert res.clean
    fields = {d.field for d in res.alt_mismatches}
    assert fields == {"m1_nc", "m2_nc"}


def test_sd8n_equality_claim_flagged_at_n2():
    res = crosscheck(ENTRIES["sd8n"], (2,), G=B("sd8n", 2))
    assert res.clean  # the confirmed prediction (strict) matches the oracle
    eq_flags = [d for d in res.alt_mismatches if d.field.startswith("equality")]
    assert len(eq_flags) == 2
    assert all(d.predicted is True and d.actual is False for d in eq_flags)


def test_pq_alt_forms_flagged():
    res = crosscheck(ENTRIES["pq"], (2, 3), G=B("pq", 2, 3))
    assert res.clean
    flagged = {d.field: d.predicted for d in res.alt_mismatches}
    assert flagged["m1_nc"] == 26  # against the confirmed 66


def test_psl2_alt_forms_flagged():
    res = crosscheck(ENTRIES["psl2"], (2,), G=B("psl2", 2))
    assert res.clean
    flagged = {d.field: d.predicted for d in res.alt_mismatches}
    assert flagged["m1_nc"] == 184988  # against the confirmed 184620
    assert set(flagged) == {"edges_c", "edges_nc", "m1_nc", "m2_nc"}


def test_quot_zpzp_alt_m2_nc_flagged():
    res = crosscheck(ENTRIES["quot_zpzp"], (2, 2), G=B("dicyclic", 2))
    assert res.clean
    flagged = {d.field: d.predicted for d in res.alt_mismatches}
    assert flagged == {"m2_nc": 288}  # against the confirmed 192


# -- dispatch ------------------------------------------------------------------------------

def test_registry_for_q8():
    apps = registry_for(B("dicyclic", 2))
    keys = {(a.entry.key, a.params) for a in apps}
    assert keys == {("dicyclic", (2,)), ("quot_zpzp", (2, 2))}
    tags = {t for a in apps for t in a.tags}
    assert "4-centralizer" in tags
    assert any("5/8" in t for t in tags)


def test_registry_for_m2mn_5_2():
    apps = registry_for(B("m2mn", 5, 2))
    keys = {(a.entry.key, a.params) for a in apps}
    assert keys == {("m2mn", (5, 2)), ("quot_dihedral", (5, 2))}


def test_registry_for_ingested_heisenberg():
    built = B("hanaki_a2", 1, 3)
    text = "27\n" + "\n".join(" ".join(map(str, row)) for row in built.table) + "\n"
    G = ingest_cayley(text)  # no family provenance
    apps = registry_for(G)
    keys = {(a.entry.key, a.params) for a in apps}
    assert keys == {("quot_zpzp", (3, 3))}
    res = crosscheck(ENTRIES["quot_zpzp"], (3, 3), G=G)
    assert res.clean
    pred = ENTRIES["quot_zpzp"].evaluate((3, 3))
    assert pred.equality_c and pred.equality_nc


def test_registry_for_sz2_self_quotient():
    apps = registry_for(B("sz2"))
    keys = {(a.entry.key, a.params) for a in apps}
    assert keys == {("sz2", ()), ("quot_sz2", (1,))}


def test_registry_for_u12():
    apps = registry_for(B("u6n", 2))
    keys = {(a.entry.key, a.params) for a in apps}
    assert keys == {("u6n", (2,)), ("quot_dihedral", (3, 2))}


# -- crosscheck ----------------------------------------------------------------------------

def test_crosscheck_clean_for_d14():
    res = crosscheck(ENTRIES["dihedral"], (7,), G=B("dihedral", 7))
    assert res.clean and not res.alt_mismatches


def test_crosscheck_reports_field_diffs_against_wrong_group():
    # evaluate D_10's entry against D_14's report: every index field differs
    res = crosscheck(ENTRIES["dihedral"], (5,), G=B("dihedral", 7))
    fields = {d.field for d in res.diffs}
    assert {"vertices", "edges_c", "m1_c", "m2_c", "m1_nc", "m2_nc"} <= fields


def test_crosscheck_accepts_precomputed_report():
    G = B("dihedral", 7)
    rep = group_report(G)
    assert crosscheck(ENTRIES["dihedral"], (7,), report=rep).clean


def test_crosscheck_requires_input():
    with pytest.raises(ValueError):
        crosscheck(ENTRIES["dihedral"], (7,))
