"""Formula registry: anchor values, internal identities, dispatch, crosscheck."""

import itertools
from collections import Counter

import pytest

from groupzagreb.build import (
    FAMILIES,
    FamilyError,
    FamilySpec,
    build_family,
    catalog,
    cyclic,
    direct_product,
    ingest_cayley,
    special_group,
)
from groupzagreb.formulas import (
    ENTRIES,
    FormulaError,
    _ac_type_predict,
    _quotient_orders,
    consequence_tags,
    crosscheck,
    registry_for,
)
from groupzagreb.zagreb import (
    Verdict,
    ZagrebReport,
    conjecture_verdict,
    group_report,
    zagreb_complement,
    zagreb_from_decomposition,
)
import formula_oracles
import quotient_oracles
from test_grp import extraspecial_32, relabelled

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
    """The four indices, the predicted counts, and the predicted decomposition
    must satisfy the clique-sum and complement identities, and each equality
    flag must match the exact verdict on its graph wherever that graph has an
    edge (quot_zpzp(2, 1), three isolated vertices, has none)."""
    entry = ENTRIES[key]
    for params in PARAM_POINTS[key]:
        pred = entry.evaluate(params)
        c = ZagrebReport(pred.m1_c, pred.m2_c, pred.vertices, pred.edges_c)
        nc = ZagrebReport(pred.m1_nc, pred.m2_nc, pred.vertices, pred.edges_nc)
        from_parts = zagreb_from_decomposition(pred.decomposition)
        assert from_parts == c, f"{key}{params}: C side disagrees with its decomposition"
        comp = zagreb_complement(from_parts)
        assert comp == nc, f"{key}{params}: NC side disagrees with the complement identity"
        for report, flag in ((c, pred.equality_c), (nc, pred.equality_nc)):
            if report.edges:
                equality = conjecture_verdict(report).status == Verdict.HOLDS_WITH_EQUALITY
                assert flag == equality, f"{key}{params}: equality flag disagrees with {report}"


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


# parameter ranges wider than range(-1, 41) per parameter
ORACLE_RANGES = {
    "m2mn": [range(-1, 60), range(-1, 40)],
    "quot_dihedral": [range(-1, 60), range(-1, 41)],
    "pq": [range(-1, 200)] * 2,
    "gl2": [range(-1, 200)],
}


@pytest.mark.parametrize("key", sorted(ENTRIES))
def test_family_entry_matches_its_own_polynomials(key):
    """Each entry, evaluated through its AC type, gives what its own
    polynomials in tests/formula_oracles.py give: every field and both
    equality flags wherever its validity rule accepts the parameters, an
    error wherever it rejects them, and every alternate form."""
    entry = ENTRIES[key]
    oracle = formula_oracles.PREDICT[key]
    oracle_alts = formula_oracles.ALT_FORMS.get(key, ())
    ranges = ORACLE_RANGES.get(key, [range(-1, 41)] * len(entry.param_names))
    restated = key not in formula_oracles.ALT_FORMS_ONLY_IN_ENTRIES
    for params in itertools.product(*ranges):
        if restated:
            alts = [(a.field, a.fn(*params)) for a in entry.alt_forms]
            assert alts == [(f, fn(*params)) for f, fn in oracle_alts], params
        if entry.validate(*params):
            with pytest.raises(FormulaError):
                entry.evaluate(params)
        else:
            assert entry.evaluate(params) == oracle(*params), params


def test_quot_dihedral_at_d4_is_quot_zpzp_at_2():
    # D_4 = Z_2 x Z_2, below the quot_dihedral entry's validity range m >= 3
    for z in range(1, 51):
        pred = _ac_type_predict(*ENTRIES["quot_dihedral"].ac_type(2, z))
        assert pred == ENTRIES["quot_zpzp"].evaluate((2, z)), z
        assert pred == formula_oracles.PREDICT["quot_dihedral"](2, z), z


# -- alternate (inconsistent) stated forms ---------------------------------------------

def test_v8n_even_alt_forms_flagged():
    G = B("v8n", 2)
    res = crosscheck(ENTRIES["v8n"], (2,), report=group_report(G))
    assert res.clean
    flagged = {d.field: d.predicted for d in res.alt_mismatches}
    assert flagged == {"m1_nc": 1328, "m2_nc": 4780}


def test_v8n_odd_has_no_alt_mismatch():
    res = crosscheck(ENTRIES["v8n"], (3,), report=group_report(B("v8n", 3)))
    assert res.clean and not res.alt_mismatches


def test_sd8n_odd_alt_forms_flagged():
    res = crosscheck(ENTRIES["sd8n"], (3,), report=group_report(B("sd8n", 3)))
    assert res.clean
    fields = {d.field for d in res.alt_mismatches}
    assert fields == {"m1_nc", "m2_nc"}


def test_sd8n_equality_claim_flagged_at_n2():
    res = crosscheck(ENTRIES["sd8n"], (2,), report=group_report(B("sd8n", 2)))
    assert res.clean  # the confirmed prediction (strict) matches the oracle
    eq_flags = [d for d in res.alt_mismatches if d.field.startswith("equality")]
    assert len(eq_flags) == 2
    assert all(d.predicted is True and d.actual is False for d in eq_flags)


def test_pq_alt_forms_flagged():
    res = crosscheck(ENTRIES["pq"], (2, 3), report=group_report(B("pq", 2, 3)))
    assert res.clean
    flagged = {d.field: d.predicted for d in res.alt_mismatches}
    assert flagged["m1_nc"] == 26  # against the confirmed 66


def test_psl2_alt_forms_flagged():
    res = crosscheck(ENTRIES["psl2"], (2,), report=group_report(B("psl2", 2)))
    assert res.clean
    flagged = {d.field: d.predicted for d in res.alt_mismatches}
    assert flagged["m1_nc"] == 184988  # against the confirmed 184620
    assert set(flagged) == {"edges_c", "edges_nc", "m1_nc", "m2_nc"}


def test_quot_zpzp_alt_m2_nc_flagged():
    res = crosscheck(ENTRIES["quot_zpzp"], (2, 2), report=group_report(B("dicyclic", 2)))
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
    res = crosscheck(ENTRIES["quot_zpzp"], (3, 3), report=group_report(G))
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


CATALOG_256 = catalog(256)


def assert_dispatch_matches_quotient_oracle(G):
    apps = registry_for(G)
    assert apps == quotient_oracles.registry_for(G)
    return apps


@pytest.mark.parametrize("entry", CATALOG_256, ids=[e.label for e in CATALOG_256])
def test_registry_for_matches_quotient_oracle_on_catalog(entry):
    assert_dispatch_matches_quotient_oracle(entry.build())


@pytest.mark.parametrize("fam,params,seed", [
    ("dicyclic", (2,), 1),
    ("u6n", (2,), 2),
    ("hanaki_a2", (1, 3), 3),
    ("m2mn", (13, 20), 4),
], ids=["Q_8", "U_12", "Heisenberg-27", "M_2mn(13,20)"])
def test_registry_for_matches_quotient_oracle_on_relabelled_tables(fam, params, seed):
    G = relabelled(B(fam, *params), seed)
    assert G.family is None
    assert assert_dispatch_matches_quotient_oracle(G)


@pytest.mark.parametrize("build,quotient_keys", [
    (lambda: direct_product(special_group("S_4"), cyclic(3)), set()),
    (lambda: special_group("A_5"), set()),
    (lambda: direct_product(B("sz2"), cyclic(2)), {("quot_sz2", (2,))}),
], ids=["S_4xZ_3", "A_5", "Sz(2)xZ_2"])
def test_registry_for_matches_quotient_oracle_on_other_groups(build, quotient_keys):
    apps = assert_dispatch_matches_quotient_oracle(build())
    assert {(a.entry.key, a.params) for a in apps if a.source == "quotient"} == quotient_keys


FAMILY_GROUPS_256 = [e for e in CATALOG_256 if e.family in ENTRIES]


@pytest.mark.parametrize("entry", FAMILY_GROUPS_256, ids=[e.label for e in FAMILY_GROUPS_256])
def test_declared_ac_type_matches_the_group(entry):
    """The entry's declared (z, type) is the one the group report measures:
    |Z(G)|, and for each clique size s the count l of subgroups of order
    t = s/z + 1.  The crosscheck alone cannot see z: type ((1, 3), (3, 2))
    at z = 2 and type ((1, 5), (3, 3)) at z = 1 give the same cliques."""
    rep = group_report(entry.build())
    z, parts = ENTRIES[entry.family].ac_type(*entry.params)
    declared = Counter()
    for l, t in parts:
        declared[t] += l  # D_8's (1, 2), (2, 2) is Z_2 x Z_2's (3, 2)
    z_measured = rep.center_size
    assert all(s % z_measured == 0 for _, s in rep.decomposition.parts)
    measured = {s // z_measured + 1: l for l, s in rep.decomposition.parts}
    assert (z, declared) == (z_measured, measured)


@pytest.mark.parametrize("entry", CATALOG_256, ids=[e.label for e in CATALOG_256])
def test_consequence_tags_match_the_centralizer_count_on_catalog(entry):
    G = entry.build()
    assert consequence_tags(G) == quotient_oracles.consequence_tags(G)


@pytest.mark.parametrize("build", [
    lambda: relabelled(B("dicyclic", 2), 1),
    lambda: relabelled(B("u6n", 2), 2),
    lambda: relabelled(B("hanaki_a2", 1, 3), 3),
    lambda: relabelled(B("m2mn", 13, 20), 4),
    lambda: relabelled(B("hanaki_a2", 1, 7), 3),
    lambda: relabelled(direct_product(special_group("S_4"), cyclic(3)), 5),
    lambda: relabelled(extraspecial_32(), 9),
], ids=["Q_8", "U_12", "Heisenberg-27", "M_2mn(13,20)", "hanaki_a2(1,7)", "S_4xZ_3",
        "2^{1+4}_+"])
def test_consequence_tags_match_the_centralizer_count_on_relabelled_tables(build):
    G = build()
    assert consequence_tags(G) == quotient_oracles.consequence_tags(G)


CATALOG_128 = catalog(128)


@pytest.mark.parametrize("entry", CATALOG_128, ids=[e.label for e in CATALOG_128])
def test_quotient_orders_match_the_quotient_table(entry):
    G = entry.build()
    Q = quotient_oracles.central_quotient(G)
    orders = Counter(quotient_oracles.element_order(Q, x) for x in range(Q.order))
    assert _quotient_orders(G) == orders


# -- crosscheck ----------------------------------------------------------------------------

def test_crosscheck_clean_for_d14():
    res = crosscheck(ENTRIES["dihedral"], (7,), report=group_report(B("dihedral", 7)))
    assert res.clean and not res.alt_mismatches


def test_crosscheck_reports_field_diffs_against_wrong_group():
    # evaluate D_10's entry against D_14's report: every index field differs
    res = crosscheck(ENTRIES["dihedral"], (5,), report=group_report(B("dihedral", 7)))
    fields = {d.field for d in res.diffs}
    assert {"vertices", "edges_c", "m1_c", "m2_c", "m1_nc", "m2_nc"} <= fields


def test_crosscheck_accepts_precomputed_report():
    G = B("dihedral", 7)
    rep = group_report(G)
    assert crosscheck(ENTRIES["dihedral"], (7,), report=rep).clean

