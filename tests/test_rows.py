"""Rows on demand: a built group computes a row only when a query reads it.

Each row a builder's ``row_of`` gives must equal the row that the test
oracle ``close`` composes from the rows of a generating set of a fresh
build; the inverses each builder hands over and the conjugations, which
read only the generators' rows, must equal maps read off the full table;
the fingerprint oracle must tell tables apart, and the builders' normal
forms must be equal exactly where the fingerprints are; the generators the
abelian-by-cyclic builder declares must be the ones the greedy walk finds,
so that no built group of its runs the walk; the report path must leave
the table unbuilt and row 0 unread; and the matrix builders' inverse maps
must match the rows.
"""

import random
from itertools import combinations, product

import pytest

from groupzagreb.build import (
    SPECIAL_GROUPS,
    _abelian_by_cyclic,
    _gl2,
    _sl2,
    FamilySpec,
    build_family,
    catalog,
    cyclic,
    direct_product,
    special_group,
)
from groupzagreb.cli import main
from groupzagreb.formulas import crosscheck, crosschecks, dispatch, registry_for
from groupzagreb.grp import FiniteGroup
from groupzagreb.zagreb import group_report
from test_build import (
    abelian_by_cyclic_oracle,
    close,
    fingerprint,
    gl2_oracle,
    hanaki_a1_oracle,
    hanaki_a2_oracle,
    sl2_oracle,
)
from test_grp import extraspecial_32, relabelled

CATALOG_256 = catalog(256)


def every_row(G):
    return [G.row(x) for x in range(G.order)]


def closed(G):
    """The table ``close`` composes from the rows of a generating set of G."""
    return close(G.order, G.row)


def rows_computed(G):
    return sum(r is not None for r in G._rows)


@pytest.mark.parametrize("entry", CATALOG_256, ids=[e.label for e in CATALOG_256])
def test_catalog_rows_on_demand_match_close(entry):
    # row_of for every element, against close()'s composition in a fresh build
    assert every_row(entry.build()) == closed(entry.build())


@pytest.mark.parametrize("name", list(SPECIAL_GROUPS))
def test_special_rows_on_demand_match_close(name):
    assert every_row(special_group(name)) == closed(special_group(name))


def test_direct_product_rows_on_demand_match_close():
    for build in (lambda: direct_product(special_group("S_4"),
                                         build_family(FamilySpec("dicyclic", (3,)))),
                  lambda: direct_product(cyclic(5), cyclic(7))):
        assert every_row(build()) == closed(build())


# both loops of the normal-form row builder, over the powers of b (k <= |A|)
# and over A (k > |A|), with and without the wrap b^k = s != 0
@pytest.mark.parametrize("m1,m2,k,act,s", [
    (4, 1, 6, (-1, 0, 0, 1), (2, 0)),
    (2, 2, 6, (1, 0, 1, 1), (0, 1)),
    (3, 1, 6, (-1, 0, 0, 1), (0, 0)),
    (6, 2, 2, (-1, 0, 1, 1), (0, 1)),
    (8, 1, 4, (-1, 0, 0, 1), (4, 0)),
    (5, 1, 4, (2, 0, 0, 1), (0, 0)),
])
def test_normal_form_rows_match_the_product_rule(m1, m2, k, act, s):
    oracle = abelian_by_cyclic_oracle(m1, m2, k, act, s)
    FiniteGroup(oracle).validate()
    assert every_row(_abelian_by_cyclic(m1, m2, k, act, s)) == oracle


# the matrix builders row by row, up to orders no full-table oracle reaches:
# the identity, the last element and a seeded sample, each row against the
# oracle's products, and each inverse against the row it cancels
ROW_ORACLES = {
    "gl2": gl2_oracle,
    "psl2": lambda k, rows: sl2_oracle(2 ** k, rows),
    "hanaki_a1": hanaki_a1_oracle,
    "hanaki_a2": hanaki_a2_oracle,
}
LARGE_MATRIX_GROUPS = [
    ("gl2", (7,)),
    ("gl2", (8,)),
    ("gl2", (9,)),  # order 5760, over an odd prime-power field
    ("psl2", (4,)),
    ("hanaki_a1", (2,)),
    ("hanaki_a1", (3,)),
    ("hanaki_a1", (4,)),
    ("hanaki_a2", (1, 13)),
    ("hanaki_a2", (2, 3)),
]


@pytest.mark.parametrize("fam,params", LARGE_MATRIX_GROUPS,
                         ids=[f"{fam}{params}" for fam, params in LARGE_MATRIX_GROUPS])
def test_matrix_rows_match_the_oracle(fam, params):
    G = build_family(FamilySpec(fam, params))
    n = G.order
    sample = [0, 1, n - 1] + random.Random(n).sample(range(2, n - 1), 9)
    inv = G._inverses
    for x, expected in zip(sample, ROW_ORACLES[fam](*params, rows=sample)):
        assert G.row(x) == expected, x
        assert expected[inv[x]] == 0 and G.row(inv[x])[x] == 0, x
    assert sorted(inv) == list(range(n)) and all(inv[inv[x]] == x for x in range(n))


def test_table_is_built_once_and_then_serves_the_rows():
    G = build_family(FamilySpec("dihedral", (5,)))
    assert "table" not in vars(G) and rows_computed(G) == 0
    r3 = G.row(3)
    assert rows_computed(G) == 1
    t = G.table
    assert G.table is t and t[3] == r3
    assert all(G.row(x) is t[x] for x in range(G.order))


# -- the generic inverses and conjugations, against the table ------------------

def table_inverses(t):
    return [row.index(0) for row in t]


def table_conjugation(t, s):
    """x -> s * x * s^-1, read off the table."""
    s_inv = t[s].index(0)
    return [t[t[s][x]][s_inv] for x in range(len(t))]


BUILT = [e.build for e in catalog(64)] + [
    lambda: build_family(FamilySpec("gl2", (5,))),
    lambda: build_family(FamilySpec("dihedral", (250,))),
    lambda: direct_product(special_group("A_4"), cyclic(6)),
    # one of each builder's inverse maps: A(n,nu), A(n,p), SL(2,2^k), S_n,
    # Z_n and a product whose factor is itself a product
    lambda: build_family(FamilySpec("hanaki_a1", (3,))),
    lambda: build_family(FamilySpec("hanaki_a2", (1, 3))),
    lambda: build_family(FamilySpec("psl2", (3,))),
    lambda: special_group("S_4"),
    lambda: cyclic(7),
    lambda: direct_product(direct_product(cyclic(2), special_group("S_4")),
                           build_family(FamilySpec("dicyclic", (2,)))),
]
INGESTED = [
    lambda: relabelled(special_group("SL(2,3)"), 7),
    lambda: relabelled(build_family(FamilySpec("m2mn", (5, 3))), 11),
    lambda: relabelled(build_family(FamilySpec("hanaki_a2", (1, 3))), 5),
    extraspecial_32,
]


@pytest.mark.parametrize("build", BUILT + INGESTED)
def test_inverses_and_conjugations_match_the_table(build):
    G = build()
    inv = G._inverses
    conj = G._conjugations
    t = G.table
    assert inv == table_inverses(t)
    assert [list(c) for c in conj] == [table_conjugation(t, s) for s in G.generators]


# the normal form's inverses over both of its loops, where the order e of
# the action is below k and b^k = s wraps
@pytest.mark.parametrize("m1,m2,k,act,s", [
    (3, 1, 40, (-1, 0, 0, 1), (0, 0)),
    (9, 1, 30, (-1, 0, 0, 1), (0, 0)),
    (4, 1, 12, (-1, 0, 0, 1), (2, 0)),
    (7, 1, 12, (2, 0, 0, 1), (0, 0)),
    (2, 2, 6, (0, 1, 1, 1), (0, 0)),
    (6, 2, 4, (-1, 0, 1, 1), (0, 1)),
])
def test_normal_form_inverses_match_the_table(m1, m2, k, act, s):
    G = _abelian_by_cyclic(m1, m2, k, act, s)
    G.validate()
    assert G._inverses == table_inverses(G.table)


def test_a_group_from_row_of_needs_its_inverses():
    with pytest.raises(TypeError):
        FiniteGroup(order=3, row_of=lambda i: [(i + j) % 3 for j in range(3)])


def test_fingerprints_are_equal_iff_tables_are():
    groups = [e.build() for e in catalog(64)]
    prints = [fingerprint(G) for G in groups]
    equal = 0
    for (a, pa), (b, pb) in combinations(zip(groups, prints), 2):
        assert (pa == pb) == (a.table == b.table), (a.label, b.label)
        equal += pa == pb
    assert equal  # the families overlap: M_2m[m,1] = D_2m, Z_q:Z_2 = D_2q, ...


CATALOG_512 = catalog(512)


def test_equal_normal_forms_give_equal_tables():
    # and a copy of the first group under a later entry is what that
    # entry's own build gives: the scan's shared table, label, family and
    # params
    by_form = {}
    for e in CATALOG_512:
        by_form.setdefault(e.form(), []).append(e)
    shared = [es for es in by_form.values() if len(es) > 1]
    assert sum(len(es) - 1 for es in shared) == 398
    for first, *later in shared:
        H = first.build()
        for e in later:
            G, copy = e.build(), e.copy_of(H)
            assert G.table == H.table, (first.label, e.label)
            assert (copy.label, copy.family, copy.params) == (G.label, G.family, G.params)


def test_equal_fingerprints_within_an_order_give_equal_normal_forms():
    # the normal form catches every table the fingerprint says repeats
    form_of = {}
    for e in CATALOG_512:
        form = form_of.setdefault((e.order, fingerprint(e.build())), e.form())
        assert form == e.form(), e.label


# -- the builder's generators, against the greedy walk --------------------------

def greedy_walk(G):
    """The greedy generating set that ``FiniteGroup.generators`` walks for a
    group that declares none, run on G's own rows."""
    return tuple(G._greedy_generators(range(G.order)))


def test_declared_generators_are_the_greedy_walk_on_the_catalog():
    # every abelian-by-cyclic normal form of catalog(512), 1308 of its 1327;
    # a copy under another entry shares the declared tuple
    forms = {e.form(): e for e in CATALOG_512}
    built = [(f.build(), e) for f, e in forms.items() if f.builder is _abelian_by_cyclic]
    assert len(built) == 1308
    for G, e in built:
        assert G.generators == greedy_walk(G), e.label
        assert e.copy_of(G).generators is G.generators


def is_abc_presentation(m1, m2, k, act, s):
    """Whether ``_abelian_by_cyclic(m1, m2, k, act, s)`` presents a group:
    act an automorphism of A = Z_m1 x Z_m2 with act^k = 1 and act(s) = s,
    checked on every element and pair of A."""
    p, q, r, t = act
    A = list(product(range(m1), range(m2)))

    def f(u):
        return (p * u[0] + q * u[1]) % m1, (r * u[0] + t * u[1]) % m2

    def plus(u, v):
        return (u[0] + v[0]) % m1, (u[1] + v[1]) % m2

    def power_k(u):
        for _ in range(k):
            u = f(u)
        return u

    return (len(set(map(f, A))) == len(A) and f(s) == s
            and all(f(plus(u, v)) == plus(f(u), f(v)) for u in A for v in A)
            and all(power_k(u) == u for u in A))


def test_declared_generators_are_the_greedy_walk_on_raw_parameters():
    # every valid presentation with m1 <= 4, m2 <= 3 and k in (1, 2, 3, 4, 6),
    # over both row loops, m1 = 1, m2 = 1 and k = 1 among them.  The builder
    # needs |A| >= 2 (its act powers are gathers over the indices of A), so
    # n = 1 is the trivial group's walk, which finds no generator
    seen = set()
    for m1, m2, k in product((1, 2, 3, 4), (1, 2, 3), (1, 2, 3, 4, 6)):
        if m1 * m2 == 1:
            continue
        for act in product(range(m1), range(m1), range(m2), range(m2)):
            for s in product(range(m1), range(m2)):
                if is_abc_presentation(m1, m2, k, act, s):
                    G = _abelian_by_cyclic(m1, m2, k, act, s)
                    G.validate()
                    assert G.generators == greedy_walk(G), (m1, m2, k, act, s)
                    seen.add((m1 == 1, m2 == 1, k == 1))
    assert seen == set(product((False, True), repeat=3)) - {(True, True, False),
                                                            (True, True, True)}
    assert FiniteGroup([[0]]).generators == greedy_walk(FiniteGroup([[0]])) == ()


def spy_on_walks(monkeypatch):
    """The groups whose greedy walk over all of range(n) has run, one entry
    per walk: ``FiniteGroup._greedy_generators`` called on range(order)."""
    walked = []
    walk = FiniteGroup._greedy_generators

    def spied(G, members):
        if members == range(G.order):
            walked.append(G)
        return walk(G, members)

    monkeypatch.setattr(FiniteGroup, "_greedy_generators", spied)
    return walked


@pytest.mark.parametrize("fam,params", [("dihedral", (6,)), ("dicyclic", (5,)),
                                        ("v8n", (3,))])
def test_built_groups_report_without_the_walk(monkeypatch, fam, params):
    # the conjugation maps, Z(G), the class walk, the count and the
    # dispatch read the builder's generators
    walked = spy_on_walks(monkeypatch)
    G = build_family(FamilySpec(fam, params))
    rep = group_report(G)
    assert not any(result.diffs for _, result in crosschecks(dispatch(G), rep))
    G.count_distinct_centralizers()
    assert walked == []
    assert G.generators == greedy_walk(G) and len(walked) == 1


def test_ingested_table_walks_once(tmp_path, capsys, monkeypatch):
    # check_axioms runs Light's test on the walk's generators, and the
    # commutation pass reads the same cached set
    t = relabelled(build_family(FamilySpec("v8n", (3,))), 3).table
    path = tmp_path / "v24.cayley"
    path.write_text(f"{len(t)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in t))
    walked = spy_on_walks(monkeypatch)
    assert main(["group", "--cayley", str(path)]) == 0
    assert "# distinct_centralizers: 8" in capsys.readouterr().out
    assert len(walked) == 1


def test_ingested_group_serves_rows_from_its_list():
    t = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    G = FiniteGroup(t)
    assert G.table is t and all(G.row(x) is t[x] for x in range(4))


# -- regression guard: the report path never builds the n^2 table --------------

@pytest.mark.parametrize("fam,params", [
    ("dihedral", (1000,)),  # order 2000
    ("gl2", (7,)),          # order 2016
    ("psl2", (3,)),         # order 504
])
def test_report_path_reads_under_a_third_of_the_rows(fam, params):
    G = build_family(FamilySpec(fam, params))
    rep = group_report(G)
    apps = registry_for(G)
    assert apps
    for app in apps:
        assert not crosscheck(app.entry, app.params, rep).diffs
    assert "table" not in vars(G)
    assert 0 < rows_computed(G) < G.order / 3, rows_computed(G)


REPORT_PATH_GROUPS = [e.build for e in catalog(64)] + [
    lambda: build_family(FamilySpec("psl2", (3,))),
    lambda: build_family(FamilySpec("gl2", (7,))),
    lambda: build_family(FamilySpec("dihedral", (1000,))),
]


@pytest.mark.parametrize("build", REPORT_PATH_GROUPS)
def test_report_path_never_computes_row_0(build):
    # the identity map is range(n): no mask compares with row 0, and no walk
    # or generating set starts from the identity
    G = build()
    rep = group_report(G)
    assert not any(result.diffs for _, result in crosschecks(dispatch(G), rep))
    G.count_distinct_centralizers()
    assert G._rows[0] is None


def test_an_abelian_group_costs_one_row():
    # Z_64 has one greedy generator; Z(G) is its mask, read off its
    # conjugation map, and the pass stops there: one class, no walk
    G = cyclic(64)
    assert G.is_abelian()
    assert rows_computed(G) == 1
    assert G.quotient_classes == ([0] * 64, [64], [0]) and G.conjugacy_class_count == 64


@pytest.mark.parametrize("builder,q", [(_gl2, q) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(_sl2, q) for q in (2, 4, 8)])
def test_matrix_inverses_match_the_rows(builder, q):
    # the builder's inverse map against row.index(0), one row at a time
    G = builder(q)
    assert G._inverses == [G._row_of(x).index(0) for x in range(G.order)]
