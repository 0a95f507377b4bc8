"""Rows on demand: a built group computes a row only when a query reads it.

Each row a builder's ``row_of`` gives must equal the row that ``close``
composes from the rows of a generating set; the inverses and conjugations,
which read only the generators' rows, must equal maps read off the full
table; and the report path must leave the table unbuilt.
"""

import pytest

from groupzagreb.build import (
    SPECIAL_GROUPS,
    _abelian_by_cyclic,
    FamilySpec,
    build_family,
    catalog,
    cyclic,
    direct_product,
    special_group,
)
from groupzagreb.formulas import crosscheck, registry_for
from groupzagreb.grp import FiniteGroup
from groupzagreb.zagreb import group_report
from test_build import abelian_by_cyclic_oracle
from test_grp import extraspecial_32, relabelled

CATALOG_256 = catalog(256)


def every_row(G):
    return [G.row(x) for x in range(G.order)]


def rows_computed(G):
    return sum(r is not None for r in G._rows)


@pytest.mark.parametrize("entry", CATALOG_256, ids=[e.label for e in CATALOG_256])
def test_catalog_rows_on_demand_match_close(entry):
    # row_of for every element, against close()'s composition in a fresh build
    assert every_row(entry.build()) == entry.build().table


@pytest.mark.parametrize("name", list(SPECIAL_GROUPS))
def test_special_rows_on_demand_match_close(name):
    assert every_row(special_group(name)) == special_group(name).table


def test_direct_product_rows_on_demand_match_close():
    for build in (lambda: direct_product(special_group("S_4"),
                                         build_family(FamilySpec("dicyclic", (3,)))),
                  lambda: direct_product(cyclic(5), cyclic(7))):
        assert every_row(build()) == build().table


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
    """x -> s^-1 * x * s, read off the table."""
    s_inv = t[s].index(0)
    return [t[t[s_inv][x]][s] for x in range(len(t))]


BUILT = [e.build for e in catalog(64)] + [
    lambda: build_family(FamilySpec("gl2", (5,))),
    lambda: build_family(FamilySpec("dihedral", (250,))),
    lambda: direct_product(special_group("A_4"), cyclic(6)),
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
        assert crosscheck(app.entry, app.params, rep).clean
    assert "table" not in vars(G)
    assert 0 < rows_computed(G) < G.order / 3, rows_computed(G)
