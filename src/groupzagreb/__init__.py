"""Zagreb indices of commuting and non-commuting graphs of finite groups,
with an exact checker for the Hansen-Vukicevic conjecture M2/|E| >= M1/|V|.
"""

from .build import (
    CatalogEntry,
    FamilySpec,
    build_family,
    catalog,
    direct_product,
    ingest_cayley,
)
from .grp import FiniteGroup
from .formulas import (
    FormulaEntry,
    FormulaPrediction,
    crosscheck,
    registry_for,
)
from .zagreb import (
    CliqueDecomposition,
    ConjectureVerdict,
    SimpleGraph,
    Verdict,
    ZagrebReport,
    conjecture_verdict,
    group_report,
    read_edge_list,
    zagreb_complement,
    zagreb_direct,
    zagreb_from_decomposition,
)

__all__ = [
    "CatalogEntry", "FamilySpec", "build_family", "catalog",
    "direct_product", "ingest_cayley",
    "FiniteGroup",
    "FormulaEntry", "FormulaPrediction", "crosscheck", "registry_for",
    "CliqueDecomposition", "ConjectureVerdict", "SimpleGraph", "Verdict",
    "ZagrebReport", "conjecture_verdict", "group_report", "read_edge_list",
    "zagreb_complement", "zagreb_direct", "zagreb_from_decomposition",
]
