"""Zagreb indices of commuting and non-commuting graphs of finite groups,
with an exact checker for the Hansen-Vukicevic conjecture M2/|E| >= M1/|V|.
"""

from .build import (
    CatalogEntry,
    FamilySpec,
    build_family,
    builtin_special_groups,
    catalog,
    direct_product,
    ingest_cayley,
)
from .coset import Presentation, coset_enumerate
from .grp import (
    FiniteGroup,
    recognize_dihedral,
    recognize_elementary_abelian_p2,
)
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
    "CatalogEntry", "FamilySpec", "build_family", "builtin_special_groups",
    "catalog", "direct_product", "ingest_cayley",
    "Presentation", "coset_enumerate",
    "FiniteGroup", "recognize_dihedral", "recognize_elementary_abelian_p2",
    "FormulaEntry", "FormulaPrediction", "crosscheck", "registry_for",
    "CliqueDecomposition", "ConjectureVerdict", "SimpleGraph", "Verdict",
    "ZagrebReport", "conjecture_verdict", "group_report", "read_edge_list",
    "zagreb_complement", "zagreb_direct", "zagreb_from_decomposition",
]
