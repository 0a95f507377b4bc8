"""The library names the benchmark reads, so that deleting one fails here
before it breaks the bench: every module the tracer targets, the set of its
targets that no longer exist, everything ``bench/workloads.py`` imports, and
``FiniteGroup.table`` of a built group, from which the workloads write their
Cayley files."""

import importlib
import importlib.util
import sys
from pathlib import Path

from groupzagreb.build import FamilySpec, build_family

BENCH = Path(__file__).parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_target_modules_import():
    modules = {target[0] for target in load("tracing").TARGETS}
    assert "groupzagreb.coset" in modules
    for name in sorted(modules):
        importlib.import_module(name)


def test_item_opening_tracer_targets_resolve():
    # the tracer skips a target it cannot find, so a renamed one would read
    # as zero items rather than fail
    opening = [(module, attr) for module, attr, _, opens in load("tracing").TARGETS if opens]
    assert [attr for _, attr in opening] == [
        "CatalogEntry.build", "build_family", "ingest_cayley", "read_edge_list"]
    for module_name, attr in opening:
        assert resolves(module_name, attr), attr


def resolves(module_name, attr):
    """Whether the tracer finds ``attr`` in the module, as its install does."""
    owner_name, _, member = attr.rpartition(".")
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return owner is not None and vars(owner).get(member) is not None


def test_unresolved_tracer_targets_are_pinned():
    # the tracer skips a target it cannot find, so its per-layer figure reads
    # zero; pinning the missing set makes the next deletion of a traced name
    # fail here instead
    missing = {attr for module, attr, _, _ in load("tracing").TARGETS
               if not resolves(module, attr)}
    assert missing == {
        "field", "Field.index_tables", "FiniteGroup.centralizer",
        "FiniteGroup.centralizer_sizes", "FiniteGroup.central_quotient",
        "FiniteGroup.validate", "recognize_dihedral", "recognize_elementary_abelian_p2",
        "commuting_graph", "SimpleGraph.complement", "extract_clique_decomposition",
    }


def test_workloads_import_and_read_a_built_table():
    load("workloads")  # its imports from groupzagreb resolve
    G = build_family(FamilySpec("dihedral", (3,)))
    assert G.table == [G.row(x) for x in range(6)]
