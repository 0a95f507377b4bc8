"""The library names the benchmark reads, so that deleting one fails here
before it breaks the bench: every module the tracer targets, everything
``bench/workloads.py`` imports, and ``FiniteGroup.table`` of a built group,
from which the workloads write their Cayley files."""

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
        owner_name, _, member = attr.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name)
        assert callable(vars(owner).get(member)), attr


def test_workloads_import_and_read_a_built_table():
    load("workloads")  # its imports from groupzagreb resolve
    G = build_family(FamilySpec("dihedral", (3,)))
    assert G.table == [G.row(x) for x in range(6)]
