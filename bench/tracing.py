"""Per-layer tracing for the benchmark's traced run.

The layers are the library's modules.  ``install`` replaces their public
functions and methods at runtime with wrappers that record one span per call:
name, start, end, parent span and item id.  Nothing in the library changes;
the wrappers live here and are installed only by a traced worker.

Spans are kept in flat arrays, which the garbage collector does not scan, and
are written out when the pass ends.  A span's self time is its duration minus
the durations of its direct children, so the self times of all spans add up
to the root spans, one per CLI call.

An item is one group or graph the CLI works on: a new item starts whenever a
direct child of the root is one of the item-opening calls (a catalog entry,
a family build, a Cayley file or an edge list).  An item's time is the sum of
its root children, so it excludes the CLI's sort and emit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

FAMILIES = (
    "dihedral", "dicyclic", "quasidihedral", "sd8n", "v8n", "u6n", "m2mn",
    "pq", "sz2", "hanaki_a1", "hanaki_a2", "gl2", "psl2",
)
# build-layer time is also split by what was built: each family, the special
# groups, Cayley-file ingestion and the catalog listing
BUILD_TAGS = FAMILIES + ("special", "ingest", "catalog")
LAYERS = ("build", "coset", "ff", "grp", "zagreb", "formulas")

# (module, attribute, span name, opens an item)
TARGETS = (
    ("groupzagreb.build", "catalog", "build.catalog", False),
    ("groupzagreb.build", "CatalogEntry.build", "build.entry", True),
    ("groupzagreb.build", "build_family", "build.family", True),
    ("groupzagreb.build", "special_group", "build.special", False),
    ("groupzagreb.build", "ingest_cayley", "build.ingest", True),
    ("groupzagreb.coset", "coset_enumerate", "coset.enumerate", False),
    ("groupzagreb.ff", "field", "ff.field", False),
    ("groupzagreb.ff", "field_of_order", "ff.field_of_order", False),
    ("groupzagreb.ff", "Field.index_tables", "ff.index_tables", False),
    ("groupzagreb.grp", "FiniteGroup.is_abelian", "grp.is_abelian", False),
    ("groupzagreb.grp", "FiniteGroup.center", "grp.center", False),
    ("groupzagreb.grp", "FiniteGroup.centralizer", "grp.centralizer", False),
    ("groupzagreb.grp", "FiniteGroup.centralizer_sizes", "grp.centralizer_sizes", False),
    ("groupzagreb.grp", "FiniteGroup.count_distinct_centralizers",
     "grp.count_distinct_centralizers", False),
    ("groupzagreb.grp", "FiniteGroup.commutativity_degree", "grp.commutativity_degree", False),
    ("groupzagreb.grp", "FiniteGroup.central_quotient", "grp.central_quotient", False),
    ("groupzagreb.grp", "FiniteGroup.validate", "grp.validate", False),
    ("groupzagreb.grp", "recognize_dihedral", "grp.recognize_dihedral", False),
    ("groupzagreb.grp", "recognize_elementary_abelian_p2", "grp.recognize_zpzp", False),
    ("groupzagreb.zagreb", "group_report", "zagreb.group_report", False),
    ("groupzagreb.zagreb", "commuting_graph", "zagreb.commuting_graph", False),
    ("groupzagreb.zagreb", "zagreb_direct", "zagreb.direct", False),
    ("groupzagreb.zagreb", "SimpleGraph.complement", "zagreb.complement_graph", False),
    ("groupzagreb.zagreb", "zagreb_complement", "zagreb.complement_formula", False),
    ("groupzagreb.zagreb", "extract_clique_decomposition", "zagreb.decomposition", False),
    ("groupzagreb.zagreb", "read_edge_list", "zagreb.read_edge_list", True),
    ("groupzagreb.formulas", "registry_for", "formulas.registry_for", False),
    ("groupzagreb.formulas", "crosscheck", "formulas.crosscheck", False),
)
ROOT_NAME = "cli.main"

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "build.calls": "count",
    "build.busy_s": "s",
    "build.table_cells": "count",
    **{f"build.busy_s.{tag}": "s" for tag in BUILD_TAGS},
    "coset.calls": "count",
    "coset.busy_s": "s",
    "ff.busy_s": "s",
    "grp.busy_s": "s",
    "grp.center_s": "s",
    "grp.centralizer_calls": "count",
    "grp.centralizer_s": "s",
    "grp.quotient_s": "s",
    "grp.recognize_s": "s",
    "grp.validate_s": "s",
    "grp.validate_checks": "count",
    "zagreb.busy_s": "s",
    "zagreb.graph_s": "s",
    "zagreb.graph_pairs": "count",
    "zagreb.direct_s": "s",
    "zagreb.direct_edges": "count",
    "zagreb.complement_s": "s",
    "zagreb.decomp_s": "s",
    "zagreb.read_s": "s",
    "zagreb.degree_classes_max": "count",
    "zagreb.route_checks": "count",
    "zagreb.route_mismatches": "count",
    "formulas.busy_s": "s",
    "formulas.registry_s": "s",
    "formulas.apps": "count",
    "formulas.quotients_built": "count",
    "formulas.quotient_hit_ratio": "ratio",
    "formulas.crosscheck_s": "s",
    "formulas.diffs": "count",
    "cli.self_s": "s",
    "trace.root_s": "s",
    "trace.spans": "count",
    "trace.items": "count",
    "trace.item_s.p50": "s",
    "trace.item_s.p_hi": "s",
    "trace.overhead_s": "s",
}

# self time of these spans makes up each named metric
_SELF_TIME_METRICS = {
    "grp.center_s": ("grp.center",),
    "grp.centralizer_s": ("grp.centralizer", "grp.centralizer_sizes",
                          "grp.count_distinct_centralizers", "grp.commutativity_degree"),
    "grp.quotient_s": ("grp.central_quotient",),
    "grp.recognize_s": ("grp.recognize_dihedral", "grp.recognize_zpzp"),
    "grp.validate_s": ("grp.validate",),
    "zagreb.graph_s": ("zagreb.commuting_graph",),
    "zagreb.direct_s": ("zagreb.direct",),
    "zagreb.complement_s": ("zagreb.complement_graph", "zagreb.complement_formula"),
    "zagreb.decomp_s": ("zagreb.decomposition",),
    "zagreb.read_s": ("zagreb.read_edge_list",),
    "formulas.registry_s": ("formulas.registry_for",),
    "formulas.crosscheck_s": ("formulas.crosscheck",),
}


def _build_tag(name: str, args) -> str:
    if name == "build.catalog":
        return "catalog"
    if name == "build.special":
        return "special"
    if name == "build.ingest":
        return "ingest"
    return getattr(args[0], "family", "?") if args else "?"


def _validate_note(default_cap):
    def note(args, kwargs, result):
        n = getattr(args[0], "order", 0)
        cap = kwargs.get("assoc_cap", args[1] if len(args) > 1 else default_cap)
        # the screen's own work: all n^3 triples up to the cap, 10 n^2 sampled above
        return {"checks": n ** 3 if n <= cap else 10 * n * n}
    return note


def _graph_note(args, kwargs, result):
    k = getattr(result, "vertex_count", 0)
    return {"pairs": k * (k - 1) // 2}


def _direct_note(args, kwargs, result):
    graph = args[0]
    degrees = graph.degrees() if hasattr(graph, "degrees") else ()
    return {"edges": getattr(graph, "edge_count", 0), "classes": len(set(degrees))}


def _registry_note(args, kwargs, result):
    apps = tuple(result)
    return {"apps": len(apps),
            "quotient_apps": sum(getattr(a, "source", "") == "quotient" for a in apps)}


def _crosscheck_note(args, kwargs, result):
    return {"diffs": len(getattr(result, "diffs", ()))}


def _order_note(args, kwargs, result):
    return {"order": getattr(result, "order", None)}


_NOTES = {
    "zagreb.commuting_graph": _graph_note,
    "zagreb.direct": _direct_note,
    "formulas.registry_for": _registry_note,
    "formulas.crosscheck": _crosscheck_note,
}


class Tracer:
    """Records spans from the wrappers it makes; one tracer per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.depth = array("H")
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []
        self._items = 0
        self._current_item = 0

    def wrap(self, name: str, fn, opens_item: bool = False, note=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        code = self._codes.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        is_build = name.startswith("build.")
        stack, codes, starts, ends = self._stack, self.code, self.start, self.end
        parents, items, depths, info = self.parent, self.item, self.depth, self.info
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            if depth == 0:
                tracer._current_item = 0
            elif depth == 1 and opens_item:
                tracer._items += 1
                tracer._current_item = tracer._items
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer._current_item)
            depths.append(depth)
            ends.append(0.0)
            if is_build:
                info[idx] = {"tag": _build_tag(name, args)}
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                info.setdefault(idx, {})["raised"] = type(exc).__name__
                raise
            else:
                ends[idx] = perf_counter()
            finally:
                stack.pop()
            if note is not None:
                info.setdefault(idx, {}).update(note(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists in the loaded library.

        A module-level function is replaced in every library module that
        imported it by name, so calls through any of those names are traced.
        """
        for module_name, attr, name, opens_item in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(member) if owner is not None else None
            if original is None:
                continue
            note = _NOTES.get(name, _order_note if name.startswith("build.") else None)
            if name == "grp.validate":
                cap = inspect.signature(original).parameters.get("assoc_cap")
                note = _validate_note(cap.default if cap is not None else 0)
            wrapped = self.wrap(name, original, opens_item, note)
            if owner_name:
                setattr(owner, member, wrapped)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "groupzagreb":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    # -- results -----------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as JSON lines: a field header, then one array per span."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "item", "depth", "info"]))
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([
                    names[self.code[i]], self.start[i], self.end[i], self.parent[i],
                    self.item[i], self.depth[i], self.info.get(i),
                ]))
                fh.write("\n")

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics of the recorded spans, plus details for the summary."""
        n = len(self.start)
        names, info = self.names, self.info
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        by_name: Counter = Counter()
        calls: Counter = Counter()
        busy: Counter = Counter()
        build_tag: Counter = Counter()
        notes: Counter = Counter()
        item_time: Counter = Counter()
        root_s = 0.0
        build_calls = table_cells = classes_max = mismatches = 0
        for i in range(n):
            name = names[self.code[i]]
            layer = name.split(".", 1)[0]
            own = duration[i] - child[i]
            by_name[name] += own
            calls[name] += 1
            busy[layer] += own
            extra = info.get(i, {})
            if layer == "build":
                build_tag[extra.get("tag")] += own
                p = self.parent[i]
                outermost = p < 0 or not names[self.code[p]].startswith("build.")
                if outermost and extra.get("order"):
                    build_calls += 1
                    table_cells += extra["order"] ** 2
            for key in ("checks", "pairs", "edges", "apps", "quotient_apps", "diffs"):
                if key in extra:
                    notes[key] += extra[key]
            classes_max = max(classes_max, extra.get("classes", 0))
            if extra.get("raised") == "RouteMismatchError":
                mismatches += 1
            if self.depth[i] == 0:
                root_s += duration[i]
            elif self.depth[i] == 1 and self.item[i] > 0:
                item_time[self.item[i]] += duration[i]

        def self_time(metric):
            return sum(by_name[s] for s in _SELF_TIME_METRICS[metric])

        quotients = calls["grp.central_quotient"]
        m = {
            "build.calls": build_calls,
            "build.busy_s": busy["build"],
            "build.table_cells": table_cells,
            **{f"build.busy_s.{tag}": build_tag[tag] for tag in BUILD_TAGS},
            "coset.calls": calls["coset.enumerate"],
            "coset.busy_s": busy["coset"],
            "ff.busy_s": busy["ff"],
            "grp.busy_s": busy["grp"],
            "grp.centralizer_calls": calls["grp.centralizer"],
            "grp.validate_checks": notes["checks"],
            "zagreb.busy_s": busy["zagreb"],
            "zagreb.graph_pairs": notes["pairs"],
            "zagreb.direct_edges": notes["edges"],
            "zagreb.degree_classes_max": classes_max,
            "zagreb.route_checks": calls["zagreb.complement_formula"],
            "zagreb.route_mismatches": mismatches,
            "formulas.busy_s": busy["formulas"],
            "formulas.apps": notes["apps"],
            "formulas.quotients_built": quotients,
            "formulas.quotient_hit_ratio": notes["quotient_apps"] / quotients if quotients else 0.0,
            "formulas.diffs": notes["diffs"],
            "cli.self_s": busy["cli"],
            "trace.root_s": root_s,
            "trace.spans": n,
        }
        for metric in _SELF_TIME_METRICS:
            m[metric] = self_time(metric)
        items = sorted(item_time.values())
        hi_pct = high_percentile(len(items))
        m["trace.items"] = len(items)
        m["trace.item_s.p50"] = nearest_rank(items, 50)
        m["trace.item_s.p_hi"] = nearest_rank(items, hi_pct)
        details = {
            "p_hi_pct": hi_pct,
            "layer_self_sum_s": sum(busy.values()),
        }
        return m, details


def high_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 of ``count`` samples above it
    (100, the maximum, when there are too few samples for that)."""
    if count <= 10:
        return 100
    return (100 * (count - 10)) // count


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]
