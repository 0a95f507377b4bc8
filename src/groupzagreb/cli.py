"""Command-line surface: single-family reports, closed-form verification
sweeps, the catalog-wide conjecture scan, and checks of user-supplied
Cayley tables and edge lists.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 conjecture
violation found, 141 stdout closed by its reader before the output ended.
Output is deterministic: identical invocations produce byte-identical
CSV/JSON regardless of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import cache
from itertools import groupby
from typing import NamedTuple

from .build import (
    DEFAULT_ORDER_CAP,
    FAMILIES,
    CatalogEntry,
    FamilySpec,
    FamilyError,
    OrderCapError,
    CayleyFormatError,
    build_family,
    catalog,
    ingest_cayley,
)
from .formulas import Applicable, CrosscheckResult, crosscheck, registry_for
from .grp import FiniteGroup, GroupTableError
from .zagreb import (
    GraphFormatError,
    GroupReport,
    RouteMismatchError,
    Verdict,
    conjecture_verdict,
    group_report,
    read_edge_list,
    zagreb_complement,
    zagreb_direct,
    zagreb_direct_complement,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a tool the pipe stopped


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class ScanRow(NamedTuple):
    label: str
    family: str
    params: tuple[int, ...]
    order: int
    center: int
    vertices: int
    edges_c: int
    m1_c: int
    m2_c: int
    edges_nc: int
    m1_nc: int
    m2_nc: int
    verdict_c: str
    verdict_nc: str
    gap_c: str
    gap_nc: str
    formula_diffs: int

    def sort_key(self):
        return (self.order, self.family, self.params, self.label)

    def csv_fields(self) -> list:
        # params is the one non-scalar field: ";"-joined in CSV, a list in JSON
        return list(self._replace(params=";".join(map(str, self.params))))

    def json_dict(self) -> dict:
        row = self._asdict()
        row["params"] = list(self.params)
        return row


CSV_HEADER = ",".join(ScanRow._fields)

# every flag a family parameter can take, in first-use order over the table
_PARAM_NAMES = tuple(dict.fromkeys(name for fam in FAMILIES.values() for name in fam.params))


# what reading and ingesting a user's Cayley-table file can raise
_TABLE_FILE_ERRORS = (CayleyFormatError, GroupTableError, OSError, UnicodeDecodeError)

_Checks = list[tuple[Applicable, CrosscheckResult]]


def _crosschecks(G: FiniteGroup, rep: GroupReport) -> _Checks:
    """Each formula entry that applies to G, crosschecked against its report."""
    return [(app, crosscheck(app.entry, app.params, report=rep)) for app in registry_for(G)]


def _row_for_group(G: FiniteGroup, family: str, params: tuple[int, ...],
                   rep: GroupReport | None = None, checks: _Checks | None = None) -> ScanRow:
    """The scan row for G; pass ``rep`` and ``checks`` when already computed."""
    if rep is None:
        rep = group_report(G)
    if checks is None:
        checks = _crosschecks(G, rep)
    diffs = sum(len(result.diffs) for _, result in checks)
    return ScanRow(
        label=G.label,
        family=family,
        params=params,
        order=G.order,
        center=rep.center_size,
        vertices=rep.c.vertices,
        edges_c=rep.c.edges,
        m1_c=rep.c.m1,
        m2_c=rep.c.m2,
        edges_nc=rep.nc.edges,
        m1_nc=rep.nc.m1,
        m2_nc=rep.nc.m2,
        verdict_c=rep.verdict_c.status.value,
        verdict_nc=rep.verdict_nc.status.value,
        gap_c=rep.verdict_c.gap_string(),
        gap_nc=rep.verdict_nc.gap_string(),
        formula_diffs=diffs,
    )


class ScanEntryError(Exception):
    """A catalog entry failed to build or report.  The args are (label,
    message), so it pickles and crosses the worker pool intact."""

    def __str__(self) -> str:
        return "{}: {}".format(*self.args)


def _scan_worker(entry: CatalogEntry, order_cap: int,
                 seen: dict[tuple, tuple[FiniteGroup, GroupReport]]) -> ScanRow:
    """The scan row of one catalog entry.

    ``seen`` maps the ``FiniteGroup.fingerprint`` of each group reported so
    far to the group and its report.  The families overlap (M_2m[m,1] = D_2m,
    Z_q:Z_2 = D_2q, ...), so an entry whose table an earlier one already
    built takes that group's derived state and report under its own label,
    and still runs its own formula dispatch and crosschecks."""
    try:
        G = entry.build(order_cap=order_cap)
        if G.fingerprint in seen:
            H, rep = seen[G.fingerprint]
            G = H.copy_as(G.label, G.family, G.params)
            rep = rep._replace(label=G.label)
        else:
            rep = group_report(G)
            seen[G.fingerprint] = G, rep
        return _row_for_group(G, entry.family, entry.params, rep)
    except RouteMismatchError:
        raise  # its message already names the entry
    except (ValueError, RuntimeError) as exc:
        # the library's other error classes all derive from one of these
        raise ScanEntryError(entry.label, str(exc)) from exc


def _scan_order(args: tuple[list[CatalogEntry], int]) -> list[ScanRow]:
    """The scan rows of one order's catalog entries, the unit of work: only
    groups of equal order can share a table, so the memo of ``_scan_worker``
    lives for one unit and no longer."""
    entries, order_cap = args
    seen: dict[tuple, tuple[FiniteGroup, GroupReport]] = {}
    return [_scan_worker(entry, order_cap, seen) for entry in entries]


def _emit_rows(rows: list[ScanRow], fmt: str, summary: dict | None = None) -> None:
    out = sys.stdout
    if fmt == "json":
        import json

        payload: object = [r.json_dict() for r in rows]
        if summary is not None:
            payload = {"rows": payload, "summary": summary}
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow(r.csv_fields())
    if summary is not None:
        pairs = " ".join(f"{k}={v}" for k, v in summary.items())
        out.write(f"# scan: {pairs}\n")


def _parse_range(text: str, flag: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        print(
            f"groupzagreb: error: {flag} expects an integer or LO..HI range, "
            f"got {text!r}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE) from None


def _reject_foreign_flags(args, parser: _Parser) -> None:
    """A parameter flag that the family does not take is a usage error."""
    takes = FAMILIES[args.family].params
    for name in _PARAM_NAMES:
        if name not in takes and getattr(args, name) is not None:
            parser.error(f"{args.command} {args.family} does not take --{name}")


def _family_params(args, family: str, parser: _Parser) -> tuple[int, ...]:
    values = []
    for name in FAMILIES[family].params:
        v = getattr(args, name, None)
        if v is None:
            parser.error(f"family {family} requires --{name}")
        values.append(v)
    return tuple(values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_family(args, parser: _Parser) -> int:
    _reject_foreign_flags(args, parser)
    try:
        spec = FamilySpec(args.family, _family_params(args, args.family, parser))
    except FamilyError as exc:
        parser.error(str(exc))
        return EXIT_USAGE  # pragma: no cover
    try:
        G = build_family(spec, order_cap=args.order_cap)
    except OrderCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    row = _row_for_group(G, spec.family, spec.params)
    _emit_rows([row], args.format)
    return EXIT_OK


def _cmd_verify(args, parser: _Parser) -> int:
    _reject_foreign_flags(args, parser)
    ranges = []
    for name in FAMILIES[args.family].params:
        raw = getattr(args, name, None)
        if raw is None:
            parser.error(f"verify {args.family} requires --{name} (value or LO..HI)")
        ranges.append(_parse_range(raw, f"--{name}"))
    combos: list[tuple[int, ...]] = [()]
    for r in ranges:
        combos = [c + (v,) for c in combos for v in r]

    checked = skipped = 0
    failures: list[str] = []
    warnings: list[str] = []
    for params in combos:
        try:
            spec = FamilySpec(args.family, params)
        except FamilyError:
            skipped += 1
            continue
        if spec.order() > args.order_cap:
            skipped += 1
            continue
        G = build_family(spec, order_cap=args.order_cap)
        checked += 1
        for _, result in _crosschecks(G, group_report(G)):
            for d in result.diffs:
                failures.append(
                    f"{spec.label()} [{result.entry_key}{result.params}] "
                    f"{d.field}: predicted {d.predicted}, got {d.actual}"
                )
            for d in result.alt_mismatches:
                warnings.append(
                    f"{spec.label()} [{result.entry_key}{result.params}] "
                    f"alt {d.field}: {d.predicted} vs confirmed {d.actual} ({d.note})"
                )
    for w in warnings:
        print(f"warning: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    status = "FAIL" if failures else "pass"
    print(
        f"verify {args.family}: {status} "
        f"({checked} instances checked, {skipped} skipped, "
        f"{len(failures)} diffs, {len(warnings)} alt-form warnings)"
    )
    return EXIT_VALIDATION if failures else EXIT_OK


def _declared_order(fh) -> int | None:
    """The order on the first non-blank line of a Cayley file, read without
    parsing the table; None if it is not an integer (ingestion reports that)."""
    line = fh.readline()
    while line and not line.strip():
        line = fh.readline()
    try:
        return int(line)
    except ValueError:
        return None


def _cmd_scan(args, parser: _Parser) -> int:
    if args.max_order < 6:
        parser.error("--max-order must be >= 6")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 means all cores)")
    if args.catalog_extra and not os.path.isdir(args.catalog_extra):
        parser.error(f"--catalog-extra {args.catalog_extra}: not a directory")
    entries = catalog(args.max_order)
    # the pool forks all its workers up front, so never ask for more than
    # the cores; the output does not depend on the worker count
    cores = os.cpu_count() or 1
    jobs = min(args.jobs, cores) if args.jobs else cores
    # one unit of work per order; the catalog ascends by order
    work = [(list(group), args.order_cap)
            for _, group in groupby(entries, key=lambda e: e.order)]
    try:
        # name the first entry above the cap before any group is built
        for e in entries:
            e.check_cap(args.order_cap)
        if jobs > 1 and len(work) > 1:
            # imported here, so that every other command starts without it
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = [r for unit in pool.map(_scan_order, work) for r in unit]
        else:
            rows = [r for unit in map(_scan_order, work) for r in unit]
    except (OrderCapError, ScanEntryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    file_errors: list[str] = []
    if args.catalog_extra:
        for fname in sorted(os.listdir(args.catalog_extra)):
            path = os.path.join(args.catalog_extra, fname)
            if not os.path.isfile(path):
                continue
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    order = _declared_order(fh)
                    if order is not None and order > args.max_order:
                        file_errors.append(f"{path}: skipped (order {order} > max order)")
                        continue
                    fh.seek(0)
                    G = ingest_cayley(fh)
            except _TABLE_FILE_ERRORS as exc:
                file_errors.append(f"{path}: {exc}")
                continue
            if G.label == "ingested":
                G.label = fname
            if G.is_abelian():
                file_errors.append(f"{path}: skipped (Group must be non-abelian)")
                continue
            rows.append(_row_for_group(G, "ingested", ()))

    rows.sort(key=ScanRow.sort_key)
    counts = {"groups": len(rows), "strict": 0, "equality": 0, "fails": 0, "undefined": 0}
    for r in rows:
        counts[r.verdict_c] += 1
        counts[r.verdict_nc] += 1
    _emit_rows(rows, args.format, summary=counts)
    for err in file_errors:
        print(f"warning: {err}", file=sys.stderr)
    if counts["fails"]:
        violators = [r.label for r in rows if Verdict.FAILS.value in (r.verdict_c, r.verdict_nc)]
        print(
            "CONJECTURE VIOLATION: "
            f"{counts['fails']} failing verdict(s) in {', '.join(violators)}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _graph_report_rows(graph, path: str, include_complement: bool):
    base = zagreb_direct(graph)
    rows = [("graph", base)]
    if include_complement:
        comp = zagreb_direct_complement(graph)
        via_formula = zagreb_complement(base)
        if comp != via_formula:
            raise RouteMismatchError(
                f"{path}: direct complement report {comp} != complement-formula {via_formula}"
            )
        rows.append(("complement", comp))
    return rows


def _cmd_graph(args, parser: _Parser) -> int:
    try:
        with open(args.edges, "r", encoding="utf-8") as fh:
            graph = read_edge_list(fh)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {args.edges}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    items = []
    for name, rep in _graph_report_rows(graph, args.edges, args.complement):
        verdict = conjecture_verdict(rep)
        items.append({
            "graph": name,
            "vertices": rep.vertices,
            "edges": rep.edges,
            "m1": rep.m1,
            "m2": rep.m2,
            "verdict": verdict.status.value,
            "gap": verdict.gap_string(),
        })
    if args.format == "json":
        import json

        print(json.dumps(items, indent=2))
    else:
        print("graph,vertices,edges,m1,m2,verdict,gap")
        for it in items:
            print(",".join(str(it[k]) for k in
                           ("graph", "vertices", "edges", "m1", "m2", "verdict", "gap")))
    if any(it["verdict"] == Verdict.FAILS.value for it in items):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_group(args, parser: _Parser) -> int:
    try:
        with open(args.cayley, "r", encoding="utf-8") as fh:
            G = ingest_cayley(fh)
    except _TABLE_FILE_ERRORS as exc:
        print(f"error: {args.cayley}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if G.label == "ingested":
        G.label = os.path.basename(args.cayley)
    if G.is_abelian():
        print(f"error: {args.cayley}: Group must be non-abelian", file=sys.stderr)
        return EXIT_VALIDATION
    rep = group_report(G)
    checks = _crosschecks(G, rep)
    row = _row_for_group(G, "ingested", (), rep, checks)
    info = {
        "label": G.label,
        "order": G.order,
        "center": rep.center_size,
        "commutativity_degree": str(G.commutativity_degree()),  # < 1 here, so "num/den"
        "distinct_centralizers": G.count_distinct_centralizers(),
        "decomposition": (
            [list(p) for p in rep.decomposition.parts] if rep.decomposition else None
        ),
        "applicable_formulas": [
            {
                "entry": app.entry.key,
                "params": list(app.params),
                "source": app.source,
                "tags": list(app.tags),
                "diffs": len(result.diffs),
            }
            for app, result in checks
        ],
        "row": row.json_dict(),
    }
    if args.format == "json":
        import json

        print(json.dumps(info, indent=2))
    else:
        _emit_rows([row], "csv")
        print(f"# commutativity_degree: {info['commutativity_degree']}")
        print(f"# distinct_centralizers: {info['distinct_centralizers']}")
        for app in info["applicable_formulas"]:
            tags = ";".join(app["tags"])
            print(
                f"# formula: {app['entry']}{tuple(app['params'])} "
                f"source={app['source']} diffs={app['diffs']} tags={tags}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_param_flags(sub: _Parser) -> None:
    for name in _PARAM_NAMES:
        sub.add_argument(f"--{name}", type=int, default=None)


def _add_param_range_flags(sub: _Parser) -> None:
    for name in _PARAM_NAMES:
        sub.add_argument(f"--{name}", type=str, default=None,
                         help=f"{name} value or LO..HI range")


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing changes none of
    its state."""
    parser = _Parser(prog="groupzagreb",
                     description="Zagreb indices of commuting/non-commuting "
                                 "graphs of finite groups")
    sub = parser.add_subparsers(dest="command", required=True)
    families = sorted(FAMILIES)

    p_family = sub.add_parser("family", help="report for one family instance")
    p_family.add_argument("family", choices=families)
    _add_param_flags(p_family)
    p_family.add_argument("--format", choices=("csv", "json"), default="csv")
    p_family.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)

    p_verify = sub.add_parser("verify", help="closed forms vs brute force over ranges")
    p_verify.add_argument("family", choices=families)
    _add_param_range_flags(p_verify)
    p_verify.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)

    p_scan = sub.add_parser("scan", help="conjecture scan over the catalog")
    p_scan.add_argument("--max-order", type=int, default=512)
    p_scan.add_argument("--catalog-extra", type=str, default=None,
                        help="directory of Cayley-table files to include")
    p_scan.add_argument("--jobs", type=int, default=0,
                        help="worker processes, at most the number of cores "
                             "(default: all cores)")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)

    p_graph = sub.add_parser("graph", help="conjecture check for an edge-list file")
    p_graph.add_argument("--edges", required=True)
    p_graph.add_argument("--complement", action="store_true")
    p_graph.add_argument("--format", choices=("csv", "json"), default="csv")

    p_group = sub.add_parser("group", help="full report for a Cayley-table file")
    p_group.add_argument("--cayley", required=True)
    p_group.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {
        "family": _cmd_family,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
        "graph": _cmd_graph,
        "group": _cmd_group,
    }[args.command]
    try:
        code = command(args, parser)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except RouteMismatchError as exc:  # a route is broken; the message names the group
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # the reader closed stdout (``scan | head``): end quietly, with the
        # unflushed rest of the output sent to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
