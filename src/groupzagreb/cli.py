"""Command-line surface: single-family reports, closed-form verification
sweeps, the catalog-wide conjecture scan, and checks of user-supplied
Cayley tables and edge lists.

Exit codes: 0 success, 1 usage error, 2 validation failure or a formula diff
(``_rows_exit``, which outranks 3), 3 conjecture violation found, 141 stdout
closed by its reader.  Any other refusal is one ``error:`` line (``_refuse``)
that names the group or file: every group a command reports, from the catalog,
a family or a Cayley file, is read, built and reported inside ``_naming``.
Output is deterministic: identical invocations produce byte-identical
CSV/JSON regardless of --jobs.

The grammar is one table, ``COMMANDS``: each command's help, whether it
takes a family name, and each flag's type or choices, default, whether it is
required, and help.  ``main`` reads a well-formed command line straight from
that table (``_read_argv``): the command, the family name for ``family`` and
``verify``, then exact long flags, each at most once and each value its own
token.  Anything else (``--help``, an abbreviation, ``--flag=value``, a
repeat, a value starting with "-", a bad value, a missing required flag) goes
to argparse, which ``build_parser`` builds from the same table only then, so
help, usage and error texts are argparse's own.  A well-formed call never
imports argparse, nor the ``gettext`` and ``locale`` it loads, which saves
about 2 ms per process (README, "CLI").
"""

from __future__ import annotations

import csv
import os
import sys
from contextlib import contextmanager
from functools import cache
from itertools import groupby
from math import prod
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn

from .build import (
    FAMILIES,
    CatalogEntry,
    FamilySpec,
    FamilyError,
    NormalForm,
    OrderCapError,
    CayleyFormatError,
    build_family,
    catalog,
    ingest_cayley,
)
from .formulas import Applicable, FieldDiff, crosschecks, dispatch, registry_for
from .grp import AbelianGroupError, FiniteGroup, GroupTableError
from .zagreb import (
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

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a tool the pipe stopped

DEFAULT_ORDER_CAP = 5000


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


class GraphRow(NamedTuple):
    """The report of an edge-list graph, or of its complement."""

    graph: str
    vertices: int
    edges: int
    m1: int
    m2: int
    verdict: str
    gap: str


# every flag a family parameter can take, in first-use order over the table
_PARAM_NAMES = tuple(dict.fromkeys(name for fam in FAMILIES.values() for name in fam.params))


# what reading and ingesting a user's Cayley-table file can raise, which
# skips a --catalog-extra file with a warning
_TABLE_FILE_ERRORS = (CayleyFormatError, GroupTableError, OSError, UnicodeDecodeError)

_Checks = list[tuple[Applicable, tuple[FieldDiff, ...]]]


def _row_for_group(G: FiniteGroup, label: str, family: str, params: tuple[int, ...],
                   rep: GroupReport, checks: _Checks | None = None) -> ScanRow:
    """The scan row that names G ``label``, of ``family`` at ``params``, from
    its report ``rep``; pass ``checks`` when already computed.  The row
    prints no tags, so the checks come from the tagless dispatch."""
    if checks is None:
        checks = crosschecks(dispatch(G, family, params), rep)
    diffs = sum(len(d) for _, d in checks)
    return ScanRow(
        label=label,
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


def _refuse(message: str) -> int:
    """EXIT_VALIDATION, after the one stderr line ``error: <message>``."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_VALIDATION


def _rows_exit(rows: list[ScanRow]) -> int:
    """The exit code of a report's printed rows: EXIT_VIOLATION, after a line
    naming the rows whose verdict fails, unless a formula diff, named on the
    next line, makes it EXIT_VALIDATION, as a wrong route outranks a verdict."""
    fails = Verdict.FAILS.value
    if violators := [r for r in rows if fails in (r.verdict_c, r.verdict_nc)]:
        count = sum((r.verdict_c, r.verdict_nc).count(fails) for r in violators)
        print(f"CONJECTURE VIOLATION: {count} failing verdict(s) in "
              f"{', '.join(r.label for r in violators)}", file=sys.stderr)
    if labels := [r.label for r in rows if r.formula_diffs]:
        return _refuse(f"{sum(r.formula_diffs for r in rows)} formula diff(s) in "
                       f"{', '.join(labels)}")
    return EXIT_VIOLATION if violators else EXIT_OK


class ScanEntryError(Exception):
    """A group failed to read, build or report.  The args are (label,
    message), so it pickles and crosses the worker pool intact."""

    def __str__(self) -> str:
        return "{}: {}".format(*self.args)


@contextmanager
def _naming(label: str):
    """Raise a failure of the block that reads, builds or reports the group
    ``label``, a catalog label or a file's path, as a ScanEntryError naming
    it: "the group does not fit in memory" past memory or an index, the
    library's own errors (each a ValueError or RuntimeError) and an OSError
    by their message, any other by its type too.  A route mismatch names the
    group already.  No block prints: a closed stdout's BrokenPipeError, an
    OSError, must reach ``main``."""
    try:
        yield
    except RouteMismatchError:
        raise
    except (MemoryError, OverflowError) as exc:
        raise ScanEntryError(label, "the group does not fit in memory") from exc
    except (ValueError, RuntimeError, OSError) as exc:
        raise ScanEntryError(label, str(exc)) from exc
    except Exception as exc:
        raise ScanEntryError(label, f"{type(exc).__name__}: {exc}") from exc


def _scan_order(entries: list[CatalogEntry]) -> list[ScanRow]:
    """The scan rows of one order's catalog entries, the unit of work.

    ``seen`` maps the normal form (``CatalogEntry.form``) of each group
    reported so far to the group and its report.  The families overlap
    (M_2m[m,1] = D_2m, Z_q:Z_2 = D_2q, QD_16 = SD_16, A_5 = PSL(2,4), ...),
    and equal forms build equal tables, so the form is looked up before
    anything is built: an entry whose form an earlier one already built is
    not built at all, but reuses that group and its report, and still runs
    the formula dispatch and crosschecks of its own family and params under
    its own label.  Only groups of equal order can share a table, so the
    memo lives for one unit and no longer."""
    seen: dict[NormalForm, tuple[FiniteGroup, GroupReport]] = {}
    rows = []
    for entry in entries:
        with _naming(entry.label):
            form = entry.form()
            if form not in seen:
                G = entry.build()
                seen[form] = G, group_report(G)
            G, rep = seen[form]
            rows.append(_row_for_group(G, entry.label, entry.family, entry.params, rep))
    return rows


def _emit_rows(rows: list[ScanRow] | list[GraphRow], fmt: str,
               summary: dict | None = None) -> None:
    """Print ``rows``, at least one and all of one type, as a JSON list of
    objects or as CSV under a header of the field names; a tuple field, such
    as ``params``, is a list in JSON and ";"-joined in CSV.  A ``summary``
    wraps the list, or follows the CSV as one comment line."""
    out = sys.stdout
    if fmt == "json":
        import json

        payload: object = [r._asdict() for r in rows]
        if summary is not None:
            payload = {"rows": payload, "summary": summary}
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0]._fields)
    for r in rows:
        writer.writerow([";".join(map(str, v)) if isinstance(v, tuple) else v for v in r])
    if summary is not None:
        pairs = " ".join(f"{k}={v}" for k, v in summary.items())
        out.write(f"# scan: {pairs}\n")


def _parse_range(text: str, flag: str) -> range:
    try:
        lo, sep, hi = text.partition("..")
        lo, hi = int(lo), int(hi if sep else lo)
        if hi < lo:
            raise ValueError
        return range(lo, hi + 1)
    except ValueError:
        print(
            f"groupzagreb: error: {flag} expects an integer or LO..HI range, "
            f"got {text!r}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE) from None


def _usage_error(message: str) -> NoReturn:
    """Exit 1 with the usage line and ``message``, as argparse's own usage
    errors do."""
    build_parser().error(message)


def _reject_foreign_flags(args) -> None:
    """A parameter flag that the family does not take is a usage error."""
    takes = FAMILIES[args.family].params
    for name in _PARAM_NAMES:
        if name not in takes and getattr(args, name) is not None:
            _usage_error(f"{args.command} {args.family} does not take --{name}")


def _family_params(args) -> tuple[int, ...]:
    values = []
    for name in FAMILIES[args.family].params:
        v = getattr(args, name, None)
        if v is None:
            _usage_error(f"family {args.family} requires --{name}")
        values.append(v)
    return tuple(values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_family(args) -> int:
    _reject_foreign_flags(args)
    try:
        spec = FamilySpec(args.family, _family_params(args),
                          order_cap=args.order_cap)
    except FamilyError as exc:
        _usage_error(str(exc))
    except OrderCapError as exc:
        return _refuse(str(exc))
    with _naming(spec.label()):
        G = build_family(spec)
        row = _row_for_group(G, spec.label(), spec.family, spec.params, group_report(G))
    _emit_rows([row], args.format)
    return _rows_exit([row])


def _cmd_verify(args) -> int:
    _reject_foreign_flags(args)
    ranges = []
    for name in FAMILIES[args.family].params:
        raw = getattr(args, name, None)
        if raw is None:
            _usage_error(f"verify {args.family} requires --{name} (value or LO..HI)")
        ranges.append(_parse_range(raw, f"--{name}"))
    # every family refuses a parameter below 1, and the cap one above it, so
    # only the values in [1, cap] are tried, each range up to the first value
    # whose order is above the cap; every other combination is skipped
    tried = [range(max(r.start, 1), min(r.stop, args.order_cap + 1)) for r in ranges]
    checked = 0
    failures: list[str] = []
    warnings: list[str] = []
    for params in FAMILIES[args.family].within(tried, args.order_cap):
        try:
            spec = FamilySpec(args.family, params, order_cap=args.order_cap)
        except FamilyError:  # ``within`` yields only tuples within the cap
            continue
        checked += 1
        with _naming(spec.label()):
            G = build_family(spec)
            checks = crosschecks(dispatch(G, spec.family, spec.params), group_report(G))
        for app, diffs in checks:
            for d in diffs:
                failures.append(
                    f"{spec.label()} [{app.entry.key}{app.params}] "
                    f"{d.field}: predicted {d.predicted}, got {d.actual}"
                )
            for d in app.entry.alt_mismatches(app.params):
                warnings.append(
                    f"{spec.label()} [{app.entry.key}{app.params}] "
                    f"alt {d.field}: {d.predicted} vs confirmed {d.actual} ({d.note})"
                )
    for w in warnings:
        print(f"warning: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    status = "FAIL" if failures else "pass"
    # a range may be too long for len(), so its size is stop - start
    skipped = prod(r.stop - r.start for r in ranges) - checked
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


def _cmd_scan(args) -> int:
    if args.max_order < 6:
        _usage_error("--max-order must be >= 6")
    if args.jobs < 0:
        _usage_error("--jobs must be >= 0 (0 means all cores)")
    if args.catalog_extra and not os.path.isdir(args.catalog_extra):
        _usage_error(f"--catalog-extra {args.catalog_extra}: not a directory")
    # a dihedral group lies at every even order from 6, so the first entry
    # above the cap, if any, is at most two past it: a listing that stops
    # there and finds none has reached --max-order, the whole catalog
    entries = catalog(min(args.max_order, max(args.order_cap + 2, 6)))
    for e in entries:  # ascending by order
        if e.order > args.order_cap:
            return _refuse(f"{e.label} has order {e.order}, above the cap {args.order_cap}")
    # the pool forks all its workers up front, so never ask for more than
    # the cores; the output does not depend on the worker count
    cores = os.cpu_count() or 1
    jobs = min(args.jobs, cores) if args.jobs else cores
    # one unit of work per order; the catalog ascends by order
    work = [list(group) for _, group in groupby(entries, key=lambda e: e.order)]
    if jobs > 1 and len(work) > 1:
        # imported here, so that every other command starts without it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [r for unit in pool.map(_scan_order, work) for r in unit]
    else:
        rows = [r for unit in map(_scan_order, work) for r in unit]

    file_errors: list[str] = []
    if args.catalog_extra:
        for fname in sorted(os.listdir(args.catalog_extra)):
            path = os.path.join(args.catalog_extra, fname)
            if not os.path.isfile(path):
                continue
            with _naming(path):
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        order = _declared_order(fh)
                        if order is not None and order > args.max_order:
                            file_errors.append(f"{path}: skipped (order {order} > max order)")
                            continue
                        fh.seek(0)
                        G = ingest_cayley(fh, fname)
                    rows.append(_row_for_group(G, G.label, "ingested", (), group_report(G)))
                except _TABLE_FILE_ERRORS as exc:
                    file_errors.append(f"{path}: {exc}")
                except AbelianGroupError as exc:
                    file_errors.append(f"{path}: skipped ({exc})")

    rows.sort(key=lambda r: (r.order, r.family, r.params, r.label))
    counts = {"groups": len(rows), "strict": 0, "equality": 0, "fails": 0, "undefined": 0}
    for r in rows:
        counts[r.verdict_c] += 1
        counts[r.verdict_nc] += 1
    _emit_rows(rows, args.format, summary=counts)
    for err in file_errors:
        print(f"warning: {err}", file=sys.stderr)
    return _rows_exit(rows)


def _cmd_graph(args) -> int:
    try:
        try:
            with open(args.edges, "r", encoding="utf-8") as fh:
                graph = read_edge_list(fh)
        except (OSError, ValueError) as exc:
            return _refuse(f"{args.edges}: {exc}")
        reports = {"graph": zagreb_direct(graph)}
        if args.complement:
            comp = zagreb_direct_complement(graph)
            via_formula = zagreb_complement(reports["graph"])
            if comp != via_formula:
                raise RouteMismatchError(f"{args.edges}: direct complement report {comp} "
                                         f"!= complement-formula {via_formula}")
            reports["complement"] = comp
    except (MemoryError, OverflowError):  # more vertices than fit in memory or an index
        return _refuse(f"{args.edges}: the graph does not fit in memory")
    rows = []
    for name, rep in reports.items():
        verdict = conjecture_verdict(rep)
        rows.append(GraphRow(name, rep.vertices, rep.edges, rep.m1, rep.m2,
                             verdict.status.value, verdict.gap_string()))
    _emit_rows(rows, args.format)
    return EXIT_VIOLATION if any(r.verdict == Verdict.FAILS.value for r in rows) else EXIT_OK


def _cmd_group(args) -> int:
    with _naming(args.cayley):
        with open(args.cayley, "r", encoding="utf-8") as fh:
            G = ingest_cayley(fh, os.path.basename(args.cayley))
        rep = group_report(G)
        checks = crosschecks(registry_for(G), rep)
        row = _row_for_group(G, G.label, "ingested", (), rep, checks)
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
                    "diffs": len(diffs),
                }
                for app, diffs in checks
            ],
            "row": row._asdict(),
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
    return _rows_exit([row])


# ---------------------------------------------------------------------------
# the command table, its reader and its argparse parser
# ---------------------------------------------------------------------------

class Flag(NamedTuple):
    """A long flag ``--name``.  An int or str flag takes one value, a bool
    flag none (it stores True)."""

    name: str
    type: type = str
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        """The attribute that holds the value, named as argparse names it."""
        return self.name.replace("-", "_")


class Command(NamedTuple):
    run: Callable[..., int]
    help: str
    flags: tuple[Flag, ...]
    family: bool = False  # the family name comes first, as a positional


_FORMAT = Flag("format", choices=("csv", "json"), default="csv")
_ORDER_CAP = Flag("order-cap", int, DEFAULT_ORDER_CAP)

COMMANDS = {
    "family": Command(_cmd_family, "report for one family instance", (
        *(Flag(name, int) for name in _PARAM_NAMES), _FORMAT, _ORDER_CAP), family=True),
    "verify": Command(_cmd_verify, "closed forms vs brute force over ranges", (
        *(Flag(name, help=f"{name} value or LO..HI range") for name in _PARAM_NAMES),
        _ORDER_CAP), family=True),
    "scan": Command(_cmd_scan, "conjecture scan over the catalog", (
        Flag("max-order", int, 512),
        Flag("catalog-extra", help="directory of Cayley-table files to include"),
        Flag("jobs", int, 0, help="worker processes, at most the number of cores "
                                  "(default: all cores)"),
        _FORMAT, _ORDER_CAP)),
    "graph": Command(_cmd_graph, "conjecture check for an edge-list file", (
        Flag("edges", required=True), Flag("complement", bool, False), _FORMAT)),
    "group": Command(_cmd_group, "full report for a Cayley-table file", (
        Flag("cayley", required=True), _FORMAT)),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The attributes ``build_parser().parse_args(argv)`` sets, for the one
    form read here: a command, the family name if it takes one, then its
    exact long flags, each at most once, each value its own token that does
    not start with "-", ints read by ``int()`` and choices checked, every
    required flag given.  None for any other argv, which argparse then reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = COMMANDS[argv[0]]
    values = {"command": argv[0]}
    tokens = iter(argv[1:])
    if command.family:
        values["family"] = next(tokens, None)
        if values["family"] not in FAMILIES:
            return None
    values.update((flag.dest, flag.default) for flag in command.flags)
    unread = {f"--{flag.name}": flag for flag in command.flags}
    for token in tokens:
        flag = unread.pop(token, None)  # so a repeated flag is not found
        if flag is None:
            return None
        if flag.type is bool:
            values[flag.dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as a flag
        if value.startswith("-"):
            return None
        if flag.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    if any(flag.required for flag in unread.values()):
        return None
    return SimpleNamespace(**values)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``, built once per process, and only
    for a command line that ``_read_argv`` does not read or for a usage
    error: parsing changes none of its state."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # usage problems exit 1, not argparse's 2
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = Parser(prog="groupzagreb",
                    description="Zagreb indices of commuting/non-commuting "
                                "graphs of finite groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.family:
            p.add_argument("family", choices=sorted(FAMILIES))
        for flag in command.flags:
            if flag.type is bool:
                p.add_argument(f"--{flag.name}", action="store_true", help=flag.help)
            else:
                p.add_argument(f"--{flag.name}", type=flag.type, default=flag.default,
                               choices=flag.choices, required=flag.required, help=flag.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:  # help, or a usage error that argparse words
        args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command].run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except (RouteMismatchError, ScanEntryError) as exc:  # the message names the group
        return _refuse(str(exc))
    except BrokenPipeError:
        # the reader closed stdout (``scan | head``): end quietly, with the
        # unflushed rest of the output sent to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
