"""End-to-end CLI behavior: output shape, determinism, exit codes."""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import pickle
import re
import runpy
import subprocess
import sys
import tracemalloc
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupzagreb import cli, ff, formulas, zagreb
from groupzagreb.build import (
    FAMILIES,
    CatalogEntry,
    FamilyError,
    FamilySpec,
    OrderCapError,
    build_family,
    catalog,
    ingest_cayley,
    special_group,
)
from groupzagreb.cli import ScanRow, main
from groupzagreb.coset import Presentation, PresentationError
from groupzagreb.grp import FiniteGroup
from groupzagreb.zagreb import CliqueDecomposition
import graph_oracles
from test_bench_names import load as load_bench
from test_build import cyclic
from test_grp import extraspecial_32, relabelled


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(out):
    text = "\n".join(ln for ln in out.splitlines() if ln and not ln.startswith("#"))
    records = list(csv.reader(io.StringIO(text)))
    assert records[0] == list(ScanRow._fields)
    return [dict(zip(records[0], rec)) for rec in records[1:]]


def cayley_file(tmp_path, G, fname):
    path = tmp_path / fname
    body = [str(G.order)] + [" ".join(map(str, row)) for row in G.table]
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    return path


# -- family --------------------------------------------------------------------

def test_family_dihedral_4(capsys):
    code, out, _ = run(capsys, "family", "dihedral", "--m", "4")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["m1_c"] == "6" and row["m2_c"] == "3"
    assert row["verdict_c"] == "equality" and row["verdict_nc"] == "equality"
    assert row["gap_c"] == "0/1"
    assert row["formula_diffs"] == "0"


def test_family_gl2_3(capsys):
    code, out, _ = run(capsys, "family", "gl2", "--q", "3")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["order"] == "48" and row["center"] == "2"


def test_family_pq_3_7(capsys):
    code, out, _ = run(capsys, "family", "pq", "--p", "3", "--q", "7")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["m1_c"] == "164"


def test_family_json_deterministic(capsys):
    code, out1, _ = run(capsys, "family", "sz2", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "family", "sz2", "--format", "json")
    assert out1 == out2
    (obj,) = json.loads(out1)
    assert obj["m1_nc"] == 4740 and obj["m2_nc"] == 37440


def test_family_missing_param_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "dihedral"])
    assert exc.value.code == 1


def test_family_invalid_param_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "dihedral", "--m", "2"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["family", "m2mn", "--m", "4", "--n", "1"])
    assert exc.value.code == 1


def test_family_rejects_a_flag_the_family_does_not_take(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "dihedral", "--m", "3", "--k", "9"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "groupzagreb: error: family dihedral does not take --k"


def test_family_order_cap_is_validation_error(capsys):
    code, out, err = run(capsys, "family", "psl2", "--k", "3", "--order-cap", "100")
    assert (code, out, err) == (2, "", "error: PSL(2,8) has order 504, above the cap 100\n")



def test_family_past_an_index_under_a_raised_cap_is_one_error_line(capsys):
    # the raised cap lets D_(2*(10^20 - 1)) through, whose element list is
    # longer than an index holds, so the build fails before it allocates
    code, out, err = run(capsys, "family", "dihedral", "--m", "99999999999999999999",
                         "--order-cap", "9" * 42)
    assert (code, out, err) == (
        2, "", "error: D_199999999999999999998: the group does not fit in memory\n")


def test_verify_past_an_index_under_a_raised_cap_is_one_error_line(capsys):
    # verify builds the same group as family above and stops with its line
    code, out, err = run(capsys, "verify", "dihedral", "--m", "99999999999999999999",
                         "--order-cap", "9" * 43)
    assert (code, out, err) == (
        2, "", "error: D_199999999999999999998: the group does not fit in memory\n")


# orders too long to print (4^10000, 2^60000, 2^14400, 3^9300, the
# 4301-digit 2*6e4299) or to compute at all (2^3000000000, also under a
# raised cap): the refusal names the parameters, and the order is computed
# only when it is small enough to print
_BIG_M = "6" + "0" * 4299


@pytest.mark.parametrize("argv,line", [
    (("hanaki_a1", "--n", "10000"),
     "error: hanaki_a1 n=10000 has an order too long to print, above the cap 5000"),
    (("psl2", "--k", "20000"),
     "error: psl2 k=20000 has an order too long to print, above the cap 5000"),
    (("hanaki_a2", "--n", "1000000000", "--p", "2"),
     "error: hanaki_a2 n=1000000000, p=2 has an order too long to print, above the cap 5000"),
    (("psl2", "--k", "4800"),
     "error: psl2 k=4800 has an order too long to print, above the cap 5000"),
    (("hanaki_a2", "--n", "4800", "--p", "2"),
     "error: hanaki_a2 n=4800, p=2 has an order too long to print, above the cap 5000"),
    (("hanaki_a2", "--n", "3100", "--p", "3"),
     "error: hanaki_a2 n=3100, p=3 has an order too long to print, above the cap 5000"),
    (("dihedral", "--m", _BIG_M),
     f"error: dihedral m={_BIG_M} has an order too long to print, above the cap 5000"),
    (("hanaki_a2", "--n", "1000000000", "--p", "2", "--order-cap", "10000000000"),
     "error: hanaki_a2 n=1000000000, p=2 has an order too long to print,"
     " above the cap 10000000000"),
    # a printable order is named, whatever the size of the parameter
    (("dihedral", "--m", "6000"), "error: D_12000 has order 12000, above the cap 5000"),
    (("psl2", "--k", "20"),
     "error: PSL(2,1048576) has order 1152921504605798400, above the cap 5000"),
], ids=["a1-10000", "psl2-20000", "a2-1e9", "psl2-4800", "a2-4800-2", "a2-3100-3",
        "dihedral-4300-digits", "a2-1e9-raised-cap", "dihedral-6000", "psl2-20"])
def test_family_huge_parameter_is_one_line_validation_error(capsys, argv, line):
    code, out, err = run(capsys, "family", *argv)
    assert (code, out, err) == (2, "", line + "\n")


# a prime whose trial division, in a family's validity rule, would run for
# hours: a parameter above the cap is refused as over the cap before the
# rule runs, even where the rule would also refuse it (gl2 --q 10000)
_HUGE_PRIME = "1000000000000000003"


def _no_trial_division(monkeypatch):
    def refuse(n):
        pytest.fail(f"the validity rule ran on {n}")
    monkeypatch.setattr(ff, "is_prime", refuse)
    monkeypatch.setattr(ff, "prime_power", refuse)


@pytest.mark.parametrize("argv,line", [
    (("hanaki_a2", "--n", "1", "--p", _HUGE_PRIME),
     f"error: A(1,{_HUGE_PRIME}) has order"
     " 1000000000000000009000000000000000027000000000000000027, above the cap 5000"),
    (("gl2", "--q", _HUGE_PRIME),
     f"error: GL(2,{_HUGE_PRIME}) has order 10000000000000000110000000000000000440000"
     "00000000000076000000000000000048, above the cap 5000"),
    (("pq", "--p", "2", "--q", _HUGE_PRIME),
     f"error: Z_{_HUGE_PRIME}:Z_2 has order 2000000000000000006, above the cap 5000"),
    (("gl2", "--q", "10000"), "error: GL(2,10000) has order 9998999900010000, above the cap 5000"),
    # with a parameter below 1 no order is named
    (("pq", "--p", _HUGE_PRIME, "--q", "0"),
     f"error: pq p={_HUGE_PRIME}, q=0 has a parameter above the cap 5000"),
], ids=["a2-prime", "gl2-prime", "pq-prime", "gl2-10000", "pq-q0"])
def test_family_parameter_above_the_cap_skips_the_validity_rule(capsys, monkeypatch, argv,
                                                                 line):
    _no_trial_division(monkeypatch)
    code, out, err = run(capsys, "family", *argv)
    assert (code, out, err) == (2, "", line + "\n")


def test_family_parameter_within_the_cap_keeps_its_validity_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "gl2", "--q", "4998"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "groupzagreb: error: gl2(4998,): q must be a prime power > 2")


# -- verify ---------------------------------------------------------------------

def test_verify_dihedral_sweep(capsys):
    code, out, _ = run(capsys, "verify", "dihedral", "--m", "3..20")
    assert code == 0
    assert "pass" in out and "18 instances" in out


def test_verify_v8n_warns_on_alt_forms(capsys):
    code, out, _ = run(capsys, "verify", "v8n", "--n", "1..6")
    assert code == 0
    assert "pass" in out
    assert "alt m1_nc" in out  # statement-version polynomials flagged


def test_verify_m2mn_skips_m4(capsys):
    code, out, _ = run(capsys, "verify", "m2mn", "--m", "3..5", "--n", "1..2")
    assert code == 0
    assert "4 instances checked, 2 skipped" in out


@pytest.mark.parametrize("argv", [
    ("hanaki_a2", "--n", "1000000000", "--p", "2"),
    ("hanaki_a2", "--n", "4800", "--p", "2"),
    ("psl2", "--k", "4800"),
], ids=["a2-1e9", "a2-4800-2", "psl2-4800"])
def test_verify_skips_a_huge_parameter(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert "0 instances checked, 1 skipped" in out


def test_verify_skips_a_huge_prime_parameter(capsys, monkeypatch):
    _no_trial_division(monkeypatch)
    code, out, err = run(capsys, "verify", "gl2", "--q", _HUGE_PRIME)
    assert (code, err) == (0, "")
    assert "0 instances checked, 1 skipped" in out


def test_family_without_parameters_under_a_negative_cap(capsys):
    # no parameter to refuse early: the order itself is over the cap
    code, out, err = run(capsys, "family", "sz2", "--order-cap", "-1")
    assert (code, out, err) == (2, "", "error: Sz(2) has order 20, above the cap -1\n")
    code, out, err = run(capsys, "verify", "sz2", "--order-cap", "-1")
    assert (code, err) == (0, "")
    assert out == ("verify sz2: pass (0 instances checked, 1 skipped, 0 diffs, "
                   "0 alt-form warnings)\n")


def test_verify_stops_each_range_at_the_order_cap(capsys, monkeypatch):
    # M_2mn has order 2mn, so under the cap 600 the range of m stops at 301
    # and, for each m, the range of n at the first n with 2mn > 600: about
    # 300 * ln(300) specs, not the 360,000 of [1, 600]^2
    specs = [0]

    def counted(*args, **kwargs):
        specs[0] += 1
        return FamilySpec(*args, **kwargs)

    monkeypatch.setattr(cli, "FamilySpec", counted)
    code, out, err = run(capsys, "verify", "m2mn", "--m", "1..100000", "--n", "1..100000",
                         "--order-cap", "600")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "verify m2mn: pass (1242 instances checked, 9999998758 skipped, 0 diffs, "
        "0 alt-form warnings)")
    assert specs[0] < 2000


def test_verify_stops_a_range_without_a_huge_power(capsys, monkeypatch):
    # under a raised cap the range of n reaches 10^9, where p = 1 keeps the
    # order 1; for p = 2 the stop bounds the order as the cap check does, and
    # never computes 2^(3*10^9)
    fam = FAMILIES["hanaki_a2"]

    def order(n, p):
        assert p < 2 or n < 10 ** 6
        return fam.order(n, p)

    monkeypatch.setitem(FAMILIES, "hanaki_a2", fam._replace(order=order))
    code, out, err = run(capsys, "verify", "hanaki_a2", "--n", "1000000000", "--p", "1..2",
                         "--order-cap", "10000000000")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == ("verify hanaki_a2: pass (0 instances checked, 2 skipped, "
                                    "0 diffs, 0 alt-form warnings)")


def test_verify_tries_the_instances_in_the_order_of_the_ranges():
    # the stop drops only tuples whose order is above the cap, which
    # FamilySpec refuses, and keeps the rest in the order of the ranges
    for family, cap in [("m2mn", 60), ("hanaki_a2", 200), ("pq", 100), ("psl2", 5000),
                        ("sz2", 19), ("sz2", 20)]:
        ranges = [range(1, cap + 1)] * len(FAMILIES[family].params)
        kept = []
        for params in itertools.product(*ranges):
            try:
                FamilySpec(family, params, order_cap=cap)
            except (FamilyError, OrderCapError):
                continue
            kept.append(params)
        tried = list(FAMILIES[family].within(ranges, cap))
        assert [ps for ps in tried if FAMILIES[family].check(*ps) is None] == kept


@pytest.mark.parametrize("cap", [1, 60, 10 ** 4299], ids=["1", "60", "1e4299"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_tries_no_tuple_above_the_cap(family, cap):
    # verify skips a FamilyError alone: every tuple ``within`` yields from
    # ranges clipped to [1, cap], as verify clips them, is within the cap.
    # ``past`` straddles 14285, the bit length of 10^4300 that an order
    # bound clamps a parameter to, and QD_2^n crosses 10^4299 at n = 14281
    k = len(FAMILIES[family].params)
    small, past = range(-2, 9), range(14279, 14290)
    for ranges in [(small,) * k, (past,) * k, (small, past)[:k], (past, small)[:k]]:
        tried = [range(max(r.start, 1), min(r.stop, cap + 1)) for r in ranges]
        for params in FAMILIES[family].within(tried, cap):
            try:
                FamilySpec(family, params, order_cap=cap)
            except FamilyError:
                pass


def test_verify_skips_huge_orders_in_a_range(capsys):
    code, out, err = run(capsys, "verify", "psl2", "--k", "2..5000")
    assert (code, err) == (0, "")
    assert "3 instances checked, 4996 skipped, 0 diffs" in out


# verify tries only the parameters in [1, cap] and counts every other
# combination as skipped, without listing them
@pytest.mark.parametrize("argv,summary", [
    (("m2mn", "--m", "1..100000", "--n", "1..100000", "--order-cap", "60"),
     "verify m2mn: pass (59 instances checked, 9999999941 skipped, 0 diffs, "
     "0 alt-form warnings)"),
    (("dihedral", "--m", "1..1000000000", "--order-cap", "100"),
     "verify dihedral: pass (48 instances checked, 999999952 skipped, 0 diffs, "
     "1 alt-form warnings)"),
    # longer than 2^63, past what len() of a range can count
    (("dihedral", "--m", "1..100000000000000000000", "--order-cap", "100"),
     "verify dihedral: pass (48 instances checked, 99999999999999999952 skipped, 0 diffs, "
     "1 alt-form warnings)"),
    (("pq", "--p=-3..5", "--q=-2..13"),
     "verify pq: pass (8 instances checked, 136 skipped, 0 diffs, 16 alt-form warnings)"),
    (("hanaki_a2", "--n=-1..2", "--p=-5..7", "--order-cap", "200"),
     "verify hanaki_a2: pass (4 instances checked, 48 skipped, 0 diffs, "
     "3 alt-form warnings)"),
    (("dihedral", "--m=-5..30", "--order-cap=-7"),
     "verify dihedral: pass (0 instances checked, 36 skipped, 0 diffs, 0 alt-form warnings)"),
], ids=["m2mn-1e10", "dihedral-1e9", "dihedral-1e20", "pq-negative", "a2-mixed",
        "negative-cap"])
def test_verify_counts_what_it_does_not_try(capsys, argv, summary):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == summary


def test_verify_rejects_a_flag_the_family_does_not_take(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "pq", "--p", "2..3", "--q", "3..7", "--n", "2"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "groupzagreb: error: verify pq does not take --n"


def test_verify_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "dihedral", "--m", "3..x"])
    assert exc.value.code == 1


def test_verify_families_script_passes(capsys):
    # the documented sweep of every family's closed forms, run in-process
    script = Path(__file__).parents[1] / "scripts" / "verify_families.py"
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.count("== verify ") == 13
    assert "FAIL" not in out


# sha256 of the sweep's stdout, alt-form warnings included; a change to any
# closed form, alternate form or equality flag changes it.  Recorded with the
# sweep at gl2 --q 3..8 and psl2 --k 2..4 on the dict-lookup matrix builders,
# before the column-key rows replaced them
VERIFY_FAMILIES_STDOUT_SHA256 = "6628b01c02d2eb8563e8086a289137ce4f54bf4fc01ba736e3de70f18a2a8860"


def test_verify_families_script_stdout_is_pinned(capsys):
    script = Path(__file__).parents[1] / "scripts" / "verify_families.py"
    with pytest.raises(SystemExit):
        runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FAMILIES_STDOUT_SHA256


# -- scan -----------------------------------------------------------------------

EXPECTED_EQUALITY_AT_16 = {
    "Q_8", "D_8", "A(1,2)", "V_8", "A(2,nu)", "V_16",
    "D_8*Z_4", "M_16", "SG(16,3)", "Z_2xD_8", "Z_2xQ_8", "Z_4:Z_4",
}


def test_scan_16_equality_rows(capsys):
    code, out, err = run(capsys, "scan", "--max-order", "16", "--jobs", "1")
    assert code == 0
    rows = csv_rows(out)
    eq = {r["label"] for r in rows if r["verdict_c"] == "equality"}
    assert eq == EXPECTED_EQUALITY_AT_16
    # equality on C implies equality on NC here and vice versa
    for r in rows:
        assert (r["verdict_c"] == "equality") == (r["verdict_nc"] == "equality")
        assert r["verdict_c"] in ("strict", "equality")
        assert r["formula_diffs"] == "0"
    assert "# scan:" in out and "fails=0" in out


def test_scan_jobs_do_not_change_bytes(capsys):
    code, out1, _ = run(capsys, "scan", "--max-order", "16", "--jobs", "1")
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--max-order", "16", "--jobs", "2")
    assert code == 0
    assert out1 == out2


def test_scan_caps_jobs_at_the_core_count(capsys, monkeypatch):
    # a stand-in pool that records its size and maps serially, so no
    # process is started whatever --jobs asks for
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    code, capped, _ = run(capsys, "scan", "--max-order", "16", "--jobs", "100000")
    assert code == 0
    assert asked == [4]
    code, serial, _ = run(capsys, "scan", "--max-order", "16", "--jobs", "1")
    assert code == 0
    assert capped == serial


def test_scan_128_jobs_do_not_change_bytes(capsys):
    code, out1, _ = run(capsys, "scan", "--max-order", "128", "--jobs", "1")
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--max-order", "128", "--jobs", "2")
    assert code == 0
    assert out1 == out2


def test_scan_shares_a_table_only_within_one_order(monkeypatch):
    # rows with the memo of one order's entries, against each entry alone
    entries = catalog(128)
    alone = [row for e in entries for row in cli._scan_order([e])]
    reports = []
    real_report = cli.group_report

    def counted_report(G):
        reports.append(G)
        return real_report(G)

    monkeypatch.setattr(cli, "group_report", counted_report)
    shared = [row for _, unit in groupby(entries, key=lambda e: e.order)
              for row in cli._scan_order(list(unit))]
    assert shared == alone
    tables = {(e.order, tuple(map(tuple, e.build().table))) for e in entries}
    assert len(reports) == len(tables) < len(entries)


def test_scan_computes_no_consequence_tags(monkeypatch):
    # the scan prints no tags, so it never asks what Pr(G) implies
    calls = []
    real_tags = formulas.consequence_tags

    def counted_tags(G):
        calls.append(G)
        return real_tags(G)

    monkeypatch.setattr(formulas, "consequence_tags", counted_tags)
    rows = [row for _, unit in groupby(catalog(64), key=lambda e: e.order)
            for row in cli._scan_order(list(unit))]
    assert rows and calls == []
    formulas.registry_for(build_family(FamilySpec("dihedral", (3,))))
    assert len(calls) == 1  # the wrapper is the one the tagged registry calls


def _cli_subprocess(*argv, **kwargs):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=src),
                            **kwargs)


def test_scan_into_a_closed_pipe_exits_quietly():
    # the JSON of 128 is about 160 KB, more than a pipe holds, so the scan is
    # still writing when the reader closes its end after one line
    proc = _cli_subprocess("-m", "groupzagreb.cli", "scan", "--max-order", "128",
                           "--jobs", "1", "--format", "json",
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_CLOSED_STDOUT
    assert err == b""


def test_importing_the_cli_leaves_the_worker_pool_out():
    # nor what no command needs at start-up: the records are NamedTuples, so
    # neither dataclasses nor the inspect it pulls in; json loads with
    # --format json; and the package does not import coset.  A one-job scan
    # does not load the pool either.
    unwanted = ("concurrent.futures.process", "dataclasses", "inspect", "json",
                "groupzagreb.coset")
    proc = _cli_subprocess(
        "-c", f"import io, sys, contextlib, groupzagreb.cli as c\n"
              f"print([m for m in {unwanted!r} if m in sys.modules])\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = c.main(['scan', '--max-order', '16', '--jobs', '1'])\n"
              "print(code, 'concurrent.futures.process' in sys.modules)",
        stdout=subprocess.PIPE)
    out, _ = proc.communicate()
    assert proc.returncode == 0 and out == b"[]\n0 False\n"


def test_scan_rejects_small_max_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max-order", "5"])
    assert exc.value.code == 1


def test_scan_order_cap_is_validation_error(capsys):
    code, out, err = run(capsys, "scan", "--max-order", "64", "--order-cap", "20",
                         "--jobs", "1")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    # the first catalog entry above the cap, named as `family` names it
    assert line == "error: Z_7:Z_3 has order 21, above the cap 20"


def test_scan_over_the_cap_fails_before_building(capsys, monkeypatch):
    builds = []
    real_build = CatalogEntry.build

    def counting_build(entry, *args, **kwargs):
        builds.append(entry.label)
        return real_build(entry, *args, **kwargs)

    monkeypatch.setattr(CatalogEntry, "build", counting_build)
    code, out, err = run(capsys, "scan", "--max-order", "260", "--order-cap", "255",
                         "--jobs", "1")
    assert (code, out) == (2, "")
    assert err == "error: Q_256 has order 256, above the cap 255\n"
    assert builds == []


def test_scan_over_the_cap_lists_the_catalog_only_two_past_it(capsys, monkeypatch):
    real_catalog = cli.catalog

    def listed(max_order):
        assert max_order <= 5002
        return real_catalog(max_order)

    monkeypatch.setattr(cli, "catalog", listed)
    code, out, err = run(capsys, "scan", "--max-order", "100000000")
    assert (code, out, err) == (2, "", "error: D_5002 has order 5002, above the cap 5000\n")


def test_scan_refuses_a_special_group_over_the_cap(capsys, monkeypatch):
    (a5,) = [e for e in catalog(60) if e.label == "A_5"]
    builds = []
    monkeypatch.setattr(cli, "catalog", lambda max_order: [a5])
    monkeypatch.setattr(CatalogEntry, "build", lambda entry: builds.append(entry))
    code, out, err = run(capsys, "scan", "--max-order", "60", "--order-cap", "10")
    assert (code, out, err) == (2, "", "error: A_5 has order 60, above the cap 10\n")
    assert builds == []


def test_scan_negative_jobs_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max-order", "8", "--jobs", "-3"])
    assert exc.value.code == 1
    assert "--jobs must be >= 0" in capsys.readouterr().err


# stdout digests of the scan, recorded with the benchmark
EXPECTED_SCAN = json.loads(
    (Path(__file__).parents[1] / "bench" / "expected_scan.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("max_order", ["24", "256"])
def test_scan_bytes_match_recorded_digest(capsys, max_order):
    code, out, _ = run(capsys, "scan", "--max-order", max_order, "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPECTED_SCAN[max_order]["sha256"]


# sha256 of `scan --max-order 512 --jobs 1` stdout, 1725 groups
SCAN_512_STDOUT_SHA256 = "32df81c4e23ee4959414fafe5c587f76ecf427fffd6068e1dfd2c78bf39fe5af"


def test_scan_512_bytes_match_recorded_digest(capsys):
    code, out, _ = run(capsys, "scan", "--max-order", "512", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SCAN_512_STDOUT_SHA256


def _count_masks(monkeypatch):
    """Counts the centralizer masks computed, the center's included: the
    calls of ``FiniteGroup._centralizer_mask`` for an element whose mask
    the group does not hold yet."""
    calls = [0]
    mask = FiniteGroup._centralizer_mask

    def counted(G, x, *conj):
        calls[0] += x not in G._masks
        return mask(G, x, *conj)

    monkeypatch.setattr(FiniteGroup, "_centralizer_mask", counted)
    return calls


@pytest.mark.parametrize("argv,most", [
    (("scan", "--max-order", "64", "--jobs", "1"), 352),
    (("family", "psl2", "--k", "3"), 4),
    (("family", "gl2", "--q", "7"), 6),
    (("family", "dihedral", "--m", "1000"), 4),
], ids=["scan-64", "psl2-3", "gl2-7", "dihedral-1000"])
def test_reports_compute_one_mask_per_class(capsys, monkeypatch, argv, most):
    # at most one centralizer per power class of G/Z(G) carries the sums,
    # Pr(G) and the tags: the classes of the coprime powers of a walk's
    # representative share its mask, and so does every class of a power
    # whose centralizer Lagrange pins to it (D_2000: every rotation's class
    # takes C(r) from the walk along r, 4 masks where one per power class
    # took 13).  A generator's mask, which Z(G) takes, is not computed again
    # when the generator comes back as a class representative, and a
    # centralizer the commutation pass found abelian needs no generator masks
    # in the count.  `most` is the measured total, center included; one mask
    # per power class took 405, 4, 8 and 13
    calls = _count_masks(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert len(csv_rows(out)) >= 1
    assert calls[0] <= most


def test_group_counts_centralizers_from_few_masks(tmp_path, capsys, monkeypatch):
    # PSL(2,8): 3 masks in all, center included.  Z(G) takes the masks of
    # the 3 greedy generators, which here are the representatives of the
    # classes of order 7, 2 and 9.  The walk along the one of order 9 hands
    # its mask to the classes of its coprime powers and, by Lagrange, to the
    # class of its cube, so the classes take no new mask.  The commutation
    # pass certifies the cyclic centralizers of orders 7 and 9 abelian by
    # their size (|C(y)| = |yZ(G)|*|Z(G)|) and tests the involution's E_8,
    # which it finds abelian too, so the count takes the mask itself as the
    # center of every centralizer, the E_8's generators included, and skips
    # the class of order 3 inside the one of order 9.  Generator masks for
    # the E_8 took 5, one mask per generator of every centralizer 6, one
    # per central coset 511
    path = cayley_file(tmp_path, GROUP_TABLES["psl2_8-relabelled"](), "psl2_8.cayley")
    calls = _count_masks(monkeypatch)
    code, out, _ = run(capsys, "group", "--cayley", str(path))
    assert code == 0
    assert "# distinct_centralizers: 74" in out
    assert calls[0] <= 3


def test_scan_tests_only_uncertified_centralizers(capsys, monkeypatch):
    # a class's mask of |yZ(G)|*|Z(G)| elements is <y>Z(G), abelian by
    # construction, so the commutation pass tests only the other masks: 12
    # calls over the scan to 256, where a test of every distinct mask makes
    # 1378
    calls = [0]
    test = FiniteGroup.is_abelian_subgroup

    def counted(G, mask):
        calls[0] += 1
        return test(G, mask)

    monkeypatch.setattr(FiniteGroup, "is_abelian_subgroup", counted)
    code, out, _ = run(capsys, "scan", "--max-order", "256", "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPECTED_SCAN["256"]["sha256"]
    assert calls[0] <= 12


@pytest.mark.parametrize("max_order,digest,builds,tests", [
    ("256", EXPECTED_SCAN["256"]["sha256"], 584, 1),
    ("512", SCAN_512_STDOUT_SHA256, 1326, 11),
], ids=["256", "512"])
def test_scan_builds_each_normal_form_once(capsys, monkeypatch, max_order, digest,
                                           builds, tests):
    # an entry whose normal form an earlier entry of its order built is not
    # built (788 entries at 256, 1725 at 512), but reuses that group, and the
    # dispatch still sees the entry's own family and params; and a centralizer
    # whose index over <y>Z(G) is 1 or prime is certified abelian, so only
    # the others are tested (12 at 256 when the index had to be 1)
    built, dispatched, tested = [], [], [0]
    real_build, real_test = CatalogEntry.build, FiniteGroup.is_abelian_subgroup

    def counted_build(entry):
        built.append(entry)
        return real_build(entry)

    def seen_dispatch(G, family, params):
        dispatched.append((G, family, params))
        return formulas.dispatch(G, family, params)

    def counted_test(G, mask):
        tested[0] += 1
        return real_test(G, mask)

    monkeypatch.setattr(CatalogEntry, "build", counted_build)
    monkeypatch.setattr(cli, "dispatch", seen_dispatch)
    monkeypatch.setattr(FiniteGroup, "is_abelian_subgroup", counted_test)
    code, out, _ = run(capsys, "scan", "--max-order", max_order, "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert (len(built), tested[0]) == (builds, tests)
    assert len({e.form() for e in built}) == builds
    assert [(family, params) for _, family, params in dispatched] == [
        (e.family, e.params) for e in catalog(int(max_order))]
    assert len({id(G) for G, _, _ in dispatched}) == builds


def test_a_wrong_certificate_fails_loudly(tmp_path, capsys, monkeypatch):
    # a walk that claimed S_4's D_8 centralizer of a double transposition
    # were <y>Z(G) (order 8 for y) would make route 2 split its 3 elements
    # into cliques of 7: the report must refuse as a route mismatch, never print
    walk = FiniteGroup._power_walk

    def wrong(G, *classes):
        masks, orders = walk(G, *classes)
        return masks, tuple(8 if m.bit_count() == 8 else o for m, o in zip(masks, orders))

    monkeypatch.setattr(FiniteGroup, "_power_walk", wrong)
    path = cayley_file(tmp_path, GROUP_TABLES["s4"](), "s4.cayley")
    code, out, err = run(capsys, "group", "--cayley", str(path))
    assert (code, out, err) == (cli.EXIT_VALIDATION, "", "error: s4.cayley: 3 elements with "
                                "centralizer order 8 are no union of cliques of size 7\n")


def test_scan_computes_one_prediction_per_ac_type(capsys, monkeypatch):
    # a prediction depends on (z, AC type) alone, so each distinct pair is
    # evaluated once however many crosschecks ask for it
    asked = []
    for key, entry in formulas.ENTRIES.items():
        def ac_type(*params, _ac_type=entry.ac_type):
            asked.append(_ac_type(*params))
            return asked[-1]
        monkeypatch.setitem(formulas.ENTRIES, key, entry._replace(ac_type=ac_type))
    formulas._ac_type_predict.cache_clear()
    code, _, _ = run(capsys, "scan", "--max-order", "64", "--jobs", "1")
    assert code == 0
    info = formulas._ac_type_predict.cache_info()
    assert info.misses == info.currsize == len(set(asked))
    assert info.hits + info.misses == len(asked) > len(set(asked))


def test_scan_evaluates_no_alt_form(capsys, monkeypatch):
    # an alt form is compared with the prediction, never with the report:
    # only verify prints those warnings, so the scan never runs one
    def alt_form_ran(*params):
        raise AssertionError("the scan evaluated an alt form")

    for key, entry in formulas.ENTRIES.items():
        alts = tuple(alt._replace(fn=alt_form_ran) for alt in entry.alt_forms)
        monkeypatch.setitem(formulas.ENTRIES, key, entry._replace(alt_forms=alts))
    code, _, _ = run(capsys, "scan", "--max-order", "64", "--jobs", "1")
    assert code == 0


@pytest.mark.parametrize("name", ["missing", "file.cayley"])
def test_scan_catalog_extra_must_be_a_directory(tmp_path, capsys, monkeypatch, name):
    (tmp_path / "file.cayley").write_text("1\n0\n", encoding="utf-8")
    path = tmp_path / name
    monkeypatch.setattr(cli, "catalog", lambda max_order: pytest.fail("catalog was built"))
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max-order", "8", "--jobs", "1", "--catalog-extra", str(path)])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [ln for ln in err.splitlines() if "error" in ln] == [
        f"groupzagreb: error: --catalog-extra {path}: not a directory"
    ]


def test_scan_catalog_extra(tmp_path, capsys):
    # a hand-written order-20 table: must match the Sz(2) family row
    sz = build_family(FamilySpec("sz2", ()))
    cayley_file(tmp_path, sz, "f20.cayley")
    cayley_file(tmp_path, cyclic(4), "z4.cayley")  # abelian: skipped
    (tmp_path / "junk.cayley").write_text("not a table\n", encoding="utf-8")

    code, out, err = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                         "--catalog-extra", str(tmp_path))
    assert code == 0
    rows = csv_rows(out)
    ingested = [r for r in rows if r["family"] == "ingested"]
    assert len(ingested) == 1
    szrow = next(r for r in rows if r["label"] == "Sz(2)")
    for col in ("order", "center", "vertices", "edges_c", "m1_c", "m2_c",
                "edges_nc", "m1_nc", "m2_nc", "verdict_c", "verdict_nc"):
        assert ingested[0][col] == szrow[col]
    assert "skipped (Group must be non-abelian)" in err
    assert "junk.cayley" in err


def test_scan_catalog_extra_skips_oversized_file_unparsed(tmp_path, capsys, monkeypatch):
    cayley_file(tmp_path, build_family(FamilySpec("sz2", ())), "f20.cayley")
    code, out_small, err_small = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                                     "--catalog-extra", str(tmp_path))
    assert code == 0 and err_small == ""
    big = cayley_file(tmp_path, build_family(FamilySpec("hanaki_a2", (1, 7))), "h343.cayley")

    # the f20 table must still be ingested; only the order-343 file is skipped
    ingested = []
    monkeypatch.setattr(cli, "ingest_cayley",
                        lambda fh, label: ingested.append(fh.name) or ingest_cayley(fh, label))
    code, out, err = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                         "--catalog-extra", str(tmp_path))
    assert code == 0
    assert out == out_small
    assert err.splitlines() == [f"warning: {big}: skipped (order 343 > max order)"]
    assert ingested == [str(tmp_path / "f20.cayley")]


_real_zagreb_complement = zagreb.zagreb_complement


def _off_by_one_complement(base):
    nc = _real_zagreb_complement(base)
    return nc._replace(m1=nc.m1 + 1)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_worker_error_names_the_group(capsys, monkeypatch, jobs):
    monkeypatch.setattr(zagreb, "zagreb_complement", _off_by_one_complement)
    code, out, err = run(capsys, "scan", "--max-order", "16", "--jobs", jobs)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    # D_6 is the first catalog entry, so it is the first failure in row order;
    # the label comes once, and each report prints as its record's repr
    assert line == (
        "error: D_6: direct NC report ZagrebReport(m1=66, m2=120, vertices=5, edges=9)"
        " != complement-formula ZagrebReport(m1=67, m2=120, vertices=5, edges=9)")


@pytest.mark.parametrize("make,error,message", [
    (lambda: CliqueDecomposition(((1, 4), (3, 2))), ValueError,
     "parts must be sorted with distinct clique sizes"),
    (lambda: CliqueDecomposition(parts=((1, 2), (3, 2))), ValueError,
     "parts must be sorted with distinct clique sizes"),
    (lambda: CliqueDecomposition(((0, 2),)), ValueError,
     "copy counts and clique sizes must be positive"),
    (lambda: FamilySpec("nosuch"), FamilyError, "unknown family 'nosuch'"),
    (lambda: FamilySpec("dihedral", (3, 1)), FamilyError,
     "family dihedral takes parameters ('m',), got (3, 1)"),
    (lambda: FamilySpec(family="pq", params=(3, 5)), FamilyError,
     "pq(3, 5): p must divide q-1"),
    (lambda: Presentation(0, ((1,),)), PresentationError,
     "presentation needs at least one generator"),
    (lambda: Presentation(1, ()), PresentationError, "presentation needs at least one relator"),
    (lambda: Presentation(1, ((),)), PresentationError, "empty relator word"),
    (lambda: Presentation(ngens=2, relators=((1, -3),)), PresentationError,
     "relator letter -3 references no generator"),
])
def test_validated_records_raise_their_errors(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("record,text", [
    (FamilySpec("sz2"), "FamilySpec(family='sz2', params=())"),
    (CliqueDecomposition(((3, 1), (2, 4))), "CliqueDecomposition(parts=((3, 1), (2, 4)))"),
    (Presentation(1, ((1, 1),)), "Presentation(ngens=1, relators=((1, 1),))"),
    (CatalogEntry(6, "dihedral", (3,), "D_6"),
     "CatalogEntry(order=6, family='dihedral', params=(3,), label='D_6')"),
])
def test_records_print_and_pickle_as_themselves(record, text):
    # a validated record prints under its own name, not its base's, and
    # crosses the worker pool as an equal record of the same class
    assert repr(record) == text
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


_real_zagreb_from_decomposition = zagreb.zagreb_from_decomposition


def _off_by_one_decomposition(d):
    rep = _real_zagreb_from_decomposition(d)
    return rep._replace(m2=rep.m2 + 1)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_decomposition_route_mismatch_names_the_group(capsys, monkeypatch, jobs):
    monkeypatch.setattr(zagreb, "zagreb_from_decomposition", _off_by_one_decomposition)
    with pytest.raises(zagreb.RouteMismatchError, match="D_6: direct C report"):
        zagreb.group_report(build_family(FamilySpec("dihedral", (3,))))
    code, out, err = run(capsys, "scan", "--max-order", "16", "--jobs", jobs)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: D_6: direct C report")
    assert "D_6: D_6" not in line
    assert "!= decomposition" in line


def test_family_route_mismatch_is_validation_error(capsys, monkeypatch):
    monkeypatch.setattr(zagreb, "zagreb_from_decomposition", _off_by_one_decomposition)
    code, out, err = run(capsys, "family", "dihedral", "--m", "3")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: D_6: direct C report")


def test_verify_route_mismatch_is_validation_error(capsys, monkeypatch):
    monkeypatch.setattr(zagreb, "zagreb_from_decomposition", _off_by_one_decomposition)
    code, out, err = run(capsys, "verify", "dihedral", "--m", "3..5")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: D_6: direct C report")


def test_group_route_mismatch_is_validation_error(tmp_path, capsys, monkeypatch):
    path = cayley_file(tmp_path, build_family(FamilySpec("dihedral", (3,))), "d6.cayley")
    monkeypatch.setattr(zagreb, "zagreb_from_decomposition", _off_by_one_decomposition)
    code, out, err = run(capsys, "group", "--cayley", str(path))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: d6.cayley: direct C report")


def test_scan_catalog_extra_warns_on_non_utf8_file(tmp_path, capsys):
    cayley_file(tmp_path, build_family(FamilySpec("sz2", ())), "f20.cayley")
    code, out_clean, _ = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                             "--catalog-extra", str(tmp_path))
    assert code == 0
    bad = tmp_path / "latin1.cayley"
    bad.write_bytes(b"\xff6\n0 1")
    code, out, err = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                         "--catalog-extra", str(tmp_path))
    assert code == 0
    assert out == out_clean
    (line,) = err.splitlines()
    assert line.startswith(f"warning: {bad}: ")
    assert "can't decode byte 0xff" in line


def test_scan_json_shape(capsys):
    code, out, _ = run(capsys, "scan", "--max-order", "8", "--jobs", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fails"] == 0
    assert {r["label"] for r in payload["rows"]} >= {"D_6", "Q_8", "D_8"}


# -- graph -----------------------------------------------------------------------

def edges_file(tmp_path, text, name="g.edges"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_graph_counterexample(tmp_path, capsys):
    path = edges_file(
        tmp_path, "9 8\n0 1\n0 2\n0 3\n0 4\n0 5\n6 7\n6 8\n7 8\n"
    )
    code, out, _ = run(capsys, "graph", "--edges", path)
    assert code == 3
    line = out.splitlines()[1]
    assert line == "graph,9,8,42,37,fails,-1/24"


def test_graph_cycle_equality(tmp_path, capsys):
    path = edges_file(tmp_path, "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
    code, out, _ = run(capsys, "graph", "--edges", path)
    assert code == 0
    assert ",equality," in out


def test_graph_edgeless_undefined(tmp_path, capsys):
    path = edges_file(tmp_path, "4 0\n")
    code, out, _ = run(capsys, "graph", "--edges", path)
    assert code == 0
    assert ",undefined," in out and ",NA" in out


def test_graph_complement_flag(tmp_path, capsys):
    path = edges_file(tmp_path, "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "graph", "--edges", path, "--complement")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("graph,4,6,")
    assert lines[2].startswith("complement,4,0,0,0,undefined,NA")


def test_graph_complement_route_mismatch_names_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "zagreb_complement", _off_by_one_complement)
    path = edges_file(tmp_path, "4 3\n0 1\n1 2\n2 3\n")
    code, out, err = run(capsys, "graph", "--edges", path, "--complement")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {path}: direct complement report")


def test_graph_complement_is_never_materialized(tmp_path, capsys):
    # the complement of an edgeless graph on 20000 vertices is 50 MB of rows;
    # its direct report reads the graph's own rows and makes none of them
    path = edges_file(tmp_path, "20000 0\n")
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "graph", "--edges", path, "--complement")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.splitlines()[2] == "complement,20000,199990000,7999200020000,79988000599990000,equality,0/1"
    assert peak < 16 * 2**20


def test_graph_complement_of_a_large_edgeless_file(tmp_path, capsys):
    # the complement of 100000 isolated vertices is K_n: every degree is
    # n - 1, so M1 = n(n-1)^2 and M2 = |E|(n-1)^2 with |E| = n(n-1)/2
    n = 100_000
    path = edges_file(tmp_path, f"{n} 0\n")
    code, out, _ = run(capsys, "graph", "--edges", path, "--complement")
    assert code == 0
    edges = n * (n - 1) // 2
    assert out.splitlines()[1:] == [
        f"graph,{n},0,0,0,undefined,NA",
        f"complement,{n},{edges},{n * (n - 1) ** 2},{edges * (n - 1) ** 2},equality,0/1",
    ]


def test_graph_bad_file(tmp_path, capsys):
    path = edges_file(tmp_path, "3 1\n1 1\n")
    code, _, err = run(capsys, "graph", "--edges", path)
    assert code == 2
    assert "error" in err


def test_graph_header_too_large_for_memory_is_one_error_line(tmp_path):
    # the header alone asks for 300 million rows, 2.4 GB of list, which a
    # child under a 1 GiB address-space limit cannot allocate; it reserves
    # nothing near that, so the machine's memory is never at stake
    import resource

    path = edges_file(tmp_path, "300000000 0\n")
    limit = 1 << 30
    proc = _cli_subprocess(
        "-m", "groupzagreb.cli", "graph", "--edges", path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_VALIDATION
    assert out == b""
    assert err.decode().splitlines() == [f"error: {path}: the graph does not fit in memory"]


def test_graph_complement_too_large_for_memory_is_one_error_line(tmp_path):
    # 8 million edgeless vertices read and report within a 400 MiB
    # address-space limit, but the complement's degree list does not fit
    import resource

    path = edges_file(tmp_path, "8000000 0\n")
    limit = 400 << 20
    proc = _cli_subprocess(
        "-m", "groupzagreb.cli", "graph", "--edges", path, "--complement",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_VALIDATION
    assert out == b""
    assert err.decode().splitlines() == [f"error: {path}: the graph does not fit in memory"]



@pytest.mark.parametrize("flags", [(), ("--complement",)], ids=["graph", "complement"])
def test_graph_header_above_an_index_is_one_error_line(tmp_path, capsys, flags):
    # 10^20 - 1 vertices are more rows than an index holds, so the read
    # fails before it allocates
    path = edges_file(tmp_path, "99999999999999999999 0\n")
    code, out, err = run(capsys, "graph", "--edges", path, *flags)
    assert (code, out, err) == (2, "", f"error: {path}: the graph does not fit in memory\n")


def test_graph_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "latin1.edges"
    p.write_bytes(b"\xff3 1\n0 1")
    code, out, err = run(capsys, "graph", "--edges", str(p))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {p}: ") and "can't decode byte 0xff" in line


# -- group -----------------------------------------------------------------------

def test_group_s3_matches_family_row(tmp_path, capsys):
    s3 = build_family(FamilySpec("dihedral", (3,)))
    path = cayley_file(tmp_path, s3, "s3.cayley")
    code, out, _ = run(capsys, "group", "--cayley", str(path))
    assert code == 0
    (row,) = csv_rows(out)
    code, fam_out, _ = run(capsys, "family", "dihedral", "--m", "3")
    (fam_row,) = csv_rows(fam_out)
    for col in ("order", "center", "vertices", "edges_c", "m1_c", "m2_c",
                "edges_nc", "m1_nc", "m2_nc", "verdict_c", "verdict_nc",
                "gap_c", "gap_nc"):
        assert row[col] == fam_row[col]
    assert "# commutativity_degree: 1/2" in out
    assert "# distinct_centralizers: 5" in out
    assert "quot_dihedral(3, 1)" in out


# each consequence of Pr(G), and both centralizer counts, as the `# formula:`
# lines of `group --cayley` print them
FORMULA_LINES = {
    ("dicyclic", (2,)): "quot_zpzp(2, 2) source=quotient diffs=0 "
                        "tags=4-centralizer;pr=5/8=>G/Z=Z_2xZ_2;G/Z=Z_2xZ_2",
    ("dihedral", (7,)): "quot_dihedral(7, 1) source=quotient diffs=0 "
                        "tags=pr=5/14=>G/Z=D_14;G/Z=D_14",
    ("dihedral", (5,)): "quot_dihedral(5, 1) source=quotient diffs=0 "
                        "tags=pr=2/5=>G/Z=D_10;G/Z=D_10",
    ("u6n", (2,)): "quot_dihedral(3, 2) source=quotient diffs=0 "
                   "tags=5-centralizer;pr=1/2=>G/Z=D_6;G/Z=D_6",
    ("dihedral", (8,)): "quot_dihedral(4, 2) source=quotient diffs=0 "
                        "tags=pr=7/16=>G/Z=D_8;G/Z=D_8",
    ("hanaki_a2", (1, 3)): "quot_zpzp(3, 3) source=quotient diffs=0 "
                           "tags=5-centralizer;pr=11/27=>G/Z=Z_3xZ_3;G/Z=Z_3xZ_3",
    ("m2mn", (13, 20)): "quot_dihedral(13, 20) source=quotient diffs=0 tags=G/Z=D_26",
}


@pytest.mark.parametrize("fam,params", FORMULA_LINES, ids=[f"{f}{p}" for f, p in FORMULA_LINES])
def test_group_formula_lines_carry_the_consequence_tags(tmp_path, capsys, fam, params):
    G = relabelled(build_family(FamilySpec(fam, params)), 21)
    code, out, _ = run(capsys, "group", "--cayley", str(cayley_file(tmp_path, G, "g.cayley")))
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("# formula: ")]
    assert lines == ["# formula: " + FORMULA_LINES[fam, params]]


# sha256 of `group --cayley FILE` stdout, (csv, json), with FILE named
# "<id>.cayley"; recorded before the distinct-centralizer count moved from one
# mask per central coset to one per class of G/Z(G), and the relabelled S_4
# and A(1,7) before the power walk certified abelian centralizers by size
GROUP_TABLES = {
    "s4": lambda: special_group("S_4"),
    "d10": lambda: build_family(FamilySpec("dihedral", (5,))),
    "a4": lambda: special_group("A_4"),
    "es32-relabelled": lambda: relabelled(extraspecial_32(), 9),
    "psl2_8-relabelled": lambda: relabelled(build_family(FamilySpec("psl2", (3,))), 5),
    "s4-relabelled": lambda: relabelled(special_group("S_4"), 5),
    "a1_7-relabelled": lambda: relabelled(build_family(FamilySpec("hanaki_a2", (1, 7))), 5),
}
GROUP_DIGESTS = {
    "s4": ("8a0e066fb8d3f11a9b1229f5ea73c941c1159da9ff6690911473cc581f472056",
          "2e9fbef0da78de8d4a6b9308b5bac0b874c14ed40dae093eba015b1329c45781"),
    "d10": ("a7612775afbc1cdad619627fad28374ed7a4cd6e32545948b8798cbedd6c09d8",
           "3155e86d2d9fac8a16cce56d9a8b549c4f34131c92d5ddccf09621f74816cd88"),
    "a4": ("80ec10c8104a10c483fe5734d4f1aa20c50f160fcd62b78b12c12fb0c9ea2df5",
          "7770e3a8e6b508c02ac37c352ae0cdb86fd3658e1d3ec765ab0e5f28597a34c1"),
    "es32-relabelled": ("78c6c512f691262bad0024253eb45dc8046f8c95035753ebbc0609ccd83c01f7",
                       "153a89191b289300a1322bf56b4e34bab80b443747f4b5a0dc9557107d71bbb5"),
    "psl2_8-relabelled": ("6c74d53b8a7d7f9fda63bb1c914560b77dd92aa5428a049e9f2e9371224b084d",
                         "e73530e5502e9a1c726f869334b08506b53f2de8e5202e557ef993554f1aafc7"),
    "s4-relabelled": ("98da353990ecf1e24f65a6affd61804cca3c6303ae438db8330cc35caf8ee5c3",
                      "0515ba94c69ae29cf54dbfadec8b2bc947fe2a22d963e119ab80796b59d9c9fb"),
    "a1_7-relabelled": ("45bb6b3bb7a23dd7de8535a1bb728b85434733d6b820e3b2b720948895104bfc",
                        "da58bb825498f453897d6f213a7d0cfa23cff51ead42f5d4b4bde5c2464ff4c3"),
}


@pytest.mark.parametrize("gid", list(GROUP_TABLES))
def test_group_bytes_match_recorded_digest(tmp_path, capsys, gid):
    path = cayley_file(tmp_path, GROUP_TABLES[gid](), f"{gid}.cayley")
    for fmt, digest in zip(("csv", "json"), GROUP_DIGESTS[gid]):
        code, out, err = run(capsys, "group", "--cayley", str(path), "--format", fmt)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_group_heisenberg_json(tmp_path, capsys):
    heis = build_family(FamilySpec("hanaki_a2", (1, 3)))
    path = cayley_file(tmp_path, heis, "h27.cayley")
    code, out, _ = run(capsys, "group", "--cayley", str(path), "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["commutativity_degree"] == "11/27"
    assert [f["entry"] for f in info["applicable_formulas"]] == ["quot_zpzp"]
    assert info["applicable_formulas"][0]["params"] == [3, 3]
    assert info["applicable_formulas"][0]["diffs"] == 0
    assert info["row"]["verdict_c"] == "equality"


@pytest.mark.parametrize("comment,label", [
    (None, "s3.cayley"),
    ("# name: S_3", "S_3"),
    ("# name: ingested", "ingested"),
    ("# name:", "s3.cayley"),
], ids=["no name", "name", "name ingested", "empty name"])
def test_a_non_empty_name_wins_and_otherwise_the_file_name(tmp_path, capsys, comment, label):
    path = cayley_file(tmp_path, build_family(FamilySpec("dihedral", (3,))), "s3.cayley")
    if comment is not None:
        path.write_text(path.read_text(encoding="utf-8") + comment + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "group", "--cayley", str(path), "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["label"] == info["row"]["label"] == label
    code, out, _ = run(capsys, "scan", "--max-order", "6", "--jobs", "1",
                       "--catalog-extra", str(tmp_path))
    assert code == 0
    assert [r["label"] for r in csv_rows(out) if r["family"] == "ingested"] == [label]


def test_group_rejects_abelian(tmp_path, capsys):
    path = cayley_file(tmp_path, cyclic(4), "z4.cayley")
    code, out, err = run(capsys, "group", "--cayley", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {path}: Group must be non-abelian"]


def test_group_rejects_invalid_table(tmp_path, capsys):
    p = tmp_path / "bad.cayley"
    p.write_text("2\n0 1\n", encoding="utf-8")
    code, _, err = run(capsys, "group", "--cayley", str(p))
    assert code == 2


def test_group_rejects_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "latin1.cayley"
    p.write_bytes(b"\xff6\n0 1")
    code, out, err = run(capsys, "group", "--cayley", str(p))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {p}: ") and "can't decode byte 0xff" in line


def test_unknown_family_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "nosuch", "--m", "3"])
    assert exc.value.code == 1


# -- usage errors --------------------------------------------------------------
_USAGE = "usage: groupzagreb [-h] {family,verify,scan,graph,group} ...\n"

# every usage-error site: argv ("{file}" is a regular file) and the exact stderr
USAGE_ERRORS = {
    "no-command": ([], _USAGE + "groupzagreb: error: the following arguments are "
                                "required: command\n"),
    "unknown-command": (["bogus"], _USAGE + "groupzagreb: error: argument command: invalid "
                        "choice: 'bogus' (choose from 'family', 'verify', 'scan', 'graph', "
                        "'group')\n"),
    "family-no-family": (["family"], (
        "usage: groupzagreb family [-h] [--m M] [--n N] [--p P] [--q Q] [--k K]\n"
        "                          [--format {csv,json}] [--order-cap ORDER_CAP]\n"
        "                          {dicyclic,dihedral,gl2,hanaki_a1,hanaki_a2,m2mn,pq,"
        "psl2,quasidihedral,sd8n,sz2,u6n,v8n}\n"
        "groupzagreb family: error: the following arguments are required: family\n")),
    "family-missing-param": (["family", "dihedral"],
                             _USAGE + "groupzagreb: error: family dihedral requires --m\n"),
    "family-invalid-param": (["family", "dihedral", "--m", "2"],
                             _USAGE + "groupzagreb: error: dihedral(2,): m must be >= 3\n"),
    "family-foreign-flag": (["family", "dihedral", "--m", "3", "--k", "9"],
                            _USAGE + "groupzagreb: error: family dihedral does not take --k\n"),
    "verify-no-range": (["verify", "dihedral"], _USAGE + "groupzagreb: error: verify "
                        "dihedral requires --m (value or LO..HI)\n"),
    "verify-range-descending": (["verify", "dihedral", "--m", "5..3"], "groupzagreb: error: "
                                "--m expects an integer or LO..HI range, got '5..3'\n"),
    "verify-range-not-int": (["verify", "dihedral", "--m", "a..b"], "groupzagreb: error: "
                             "--m expects an integer or LO..HI range, got 'a..b'\n"),
    "verify-range-open": (["verify", "dihedral", "--m", "3.."], "groupzagreb: error: "
                          "--m expects an integer or LO..HI range, got '3..'\n"),
    "scan-small-max-order": (["scan", "--max-order", "5"],
                             _USAGE + "groupzagreb: error: --max-order must be >= 6\n"),
    "scan-negative-jobs": (["scan", "--jobs", "-1"], _USAGE + "groupzagreb: error: --jobs "
                           "must be >= 0 (0 means all cores)\n"),
    "scan-catalog-extra-file": (["scan", "--catalog-extra", "{file}"], _USAGE + "groupzagreb: "
                                "error: --catalog-extra {file}: not a directory\n"),
    "graph-no-edges": (["graph"], (
        "usage: groupzagreb graph [-h] --edges EDGES [--complement]\n"
        "                         [--format {csv,json}]\n"
        "groupzagreb graph: error: the following arguments are required: --edges\n")),
    "unrecognized-flag": (["scan", "--foo"],
                          _USAGE + "groupzagreb: error: unrecognized arguments: --foo\n"),
}


@pytest.mark.parametrize("site", list(USAGE_ERRORS))
def test_usage_errors_are_pinned(tmp_path, capsys, monkeypatch, site):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    monkeypatch.setattr(cli, "catalog", lambda max_order: pytest.fail("catalog was built"))
    path = tmp_path / "file.cayley"
    path.write_text("1\n0\n", encoding="utf-8")
    argv, err = USAGE_ERRORS[site]
    with pytest.raises(SystemExit) as exc:
        main([arg.replace("{file}", str(path)) for arg in argv])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", err.replace("{file}", str(path)))


# -- the command table and its reader -------------------------------------------
# main reads a well-formed command line from cli.COMMANDS and builds argparse
# only for help and usage errors, so the reader must agree with argparse on
# every line it reads and leave every other line to it

_INT_VALUES = st.integers(0, 10**6).map(str)
_STR_VALUES = st.text(min_size=0, max_size=6).filter(lambda v: not v.startswith("-"))
# tokens a perturbation puts in: help, unknown flags, bad ints and choices,
# "-"-leading values, command and family names, flags of other commands
_ODD_TOKENS = st.sampled_from([
    "-h", "--help", "--foo", "-", "--", "-1", "-x", "x", "1.5", "", "xml", "=", "--m=3",
    "--complement", "--format", "--jobs", "--edges", "--m", "--k", "scan", "family",
    "dihedral", "nosuch", "3..5",
])


def _value(flag):
    if flag.choices is not None:
        return st.sampled_from(flag.choices)
    return _INT_VALUES if flag.type is int else _STR_VALUES


@st.composite
def well_formed_argv(draw):
    """A command, its family name if it takes one, then a random subset of
    its flags, the required ones always, in random order."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    argv = [name]
    if command.family:
        argv.append(draw(st.sampled_from(sorted(FAMILIES))))
    for flag in draw(st.permutations(command.flags)):
        if flag.required or draw(st.booleans()):
            argv.append(f"--{flag.name}")
            if flag.type is not bool:
                argv.append(draw(_value(flag)))
    return argv


@st.composite
def perturbed_argv(draw):
    """A well-formed argv with one edit: a token dropped, repeated, replaced
    or joined to the next by "=", a flag abbreviated, or an odd token put in."""
    argv = draw(well_formed_argv())
    i = draw(st.integers(0, len(argv)))
    edit = draw(st.sampled_from(["drop", "repeat", "replace", "join", "abbreviate", "insert"]))
    if edit == "insert" or i == len(argv):
        return argv[:i] + [draw(_ODD_TOKENS)] + argv[i:]
    if edit == "drop":
        return argv[:i] + argv[i + 1:]
    if edit == "repeat":
        return argv + argv[i:i + 2]
    if edit == "replace":
        return argv[:i] + [draw(_ODD_TOKENS)] + argv[i + 1:]
    if edit == "join":
        return argv[:i] + ["=".join(argv[i:i + 2])] + argv[i + 2:]
    token = argv[i]  # abbreviate
    return argv[:i] + [token[:draw(st.integers(1, max(len(token) - 1, 1)))]] + argv[i + 1:]


def _argparse_reads(argv):
    """argparse's namespace for argv as a dict, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(well_formed_argv())
def test_the_reader_reads_every_well_formed_argv_as_argparse_does(argv):
    read = cli._read_argv(argv)
    assert read is not None
    assert vars(read) == _argparse_reads(argv)


@settings(max_examples=1500, deadline=None)
@given(perturbed_argv())
def test_the_reader_never_disagrees_with_argparse(argv):
    read = cli._read_argv(argv)  # never raises
    if read is not None:
        assert vars(read) == _argparse_reads(argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["family", "-h"],
                                  ["scan", "--max-order", "8", "--help"],
                                  ["family", "dihedral", "--m=4"],
                                  ["family", "dihedral", "--m", "4", "--m", "5"],
                                  ["scan", "--max", "8"], ["scan", "--jobs", "-1"],
                                  ["graph", "--edges", "g", "--complement", "--complement"],
                                  ["group"], ["family", "--m", "4", "dihedral"]])
def test_the_reader_leaves_help_and_odd_forms_to_argparse(argv):
    assert cli._read_argv(argv) is None


def _no_parser():
    pytest.fail("argparse was built for a well-formed command line")


def test_well_formed_calls_never_build_argparse(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", _no_parser)
    tables = tmp_path / "tables"
    tables.mkdir()
    s3 = build_family(FamilySpec("dihedral", (3,)))
    cayley = cayley_file(tmp_path, s3, "table.cayley")
    cayley_file(tables, s3, "s3.cayley")
    edges = tmp_path / "g.edges"
    edges.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
    # the README's examples, with small parameters
    readme = [
        ["family", "dihedral", "--m", "4"],
        ["family", "gl2", "--q", "3", "--format", "json"],
        ["verify", "dihedral", "--m", "3..6"],
        ["verify", "v8n", "--n", "1..2"],
        ["scan", "--max-order", "12", "--jobs", "1"],
        ["scan", "--max-order", "8", "--catalog-extra", str(tables)],
        ["graph", "--edges", str(edges), "--complement"],
        ["group", "--cayley", str(cayley)],
    ]
    for argv in readme:
        assert main(argv) == 0, argv
    # every form of the verify script
    script = Path(__file__).parents[1] / "scripts" / "verify_families.py"
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    # every call of the benchmark's workloads, at their smoke-test sizes
    workloads = load_bench("workloads")
    for name, size in workloads.TINY.items():
        for op in workloads.make_ops(name, size, 7, tmp_path):
            assert main(op.argv) == op.expect.get("rc", 0), op.argv
    capsys.readouterr()


def test_a_well_formed_call_loads_no_argparse():
    unwanted = ("argparse", "gettext", "locale")
    proc = _cli_subprocess(
        "-c", "import io, sys, contextlib, groupzagreb.cli as c\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = c.main(['family', 'dihedral', '--m', '4'])\n"
              f"print(code, [m for m in {unwanted!r} if m in sys.modules])",
        stdout=subprocess.PIPE)
    out, _ = proc.communicate()
    assert proc.returncode == 0 and out == b"0 []\n"


# -- a formula diff and a wrong neighbour sum fail the command -------------------

def _wrong_entry(monkeypatch, key):
    """Replace ENTRIES[key] by one whose AC type has one more copy of each part."""
    entry = formulas.ENTRIES[key]

    def ac_type(*params):
        z, parts = entry.ac_type(*params)
        return z, tuple((l + 1, t) for l, t in parts)

    monkeypatch.setitem(formulas.ENTRIES, key, entry._replace(ac_type=ac_type))


def test_family_with_a_formula_diff_prints_its_row_and_exits_2(capsys, monkeypatch):
    code, clean, _ = run(capsys, "family", "dihedral", "--m", "5")
    assert code == 0
    _wrong_entry(monkeypatch, "dihedral")
    code, out, err = run(capsys, "family", "dihedral", "--m", "5")
    assert code == 2
    (row,) = csv_rows(out)
    assert int(row["formula_diffs"]) > 0
    assert out.replace(f",{row['formula_diffs']}\n", ",0\n") == clean
    assert err == f"error: {row['formula_diffs']} formula diff(s) in D_10\n"


def test_scan_with_a_formula_diff_exits_2(capsys, monkeypatch):
    _wrong_entry(monkeypatch, "dihedral")
    code, out, err = run(capsys, "scan", "--max-order", "12", "--jobs", "1")
    assert code == 2
    bad = [r for r in csv_rows(out) if r["formula_diffs"] != "0"]
    assert bad and {r["family"] for r in bad} == {"dihedral"}
    total = sum(int(r["formula_diffs"]) for r in bad)
    assert err == (f"error: {total} formula diff(s) in "
                   f"{', '.join(r['label'] for r in bad)}\n")


def _failing(rep):
    """``rep`` with an NC verdict that fails."""
    return rep._replace(verdict_nc=rep.verdict_nc._replace(status=zagreb.Verdict.FAILS))


def test_scan_exit_2_for_a_formula_diff_outranks_a_violation(capsys, monkeypatch):
    _wrong_entry(monkeypatch, "dihedral")
    monkeypatch.setattr(cli, "group_report", lambda G: _failing(zagreb.group_report(G)))
    code, _, err = run(capsys, "scan", "--max-order", "8", "--jobs", "1")
    assert code == 2
    violation, diffs = err.splitlines()
    assert violation.startswith("CONJECTURE VIOLATION: ")
    assert diffs.startswith("error: ") and " formula diff(s) in " in diffs


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_group_with_a_formula_diff_exits_2(tmp_path, capsys, monkeypatch, fmt):
    path = cayley_file(tmp_path, build_family(FamilySpec("dihedral", (3,))), "s3.cayley")
    code, clean, _ = run(capsys, "group", "--cayley", str(path), "--format", fmt)
    assert code == 0
    _wrong_entry(monkeypatch, "quot_dihedral")
    code, out, err = run(capsys, "group", "--cayley", str(path), "--format", fmt)
    assert code == 2
    assert out != clean and out.count("\n") == clean.count("\n")
    assert re.fullmatch(r"error: [1-9]\d* formula diff\(s\) in s3\.cayley\n", err)


def test_graph_complement_check_sees_a_wrong_neighbour_sum(tmp_path, capsys, monkeypatch):
    # a wrong S_v moves M2 by sum d_v*delta_v, the direct complement by
    # sum e_v*delta_v and the identity by -sum d_v*delta_v: they agree only
    # if (n - 1)*sum delta_v = 0
    real = zagreb.SimpleGraph.neighbour_sums.func
    monkeypatch.setattr(zagreb.SimpleGraph, "neighbour_sums",
                        property(lambda g: [s + (i == 0) for i, s in enumerate(real(g))]))
    path = edges_file(tmp_path, "5 4\n0 1\n1 2\n2 3\n0 4\n")
    code, out, err = run(capsys, "graph", "--edges", path, "--complement")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {path}: direct complement report")


@pytest.mark.parametrize("flags", [(), ("--complement",)], ids=["graph", "complement"])
def test_graph_sparse_file_with_a_huge_vertex_count(tmp_path, capsys, flags):
    n = 200000
    text = f"{n} 1\n0 {n - 1}\n"
    reports = {"graph": graph_oracles.zagreb_by_degree_classes(zagreb.read_edge_list(text))}
    if flags:  # K_n less one edge: n - 2 vertices of degree n - 1, two of degree n - 2
        reports["complement"] = zagreb.ZagrebReport(
            2 * (n - 2) ** 2 + (n - 2) * (n - 1) ** 2,
            (n - 2) * (n - 3) // 2 * (n - 1) ** 2 + 2 * (n - 2) ** 2 * (n - 1),
            n, n * (n - 1) // 2 - 1)
    code, out, _ = run(capsys, "graph", "--edges", edges_file(tmp_path, text), *flags)
    assert code == 0
    assert out.splitlines() == ["graph,vertices,edges,m1,m2,verdict,gap"] + [
        f"{name},{r.vertices},{r.edges},{r.m1},{r.m2},{v.status.value},{v.gap_string()}"
        for name, r in reports.items() for v in [zagreb.conjecture_verdict(r)]]


def test_verify_with_a_formula_diff_prints_its_failures_and_exits_2(capsys, monkeypatch):
    _wrong_entry(monkeypatch, "dihedral")
    code, out, err = run(capsys, "verify", "dihedral", "--m", "3..4")
    assert (code, err) == (2, "")
    warning, *fails, summary = out.splitlines()
    assert warning.startswith("warning: D_8 [quot_zpzp(2, 2)] alt m2_nc: ")
    assert fails[0] == "FAIL: D_6 [dihedral(3,)] vertices: predicted 8, got 5"
    assert [ln.split(" [")[0] for ln in fails] == ["FAIL: D_6"] * 8 + ["FAIL: D_8"] * 8
    assert summary == ("verify dihedral: FAIL (2 instances checked, 0 skipped, "
                       "16 diffs, 1 alt-form warnings)")


# -- one exit rule for report rows -------------------------------------------------

def test_family_with_a_failing_verdict_names_it_and_exits_3(capsys, monkeypatch):
    code, clean, _ = run(capsys, "family", "dihedral", "--m", "3")
    assert code == 0
    monkeypatch.setattr(cli, "group_report", lambda G: _failing(zagreb.group_report(G)))
    code, out, err = run(capsys, "family", "dihedral", "--m", "3")
    assert code == 3
    (row,) = csv_rows(out)
    (clean_row,) = csv_rows(clean)
    assert row == {**clean_row, "verdict_nc": "fails"}
    assert err == "CONJECTURE VIOLATION: 1 failing verdict(s) in D_6\n"


def test_family_names_a_violation_then_a_formula_diff_and_exits_2(capsys, monkeypatch):
    _wrong_entry(monkeypatch, "dihedral")
    monkeypatch.setattr(cli, "group_report", lambda G: _failing(zagreb.group_report(G)))
    code, out, err = run(capsys, "family", "dihedral", "--m", "3")
    assert code == 2
    (row,) = csv_rows(out)
    assert row["verdict_nc"] == "fails" and int(row["formula_diffs"]) > 0
    assert err == ("CONJECTURE VIOLATION: 1 failing verdict(s) in D_6\n"
                   f"error: {row['formula_diffs']} formula diff(s) in D_6\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_group_with_a_failing_verdict_names_it_and_exits_3(tmp_path, capsys, monkeypatch, fmt):
    path = cayley_file(tmp_path, build_family(FamilySpec("dihedral", (3,))), "s3.cayley")
    monkeypatch.setattr(cli, "group_report", lambda G: _failing(zagreb.group_report(G)))
    code, out, err = run(capsys, "group", "--cayley", str(path), "--format", fmt)
    assert code == 3
    assert ",fails," in out if fmt == "csv" else json.loads(out)["row"]["verdict_nc"] == "fails"
    assert err == "CONJECTURE VIOLATION: 1 failing verdict(s) in s3.cayley\n"
    _wrong_entry(monkeypatch, "quot_dihedral")
    code, _, err = run(capsys, "group", "--cayley", str(path), "--format", fmt)
    assert code == 2
    violation, diffs = err.splitlines()
    assert violation == "CONJECTURE VIOLATION: 1 failing verdict(s) in s3.cayley"
    assert re.fullmatch(r"error: [1-9]\d* formula diff\(s\) in s3\.cayley", diffs)


def test_scan_with_a_failing_verdict_names_it_and_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "group_report", lambda G: _failing(zagreb.group_report(G)))
    # a formula predicts only whether a verdict is an equality, and at order 6
    # none is, so a failing verdict makes no formula diff there
    code, out, err = run(capsys, "scan", "--max-order", "6", "--jobs", "1")
    assert code == 3
    labels = [r["label"] for r in csv_rows(out)]
    assert err == (f"CONJECTURE VIOLATION: {len(labels)} failing verdict(s) in "
                   f"{', '.join(labels)}\n")


# -- one named error line for any failure ------------------------------------------

def _raise_in_build(monkeypatch, label, exc):
    """Make the catalog entry ``label`` raise ``exc`` when it is built."""
    build = CatalogEntry.build

    def failing(entry):
        if entry.label == label:
            raise exc
        return build(entry)

    monkeypatch.setattr(CatalogEntry, "build", failing)


# a real build of the wrong order, not a patched one: D_6's form builds D_8
_WRONG_ORDER = "construction produced order 8, expected 6"


def _build_d6_of_order_8(monkeypatch):
    dihedral = FAMILIES["dihedral"]
    monkeypatch.setitem(FAMILIES, "dihedral", dihedral._replace(form=lambda m: dihedral.form(m + 1)))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("extra,exc,message", [
    (False, None, _WRONG_ORDER),  # D_6, named once
    (False, KeyError(3), "KeyError: 3"),
    (False, ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
    (False, MemoryError(), "the group does not fit in memory"),
    (False, OverflowError("cannot fit 'int' into an index-sized integer"),
     "the group does not fit in memory"),
    (False, ValueError("bad table"), "bad table"),  # the library's own errors keep their text
    (True, MemoryError(), "the group does not fit in memory"),
    (True, KeyError(3), "KeyError: 3"),
], ids=["wrong-order", "KeyError", "ZeroDivisionError", "MemoryError", "OverflowError",
        "ValueError", "extra-MemoryError", "extra-KeyError"])
def test_any_failure_of_a_scan_entry_is_one_line_naming_it(tmp_path, capsys, monkeypatch, extra,
                                                           exc, message, jobs):
    # an entry is a catalog group (Q_8, failing in its build, or D_6, built
    # of the wrong order) or a --catalog-extra file (failing in its report),
    # named by its path
    label, extra_argv = "Q_8", ()
    if exc is None:
        label = "D_6"
        _build_d6_of_order_8(monkeypatch)
    elif extra:
        label = cayley_file(tmp_path, build_family(FamilySpec("dihedral", (3,))), "s3.cayley")
        extra_argv = ("--catalog-extra", str(tmp_path))

        def failing(G):
            if G.label == "s3.cayley":
                raise exc
            return zagreb.group_report(G)

        monkeypatch.setattr(cli, "group_report", failing)
    else:
        _raise_in_build(monkeypatch, label, exc)
    code, out, err = run(capsys, "scan", "--max-order", "12", "--jobs", jobs, *extra_argv)
    assert (code, out, err) == (2, "", f"error: {label}: {message}\n")


@pytest.mark.parametrize("argv,wrong_order", [
    (("family", "dihedral", "--m", "3"), False),
    (("verify", "dihedral", "--m", "3..5"), False),
    (("family", "dihedral", "--m", "3"), True),
    (("verify", "dihedral", "--m", "3..5"), True),
], ids=["family", "verify", "family-wrong-order", "verify-wrong-order"])
def test_any_failure_of_a_family_build_is_one_line_naming_it(capsys, monkeypatch, argv,
                                                             wrong_order):
    message = _WRONG_ORDER
    if wrong_order:
        _build_d6_of_order_8(monkeypatch)
    else:
        def failing(spec):
            raise KeyError("x")

        monkeypatch.setattr(cli, "build_family", failing)
        message = "KeyError: 'x'"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: D_6: {message}\n")


_GROUP_STAGES = ("ingest_cayley", "group_report", "registry_for", "count_distinct_centralizers")


@pytest.mark.parametrize("stage,exc,message", [
    pytest.param(stage, exc, message, id=stage if isinstance(exc, MemoryError)
                 else f"{stage}-{type(exc).__name__}")
    for stage in _GROUP_STAGES
    for exc, message in [(MemoryError(), "the group does not fit in memory"),
                         (KeyError(3), "KeyError: 3"), (ValueError("bad table"), "bad table")]])
def test_group_table_too_large_for_memory_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                            stage, exc, message):
    # any failure of reading, reporting or crosschecking the table, not only
    # memory, is one line naming the file
    path = cayley_file(tmp_path, build_family(FamilySpec("dihedral", (3,))), "s3.cayley")

    def failing(*args):
        raise exc

    monkeypatch.setattr(FiniteGroup if stage == "count_distinct_centralizers" else cli,
                        stage, failing)
    code, out, err = run(capsys, "group", "--cayley", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# -- scan --catalog-extra: blank lines before the order, subdirectories ----------------

def test_scan_catalog_extra_reads_the_order_past_blank_lines(tmp_path, capsys, monkeypatch):
    # an order read past the blank lines skips the file unparsed; a missed
    # one would send the junk below the order to the parser instead
    path = tmp_path / "big.cayley"
    path.write_text("\n  \n\t\n343\nnot a table\n", encoding="utf-8")
    monkeypatch.setattr(cli, "ingest_cayley", lambda fh, label: pytest.fail("file was parsed"))
    code, out, err = run(capsys, "scan", "--max-order", "8", "--jobs", "1",
                         "--catalog-extra", str(tmp_path))
    assert code == 0
    assert [r["family"] for r in csv_rows(out)].count("ingested") == 0
    assert err == f"warning: {path}: skipped (order 343 > max order)\n"


def test_scan_catalog_extra_skips_a_subdirectory_silently(tmp_path, capsys):
    sz = build_family(FamilySpec("sz2", ()))
    cayley_file(tmp_path, sz, "f20.cayley")
    code, clean, err = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                           "--catalog-extra", str(tmp_path))
    assert (code, err) == (0, "")
    (tmp_path / "sub").mkdir()
    cayley_file(tmp_path / "sub", sz, "f20.cayley")
    code, out, err = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                         "--catalog-extra", str(tmp_path))
    assert (code, out, err) == (0, clean, "")
