"""End-to-end CLI behavior: output shape, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import pytest

from groupzagreb import cli, zagreb
from groupzagreb.build import FamilySpec, build_family, cyclic, ingest_cayley
from groupzagreb.cli import CSV_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(out):
    text = "\n".join(ln for ln in out.splitlines() if ln and not ln.startswith("#"))
    records = list(csv.reader(io.StringIO(text)))
    assert records[0] == CSV_HEADER.split(",")
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


def test_family_order_cap_is_validation_error(capsys):
    code, _, err = run(capsys, "family", "psl2", "--k", "3", "--order-cap", "100")
    assert code == 2
    assert "cap" in err


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


def test_verify_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "dihedral", "--m", "3..x"])
    assert exc.value.code == 1


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    code, capped, _ = run(capsys, "scan", "--max-order", "16", "--jobs", "100000")
    assert code == 0
    assert asked == [4]
    code, serial, _ = run(capsys, "scan", "--max-order", "16", "--jobs", "1")
    assert code == 0
    assert capped == serial


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
                        lambda fh: ingested.append(fh.name) or ingest_cayley(fh))
    code, out, err = run(capsys, "scan", "--max-order", "20", "--jobs", "1",
                         "--catalog-extra", str(tmp_path))
    assert code == 0
    assert out == out_small
    assert err.splitlines() == [f"warning: {big}: skipped (order 343 > max order)"]
    assert ingested == [str(tmp_path / "f20.cayley")]


_real_zagreb_complement = zagreb.zagreb_complement


def _off_by_one_complement(base):
    nc = _real_zagreb_complement(base)
    return dataclasses.replace(nc, m1=nc.m1 + 1)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_worker_error_names_the_group(capsys, monkeypatch, jobs):
    monkeypatch.setattr(zagreb, "zagreb_complement", _off_by_one_complement)
    code, out, err = run(capsys, "scan", "--max-order", "16", "--jobs", jobs)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    # D_6 is the first catalog entry, so it is the first failure in row order
    assert line.startswith("error: D_6: direct NC report")
    assert "D_6: D_6" not in line


_real_zagreb_from_decomposition = zagreb.zagreb_from_decomposition


def _off_by_one_decomposition(d):
    rep = _real_zagreb_from_decomposition(d)
    return dataclasses.replace(rep, m2=rep.m2 + 1)


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


def test_graph_bad_file(tmp_path, capsys):
    path = edges_file(tmp_path, "3 1\n1 1\n")
    code, _, err = run(capsys, "graph", "--edges", path)
    assert code == 2
    assert "error" in err


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


def test_group_rejects_abelian(tmp_path, capsys):
    path = cayley_file(tmp_path, cyclic(4), "z4.cayley")
    code, _, err = run(capsys, "group", "--cayley", str(path))
    assert code == 2
    assert "Group must be non-abelian" in err


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
