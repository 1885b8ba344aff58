"""Negative controls: every benchmark check must fail on a corrupted output.

    python3 -m pytest polybench/test_controls.py -q

Each test first shows the check passing on a true output, then corrupts
that output in one place and shows the check failing.
"""

import os
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import polyom as pm  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from polyom.catalog import from_enumeration, write_catalog  # noqa: E402


def _rows(n, k):
    return [bytes(r) for r in pm.enumerate_chirotopes(n, k).chars]


def _flip(row, i):
    return row[:i] + (b"-" if row[i : i + 1] == b"+" else b"+") + row[i + 1 :]


@pytest.fixture(scope="module")
def tagged_6_2():
    catalog = from_enumeration(pm.enumerate_chirotopes(6, 2))
    tagged, _ = pm.realize_random(catalog, 2000, 0)
    return tagged


def test_divided_differences_agree_with_polyom():
    rng = random.Random(0)
    for n, k, r in [(6, 2, 3), (7, 1, 3), (8, 3, 5), (9, 5, 10**6)]:
        for _ in range(50):
            pts = checks.draw_points(rng, n, r)
            want = pm.chirotope_of(pm.PointConfig(pts), k).sign_string()
            assert checks.sign_string(pts, k) == want


@pytest.mark.parametrize("n,k", [(6, 2), (7, 1)])
def test_any_flipped_sign_in_a_row_is_caught(n, k):
    rows = _rows(n, k)
    assert checks.check_enumeration(rows, n, k) == []
    positions = [(r, i) for r in range(len(rows)) for i in range(len(rows[0]))]
    for r, i in random.Random(1).sample(positions, min(len(positions), 400)):
        bad = rows[:r] + [_flip(rows[r], i)] + rows[r + 1 :]
        assert checks.check_enumeration(bad, n, k), (r, i)


def test_flipped_sign_in_a_catalog_file_is_caught(tmp_path):
    path = tmp_path / "7_2.cat"
    write_catalog(path, from_enumeration(pm.enumerate_chirotopes(7, 2)))
    rows = _rows(7, 2)
    assert checks.check_catalog_file(path, 7, 2, rows) == []
    data = bytearray(path.read_bytes())
    pos = data.index(b"\n") + 1 + len(rows[0]) * 5 + 3  # inside the fourth record
    data[pos] = ord("-") if data[pos] == ord("+") else ord("+")
    path.write_bytes(bytes(data))
    assert checks.check_catalog_file(path, 7, 2, rows)


def test_dropped_row_is_caught(tmp_path):
    rows = _rows(7, 2)
    assert checks.check_enumeration(rows[:100] + rows[101:], 7, 2)
    path = tmp_path / "7_2.cat"
    write_catalog(path, from_enumeration(pm.enumerate_chirotopes(7, 2)))
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:50] + lines[51:]))
    assert checks.check_catalog_file(path, 7, 2, rows)


def test_witness_with_one_point_moved_is_caught(tagged_6_2, tmp_path):
    write_catalog(tmp_path / "6_2.tagged.cat", tagged_6_2)
    records, witnesses = checks.tagged_records(tmp_path / "6_2.tagged.cat")
    assert records == list(tagged_6_2.records)
    assert checks.check_witnesses(records, witnesses, 2) == []
    for i, pts in enumerate(witnesses):
        if pts is None:
            continue
        moved = list(pts)
        x, y = moved[2]
        moved[2] = (x, y + 10**7)
        if pm.chirotope_of(pm.PointConfig(moved), 2).canonicalize().sign_string() != records[i]:
            break
    else:
        pytest.fail("no move changed a sign map")
    bad = witnesses[:i] + [moved] + witnesses[i + 1 :]
    assert checks.check_witnesses(records, bad, 2)


def test_scan_histogram_off_by_one_is_caught():
    rec = _rows(8, 4)[17].decode("ascii")
    report = pm.las_vergnas_scan(pm.Chirotope(8, 4, pm.signs_from_string(rec)))
    assert checks.check_scan(report.acyclic, report.histogram, 8) == []
    for delta in (1, -1):
        hist = dict(report.histogram)
        bin_ = min(hist)
        hist[bin_] += delta
        assert checks.check_scan(report.acyclic, hist, 8)
        assert checks.check_scan(report.acyclic + delta, report.histogram, 8)


def test_non_unimodal_map_is_caught():
    rows = _rows(6, 2)
    windows = checks.window_table(6, 2)
    row = next(
        _flip(r, i)
        for r in rows
        for i in range(1, len(r))
        if checks.non_unimodal_rows([_flip(r, i)], 6, 2)
    )
    assert len(windows) and checks.non_unimodal_rows([row], 6, 2) == [0]
    assert checks.check_enumeration(sorted(rows[1:] + [row]), 6, 2)
    rnd = workloads.Round()
    workloads.census_records([((6, 2), rows[0].decode())], rnd, spans.NullTracer())
    assert rnd.errors == []
    workloads.census_records([((6, 2), row.decode())], rnd, spans.NullTracer())
    assert any("axiom check failed" in e for e in rnd.errors)


def test_bench_refuses_a_tree_without_sources(tmp_path):
    import shutil
    import subprocess

    copy = tmp_path / "polybench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert not os.path.exists(copy / "out")
