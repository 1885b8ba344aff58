import hashlib
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import polyom as pm
from polyom.cli import main
from test_c3_reference import benchmark_grid_maps, packed_c3, reference_check, reference_check_uniform
from test_catalog import rehash, run_bounded
from test_cocircuit_reference import reference_cocircuit_vectors, reference_scan

CUBIC = "0 0\n1 1\n2 8\n3 27\n"


def invoke(args, **kwargs):
    return CliRunner().invoke(main, args, **kwargs)


def write(path, text):
    path.write_text(text)
    return str(path)


def test_chirotope_command(tmp_path):
    pts = write(tmp_path / "pts.txt", CUBIC)
    result = invoke(["chirotope", pts, "--k", "2"])
    assert result.exit_code == 0
    assert result.output == "n=4 k=2\n+\n"


def test_chirotope_degenerate_warns(tmp_path):
    pts = write(tmp_path / "pts.txt", "0 0\n1 1\n2 4\n3 9\n")
    result = invoke(["chirotope", pts, "--k", "2"])
    assert result.exit_code == 0
    assert result.stdout == "n=4 k=2\n0\n"
    assert "not uniform" in result.stderr


def test_chirotope_to_check_pipeline(tmp_path):
    pts = write(tmp_path / "pts.txt", CUBIC)
    chi_path = str(tmp_path / "chi.txt")
    invoke(["chirotope", pts, "--k", "2", "--out", chi_path])
    result = invoke(["check", chi_path])
    assert result.exit_code == 0
    assert result.output == "degree_k: PASS (uniform)\ncocircuits: PASS\n"


def test_check_json_output(tmp_path):
    chi = write(tmp_path / "chi.txt", "n=5 k=2\n++---\n")
    result = invoke(["check", chi, "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["degree_k"]["passed"] is True
    assert data["cocircuits"]["passed"] is True


def six_two_maps_and_flips():
    """Every (6,2) record and every map one sign flip away from one."""
    for rec in pm.enumerate_chirotopes(6, 2).strings():
        yield rec
        for i in range(len(rec)):
            yield rec[:i] + "-+"[rec[i] == "-"] + rec[i + 1 :]


def assert_check_output(path, chi, deg, coc):
    """`polyom check` and `check --json` on chi print deg and coc and exit
    1 when either fails."""
    code = 0 if deg and coc else 1
    path.write_text(pm.to_text(chi))
    result = invoke(["check", str(path)])
    assert (result.exit_code, result.stdout) == (
        code, f"degree_k: {deg.text()}\ncocircuits: {coc.text()}\n"
    ), chi.sign_string()
    result = invoke(["check", str(path), "--json"])
    assert (result.exit_code, result.stdout) == (
        code, '{"degree_k": ' + deg.to_json() + ', "cocircuits": ' + coc.to_json() + "}\n"
    ), chi.sign_string()


def test_check_output_matches_reference(tmp_path):
    """Uniform maps have complete cocircuit sets, whose C3 check is
    narrowed to their modular pairs; it must give the zero-set lookup's
    report and weak elimination's verdict."""
    for rec in six_two_maps_and_flips():
        chi = pm.Chirotope(6, 2, pm.signs_from_string(rec))
        assert chi.is_uniform()
        vectors = reference_cocircuit_vectors(chi)
        coc = reference_check_uniform(vectors)
        assert coc.passed == packed_c3(vectors).passed, rec
        assert_check_output(tmp_path / "chi.txt", chi, pm.check_degree_k(chi), coc)


def test_check_general_path_matches_reference(tmp_path):
    """Maps with zero signs take the general C3 path: grid maps with one
    and two zero signs, and each with one more sign set to 0 or one
    sign flipped."""
    maps = benchmark_grid_maps(5, 6, 2, (2, 2)) + benchmark_grid_maps(5, 7, 2, (1, 1))
    verdicts = set()
    for grid in maps:
        changed = []
        for i in np.flatnonzero(grid.signs):
            for v in (0, -1):
                changed.append(grid.signs.copy())
                changed[-1][i] *= v
        for signs in [grid.signs] + changed:
            chi = pm.Chirotope(grid.n, grid.k, signs)
            assert not chi.is_uniform()
            deg, coc = pm.check_degree_k(chi), reference_check(reference_cocircuit_vectors(chi))
            assert_check_output(tmp_path / "chi.txt", chi, deg, coc)
            verdicts.add((bool(deg), coc.axiom or "PASS"))
    assert {(True, "PASS"), (False, "C2"), (False, "C3")} <= verdicts


def test_check_failure_exits_one(tmp_path):
    chi = write(tmp_path / "chi.txt", "n=5 k=2\n+-+++\n")
    result = invoke(["check", chi])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_check_malformed_exits_two(tmp_path):
    chi = write(tmp_path / "chi.txt", "n=5 k=2\n+++\n")
    result = invoke(["check", chi])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_duplicate_x_exits_two(tmp_path):
    pts = write(tmp_path / "pts.txt", "0 0\n0 1\n2 4\n3 9\n")
    result = invoke(["chirotope", pts, "--k", "2"])
    assert result.exit_code == 2


def test_missing_required_flag():
    result = invoke(["enumerate", "--n", "6"])
    assert result.exit_code == 2


def test_enumerate_summary_and_catalog(tmp_path):
    out = str(tmp_path / "c.cat")
    result = invoke(["enumerate", "--n", "6", "--k", "2", "--out", out])
    assert result.exit_code == 0
    assert result.output == "unimodal=74 degree_k=74\n"
    cat = pm.read_catalog(out)
    assert len(cat) == 74 and (cat.n, cat.k) == (6, 2)


def test_enumerate_single_shard(tmp_path):
    result = invoke(
        ["enumerate", "--n", "6", "--k", "2", "--shards", "3", "--shard", "1"]
    )
    assert result.exit_code == 0
    assert "degree_k=" in result.output


def test_enumerate_sharded_merge_matches(tmp_path):
    merged = invoke(["enumerate", "--n", "6", "--k", "2", "--shards", "3"])
    plain = invoke(["enumerate", "--n", "6", "--k", "2"])
    assert merged.output == plain.output


def test_realize_command(tmp_path):
    cat_path = str(tmp_path / "c.cat")
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", cat_path])
    out = str(tmp_path / "tagged.cat")
    result = invoke(
        ["realize", "--catalog", cat_path, "--trials", "200", "--seed", "0",
         "--out", out]
    )
    assert result.exit_code == 0
    assert result.output == "realizable=5 unknown=0 trials=200 seed=0 total=5\n"
    tagged = pm.read_catalog(out)
    assert tagged.tagged and tagged.realizable_count() == 5
    assert pm.verify_catalog_witnesses(tagged) == ()


def test_realize_tagged_bytes_are_pinned(tmp_path):
    # the tagged catalog that `realize --seed 0` writes, byte for byte
    cat_path = str(tmp_path / "6_2.cat")
    invoke(["enumerate", "--n", "6", "--k", "2", "--out", cat_path])
    out = tmp_path / "tagged.cat"
    result = invoke(["realize", "--catalog", cat_path, "--trials", "300", "--seed", "0",
                     "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == "realizable=59 unknown=15 trials=300 seed=0 total=74\n"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "8825b05aa5ed739b0c039a109e88ed26744a11a93c8570124a55ae78e3b35561"


@pytest.mark.parametrize(
    "range_, output, digest",
    [
        # 2r+1 = 17: sample draws the x-values from a pool
        ("8", "realizable=64 unknown=10 trials=300 seed=0 total=74\n",
         "9751108882d9f83c3c13fafbaf60887908a6c95644c726a94209831fa985fc3b"),
        # 2r+1 = 2000001: sample draws indices into a set
        ("1000000", "realizable=62 unknown=12 trials=300 seed=0 total=74\n",
         "aa1435e860ce9fb203f4837794752de7b59e0e52e757413a661d8799c2b115a2"),
    ],
)
def test_realize_single_range_bytes_are_pinned(tmp_path, range_, output, digest):
    cat_path = str(tmp_path / "6_2.cat")
    invoke(["enumerate", "--n", "6", "--k", "2", "--out", cat_path])
    out = tmp_path / "tagged.cat"
    result = invoke(["realize", "--catalog", cat_path, "--trials", "300", "--seed", "0",
                     "--range", range_, "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_realize_sweeps_only_ranges_that_hold_n_points(tmp_path):
    # [-8, 8] holds 17 distinct x-values: at n = 18 the default sweep
    # starts at 32, and an explicit --range 8 is still refused
    cat_path = str(tmp_path / "18_15.cat")
    invoke(["enumerate", "--n", "18", "--k", "15", "--out", cat_path])
    out = tmp_path / "tagged.cat"
    result = invoke(["realize", "--catalog", cat_path, "--trials", "10", "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == "realizable=9 unknown=9 trials=10 seed=0 total=18\n"
    tagged = pm.read_catalog(out)
    assert tagged.realizable_count() == 9
    assert pm.verify_catalog_witnesses(tagged) == ()
    refused = invoke(["realize", "--catalog", cat_path, "--trials", "10", "--range", "8"])
    assert (refused.exit_code, refused.stdout) == (2, "")
    assert refused.stderr == "error: range [-8, 8] cannot hold 18 distinct x-values\n"


def test_realize_on_crlf_catalog_exits_two(tmp_path):
    cat_path = tmp_path / "c.cat"
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", str(cat_path)])
    cat_path.write_bytes(cat_path.read_bytes().replace(b"\n", b"\r\n"))
    result = invoke(["realize", "--catalog", str(cat_path), "--trials", "5"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {cat_path}: catalog checksum mismatch\n"


@pytest.mark.parametrize("where, reason", [
    ("no/such/dir/x.cat", "No such file or directory"),
    # under a regular file; mode bits would not stop a test run as root
    ("f.txt/x.cat", "Not a directory"),
])
def test_unwritable_out_exits_two(tmp_path, where, reason):
    cat_path = _catalog_5_2(tmp_path)
    pts = write(tmp_path / "pts.txt", CUBIC)
    (tmp_path / "f.txt").write_text("")
    out = str(tmp_path / where)
    for args, what in (
        (["enumerate", "--n", "5", "--k", "2"], "catalog"),
        (["realize", "--catalog", cat_path, "--trials", "5"], "catalog"),
        (["chirotope", pts, "--k", "2"], "chirotope"),
        (["render", pts, "--k", "2"], "SVG"),
    ):
        result = invoke(args + ["--out", out])
        assert (result.exit_code, result.stdout) == (2, ""), args
        assert result.stderr == f"error: {out}: cannot write {what} ({reason})\n", args
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["chirotope", "render"])
def test_text_out_dash_is_stdout(tmp_path, command):
    pts = write(tmp_path / "pts.txt", CUBIC)
    default = invoke([command, pts, "--k", "2"])
    dash = invoke([command, pts, "--k", "2", "--out", "-"])
    to_file = invoke([command, pts, "--k", "2", "--out", str(tmp_path / "out.txt")])
    assert default.exit_code == dash.exit_code == to_file.exit_code == 0
    assert default.stdout == dash.stdout == (tmp_path / "out.txt").read_text()
    assert to_file.stdout == "" and default.stdout


@pytest.mark.parametrize("at", ["header", "body"])
def test_non_ascii_byte_in_catalog_is_named(tmp_path, at):
    cat_path = tmp_path / "c.cat"
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", str(cat_path)])
    data = cat_path.read_bytes()
    pos = 2 if at == "header" else len(data) - 3
    cat_path.write_bytes(data[:pos] + b"\xff" + data[pos + 1 :])
    for args in (["scan"], ["realize", "--trials", "5"]):
        result = invoke(args + ["--catalog", str(cat_path)])
        assert (result.exit_code, result.stdout) == (2, ""), args
        assert result.stderr == (
            f"error: {cat_path}: not an ASCII catalog ('ascii' codec can't decode byte 0xff"
            f" in position {pos}: ordinal not in range(128))\n"
        ), args


def test_scan_command(tmp_path):
    cat_path = str(tmp_path / "c.cat")
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", cat_path])
    result = invoke(["scan", "--catalog", cat_path])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("record=0 acyclic=")
    assert "found=1" in lines[0]
    assert lines[-1] == "records=5 found=5"


def reference_scan_output(catal):
    lines, found = [], 0
    for i, rec in enumerate(catal.records):
        chi = pm.Chirotope(catal.n, catal.k, pm.signs_from_string(rec))
        rep = reference_scan(chi, pm.cocircuit_vectors(chi))
        found += rep.found
        hist = ";".join(f"{c}:{v}" for c, v in sorted(rep.histogram.items()))
        best = ",".join(map(str, rep.best_set)) or "-"
        lines.append(
            f"record={i} acyclic={rep.acyclic} found={int(rep.found)} "
            f"best_count={rep.best_count} best_set={best} hist={hist}"
        )
    lines.append(f"records={len(catal)} found={found}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("n,k", [(6, 2), (7, 2)])
def test_scan_output_matches_reference(tmp_path, n, k):
    cat_path = str(tmp_path / "c.cat")
    invoke(["enumerate", "--n", str(n), "--k", str(k), "--out", cat_path])
    result = invoke(["scan", "--catalog", cat_path])
    assert result.exit_code == 0
    assert result.stdout == reference_scan_output(pm.read_catalog(cat_path))
    if (n, k) == (6, 2):
        # the two lines the README shows
        assert result.stdout.splitlines()[-2:] == [
            "record=73 acyclic=52 found=1 best_count=4 best_set=3 hist=4:12;5:24;6:16",
            "records=74 found=74",
        ]


def test_render_command(tmp_path):
    pts = write(tmp_path / "pts.txt", CUBIC)
    out = str(tmp_path / "fig.svg")
    result = invoke(
        ["render", pts, "--k", "2", "--out", out, "--width", "320",
         "--samples", "32", "--annotate"]
    )
    assert result.exit_code == 0
    svg = (tmp_path / "fig.svg").read_text()
    assert svg.startswith("<svg ") and 'width="320"' in svg
    assert "chi(1,2,3,4)=+" in svg


def test_render_deterministic(tmp_path):
    pts = write(tmp_path / "pts.txt", CUBIC)
    a = invoke(["render", pts, "--k", "2"])
    b = invoke(["render", pts, "--k", "2"])
    assert a.output == b.output


@pytest.mark.parametrize("far", ["1e400", "1e307"])
def test_render_beyond_float_range_exits_two(tmp_path, far):
    # 1e400 overflows float(); 1e307 converts, but scaled to the figure
    # it is inf, which the SVG must not carry
    pts = write(tmp_path / "pts.txt", f"{far} 0\n0 0\n1 1\n2 3\n")
    result = invoke(["render", pts, "--k", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "float range" in result.stderr


@pytest.mark.parametrize("flag, value", [("--width", "0"), ("--height", "-1")])
def test_render_figure_below_one_pixel_exits_two(tmp_path, flag, value):
    pts = write(tmp_path / "pts.txt", CUBIC)
    result = invoke(["render", pts, "--k", "1", flag, value])
    assert (result.exit_code, result.stdout) == (2, "")
    size = "0x480" if flag == "--width" else "640x-1"
    assert result.stderr == f"error: need a width and height of at least 1, got {size}\n"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_render_degree_below_one_exits_two(tmp_path, k):
    pts = write(tmp_path / "pts.txt", CUBIC)
    for extra in ([], ["--annotate"]):
        result = invoke(["render", pts, "--k", k, *extra])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"error: degree must be at least 1, got {k}\n"


def test_catalog_tamper_detected_on_read(tmp_path):
    cat_path = tmp_path / "c.cat"
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", str(cat_path)])
    text = cat_path.read_text()
    lines = text.splitlines(keepends=True)
    cat_path.write_text(lines[0] + lines[1] + "-" + lines[2][1:] + "".join(lines[3:]))
    result = invoke(["scan", "--catalog", str(cat_path)])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_enumerate_jobs_alone_runs_one_shard_per_job(tmp_path, monkeypatch):
    import polyom.cli as cli

    seen = []
    real = cli.enumerate_sharded

    def spy(n, k, of_shards, **kwargs):
        seen.append(of_shards)
        return real(n, k, of_shards, **kwargs)

    monkeypatch.setattr(cli, "enumerate_sharded", spy)
    pooled, single = tmp_path / "j2.cat", tmp_path / "j1.cat"
    a = invoke(["enumerate", "--n", "6", "--k", "2", "--jobs", "2", "--out", str(pooled)])
    b = invoke(["enumerate", "--n", "6", "--k", "2", "--jobs", "1", "--out", str(single)])
    assert a.exit_code == b.exit_code == 0
    assert seen and seen[0] >= 2
    assert a.output == b.output
    assert pooled.read_bytes() == single.read_bytes()


def test_realize_range_zero_rejected(tmp_path):
    cat_path = str(tmp_path / "c.cat")
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", cat_path])
    result = invoke(["realize", "--catalog", cat_path, "--trials", "5", "--range", "0"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_non_ascii_catalog_exits_two(tmp_path):
    cat_path = tmp_path / "c.cat"
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", str(cat_path)])
    data = cat_path.read_bytes()
    cat_path.write_bytes(data[:-2] + b"\xe9\n")
    result = invoke(["scan", "--catalog", str(cat_path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1


def test_enumerate_jobs_zero_rejected():
    result = invoke(["enumerate", "--n", "6", "--k", "2", "--jobs", "0"])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_enumerate_shard_refuses_jobs(tmp_path):
    out = tmp_path / "one.cat"
    args = ["enumerate", "--n", "6", "--k", "2", "--shards", "4", "--shard", "0", "--out", str(out)]
    result = invoke(args + ["--jobs", "2"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: --jobs cannot be combined with --shard, which runs one shard in this process\n"
    assert not out.exists()
    assert invoke(args + ["--jobs", "1"]).stdout == invoke(args).stdout == "unimodal=22 degree_k=22\n"


@pytest.mark.parametrize("args", [["scan"], ["realize", "--trials", "1"]])
def test_catalog_errors_name_the_file(tmp_path, args):
    # a header outside the (n, k) domain, with the digest of its body
    small = write(tmp_path / "small.cat", f"n=3 k=2 count=0 sha256={hashlib.sha256(b'').hexdigest()}\n")
    result = invoke(args + ["--catalog", small])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: {small}: need at least k+2 = 4 elements, got n = 3\n"
    # a valid catalog under the digest of an empty body
    head, body = rehash(5, 2, pm.enumerate_chirotopes(5, 2).strings()).split(b"\n", 1)
    digest = tmp_path / "digest.cat"
    digest.write_bytes(head[:-64] + hashlib.sha256(b"").hexdigest().encode() + b"\n" + body)
    result = invoke(args + ["--catalog", str(digest)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: {digest}: catalog checksum mismatch\n"


def test_enumerate_negative_shards_rejected():
    result = invoke(["enumerate", "--n", "6", "--k", "2", "--shards", "-2", "--jobs", "2"])
    assert result.exit_code == 2
    assert result.stdout == ""


def _catalog_5_2(tmp_path):
    cat_path = str(tmp_path / "c.cat")
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", cat_path])
    return cat_path


def test_realize_negative_range_message(tmp_path):
    cat_path = _catalog_5_2(tmp_path)
    result = invoke(["realize", "--catalog", cat_path, "--trials", "5", "--range", "-3"])
    assert result.exit_code == 2
    assert result.stderr == "error: coordinate range must be positive\n"


def test_realize_negative_trials_rejected(tmp_path):
    cat_path = _catalog_5_2(tmp_path)
    result = invoke(["realize", "--catalog", cat_path, "--trials", "-5"])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_realize_huge_range_rejected(tmp_path):
    cat_path = _catalog_5_2(tmp_path)
    result = invoke(["realize", "--catalog", cat_path, "--trials", "5", "--range", str(10**30)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: coordinate range") and result.stderr.count("\n") == 1


def test_realize_duplicated_record_exits_two(tmp_path):
    cat_path = tmp_path / "c.cat"
    invoke(["enumerate", "--n", "5", "--k", "2", "--out", str(cat_path)])
    recs = pm.read_catalog(cat_path).records
    body = "".join(r + "\n" for r in (recs[0], recs[0]) + recs[2:])
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    cat_path.write_text(f"n=5 k=2 count=5 sha256={digest}\n" + body)
    result = invoke(["realize", "--catalog", str(cat_path), "--trials", "200"])
    assert result.exit_code == 2
    assert "strictly increasing" in result.stderr
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1


def test_enumerate_single_shard_count_is_byte_identical(tmp_path):
    plain, sharded, one = (tmp_path / f"{name}.cat" for name in ("plain", "sharded", "one"))
    a = invoke(["enumerate", "--n", "7", "--k", "2", "--out", str(plain)])
    b = invoke(["enumerate", "--n", "7", "--k", "2", "--shards", "1", "--out", str(sharded)])
    c = invoke(["enumerate", "--n", "7", "--k", "2", "--shards", "1", "--shard", "0", "--out", str(one)])
    assert a.exit_code == b.exit_code == c.exit_code == 0
    assert a.output == b.output == c.output == "unimodal=3843 degree_k=3843\n"
    assert plain.read_bytes() == sharded.read_bytes() == one.read_bytes()


def test_enumerate_prefix_depth_is_unknown():
    result = invoke(["enumerate", "--n", "6", "--k", "2", "--prefix-depth", "3"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--prefix-depth" in result.stderr


def test_enumerate_memory_error_on_a_shard_thread_exits_two(monkeypatch):
    import threading

    import polyom.enumeration as enumeration

    raised_on = []
    real = enumeration._Join.rows

    def rows(self, shard=0, of_shards=1):
        if shard == 1:
            raised_on.append(threading.current_thread())
            raise MemoryError()
        return real(self, shard, of_shards)

    monkeypatch.setattr(enumeration._Join, "rows", rows)
    result = invoke(["enumerate", "--n", "6", "--k", "2", "--jobs", "2"])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", "error: out of memory\n")
    assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()


@pytest.mark.parametrize(
    "args",
    [["check", "chi.txt"], ["check", "chi.txt", "--json"],
     ["chirotope", "pts.txt", "--k", "2"], ["render", "pts.txt", "--k", "2"]],
)
def test_non_utf8_input_exits_two(tmp_path, args):
    (tmp_path / "chi.txt").write_bytes(b"n=4 k=2\n\xe9\n")
    (tmp_path / "pts.txt").write_bytes(b"0 0\n1 1\n2 \xe9\n3 27\n")
    result = invoke([args[0], str(tmp_path / args[1])] + args[2:])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "0xe9" in result.stderr


def test_catalog_header_wider_than_any_array_exits_two(tmp_path):
    # C(10**6, 7) characters per record exceeds 2**63
    body = "+\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    cat_path = write(tmp_path / "c.cat", f"n=1000000 k=5 count=1 sha256={digest}\n" + body)
    for args in (["scan"], ["realize", "--trials", "1"]):
        result = invoke(args + ["--catalog", cat_path])
        assert result.exit_code == 2, args
        assert result.stderr == f"error: {cat_path}: bad record for n=1000000 k=5: '+'\n"


@pytest.mark.parametrize(
    "text, args, message",
    [
        ("n=30000 k=10000\n+\n", ["check"],
         f"expected more than {2**63} signs for n=30000 k=10000, got 1"),
        ("n=3000000 k=1000000\n+\n", ["check"],
         f"expected more than {2**63} signs for n=3000000 k=1000000, got 1"),
        ("1e10000000 0\n", ["chirotope", "--k", "2"], "line 1: bad coordinate in '1e10000000 0'"),
        ("1e10000000 0\n", ["render", "--k", "2"], "line 1: bad coordinate in '1e10000000 0'"),
    ],
)
def test_oversized_input_exits_two_at_once(tmp_path, text, args, message):
    # C(n, k + 2) with a million digits, or a coordinate of 10**10000000,
    # must not be computed; the run is killed after 5 s
    path = write(tmp_path / "input.txt", text)
    run = run_bounded("from polyom.cli import main; main()", args[0], path, *args[1:], seconds=5)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: {message}\n"


def test_wrong_witness_is_refused_on_read(tmp_path):
    # the catalog of test_verify_catalog_flags_swapped_witnesses: the
    # witnesses of records 0 and 1 swapped, header digest recomputed
    tagged, _ = pm.realize_random(pm.from_enumeration(pm.enumerate_chirotopes(6, 2)), 300, seed=0)
    wits = list(tagged.witnesses)
    wits[0], wits[1] = wits[1], wits[0]
    path = tmp_path / "swapped.cat"
    pm.write_catalog(path, tagged.with_witnesses(wits))
    out = tmp_path / "out.cat"
    for args in (["scan"], ["realize", "--trials", "0", "--out", str(out)]):
        result = invoke(args + ["--catalog", str(path)])
        assert (result.exit_code, result.stdout) == (2, ""), args
        assert result.stderr == f"error: {path}: line 2: witness does not realize its record\n", args
    assert not out.exists()
    # a witness whose signs are all 0, below a record without one
    recs = pm.enumerate_chirotopes(5, 2).strings()
    path.write_bytes(rehash(5, 2, [f"{recs[0]} U", f"{recs[1]} R 0 0 1 1 2 2 3 3 4 4"]))
    result = invoke(["scan", "--catalog", str(path)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: {path}: line 3: witness does not realize its record\n"


@pytest.mark.parametrize(
    "name, text, args",
    [
        # the scan's 2^39 reorientation masks take 4 TiB
        ("c.cat", rehash(38 + 2, 38, ["+"]), ["scan", "--catalog"]),
        # the exchange table of C(100, 3) tuples takes tens of GiB
        ("chi.txt", b"n=100 k=1\n" + b"+" * 161700 + b"\n", ["check"]),
    ],
    ids=["scan", "check"],
)
def test_input_too_large_for_memory_exits_two(tmp_path, name, text, args):
    # the address space is capped at 3 GiB, so that nothing of such a
    # size is allocated; numpy then raises MemoryError
    path = tmp_path / name
    path.write_bytes(text)
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
        "from polyom.cli import main; main()"
    )
    run = run_bounded(code, *args, str(path), seconds=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("error: Unable to allocate ") and run.stderr.count("\n") == 1
