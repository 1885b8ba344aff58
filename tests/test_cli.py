import hashlib
import json
import os

from click.testing import CliRunner

import polyom as pm
from polyom.cli import main

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


def _die(*args, **kwargs):
    os._exit(3)


def test_enumerate_worker_crash_exits_two(monkeypatch):
    import polyom.enumeration as enumeration

    # the pool's workers run the patched shard function and die at once
    monkeypatch.setattr(enumeration, "partition_search", _die)
    result = invoke(["enumerate", "--n", "6", "--k", "2", "--jobs", "2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
