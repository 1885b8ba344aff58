import hashlib
import os
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import polyom as pm
from polyom import catalog as catalog_module
from polyom.catalog import Catalog, format_catalog, from_enumeration, parse_catalog
from polyom.chirotope import records_of
from test_points import reference_points


def rehash(n, k, body_lines):
    """The bytes of a catalog file of handcrafted record lines under a
    valid header; a non-ASCII character is written in UTF-8, which
    read_catalog refuses."""
    body = "".join(line + "\n" for line in body_lines).encode("utf-8", errors="surrogatepass")
    digest = hashlib.sha256(body).hexdigest()
    return f"n={n} k={k} count={len(body_lines)} sha256={digest}\n".encode("ascii") + body


def not_ascii(path, data):
    """read_catalog's refusal of a file holding data, which is not ASCII."""
    pos = next(i for i, byte in enumerate(data) if byte > 127)
    return (
        f"{path}: not an ASCII catalog ('ascii' codec can't decode byte {data[pos]:#x}"
        f" in position {pos}: ordinal not in range(128))"
    )


def test_roundtrip_untagged():
    cat = from_enumeration(pm.enumerate_chirotopes(6, 2))
    assert len(cat) == 74 and not cat.tagged
    back = parse_catalog(format_catalog(cat))
    assert back == cat


def test_roundtrip_file(tmp_path):
    cat = from_enumeration(pm.enumerate_chirotopes(5, 2))
    path = tmp_path / "5_2.cat"
    pm.write_catalog(path, cat)
    assert pm.read_catalog(path) == cat


def test_empty_catalog_roundtrip():
    cat = Catalog(4, 2, ())
    assert parse_catalog(format_catalog(cat)) == cat


def test_header_fields():
    text = format_catalog(from_enumeration(pm.enumerate_chirotopes(5, 2))).decode("ascii")
    head = text.splitlines()[0]
    assert head.startswith("n=5 k=2 count=5 sha256=")
    assert len(head.split("sha256=")[1]) == 64


def test_tampered_record_detected():
    lines = format_catalog(from_enumeration(pm.enumerate_chirotopes(5, 2))).splitlines(keepends=True)
    body = lines[2]
    flipped = (b"+" if body[:1] == b"-" else b"-") + body[1:]
    with pytest.raises(pm.CatalogIntegrityError):
        parse_catalog(lines[0] + lines[1] + flipped + b"".join(lines[3:]))


def test_missing_record_detected():
    lines = format_catalog(from_enumeration(pm.enumerate_chirotopes(5, 2))).splitlines(keepends=True)
    with pytest.raises(pm.CatalogIntegrityError):
        parse_catalog(b"".join(lines[:-1]))


def test_malformed_header():
    with pytest.raises(pm.InputError):
        parse_catalog(b"n=5 k=2 count=five sha256=00\n")
    with pytest.raises(pm.InputError):
        parse_catalog(b"records follow\n")
    with pytest.raises(pm.InputError):
        parse_catalog(b"")


def test_tagged_roundtrip_with_witness():
    cfg = pm.PointConfig([(0, 0), (1, 1), (2, 8), (Fraction(7, 2), 27)])
    cat = Catalog(4, 2, ("+",)).with_witnesses([cfg])
    assert cat.tagged and cat.realizable_count() == 1
    back = parse_catalog(format_catalog(cat))
    assert back.tagged
    assert back.witnesses[0].points == cfg.points
    assert pm.verify_catalog_witnesses(back) == ()


def test_tagged_bytes_with_integer_and_rational_witnesses_are_pinned():
    # integer witnesses from realize, and the first moved to x from 1/2
    # and its y divided by 3, which keeps its record (a shift in x and a
    # positive scale of y change no sign); the digest was computed when
    # witnesses were stored as Fractions
    tagged, _ = pm.realize_random(from_enumeration(pm.enumerate_chirotopes(6, 2)), 300, seed=0)
    wits = list(tagged.witnesses)
    x0 = wits[0].points[0][0]
    wits[0] = pm.PointConfig([(x - x0 + Fraction(1, 2), y / 3) for x, y in wits[0].points])
    cat = tagged.with_witnesses(wits)
    data = format_catalog(cat)
    assert hashlib.sha256(data).hexdigest() == "60bd889895ca619950b3fa3a12233d6a26e0f44a4b3a9aa2e449e9d7ca171553"
    assert data.split(b"\n")[1].startswith(b"+++++++++++++++ R 1/2 -799/3 45/2 -421/3 ")
    back = parse_catalog(data)
    assert back == cat and hash(back.witnesses) == hash(cat.witnesses)
    assert back.witnesses[0].scale == 6 and {w.scale for w in back.witnesses[1:] if w} == {1}
    assert format_catalog(back) == data
    assert pm.verify_catalog_witnesses(back) == ()


def test_unrealized_tag_roundtrip():
    cat = Catalog(4, 2, ("+",)).with_witnesses([None])
    back = parse_catalog(format_catalog(cat))
    assert back.tagged and back.witnesses == (None,)
    assert back.realizable_count() == 0


def test_mixed_tagged_untagged_rejected():
    recs = pm.enumerate_chirotopes(5, 2).strings()
    text = rehash(5, 2, [recs[0] + " U", recs[1]])
    with pytest.raises(pm.InputError):
        parse_catalog(text)


def test_unknown_tag_rejected():
    text = rehash(5, 2, ["+" * 5 + " X 1 2"])
    with pytest.raises(pm.InputError):
        parse_catalog(text)


def test_short_witness_rejected():
    text = rehash(4, 2, ["+ R 0 0 1 1"])
    with pytest.raises(pm.InputError):
        parse_catalog(text)


def test_trailing_data_after_U_rejected():
    text = rehash(4, 2, ["+ U 3"])
    with pytest.raises(pm.InputError):
        parse_catalog(text)


def test_record_validation():
    with pytest.raises(pm.InputError):
        Catalog(5, 2, ("+++",))
    with pytest.raises(pm.InputError):
        Catalog(5, 2, ("++x++",))
    with pytest.raises(pm.InputError):
        Catalog(4, 2, ("+",)).with_witnesses([None, None])


def test_positions():
    cat = from_enumeration(pm.enumerate_chirotopes(7, 2))
    index = {rec: i for i, rec in enumerate(records_of(cat.chars))}
    assert cat.positions(cat.chars).tolist() == list(range(len(cat)))
    # each record with one column flipped: absent unless the dict holds it
    rows = np.repeat(cat.chars, 3, axis=0)
    cols = np.arange(len(rows)) * 7 % rows.shape[1]
    rows[np.arange(len(rows)), cols] ^= ord("+") ^ ord("-")
    want = [index.get(rec, -1) for rec in records_of(rows)]
    assert cat.positions(rows).tolist() == want
    assert {pos < 0 for pos in want} == {True, False}
    assert Catalog(7, 2, ()).positions(rows).tolist() == [-1] * len(rows)
    # the store is read-only; a writable matrix handed to Catalog stays writable
    held = Catalog(7, 2, rows[:0]).chars, Catalog(7, 2, cat.chars.copy()).chars
    assert not any(chars.flags.writeable for chars in held) and rows.flags.writeable


def test_with_witnesses_shares_the_checked_records(monkeypatch):
    cat = from_enumeration(pm.enumerate_chirotopes(6, 2))
    untagged_records = cat.records

    def checked(*args):
        raise AssertionError("record check ran again")

    for name in ("record_chars", "plus_minus", "char_signs", "leading_signs", "ascending"):
        monkeypatch.setattr(catalog_module, name, checked)
    wits = [None] * len(cat)
    wits[3] = pm.PointConfig([(0, 0), (1, 1), (2, 4), (3, 9), (4, 16), (5, 25)])
    tagged = cat.with_witnesses(iter(wits))
    assert tagged.chars is cat.chars and tagged.witnesses == tuple(wits)
    assert (tagged.n, tagged.k, tagged.records) == (6, 2, untagged_records)
    assert tagged.realizable_count() == 1 and not cat.tagged
    # the witness count is still checked, before any record work
    for count in (len(cat) - 1, len(cat) + 1, 0):
        with pytest.raises(pm.InputError, match="witness list does not match record count"):
            cat.with_witnesses([None] * count)
    monkeypatch.undo()
    assert tagged == Catalog(6, 2, cat.chars, tuple(wits))


def test_non_canonical_records_rejected():
    for bad in ("-++++", "0-+++", "00000"):
        with pytest.raises(pm.InputError, match="not canonical"):
            Catalog(5, 2, (bad,))
    assert Catalog(5, 2, ("0+---",)).records == ("0+---",)


def test_records_must_strictly_increase():
    recs = pm.enumerate_chirotopes(5, 2).strings()
    for bad in ((recs[0], recs[0]), (recs[1], recs[0]), tuple(recs) + (recs[-1],)):
        with pytest.raises(pm.InputError, match="strictly increasing"):
            Catalog(5, 2, bad)
    text = rehash(5, 2, [recs[0], recs[2], recs[1]])
    with pytest.raises(pm.InputError, match="strictly increasing"):
        parse_catalog(text)


def test_header_degree_and_size_checked():
    for n, k, message in (
        (4, 0, "degree must be at least 1, got 0"),
        (5, -1, "degree must be at least 1, got -1"),
        (3, 2, "need at least k+2 = 4 elements, got n = 3"),
        (5, 4, "need at least k+2 = 6 elements, got n = 5"),
    ):
        with pytest.raises(pm.InputError) as info:
            Catalog(n, k, ())
        assert str(info.value) == message
    with pytest.raises(pm.InputError, match="^need at least k\\+2 = 4 elements, got n = 3$"):
        parse_catalog(rehash(3, 2, []))


def test_bad_witness_reports_catalog_line():
    recs = pm.enumerate_chirotopes(5, 2).strings()
    good = "0 0 1 1 2 8 3 27 4 64"
    cases = (
        ("0 0 1 1 2 8 3 27 4 x", "Invalid literal"),
        ("0 0 1 1 2 8 3 27 4 1/0", "Fraction(1, 0)"),
        ("0 0 1 1 2 8 3 27 3 64", "share x"),
    )
    for witness, reason in cases:
        lines = [f"{recs[0]} R {good}", f"{recs[1]} U", f"{recs[2]} R {witness}"]
        with pytest.raises(pm.InputError, match="^line 4: bad witness") as info:
            parse_catalog(rehash(5, 2, lines))
        assert reason in str(info.value)


def test_coordinate_spellings_match_the_loop():
    recs = pm.enumerate_chirotopes(5, 2).strings()
    spellings = ["+5", "007", "-0", "-", "5_0", "1/2", "2/4", "-3/6", "1.5", "1e3", "0x1",
                 str(2**63), str(-(2**63) - 1), str(3**90), "-" + "0" * 30 + "9"]
    for i, token in enumerate(spellings):
        for at in range(10):
            coords = ["10", "0", "11", "1", "12", "8", "13", "27", "14", "64"]
            coords[at] = token
            lines = [f"{recs[0]} R {' '.join(coords)}", f"{recs[1]} U"]
            text = rehash(5, 2, lines)
            assert parsed(parse_catalog, text) == parsed(looped_parse, text), (token, at)
    # every spelling that reads as an integer lands as that integer
    text = rehash(5, 2, [f"{recs[0]} R 007 -0 +5 5_0 1e3 -3/6 {2**64} 2/4 -{2**64} 1.5"])
    (config,) = parse_catalog(text).witnesses
    assert config.points == (
        (-(2**64), Fraction(3, 2)), (5, 50), (7, 0), (1000, Fraction(-1, 2)), (2**64, Fraction(1, 2)),
    )


def test_exponent_beyond_the_digit_limit_is_refused(tmp_path):
    recs = pm.enumerate_chirotopes(5, 2).strings()
    coords = ["10", "0", "11", "1", "12", "8", "13", "27", "14", "64"]
    for token, ok in [("1e4300", True), ("-1.5E+4_300", True), ("1e-4300", True),
                      ("1e4301", False), ("1E-4301", False), (".5e+4_301", False), ("1e999999999", False)]:
        text = rehash(5, 2, [f"{recs[0]} R {token} {' '.join(coords[1:])}"])
        if ok:
            assert (Fraction(token), 0) in parse_catalog(text).witnesses[0].points, token
        else:
            with pytest.raises(pm.InputError) as info:
                parse_catalog(text)
            assert str(info.value) == "line 2: bad witness: Exceeds the limit (4300 digits) for a coordinate's exponent"
    # an integer token of 4301 digits hits int()'s own limit
    with pytest.raises(pm.InputError, match="^line 2: bad witness: Exceeds the limit \\(4300 digits\\)"):
        parse_catalog(rehash(5, 2, [f"{recs[0]} R {'9' * 4301} {' '.join(coords[1:])}"]))
    # `polyom realize` on such a catalog exits 2 with one line, at once
    path = tmp_path / "huge.cat"
    path.write_bytes(rehash(5, 2, [f"{recs[0]} R 1e999999999 {' '.join(coords[1:])}"]))
    run = run_bounded("from polyom.cli import main; main()", "realize", "--catalog", str(path), "--trials", "1")
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: {path}: line 2: bad witness: Exceeds the limit (4300 digits) for a coordinate's exponent\n"


@pytest.mark.parametrize("token, want", [
    ("+5", Fraction(5)), ("007", Fraction(7)), ("-0", Fraction(0)), ("1_000", Fraction(1000)),
    ("2/4", Fraction(1, 2)), ("1.5", Fraction(3, 2)), ("1e3", Fraction(1000)),
    ("1e4300", Fraction(10**4300)), ("1e4301", ValueError),
    ("9" * 4300, Fraction(10**4300 - 1)), ("9" * 4301, ValueError),
], ids=["+5", "007", "-0", "1_000", "2/4", "1.5", "1e3", "1e4300", "1e4301", "4300 digits", "4301 digits"])
def test_points_and_witnesses_read_a_token_alike(token, want):
    # the token as the y of the point at x = 100, in a points file and in
    # the R witness of a tagged catalog line
    coords = ["100", token, "1", "1", "2", "8", "3", "27", "4", "64"]
    points_file = "".join(f"{x} {y}\n" for x, y in zip(coords[::2], coords[1::2]))
    catalog = rehash(5, 2, [f"{pm.enumerate_chirotopes(5, 2).strings()[0]} R {' '.join(coords)}"])

    def outcome(read):
        """The y read at x = 100, or the type and text of the refusal's cause."""
        try:
            return dict(read().points)[100]
        except pm.InputError as exc:
            return type(exc.__cause__), str(exc.__cause__)

    got = outcome(lambda: pm.parse_points(points_file))
    assert got == outcome(lambda: parse_catalog(catalog).witnesses[0])
    if want is ValueError:
        assert got[0] is ValueError and got[1].startswith("Exceeds the limit (4300 digits)")
    else:
        assert got == want


def test_crlf_catalog_fails_the_checksum(tmp_path):
    cat = from_enumeration(pm.enumerate_chirotopes(5, 2))
    path = tmp_path / "5_2.cat"
    pm.write_catalog(path, cat)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    with pytest.raises(pm.CatalogIntegrityError) as info:
        pm.read_catalog(path)
    assert str(info.value) == f"{path}: catalog checksum mismatch"
    # a lone CR is not read as a line end either
    path.write_bytes(data[:-1] + b"\r")
    with pytest.raises(pm.CatalogIntegrityError):
        pm.read_catalog(path)
    path.write_bytes(data)
    assert pm.read_catalog(path) == cat


def test_overwrite_leaves_exactly_the_new_bytes(tmp_path):
    small = from_enumeration(pm.enumerate_chirotopes(5, 2))
    large = from_enumeration(pm.enumerate_chirotopes(7, 2))
    path = tmp_path / "c.cat"
    for cat in (large, small, large, small.with_witnesses([None] * len(small)), small):
        pm.write_catalog(path, cat)
        assert path.read_bytes() == format_catalog(cat)
        assert pm.read_catalog(path) == cat


def test_overwrite_keeps_the_file_and_its_links(tmp_path):
    path, link, sym = tmp_path / "c.cat", tmp_path / "hard.cat", tmp_path / "sym.cat"
    pm.write_catalog(path, from_enumeration(pm.enumerate_chirotopes(7, 2)))
    os.chmod(path, 0o640)
    os.link(path, link)
    os.symlink(path.name, sym)
    before = os.stat(path)
    cat = from_enumeration(pm.enumerate_chirotopes(6, 2))
    for target in (link, sym):
        pm.write_catalog(target, cat)
        after = os.stat(path)
        assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
        assert path.read_bytes() == link.read_bytes() == format_catalog(cat)
        assert sym.is_symlink()
    # a new file gets the mode open(path, "w") would give it
    fresh = tmp_path / "new.cat"
    pm.write_catalog(fresh, cat)
    with open(tmp_path / "by_open", "w"):
        pass
    assert os.stat(fresh).st_mode == os.stat(tmp_path / "by_open").st_mode


def test_write_to_a_fifo_or_device(tmp_path):
    # larger than a pipe's buffer, so the writer waits on the reader
    cat = from_enumeration(pm.enumerate_chirotopes(7, 2))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    pm.write_catalog(fifo, cat)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [format_catalog(cat)]
    # a device is written and not truncated
    pm.write_catalog(os.devnull, cat)


def test_realize_over_its_own_catalog(tmp_path):
    from click.testing import CliRunner

    from polyom.cli import main

    runner = CliRunner()
    src, fresh = tmp_path / "6_2.cat", tmp_path / "tagged.cat"
    runner.invoke(main, ["enumerate", "--n", "6", "--k", "2", "--out", str(src)])
    outputs = []
    for out in (fresh, src):
        result = runner.invoke(main, ["realize", "--catalog", str(src), "--trials", "300", "--out", str(out)])
        outputs.append((result.exit_code, result.stdout))
    assert outputs[0] == outputs[1] == (0, "realizable=59 unknown=15 trials=300 seed=0 total=74\n")
    assert src.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("n, k", [(10**6, 5), (3000, 2)])
def test_header_width_no_record_has(n, k):
    # C(10**6, 7) exceeds 2**63 and C(3000, 4) is about 3.4e12 characters:
    # a record of another width is bad without a row of the header's width
    with pytest.raises(pm.InputError) as info:
        parse_catalog(rehash(n, k, ["+"]))
    assert str(info.value) == f"bad record for n={n} k={k}: '+'"
    with pytest.raises(pm.InputError) as info:
        Catalog(n, k, ("+", "-"))
    assert str(info.value) == f"bad record for n={n} k={k}: '+'"


def run_bounded(code, *args, seconds=10):
    """`python -c code args` on this source tree, killed after `seconds`:
    a read that hangs fails the test instead of stalling the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=seconds
    )


def test_large_header_reads_promptly():
    # comb(3000000, 1000002) has about 830,000 digits; the header alone
    # passes the digest of an empty body
    code = """if True:
        import hashlib
        from polyom import InputError
        from polyom.catalog import parse_catalog
        head = "n=3000000 k=1000000 count={} sha256={}\\n"
        for body in ("", "+\\n", "+-\\n"):
            text = head.format(body.count("\\n"), hashlib.sha256(body.encode()).hexdigest()) + body
            try:
                cat = parse_catalog(text.encode())
                print(cat.n, cat.k, len(cat))
            except InputError as exc:
                print(exc)
    """
    run = run_bounded(code)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (
        "3000000 1000000 0\n"
        "bad record for n=3000000 k=1000000: '+'\n"
        "bad record for n=3000000 k=1000000: '+-'\n"
    )
    # n = k + 2: one tuple, so a one-sign record is the right width
    assert Catalog(3000002, 3000000, ("+",)).records == ("+",)


def test_first_bad_record_is_reported():
    recs = pm.enumerate_chirotopes(5, 2).strings()
    # record 1 is not canonical, record 3 has a bad character and record 4
    # a bad width, and records 2 and 5 are out of order
    mixed = (recs[0], "-++++", recs[3], "++x++", "+++", recs[1])
    with pytest.raises(pm.InputError) as info:
        Catalog(5, 2, mixed)
    assert str(info.value) == "record not canonical (first nonzero sign must be +): '-++++'"
    # with record 1 mended, the first fault is the bad character
    with pytest.raises(pm.InputError) as info:
        Catalog(5, 2, (recs[0], recs[4]) + mixed[2:])
    assert str(info.value) == "bad record for n=5 k=2: '++x++'"
    # the width fault comes first when it comes first
    with pytest.raises(pm.InputError) as info:
        Catalog(5, 2, (recs[0], "+++", "-++++"))
    assert str(info.value) == "bad record for n=5 k=2: '+++'"
    # order is checked only once every record is well formed
    with pytest.raises(pm.InputError) as info:
        Catalog(5, 2, (recs[2], recs[1], recs[4], recs[3]))
    assert str(info.value) == f"records not strictly increasing: {recs[1]!r} after {recs[2]!r}"


def test_non_ascii_records_are_input_errors(tmp_path):
    recs = pm.enumerate_chirotopes(5, 2).strings()
    path = tmp_path / "c.cat"
    for bad in ("+++é+", "++−++", "+\ud800+++", "é"):
        with pytest.raises(pm.InputError, match="^bad record for n=5 k=2: "):
            Catalog(5, 2, (recs[0], bad))
        data = rehash(5, 2, [recs[0], bad])
        path.write_bytes(data)
        with pytest.raises(pm.InputError) as info:
            pm.read_catalog(path)
        assert str(info.value) == not_ascii(path, data)


def test_record_checks_across_blocks(monkeypatch):
    import polyom.catalog as catalog_module

    recs = pm.enumerate_chirotopes(6, 2).strings()
    cases = [
        tuple(recs[:9]),
        (recs[0], recs[1], recs[3], recs[2], recs[4], "-" + recs[5][1:], recs[6]),
        (recs[0], recs[1], recs[3], recs[2], recs[4], recs[5][:-1], recs[6]),
        (recs[0], recs[2], recs[1]),
        tuple(recs[:4]) + (recs[3],),
        (recs[0], recs[1], recs[2], recs[4], recs[3]),
        (recs[1], recs[0], recs[2], recs[4], recs[3]),
    ]
    for block in (1, 2, 3, 4, 1 << 16):
        monkeypatch.setattr(catalog_module, "_CHECK_BLOCK", block)
        for records in cases:
            try:
                Catalog(6, 2, records)
                got = None
            except pm.InputError as exc:
                got = str(exc)
            assert got == looped_fault(records, 6, 2), (block, records)


def mutated_bodies(records, at):
    """Record lines with one fault at or next to position at, each named."""
    recs = list(records)
    rec = recs[at]
    flip = {"+": "-", "-": "+"}
    mid = len(rec) // 2
    yield "unchanged", recs
    yield "space inside", recs[:at] + [rec[:mid] + " " + rec[mid + 1 :]] + recs[at + 1 :]
    yield "trailing space", recs[:at] + [rec + " "] + recs[at + 1 :]
    yield "short row", recs[:at] + [rec[:-1]] + recs[at + 1 :]
    yield "long row", recs[:at] + [rec + "+"] + recs[at + 1 :]
    for char in "0*,é\t":
        yield f"{char!r} inside", recs[:at] + [rec[:mid] + char + rec[mid + 1 :]] + recs[at + 1 :]
    yield "duplicate", recs[: at + 1] + [rec] + recs[at + 1 :]
    if at + 1 < len(recs):
        yield "swapped pair", recs[:at] + [recs[at + 1], rec] + recs[at + 2 :]
    yield "not canonical", recs[:at] + ["".join(flip[c] for c in rec)] + recs[at + 1 :]
    yield "empty line", recs[:at] + [""] + recs[at:]
    yield "tagged line", recs[:at] + [rec + " U"] + recs[at + 1 :]


def test_untagged_reader_matches_the_loop(monkeypatch, tmp_path):
    import polyom.catalog as catalog_module

    records = pm.enumerate_chirotopes(6, 2).strings()
    texts = []
    for at in (0, 1, 2, 3, 4, 5, len(records) - 2, len(records) - 1):
        for name, lines in mutated_bodies(records, at):
            data = rehash(6, 2, lines)
            head, body = data.split(b"\n", 1)
            count = len(lines)
            texts += [
                (name, data),
                (name + ", no last newline", data[:-1]),
                (name + ", count + 1", head.replace(b"count=%d" % count, b"count=%d" % (count + 1)) + b"\n" + body),
                (name + ", count - 1", head.replace(b"count=%d" % count, b"count=%d" % (count - 1)) + b"\n" + body),
            ]
    ascii_texts = [(name, data) for name, data in texts if data.isascii()]
    for block in (1, 2, 3, 5, 1 << 16):
        monkeypatch.setattr(catalog_module, "_CHECK_BLOCK", block)
        for name, data in ascii_texts:
            assert parsed(parse_catalog, data) == parsed(looped_parse, data), (block, name)
    # a file with a non-ASCII byte is refused before it is parsed
    path = tmp_path / "c.cat"
    for name, data in texts:
        if not data.isascii():
            path.write_bytes(data)
            assert parsed(pm.read_catalog, path) == (pm.InputError, not_ascii(path, data)), name
    # the unchanged catalog reads as written, and every fault is reported
    assert parse_catalog(rehash(6, 2, records)).records == tuple(records)
    outcomes = {parsed(parse_catalog, data)[0] for _, data in ascii_texts}
    assert outcomes == {6, pm.InputError, pm.CatalogIntegrityError}
    assert len(ascii_texts) < len(texts)


def test_character_matrix_checks_as_the_strings(monkeypatch):
    import polyom.catalog as catalog_module

    records = pm.enumerate_chirotopes(6, 2).strings()
    cases = []
    for at in (0, 1, 2, 3, len(records) - 1):
        for name, lines in mutated_bodies(records, at):
            if set(map(len, lines)) == {len(records[0])} and "".join(lines).isascii():
                cases.append((name, lines))
    assert len(cases) > 30
    for block in (1, 2, 3, 1 << 16):
        monkeypatch.setattr(catalog_module, "_CHECK_BLOCK", block)
        for name, lines in cases:
            chars = np.frombuffer("".join(lines).encode("ascii"), np.uint8).reshape(len(lines), -1)
            want = looped_fault(lines, 6, 2)
            want = (pm.InputError, want) if want else (6, 2, tuple(lines), None)
            assert parsed(lambda m: Catalog(6, 2, m), chars) == want, (block, name)
            assert parsed(lambda r: Catalog(6, 2, r), tuple(lines)) == want, (block, name)
    # a matrix of another width is bad from its first row
    chars = np.frombuffer("".join(records).encode("ascii"), np.uint8).reshape(len(records), -1)
    with pytest.raises(pm.InputError) as info:
        Catalog(6, 2, chars[:, 1:])
    assert str(info.value) == f"bad record for n=6 k=2: {records[0][1:]!r}"
    assert Catalog(6, 2, chars[:0, 1:]) == Catalog(6, 2, ())


def test_empty_shard_round_trip(tmp_path):
    from polyom.enumeration import partition_search

    shard = partition_search(4, 2, 2, 3)
    assert shard.count == 0
    cat = from_enumeration(shard)
    assert cat == Catalog(4, 2, ())
    path = tmp_path / "empty.cat"
    pm.write_catalog(path, cat)
    assert pm.read_catalog(path) == cat
    data = path.read_bytes()
    assert parsed(parse_catalog, data) == parsed(looped_parse, data) == (4, 2, (), None)


def looped_fault(records, n, k):
    """The record checks one record at a time, in the order they are reported."""
    width = comb(n, k + 2)
    for rec in records:
        if len(rec) != width or not set(rec) <= set("+-0"):
            return f"bad record for n={n} k={k}: {rec!r}"
        if not rec.lstrip("0").startswith("+"):
            return f"record not canonical (first nonzero sign must be +): {rec!r}"
    for prev, rec in zip(records, records[1:]):
        if prev >= rec:
            return f"records not strictly increasing: {rec!r} after {prev!r}"
    return None


def looped_parse(data):
    """parse_catalog one line at a time on the ASCII bytes of a file,
    every coordinate through Fraction(str) and witnesses sorted as
    Fractions (`reference_points`).

    The witnesses of the returned Catalog are point tuples, not
    PointConfigs; `parsed` puts both readers' results in one form.
    """
    lines = data.decode("ascii").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise pm.InputError("empty catalog file")
    try:
        fields = dict(part.split("=", 1) for part in lines[0].split())
        n = int(fields["n"])
        k = int(fields["k"])
        count = int(fields["count"])
        digest = fields["sha256"]
    except (ValueError, KeyError) as exc:
        raise pm.InputError(f"malformed catalog header {lines[0]!r}") from exc
    body_lines = lines[1:]
    if len(body_lines) != count:
        raise pm.CatalogIntegrityError(
            f"header says {count} records, file has {len(body_lines)}"
        )
    body = "\n".join(body_lines + [""])
    actual = hashlib.sha256(body.encode("ascii")).hexdigest()
    if actual != digest:
        raise pm.CatalogIntegrityError("catalog checksum mismatch")
    records = []
    witnesses = []
    tagged = None
    for lineno, line in enumerate(body_lines, start=2):
        parts = line.split()
        if not parts:
            raise pm.InputError(f"line {lineno}: empty record")
        rec = parts[0]
        rest = parts[1:]
        if tagged is None:
            tagged = bool(rest)
        if bool(rest) != tagged:
            raise pm.InputError(f"line {lineno}: mixed tagged and untagged records")
        records.append(rec)
        if not rest:
            continue
        if rest[0] == "U":
            if len(rest) != 1:
                raise pm.InputError(f"line {lineno}: trailing data after U")
            witnesses.append(None)
        elif rest[0] == "R":
            coords = rest[1:]
            if len(coords) != 2 * n:
                raise pm.InputError(
                    f"line {lineno}: witness needs {2 * n} coordinates, got {len(coords)}"
                )
            try:
                vals = [Fraction(c) for c in coords]
                witnesses.append(reference_points(zip(vals[::2], vals[1::2])))
            except (ValueError, ZeroDivisionError) as exc:
                raise pm.InputError(f"line {lineno}: bad witness: {exc}") from exc
        else:
            raise pm.InputError(f"line {lineno}: unknown tag {rest[0]!r}")
    return Catalog(
        n=n,
        k=k,
        records=tuple(records),
        witnesses=tuple(witnesses) if tagged else None,
    )


def parsed(parse, text):
    """What parse(text) gives, as (n, k, records, witness points), or the
    exception's type and text."""
    try:
        cat = parse(text)
    except Exception as exc:  # the oracle compares every failure too
        return type(exc), str(exc)
    witnesses = cat.witnesses
    if witnesses is not None:
        witnesses = tuple(getattr(w, "points", w) for w in witnesses)
    return cat.n, cat.k, cat.records, witnesses
