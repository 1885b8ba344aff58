"""Property tests: the sign-record codec and the text parsers.

Every example set is derandomized, so a run is as repeatable as the
rest of the suite.
"""

import hashlib
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyom as pm
from polyom.catalog import Catalog, parse_catalog
import polyom.catalog as catalog_module
from polyom.chirotope import (
    ascending,
    bit_chars,
    bit_order,
    char_signs,
    leading_signs,
    record_chars,
    record_order,
    records_of,
    sign_chars,
)
from test_catalog import looped_fault, looped_parse, parsed

PROPS = settings(derandomize=True, max_examples=100, deadline=None, database=None)

# text near the formats: sign characters, header and coordinate tokens,
# whitespace of several kinds and a few non-ASCII characters
NEAR = "+-0 \t\n\r\x0b\x1c  =nkcountsha256RU/1234567890xé∞"
TEXT = st.one_of(st.text(), st.text(alphabet=NEAR))


def sign_matrices(max_rows=12, max_width=20):
    def fill(shape):
        size = shape[0] * shape[1]
        return st.binary(min_size=size, max_size=size).map(
            lambda b: (np.frombuffer(b, np.uint8) % 3).astype(np.int8).reshape(shape) - 1
        )

    return st.tuples(st.integers(0, max_rows), st.integers(1, max_width)).flatmap(fill)


def python_record(row):
    return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in row)


# ----------------------------------------------------------------- codec


@PROPS
@given(sign_matrices())
def test_codec_round_trips_signs(signs):
    chars = sign_chars(signs)
    assert chars.dtype == np.uint8 and chars.shape == signs.shape
    assert (char_signs(chars) == signs).all()
    assert records_of(chars) == [python_record(row) for row in signs]


@PROPS
@given(sign_matrices())
def test_canonical_sign_is_first_nonzero(signs):
    lead = leading_signs(signs)
    for row, s in zip(signs.tolist(), lead.tolist()):
        assert s == next((v for v in row if v), 0)
    canon = signs * lead[:, None]
    assert ((leading_signs(canon) == 1) | ~signs.any(1)).all()


@PROPS
@given(sign_matrices())
def test_record_order_is_string_order(signs):
    chars = sign_chars(signs)
    strings = records_of(chars)
    assert records_of(chars[record_order(chars)]) == sorted(strings)
    assert ascending(chars).tolist() == [a < b for a, b in zip(strings, strings[1:])]


@st.composite
def plus_matrices(draw):
    """Boolean rows (True = '+') of the widths around whole bytes and
    words, 0 to 12 rows drawn from a few that differ from one row in one
    position each, so rows share long prefixes and repeat."""
    width = draw(st.sampled_from([1, 8, 63, 64, 65, 70, 130]))
    base = np.frombuffer(draw(st.binary(min_size=width, max_size=width)), np.uint8) & 1
    flips = draw(st.lists(st.integers(0, width - 1), max_size=4))
    pool = [base] + [base ^ (np.arange(width) == at) for at in flips]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    return np.array([pool[i] for i in picks], bool).reshape(len(picks), width)


@PROPS
@given(plus_matrices())
@example(np.zeros((0, 130), bool))
@example(np.ones((3, 1), bool))
def test_bit_order_is_record_order_on_nowhere_zero_rows(plus):
    chars = sign_chars(np.where(plus, 1, -1).astype(np.int8))
    strings = records_of(chars)
    assert bit_order(plus).tolist() == record_order(chars).tolist()
    assert bit_chars(plus.copy()).tolist() == chars.tolist()
    assert ascending(chars).tolist() == [a < b for a, b in zip(strings, strings[1:])]


@PROPS
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(k + 2, k + 5))),
       st.data())
def test_chirotope_sign_string_round_trips(kn, data):
    k, n = kn
    signs = data.draw(st.lists(st.sampled_from((-1, 0, 1)),
                               min_size=comb(n, k + 2), max_size=comb(n, k + 2)))
    chi = pm.Chirotope(n, k, signs)
    text = chi.sign_string()
    assert text == python_record(signs)
    assert pm.signs_from_string(text).tolist() == signs
    assert pm.from_text(pm.to_text(chi)) == chi
    if any(signs):
        canon = chi.canonicalize().sign_string()
        assert canon.lstrip("0")[0] == "+"
        assert canon in (text, python_record([-v for v in signs]))


@PROPS
@given(st.lists(TEXT.map(lambda t: t[:8]), max_size=6), st.integers(1, 8))
def test_record_chars_stop_before_another_width(records, width):
    chars = record_chars(records, width)
    m = next((i for i, rec in enumerate(records) if len(rec) != width), len(records))
    assert chars.shape == (m, width if m else 1)
    ok = (char_signs(chars) <= 1).all(1)
    assert ok.tolist() == [set(rec) <= set("+-0") for rec in records[:m]]


# --------------------------------------------------------- parsers: valid or InputError


def valid_or_input_error(parse, text):
    try:
        return parse(text)
    except pm.InputError:
        return None


@PROPS
@given(st.one_of(TEXT, st.text(alphabet="+-0")))
def test_signs_from_string_total(text):
    signs = valid_or_input_error(pm.signs_from_string, text)
    if signs is not None:
        assert signs.dtype == np.int8 and len(signs) == len(text)
        assert sign_chars(signs).tobytes().decode("ascii") == text


def chirotope_texts():
    def with_width(nk):
        n, k = nk
        width = comb(n, k + 2) if 1 <= k and k + 2 <= n <= 8 else 3
        signs = st.text(alphabet="+-0", min_size=width, max_size=width)
        return st.builds(f"n={n} k={k}\n{{}}\n".format, st.one_of(signs, signs, TEXT))

    some_nk = st.tuples(st.integers(-1, 8), st.integers(-1, 6))
    valid_nk = st.integers(1, 5).flatmap(lambda k: st.tuples(st.integers(k + 2, 8), st.just(k)))
    # headers whose C(n, k + 2) has from 24,000 to millions of digits
    large_nk = st.integers(10**5, 10**7).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n // 4, n // 2))
    )
    return st.one_of(
        TEXT, some_nk.flatmap(with_width), valid_nk.flatmap(with_width), large_nk.flatmap(with_width)
    )


@PROPS
@given(chirotope_texts())
def test_from_text_total(text):
    chi = valid_or_input_error(pm.from_text, text)
    if chi is not None:
        assert isinstance(chi, pm.Chirotope)
        assert len(chi.signs) == comb(chi.n, chi.k + 2)
        assert set(chi.signs.tolist()) <= {-1, 0, 1}


# coordinate tokens: integers (beyond 2**63 too) and spellings that
# Fraction(str) reads, or refuses, in its own way
COORD = st.one_of(
    st.integers(-9, 9).map(str),
    st.sampled_from(["+5", "007", "-0", "-", "5_0", "1/2", "2/4", "-3/6", "1.5", "1e3", "0x1"]),
    st.integers(2**63 - 2, 2**66).flatmap(lambda v: st.sampled_from([str(v), str(-v)])),
)


def spellings(v):
    """Tokens that Fraction(str) reads as the integer v."""
    sign = "-" if v < 0 else ""
    return st.sampled_from([str(v), f"{v:+d}", f"{sign}00{abs(v)}", f"{2 * v}/2", f"{v}.0", f"{v}e0"])


# exponent tokens on both sides of the 4300 limit, and far beyond it
EXPONENTS = st.builds(
    "{}e{}".format,
    st.integers(-9, 9),
    st.one_of(st.integers(-5000, 5000), st.sampled_from([4300, 4301, -4301, 10**7, 10**9])),
)


def point_texts():
    good = st.one_of(st.integers(-99, 99).map(str), st.fractions(max_denominator=9).map(str))
    spelled = st.one_of(COORD, EXPONENTS, st.integers(-99, 99).flatmap(spellings))
    coord = st.one_of(good, spelled, st.sampled_from(["1/0", "x", "é", "0.5", "1 2"]))
    comment = st.builds("  # {}".format, TEXT.map(lambda t: t.replace("\n", " ")))
    return st.one_of(
        TEXT,
        st.lists(st.one_of(st.builds("{} {}".format, coord, coord), TEXT), max_size=6).map("\n".join),
        st.lists(st.one_of(st.builds("{}\t{}".format, good, good), comment), max_size=6).map("\n".join),
    )


@PROPS
@given(point_texts())
def test_parse_points_total(text):
    config = valid_or_input_error(pm.parse_points, text)
    if config is not None:
        assert isinstance(config, pm.PointConfig) and len(config) >= 1
        xs = [x for x, _ in config.points]
        assert xs == sorted(set(xs))


def headed(n, k, lines):
    """A catalog text whose header matches its body's ASCII bytes, with
    '?' for any other character, so the records of those bytes are read."""
    body = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(body.encode("ascii", errors="replace")).hexdigest()
    return f"n={n} k={k} count={len(lines)} sha256={digest}\n" + body


# strictly increasing canonical records for (5, 2)
RECORDS_5_2 = st.sets(
    st.text(alphabet="+-0", min_size=5, max_size=5).filter(lambda r: r.lstrip("0")[:1] == "+"),
    max_size=6,
).map(sorted)


# five distinct x-values, each spelled one way or another
DISTINCT_XS = st.lists(st.integers(-(2**70), 2**70), min_size=5, max_size=5, unique=True).flatmap(
    lambda vs: st.tuples(*map(spellings, vs))
)


@st.composite
def spelled_catalogs(draw):
    """(5, 2) catalogs, tagged or not, with coordinates spelled many ways
    and lines separated, ended and interleaved with odd whitespace."""
    gap = st.sampled_from([" ", "  ", "\t", "\x1c", " \t"])
    tail = st.sampled_from(["", "", "", " ", "\t", "\x1c", "\r"])
    tagged = draw(st.booleans())
    lines = []
    for rec in draw(RECORDS_5_2):
        line = rec
        if tagged and draw(st.integers(0, 3)):
            xs = draw(st.one_of(DISTINCT_XS, st.lists(COORD, min_size=5, max_size=5)))
            ys = draw(st.lists(COORD, min_size=5, max_size=5))
            line += draw(gap) + "R" + "".join(draw(gap) + c for xy in zip(xs, ys) for c in xy)
        elif tagged:
            line += draw(gap) + "U"
        lines.append(line + draw(tail))
        if draw(st.integers(0, 24)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return headed(5, 2, lines)


def catalog_texts():
    line = st.one_of(
        st.text(alphabet="+-0", min_size=4, max_size=6),
        st.builds("{} U".format, st.text(alphabet="+-0", min_size=5, max_size=5)),
        st.builds("{} R 0 0 1 1 2 8 3 27 4 64".format, st.text(alphabet="+-0", min_size=5, max_size=5)),
        TEXT.filter(lambda t: "\n" not in t),
    )
    tagged = st.lists(st.sampled_from([" U", " R 0 0 1 1 2 8 3 27 4 64", " R 0 0 1 1"]))
    return st.one_of(
        TEXT,
        st.builds(headed, st.integers(3, 6), st.integers(0, 3), st.lists(line, max_size=5)),
        st.builds(headed, st.just(5), st.just(2), RECORDS_5_2),
        st.builds(
            lambda recs, tags: headed(5, 2, [r + t for r, t in zip(recs, tags + [" U"] * len(recs))]),
            RECORDS_5_2,
            tagged,
        ),
        spelled_catalogs(),
    )


@PROPS
@given(catalog_texts())
def test_parse_catalog_total(text):
    cat = valid_or_input_error(parse_catalog, text.encode("ascii", errors="replace"))
    if cat is not None:
        assert isinstance(cat, Catalog)
        assert all(isinstance(rec, str) for rec in cat.records)
        assert list(cat.records) == sorted(set(cat.records))


@settings(PROPS, max_examples=600)
@given(st.one_of(catalog_texts(), spelled_catalogs(), spelled_catalogs().map(lambda t: t[:-1])))
def test_parse_catalog_matches_the_loop(text):
    data = text.encode("ascii", errors="replace")
    assert parsed(parse_catalog, data) == parsed(looped_parse, data)


def raw_headed(n, k, body):
    """Catalog bytes whose header matches the raw body bytes."""
    digest = hashlib.sha256(body).hexdigest()
    count = body.count(b"\n")
    return f"n={n} k={k} count={count} sha256={digest}\n".encode() + body


def catalog_bytes():
    """Arbitrary bytes, and bytes near the format: catalog texts in
    UTF-8, with CRLF line ends, cut short or with one byte changed, and
    raw bodies under a header whose digest matches them."""
    texts = catalog_texts().map(lambda t: t.encode("utf-8", errors="surrogatepass"))
    edited = st.tuples(texts, st.integers(0, 2**16), st.binary(max_size=2)).map(
        lambda t: t[0][: t[1] % (len(t[0]) + 1)] + t[2] + t[0][t[1] % (len(t[0]) + 1) + 1 :]
    )
    return st.one_of(
        st.binary(),
        texts,
        texts.map(lambda b: b.replace(b"\n", b"\r\n")),
        edited,
        st.builds(raw_headed, st.integers(3, 6), st.integers(1, 3), st.binary()),
        st.builds(raw_headed, st.just(5), st.just(2),
                  st.lists(st.lists(st.sampled_from(b"+-0 \t\r\x0bRU09/"), max_size=12).map(bytes))
                  .map(lambda lines: b"".join(line + b"\n" for line in lines))),
    )


@PROPS
@given(catalog_bytes())
def test_read_catalog_raw_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("raw") / "c.cat"
    path.write_bytes(data)
    cat = valid_or_input_error(pm.read_catalog, path)
    if cat is not None:
        assert isinstance(cat, Catalog)


# ------------------------------------------------------ catalog record checks


@PROPS
@given(st.one_of(
    RECORDS_5_2,
    st.lists(st.one_of(st.text(alphabet="+-0", min_size=5, max_size=5),
                       st.text(alphabet="+-0xé", max_size=6)), max_size=8),
))
def test_catalog_reports_the_first_fault(records):
    want = looped_fault(records, 5, 2)
    default = catalog_module._CHECK_BLOCK
    try:
        for block in (1, 3, default):
            catalog_module._CHECK_BLOCK = block
            if want is None:
                assert Catalog(5, 2, tuple(records)).records == tuple(records)
            else:
                with pytest.raises(pm.InputError) as info:
                    Catalog(5, 2, tuple(records))
                assert str(info.value) == want
    finally:
        catalog_module._CHECK_BLOCK = default
