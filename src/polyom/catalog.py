"""Catalog files: one sign string per record, checksummed header.

Layout: a header line "n=<n> k=<k> count=<count> sha256=<hex>" followed
by one record line per object.  A record is the canonical sign string,
optionally tagged "R <x1> <y1> ... <xn> <yn>" with a realizing
configuration (rational coordinates) or "U" for not-yet-realized.  The
digest covers the record lines byte for byte, line endings included, so
any edit below the header is detected on read, except that a file cut
before its last newline reads as if it were there.

Reading costs integer work where it can.  A body whose every line is
one whitespace-free token is an untagged catalog and is read with one
split; any other body goes line by line, which is where every error is
found.  A coordinate token spelled -?[0-9]+ is read with int(); any
other goes to Fraction(str), which reads p/q, decimals, exponents,
signs and underscores.  An exponent beyond 4300 is refused, as int()
refuses an integer of more than 4300 digits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .chirotope import ascending, char_signs, leading_signs, record_chars
from .combinat import comb_upto
from .errors import CatalogIntegrityError, InputError
from .points import _INTEGER, PointConfig, _fraction

_CHECK_BLOCK = 1 << 16  # records checked at a time; bounds the check's temporaries


@dataclass(frozen=True)
class Catalog:
    """An immutable record list; witnesses align with records when tagged.

    witnesses is None for an untagged catalog, else a tuple holding a
    PointConfig or None per record.
    """

    n: int
    k: int
    records: tuple
    witnesses: tuple | None = None

    def __post_init__(self):
        if self.k < 1 or self.n < self.k + 2:
            raise InputError(f"catalog needs k >= 1 and n >= k+2, got n={self.n} k={self.k}")
        # comb(n, k + 2) only as far as the first record's length: a record
        # of another width is bad, and a large n and k must not cost comb
        first = len(self.records[0]) if self.records else 0
        width, unordered = comb_upto(self.n, self.k + 2, first), None
        for lo in range(0, len(self.records), _CHECK_BLOCK):
            # one record of overlap, for the order check
            block = self.records[lo : lo + _CHECK_BLOCK + 1]
            # a record of another width is bad whatever it holds
            chars = record_chars(block, width)
            signs = char_signs(chars)
            bad = (signs > 1).any(1)
            fault = bad | (leading_signs(signs) != 1)
            at = int(fault.argmax()) if fault.any() else len(chars)
            if at < len(block):
                if at == len(chars) or bad[at]:
                    raise InputError(f"bad record for n={self.n} k={self.k}: {block[at]!r}")
                raise InputError(f"record not canonical (first nonzero sign must be +): {block[at]!r}")
            up = ascending(chars)
            if unordered is None and not up.all():
                unordered = lo + up.argmin()
        if unordered is not None:
            prev, rec = self.records[unordered : unordered + 2]
            raise InputError(f"records not strictly increasing: {rec!r} after {prev!r}")
        if self.witnesses is not None and len(self.witnesses) != len(self.records):
            raise InputError("witness list does not match record count")

    def __len__(self):
        return len(self.records)

    @property
    def tagged(self):
        return self.witnesses is not None

    def index_of(self):
        """Record string -> position."""
        return {rec: i for i, rec in enumerate(self.records)}

    def realizable_count(self):
        if self.witnesses is None:
            return 0
        return sum(1 for w in self.witnesses if w is not None)

    def with_witnesses(self, witnesses):
        return Catalog(self.n, self.k, self.records, tuple(witnesses))


def from_enumeration(result):
    """Catalog of an EnumerationResult, untagged."""
    return Catalog(result.n, result.k, tuple(result.strings()))


def _tagged_line(record, witness):
    if witness is None:
        return f"{record} U"
    flat = " ".join(f"{x} {y}" for x, y in witness.points)
    return f"{record} R {flat}"


def format_catalog(catalog):
    lines = list(catalog.records)
    if catalog.tagged:
        lines = list(map(_tagged_line, lines, catalog.witnesses))
    body = "\n".join(lines + [""])
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    head = f"n={catalog.n} k={catalog.k} count={len(catalog.records)} sha256={digest}\n"
    return head + body


def write_catalog(path, catalog):
    data = format_catalog(catalog)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(data)


def parse_catalog(text):
    if not text:
        raise InputError("empty catalog file")
    head, _, body = text.partition("\n")
    if body and not body.endswith("\n"):
        body += "\n"  # a missing last newline is read as present
    try:
        fields = dict(part.split("=", 1) for part in head.split())
        n = int(fields["n"])
        k = int(fields["k"])
        count = int(fields["count"])
        digest = fields["sha256"]
    except (ValueError, KeyError) as exc:
        raise InputError(f"malformed catalog header {head!r}") from exc
    lines = body.count("\n")
    if lines != count:
        raise CatalogIntegrityError(f"header says {count} records, file has {lines}")
    actual = hashlib.sha256(body.encode("ascii", errors="replace")).hexdigest()
    if actual != digest:
        raise CatalogIntegrityError("catalog checksum mismatch")
    tokens = body.split()
    if len(tokens) == count and sum(map(len, tokens)) + count == len(body):
        # every line is one whitespace-free token: an untagged catalog,
        # exactly as the loop below would read it
        return Catalog(n=n, k=k, records=tuple(tokens))
    body_lines = body.split("\n")[:-1]
    records = []
    witnesses = []
    tagged = None
    for lineno, line in enumerate(body_lines, start=2):
        parts = line.split()
        if not parts:
            raise InputError(f"line {lineno}: empty record")
        rec = parts[0]
        rest = parts[1:]
        if tagged is None:
            tagged = bool(rest)
        if bool(rest) != tagged:
            raise InputError(f"line {lineno}: mixed tagged and untagged records")
        records.append(rec)
        if not rest:
            continue
        if rest[0] == "U":
            if len(rest) != 1:
                raise InputError(f"line {lineno}: trailing data after U")
            witnesses.append(None)
        elif rest[0] == "R":
            coords = rest[1:]
            if len(coords) != 2 * n:
                raise InputError(
                    f"line {lineno}: witness needs {2 * n} coordinates, got {len(coords)}"
                )
            try:
                vals = [Fraction(int(c)) if _INTEGER(c) else _fraction(c) for c in coords]
                witnesses.append(PointConfig(zip(vals[::2], vals[1::2])))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"line {lineno}: bad witness: {exc}") from exc
        else:
            raise InputError(f"line {lineno}: unknown tag {rest[0]!r}")
    return Catalog(
        n=n,
        k=k,
        records=tuple(records),
        witnesses=tuple(witnesses) if tagged else None,
    )


def read_catalog(path):
    # newline="" reads line endings as they are on disk, so the digest
    # checks the file's bytes: a CRLF copy of a catalog fails it
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not an ASCII catalog ({exc})") from exc
    return parse_catalog(text)
