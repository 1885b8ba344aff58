"""Catalog files: one sign string per record, checksummed header.

Layout: a header line "n=<n> k=<k> count=<count> sha256=<hex>" followed
by one record line per object.  A record is the canonical sign string,
optionally tagged "R <x1> <y1> ... <xn> <yn>" with a realizing
configuration (rational coordinates) or "U" for not-yet-realized.  The
digest covers the record lines byte for byte, so any edit below the
header is detected on read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CatalogIntegrityError, InputError
from .points import PointConfig

_RECORD_CHARS = frozenset("+-0")


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
        width = comb(self.n, self.k + 2)
        for rec in self.records:
            if len(rec) != width or not set(rec) <= _RECORD_CHARS:
                raise InputError(f"bad record for n={self.n} k={self.k}: {rec!r}")
            if not rec.lstrip("0").startswith("+"):
                raise InputError(f"record not canonical (first nonzero sign must be +): {rec!r}")
        for prev, rec in zip(self.records, self.records[1:]):
            if prev >= rec:
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


def _record_line(record, witness, tagged):
    if not tagged:
        return record
    if witness is None:
        return f"{record} U"
    flat = " ".join(f"{x} {y}" for x, y in witness.points)
    return f"{record} R {flat}"


def format_catalog(catalog):
    lines = [
        _record_line(rec, catalog.witnesses[i] if catalog.tagged else None, catalog.tagged)
        for i, rec in enumerate(catalog.records)
    ]
    body = "\n".join(lines + [""])
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    head = f"n={catalog.n} k={catalog.k} count={len(catalog.records)} sha256={digest}\n"
    return head + body


def write_catalog(path, catalog):
    data = format_catalog(catalog)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(data)


def parse_catalog(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise InputError("empty catalog file")
    try:
        fields = dict(part.split("=", 1) for part in lines[0].split())
        n = int(fields["n"])
        k = int(fields["k"])
        count = int(fields["count"])
        digest = fields["sha256"]
    except (ValueError, KeyError) as exc:
        raise InputError(f"malformed catalog header {lines[0]!r}") from exc
    body_lines = lines[1:]
    if len(body_lines) != count:
        raise CatalogIntegrityError(
            f"header says {count} records, file has {len(body_lines)}"
        )
    body = "\n".join(body_lines + [""])
    actual = hashlib.sha256(body.encode("ascii", errors="replace")).hexdigest()
    if actual != digest:
        raise CatalogIntegrityError("catalog checksum mismatch")
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
                vals = [Fraction(c) for c in coords]
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
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not an ASCII catalog ({exc})") from exc
    return parse_catalog(text)
