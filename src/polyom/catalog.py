"""Catalog files: one sign string per record, checksummed header.

Layout: a header line "n=<n> k=<k> count=<count> sha256=<hex>" followed
by one record line per object.  A record is the canonical sign string,
optionally tagged "R <x1> <y1> ... <xn> <yn>" with a realizing
configuration (rational coordinates) or "U" for not-yet-realized.  The
digest covers the record lines byte for byte, line endings included, so
any edit below the header is detected on read, except that a file cut
before its last newline reads as if it were there.

Catalog files go in and out as bytes, and parse_catalog takes nothing
else.  A catalog is written over the file that is there, in place, and
a regular file is then cut to the new length: its blocks are not freed
and allocated again, which on some file systems waits on the disk.  A
write torn part way leaves the new header over old or missing lines,
which the count and the digest catch on read.  A file that is not ASCII
is refused, naming its first other byte.  read_catalog starts every
error of a read with the file's path.

A catalog holds its records as one read-only character matrix, one row
per record; record strings are made only for tagged lines, error
messages and the records view.  An untagged catalog is written as that
matrix with a newline column, and the digest is taken over the same
buffer.  The reader counts, hashes and views the body in the file's
bytes, without copying it.  A body of count lines of the header's
width is first read as an untagged catalog: its bytes are viewed as a
(count, width + 1) matrix, and Catalog checks and keeps that matrix,
less the newline column.  If Catalog refuses it, the body is decoded
and goes line by line, which is where every error of the format is
found.  Catalog accepts a block of records by whole-array tests and
looks for the first faulty record only in a block that fails them, so
errors name the same record either way.  A witness's coordinates are
read as a points file's are (points._fraction): an integer token as an
int, so an integer witness is built without a Fraction.  A witness of
common denominator 1 is written from its integer store, in the same
characters its Fractions print.
"""

from __future__ import annotations

import copy
import hashlib
import os
import stat
from functools import cached_property

import numpy as np

from .chirotope import (
    ascending, char_signs, leading_signs, plus_minus, record_chars, record_lines, records_of,
)
from .combinat import check_case, comb_upto
from .errors import CatalogIntegrityError, InputError
from .points import PointConfig, _fraction

_CHECK_BLOCK = 1 << 16  # records checked at a time; bounds the check's temporaries


class Catalog:
    """A catalog: its records as one read-only (count, C(n, k+2)) uint8
    matrix of record characters, chars, in strictly increasing order,
    and witnesses, None for an untagged catalog, else a tuple holding a
    PointConfig or None per record.

    records is given as such a matrix or as a sequence of record
    strings, which becomes one at once; either way every record is
    checked.  The records property gives the rows as strings, made on
    first use.
    """

    def __init__(self, n, k, records, witnesses=None):
        check_case(n, k)
        matrix = isinstance(records, np.ndarray)
        first = len(records[0]) if len(records) else 0
        # comb(n, k + 2) only as far as the first record's length: a record
        # of another width is bad, and a large n and k must not cost comb
        width = comb_upto(n, k + 2, first)
        # the records before the first one of another width
        chars = records[: len(records) * (first == width)] if matrix else record_chars(records, width)
        at, unordered = len(chars), None  # the first faulty record, the first one out of order
        for lo in range(0, len(chars), _CHECK_BLOCK):
            # one record of overlap, for the order check
            rows = chars[lo : lo + _CHECK_BLOCK + 1]
            if not plus_minus(rows):
                signs = char_signs(rows)
                fault = (signs > 1).any(1) | (leading_signs(signs) != 1)
                if fault.any():
                    at = lo + int(fault.argmax())
                    break
            up = ascending(rows)
            if unordered is None and not up.all():
                unordered = lo + int(up.argmin()) + 1
        if at < len(records) or unordered is not None:
            shown = records_of(records) if matrix else records
            if at == len(records):
                prev, rec = shown[unordered - 1 : unordered + 1]
                raise InputError(f"records not strictly increasing: {rec!r} after {prev!r}")
            if at < len(chars) and (char_signs(chars[at]) <= 1).all():
                raise InputError(f"record not canonical (first nonzero sign must be +): {shown[at]!r}")
            raise InputError(f"bad record for n={n} k={k}: {shown[at]!r}")
        if witnesses is not None and len(witnesses) != len(chars):
            raise InputError("witness list does not match record count")
        chars.setflags(write=False)
        self.n, self.k, self.chars, self.witnesses = n, k, chars, witnesses

    @cached_property
    def records(self):
        """The records as a tuple of strings."""
        return tuple(records_of(self.chars))

    def __len__(self):
        return len(self.chars)

    def __eq__(self, other):
        if not isinstance(other, Catalog):
            return NotImplemented
        mine, theirs = ((c.n, c.k, c.witnesses, c.chars.tobytes()) for c in (self, other))
        return mine == theirs

    @property
    def tagged(self):
        return self.witnesses is not None

    def positions(self, rows):
        """The position of each row of a record character matrix among
        the records, -1 for a row that is none.  The records strictly
        increase, so the matrix is its own index: one sorted search,
        whose position for a row after every record is clamped to the last."""
        if not len(self):
            return np.full(len(rows), -1)
        keys = self.chars.view(f"S{self.chars.shape[1]}")[:, 0]
        wanted = np.ascontiguousarray(rows).view(keys.dtype)[:, 0]
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, at, -1)

    def realizable_count(self):
        if self.witnesses is None:
            return 0
        return sum(1 for w in self.witnesses if w is not None)

    def with_witnesses(self, witnesses):
        """The same records, tagged with one PointConfig or None each.

        The records were checked when this catalog was made and chars is
        read-only, so the tagged catalog shares them unchecked; only the
        witness count is checked.
        """
        witnesses = tuple(witnesses)
        if len(witnesses) != len(self):
            raise InputError("witness list does not match record count")
        tagged = copy.copy(self)
        tagged.witnesses = witnesses
        return tagged


def from_enumeration(result):
    """Catalog of an EnumerationResult, untagged: its character matrix."""
    return Catalog(result.n, result.k, result.chars)


def _tagged_line(record, witness):
    if witness is None:
        return f"{record} U\n"
    # an int prints as the Fraction of its value does
    pairs = zip(witness.xs, witness.ys) if witness.scale == 1 else witness.points
    return f"{record} R {' '.join(f'{x} {y}' for x, y in pairs)}\n"


def format_catalog(catalog):
    """The bytes of the catalog's file: the header, then the record lines."""
    if catalog.tagged:
        body = "".join(map(_tagged_line, catalog.records, catalog.witnesses)).encode("ascii")
    else:
        body = record_lines(catalog.chars).data
    digest = hashlib.sha256(body).hexdigest()
    head = f"n={catalog.n} k={catalog.k} count={len(catalog)} sha256={digest}\n"
    return head.encode("ascii") + body


def write_catalog(path, catalog):
    """Write the catalog's file to path, over what is there.

    The file is opened as open(path, "w") would open it, but without
    truncation: a file's blocks are written over rather than freed and
    allocated again.  A regular file is then cut at the end of the new
    bytes; a FIFO or device is not.
    """
    data = format_catalog(catalog)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def parse_catalog(data):
    """The catalog in the bytes of its file, which read_catalog has found
    to be ASCII."""
    if not data:
        raise InputError("empty catalog file")
    # the header ends at the first newline
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    start = end + 1
    if start < len(data) and not data.endswith(b"\n"):
        # a missing last newline is read as present
        data += b"\n"
    head = data[:end].decode("ascii")
    try:
        fields = dict(part.split("=", 1) for part in head.split())
        n = int(fields["n"])
        k = int(fields["k"])
        count = int(fields["count"])
        digest = fields["sha256"]
    except (ValueError, KeyError) as exc:
        raise InputError(f"malformed catalog header {head!r}") from exc
    body = memoryview(data)[start:]
    lines = data.count(b"\n", start)
    if lines != count:
        raise CatalogIntegrityError(f"header says {count} records, file has {lines}")
    if hashlib.sha256(body).hexdigest() != digest:
        raise CatalogIntegrityError("catalog checksum mismatch")
    if count and len(body) == count * (comb_upto(n, k + 2, len(body)) + 1):
        # lines of the header's width: when Catalog accepts them as records,
        # none holds a newline before its last byte, so with count newlines
        # in the body each ends in one, and the loop below would read the
        # same untagged catalog; on any fault the loop reports the first
        try:
            rows = np.frombuffer(data, np.uint8, offset=start).reshape(count, -1)
            return Catalog(n=n, k=k, records=rows[:, :-1])
        except InputError:
            pass
    # only the loop reads the body as str, whose split() knows more
    # whitespace than bytes.split() does
    body_lines = str(body, "ascii").split("\n")[:-1]
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
                vals = list(map(_fraction, coords))
                witnesses.append(PointConfig(zip(vals[::2], vals[1::2])))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"line {lineno}: bad witness: {exc}") from exc
        else:
            raise InputError(f"line {lineno}: unknown tag {rest[0]!r}")
    return Catalog(n, k, records, tuple(witnesses) if tagged else None)


def read_catalog(path):
    """The catalog in the file at path.  Every InputError of the read
    starts with the path, and keeps its class."""
    # the file's bytes as they are on disk, so the digest checks them:
    # a CRLF copy of a catalog fails it
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if not data.isascii():
            data.decode("ascii")
        return parse_catalog(data)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not an ASCII catalog ({exc})") from exc
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
