"""Alternating sign maps on (k+2)-tuples, their cocircuit vectors, and the
record codec: '+', '-', '0' over the lex tuples, first nonzero sign '+',
records sorted as byte strings.
"""

from __future__ import annotations

import numpy as np

from .combinat import check_case, check_tuple, comb_upto, lex_rank, tuple_index, window_index
from .errors import InputError

# int8 signs 0, +1, -1 as bytes, their characters; others decode to 2
_SIGN_BYTES, _ALPHABET = b"\x00\x01\xff", b"0+-"
_TO_CHAR = bytes.maketrans(_SIGN_BYTES, _ALPHABET)
_TO_SIGN = bytes(_SIGN_BYTES[_ALPHABET.index(c)] if c in _ALPHABET else 2 for c in range(256))
_MAX_COUNT = 1 << 63  # sign counts are named in errors only up to here


class Chirotope:
    """A sign map on the lex-ordered (k+2)-subsets of [n].

    Values on arbitrary (k+2)-tuples follow by alternation: permuting
    arguments multiplies by the permutation parity, repeats give 0.  The
    backing array is immutable; instances hash by (n, k, signs).
    """

    __slots__ = ("n", "k", "signs")

    def __init__(self, n, k, signs):
        check_case(n, k)
        arr = np.array(signs if isinstance(signs, np.ndarray) else list(signs))
        # comb(n, k + 2) only up to 2^63: a large n and k must not cost comb
        want = comb_upto(n, k + 2, _MAX_COUNT)
        if arr.ndim != 1 or len(arr) != want:
            count = want if want <= _MAX_COUNT else f"more than {_MAX_COUNT}"
            raise InputError(f"expected {count} signs for n={n} k={k}, got {arr.size}")
        arr = checked_signs(arr)
        arr.setflags(write=False)
        self.n = n
        self.k = k
        self.signs = arr

    @property
    def r(self):
        """Arity of the sign map, k + 2."""
        return self.k + 2

    def __eq__(self, other):
        return (
            isinstance(other, Chirotope)
            and self.n == other.n
            and self.k == other.k
            and self.signs.tobytes() == other.signs.tobytes()
        )

    def __hash__(self):
        return hash((self.n, self.k, self.signs.tobytes()))

    def __repr__(self):
        return f"Chirotope(n={self.n}, k={self.k}, {self.sign_string()!r})"

    def value(self, t):
        """chi on an arbitrary (k+2)-tuple of elements of [n], via
        alternation; InputError unless check_tuple reads it."""
        parity, srt = check_tuple(t, self.n, self.r)
        if parity == 0:
            return 0
        return parity * int(self.signs[lex_rank(srt, self.n)])

    def sign_string(self):
        return bytearray(self.signs).translate(_TO_CHAR).decode("ascii")

    def is_uniform(self):
        """True when no sign vanishes."""
        return bool((self.signs != 0).all())

    def negated(self):
        return Chirotope(self.n, self.k, -self.signs)

    def canonicalize(self):
        """The representative of {chi, -chi} whose first nonzero sign is +1."""
        lead = leading_signs(self.signs[None])[0]
        if lead == 0:
            raise InputError("cannot canonicalize the zero map")
        return self if lead > 0 else self.negated()

    def reorient(self, subset):
        """Reorientation by A: each tuple sign flips by the parity of
        |complement(tuple) intersect A|."""
        _, elems = check_tuple(subset, self.n)
        inside = np.zeros(self.n + 1, bool)  # membership over 0..n, index 0 unused
        inside[list(elems)] = True
        outside = int(inside.sum()) - inside[tuple_index(self.n, self.k).tuples].sum(1)
        return Chirotope(self.n, self.k, np.where(outside & 1, -self.signs, self.signs))

def to_text(chi):
    """Two-line text form: header with n and k, then the sign string."""
    return f"n={chi.n} k={chi.k}\n{chi.sign_string()}\n"


def from_text(text):
    """Parse the two-line text form; strict about shape and characters."""
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if len(lines) != 2:
        raise InputError("expected a header line and one sign line")
    try:
        fields = dict(part.split("=", 1) for part in lines[0].split())
        n = int(fields["n"])
        k = int(fields["k"])
    except (ValueError, KeyError) as exc:
        raise InputError(f"malformed header {lines[0]!r}") from exc
    return Chirotope(n, k, signs_from_string(lines[1].strip()))


def checked_signs(arr):
    """An array of any shape as int8 signs; InputError unless every
    entry is a number equal to -1, 0 or +1."""
    if arr.dtype.kind not in "biufO" or not ((arr == -1) | (arr == 0) | (arr == 1)).all():
        raise InputError("signs must be -1, 0 or +1")
    return arr.astype(np.int8, copy=False)


def sign_chars(signs):
    """Record characters (uint8) of an int8 sign array of any shape."""
    return np.frombuffer(bytearray(signs).translate(_TO_CHAR), np.uint8).reshape(signs.shape)


def char_signs(chars):
    """Signs (int8) of record characters (uint8), any shape; a non-sign reads as 2."""
    return np.frombuffer(bytearray(chars).translate(_TO_SIGN), np.int8).reshape(chars.shape)


def plus_minus(chars):
    """True when every row of a character matrix holds only '+' and '-'
    and starts with '+': canonical nowhere-zero records, by whole-array
    tests."""
    plus, minus = _ALPHABET[1], _ALPHABET[2]
    return bool(
        (chars[:, 0] == plus).all()
        and chars.min(initial=plus) >= plus
        and chars.max(initial=minus) <= minus
        and not (chars == plus + 1).any()  # the one byte between them
    )


def signs_from_string(s):
    """'+-0' characters to an int8 array."""
    signs = char_signs(np.frombuffer(s.encode("ascii", "replace"), np.uint8))
    if (signs > 1).any():
        raise InputError(f"invalid sign character in {s!r}")
    return signs


def leading_signs(signs):
    """The first nonzero entry of each row of a sign matrix, 0 for a zero row."""
    return signs[np.arange(len(signs)), (signs != 0).argmax(1)]


def canonical_chars(signs):
    """Record characters of each row of a sign matrix, negated where its
    first nonzero sign is -1: the record of {row, -row}."""
    return sign_chars(signs * leading_signs(signs)[:, None])


def record_chars(records, width):
    """The records before the first one of another length, as an (m, width)
    uint8 matrix ((0, 1) when there are none); non-ASCII reads as a non-sign."""
    wrong = np.fromiter(map(len, records), np.int64, len(records)) != width
    m = int(wrong.argmax()) if wrong.any() else len(records)
    data = "".join(records[:m]).encode("ascii", "replace")
    return np.frombuffer(data, np.uint8).reshape(m, width if m else 1)


def record_lines(chars):
    """The rows of a record character matrix, each followed by a newline,
    as one (m, width + 1) uint8 matrix."""
    return np.concatenate([chars, np.full((len(chars), 1), ord("\n"), np.uint8)], axis=1)


def records_of(chars):
    """The rows of a record character matrix as strings, from one split."""
    # the lines are freed before the split: the strings need not share the peak with them
    return str(record_lines(chars).data, "ascii").split("\n")[:-1]


def record_order(chars):
    """The permutation that sorts the rows of a character matrix as byte strings."""
    return np.argsort(chars.view(f"V{chars.shape[1]}").ravel(), kind="stable")


def bit_order(plus):
    """record_order of nowhere-zero records, from where they hold '+' (a
    boolean matrix): '+' sorts before '-', so the records sort as the
    big-endian 8-byte words of their packed '-' bits.

    A key of one word (at most 64 tuples) takes np.argsort, which is
    not stable but about three times as fast as the stable sorts: the
    records of an enumeration are distinct, so any sort gives the one
    order.  A matrix with two equal rows, and a wider key, take the
    stable np.lexsort, which beat an argsort of the key bytes as one
    void or string field at (8,3) and (8,2)."""
    m, width = plus.shape
    key = np.zeros((m, 8 * -(-width // 64)), np.uint8)
    key[:, : -(-width // 8)] = np.packbits(plus, axis=1)
    np.invert(key, out=key)
    words = key.view(">u8").astype(np.uint64)
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0])
        if np.diff(words[order, 0]).all():  # distinct: the one order
            return order
    return np.lexsort(words.T[::-1])


def bit_chars(plus):
    """The record characters of a boolean matrix (True = '+'), written
    over its bytes: '-' - 2 * bit."""
    chars = plus.view(np.uint8)
    np.left_shift(chars, 1, out=chars)
    return np.subtract(_ALPHABET[2], chars, out=chars)


def ascending(chars):
    """For each row after the first: does it sort strictly after the row
    before?  Rows compare as big-endian 8-byte words, zero-padded."""
    m, width = chars.shape
    words = np.zeros((m, 8 * -(-width // 8)), np.uint8)
    words[:, :width] = chars
    words = words.view(">u8")
    # equality does not depend on byte order
    at = (words[:-1].view("<u8") != words[1:].view("<u8")).argmax(1)[:, None]
    return (np.take_along_axis(words[1:], at, 1) > np.take_along_axis(words[:-1], at, 1))[:, 0]


def cocircuit_vectors(chi):
    """All cocircuit sign vectors of a chirotope, as an (m, n) int8 array.

    Rows are the distinct nonzero vectors (chi(lam, e))_e and their
    negatives, over bases lam in Lambda([n], k+1).  Deterministic row
    order: ascending as int tuples.  For a uniform chirotope every row
    has exactly k+1 zeros (the base positions).
    """
    idx = tuple_index(chi.n, chi.k)
    vecs = idx.parity * chi.signs[idx.rank]
    vecs = vecs[(vecs != 0).any(1)]
    both = np.concatenate([vecs, -vecs])
    out = both[record_order((both + 1).view(np.uint8))]  # -1, 0, +1 sort as bytes 0, 1, 2
    out = out[np.append(True, (out[1:] != out[:-1]).any(1))[: len(out)]]  # drop repeated rows
    out.setflags(write=False)
    return out


def window_signs(chi):
    """Matrix of subtuple signs per (k+3)-window, shape (W, k+3)."""
    return chi.signs[window_index(chi.n, chi.k)]
