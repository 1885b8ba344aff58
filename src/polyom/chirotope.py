"""Alternating sign maps on (k+2)-tuples and their cocircuit vectors."""

from __future__ import annotations

from math import comb

import numpy as np

from .combinat import lex_rank, sort_with_sign, tuple_index, window_index
from .errors import InputError

_SIGN_CHARS = {1: "+", -1: "-", 0: "0"}
_CHAR_SIGNS = {"+": 1, "-": -1, "0": 0}


class Chirotope:
    """A sign map on the lex-ordered (k+2)-subsets of [n].

    Values on arbitrary (k+2)-tuples follow by alternation: permuting
    arguments multiplies by the permutation parity, repeats give 0.  The
    backing array is immutable; instances hash by (n, k, signs).
    """

    __slots__ = ("n", "k", "signs")

    def __init__(self, n, k, signs):
        if k < 1:
            raise InputError(f"degree must be at least 1, got {k}")
        if n < k + 2:
            raise InputError(f"need at least k+2 = {k + 2} elements, got n = {n}")
        arr = np.array(signs if isinstance(signs, np.ndarray) else list(signs))
        if arr.ndim != 1 or len(arr) != comb(n, k + 2):
            raise InputError(
                f"expected {comb(n, k + 2)} signs for n={n} k={k}, got {arr.size}"
            )
        if arr.dtype.kind not in "biufO" or not ((arr >= -1) & (arr <= 1)).all():
            raise InputError("signs must be -1, 0 or +1")
        arr = arr.astype(np.int8, copy=False)
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
        """chi on an arbitrary (k+2)-tuple, via alternation."""
        t = tuple(t)
        if len(t) != self.r:
            raise InputError(f"expected a {self.r}-tuple, got {t}")
        for v in t:
            if not 1 <= v <= self.n:
                raise InputError(f"index {v} outside [1, {self.n}]")
        parity, srt = sort_with_sign(t)
        if parity == 0:
            return 0
        return parity * int(self.signs[lex_rank(srt, self.n)])

    def sign_string(self):
        return "".join(_SIGN_CHARS[int(v)] for v in self.signs)

    def is_uniform(self):
        """True when no sign vanishes."""
        return bool((self.signs != 0).all())

    def negated(self):
        return Chirotope(self.n, self.k, -self.signs)

    def canonicalize(self):
        """The representative of {chi, -chi} whose first nonzero sign is +1."""
        for v in self.signs:
            if v > 0:
                return self
            if v < 0:
                return self.negated()
        raise InputError("cannot canonicalize the zero map")

    def reorient(self, subset):
        """Reorientation by A: each tuple sign flips by the parity of
        |complement(tuple) intersect A|."""
        inside = self._element_mask(subset, "reorientation element")
        outside = int(inside.sum()) - inside[tuple_index(self.n, self.k).tuples].sum(1)
        return Chirotope(self.n, self.k, np.where(outside & 1, -self.signs, self.signs))

    def restrict(self, elements):
        """The induced sign map on a subset of the ground set.

        Elements keep their relative order and are relabelled 1..m, so
        the tuples inside the subset keep their lex order.
        """
        kept = self._element_mask(elements, "element")
        if kept.sum() < self.r:
            raise InputError("restriction needs at least k+2 elements")
        inside = kept[tuple_index(self.n, self.k).tuples].all(1)
        return Chirotope(int(kept.sum()), self.k, self.signs[inside])

    def _element_mask(self, elements, what):
        """Boolean membership over 0..n, index 0 unused."""
        mask = np.zeros(self.n + 1, bool)
        for e in set(elements):
            if not 1 <= e <= self.n:
                raise InputError(f"{what} {e} outside [1, {self.n}]")
            mask[e] = True
        return mask


def to_text(chi):
    """Two-line text form: header with n and k, then the sign string."""
    return f"n={chi.n} k={chi.k}\n{chi.sign_string()}\n"


def from_text(text):
    """Parse the two-line text form; strict about shape and characters."""
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if len(lines) != 2:
        raise InputError("expected a header line and one sign line")
    head = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in head)
        n = int(fields["n"])
        k = int(fields["k"])
    except (ValueError, KeyError) as exc:
        raise InputError(f"malformed header {lines[0]!r}") from exc
    body = lines[1].strip()
    try:
        signs = [_CHAR_SIGNS[c] for c in body]
    except KeyError as exc:
        raise InputError(f"invalid sign character in {body!r}") from exc
    return Chirotope(n, k, signs)


def signs_from_string(s):
    """'+-0' characters to an int8 array."""
    try:
        return np.array([_CHAR_SIGNS[c] for c in s], np.int8)
    except KeyError as exc:
        raise InputError(f"invalid sign character in {s!r}") from exc


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
    out = np.unique(np.concatenate([vecs, -vecs]), axis=0)
    out.setflags(write=False)
    return out


def window_signs(chi):
    """Matrix of subtuple signs per (k+3)-window, shape (W, k+3)."""
    wi = window_index(chi.n, chi.k)
    if not wi.windows:
        return np.zeros((0, chi.k + 3), np.int8)
    return chi.signs[np.array(wi.windows, np.int64)]
