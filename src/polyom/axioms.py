"""Axiom checkers for degree-k sign maps and their cocircuit vectors.

Every check returns an AxiomReport.  Failures carry the lexicographically
first witness: checks scan pairs and windows in lex order, so reruns
produce identical reports; for C3, among the pairs that it checks.

C0 to C3 and the scan's acyclic and extreme tests read sign-vector sets
in one arithmetic: products of 0/1 matrices, whose counts float holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .chirotope import Chirotope, checked_signs, cocircuit_vectors, window_signs
from .combinat import exchange_table, lex_unrank
from .errors import InputError


@dataclass(frozen=True)
class AxiomReport:
    """Verdict of one check, with the first offending witness on failure.

    A witness is a tuple of Python ints and tuples of ints, so it goes
    to JSON as it is; the text form prints the same JSON.
    """

    passed: bool
    axiom: str = ""
    witness: tuple = ()
    note: str = ""

    def __bool__(self):
        return self.passed

    def text(self):
        if self.passed:
            return "PASS" + (f" ({self.note})" if self.note else "")
        parts = [f"FAIL {self.axiom}"]
        if self.witness:
            parts.append(f"witness={json.dumps(self.witness)}")
        if self.note:
            parts.append(f"({self.note})")
        return " ".join(parts)

    def to_json(self):
        return json.dumps(
            {
                "passed": self.passed,
                "axiom": self.axiom,
                "witness": self.witness,
                "note": self.note,
            },
            sort_keys=True,
        )


_PASS = AxiomReport(True)


def check_B1(chi):
    """Some tuple must carry a nonzero sign."""
    if (chi.signs != 0).any():
        return _PASS
    return AxiomReport(False, "B1", (), "sign map is identically zero")


# Array elements per block of the exchange test: bounds its
# (rows, k+3, pairs) term arrays.
EXCHANGE_CHUNK = 1 << 22


def _exchange_failures(X, n, k):
    """The exchange table for the int8 sign matrix X, whose rows are maps
    on the lex (k+2)-tuples of [n], and each row's first failing pair in
    it, -1 where all hold.  A pair holds when its terms T have T.max() ==
    -T.min(): both signs, or all 0.  The pairs the table leaves out hold
    on every map, zeros included, and it keeps the order of the rest, so
    the verdict and first failing pair are those of all pairs."""
    # positional False: lru_cache keys on it, and this is the entry the benchmark warms
    tab = exchange_table(n, k, False)
    first = np.full(len(X), -1, np.intp)
    if len(tab.coeff):
        step = max(1, EXCHANGE_CHUNK // tab.coeff.size)
        for lo in range(0, len(X), step):
            x = X[lo : lo + step]
            T = tab.coeff.T * x[:, tab.left.T] * x[:, tab.right.T]
            bad = T.max(1) != -T.min(1)
            first[lo : lo + step] = np.where(bad.any(1), bad.argmax(1), -1)
    return tab, first


def check_B3(chi):
    """Grassmann-Pluecker sign condition over all sorted pairs.

    For each ordered pair (lam, mu) with pivot lam_1, the multiset
    { -chi(lam)chi(mu) } + { exchange terms } must contain both signs or
    vanish entirely.  Realized sign maps satisfy this because the
    corresponding determinant products sum to zero.
    """
    tab, first = _exchange_failures(chi.signs[None], chi.n, chi.k)
    p, x = int(first[0]), chi.signs
    if p < 0:
        return _PASS
    lam, mu = (lex_unrank(int(t[p, 0]), chi.n, chi.r) for t in (tab.left, tab.right))
    terms = tuple(int(v) for v in tab.coeff[p] * x[tab.left[p]] * x[tab.right[p]])
    return AxiomReport(False, "B3", (lam, mu, terms), "exchange terms all of one sign")


def check_unimodal(chi):
    """Deletion signs of every (k+3)-window change at most once.

    The window sequence lists the (k+2)-subtuples in lex order (largest
    element deleted first).  The admissible shapes are s^a 0^b (-s)^c
    with b in {0, 1, all}: exactly the monotone sequences with at most
    one zero, plus the all-zero window.  Without zeros that is at most
    one sign change.
    """
    S = window_signs(chi)
    if S.shape[0] == 0:
        return _PASS
    steps = np.diff(S, axis=1)
    zeros = (S == 0).sum(1)
    monotone = (steps <= 0).all(1) | (steps >= 0).all(1)
    ok = (zeros == S.shape[1]) | ((zeros <= 1) & monotone)
    if ok.all():
        return _PASS
    w = int(np.argmax(~ok))
    return AxiomReport(
        False,
        "unimodal",
        (lex_unrank(w, chi.n, chi.k + 3), tuple(int(v) for v in S[w])),
        "window sign sequence changes more than once",
    )


def check_transitivity(chi):
    """Equal outer deletion signs force a constant window.

    In each (k+3)-window, the lex-first subtuple drops the largest
    element and the lex-last drops the smallest; when those two signs
    agree, every subtuple of the window must carry that sign.
    """
    S = window_signs(chi)
    if S.shape[0] == 0:
        return _PASS
    bad = (S[:, 0] == S[:, -1]) & ~(S == S[:, :1]).all(1)
    if not bad.any():
        return _PASS
    w = int(np.argmax(bad))
    return AxiomReport(
        False,
        "transitivity",
        (lex_unrank(w, chi.n, chi.k + 3), tuple(int(v) for v in S[w])),
        "outer deletions agree but the window is not constant",
    )


def check_degree_k(chi):
    """B1, alternation, the exchange condition and window unimodality.

    Alternation is structural here: values on unsorted tuples are defined
    through the stored sorted representatives.  Uniformity is not part of
    the verdict; it rides along in the note.
    """
    for check in (check_B1, check_B3, check_unimodal):
        report = check(chi)
        if not report:
            return report
    note = "uniform" if chi.is_uniform() else "not uniform"
    return AxiomReport(True, note=note)


def _as_matrix(vectors):
    try:
        M = np.asarray(vectors)
    except ValueError:
        raise InputError("expected a list of equal-length sign vectors") from None
    if M.size == 0 and M.ndim == 1:
        M = M.reshape(0, 0)
    if M.ndim != 2:
        raise InputError("expected a list of equal-length sign vectors")
    return checked_signs(M)


# Array elements per block of the pairwise C3 pass and of the
# reorientation scan: bounds their (rows, m) and (rows, 2n) arrays.
CHUNK = 1 << 17


def _blocks(count, m, n):
    """Slices of range(count), CHUNK // (m + 2n) rows each (at least one)."""
    step = max(1, CHUNK // max(1, m + 2 * n))
    return (slice(s, s + step) for s in range(0, count, step))


def _clash_free(P, N):
    """The vectors with + sets P and - sets N that avoid boolean rows
    [F+ | F-]: the clash count [F+ | F-] @ [P | N]^T is 0, which float32
    decides exactly, since a sum of 0/1 terms is 0 only if each term is."""
    PN = np.ascontiguousarray(np.concatenate([P, N], axis=1).T, dtype=np.float32)
    return lambda forbidden: (forbidden.astype(np.float32) @ PN) == 0


def _c3_general(M, pairs):
    """Weak elimination on the pairs of rows that pairs lists.

    Where X and Y disagree, some vector of the set must vanish there
    while drawing every one of its signs from X or Y.  No constraint is
    put on the rest of its zero set: demanding one (as the exact
    near-pair form does) is unsatisfiable for pairs whose zero sets
    share too little.  pairs is (I, J), two index arrays in lex order of
    (i, j); it must leave out the pairs X = -Y, which need no eliminant.
    `check_cocircuit_axioms` lists one pair i < j per negation orbit;
    the pairs np.nonzero finds in a symmetric mask give the same report.

    The listed pairs are checked at once, in blocks of at most CHUNK
    array elements, as products of 0/1 matrices: the clash test
    (`_clash_free`) on [outside X+ | Y+, outside X- | Y-], one gather
    from [~P | ~N] per row, gives the allowed rows, then the coverage
    counts allowed @ Z, where Z marks the zero entries; an element fails
    where it separates X and Y and no allowed row covers it.  Only
    whether a count is 0 is read, so float32 decides it exactly.  The
    witness (i, j, e) is the first failing pair listed, with its lowest
    uncovered element.
    """
    m, n = M.shape
    P, N = M == 1, M == -1
    clash_free = _clash_free(P, N)
    outside = np.hstack([~P, ~N])
    Z = (M == 0).astype(np.float32)
    I, J = pairs
    for b in _blocks(len(I), m, n):
        i, j = I[b], J[b]
        allowed = clash_free(outside[i] & outside[j])
        missing = (M[i] * M[j] == -1) & ((allowed.astype(np.float32) @ Z) == 0)
        failed = missing.any(1)
        if failed.any():
            t = int(np.argmax(failed))
            return AxiomReport(
                False,
                "C3",
                (int(i[t]), int(j[t]), int(np.argmax(missing[t])) + 1),
                "no eliminating vector for this pair",
            )
    return _PASS


def check_cocircuit_axioms(vectors, uniform=None):
    """C0 through C3 for a finite set of sign vectors.

    C0: the zero vector is absent.  C1: closed under negation.  C2: a
    support contained in another forces equality up to sign.  C0 to C2
    read one product over all pairs of rows at once: with P and N the
    0/1 matrices of the + and - entries, [P | N] [P | N, N | P]^T holds
    the agreeing elements agree = P P^T + N N^T beside the separating
    elements sep = P N^T + N P^T, and the shared support is
    inter = agree + sep.  S_i inside S_j: inter == |S_i|; equal
    supports: that both ways; X_j = -X_i: equal supports and
    agree == 0; X_j = X_i: equal supports and sep == 0.  The entries
    count at most n terms, so float32 holds them exactly.

    C3: weak elimination (`_c3_general`) on the pairs sep > 0 that are
    not X, -X.  The set is complete when its distinct rows share one
    support size s and number 2 * C(n, s); after C1 and C2 every
    (n - s)-subset is then the zero set of one X, -X pair.  On a
    complete set the pairs narrow to the modular ones, inter == s - 1:
    there, elimination on modular pairs is weak elimination (BLVSZ 1993,
    3.6), and the witness is the one a lookup of the eliminant's zero
    set gives, since an allowed row that vanishes where a modular pair
    separates has the zero set X^0 & Y^0 plus that element.

    Only one pair per negation orbit is checked.  After C1 every row i
    has a first negative row nu(i).  The pair (nu(i), nu(j)) is (-X, -Y):
    its allowed rows are the negatives of those of (X, Y), its
    separating elements the same, and the set is closed under negation,
    so both pairs fail at the same elements, and both are marked or
    neither.  So only the pairs i < j that are lex <= their image
    (sorted (nu(i), nu(j))) are checked.  The lex-first failing pair is
    among them: were it not, its image would be a failing pair lex
    before it.  That holds also when rows repeat and nu is no
    involution.  The witness is that pair, the lex-first failing one of
    all the marked pairs, with its lowest uncovered element: the one the
    check on every marked pair gives.  Witnesses index rows of the
    input.  uniform is accepted and ignored.  Entries outside
    {-1, 0, 1} and ragged rows raise InputError.
    """
    M = _as_matrix(vectors)
    m, n = M.shape
    if m == 0:
        return _PASS
    A = np.hstack([M == 1, M == -1]).astype(np.float32)
    size = A.sum(1)
    zero_rows = np.flatnonzero(size == 0)
    if len(zero_rows):
        return AxiomReport(False, "C0", (int(zero_rows[0]),), "zero vector present")
    counts = A @ np.vstack([A, np.hstack([A[:, n:], A[:, :n]])]).T
    agree, sep = counts[:, :m], counts[:, m:]
    inter = agree + sep
    nested = inter == size[:, None]
    same = nested & nested.T
    neq = same & (agree == 0)
    unpaired = ~neq.any(1)
    if unpaired.any():
        return AxiomReport(False, "C1", (int(np.argmax(unpaired)),), "negative not in the set")
    eq = same & (sep == 0)
    bad = nested & ~(eq | neq)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return AxiomReport(False, "C2", (int(i), int(j)), "nested supports, not a sign pair")
    pairs = (sep > 0) & ~neq
    s = int(size[0])
    distinct = (eq.argmax(1) == np.arange(m)).sum()
    if (size == s).all() and distinct == 2 * comb(n, s):
        pairs &= inter == s - 1
    I, J = np.divmod(np.flatnonzero(pairs), m)
    nu = neq.argmax(1)
    a, b = nu[I], nu[J]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = (I < J) & ((I < lo) | ((I == lo) & (J <= hi)))
    return _c3_general(M, (I[keep], J[keep]))


def _acyclic_extreme(M, A):
    """The acyclic mask and the extreme-element rows of the reorientations
    A (boolean rows, True where flipped) of the sign-vector set M, in
    blocks of CHUNK elements.  X is nonnegative under A exactly when it
    passes the clash test on [A | ~A].  Acyclic: the supports S of the
    nonnegative vectors cover every element; extreme: in the zero set Z
    of one; both read nonneg @ [S | Z] > 0."""
    m, n = M.shape
    clash_free = _clash_free(M == 1, M == -1)
    SZ = np.concatenate([M != 0, M == 0], axis=1).astype(np.float32)
    acyclic, extreme = [], []
    for b in _blocks(len(A), m, n):
        nonneg = clash_free(np.hstack([A[b], ~A[b]]))
        hit = (nonneg.astype(np.float32) @ SZ) > 0
        acyclic.append(nonneg.any(1) & hit[:, :n].all(1))
        extreme.append(hit[:, n:])
    return np.concatenate(acyclic), np.concatenate(extreme)


def is_acyclic(obj):
    """Every element sits strictly inside some nonnegative cocircuit.

    Accepts a Chirotope (cocircuits are computed) or a vector matrix.
    """
    M = cocircuit_vectors(obj) if isinstance(obj, Chirotope) else _as_matrix(obj)
    return bool(_acyclic_extreme(M, np.zeros((1, M.shape[1]), bool))[0][0])


def extreme_points(chi):
    """Elements lying on a nonnegative cocircuit's zero set.

    Defined for acyclic chirotopes only; raises InputError otherwise.
    """
    acyclic, extreme = _acyclic_extreme(cocircuit_vectors(chi), np.zeros((1, chi.n), bool))
    if not acyclic[0]:
        raise InputError("extreme points need an acyclic chirotope")
    return tuple(int(c) + 1 for c in np.flatnonzero(extreme[0]))


@dataclass(frozen=True)
class ScanReport:
    """Extreme-point census over all reorientations of one chirotope."""

    n: int
    k: int
    total: int
    acyclic: int
    histogram: dict = field(default_factory=dict)
    found: bool = False
    best_set: tuple = ()
    best_count: int = -1

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "total": self.total,
                "acyclic": self.acyclic,
                "histogram": {str(c): v for c, v in sorted(self.histogram.items())},
                "found": self.found,
                "best_set": list(self.best_set),
                "best_count": self.best_count,
            },
            sort_keys=True,
        )


@lru_cache(maxsize=None)
def _half_flips(n):
    """Read-only (2^(n-1), n) boolean rows of the masks 0 .. 2^(n-1) - 1,
    the reorientations that leave element n unflipped; element e <-> bit
    e-1."""
    flips = (np.arange(1 << (n - 1))[:, None] >> np.arange(n) & 1).astype(bool)
    flips.setflags(write=False)
    return flips


def las_vergnas_scan(chi):
    """Count extreme points in every reorientation of a chirotope.

    Reorientation by A flips the cocircuit columns in A.  The report
    histograms extreme-point counts over the acyclic reorientations and
    records whether any reaches exactly k+2, the minimum a realized
    configuration exhibits.  best_set is the first reorientation (by
    subset bitmask) whose count is closest to k+2.  Subsets enumerate
    as bitmasks, element e <-> bit e-1.

    The cocircuit set is closed under negation, so reorienting by A and
    by its complement gives the same set of vectors, hence the same
    nonnegative vectors, acyclic bit and extreme elements.  Only the
    2^(n-1) masks that leave element n unflipped are evaluated; each
    stands for itself and its complement, 2^n - 1 - mask, which comes
    later in mask order.  So every count doubles, and the first mask
    closest to k+2 lies in the evaluated half.
    """
    M, n, r = cocircuit_vectors(chi), chi.n, chi.r
    acyclic, extreme = _acyclic_extreme(M, _half_flips(n))
    masks = np.flatnonzero(acyclic)
    counts = extreme[masks].sum(1)
    freq = 2 * np.bincount(counts)
    best_set, best_count = (), -1
    if len(masks):
        best = int(np.argmin(np.abs(counts - r)))
        best_set = tuple(e + 1 for e in range(n) if masks[best] >> e & 1)
        best_count = int(counts[best])
    return ScanReport(
        n=n,
        k=chi.k,
        total=1 << n,
        acyclic=2 * len(masks),
        histogram={c: int(freq[c]) for c in np.flatnonzero(freq).tolist()},
        found=best_count == r,
        best_set=best_set,
        best_count=best_count,
    )
