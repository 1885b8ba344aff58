"""Checks of polyom's outputs that do not trust polyom.

Every function here recomputes what it checks from first principles:
sign maps from exact divided differences, windows from
itertools.combinations, catalog digests with hashlib.  Each returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from math import comb, lcm

import numpy as np

# OEIS A006245: simple pseudoline arrangements (k = 1 signotopes) on n
# elements, counted with both global signs (Knuth, Axioms and Hulls,
# LNCS 606).  A catalog holds one of each {chi, -chi} pair: half of it.
A006245 = {1: 1, 2: 1, 3: 2, 4: 8, 5: 62, 6: 908, 7: 24698, 8: 1232944, 9: 112018190}

# Numbers of degree-k signotopes up to global sign for k >= 2, the
# required counts of the acceptance suite (tests/test_acceptance.py).
REQUIRED_COUNTS = {
    (4, 2): 1, (5, 2): 5, (6, 2): 74, (7, 2): 3843,
    (5, 3): 1, (6, 3): 6, (7, 3): 169, (8, 3): 39016,
    (6, 4): 1, (7, 4): 7, (8, 4): 376,
    (7, 5): 1, (8, 5): 8, (9, 5): 823,
}


def expected_count(n, k):
    if k == 1:
        return A006245[n] // 2
    return REQUIRED_COUNTS[(n, k)]


# ---------------------------------------------------------------- signs


def tuple_sign(xs, ys):
    """Sign of the top divided difference of ys over increasing xs.

    For x-sorted points, det(1, x, ..., x^k, y) equals the positive
    Vandermonde product times y[x_1, ..., x_{k+2}], so the two signs
    agree.  Fractions are kept as (numerator, positive denominator)
    pairs of integers, so the sign is the numerator's.
    """
    m = len(xs)
    nums = list(ys)
    dens = [1] * m
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            nums[i] = nums[i] * dens[i - 1] - nums[i - 1] * dens[i]
            dens[i] = dens[i] * dens[i - 1] * (xs[i] - xs[i - level])
    top = nums[m - 1]
    return (top > 0) - (top < 0)


def _integer_coords(points):
    """Scale x and y by positive common denominators: signs unchanged."""
    pts = sorted((Fraction(x), Fraction(y)) for x, y in points)
    dx = lcm(*(x.denominator for x, _ in pts))
    dy = lcm(*(y.denominator for _, y in pts))
    return [int(x * dx) for x, _ in pts], [int(y * dy) for _, y in pts]


def sign_string(points, k):
    """The degree-k sign map of a point set as '+-0' over lex tuples."""
    xs, ys = _integer_coords(points)
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("x-coordinates must be distinct")
    chars = []
    for t in itertools.combinations(range(len(xs)), k + 2):
        s = tuple_sign([xs[i] for i in t], [ys[i] for i in t])
        chars.append("+" if s > 0 else "-" if s < 0 else "0")
    return "".join(chars)


def canonical(signs):
    """The representative of {s, -s} whose first nonzero sign is '+'."""
    for c in signs:
        if c == "+":
            return signs
        if c == "-":
            return signs.translate(str.maketrans("+-", "-+"))
    return signs


def draw_points(rng, n, coord_range):
    """n integer points with distinct x, uniform over [-R, R]^2."""
    xs = sorted(rng.sample(range(-coord_range, coord_range + 1), n))
    return [(x, rng.randint(-coord_range, coord_range)) for x in xs]


def uniform_configs(seed, n, k, count, coord_range=10**6):
    """Seeded point sets whose sign maps have no zero, with their maps."""
    rng = random.Random(f"uniform-{seed}-{n}-{k}")
    out = []
    while len(out) < count:
        pts = draw_points(rng, n, coord_range)
        signs = sign_string(pts, k)
        if "0" not in signs:
            out.append((pts, signs))
    return out


# ------------------------------------------------------------- catalogs


def window_table(n, k):
    """Ranks of the (k+2)-subsets of each (k+3)-subset, both in lex order."""
    rank = {t: i for i, t in enumerate(itertools.combinations(range(n), k + 2))}
    return np.array(
        [
            [rank[s] for s in itertools.combinations(lam, k + 2)]
            for lam in itertools.combinations(range(n), k + 3)
        ],
        np.int64,
    ).reshape(-1, k + 3)


def non_unimodal_rows(rows, n, k):
    """Indices of '+'/'-' rows whose sign changes more than once in a window."""
    if not rows:
        return []
    chars = np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), -1)
    windows = window_table(n, k)
    if len(windows) == 0:
        return []
    seqs = chars[:, windows]
    changes = (seqs[:, :, 1:] != seqs[:, :, :-1]).sum(2)
    return np.nonzero((changes > 1).any(1))[0].tolist()


def read_catalog_file(path):
    """(header fields, record lines as bytes, recomputed sha256 hex)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, _, body = data.partition(b"\n")
    fields = dict(part.split("=", 1) for part in head.decode("ascii").split())
    lines = body.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return fields, lines, hashlib.sha256(body).hexdigest()


def check_catalog_file(path, n, k, rows=None):
    """Header, digest and, when given, the records of a written catalog."""
    errors = []
    fields, lines, digest = read_catalog_file(path)
    if fields.get("n") != str(n) or fields.get("k") != str(k):
        errors.append(f"{path}: header n/k {fields.get('n')}/{fields.get('k')}")
    if fields.get("count") != str(len(lines)):
        errors.append(f"{path}: header count {fields.get('count')}, {len(lines)} lines")
    if fields.get("sha256") != digest:
        errors.append(f"{path}: sha256 in header does not match the body")
    if rows is not None and [ln.split(b" ", 1)[0] for ln in lines] != rows:
        errors.append(f"{path}: records read back differ from the records written")
    return errors


def check_enumeration(rows, n, k):
    """Count, canonical form, strict order and window unimodality."""
    errors = []
    want = expected_count(n, k)
    if len(rows) != want:
        errors.append(f"({n},{k}): {len(rows)} rows, expected {want}")
    width = comb(n, k + 2)
    bad = [r for r in rows if len(r) != width or r.strip(b"+-") or not r.startswith(b"+")]
    if bad:
        errors.append(f"({n},{k}): {len(bad)} rows malformed or not canonical")
        return errors
    if any(a >= b for a, b in zip(rows, rows[1:])):
        errors.append(f"({n},{k}): rows not strictly increasing")
    broken = non_unimodal_rows(rows, n, k)
    if broken:
        errors.append(f"({n},{k}): {len(broken)} rows not unimodal, first {broken[0]}")
    return errors


def check_members(rows, configs, n, k):
    """Every seeded uniform point set's map must be a catalog row."""
    members = set(rows)
    missing = [s for _, s in configs if canonical(s).encode("ascii") not in members]
    if missing:
        return [f"({n},{k}): {len(missing)} realized sign maps missing from the catalog"]
    return []


# -------------------------------------------------------------- realize


def tagged_records(path):
    """Records and witness point lists of a tagged catalog file."""
    records, witnesses = [], []
    for line in read_catalog_file(path)[1]:
        rec, tag, *coords = line.decode("ascii").split()
        records.append(rec)
        if tag == "R":
            vals = [Fraction(c) for c in coords]
            witnesses.append(list(zip(vals[::2], vals[1::2])))
        else:
            witnesses.append(None)
    return records, witnesses


def check_witnesses(records, witnesses, k):
    """Each witness's recomputed map canonicalizes to its record."""
    errors = []
    for i, (rec, wit) in enumerate(zip(records, witnesses)):
        if wit is None:
            continue
        if canonical(sign_string(wit, k)) != rec:
            errors.append(f"record {i}: witness does not realize {rec}")
    return errors


# --------------------------------------------------------------- census


def check_scan(acyclic, histogram, n):
    """Histogram sums to the acyclic count, and every bin is even.

    Reorienting by A and by its complement differ by a global sign, so
    both give the same cocircuit set: reorientations come in pairs.
    """
    errors = []
    if sum(histogram.values()) != acyclic:
        errors.append(f"histogram sums to {sum(histogram.values())}, acyclic={acyclic}")
    odd = sorted(c for c, v in histogram.items() if v % 2)
    if odd:
        errors.append(f"odd histogram bins {odd}")
    if not 0 <= acyclic <= 1 << n:
        errors.append(f"acyclic={acyclic} outside [0, 2^{n}]")
    return errors


def cocircuit_count(n, k):
    """Cocircuits of a uniform map: one +- pair per (k+1)-subset."""
    return 2 * comb(n, k + 1)
