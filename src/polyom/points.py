"""Planar point configurations and their exact degree-k sign maps.

A configuration lifts into R^(k+2) along the polynomial-moment basis
(1, x, ..., x^k, y); the degree-k sign of a (k+2)-tuple is the
determinant sign of the lifted rows.

One predicate, `tuple_signs`, computes every such sign.  Expand the
determinant of an x-sorted tuple x_0 < ... < x_{k+1} along its y column:

    det = sum_j (-1)^(j+k+1) y_j V_j = V f[x_0, ..., x_{k+1}],

where V_j > 0 is the Vandermonde product of the x-values other than
x_j, V > 0 the full Vandermonde product and f[...] the (k+1)-th divided
difference of the y-values.  For integer coordinates the sum is
evaluated in float64 over whole batches of tuples, and its sign is
taken only where a proven bound on the rounding error certifies it (a
semi-static filter: Shewchuk, "Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates", DCG 18, 1997;
Bronnimann, Burnikel and Pion, "Interval arithmetic yields efficient
dynamic filters for computational geometry", DAM 109, 2001).  Every
entry the bound leaves open (exact zeros, overflow to inf or NaN, and
coordinates beyond 2^52, whose differences float64 no longer holds
exactly) is evaluated again in Python integers.  A PointConfig keeps
its points as integers already: numerators over their positive common
denominator L, which scales every determinant by L^(k(k+1)/2+1) > 0,
so chirotope_of signs the store as it is.

`det_sign` (Bareiss elimination) remains the general exact determinant
and `lagrange_sign` (Newton interpolation over the rationals) an
independent oracle for the same signs.
"""

from __future__ import annotations

import itertools
import numbers
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, lcm, log

import numpy as np

from .chirotope import Chirotope
from .combinat import check_case, check_tuple, tuple_index
from .errors import DegenerateConfigError, InputError

DEFAULT_RANGE = 10**6
DEFAULT_MAX_TRIES = 1000


class PointConfig:
    """Points with exact rational coordinates, sorted by x, 1-indexed.

    Element e refers to the e-th point in x-order.  Two points sharing an
    x-coordinate are rejected: the degree-k theory needs a strict total
    order on the first coordinate.

    The one store is integer: xs and ys, tuples of ints in x-order, over
    one positive common denominator scale, the lcm of the coordinates'
    denominators, so that point e is (xs[e-1]/scale, ys[e-1]/scale).  An
    integer configuration has scale 1 and is never turned into
    Fractions on the way in.  The store is canonical for the point set,
    so equality and hash are taken on it; an integer configuration
    hashes as the tuple of its (x, y) pairs, as Fractions of the same
    values do.  points, the (Fraction, Fraction) pairs, is a view made
    on first read.  The store does not change after construction, and
    nothing is cached on it: chirotope_of signs it on every call.
    """

    __slots__ = ("xs", "ys", "scale", "_points")

    def __init__(self, points):
        rows = points if type(points) is list else list(points)
        xs = [x for x, _ in rows]
        ys = [y for _, y in rows]
        scale = 1
        if not {*map(type, xs), *map(type, ys)} <= {int}:
            # in input order, so that the first bad coordinate is the one named
            coords = [(_rational(x), _rational(y)) for x, y in rows]
            scale = lcm(*(v.denominator for p in coords for v in p))
            xs = [x.numerator * (scale // x.denominator) for x, _ in coords]
            ys = [y.numerator * (scale // y.denominator) for _, y in coords]
        order = sorted(range(len(xs)), key=xs.__getitem__)
        self.xs = tuple(map(xs.__getitem__, order))
        self.ys = tuple(map(ys.__getitem__, order))
        if len(set(self.xs)) < len(self.xs):
            x = next(a for a, b in zip(self.xs, self.xs[1:]) if a == b)
            raise InputError(f"two points share x = {Fraction(x, scale)}")
        self.scale = scale
        self._points = None

    @property
    def points(self):
        """The points as (Fraction, Fraction) pairs in x-order."""
        if self._points is None:
            s = self.scale
            self._points = tuple((Fraction(x, s), Fraction(y, s)) for x, y in zip(self.xs, self.ys))
        return self._points

    def __len__(self):
        return len(self.xs)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, PointConfig) and (self.scale, self.xs, self.ys) == (
            other.scale, other.xs, other.ys,
        )

    def __hash__(self):
        pairs = tuple(zip(self.xs, self.ys))
        return hash(pairs) if self.scale == 1 else hash((self.scale, pairs))

    def __repr__(self):
        inner = ", ".join(f"({x}, {y})" for x, y in self.points)
        return f"PointConfig([{inner}])"

    def coords(self, e):
        """Coordinates of element e (1-based)."""
        _, (e,) = check_tuple((e,), len(self), 1)
        return self.points[e - 1]


def _rational(v):
    """v as an int or a Fraction: other integer types (np.int64) become
    int, and anything else goes through Fraction(v)."""
    if type(v) is int or type(v) is Fraction:
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    return Fraction(v)


def lift(point, k):
    """The moment-basis lift of one point: (1, x, ..., x^k, y)."""
    x, y = Fraction(point[0]), Fraction(point[1])
    return (Fraction(1),) + tuple(x**p for p in range(1, k + 1)) + (y,)


def det_sign(rows):
    """Sign of the determinant of a square matrix of rationals.

    Rows are cleared to integers, then reduced by fraction-free Gaussian
    elimination (Bareiss) with row-swap pivoting.  Exact; returns -1, 0
    or +1.
    """
    cleared = []
    for row in rows:
        frs = [Fraction(v) for v in row]
        scale = lcm(*(f.denominator for f in frs))
        cleared.append([int(f * scale) for f in frs])
    m = len(cleared)
    if any(len(r) != m for r in cleared):
        raise InputError("matrix is not square")
    return _int_det_sign(cleared)


def _int_det_sign(a):
    """Bareiss elimination on integer rows; destroys its argument."""
    m = len(a)
    sign = 1
    prev = 1
    for i in range(m - 1):
        if a[i][i] == 0:
            for j in range(i + 1, m):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[i][i]
        for j in range(i + 1, m):
            aji = a[j][i]
            row_j = a[j]
            row_i = a[i]
            for l in range(i + 1, m):
                row_j[l] = (row_j[l] * pivot - aji * row_i[l]) // prev
            row_j[i] = 0
        prev = pivot
    d = a[m - 1][m - 1]
    if d == 0:
        return 0
    return 1 if (d > 0) == (sign > 0) else -1


# Coordinates up to 2^52 in magnitude have differences up to 2^53, which
# float64 holds exactly; rows with a larger coordinate take the exact path.
_FLOAT_EXACT = 2**52


@lru_cache(maxsize=None)
def _sign_tables(n, k):
    """Index tables of the predicate for n points at degree k.

    cols (C, r): the points of every sorted r-tuple, r = k+2, lex order.
    pa, pb (P,): the positions a < b of the P = C(r, 2) pairs of a tuple.
    leave (r, p): for term j, the p = C(k+1, 2) pairs that avoid j.
    alt (r,): the cofactor signs (-1)^(j+k+1).
    """
    r = k + 2
    cols = tuple_index(n, k).tuples - 1
    pairs = list(itertools.combinations(range(r), 2))
    pa = np.array([a for a, _ in pairs], np.intp)
    pb = np.array([b for _, b in pairs], np.intp)
    leave = np.array(
        [[q for q, pair in enumerate(pairs) if j not in pair] for j in range(r)], np.intp
    ).reshape(r, comb(k + 1, 2))
    alt = np.array([(-1.0) ** (j + k + 1) for j in range(r)])
    return cols, pa, pb, leave, alt


def _int_array(v):
    if isinstance(v, np.ndarray) and v.dtype == np.int64:
        return v
    try:
        return np.array(v, dtype=np.int64)
    except OverflowError:
        return np.array(v, dtype=object)


def _exact_sign(xs, ys, k):
    """The sign of sum_j (-1)^(j+k+1) y_j V_j, over Python ints."""
    total = 0
    for j in range(k + 2):
        others = xs[:j] + xs[j + 1 :]
        term = ys[j]
        for a, xa in enumerate(others):
            for xb in others[a + 1 :]:
                term *= xb - xa
        total += term if (j + k + 1) % 2 == 0 else -term
    return (total > 0) - (total < 0)


def tuple_signs(xs, ys, k):
    """Degree-k signs of every sorted (k+2)-tuple of each configuration.

    xs and ys are integer arrays of shape (T, n), or nested sequences of
    ints, one configuration per row with x strictly increasing.  Returns
    the int8 array (T, C(n, k+2)) of det(1, x, ..., x^k, y) signs, tuples
    in lex order.  Exact: a float decides a sign only where the error
    bound certifies it, and every other entry is computed in integers.
    """
    X, Y = _int_array(xs), _int_array(ys)
    T, n = X.shape
    cols, pa, pb, leave, alt = _sign_tables(n, k)
    out = np.zeros((T, len(cols)), np.int8)
    certified = np.zeros(out.shape, bool)
    lim = _FLOAT_EXACT
    narrow = ((X >= -lim) & (X <= lim) & (Y >= -lim) & (Y <= lim)).all(1)
    if narrow.any():
        Xt = X[narrow].astype(np.float64)[:, cols]
        terms = Y[narrow].astype(np.float64)[:, cols] * alt
        # Error bound, with u = 2^-53 and gamma_m = m u / (1 - m u).  The
        # differences are exact, so each term y_j V_j takes p = C(k+1, 2)
        # rounded multiplications: t~_j = t_j (1 + th_j), |th_j| <= gamma_p,
        # in any order.  Summing the r = k+2 terms takes r-1 additions:
        # s~ = sum t~_j (1 + et_j), |et_j| <= gamma_(r-1), in any order.
        # So |s~ - s| <= (gamma_p / (1 - gamma_p) + gamma_(r-1)) A with
        # A = sum |t~_j|, and that is at most m u / (1 - 2 m u) A for
        # m = p + r - 1.  The bound is itself rounded: the computed A~ is
        # at least (1 - gamma_(r-1)) A and fl(g A~) at least (1 - u) g A~.
        # With g = 2 m u these leave fl(g A~) >= 2 m u (1 - 2 r u) A, which
        # covers the error whenever m u <= 1/8.  Hence |s~| > fl(g A~)
        # certifies sign(s~) = sign(s).  Nonzero factors are integers, so
        # nothing underflows; an overflow gives inf or NaN in s~ or A~, and
        # the strict test then fails.
        gamma = (comb(k + 1, 2) + k + 1) * 2.0**-52
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = Xt[:, :, pb] - Xt[:, :, pa]
            for q in range(leave.shape[1]):
                terms *= diffs[:, :, leave[:, q]]
            s = terms[:, :, 0].copy()
            bound = np.abs(s)
            for j in range(1, k + 2):
                s += terms[:, :, j]
                bound += np.abs(terms[:, :, j])
            ok = np.abs(s) > gamma * bound
        out[narrow] = np.where(ok, np.sign(s), 0)
        certified[narrow] = ok
    for t, c in zip(*np.nonzero(~certified)):
        idx = cols[c]
        out[t, c] = _exact_sign(
            [int(v) for v in X[t, idx]], [int(v) for v in Y[t, idx]], k
        )
    return out


def chi_point(config, k, t):
    """Degree-k sign of a (k+2)-tuple of elements of the configuration.

    The determinant sign of the lifted rows in tuple order, 0 on
    repeats: the sorting parity times the sign of the sorted tuple, which
    one tuple_signs call takes on those k+2 points of the store.  t is
    read by check_tuple: k+2 integers in [1, n], else InputError.
    """
    n = len(config)
    check_case(n, k)
    parity, srt = check_tuple(t, n, k + 2)
    if parity == 0:
        return 0
    xs, ys = ([v[e - 1] for e in srt] for v in (config.xs, config.ys))
    return parity * int(tuple_signs([xs], [ys], k)[0, 0])


def chirotope_of(config, k):
    """The degree-k chirotope of a configuration, on sorted tuples: the
    signs of its integer store, xs and ys over their common denominator,
    which has the same signs as the points.  Each call signs the store
    afresh; nothing is cached on the configuration."""
    n = len(config)
    check_case(n, k)
    # The stored numerators are the points times the positive common
    # denominator L, which scales each determinant by L^(k(k+1)/2+1).
    return Chirotope(n, k, tuple_signs([config.xs], [config.ys], k)[0])


def newton_coeffs(xs, ys):
    """Newton coefficients of the interpolant through (xs, ys): the top
    row of the divided-difference table."""
    coeffs = list(ys)
    deg = len(xs) - 1
    for level in range(1, deg + 1):
        for i in range(deg, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    return coeffs


def newton_eval(coeffs, xs, x):
    """The Newton-form interpolant with these coefficients, at x."""
    acc = Fraction(0)
    for i in range(len(coeffs) - 1, -1, -1):
        acc = acc * (x - xs[i]) + coeffs[i]
    return acc


def lagrange_sign(config, k, base, e):
    """Sign of y_e minus the degree-k interpolant through the base points.

    The base is k+1 distinct elements and e one element, each an integer
    in [1, n] as check_tuple reads it, else InputError; the interpolant
    does not depend on the order of the base, and is evaluated by
    Newton divided differences over exact rationals.  Independent of the
    determinant route on purpose: the two must agree up to the parity
    that sorts (base..., e), which they do when the base is sorted and
    appended with e.
    """
    n = len(config)
    check_case(n, k)
    parity, base = check_tuple(base, n, k + 1)
    if parity == 0:
        raise InputError(f"base has repeated elements: {base}")
    _, (e,) = check_tuple((e,), n, 1)
    xs = [config.points[b - 1][0] for b in base]
    ys = [config.points[b - 1][1] for b in base]
    xe, ye = config.points[e - 1]
    diff = ye - newton_eval(newton_coeffs(xs, ys), xs, xe)
    if diff == 0:
        return 0
    return 1 if diff > 0 else -1


def check_draw(n, k, coordinate_range):
    """The integer range r of a draw of n points over [-r, r] at degree k."""
    check_case(n, k)
    r = int(coordinate_range)
    if r < 1:
        raise InputError("coordinate range must be positive")
    if 2 * r + 1 > sys.maxsize:
        raise InputError(f"coordinate range {r} is too large: 2r+1 exceeds {sys.maxsize}")
    if 2 * r + 1 < n:
        raise InputError(f"range [-{r}, {r}] cannot hold {n} distinct x-values")
    return r


def _draw(rng, n, r):
    """sorted(rng.sample(range(-r, r + 1), n)) and then n values of
    rng.randint(-r, r), drawn from rng.getrandbits directly.

    The getrandbits calls are the ones CPython 3.10-3.13 makes for those
    two stdlib calls, in the same order, so the values and the state rng
    is left in are the same, and every seed keeps the configurations,
    witnesses and tagged catalogs it gave through the stdlib calls; only
    their Python frames per value are saved.  An index below m is
    getrandbits(m.bit_length()), drawn again while it is m or more.
    sample keeps a pool list when the population w = 2r+1 is at most
    setsize, moving the last unchosen value into each chosen slot, and
    otherwise a set of chosen indices, drawing again on a repeat.
    randint is -r plus an index below w.  Python does not promise that
    sample and randint keep these algorithms; this draw rests on
    getrandbits alone.
    """
    getrandbits = rng.getrandbits
    w = 2 * r + 1
    bits = w.bit_length()
    setsize = 21
    if n > 5:
        setsize += 4 ** ceil(log(n * 3, 4))
    xs = []
    if w <= setsize:
        pool = list(range(-r, r + 1))
        for m in range(w, w - n, -1):
            b = m.bit_length()
            j = getrandbits(b)
            while j >= m:
                j = getrandbits(b)
            xs.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        chosen = set()
        for _ in range(n):
            j = getrandbits(bits)
            while j >= w or j in chosen:
                j = getrandbits(bits)
            chosen.add(j)
            xs.append(j - r)
    xs.sort()
    ys = []
    for _ in range(n):
        j = getrandbits(bits)
        while j >= w:
            j = getrandbits(bits)
        ys.append(j - r)
    return xs, ys


def draw_uniform(rngs, ranges, n, k, max_tries):
    """One configuration per generator, redrawn until its map is uniform.

    Generator i draws n distinct x-values from [-r, r], r = ranges[i],
    sorts them, then draws one y-value per point in x-order: the values
    of sorted(rng.sample(range(-r, r + 1), n)) and n calls of
    rng.randint(-r, r), which _draw replays on rng.getrandbits word for
    word, so that a seed keeps its configurations, redraws included,
    without the stdlib frames per value.  The draws of all generators
    are signed in one batch; a generator whose map has a zero sign draws
    again from its own state, at most max_tries draws in all.  Returns
    (X, Y, signs, uniform): the int64 (T, n) coordinates and int8
    (T, C(n, k+2)) signs of each generator's last draw, and the mask of
    the generators that ended uniform.
    """
    T = len(rngs)
    X = np.zeros((T, n), np.int64)
    Y = np.zeros((T, n), np.int64)
    signs = np.zeros((T, comb(n, k + 2)), np.int8)
    todo = list(range(T))
    for _ in range(max_tries):
        if not todo:
            break
        drawn = [_draw(rngs[i], n, ranges[i]) for i in todo]
        X[todo] = [xs for xs, _ in drawn]
        Y[todo] = [ys for _, ys in drawn]
        signs[todo] = tuple_signs(X[todo], Y[todo], k)
        todo = [i for i, ok in zip(todo, signs[todo].all(1).tolist()) if not ok]
    uniform = np.ones(T, bool)
    uniform[todo] = False
    return X, Y, signs, uniform


def random_config(n, k, seed, coordinate_range=DEFAULT_RANGE, max_tries=DEFAULT_MAX_TRIES):
    """A random integer configuration whose degree-k chirotope is uniform.

    Coordinates are uniform over [-R, R]; x-values are drawn distinct.
    Deterministic for a given seed.  Raises DegenerateConfigError when
    max_tries draws all produce a vanishing sign somewhere.
    """
    r = check_draw(n, k, coordinate_range)
    X, Y, _, uniform = draw_uniform([random.Random(seed)], [r], n, k, max_tries)
    if uniform[0]:
        return PointConfig(zip(X[0].tolist(), Y[0].tolist()))
    raise DegenerateConfigError(
        f"no uniform configuration in {max_tries} draws (n={n}, k={k}, range={r}, seed={seed})"
    )


# The decimal spellings with an exponent that Fraction(str) reads; group 1
# is the exponent.  Fraction computes 10 ** exponent, so a coordinate whose
# exponent passes the digit limit that int() puts on an integer token is
# refused before it can cost unbounded time.
_EXPONENT = re.compile(
    r"[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)"
).fullmatch
_MAX_DIGITS = 4300  # Python's default limit on int(str)


def _fraction(token):
    """The value of token as Fraction(token) reads it, with an exponent
    beyond _MAX_DIGITS refused.  A token that int() reads has that value
    as a Fraction too (Fraction(str) reads its digits with int()), and
    stays an int, so integer points reach PointConfig without a
    Fraction; any other goes to Fraction."""
    try:
        return int(token)
    except ValueError:
        pass
    exp = _EXPONENT(token)
    if exp and abs(int(exp[1])) > _MAX_DIGITS:
        raise ValueError(f"Exceeds the limit ({_MAX_DIGITS} digits) for a coordinate's exponent")
    return Fraction(token)


def parse_points(text):
    """Read a configuration from lines of "x y", each coordinate as
    Fraction(str) reads it (ints, p/q, decimals, exponents up to
    _MAX_DIGITS).

    Blank lines and '#' comments are skipped.  The constructor sorts by x
    and rejects ties.
    """
    pts = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected two coordinates, got {raw!r}")
        try:
            pts.append((_fraction(parts[0]), _fraction(parts[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"line {lineno}: bad coordinate in {raw!r}") from exc
    if not pts:
        raise InputError("no points found")
    return PointConfig(pts)


def format_points(config):
    """Inverse of parse_points, one "x y" line per point in x-order."""
    return "".join(f"{x} {y}\n" for x, y in config.points)
