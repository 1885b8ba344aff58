"""Planar point configurations and their exact degree-k sign maps.

A configuration lifts into R^(k+2) along the polynomial-moment basis
(1, x, ..., x^k, y); the degree-k sign of a (k+2)-tuple is the
determinant sign of the lifted rows.  All sign computations run over the
integers: rational rows are cleared by their (positive) common
denominator once per point, which cannot change any determinant sign.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

from .chirotope import Chirotope
from .combinat import all_tuples
from .errors import DegenerateConfigError, InputError

DEFAULT_RANGE = 10**6
DEFAULT_MAX_TRIES = 1000


class PointConfig:
    """Points with exact rational coordinates, sorted by x, 1-indexed.

    Element e refers to the e-th point in x-order.  Two points sharing an
    x-coordinate are rejected: the degree-k theory needs a strict total
    order on the first coordinate.
    """

    __slots__ = ("points", "_lift_cache", "_chi_cache")

    def __init__(self, points):
        coords = []
        for p in points:
            x, y = p
            coords.append((Fraction(x), Fraction(y)))
        coords.sort(key=lambda p: p[0])
        for (x1, _), (x2, _) in zip(coords, coords[1:]):
            if x1 == x2:
                raise InputError(f"two points share x = {x1}")
        self.points = tuple(coords)
        self._lift_cache = {}
        self._chi_cache = {}

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, PointConfig) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        inner = ", ".join(f"({x}, {y})" for x, y in self.points)
        return f"PointConfig([{inner}])"

    def coords(self, e):
        """Coordinates of element e (1-based)."""
        if not 1 <= e <= len(self.points):
            raise InputError(f"element {e} outside [1, {len(self.points)}]")
        return self.points[e - 1]

    def lift_rows(self, k):
        """Integer lifted rows (1, x, ..., x^k, y), denominators cleared.

        Each row is scaled by a positive integer, so determinant signs of
        row selections are unchanged.
        """
        rows = self._lift_cache.get(k)
        if rows is None:
            rows = []
            for x, y in self.points:
                row = [Fraction(1)] + [x**p for p in range(1, k + 1)] + [y]
                scale = lcm(*(f.denominator for f in row))
                rows.append(tuple(int(f * scale) for f in row))
            rows = tuple(rows)
            self._lift_cache[k] = rows
        return rows


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


def chi_point(config, k, t):
    """Degree-k sign of a (k+2)-tuple of elements of the configuration.

    det sign of the lifted rows in tuple order, so alternation and the
    vanishing on repeats come for free.
    """
    rows = config.lift_rows(k)
    n = len(config)
    sel = []
    for e in t:
        if not 1 <= e <= n:
            raise InputError(f"element {e} outside [1, {n}]")
        sel.append(list(rows[e - 1]))
    if len(sel) != k + 2:
        raise InputError(f"expected a {k + 2}-tuple, got {tuple(t)}")
    return _int_det_sign(sel)


def chirotope_of(config, k):
    """The degree-k chirotope of a configuration, on sorted tuples."""
    n = len(config)
    if n < k + 2:
        raise InputError(f"need at least k+2 = {k + 2} points, got {n}")
    cached = config._chi_cache.get(k)
    if cached is not None:
        return cached
    rows = config.lift_rows(k)
    signs = [
        _int_det_sign([list(rows[e - 1]) for e in t])
        for t in itertools.combinations(range(1, n + 1), k + 2)
    ]
    chi = Chirotope(n, k, signs)
    config._chi_cache[k] = chi
    return chi


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

    The base is k+1 distinct elements; the interpolant is evaluated by
    Newton divided differences over exact rationals.  Independent of the
    determinant route on purpose: the two must agree up to the parity
    that sorts (base..., e), which they do when the base is sorted and
    appended with e.
    """
    n = len(config)
    base = tuple(base)
    if len(base) != k + 1:
        raise InputError(f"base must have k+1 = {k + 1} elements, got {base}")
    if len(set(base)) != len(base):
        raise InputError(f"base has repeated elements: {base}")
    for v in base + (e,):
        if not 1 <= v <= n:
            raise InputError(f"element {v} outside [1, {n}]")
    xs = [config.points[b - 1][0] for b in base]
    ys = [config.points[b - 1][1] for b in base]
    xe, ye = config.points[e - 1]
    diff = ye - newton_eval(newton_coeffs(xs, ys), xs, xe)
    if diff == 0:
        return 0
    return 1 if diff > 0 else -1


def random_config(n, k, seed, coordinate_range=DEFAULT_RANGE, max_tries=DEFAULT_MAX_TRIES):
    """A random integer configuration whose degree-k chirotope is uniform.

    Coordinates are uniform over [-R, R]; x-values are drawn distinct.
    Deterministic for a given seed.  Raises DegenerateConfigError when
    max_tries draws all produce a vanishing sign somewhere.
    """
    if n < k + 2:
        raise InputError(f"need at least k+2 = {k + 2} points, got n = {n}")
    r = int(coordinate_range)
    if 2 * r + 1 < n:
        raise InputError(f"range [-{r}, {r}] cannot hold {n} distinct x-values")
    rng = random.Random(seed)
    span = range(-r, r + 1)
    for _ in range(max_tries):
        xs = sorted(rng.sample(span, n))
        pts = [(x, rng.randint(-r, r)) for x in xs]
        config = PointConfig(pts)
        if chirotope_of(config, k).is_uniform():
            return config
    raise DegenerateConfigError(
        f"no uniform configuration in {max_tries} draws (n={n}, k={k}, range={r}, seed={seed})"
    )


def parse_points(text):
    """Read a configuration from lines of "x y" (ints or p/q fractions).

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
            pts.append((Fraction(parts[0]), Fraction(parts[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"line {lineno}: bad coordinate in {raw!r}") from exc
    if not pts:
        raise InputError("no points found")
    return PointConfig(pts)


def format_points(config):
    """Inverse of parse_points, one "x y" line per point in x-order."""
    return "".join(f"{x} {y}\n" for x, y in config.points)
