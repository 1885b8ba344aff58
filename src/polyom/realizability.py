"""Random realizability search over a catalog.

Trials draw integer configurations across a sweep of coordinate ranges:
small ranges surface flat, nearly-degenerate examples, large ones the
skewed ones.  Every drawn chirotope must already be a catalog record
(the enumeration is complete), so a miss is a soundness failure worth
raising loudly, not skipping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .chirotope import canonical_chars
from .errors import InputError, SoundnessError
from .points import PointConfig, check_draw, draw_uniform, tuple_signs

DEFAULT_RANGES = (8, 32, 128, 1024, 32768, 10**6)

# Trials drawn and signed together; bounds the memory of a search.
TRIAL_BLOCK = 1024

# Reference counts of realizable objects for small cases; the (8, 2)
# entry is a (lower, upper) bound pair, the classification there being
# incomplete.
REFERENCE_REALIZABLE = {
    (4, 2): 1,
    (5, 2): 5,
    (6, 2): 74,
    (7, 2): 3843,
    (8, 2): (830850, 838204),
    (5, 3): 1,
    (6, 3): 6,
    (7, 3): 169,
    (8, 3): 39016,
    (6, 4): 1,
    (7, 4): 7,
    (8, 4): 376,
    (7, 5): 1,
    (8, 5): 8,
    (9, 5): 823,
}


def trial_seed(seed, trial):
    """Per-trial RNG seed; trial t is identical across different totals."""
    return (seed << 32) ^ trial


@dataclass(frozen=True)
class RealizeStats:
    n: int
    k: int
    trials: int
    seed: int
    degenerate: int
    new_witnesses: int
    realizable: int
    unknown: int

    def summary(self):
        return (
            f"realizable={self.realizable} unknown={self.unknown} "
            f"trials={self.trials} seed={self.seed}"
        )


def realize_random(catalog, trials, seed, ranges=None, max_tries=200):
    """Tag catalog records with witnesses found by random search.

    Returns (tagged catalog, stats).  Trial t uses ranges[t mod len] and
    a seed derived from (seed, t), so results for a prefix of trials do
    not depend on the total and coverage is monotone in trials.  Raises
    SoundnessError when a drawn configuration's canonical chirotope is
    not a catalog record.

    ranges=None is the sweep of DEFAULT_RANGES less the ranges [-r, r]
    too small to hold n distinct x-values, which for n <= 17 is all of
    it.  Every range given explicitly must hold them.
    """
    if trials < 0:
        raise InputError(f"trial count must be non-negative, got {trials}")
    n, k = catalog.n, catalog.k
    if ranges is None:
        ranges = tuple(r for r in DEFAULT_RANGES if 2 * r + 1 >= n)
    if not ranges:
        raise InputError(f"no coordinate range to draw {n} points from")
    used = [check_draw(n, k, r) for r in ranges[:trials]]
    witnesses = list(catalog.witnesses) if catalog.tagged else [None] * len(catalog)
    degenerate = 0
    new = 0
    for lo in range(0, trials, TRIAL_BLOCK):
        block = range(lo, min(lo + TRIAL_BLOCK, trials))
        rngs = [random.Random(trial_seed(seed, t)) for t in block]
        X, Y, signs, uniform = draw_uniform(
            rngs, [used[t % len(ranges)] for t in block], n, k, max_tries
        )
        rows = canonical_chars(signs)
        for i, (t, ok, pos) in enumerate(zip(block, uniform.tolist(), catalog.positions(rows).tolist())):
            if not ok:
                degenerate += 1
                continue
            if pos < 0:
                config = PointConfig(zip(X[i].tolist(), Y[i].tolist()))
                raise SoundnessError(
                    f"trial {t} (seed {seed}, range {ranges[t % len(ranges)]}) produced a "
                    f"sign map outside the catalog: {rows[i].tobytes().decode()} from {config!r}"
                )
            if witnesses[pos] is None:
                witnesses[pos] = PointConfig(zip(X[i].tolist(), Y[i].tolist()))
                new += 1
    tagged = catalog.with_witnesses(witnesses)
    realizable = tagged.realizable_count()
    stats = RealizeStats(
        n=catalog.n,
        k=catalog.k,
        trials=trials,
        seed=seed,
        degenerate=degenerate,
        new_witnesses=new,
        realizable=realizable,
        unknown=len(catalog) - realizable,
    )
    return tagged, stats


def verify_catalog_witnesses(catalog):
    """Indices of tagged records whose stored witness fails to verify.

    The witnesses of n points are signed together, a tuple_signs call
    per TRIAL_BLOCK of them on their stored numerators: each witness's
    positive common denominator leaves its signs unchanged, as in
    chirotope_of.  The rows are canonicalized and compared with the
    records' characters.  A witness of another length fails, and so does
    one whose signs are all zero.
    """
    if not catalog.tagged:
        return ()
    wits = catalog.witnesses
    fits = [i for i, w in enumerate(wits) if w is not None and len(w) == catalog.n]
    bad = [i for i, w in enumerate(wits) if w is not None and len(w) != catalog.n]
    for lo in range(0, len(fits), TRIAL_BLOCK):
        block = fits[lo : lo + TRIAL_BLOCK]
        signs = tuple_signs([wits[i].xs for i in block], [wits[i].ys for i in block], catalog.k)
        rows = canonical_chars(signs)
        wrong = (rows != catalog.chars[block]).any(1)
        bad += [block[j] for j in np.flatnonzero(wrong).tolist()]
    return tuple(sorted(bad))

