"""The three stages a polyom user runs, and how each workload weighs them.

A round runs three stages, each through the library calls its CLI
command makes: `enumerate` (search, filter, catalog written and read
back, then again through sequential shards and a merge), `realize`
(random search over a catalog, tagged catalog written and read back)
and `census` (scan and both axiom checks on catalog records, axiom
checks on non-uniform maps).  Every run reports every end-to-end
metric, so every workload runs all three stages; a workload's own
stage runs at full size and the two others as a smaller fixed slice.
The stages are cut into steps, and the steps of all stages are spread
over the round.  Every output is checked with checks.py outside the
timed sections.
"""

from __future__ import annotations

import os
import random
import time
from functools import partial

import checks
import spans
from polyom import combinat
from polyom.axioms import check_cocircuit_axioms, check_degree_k, is_acyclic, las_vergnas_scan
from polyom.catalog import from_enumeration, read_catalog, write_catalog
from polyom.chirotope import Chirotope, cocircuit_vectors, signs_from_string
from polyom.enumeration import enumerate_chirotopes, enumerate_sharded
from polyom.errors import SoundnessError
from polyom.points import PointConfig, chirotope_of
from polyom.realizability import REFERENCE_REALIZABLE, realize_random

# Kept before any tracer wraps the cached builders.
_CLEAR_INDEX_TABLES = (combinat.window_index.cache_clear, combinat.exchange_table.cache_clear)

SHARDS = 4
GRID_RANGE = 3  # non-uniform maps: coordinates in [-3, 3], 7 distinct x at most
CENSUS_CHUNK = 12  # catalog records per census step
CALIBRATION_STEPS = 32  # per round

# Stage sizes.  enum: (n, k) cases, one step each.  trials: per catalog,
# realize_random chunks and trials per chunk, one step per chunk.
# stride: census takes every stride-th record of a catalog, starting at
# seed mod stride.  degenerate: per (n, k), how many non-uniform maps
# with 1 and with 2 zero signs, one step each; fixing the mix fixes the
# cost, which grows with the number of cocircuits.
FULL = {
    "enum": ((7, 1), (7, 2), (8, 3), (8, 4), (9, 5)),
    "trials": {(6, 2): (10, 300), (9, 5): (10, 60)},
    "stride": {(8, 4): 1, (9, 5): 8},
    "degenerate": {(6, 2): (8, 4), (7, 2): (6, 3)},
}
SLICE = {
    "enum": ((7, 2),) * 6,
    "trials": {(6, 2): (6, 300), (9, 5): (6, 60)},
    "stride": {(8, 4): 8, (9, 5): 16},
    "degenerate": {(6, 2): (6, 3), (7, 2): (4, 2)},
}
WORKLOADS = ("enumerate", "realize", "census")


def sizes_for(workload):
    return {stage: FULL if stage == workload else SLICE for stage in WORKLOADS}


def clear_index_tables():
    for clear in _CLEAR_INDEX_TABLES:
        clear()


def warm_index_tables(cases):
    for n, k in cases:
        combinat.window_index(n, k)
        combinat.exchange_table(n, k, False)


# --------------------------------------------------------------- set-up


def _degenerate_maps(seed, n, k, mix):
    """Seeded grid point sets whose maps have exactly 1 or 2 zero signs."""
    rng = random.Random(f"grid-{seed}-{n}-{k}")
    want = {1: mix[0], 2: mix[1]}
    out = []
    while any(want.values()):
        pts = checks.draw_points(rng, n, GRID_RANGE)
        chi = chirotope_of(PointConfig(pts), k)
        zeros = int((chi.signs == 0).sum())
        if want.get(zeros):
            want[zeros] -= 1
            out.append((pts, chi))
    return out


def set_up(sizes, seed):
    """Input catalogs, census samples and grid maps; warm caches."""
    clear_index_tables()
    cases = set(sizes["realize"]["trials"]) | set(sizes["census"]["stride"])
    catalogs = {nk: from_enumeration(enumerate_chirotopes(*nk)) for nk in sorted(cases)}
    census = {}
    for nk, stride in sizes["census"]["stride"].items():
        records = catalogs[nk].records
        census[nk] = [(nk, records[i]) for i in range(seed % stride, len(records), stride)]
    degenerate = {
        nk: _degenerate_maps(seed, *nk, mix) for nk, mix in sizes["census"]["degenerate"].items()
    }
    warm = sorted(set(census) | set(degenerate))
    warm_index_tables(warm)
    for records in census.values():
        census_records(records[:1], Round(), spans.NullTracer())
    realize_random(catalogs[(6, 2)], 20, seed)
    return {"catalogs": catalogs, "census": census, "degenerate": degenerate, "warm": warm}


# ---------------------------------------------------------------- steps


class Round:
    """Work and time per timed section, operation counts, check errors."""

    def __init__(self):
        self.work = {}
        self.secs = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, metric, work, secs):
        self.work[metric] = self.work.get(metric, 0) + work
        self.secs[metric] = self.secs.get(metric, 0.0) + secs

    def rate(self, metric):
        return self.work[metric] / self.secs[metric]


def _pipeline(run, path):
    """enumerate -> catalog -> write -> read back, as `polyom enumerate --out`."""
    clear_index_tables()
    t0 = time.perf_counter()
    result = run()
    write_catalog(path, from_enumeration(result))
    back = read_catalog(path)
    return time.perf_counter() - t0, result, back


def enumerate_case(n, k, warm, rnd, tracer, outdir):
    """One case unsharded, then sharded; then rebuild the tables others use."""
    base = os.path.join(outdir, f"{n}_{k}")
    tracer.section = "enumerate.unsharded"
    secs, result, back = _pipeline(lambda: enumerate_chirotopes(n, k), base + ".cat")
    rnd.add("rows_per_s", result.count, secs)
    tracer.section = "enumerate.sharded"
    ssecs, sresult, sback = _pipeline(
        lambda: enumerate_sharded(n, k, SHARDS, jobs=1), base + ".sharded.cat"
    )
    rnd.add("sharded_rows_per_s", sresult.count, ssecs)
    rnd.attempted += 2
    tracer.section = "check"
    rows = [bytes(r) for r in result.chars]
    rnd.errors += checks.check_enumeration(rows, n, k)
    rnd.errors += checks.check_catalog_file(base + ".cat", n, k, rows)
    if [r.encode("ascii") for r in back.records] != rows:
        rnd.errors.append(f"({n},{k}): read_catalog gives other rows than were written")
    with open(base + ".cat", "rb") as a, open(base + ".sharded.cat", "rb") as b:
        if a.read() != b.read():
            rnd.errors.append(f"({n},{k}): sharded catalog differs from the unsharded one")
    if sback.records != back.records:
        rnd.errors.append(f"({n},{k}): sharded catalog read back differs")
    tracer.section = "warm"
    warm_index_tables(warm)


class RealizeRun:
    """`polyom realize` on one catalog, in chunks that resume each other.

    Chunk c draws with realize seed 100 * seed + c, from the catalog the
    previous chunk tagged; the last step writes the tagged catalog and
    reads it back.  All of it is timed into one metric.
    """

    def __init__(self, catalog, seed, chunk, rnd, tracer, outdir):
        self.untagged = self.catalog = catalog
        self.n, self.k = catalog.n, catalog.k
        self.metric = "trials_per_s" if (self.n, self.k) == (6, 2) else "large_trials_per_s"
        self.seed, self.chunk = seed, chunk
        self.rnd, self.tracer = rnd, tracer
        self.path = os.path.join(outdir, f"{self.n}_{self.k}.tagged.cat")
        self.trials = self.secs = self.new = 0
        self.stats = None
        self.broken = False

    def draw(self, c):
        self.rnd.attempted += self.chunk
        if self.broken:
            self.rnd.failed += self.chunk
            return
        self.tracer.section = f"realize.{self.n}_{self.k}"
        try:
            t0 = time.perf_counter()
            self.catalog, self.stats = realize_random(self.catalog, self.chunk, 100 * self.seed + c)
            self.secs += time.perf_counter() - t0
        except SoundnessError as exc:
            self.rnd.failed += self.chunk
            self.rnd.errors.append(f"realize ({self.n},{self.k}): {exc}")
            self.broken = True
            return
        self.trials += self.chunk
        self.new += self.stats.new_witnesses

    def finish(self):
        n, k, rnd, stats = self.n, self.k, self.rnd, self.stats
        if self.broken or stats is None:
            return
        self.tracer.section = f"realize.{n}_{k}"
        t0 = time.perf_counter()
        write_catalog(self.path, self.catalog)
        back = read_catalog(self.path)
        rnd.add(self.metric, self.trials, self.secs + time.perf_counter() - t0)
        self.tracer.section = "check"
        rows = [r.encode("ascii") for r in self.untagged.records]
        rnd.errors += checks.check_catalog_file(self.path, n, k, rows)
        records, witnesses = checks.tagged_records(self.path)
        rnd.errors += checks.check_witnesses(records, witnesses, k)
        found = sum(w is not None for w in witnesses)
        total = len(self.untagged)
        if stats.realizable + stats.unknown != total or not stats.realizable == self.new == found:
            rnd.errors.append(
                f"realize ({n},{k}): realizable={stats.realizable} unknown={stats.unknown} "
                f"total={total} new={self.new} witnesses in the file={found}"
            )
        if stats.realizable > REFERENCE_REALIZABLE[(n, k)]:
            rnd.errors.append(f"realize ({n},{k}): more realizable than the reference")
        if back != self.catalog:
            rnd.errors.append(f"realize ({n},{k}): read_catalog gives another tagged catalog")


def census_records(records, rnd, tracer):
    """`polyom check` and `polyom scan` on uniform catalog records."""
    check_secs = scan_secs = 0.0
    for (n, k), rec in records:
        tracer.section = "census.uniform"
        t0 = time.perf_counter()
        chi = Chirotope(n, k, signs_from_string(rec))
        deg = check_degree_k(chi)
        vectors = cocircuit_vectors(chi)
        coc = check_cocircuit_axioms(vectors, uniform=True)
        t1 = time.perf_counter()
        tracer.section = "census.scan"
        scan = las_vergnas_scan(chi)
        t2 = time.perf_counter()
        check_secs += t1 - t0
        scan_secs += t2 - t1
        tracer.section = "check"
        if not (deg and coc):
            rnd.errors.append(f"({n},{k}) {rec}: axiom check failed: {deg.text()} / {coc.text()}")
        if len(vectors) != checks.cocircuit_count(n, k):
            rnd.errors.append(f"({n},{k}) {rec}: {len(vectors)} cocircuits")
        rnd.errors += [f"({n},{k}) {rec}: {e}" for e in checks.check_scan(scan.acyclic, scan.histogram, n)]
    rnd.add("check_records_per_s", len(records), check_secs)
    rnd.add("scan_records_per_s", len(records), scan_secs)
    rnd.attempted += 2 * len(records)


def census_degenerate(n, k, chi, rnd, tracer):
    """`polyom check` on one non-uniform map: the general axiom path."""
    tracer.section = "census.degenerate"
    t0 = time.perf_counter()
    deg = check_degree_k(chi)
    coc = check_cocircuit_axioms(cocircuit_vectors(chi), uniform=False)
    rnd.add("degenerate_checks_per_s", 1, time.perf_counter() - t0)
    rnd.attempted += 1
    tracer.section = "check"
    if not (deg and coc):
        rnd.errors.append(f"({n},{k}) {chi.sign_string()}: axiom check failed: {deg.text()} / {coc.text()}")


class Calibration:
    """A fixed piece of the benchmark's own work, timed as a host-speed probe.

    It runs no polyom code, so no change to the program moves it: its
    rate tracks only the host.  Exact integer divided differences on a
    fixed 9-point set and the numpy window check on fixed rows mix
    interpreter and numpy work, as polyom does.
    """

    def __init__(self):
        rng = random.Random(0)
        self.points = checks.draw_points(rng, 9, 10**6)
        self.rows = ["".join(rng.choices("+-", k=56)).encode("ascii") for _ in range(6000)]

    def step(self, rnd):
        t0 = time.perf_counter()
        for _ in range(12):
            checks.sign_string(self.points, 5)
        checks.non_unimodal_rows(self.rows, 8, 3)
        rnd.add("calibration", 1, time.perf_counter() - t0)


def interleave(lanes):
    """Merge lanes of steps, each spread evenly over the round, in order.

    The host's speed drifts over seconds; spreading every metric's steps
    over the whole round makes each metric sample all of that drift.
    """
    keyed = [((i + 0.5) / len(lane), j, step) for j, lane in enumerate(lanes) for i, step in enumerate(lane)]
    return [step for _, _, step in sorted(keyed, key=lambda t: t[:2])]


def run_round(sizes, inputs, calibration, seed, tracer, outdir):
    rnd = Round()
    lanes = [
        [partial(enumerate_case, n, k, inputs["warm"], rnd, tracer, outdir) for n, k in sizes["enumerate"]["enum"]]
    ]
    for nk, (chunks, chunk) in sizes["realize"]["trials"].items():
        run = RealizeRun(inputs["catalogs"][nk], seed, chunk, rnd, tracer, outdir)
        lanes.append([partial(run.draw, c) for c in range(chunks)] + [run.finish])
    for records in inputs["census"].values():
        lanes.append(
            [partial(census_records, records[i : i + CENSUS_CHUNK], rnd, tracer) for i in range(0, len(records), CENSUS_CHUNK)]
        )
    for (n, k), maps in inputs["degenerate"].items():
        lanes.append([partial(census_degenerate, n, k, chi, rnd, tracer) for _, chi in maps])
    lanes.append([partial(calibration.step, rnd)] * CALIBRATION_STEPS)
    for step in interleave(lanes):
        step()
    tracer.section = "check"
    return rnd


# ---------------------------------------------------- once-per-run checks


def acyclic_recount(chi):
    """Acyclic reorientations counted one at a time, without the scan."""
    count = 0
    for mask in range(1 << chi.n):
        subset = [e + 1 for e in range(chi.n) if mask >> e & 1]
        count += is_acyclic(chi.reorient(subset))
    return count


def final_checks(sizes, inputs, seed, outdir):
    """Seeded realized maps land in the catalogs; the scan's acyclic
    count on a seeded record of each census catalog matches a recount;
    polyom's maps of the grid point sets match the divided differences."""
    errors = []
    for n, k in sorted(set(sizes["enumerate"]["enum"])):
        rows = checks.read_catalog_file(os.path.join(outdir, f"{n}_{k}.cat"))[1]
        errors += checks.check_members(rows, checks.uniform_configs(seed, n, k, 40), n, k)
    rng = random.Random(f"recount-{seed}")
    for nk in inputs["census"]:
        rec = rng.choice(inputs["catalogs"][nk].records)
        chi = Chirotope(*nk, signs_from_string(rec))
        scanned, counted = las_vergnas_scan(chi).acyclic, acyclic_recount(chi)
        if scanned != counted:
            errors.append(f"{nk} {rec}: scan acyclic={scanned}, recount {counted}")
    for (n, k), maps in inputs["degenerate"].items():
        for pts, chi in maps:
            if checks.sign_string(pts, k) != chi.sign_string():
                errors.append(f"({n},{k}) {pts}: chirotope_of disagrees with divided differences")
    return errors

