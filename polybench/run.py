"""Benchmark of polyom: one workload per process, result as one JSON line.

    python3 polybench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a polyom source tree; the package is imported from
src/.  The process runs single-threaded: no pool, one BLAS thread.
Set-up is repeated SETUPS times and its median reported.  Rounds of
the workload then run until --seconds have passed, every output is
checked, and the last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, scaled to a
reference host speed (see CALIBRATION_REF); with --trace 1 the
per-layer ones, from spans recorded around polyom's entry points (see
spans.py), which are also written to polybench/out/.  Exit code 2 when
the arguments or the source tree are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SETUPS = 5
RATES = (
    "rows_per_s",
    "sharded_rows_per_s",
    "trials_per_s",
    "large_trials_per_s",
    "scan_records_per_s",
    "check_records_per_s",
    "degenerate_checks_per_s",
)
# Calibration steps per second on the host the benchmark was tuned on;
# see workloads.Calibration.  Reported rates are scaled by
# CALIBRATION_REF / (the run's calibration rate), and setup_s by its
# inverse, so that a drift of the host's speed cancels out.
CALIBRATION_REF = 90.0
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("enumerate", "realize", "census"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "polyom" / "__init__.py").is_file():
        print(f"error: no polyom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    import_s = time.perf_counter() - t0

    outdir = HERE / "out" / f"{args.workload}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sizes = workloads.sizes_for(args.workload)
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        inputs = workloads.set_up(sizes, args.seed)
        setups.append(time.perf_counter() - t0)

    calibration = workloads.Calibration()
    calibration.step(workloads.Round())
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        tracer.install(callers=[workloads])
    rounds, layers = [], []
    start = time.perf_counter()
    # Whole rounds only: start another while the elapsed time plus half
    # a mean round is under --seconds.
    while not rounds or (time.perf_counter() - start) * (1 + 0.5 / len(rounds)) < args.seconds:
        lo = len(tracer.spans) if args.trace else 0
        t0 = time.perf_counter()
        rounds.append(workloads.run_round(sizes, inputs, calibration, args.seed, tracer, str(outdir)))
        rates = " ".join(f"{m}={rounds[-1].rate(m):.6g}" for m in RATES if m in rounds[-1].secs)
        print(f"round {len(rounds)}: {time.perf_counter() - t0:.2f} s {rates}", file=sys.stderr)
        if args.trace:
            layers.append(spans.round_metrics(tracer.spans, lo, len(tracer.spans)))
    tracer.section = "check"
    errors = [e for rnd in rounds for e in rnd.errors]
    errors += workloads.final_checks(sizes, inputs, args.seed, str(outdir))

    # Pooled over rounds, then scaled to the reference host speed.
    def pooled(name):
        return sum(r.work.get(name, 0) for r in rounds) / sum(r.secs.get(name, 0.0) for r in rounds)

    scale = CALIBRATION_REF / pooled("calibration")
    raw = {name: pooled(name) for name in RATES if any(name in r.secs for r in rounds)}
    raw["setup_s"] = import_s + statistics.median(setups)
    end_to_end = {name: {"value": value * scale, "unit": "1/s"} for name, value in raw.items()}
    end_to_end["setup_s"] = {"value": raw["setup_s"] / scale, "unit": "s"}
    end_to_end["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB",
    }
    if args.trace:
        metrics = {
            name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
            for name, unit in spans.UNITS.items()
        }
        tracer.write(
            outdir.parent / f"{stem}.spans.json",
            {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
             "end_to_end": end_to_end, "per_layer": metrics},
        )
    else:
        metrics = end_to_end
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors and len(end_to_end) == len(RATES) + 2,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(f"rounds={len(rounds)} setups={[round(s, 4) for s in setups]} scale={scale:.4f}", file=sys.stderr)
    line = json.dumps(result)
    (outdir.parent / f"{stem}.result.json").write_text(
        json.dumps({"result": result, "unscaled": raw, "scale": scale}) + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
