#!/usr/bin/env python3
"""Committed-bound gate over the bench JSON files.

Checks each bench file against the bounds committed in
bench/baselines/bench_baseline.json and fails (exit 1) when any bound is
missed. The file kind is read from its rows:

- BENCH_throughput.json (bench/throughput_collect, rows keyed "scenario"):
  each scenario's best ingest rate across thread counts must reach
  tolerance * its floor.
- BENCH_perf.json (bench/perf_suite --quick, rows keyed "kernel"): each row
  with a ceiling, keyed "kernel shape", must run in at most that many
  ns/op. Rows without a ceiling are recorded, not checked.

The bounds sit about 20x away from what a healthy build measures: they catch
order-of-magnitude regressions (an accidental lock on the ingest hot path, a
Debug-flavoured Release build, a per-element allocation), not
single-digit-percent drift, because shared CI runners are too noisy for
tight thresholds. The trajectory artifacts uploaded per commit remain the
place to read fine-grained perf history.

Usage:
  tools/check_bench.py bench/baselines/bench_baseline.json \\
      BENCH_throughput.json BENCH_perf.json
"""

import json
import sys


def check_throughput(entries, bounds):
    """Best rate per scenario across thread counts against its floor."""
    tolerance = bounds["tolerance"]
    floors = bounds["floors_reports_per_sec"]
    best = {}
    for entry in entries:
        scenario = entry["scenario"]
        best[scenario] = max(best.get(scenario, 0.0),
                             float(entry["reports_per_sec"]))

    failed = False
    width = max(len(s) for s in floors) + 2
    print(f"{'scenario':<{width}}{'measured':>14}{'floor':>14}"
          f"{'required':>14}  verdict")
    for scenario, floor in floors.items():
        required = tolerance * floor
        measured = best.get(scenario)
        if measured is None:
            print(f"{scenario:<{width}}{'MISSING':>14}{floor:>14.3g}"
                  f"{required:>14.3g}  FAIL (scenario absent from run)")
            failed = True
            continue
        verdict = "ok" if measured >= required else "FAIL"
        failed = failed or measured < required
        print(f"{scenario:<{width}}{measured:>14.3g}{floor:>14.3g}"
              f"{required:>14.3g}  {verdict}")

    extra = sorted(set(best) - set(floors))
    if extra:
        print(f"note: scenarios without a committed floor (unchecked): "
              f"{', '.join(extra)}")
    return failed


def check_perf(entries, bounds):
    """ns/op of each bounded perf_suite row against its ceiling."""
    ceilings = bounds["ceilings_ns_per_op"]
    measured = {}
    for entry in entries:
        key = f"{entry['kernel']} {entry['shape']}"
        measured[key] = float(entry["ns_per_op"])

    failed = False
    width = max(len(k) for k in ceilings) + 2
    print(f"{'row':<{width}}{'ns/op':>14}{'ceiling':>14}  verdict")
    for key, ceiling in ceilings.items():
        value = measured.get(key)
        if value is None:
            print(f"{key:<{width}}{'MISSING':>14}{ceiling:>14.3g}"
                  f"  FAIL (row absent from run)")
            failed = True
            continue
        verdict = "ok" if value <= ceiling else "FAIL"
        failed = failed or value > ceiling
        print(f"{key:<{width}}{value:>14.3g}{ceiling:>14.3g}  {verdict}")
    return failed


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)

    failed = False
    for path in argv[2:]:
        with open(path) as f:
            entries = json.load(f)
        print(f"== {path}")
        if entries and "scenario" in entries[0]:
            failed = check_throughput(entries, baseline["throughput"]) or failed
        elif entries and "kernel" in entries[0]:
            failed = check_perf(entries, baseline["perf"]) or failed
        else:
            print(f"{path}: neither throughput nor perf_suite rows",
                  file=sys.stderr)
            return 2

    if failed:
        print("bench gate FAILED: a measurement missed its committed bound",
              file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
