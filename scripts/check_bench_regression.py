#!/usr/bin/env python3
"""CI bench-regression gate.

Compares a bench run's items/sec against a committed baseline (e.g.
BENCH.json) and fails when any benchmark regresses by more than the
threshold.

CI machines differ from the machine a baseline was recorded on, so by
default ratios are normalized by the median current/baseline ratio across
the common benchmarks: the median absorbs the machine-speed factor, and a
*relative* regression — one benchmark cratering while its siblings hold —
sticks out regardless of the runner. Pass --absolute to compare raw numbers
(only meaningful when baseline and current come from the same machine, or
when the numbers are machine-independent, e.g. simulated rates).

Two invocation modes:

  Single pair:   --baseline FILE [--baseline-key KEY] --current FILE
  Suite:         --suite FILE --bench-dir DIR

In suite mode the suite file doubles as the baseline: its "tracked" list
names each gated bench with its own baseline sub-table, current JSON file
(relative to --bench-dir), threshold, and comparison mode:

  "tracked": [
    {"name": "codec", "baseline_key": "codec",
     "current": "bench_micro_codec.json", "threshold": 0.25},
    {"name": "fig9", "baseline_key": "fig9_smoke",
     "current": "bench_fig9_loading_rates.json",
     "threshold": 0.15, "absolute": true}
  ]

A suite may also carry "ratio_checks": floors and/or ceilings on the ratio
of two benchmarks *within one current run* — machine-independent by
construction, so they gate speedup properties (e.g. the AVX2 IDCT must
beat scalar; the uring backend's syscalls-per-record must stay a fraction
of the threads backend's) rather than absolute rates:

  "ratio_checks": [
    {"name": "idct-avx2-speedup", "current": "bench_micro_codec.json",
     "numerator": "BM_IdctBlock/avx2", "denominator": "BM_IdctBlock/scalar",
     "min_ratio": 1.1},
    {"name": "uring-syscall-ceiling", "current": "bench_cache_epochs.json",
     "numerator": "backend_uring/syscalls_per_record",
     "denominator": "backend_threads/syscalls_per_record",
     "max_ratio": 0.25}
  ]

An entry carries "min_ratio", "max_ratio", or both.

A ratio check whose numerator or denominator is absent from the current
run (e.g. a SIMD tier the runner's CPU cannot execute, reported as a
skipped benchmark with no rate) is skipped with a note, not failed.

"value_checks" gate a single metric of one current run against absolute
bounds. "max_value" is the lower-is-better mode — the metric slot carries
a latency in seconds (e.g. a p99) and the check is a ceiling; "min_value"
floors quantities like a fairness ratio or a machine-independent rate. An
entry carries "min_value", "max_value", or both; a metric absent from the
current run is skipped with a note, like ratio checks, but a present value
gates — including 0 (a starved client's fairness ratio must FAIL its
floor, not skip):

  "value_checks": [
    {"name": "serve-batch-p99-ceiling",
     "current": "bench_serve_loadgen.json",
     "metric": "serve_8c/batch_p99_sec", "max_value": 0.5},
    {"name": "serve-fairness-floor",
     "current": "bench_serve_loadgen.json",
     "metric": "serve_8c/fairness_ratio", "min_value": 0.7}
  ]

Supported input shapes (auto-detected):
  * google-benchmark JSON:   {"benchmarks": [{"name", "items_per_second"}]}
  * bench_common --json:     {"metrics": [{"name", "items_per_sec"}]}
  * committed baseline:      {"items_per_second": {"<key>": {name: value}}}
    (select <key> with --baseline-key), or a flat {name: value} map.

Exit status: 0 = no regression, 1 = regression(s), 2 = usage/parse error.
"""

import argparse
import json
import os
import statistics
import sys


def extract_items_per_sec(data, baseline_key=None, keep_nonpositive=False):
    """Returns {benchmark name: items per second} from any supported shape.

    Zero/negative rates are dropped by default — they mean "benchmark
    skipped on this runner" to the ratio checks and would divide-by-zero
    the gates. Pass keep_nonpositive=True when presence must be
    distinguishable from absence (value checks: a reported 0 is a real,
    gateable measurement — e.g. a fully starved client's fairness ratio).
    """
    if "benchmarks" in data:  # google-benchmark --benchmark_out format.
        # With --benchmark_repetitions=N the file has N iteration rows per
        # name (plus aggregate rows, skipped here); the per-name median
        # keeps one noisy repetition from tripping a gate.
        runs = {}
        for bench in data["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            if "items_per_second" in bench:
                runs.setdefault(bench["name"], []).append(
                    float(bench["items_per_second"]))
        return {name: statistics.median(values)
                for name, values in runs.items()}
    if "metrics" in data:  # bench_common --json format.
        return {
            m["name"]: float(m["items_per_sec"])
            for m in data["metrics"]
            if keep_nonpositive or float(m.get("items_per_sec", 0)) > 0
        }
    if "items_per_second" in data:  # Committed BENCH_*.json baseline.
        table = data["items_per_second"]
        if baseline_key:
            if baseline_key not in table:
                raise ValueError(
                    f"baseline key {baseline_key!r} not in {sorted(table)}")
            table = table[baseline_key]
        return {name: float(value) for name, value in table.items()}
    # Flat {name: value} map.
    flat = {
        name: float(value)
        for name, value in data.items()
        if isinstance(value, (int, float))
    }
    if not flat:
        raise ValueError("unrecognized bench JSON shape")
    return flat


def run_gate(baseline, current, threshold, absolute, min_common, label=""):
    """One baseline-vs-current comparison. Returns 0 (ok), 1, or 2."""
    # Zero-rate baseline entries carry no signal (and would divide by zero).
    common = sorted(name for name in set(baseline) & set(current)
                    if baseline[name] > 0)
    if len(common) < min_common:
        print(f"error: only {len(common)} nonzero benchmark(s) common to "
              f"baseline and current (need {min_common}); baseline has "
              f"{sorted(baseline)}, current has {sorted(current)}",
              file=sys.stderr)
        return 2

    ratios = {name: current[name] / baseline[name] for name in common}
    scale = 1.0 if absolute else statistics.median(ratios.values())
    mode = ("absolute" if absolute
            else f"median-normalized (machine factor {scale:.3f}x)")
    tag = f" [{label}]" if label else ""
    print(f"bench regression gate{tag}: {len(common)} benchmarks, "
          f"threshold -{threshold:.0%}, {mode}")

    width = max(len(name) for name in common)
    regressions = []
    for name in common:
        normalized = ratios[name] / scale
        flag = ""
        if normalized < 1.0 - threshold:
            flag = "  << REGRESSION"
            regressions.append((name, normalized))
        print(f"  {name:<{width}}  baseline {baseline[name]:>12.1f}  "
              f"current {current[name]:>12.1f}  relative {normalized:>6.2f}x"
              f"{flag}")

    if regressions:
        print(f"\nFAIL{tag}: {len(regressions)} benchmark(s) regressed more "
              f"than {threshold:.0%}:")
        for name, normalized in regressions:
            print(f"  {name}: {normalized:.2f}x of baseline "
                  f"(limit {1.0 - threshold:.2f}x)")
        return 1
    print(f"\nOK{tag}: no benchmark regressed beyond the threshold")
    return 0


def run_ratio_checks(suite, bench_dir):
    """Gates within-run benchmark ratios (machine-independent bounds).

    Each entry carries "min_ratio" (floor), "max_ratio" (ceiling), or both.
    Returns 0 (all bounds hold or were skipped for missing rates) or 1.
    Missing numerator/denominator entries — a tier the runner cannot
    execute reports no rate — skip the check rather than fail it.
    """
    worst = 0
    for entry in suite.get("ratio_checks", []):
        label = entry.get("name", "?")
        try:
            current_path = os.path.join(bench_dir, entry["current"])
            with open(current_path) as f:
                current = extract_items_per_sec(json.load(f))
            num_name = entry["numerator"]
            den_name = entry["denominator"]
            min_ratio = (float(entry["min_ratio"])
                         if "min_ratio" in entry else None)
            max_ratio = (float(entry["max_ratio"])
                         if "max_ratio" in entry else None)
            if min_ratio is None and max_ratio is None:
                raise ValueError(
                    f"ratio check {label!r} needs min_ratio or max_ratio")
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            print(f"error[{label}]: {e}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        missing = [n for n in (num_name, den_name)
                   if current.get(n, 0.0) <= 0]
        if missing:
            print(f"ratio check [{label}]: SKIPPED — no rate for "
                  f"{', '.join(missing)} (tier unsupported on this runner?)")
            continue
        ratio = current[num_name] / current[den_name]
        ok = ((min_ratio is None or ratio >= min_ratio) and
              (max_ratio is None or ratio <= max_ratio))
        parts = []
        if min_ratio is not None:
            parts.append(f"(floor {min_ratio:.2f}x)")
        if max_ratio is not None:
            parts.append(f"(ceiling {max_ratio:.2f}x)")
        bounds = " ".join(parts)
        print(f"ratio check [{label}]: {num_name} / {den_name} = "
              f"{ratio:.2f}x {bounds} {'OK' if ok else '<< FAIL'}")
        if not ok:
            worst = max(worst, 1)
    return worst


def run_value_checks(suite, bench_dir):
    """Gates single metrics against absolute floors/ceilings.

    "max_value" is the lower-is-better mode (latency ceilings on p99
    seconds); "min_value" floors fairness ratios and machine-independent
    rates. Returns 0 (all bounds hold or were skipped for missing
    metrics), 1, or 2.

    Only a metric *absent* from the current run skips its check; a
    present value gates, including 0 — a fairness ratio of 0 is one
    client fully starved, the exact condition its floor exists for.
    """
    worst = 0
    for entry in suite.get("value_checks", []):
        label = entry.get("name", "?")
        try:
            current_path = os.path.join(bench_dir, entry["current"])
            with open(current_path) as f:
                current = extract_items_per_sec(json.load(f),
                                                keep_nonpositive=True)
            metric = entry["metric"]
            min_value = (float(entry["min_value"])
                         if "min_value" in entry else None)
            max_value = (float(entry["max_value"])
                         if "max_value" in entry else None)
            if min_value is None and max_value is None:
                raise ValueError(
                    f"value check {label!r} needs min_value or max_value")
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            print(f"error[{label}]: {e}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        if metric not in current:
            print(f"value check [{label}]: SKIPPED — no value for {metric} "
                  f"(bench skipped on this runner?)")
            continue
        value = current[metric]
        ok = ((min_value is None or value >= min_value) and
              (max_value is None or value <= max_value))
        parts = []
        if min_value is not None:
            parts.append(f"(floor {min_value:g})")
        if max_value is not None:
            parts.append(f"(ceiling {max_value:g})")
        bounds = " ".join(parts)
        print(f"value check [{label}]: {metric} = {value:g} {bounds} "
              f"{'OK' if ok else '<< FAIL'}")
        if not ok:
            worst = max(worst, 1)
    return worst


def run_suite(suite_path, bench_dir):
    """Runs every tracked bench of a suite file. Worst status wins."""
    try:
        with open(suite_path) as f:
            suite = json.load(f)
        tracked = suite.get("tracked")
        if not tracked:
            raise ValueError(f"{suite_path} has no 'tracked' list")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    worst = 0
    for entry in tracked:
        label = entry.get("name", entry.get("baseline_key", "?"))
        try:
            baseline = extract_items_per_sec(suite,
                                             entry.get("baseline_key"))
            current_path = os.path.join(bench_dir, entry["current"])
            with open(current_path) as f:
                current = extract_items_per_sec(json.load(f))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            print(f"error[{label}]: {e}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        status = run_gate(baseline, current,
                          threshold=float(entry.get("threshold", 0.25)),
                          absolute=bool(entry.get("absolute", False)),
                          min_common=int(entry.get("min_common", 3)),
                          label=label)
        worst = max(worst, status)
        print()
    worst = max(worst, run_ratio_checks(suite, bench_dir))
    worst = max(worst, run_value_checks(suite, bench_dir))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        help="committed baseline JSON (e.g. BENCH.json)")
    parser.add_argument("--baseline-key", default=None,
                        help="sub-table inside the baseline's "
                        "items_per_second map (e.g. codec)")
    parser.add_argument("--current", help="bench JSON from this run")
    parser.add_argument("--suite", default=None,
                        help="suite baseline with a 'tracked' list; gates "
                        "every tracked bench in one run")
    parser.add_argument("--bench-dir", default=".",
                        help="directory holding the tracked benches' current "
                        "JSON files (suite mode, default .)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fail when a benchmark drops more than this "
                        "fraction (default 0.25)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw items/sec instead of "
                        "median-normalized ratios")
    parser.add_argument("--min-common", type=int, default=3,
                        help="minimum benchmarks common to both files "
                        "(default 3)")
    args = parser.parse_args()

    if args.suite:
        return run_suite(args.suite, args.bench_dir)

    if not args.baseline or not args.current:
        parser.error("either --suite or both --baseline and --current "
                     "are required")
    try:
        with open(args.baseline) as f:
            baseline = extract_items_per_sec(json.load(f), args.baseline_key)
        with open(args.current) as f:
            current = extract_items_per_sec(json.load(f))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    return run_gate(baseline, current, args.threshold, args.absolute,
                    args.min_common)


if __name__ == "__main__":
    sys.exit(main())
