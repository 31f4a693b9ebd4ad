#!/usr/bin/env python3
"""End-to-end benchmark: decoded images delivered to trainers.

Run from the repository root:

    python3 bench/e2e/run.py                      # all five workloads
    python3 bench/e2e/run.py --traced             # ... then a traced pass
    python3 bench/e2e/run.py --repeat 5           # medians and quartiles
    python3 bench/e2e/run.py --smoke              # the ctest smoke check
    python3 bench/e2e/run.py --workload serve-cold --seed 3 --seconds 10 \
        --trace 0                                 # one run, one JSON line

The script builds bench_e2e from source (a standalone CMake project in this
directory that compiles ../../src), prepares the seed's inputs once, runs
each workload in its own process, checks that every metric declared in
BENCHMARK.json is present with its unit, and prints one JSON result line
last.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
WORKLOADS = ["local-decode", "remote-io", "serve-cold", "serve-warm", "ingest"]

FULL = {"images": 1024, "record_images": 64, "warmup": 3.0, "setups": 5}
# The smoke dataset keeps the full run's 16 records with smaller ones, so
# every workload stays in its regime.
SMOKE = {"images": 256, "record_images": 16, "warmup": 1.0, "setups": 2,
         "seconds": 2.0}

# Each workload must stress the layer it claims (traced runs).
READ_WORKLOADS = ["local-decode", "remote-io", "serve-cold", "serve-warm"]
REGIMES = {
    "local-decode": [("loader.decode_stall_share", ">=", 0.8)],
    "remote-io": [("loader.io_utilization", ">=", 0.9),
                  ("storage.device_busy_share", ">=", 0.9)],
    "serve-cold": [("serve.decode_cache_hit_rate", "<=", 0.5),
                   ("serve.shm_batch_share", "==", 1.0)],
    "serve-warm": [("serve.decode_cache_hit_rate", ">=", 0.99),
                   ("serve.shm_batch_share", "==", 1.0)],
}
for _name in READ_WORKLOADS:
    REGIMES[_name].append(("walk.coverage", ">=", 0.95))

# Inside the 180 s a run may take, prepare included; bench_e2e's own
# watchdog ends a run at 130 s, so a stall is reported before this kill.
RUN_DEADLINE_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    with open(path) as f:
        return json.load(f)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "e2e"


def build():
    """Configures and builds bench_e2e; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("bench_e2e: no src/ tree next to bench/e2e; "
                         "run from a full checkout of the repository")
    out = build_dir() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    log_path = build_dir() / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as build_log:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DPCR_BUILD_TESTS=OFF"])
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", "bench_e2e"])
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log(log_path.read_text()[-4000:])
                raise SystemExit("bench_e2e: build failed (see %s)" % log_path)
    return out / "bench_e2e"


def source_hash():
    """Keys prepared data on the code that produced it."""
    digest = hashlib.sha1()
    files = sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.cc")) + \
        sorted(HERE.glob("*.h"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def prepare(binary, work, seed, shape):
    """Returns the prepared seed directory, building it when missing."""
    data_root = work / "data"
    key = source_hash()
    data = data_root / key
    if data_root.is_dir():
        for stale in data_root.iterdir():
            if stale.name != key:
                shutil.rmtree(stale, ignore_errors=True)
    seed_dir = data / ("seed-%d-%dx%d" % (seed, shape["images"],
                                          shape["record_images"]))
    if not (seed_dir / "reference.txt").is_file():
        data.mkdir(parents=True, exist_ok=True)
        # Keep the newest dozen seeds; each holds ~65 MB.
        seeds = sorted((p for p in data.iterdir() if p.is_dir()),
                       key=lambda p: p.stat().st_mtime)
        for old in seeds[:-11]:
            shutil.rmtree(old, ignore_errors=True)
        started = time.time()
        subprocess.run([str(binary), "prepare", "--data", str(seed_dir),
                        "--seed", str(seed), "--images",
                        str(shape["images"]), "--record-images",
                        str(shape["record_images"])],
                       check=True, timeout=RUN_DEADLINE_S)
        log("prepared seed %d in %.1f s" % (seed, time.time() - started))
    os.utime(seed_dir)
    return seed_dir


def run_workload(binary, work, workload, seed, seconds, traced, shape):
    """Runs one workload process; returns (ok, parsed result or None)."""
    seed_dir = prepare(binary, work, seed, shape)
    run_dir = work / "run"
    results = work / "results"
    run_dir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-%s" % (workload, seed, "traced" if traced else "e2e")
    command = [str(binary), "run", "--workload", workload,
               "--data", str(seed_dir), "--seed", str(seed),
               "--seconds", str(seconds), "--warmup", str(shape["warmup"]),
               "--setups", str(shape["setups"]),
               "--trace", "1" if traced else "0",
               "--run-dir", str(run_dir),
               "--trace-out", str(results / (tag + ".trace.json"))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_DEADLINE_S, text=True)
    except subprocess.TimeoutExpired:
        log("bench_e2e: %s timed out" % workload)
        return False, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        with open(results / (tag + ".json"), "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
    return proc.returncode == 0 and result is not None, result


def declared(spec, traced):
    return spec["per_layer"] if traced else spec["end_to_end"]


def contract_line(spec, result, traced, ok):
    """The result restricted to the declared metrics; notes what is missing."""
    problems = []
    metrics = {}
    got = (result or {}).get("metrics", {})
    for m in declared(spec, traced):
        value = got.get(m["name"])
        if value is None:
            problems.append("missing metric %s" % m["name"])
        elif value.get("unit") != m["unit"]:
            problems.append("%s has unit %s, declared %s" %
                            (m["name"], value.get("unit"), m["unit"]))
        else:
            metrics[m["name"]] = {"value": value["value"], "unit": m["unit"]}
    attempted = int((result or {}).get("attempted", 0))
    failed = int((result or {}).get("failed", 0))
    correct = bool(ok and (result or {}).get("correct") and not problems)
    line = {"correct": correct, "attempted": max(1, attempted),
            "failed": failed if correct or failed else 1, "metrics": metrics}
    return line, problems


def regime_problems(workload, result):
    problems = []
    got = (result or {}).get("metrics", {})
    for name, op, bound in REGIMES.get(workload, []):
        value = got.get(name, {}).get("value")
        held = value is not None and {
            ">=": value >= bound, "<=": value <= bound,
            "==": value == bound}[op]
        if not held:
            problems.append("%s: %s = %s, want %s %s" %
                            (workload, name, value, op, bound))
    return problems


def print_table(workload, result):
    got = (result or {}).get("metrics", {})
    print("%s (attempted %s, failed %s)" % (
        workload, (result or {}).get("attempted"),
        (result or {}).get("failed")))
    for name in sorted(got):
        print("  %-36s %16.6g %s" % (name, got[name]["value"],
                                      got[name]["unit"]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add a traced pass")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="use this bench_e2e instead of building")
    parser.add_argument("--work-dir", help="inputs, sockets and results")
    args = parser.parse_args()

    spec = load_spec()
    shape = dict(SMOKE if args.smoke else FULL)
    seconds = args.seconds or shape.get("seconds") or spec["run_seconds"]
    binary = Path(args.bin) if args.bin else build()
    work = Path(args.work_dir) if args.work_dir else build_dir() / "work"

    if args.workload:
        ok, result = run_workload(binary, work, args.workload, args.seed,
                                  seconds, args.trace == 1, shape)
        if result is not None:
            print_table(args.workload, result)
        line, problems = contract_line(spec, result, args.trace == 1, ok)
        for p in problems + (regime_problems(args.workload, result)
                             if args.trace == 1 else []):
            log("bench_e2e: " + p)
        if result is None:
            return 1
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    # All workloads: untraced (and optionally traced) passes, `repeat`
    # rounds with the workload order rotating so no workload always runs
    # first.
    passes = [False] + ([True] if args.traced or args.smoke else [])
    runs = {}
    problems = []
    for rnd in range(args.repeat):
        order = WORKLOADS[rnd % len(WORKLOADS):] + \
            WORKLOADS[:rnd % len(WORKLOADS)]
        for traced in passes:
            for workload in order:
                seed = args.seed + rnd
                ok, result = run_workload(binary, work, workload, seed,
                                          seconds, traced, shape)
                line, missing = contract_line(spec, result, traced, ok)
                problems += ["%s seed %d: %s" % (workload, seed, m)
                             for m in missing]
                if not line["correct"]:
                    problems.append("%s seed %d%s: run failed" % (
                        workload, seed, " (traced)" if traced else ""))
                if traced:
                    problems += regime_problems(workload, result)
                if args.repeat == 1:
                    print_table(workload + (" traced" if traced else ""),
                                result)
                runs.setdefault((workload, traced), []).append(line)

    summary = {}
    if args.repeat > 1:
        print("%-14s %-20s %10s %10s %10s %7s %10s %10s" % (
            "workload", "metric", "q1", "median", "q3", "spread",
            "odd runs", "even runs"))
    for (workload, traced), lines in sorted(runs.items()):
        for m in declared(spec, traced):
            values = [l["metrics"][m["name"]]["value"] for l in lines
                      if m["name"] in l["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            if not traced:
                summary["%s/%s" % (workload, m["name"])] = {
                    "value": med, "unit": m["unit"]}
            if args.repeat < 2 or traced:
                continue
            # Spread: quartile distance over the median. Agreement: the
            # medians of the interleaved halves (rounds 1, 3, ... against
            # 2, 4, ...) must differ by less than the bound.
            spread = (q3 - q1) / med if med else 0.0
            odd = statistics.median(values[0::2])
            even = statistics.median(values[1::2])
            flags = []
            if spread > m["bound"]:
                flags.append("spread > bound %.2f" % m["bound"])
            if med and abs(odd - even) / med >= m["bound"]:
                flags.append("halves disagree")
            print("%-14s %-20s %10.5g %10.5g %10.5g %7.4f %10.5g %10.5g %s" % (
                workload, m["name"], q1, med, q3, spread, odd, even,
                "  ".join(flags)))
    for p in problems:
        log("bench_e2e: " + p)
    attempted = sum(l["attempted"] for ls in runs.values() for l in ls)
    failed = sum(l["failed"] for ls in runs.values() for l in ls)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
