#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, against the library in src/)
into .bench_build/perfbench; later runs reuse that build.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer
ones (live_loopback, which is not gated, adds the metrics only it
measures). Every metric, the pinned configuration and, for traced runs, the span
dump are also written under .bench_build/results/. perfbench/metrics.json
documents each metric: unit, direction, layer, and which end-to-end metric
it should move on which workload.

Exit codes: 0 when the run completed (its JSON says whether every
correctness check passed), 2 on bad usage or missing sources, 3 when the
configuration is not the product default (a HERMES_* override is set), 4
when the build fails, 5 when the benchmark binary fails to produce a result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "hermes_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure and build the benchmark package; serialized by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, os.cpu_count() or 1))
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-6000:])
                log("perfbench: build failed: " + " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--plant-spin-ns", type=int, default=0,
                    help="attribution self-test: spin this long in the "
                         "WST heartbeat hook (live_loopback)")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return 2
    overrides = sorted(k for k in os.environ if k.startswith("HERMES_"))
    if overrides:
        log("perfbench: refusing to run with configuration overrides: " +
            ", ".join(overrides))
        return 3

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    docs = load_json(os.path.join(HERE, "metrics.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names and args.workload not in docs["workloads"]:
        log("perfbench: unknown workload %r (known: %s)" %
            (args.workload, ", ".join(names)))
        return 2
    if args.seconds <= 0:
        log("perfbench: --seconds must be positive")
        return 2

    if not build():
        return 4

    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(RESULTS, tag + ".spans.tsv")]
    if args.plant_spin_ns:
        cmd += ["--plant-spin-ns", str(args.plant_spin_ns)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary timed out")
        return 5
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log("perfbench: benchmark binary exited %d without a result" %
            proc.returncode)
        return 5

    # The human-readable report of the binary, then the contract metrics.
    print("\n".join(lines[:-1]))
    # A gated workload reports every metric BENCHMARK.json lists for the
    # kind of run; the ungated live_loopback reports those that apply to it
    # and the documented metrics only it measures ("gated": false).
    kind = "per_layer" if args.trace else "end_to_end"
    gated = args.workload in names
    wanted = bench[kind] + [
        {"name": name, "unit": d["unit"]}
        for name, d in docs["metrics"].items()
        if d["kind"] == kind and not d["gated"]]
    listed = {m["name"] for m in bench[kind]}
    metrics = {}
    missing = []
    for m in wanted:
        if m["name"] in raw["metrics"]:
            metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                                  "unit": m["unit"]}
        elif gated and m["name"] in listed:
            missing.append(m["name"])
    correct = bool(raw["correct"]) and not missing and \
        proc.returncode in (0, 1)
    if missing:
        log("perfbench: result lacks metrics: " + ", ".join(missing))

    wdoc = docs["workloads"].get(args.workload, {})
    print("\n%s metrics of %s (seed %d):" % (kind, args.workload, args.seed))
    for m in wanted:
        if m["name"] in metrics:
            print("  %-30s %16.6g %s" % (m["name"], metrics[m["name"]]["value"],
                                         m["unit"]))
    if not args.trace:
        print("the same figures under this workload's own names:")
        for alias, src in wdoc.get("aliases", {}).items():
            if src in raw["metrics"]:
                print("  %-30s %16.6g %s" % (alias, raw["metrics"][src],
                                             docs["metrics"][src]["unit"]))
    print("configuration: " + ", ".join(
        "%s=%s" % kv for kv in sorted(raw["info"].items())))
    if raw["failed_checks"]:
        print("failed checks: " + "; ".join(raw["failed_checks"]))
    print("checks passed: %d of %d" %
          (raw["checks"] - len(raw["failed_checks"]), raw["checks"]))

    with open(os.path.join(RESULTS, tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "wall_s": wall, "binary": raw}, f, indent=1,
                  sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
