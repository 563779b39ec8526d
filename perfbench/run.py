#!/usr/bin/env python3
"""Perf ledger: end-to-end and per-layer benchmark of the TEMPO simulator.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --shard-study [--seed N]

The first run configures and builds perfbench/ (the simulator library
from src/ plus the perf_ledger program) into .bench_build/perfbench;
later runs rebuild incrementally. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones (see NOTES.md). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Lines before it give the host fingerprint and every point's sim digest.
--ledger FILE also appends the full result as one JSON line to FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perf_ledger")
DIGESTS = os.path.join(BUILD, "digests.json")

WORKLOADS = ["bigdata-tempo", "small-baseline", "mix8-bliss", "sweep-jobs"]

END_TO_END = {
    "refs_per_s": "refs/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_TIMES = [
    "workloads.next_ns", "vm.translate_ns", "vm.tlb_ns", "vm.walk_ns",
    "cache.access_ns", "mc.request_ns", "dram.access_ns",
    "event_queue.event_ns",
]
PROFILE_COMPONENTS = ["scheduler", "core", "cache", "walker", "mc", "dram",
                      "workload"]
REQ_KINDS = ["regular", "replay", "pt_walk", "tempo_prefetch", "writeback"]

PER_LAYER = {name: "ns" for name in LAYER_TIMES}
PER_LAYER.update({
    "experiment.parallel_efficiency": "ratio",
    "experiment.point_s_max": "s",
    "profile.overhead": "ratio",
    "profile.ns_per_scope": "ns",
})
PER_LAYER.update({"profile.%s_share" % c: "ratio"
                  for c in PROFILE_COMPONENTS})
PER_LAYER.update({
    "core.events_per_ref": "events/ref",
    "vm.stlb_miss_rate": "ratio",
    "vm.translator_hit_rate": "ratio",
    "vm.walks_per_kref": "walks/kref",
    "vm.mmu_hit_rate": "ratio",
    "cache.l1_miss_rate": "ratio",
    "cache.llc_miss_rate": "ratio",
    "cache.dropped_writebacks": "count",
})
PER_LAYER.update({"mc.queue_delay_cycles.%s" % k: "cycles"
                  for k in REQ_KINDS})
PER_LAYER.update({
    "mc.queue_high_water": "slots",
    "mc.writebacks_per_kref": "reqs/kref",
    "mc.tempo.prefetches_issued": "count",
    "mc.tempo.drop_ratio": "ratio",
    "mc.tempo.replay_llc_ratio": "ratio",
    "dram.row_hit_rate": "ratio",
})

# Every run must end within this many seconds (the build excepted).
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perf_ledger; returns seconds spent."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under %s"
                         % os.path.join(ROOT, "src"))
    start = time.monotonic()
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perf_ledger"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    log("".join(f.readlines()[-30:]))
                raise BenchError("build failed (log: %s)" % log_path)
    return time.monotonic() - start


def run_binary(args, limit_s, env=None):
    # Simulator knobs read from TEMPO_* variables (reference paths, job
    # counts, tracing) would change what is measured; only the
    # fault-injection hook passes through.
    env = {k: v for k, v in (env or os.environ).items()
           if not k.startswith("TEMPO_") or k == "TEMPO_FAULT_INJECT"}
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=limit_s)
    except subprocess.TimeoutExpired:
        raise BenchError("perf_ledger exceeded %.0f s" % limit_s)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise BenchError("perf_ledger exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def median(values):
    return statistics.median(values) if values else 0.0


def throughput(raw):
    """refs_per_s: simulated references over the summed fastest run time
    of each timing unit (a point, assembled from its fastest slices, or
    a whole sweep). Interference from other tenants of the host only
    ever slows a repeat down, so the fastest repeat is the steadiest
    estimate of the simulator's own speed (see NOTES.md)."""
    refs = time_s = 0.0
    for key, value in raw["values"].items():
        if key.startswith("run_s_fastest."):
            refs += raw["values"]["refs." + key[len("run_s_fastest."):]]
            time_s += value
    return refs / time_s if time_s > 0 else 0.0


def metrics_of(raw, trace):
    samples, values = raw["samples"], raw["values"]
    if trace == 0:
        found = {
            "refs_per_s": throughput(raw),
            "setup_s": median(samples.get("setup_s", [])),
            "peak_rss_mb": values.get("peak_rss_mb", 0.0),
        }
        units = END_TO_END
    else:
        found = {k: median(v) for k, v in samples.items()
                 if k in PER_LAYER}
        found.update({k: v for k, v in values.items() if k in PER_LAYER})
        units = PER_LAYER
    return {name: {"value": found[name], "unit": units[name]}
            for name in units if name in found}


def check_digests(raw, key):
    """Compare this run's digests with earlier runs of the same build,
    workload, seed and length (any pass); returns mismatching points."""
    digests = {p["label"]: p["sim_digest"] for p in raw["points"]
               if int(p["sim_digest"], 16) != 0}
    try:
        with open(DIGESTS) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    seen = known.setdefault(key, {})
    bad = [label for label, d in digests.items()
           if seen.get(label, d) != d]
    for label, d in digests.items():
        seen.setdefault(label, d)
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)
    return bad


def host_fingerprint(raw):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    # Only this checkout's own history: git would otherwise report the
    # commit of whatever repository encloses an exported tree.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": raw.get("compiler", "unknown"),
        "build_type": raw.get("build_type", "unknown"),
        "commit": commit,
    }


def measure(workload, seed, seconds, trace, scale=1.0, env=None,
            limit_s=RUN_LIMIT_S):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if scale != 1.0:
        args += ["--scale", repr(scale)]
    raw = run_binary(args, limit_s, env)
    key = "%s|%d|%s" % (workload, seed,
                        ",".join(str(p["refs"]) for p in raw["points"]))
    bad = check_digests(raw, key)
    for label in bad:
        log("error: %s: sim digest differs from an earlier pass" % label)
    for error in raw["errors"]:
        log("error: %s" % error)
    failed = raw["failed"] + len(bad)
    metrics = metrics_of(raw, trace)
    expected = END_TO_END if trace == 0 else PER_LAYER
    complete = len(metrics) == len(expected)
    if not complete:
        log("error: missing metrics %s"
            % sorted(set(expected) - set(metrics)))
    return {
        "correct": failed == 0 and complete,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": metrics,
        "host": host_fingerprint(raw),
        "points": raw["points"],
    }


def self_test():
    """Tiny-length checks: every metric named in BENCHMARK.json is
    emitted with its unit, digests repeat across processes and passes,
    and an injected fault is counted as a failed point."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
        if not cond:
            problems.append(what)

    expect(set(w["name"] for w in spec["workloads"]) <= set(WORKLOADS),
           "BENCHMARK.json names only the ledger's workloads")
    for group, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        emitted = END_TO_END if trace == 0 else PER_LAYER
        expect(declared == emitted,
               "%s metrics and units match BENCHMARK.json" % group)

    scale = 0.02
    for workload in WORKLOADS:
        first = measure(workload, 1, 0, 0, scale)
        again = measure(workload, 1, 0, 0, scale)
        layers = measure(workload, 1, 0, 1, scale)
        for trace, result in ((0, first), (1, layers)):
            declared = {m["name"]: m["unit"] for m in
                        spec["end_to_end" if trace == 0 else "per_layer"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared,
                   "%s --trace %d emits every metric with its unit"
                   % (workload, trace))
            expect(result["correct"] and result["failed"] == 0,
                   "%s --trace %d: no point failed" % (workload, trace))
        digests = [[p["sim_digest"] for p in r["points"]]
                   for r in (first, again, layers)]
        expect(digests[0] == digests[1] == digests[2],
               "%s digests repeat across runs and passes" % workload)

    env = dict(os.environ, TEMPO_FAULT_INJECT="0:throw")
    for workload in ("bigdata-tempo", "sweep-jobs"):
        result = measure(workload, 1, 0, 0, scale, env=env)
        expect(result["failed"] > 0 and not result["correct"]
               and result["attempted"] > result["failed"],
               "%s: injected fault counted as failed (%d of %d)"
               % (workload, result["failed"], result["attempted"]))
    print("self-test: %s" % ("ok" if not problems else
                             "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", help="append the result to this JSONL")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--shard-study", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.shard_study):
        parser.error("--workload, --self-test or --shard-study required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    start = time.monotonic()
    try:
        built_s = build()
        if args.self_test:
            return self_test()
        if args.shard_study:
            raw = run_binary(["--shard-study", "--seed", str(args.seed)],
                             900)
            row = {"host": host_fingerprint(raw), "seed": args.seed,
                   "shard_study": raw["shard_study"]}
            print(json.dumps(row))
            if args.ledger:
                with open(args.ledger, "a") as f:
                    f.write(json.dumps(row, sort_keys=True) + "\n")
            return 0
        # The first run of a checkout may spend most of its time building.
        limit = (900 if built_s > 30 else RUN_LIMIT_S) \
            - (time.monotonic() - start)
        result = measure(args.workload, args.seed, args.seconds,
                         args.trace, limit_s=max(10.0, limit))
    except BenchError as e:
        log("error: %s" % e)
        return 1

    print("host: " + json.dumps(result["host"], sort_keys=True))
    for p in result["points"]:
        print("sim_digest %s %s %s" % (args.workload, p["label"],
                                       p["sim_digest"]))
    if args.ledger:
        row = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
        with open(args.ledger, "a") as f:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
