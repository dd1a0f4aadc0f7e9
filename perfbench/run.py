#!/usr/bin/env python3
"""ParADE benchmark: builds the solve driver from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload cg|helmholtz|sync --seed N \
        --seconds S --trace 0|1

--trace 0 runs untraced solves and reports the end-to-end metrics;
--trace 1 runs untraced and traced solves side by side and reports the
per-layer metrics. Every solve's output is verified. Human-readable lines go
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "parade_perfbench")
TRACE_TOOL = os.path.join(BUILD_DIR, "parade", "verify", "parade_trace")
TARGETS = ["parade_perfbench", "parade_trace"]

WORKLOADS = ("cg", "helmholtz", "sync")

# (name, unit) of each per-layer metric, in report order. The driver computes
# them per traced solve; this script reports their medians.
LAYER_METRICS = [
    ("dsm.page_fetches", "count"),
    ("dsm.fetch_us", "us"),
    ("dsm.fetch_busy_s", "s"),
    ("dsm.read_faults", "count"),
    ("dsm.write_faults", "count"),
    ("dsm.fetch_per_read_fault", "ratio"),
    ("dsm.diffs_created", "count"),
    ("dsm.diff_bytes", "B"),
    ("dsm.write_notices", "count"),
    ("dsm.home_migrations", "count"),
    ("dsm.barriers", "count"),
    ("dsm.barrier_wait_s", "s"),
    ("dsm.lock_acquires", "count"),
    ("dsm.lock_grant_us", "us"),
    ("dsm.critical_conventional_us", "us"),
    ("dsm.single_conventional_us", "us"),
    ("dsm.retries", "count"),
    ("mp.collectives", "count"),
    ("mp.collective_us", "us"),
    ("mp.coll_bytes", "B"),
    ("mp.recv_wait_s", "s"),
    ("mp.retries", "count"),
    ("net.dsm_msgs", "count"),
    ("net.dsm_bytes", "B"),
    ("net.coll_msgs", "count"),
    ("net.coll_bytes", "B"),
    ("runtime.parallel_regions", "count"),
    ("runtime.barrier_wait_s", "s"),
    ("runtime.parallel_us", "us"),
    ("runtime.barrier_us", "us"),
    ("runtime.critical_us", "us"),
    ("runtime.reduction_us", "us"),
    ("runtime.single_us", "us"),
    ("vtime.critical_us", "us"),
    ("vtime.critical_kdsm_us", "us"),
    ("vtime.single_us", "us"),
    ("vtime.single_kdsm_us", "us"),
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    """Configures once, then builds the driver and the trace checker. An
    up-to-date tree makes this a no-op of about a second."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                # A failed configure must not leave a cache that later runs
                # would trust.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return log_path
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS
        if subprocess.run(cmd, stdout=log, stderr=log).returncode:
            return log_path
    return None


def driver_env(traced):
    """The solve driver's environment: no inherited PARADE_* knob may change
    the cluster shape, the cost model or inject faults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARADE_")}
    if traced:
        env["PARADE_TRACE"] = "1"
    return env


def run_driver(args, mode, export=None):
    cmd = [DRIVER, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--mode=" + mode]
    if export:
        cmd.append("--export=" + export)
    try:
        proc = subprocess.run(cmd, env=driver_env(mode != "timed"),
                              stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 90)
    except subprocess.TimeoutExpired:
        fail("%s run of %s timed out" % (mode, args.workload))
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    solves = [r for r in records if r["kind"] == "solve"]
    runs = [r for r in records if r["kind"] == "run"]
    if not solves or len(runs) != 1:
        fail("driver output is incomplete")
    # A registry entry the metrics read is gone (renamed or removed): fail
    # rather than report its metric as 0.
    missing = sorted({name for s in solves for name in s["missing"]})
    if missing:
        fail("registry entries not found: " + " ".join(missing))
    return solves, runs[0]


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, and the
    value there; the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


# A solve during which the hypervisor took more than this share of the
# machine's CPU time ran in a host burst. The cluster's threads wait on each
# other, so one stalled CPU stalls the whole solve: at 20 % steal a solve runs
# 2-3 times slower.
MAX_STEAL_SHARE = 0.05
# Fewest unstolen solves (or pairs) a run reports on; below this it reports on
# all of them.
MIN_UNSTOLEN = 21


def unstolen(groups):
    """The groups of solves (single solves, or untraced/traced pairs) in which
    no solve lost more than MAX_STEAL_SHARE to steal, in run order; all of
    them if fewer than MIN_UNSTOLEN remain. Returns (groups, note)."""
    kept = [g for g in groups
            if all(s["steal_share"] <= MAX_STEAL_SHARE for s in g)]
    if len(kept) >= MIN_UNSTOLEN:
        return kept, "%d of %d without host steal" % (len(kept), len(groups))
    return groups, ("all %d: only %d without host steal, so host steal "
                    "inflates this run's times" % (len(groups), len(kept)))


# Solves on each side of a solve in the window whose median is its local
# host speed.
TAIL_HALF_WINDOW = 10


def wall_tail(wall):
    """wall_tail_s: the tail percentile of the solves' wall times, each first
    rescaled from the host speed around it to the run's median speed.

    Every solve runs on a fresh cluster, so solves are independent and a
    stretch of slow neighbours is the host slowing down, not the program. A
    solve's local speed is the median of the 2 * TAIL_HALF_WINDOW + 1 solves
    around it; dividing by it and multiplying by the run's median removes
    such a stretch. A slow solve among normal neighbours keeps its excess.
    With 21 solves or fewer the window is the whole run, and the metric is
    the plain percentile."""
    size = 2 * TAIL_HALF_WINDOW + 1
    run_median = statistics.median(wall)
    rescaled = []
    for i, w in enumerate(wall):
        lo = max(0, min(i - TAIL_HALF_WINDOW, len(wall) - size))
        rescaled.append(w * run_median / statistics.median(wall[lo:lo + size]))
    return tail_percentile(rescaled)


def describe_shape(run):
    return ("nodes=%d threads_per_node=%d (%s, 1 comm thread per node) "
            "nproc=%d cpu_scale=%g net_latency_us=%g" % (
                run["nodes"], run["threads_per_node"], run["node_config"],
                run["nproc"], run["cpu_scale"], run["net_latency_us"]))


def end_to_end(solves, run):
    groups, note = unstolen([[s] for s in solves])
    solves = [g[0] for g in groups]
    wall = [s["wall_s"] for s in solves]
    pct, tail = wall_tail(wall)
    print("solves measured: " + note)
    print("wall_s, vtime_s, setup_s: medians; wall_tail_s: p%.1f of wall "
          "times rescaled to the run's median host speed" % pct)
    return {
        "wall_s": (statistics.median(wall), "s"),
        "wall_tail_s": (tail, "s"),
        "vtime_s": (statistics.median(s["vtime_s"] for s in solves), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in solves), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(solves, run):
    # The driver runs solves in (traced, untraced) pairs, in seeded order.
    pairs = []
    for a, b in zip(solves[0::2], solves[1::2]):
        if a["traced"] == b["traced"]:
            fail("traced run is not made of untraced/traced pairs")
        pairs.append((a, b) if a["traced"] else (b, a))
    all_traced = [t for t, _ in pairs]
    pairs, note = unstolen(pairs)
    traced = [t for t, _ in pairs]
    metrics = {}
    exact = []
    for name, unit in LAYER_METRICS:
        metrics[name] = (statistics.median(s["layers"][name] for s in traced),
                         unit)
        if unit in ("count", "B"):
            values = [s["layers"][name] for s in all_traced]
            exact.append("%s=%s" % (name, "yes" if min(values) == max(values)
                                    else "no(%g..%g)" % (min(values),
                                                         max(values))))
    metrics["runtime.shutdown_s"] = (
        statistics.median(s["shutdown_s"] for s in traced), "s")
    metrics["apps.serial_s"] = (statistics.median(run["serial_s"]), "s")
    # The median of the per-pair ratios is immune to host speed drifting
    # across the run.
    metrics["obs.trace_overhead"] = (
        statistics.median(t["wall_s"] / u["wall_s"] for t, u in pairs), "ratio")
    print("untraced/traced pairs measured: " + note)
    print("counts repeating exactly over this run's %d traced solves: "
          % len(all_traced) + " ".join(exact))
    return metrics


def main(argv):
    args = parse_args(argv)
    log = build()
    if log:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build failed; full log in " + log)

    if args.trace:
        export = os.path.join(BUILD_DIR, "trace-%s.metrics.json" % args.workload)
        solves, run = run_driver(args, "traced", export)
        metrics = per_layer(solves, run)
        print("registry export: " + os.path.relpath(export, ROOT))
    else:
        solves, run = run_driver(args, "timed")
        metrics = end_to_end(solves, run)

    print("workload %s seed %d: %s" % (args.workload, args.seed,
                                       describe_shape(run)))
    if run["construct_order"]:
        print("construct order: " + " ".join(run["construct_order"]))
    for name, (value, unit) in metrics.items():
        print("%-32s %.6g %s" % (name, value, unit))

    failed = sum(1 for s in solves if not s["ok"])
    print("failed_frac %.6f (%d of %d solves)" % (
        failed / len(solves), failed, len(solves)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
