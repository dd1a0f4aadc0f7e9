#!/usr/bin/env python3
"""The benchmark's own test: builds the driver, runs one short traced solve of
each workload with verification, checks that the registry held every entry
the per-layer metrics read and that the counts each workload exists to drive
are positive, and checks each registry export with `parade_trace --check`.

    python3 perfbench/selftest.py

Exits 0 when every workload passed all of these.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build and driver plumbing)

# Per-layer metrics that must be positive after one solve of each workload:
# the layer traffic the workload was chosen for (see README.md).
MUST_MOVE = {
    "cg": ["dsm.page_fetches", "dsm.fetch_us", "dsm.read_faults",
           "dsm.diffs_created", "dsm.diff_bytes", "dsm.write_notices",
           "dsm.barriers", "mp.collectives", "net.dsm_msgs", "net.dsm_bytes",
           "net.coll_bytes", "runtime.parallel_regions"],
    "helmholtz": ["dsm.write_faults", "dsm.write_notices",
                  "dsm.home_migrations", "dsm.page_fetches", "dsm.barriers",
                  "mp.collectives", "net.dsm_bytes",
                  "runtime.parallel_regions", "runtime.barrier_wait_s"],
    "sync": ["dsm.lock_acquires", "dsm.lock_grant_us",
             "dsm.critical_conventional_us", "dsm.single_conventional_us",
             "mp.collectives", "mp.collective_us", "net.coll_msgs",
             "runtime.parallel_regions", "runtime.parallel_us",
             "runtime.barrier_us", "runtime.critical_us",
             "runtime.reduction_us", "runtime.single_us", "vtime.critical_us",
             "vtime.critical_kdsm_us", "vtime.single_us",
             "vtime.single_kdsm_us"],
}


def main():
    log = run.build()
    if log:
        run.fail("build failed; full log in " + log)
    failures = 0
    for workload in run.WORKLOADS:
        export = os.path.join(run.BUILD_DIR, "smoke-%s.metrics.json" % workload)
        if os.path.exists(export):
            os.remove(export)
        proc = subprocess.run(
            [run.DRIVER, "--workload=" + workload, "--seed=1", "--mode=smoke",
             "--export=" + export],
            env=run.driver_env(traced=True), stdout=subprocess.PIPE, text=True,
            timeout=300)
        solves = [json.loads(line) for line in proc.stdout.splitlines()
                  if line.startswith('{"kind":"solve"')]
        verified = proc.returncode == 0 and len(solves) == 1 and solves[0]["ok"]
        layers = solves[0].get("layers", {}) if solves else {}
        # Registry entries the driver looked up but did not find, then layer
        # metrics that are absent or read 0 where the workload must move them.
        missing = solves[0]["missing"] if solves else ["(no solve)"]
        missing = missing + [name for name, _ in run.LAYER_METRICS
                             if name not in layers]
        idle = [name for name in MUST_MOVE[workload]
                if not layers.get(name, 0) > 0]
        check = subprocess.run([run.TRACE_TOOL, "--check", export],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=300)
        ok = verified and not missing and not idle and check.returncode == 0
        failures += not ok
        print("%-10s %s  solve %s, layer metrics %s%s, parade_trace --check %s" % (
            workload, "PASS" if ok else "FAIL",
            "verified" if verified else "FAILED",
            "complete" if not missing else "missing " + ",".join(missing),
            "" if not idle else ", zero " + ",".join(idle),
            "ok" if check.returncode == 0 else
            "exit %d: %s" % (check.returncode, check.stdout[-400:])))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
