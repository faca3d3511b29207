#!/usr/bin/env python3
"""The benchmark's own tests: smoke every workload and oracle, check that
it reports exactly the metrics BENCHMARK.json declares, and that every
modeled metric is bit-identical between two runs and between a
pool of 1 and a pool of one worker per CPU.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py

Builds nimg_bench like run.py does, then runs each workload in --smoke mode
(one cycle of ops over one or two small programs): untraced at pool 1,
pool N and pool N again, and traced at pool N. Exits 0 iff every run is
correct and every modeled value repeats exactly.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree (and its digest) clean
import run  # noqa: E402

SEED = 7
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def smoke(binary, workload, trace, jobs, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(SEED), "--seconds",
           "1", "--trace", str(trace), "--jobs", str(jobs), "--smoke"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode:
        raise AssertionError(f"{workload}: exit code {proc.returncode}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    # "# metric <name> <value> <unit> <clock> <better> is better"
    rows = [f for f in (l.split() for l in lines)
            if len(f) > 6 and f[:2] == ["#", "metric"]]
    clocks = {f[2]: f[5] for f in rows}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    if ({(m["name"], m["unit"], m["better"]) for m in declared} !=
            {(f[2], f[4], f[6]) for f in rows}):
        raise AssertionError(f"{workload} trace={trace}: metrics differ "
                             "from BENCHMARK.json")
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} trace={trace} jobs={jobs}: "
                             f"{result['failed']} of {result['attempted']} "
                             "ops failed")
    modeled = {name: m["value"] for name, m in result["metrics"].items()
               if clocks[name] == "modeled"}
    return result, modeled


def main():
    out = run.build_dir(run.source_digest())
    binary = run.build(out)
    nproc = os.cpu_count() or 1
    failures = []
    for workload in run.WORKLOADS:
        try:
            _, first = smoke(binary, workload, 0, 1)
            _, second = smoke(binary, workload, 0, nproc)
            _, third = smoke(binary, workload, 0, nproc)
            if not first or first != second or second != third:
                raise AssertionError(
                    f"{workload}: modeled metrics differ across runs or pool "
                    f"sizes: {first} / {second} / {third}")
            trace_file = os.path.join(out, f"selftest-{workload}.json")
            _, traced = smoke(binary, workload, 1, nproc, trace_file)
            _, traced1 = smoke(binary, workload, 1, 1)
            if traced != traced1:
                raise AssertionError(
                    f"{workload}: modeled per-layer counts differ between "
                    "pool sizes")
            with open(trace_file) as f:
                if not json.load(f)["traceEvents"]:
                    raise AssertionError(f"{workload}: empty trace")
            print(f"PASS {workload}: {len(first)} end-to-end and "
                  f"{len(traced)} per-layer modeled values repeat exactly")
        except (AssertionError, ValueError, KeyError,
                subprocess.TimeoutExpired) as e:
            failures.append(str(e))
            print(f"FAIL {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
