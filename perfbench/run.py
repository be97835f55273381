#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (and the repository's `mlp` library it links) under
$CARGO_TARGET_DIR (default `.bench_build`); later runs only rebuild what
changed. Inputs are generated from the seed into a scratch directory under
the same build root and removed afterwards. The last stdout line is the
result object; the line before it (PERFBENCH_RECORD) carries the host
class, thread counts, details and the share of CPU time stolen by the
hypervisor during the run (steal_pct), and is also saved to
<build root>/perfbench-results/<workload>-s<seed>-t<trace>.json for
perfbench/compare.py. Exits non-zero without a result when the checkout has
no repository sources, the build fails, or the run does not finish.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("small", "large")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cpu_jiffies():
    """(total, steal) CPU time from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(f) for f in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


def build(build_dir):
    """Configures (once) and builds the perfbench target; output to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources in {ROOT}; nothing to benchmark")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root / "perfbench")
    work_dir = build_root / "perfbench-work" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work_dir", str(work_dir)]
    before = cpu_jiffies()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    # CPU time the hypervisor gave to other guests while this run ran:
    # runs on a contended host read slower, and the record says so.
    after = cpu_jiffies()
    steal_pct = None
    if before and after and after[0] > before[0]:
        steal_pct = 100.0 * (after[1] - before[1]) / (after[0] - before[0])
    record = None
    for i, line in enumerate(lines):
        if line.startswith("PERFBENCH_RECORD "):
            record = json.loads(line[len("PERFBENCH_RECORD "):])
            record["steal_pct"] = steal_pct
            lines[i] = "PERFBENCH_RECORD " + json.dumps(record)
    results_dir = build_root / "perfbench-results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps({"record": record, "result": result}) + "\n")

    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
