#!/usr/bin/env python3
"""Compares perfbench results, or reports the tracing overhead.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py --overhead DIR

Each DIR holds the JSON files perfbench/run.py saves (one per run, under
<build root>/perfbench-results/; copy them aside between commits). The
comparison prints, per workload and end-to-end metric, both sides' medians
and the change against the metric's bound from BENCHMARK.json. A metric whose spread on either side exceeds its bound is
reported as unresolved, not as unchanged. It first prints each side's median
steal_pct, the CPU time the hypervisor gave to other guests during the runs.

Results are only comparable within one host class (nproc, CPU model and
build type): compare.py refuses, with exit code 2, to mix classes. With
--overhead it sets each workload's traced runs (--trace 1, which also
measure the end-to-end figures) against its untraced runs in DIR.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("record") and data.get("result"):
            runs.append(data)
    if not runs:
        sys.exit(f"compare: no perfbench results in {directory}")
    return runs


def host_class(run):
    host = run["record"]["host"]
    return (host["nproc"], host["cpu_model"], host["build_type"])


def check_host_classes(*run_sets):
    classes = {host_class(run) for runs in run_sets for run in runs}
    if len(classes) > 1:
        listing = "\n  ".join(str(c) for c in sorted(classes))
        print("compare: refusing to compare results from different host "
              f"classes (nproc, cpu model, build type):\n  {listing}",
              file=sys.stderr)
        sys.exit(2)


def summary(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def median_steal(runs):
    """Median steal_pct of the runs, or None when no run recorded it."""
    values = [run["record"].get("steal_pct") for run in runs]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def values_by_metric(runs, workload, traced):
    """metric -> values; traced runs contribute their traced.* details."""
    found = {}
    for run in runs:
        record = run["record"]
        if record["workload"] != workload or record["trace"] != traced:
            continue
        if traced:
            for name, metric in record["details"].items():
                if name.startswith("traced."):
                    found.setdefault(name[len("traced."):], []).append(
                        metric["value"])
        else:
            for name, metric in run["result"]["metrics"].items():
                found.setdefault(name, []).append(metric["value"])
    return found


def compare(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    check_host_classes(base, new)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({run["record"]["workload"] for run in base + new})
    # A side that ran while the hypervisor gave CPU time to other guests
    # reads slower for reasons outside the program.
    steal = [median_steal(runs) for runs in (base, new)]
    print("median steal_pct: " + ", ".join(
        f"{side} {'n/a' if v is None else f'{v:.1f}%'}"
        for side, v in zip(("base", "new"), steal)))
    # `worse` is the change oriented by the metric's direction: positive
    # means the new side is worse.
    print(f"{'workload':<12} {'metric':<20} {'base':>12} {'new':>12} "
          f"{'worse':>8} {'bound':>6}  verdict")
    worse = False
    for workload in workloads:
        b = values_by_metric(base, workload, 0)
        n = values_by_metric(new, workload, 0)
        for name in sorted(set(b) & set(n)):
            m = metrics.get(name)
            if m is None:
                continue
            bmed, bspread = summary(b[name])
            nmed, nspread = summary(n[name])
            change = (nmed - bmed) / bmed if bmed else 0.0
            if m["better"] == "higher":
                change = -change
            if max(bspread, nspread) > m["bound"]:
                verdict = "unresolved (spread above bound)"
            elif change > m["bound"]:
                verdict = "WORSE"
                worse = True
            elif change < -max(bspread, nspread):
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<12} {name:<20} {bmed:>12.4g} {nmed:>12.4g} "
                  f"{100 * change:>+7.1f}% {m['bound']:>6}  {verdict}")
    return 1 if worse else 0


def overhead(directory):
    runs = load(directory)
    check_host_classes(runs)
    workloads = sorted({run["record"]["workload"] for run in runs})
    print(f"{'workload':<12} {'metric':<20} {'untraced':>12} {'traced':>12} "
          f"{'overhead':>9}")
    for workload in workloads:
        plain = values_by_metric(runs, workload, 0)
        traced = values_by_metric(runs, workload, 1)
        for name in sorted(set(plain) & set(traced)):
            p = statistics.median(plain[name])
            t = statistics.median(traced[name])
            share = (t - p) / p if p else 0.0
            print(f"{workload:<12} {name:<20} {p:>12.4g} {t:>12.4g} "
                  f"{100 * share:>+8.1f}%")
    return 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--overhead":
        return overhead(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
