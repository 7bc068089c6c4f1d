"""Run every workload in fresh interpreters and print all metrics.

    python3 perfbench/report.py [--runs N] [--first-seed K] [--out FILE] [workload ...]

For each workload it makes N untraced runs with seeds K .. K+N-1 (one
at a time, never two beside each other) and one traced run with seed K.
It prints, with units:

* each end-to-end metric of BENCHMARK.json as median and quartiles, with
  the spread (interquartile distance over the median) next to the bound;
* ``ops_failed`` and ``err_over_tol``, which every run reports beside its
  metrics;
* the raw ``wall_s``, the process CPU time of a pass ``cpu_s``, the raw
  set-up time and the speed probe's time, with their spreads, which show
  what the speed normalization removes;
* every per-layer metric of the traced run, each layer's share of the
  traced pass, and the tracing overhead: traced ``norm_wall_s`` minus
  the untraced median.

``--out`` writes everything, with the machine (cores, CPU model, Python
and numpy versions), as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYERS

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(workload, seed, trace):
    cmd = CONFIG["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {**summary, **result}


def describe(values, unit):
    """Median, quartiles, spread (interquartile distance over the median)
    and maximum of one metric's values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / med if med else 0.0
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "max": max(values), "values": values}


def summarize(runs):
    out = {}
    for metric in CONFIG["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {**describe(values, metric["unit"]), "bound": metric["bound"]}
    for name in ("wall_s", "cpu_s", "raw_setup_s", "probe_s", "ops_failed", "err_over_tol"):
        out[name] = describe([r[name]["value"] for r in runs], runs[0][name]["unit"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in CONFIG["workloads"]])
    args = ap.parse_args(argv)

    info = machine()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    report = {"machine": info, "runs": args.runs, "first_seed": args.first_seed,
              "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads:
        runs = [run_once(workload, seed, 0) for seed in seeds]
        summary = summarize(runs)
        entry = report["workloads"][workload] = {"end_to_end": summary}
        print(f"\n== {workload}: {args.runs} run(s), seeds {seeds.start}..{seeds.stop - 1}")
        for name, s in summary.items():
            line = (f"  {name:<14} {s['median']:12.5g} {s['unit']:<6} "
                    f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                    f"max {s['max']:.5g}")
            if "bound" in s:
                line += f" bound {s['bound']}"
                if s["spread"] > s["bound"] / 3:
                    line += "  (spread above a third of the bound)"
            print(line)
        traced = run_once(workload, args.first_seed, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = layers["trace.norm_wall_s"] - summary["norm_wall_s"]["median"]
        entry["per_layer"] = traced["metrics"]
        entry["trace_overhead_s"] = overhead
        print(f"  tracing overhead {overhead:.3f} s "
              f"({overhead / summary['norm_wall_s']['median']:+.1%} of untraced norm_wall_s)")
        wall = layers["trace.wall_s"]
        shares = {layer: layers[f"{layer}.self_s"] / wall for layer in LAYERS}
        shares["benchmark"] = 1.0 - sum(shares.values())
        entry["layer_share"] = shares
        print("  share of traced pass: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
        for name, m in traced["metrics"].items():
            print(f"    {name:<34} {m['value']:14.6g} {m['unit']}")

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
