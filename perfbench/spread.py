"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads table-one sop-curve]
                                [--write-baseline]

For every workload and end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged, and each
median is divided by the one in baseline.json. Runs are sequential, one
process at a time. `--write-baseline` records the medians,
quartiles and environment in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    raw = next((json.loads(line)["not_normalised"] for line in lines
                if line.startswith('{"not_normalised"')), {})
    return json.loads(lines[0]), json.loads(lines[-1]), raw


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    try:
        with open(BENCH_DIR / "baseline.json") as fh:
            baseline_medians = json.load(fh)["medians"]
    except OSError:
        baseline_medians = {}
    summary, env = {}, None
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            header, result, raw = run_once(workload, seed, args.seconds, 0)
            env = header["env"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload:<12} seed {seed:<4} {result['attempted']:>3} operations  "
                  + "  ".join(f"{name} {values[name][-1]:.6g}" for name in bounds)
                  + "".join(f"  {name} {val:.6g}" for name, val in raw.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            s = summarize(vals)
            summary[workload][name] = s
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            base = baseline_medians.get(workload, {}).get(name)
            vs_base = f"  median/baseline {s['median'] / base['median']:.3f}" if base else ""
            print(f"{workload:<12} {name:<12} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:7.2%} (bound {bounds[name]:.0%}){flag}{vs_base}",
                  flush=True)

    if args.write_baseline:
        baseline = {"env": env, "run_seconds": args.seconds,
                    "seeds": args.seeds, "medians": summary}
        with open(BENCH_DIR / "baseline.json", "w") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
