"""Check that the benchmark's deterministic counters repeat exactly.

    python3 perfbench/selftest.py [workload ...]

Runs each workload (all four by default) twice at one seed with tracing on
and the shortest run length, and compares the counters listed in
`spans.DETERMINISTIC` between the two runs. Both runs must also pass their
output checks. Exits 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import DETERMINISTIC

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SEED = 7


def traced_result(workload: str) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                          check=True, capture_output=True, text=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(names) -> int:
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    ok = True
    for workload in names or workloads:
        first, second = traced_result(workload), traced_result(workload)
        for result in (first, second):
            if not result["correct"]:
                print(f"{workload}: {result['failed']} of {result['attempted']} "
                      "operations failed their check")
                ok = False
        for name in DETERMINISTIC:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            same = a == b
            ok = ok and same
            print(f"{workload:<12} {name:<40} {a!r:>22} {'==' if same else '!='} {b!r}")
    print("counters repeat exactly" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
