"""secroute benchmark: run one workload through `secroute.cli.main`.

    python3 perfbench/run.py --workload table-one --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

Run from the repository root; the program is imported from `src/`. One
operation is one in-process `secroute.cli.main(argv)` call on inputs that
the benchmark generates from `--seed`, followed by a check of its output.
Operations repeat until `--seconds` have passed.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json,
its times normalised to the host's speed by reference kernels (see REF_S);
with `--trace 1` it alternates untraced and traced operations and reports
the per-layer metrics, writing the spans to `.perfbench_out/`. The lines
before the last describe the run (seed, inputs, environment, baseline) and
list every metric with its unit; the last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is imported, here and in the
# set-up probes, which inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 7      # set-up is timed this many times per run; the median is reported
MIN_OPS = 3           # timed operations per run, however long they take
MIN_TRACED_OPS = 2
MAX_MEASURE_S = 120   # stop starting operations after this, to exit within 180 s


# Host-speed normalisation. The shared host runs this benchmark's process
# at speeds that change every few seconds (a fixed loop takes anywhere from
# 1x to 1.8x its fastest time), which moves every wall time far more than a
# program change of the size the bounds guard. Each timed call is therefore
# bracketed by a fixed reference kernel, and a reported time is the call's
# wall time divided by the mean of the two adjacent kernel times, scaled by
# REF_S: the call's duration on a host on which the kernel takes REF_S. The
# kernels are the benchmark's own code, so a change of the program moves the
# reported time in full.
REF_S = 0.040         # about each kernel's time on the 2-vCPU Xeon host


@functools.lru_cache(maxsize=None)
def _mixed_data():
    """Inputs of the mixed kernel (about 10 MiB, more than L2 holds)."""
    import numpy as np
    rnd = random.Random(0)
    n = 1 << 15
    records = [(rnd.random(), i) for i in range(n)]
    table = {i: records[(i * 7919) % n] for i in range(n)}
    keys = [rnd.randrange(n) for _ in range(60_000)]
    return table, keys, np.random.default_rng(0).random(1 << 18)


def mixed_reference() -> float:
    """Wall time of a fixed mix of interpreter, dict and numpy work."""
    import numpy as np
    table, keys, array = _mixed_data()
    start = time.perf_counter()
    acc = 0.0
    for k in keys:
        acc += table[k][0]
    for k in range(50_000):
        acc += k * k
    for _ in range(4):
        acc += float(np.sort(array)[-1] + (array * array).sum())
    return time.perf_counter() - start


@functools.lru_cache(maxsize=None)
def _sweep_matrix():
    import numpy as np
    return np.random.default_rng(0).random((600, 600))


def sweep_reference() -> float:
    """Wall time of 24 steps of a min-plus sweep over a fixed 600x600 matrix,
    the shape of the hop-budget sweep that dominates `route-large`."""
    import numpy as np
    w = _sweep_matrix()
    start = time.perf_counter()
    best, hops = w[0].copy(), np.zeros(len(w), dtype=np.int64)
    for _ in range(24):
        cand = best[:, None] + w
        cw, cp = cand.min(axis=0), cand.argmin(axis=0)
        improve = cw < best
        best = np.where(improve, cw, best)
        hops = np.where(improve, hops[cp] + 1, hops)
    return time.perf_counter() - start


# The kernel that brackets each operation. route-large spends its time in
# one memory-bound numpy sweep, whose speed follows the host's differently
# from the interpreter-heavy work of the other workloads and of set-up.
OP_REFERENCE = {"route-large": sweep_reference}


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_program():
    """Put the checkout's `src/` first on the path and import the CLI from it."""
    src = ROOT / "src"
    if not (src / "secroute" / "__init__.py").is_file():
        raise SystemExit(f"error: no secroute package under {src}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    from secroute import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported secroute from {cli.__file__}, not {src}")
    return cli


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _baseline(workload: str):
    try:
        with open(BENCH_DIR / "baseline.json") as fh:
            base = json.load(fh)
    except OSError:
        return None
    return {"commit": base["env"]["commit"], "medians": base["medians"].get(workload)}


def _run_op(cli, job, traced=contextlib.nullcontext) -> tuple:
    """One operation: returns (wall seconds of the cli.main call, failure reason or None).

    `traced` wraps only the cli.main call, so the output check is never traced.
    """
    if job.out:  # so that a call which writes nothing cannot pass on a stale CSV
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.out)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with traced(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
    except (Exception, SystemExit):
        return time.perf_counter() - start, "raised:\n" + traceback.format_exc()
    wall = time.perf_counter() - start
    try:
        return wall, job.check(rc, out.getvalue())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return wall, f"unreadable output: {exc!r}"


def _setup_times(workload: str, seed: int) -> list:
    """Set-up time of fresh interpreters: from just before each is started to
    the moment it has imported the program and written the inputs, read on
    the system-wide monotonic clock that the probe prints. Each is
    normalised by the mixed reference kernel run just before and after it."""
    times = []
    ref_before = mixed_reference()
    for _ in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
        try:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", workload, "--seed", str(seed),
                                   "--setup-probe", probe_dir],
                                  check=True, timeout=60, capture_output=True, text=True)
            elapsed = float(proc.stdout.split()[-1]) - start
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        ref_after = mixed_reference()
        times.append(elapsed * 2.0 * REF_S / (ref_before + ref_after))
        ref_before = ref_after
    return times


class Run:
    """Operations of one run and their outcomes."""

    def __init__(self, cli, job):
        self.cli, self.job = cli, job
        self.attempted = 0
        self.failures = []

    def op(self, traced=contextlib.nullcontext) -> float:
        wall, reason = _run_op(self.cli, self.job, traced)
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)
            print(f"operation {self.attempted} failed: {reason}", file=sys.stderr)
        return wall


def measure(run: Run, seconds: float) -> tuple:
    """Timed operations: returns the end-to-end metrics except `setup_s`, and
    the raw (not normalised) median wall time and reference-kernel time."""
    reference = OP_REFERENCE.get(run.job.workload, mixed_reference)
    walls, refs, normalised = [], [], []
    start = time.perf_counter()
    ref_before = reference()
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        walls.append(run.op())
        ref_after = reference()
        refs.append(0.5 * (ref_before + ref_after))
        normalised.append(walls[-1] * REF_S / refs[-1])
        ref_before = ref_after
        if time.perf_counter() - start > MAX_MEASURE_S:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {"raw_wall_s": statistics.median(walls), "ref_kernel_s": statistics.median(refs)}
    return {
        "wall_s": statistics.median(normalised),
        "peak_rss_mb": rss_mib,
        "ok_frac": (run.attempted - len(run.failures)) / run.attempted,
    }, raw


def measure_traced(run: Run, seconds: float, seed: int) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer()
    ops, traced_walls, untraced_walls = [], [], []
    start = time.perf_counter()
    while len(ops) < MIN_TRACED_OPS or time.perf_counter() - start < seconds:
        untraced_walls.append(run.op())
        traced_walls.append(run.op(tracer.operation))
        ops.append(tracer.op_summary())
        if time.perf_counter() - start > MAX_MEASURE_S:
            break
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.dump(SPAN_DIR / f"spans_{run.job.workload}_seed{seed}.csv")
    return spans.per_layer_metrics(ops, traced_walls, untraced_walls,
                                   workloads.LAMBDAS, tracer.missing)


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")


def _list_metrics(spec: dict) -> None:
    print(f"workloads ({spec['run_seconds']} s per run):")
    for w in spec["workloads"]:
        print(f"  {w['name']:<14} {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<48} {m['unit']:<6} {m['better']} is better, "
              f"regression bound {m['bound']:.0%}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<48} {m['unit']:<6} {m['better']} is better")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _load_spec()
    # One CPU for the whole run, so that the reference kernels, the timed
    # calls and the set-up probes (which inherit it) meet the same host
    # contention; it halved the spread of set-up times.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.list:
        _list_metrics(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    cli = _import_program()
    import workloads

    if args.setup_probe:
        workloads.make_job(args.workload, args.seed, args.setup_probe)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        job = workloads.make_job(args.workload, args.seed, workdir)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "trace": args.trace, "seconds": seconds,
                          "inputs": job.describe(), "env": environment(),
                          "baseline": _baseline(args.workload)}))
        run = Run(cli, job)
        if args.trace:
            values = measure_traced(run, seconds, args.seed)
        else:
            values = {"setup_s": statistics.median(_setup_times(args.workload, args.seed))}
            timed, raw = measure(run, seconds)
            values.update(timed)
            print(json.dumps({"not_normalised": raw, "ref_s": REF_S}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    if set(values) != set(units):
        raise SystemExit(f"error: measured metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    _print_table(f"{args.workload} seed={args.seed} trace={args.trace}: "
                 f"{run.attempted} operations, {len(run.failures)} failed", metrics)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
