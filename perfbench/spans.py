"""Span tracing of secroute's layers, installed from the benchmark's side.

The tracer wraps public functions of the six modules (`cli`, `experiments`,
`netmodel`, `routing`, `analytics`, `montecarlo`) in place for the length
of one operation and restores them afterwards, so the traced operation runs
the same code path as the untraced one and no file of the package changes.
A wrapper records a span (name, start, end, parent, run id); some also
update counters computed from the call's arguments and result.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import statistics
import time
from collections import defaultdict

# Counters that depend only on the inputs, so they must repeat exactly
# across two runs at one seed (see selftest.py).
DETERMINISTIC = (
    "routing.budgets_explored",
    "routing.v_star_max",
    "routing.budget_useful_ratio",
    "routing.infeasible_frac",
    "montecarlo.hop_trials",
    "montecarlo.points_computed",
    "montecarlo.block_peak_mb_computed",
    "montecarlo.unique_draw_ratio",
    "montecarlo.rejection_survivor_ratio",
)

LAYERS = ("cli", "experiments", "netmodel", "routing", "analytics", "montecarlo")

# Point-sized float64/int64 arrays alive at once at the peak of
# `montecarlo._block_draws` (x, y, gains, r^2, its power, contributions,
# block index), used for the computed block memory.
_ARRAYS_PER_POINT = 7
_DEFAULT_BLOCK = 1 << 14
_MIB = float(1 << 20)


def lambda_key(lam: float) -> str:
    return f"lambda_{lam:g}"


class Tracer:
    """Spans and counters of traced operations, kept in memory."""

    def __init__(self):
        self.spans = []            # (name, start_ns, end_ns, parent, run_id)
        self.run_id = -1
        self.missing = []          # hook targets absent from the program
        self._stack = []
        self._op_first = 0
        self.counts = None
        self._hooks = self._hook_table()

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, on_exit):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if on_exit is not None:
                on_exit(args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_only(self, fn, on_exit):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_exit(args, kwargs, result, 0)
            return result

        counted.__wrapped__ = fn
        return counted

    @contextlib.contextmanager
    def operation(self):
        """Install the wrappers for one operation and restore them after it."""
        self.run_id += 1
        self._op_first = len(self.spans)
        self.counts = _OpCounts()
        saved = []
        try:
            for owner, attr, name, on_exit in self._hooks:
                fn = getattr(owner, attr)
                wrapper = (self._count_only(fn, on_exit) if name is None
                           else self._wrap(fn, name, on_exit))
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def op_summary(self) -> "OpSummary":
        return OpSummary(self.spans[self._op_first:], self._op_first, self.counts)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,run_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name},{start},{end},{parent},{run_id}\n")

    # -- what is traced --------------------------------------------------

    def _hook_table(self):
        from secroute import analytics, cli, experiments, montecarlo, netmodel, routing

        def on_solve(args, kwargs, sol, _dur):
            self.counts.on_solve(sol)

        def on_sweep(args, kwargs, table, _dur):
            best = getattr(table, "best", None)
            self.counts.last_sweep_budgets = (best.shape[0] - 1) if best is not None else 0

        def on_path_sop(args, kwargs, est, dur):
            b = _bind(montecarlo.estimate_path_sop, args, kwargs)
            path, scenario, trials = b["path"], b["scenario"], b["trials"]
            hops = len(path.nodes) - 1
            self.counts.on_mc(scenario, trials, hops, _block_size(montecarlo))
            self.counts.times_ns["montecarlo.estimate_path_sop_s."
                                 + lambda_key(scenario.lambda_e)] += dur

        def on_hop_sop(args, kwargs, est, dur):
            b = _bind(montecarlo.estimate_hop_sop, args, kwargs)
            scenario, trials, mode = b["scenario"], b["trials"], b["conditioning"]
            self.counts.on_mc(scenario, trials, 1, _block_size(montecarlo))
            self.counts.times_ns[f"montecarlo.estimate_hop_sop_s.{mode}"] += dur
            if mode == "rejection":
                self.counts.rejection_requested += trials
                self.counts.rejection_survived += est.trials

        def on_block_rng(args, kwargs, _rng, _dur):
            self.counts.draw_keys.append(tuple(args[:3]))

        hooks = [
            (cli, "main", "cli.main", None),
            (experiments, "parse_config", "experiments.parse_config", None),
            (experiments, "run_table_one", "experiments.run", None),
            (experiments, "run_route", "experiments.run", None),
            (experiments, "run_sop_curve", "experiments.run", None),
            (experiments, "run_validate", "experiments.run", None),
            (experiments, "random_placement", "experiments.random_placement", None),
            (experiments, "write_csv", "experiments.write_csv", None),
            (experiments, "build_topology", "netmodel.topology_build", None),
            (experiments, "load_nodes_csv", "netmodel.load_nodes_csv", None),
            (netmodel.Topology, "weight_matrix", "netmodel.weight_matrix", None),
            (routing, "solve_secure_route", "routing.solve", on_solve),
            (routing, "bellman_ford_hop_constrained", "routing.sweep", on_sweep),
            (routing, "path_metric", "analytics.path_metric", None),
            (routing, "optimal_rs", "analytics.optimal_rs", None),
            (analytics, "path_sop", "analytics.closed_form", None),
            (analytics, "hop_sop", "analytics.closed_form", None),
            (montecarlo, "estimate_path_sop", "montecarlo.estimate_path_sop", on_path_sop),
            (montecarlo, "estimate_hop_sop", "montecarlo.estimate_hop_sop", on_hop_sop),
            (montecarlo, "power_invariance_check", "montecarlo.power_invariance", None),
            (montecarlo, "block_rng", None, on_block_rng),
        ]
        present = []
        for hook in hooks:
            owner, attr, name, _ = hook
            if hasattr(owner, attr):
                present.append(hook)
            else:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return present


def _block_size(montecarlo) -> int:
    return getattr(montecarlo, "BLOCK", _DEFAULT_BLOCK)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class _OpCounts:
    """Counters of one traced operation, computed from call arguments and results."""

    def __init__(self):
        self.solves = 0
        self.infeasible = 0
        self.budgets_explored = 0
        self.budgets_used = 0
        self.v_star_max = 0
        self.last_sweep_budgets = 0
        self.hop_trials = 0
        self.points = 0.0
        self.block_peak_mb = 0.0
        self.rejection_requested = 0
        self.rejection_survived = 0
        self.draw_keys = []
        self.times_ns = defaultdict(int)

    def on_solve(self, sol):
        self.solves += 1
        if sol is None:
            self.infeasible += 1
            self.budgets_explored += self.last_sweep_budgets
            return
        self.budgets_explored += len(sol.per_v_candidates)
        self.budgets_used += sol.hop_budget_used
        self.v_star_max = max(self.v_star_max, sol.hop_budget_used)

    def on_mc(self, scenario, trials, hops, block):
        per_trial = scenario.lambda_e * scenario.window_area
        self.hop_trials += trials * hops
        self.points += per_trial * trials * hops
        block_points = per_trial * min(block, trials)
        self.block_peak_mb = max(self.block_peak_mb,
                                 block_points * 8 * _ARRAYS_PER_POINT / _MIB)

    def values(self) -> dict:
        blocks = len(self.draw_keys)
        return {
            "routing.budgets_explored": self.budgets_explored,
            "routing.v_star_max": self.v_star_max,
            "routing.budget_useful_ratio": _ratio(self.budgets_used, self.budgets_explored),
            "routing.infeasible_frac": _ratio(self.infeasible, self.solves),
            "montecarlo.hop_trials": self.hop_trials,
            "montecarlo.points_computed": round(self.points),
            "montecarlo.block_peak_mb_computed": self.block_peak_mb,
            "montecarlo.unique_draw_ratio": _ratio(len(set(self.draw_keys)), blocks),
            "montecarlo.rejection_survivor_ratio": _ratio(self.rejection_survived,
                                                          self.rejection_requested),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class OpSummary:
    """Per-call durations, per-layer self times and counters of one traced operation."""

    def __init__(self, spans, first_index, counts: _OpCounts):
        self.calls_ns = defaultdict(list)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.select_ns = []
        child_ns = defaultdict(int)
        sweep_ns = defaultdict(int)
        root_ns = 0
        for name, start, end, parent, _run in spans:
            dur = end - start
            self.calls_ns[name].append(dur)
            if parent >= first_index:
                child_ns[parent] += dur
                if name == "routing.sweep":
                    sweep_ns[parent] += dur
            else:
                root_ns += dur
        for i, (name, start, end, _parent, _run) in enumerate(spans, first_index):
            layer = name.split(".", 1)[0]
            self.self_ns[layer] += (end - start) - child_ns[i]
            if name == "routing.solve":
                self.select_ns.append(end - start - sweep_ns[i])
        self.root_ns = root_ns
        self.counts = counts.values()
        self.times_ns = dict(counts.times_ns)
        self.points = counts.points

    def total_ns(self, name) -> int:
        return sum(self.calls_ns.get(name, ()))


def _percentile(values, q) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def per_layer_metrics(ops: list, traced_walls: list, untraced_walls: list,
                      lambdas, missing: list) -> dict:
    """Per-layer metrics over the traced operations of one run.

    Per-call timings pool every call of every traced operation; per-operation
    totals are medians over the traced operations; counters come from the
    first traced operation, since every operation of a run does the same work.
    """
    def pooled(name):
        return [d for op in ops for d in op.calls_ns.get(name, ())]

    def op_median(fn):
        return statistics.median(fn(op) for op in ops)

    ms, us, s = 1e-6, 1e-3, 1e-9
    m = {
        "netmodel.topology_build_ms_p50": _percentile(pooled("netmodel.topology_build"), 50) * ms,
        "netmodel.topology_build_ms_p99": _percentile(pooled("netmodel.topology_build"), 99) * ms,
        "netmodel.weight_matrix_ms": _percentile(pooled("netmodel.weight_matrix"), 50) * ms,
        "netmodel.load_nodes_csv_ms": _percentile(pooled("netmodel.load_nodes_csv"), 50) * ms,
        "routing.sweep_ms_p50": _percentile(pooled("routing.sweep"), 50) * ms,
        "routing.sweep_ms_p99": _percentile(pooled("routing.sweep"), 99) * ms,
        "routing.select_ms": _percentile([d for op in ops for d in op.select_ns], 50) * ms,
        "analytics.path_metric_us": _percentile(pooled("analytics.path_metric"), 50) * us,
        "analytics.closed_form_us": _percentile(pooled("analytics.closed_form"), 50) * us,
        "montecarlo.estimate_path_sop_s":
            op_median(lambda op: op.total_ns("montecarlo.estimate_path_sop")) * s,
        "montecarlo.estimate_hop_sop_s":
            op_median(lambda op: op.total_ns("montecarlo.estimate_hop_sop")) * s,
        "montecarlo.ns_per_point": op_median(
            lambda op: _ratio(op.total_ns("montecarlo.estimate_path_sop")
                              + op.total_ns("montecarlo.estimate_hop_sop"), op.points)),
        "experiments.run_s": op_median(lambda op: op.total_ns("experiments.run")) * s,
        "experiments.random_placement_ms":
            _percentile(pooled("experiments.random_placement"), 50) * ms,
        "experiments.write_csv_ms": op_median(lambda op: op.total_ns("experiments.write_csv")) * ms,
        "cli.overhead_ms": op_median(lambda op: op.self_ns["cli"]) * ms,
    }
    for lam in lambdas:
        key = "montecarlo.estimate_path_sop_s." + lambda_key(lam)
        m[key] = op_median(lambda op: op.times_ns.get(key, 0)) * s
    for mode in ("memoryless", "rejection"):
        key = f"montecarlo.estimate_hop_sop_s.{mode}"
        m[key] = op_median(lambda op: op.times_ns.get(key, 0)) * s
    m.update(ops[0].counts)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = op_median(lambda op: op.self_ns[layer]) * s
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    m["trace.wall_s"] = traced
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    m["trace.self_sum_s"] = statistics.median(
        sum(op.self_ns.values()) for op in ops) * s
    m["trace.unattributed_s"] = statistics.median(
        wall - op.root_ns * s for wall, op in zip(traced_walls, ops))
    m["trace.hooks_missing"] = len(missing)
    return m
