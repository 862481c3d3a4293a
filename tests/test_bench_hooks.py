"""What the benchmark's tracer (`perfbench/spans.py`) binds in the package.

The tracer wraps functions by name and reads some of their arguments by
name, so renaming one of them silently zeroes a per-layer metric. These
tests pin the names it relies on.

Its hook table still names six targets that the package no longer has,
listed in RETIRED: each hook fired on no workload, and the tracer skips an
absent target and counts it in `trace.hooks_missing`. The benchmark change
that prunes its hook table empties RETIRED.
"""

import inspect
from pathlib import Path

from secroute import montecarlo, netmodel, routing

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RETIRED = [
    "secroute.experiments.random_placement",
    "secroute.experiments.build_topology",
    "secroute.routing.path_metric",
    "secroute.montecarlo.estimate_path_sop",
    "secroute.montecarlo.estimate_hop_sop",
    "secroute.montecarlo.power_invariance_check",
]


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_traced_signatures():
    assert params(montecarlo.block_rng) == ["seed", "stream", "block"]
    assert params(routing.bellman_ford_hop_constrained)[:3] == ["topology", "source", "dest"]
    assert params(routing.solve_secure_route) == ["topology", "source", "dest", "scenario"]


def test_traced_attributes():
    assert isinstance(netmodel.Scenario.window_area, property)
    # budgets explored and v* are read off the solution
    assert {"per_v_candidates", "hop_budget_used"} <= set(
        routing.RoutingSolution.__dataclass_fields__)


def test_tracer_finds_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    assert spans.Tracer().missing == RETIRED
