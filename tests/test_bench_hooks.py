"""What the benchmark's tracer (`perfbench/spans.py`) binds in the package.

The tracer wraps functions by name and reads some of their arguments by
name, so renaming one of them silently zeroes a per-layer metric. These
tests pin the names it relies on.
"""

import inspect
from pathlib import Path

from secroute import experiments, montecarlo, netmodel, routing

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_traced_signatures():
    assert params(montecarlo.estimate_path_sop) == [
        "rs", "path", "topology", "scenario", "trials", "seed"]
    assert params(montecarlo.estimate_hop_sop) == [
        "rs", "dist", "scenario", "trials", "seed", "conditioning"]
    assert inspect.signature(montecarlo.estimate_hop_sop).parameters[
        "conditioning"].default == "memoryless"
    assert params(montecarlo.power_invariance_check) == [
        "rs", "dist", "scenario", "powers_db", "trials", "seed"]
    assert params(montecarlo.block_rng) == ["seed", "stream", "block"]
    assert params(routing.bellman_ford_hop_constrained)[:3] == ["topology", "source", "dest"]
    assert params(routing.solve_secure_route) == ["topology", "source", "dest", "scenario"]


def test_traced_attributes():
    assert isinstance(netmodel.Scenario.window_area, property)
    assert experiments.build_topology is netmodel.build_topology
    # budgets explored and v* are read off the solution
    assert {"per_v_candidates", "hop_budget_used"} <= set(
        routing.RoutingSolution.__dataclass_fields__)


def test_tracer_finds_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    assert spans.Tracer().missing == []
