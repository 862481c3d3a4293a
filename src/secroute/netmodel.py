"""Geometric network model: scenario parameters, nodes, topologies, paths.

Distances are plain Euclidean lengths in the same unit system as the
eavesdropper density (nodes per unit area). A topology keeps its geometry
as one matrix of squared hop distances, which is the quantity every
downstream formula consumes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


DEFAULT_WINDOW = (-1000.0, 1000.0, -1000.0, 1000.0)


class NetModelError(ValueError):
    """Invalid scenario, topology, or path input."""


@dataclass(frozen=True)
class Scenario:
    """Global physical parameters shared by analytics, simulation and routing.

    alpha     : path-loss exponent, must exceed 2
    lambda_e  : eavesdropper density (points per unit area)
    epsilon   : maximum tolerable end-to-end secrecy outage probability
    power_db  : per-hop transmit power in dB
    sim_window: (xmin, xmax, ymin, ymax) rectangle for PPP sampling; the
                simulation translates it to centre on each transmitter
    """

    alpha: float
    lambda_e: float
    epsilon: float
    power_db: float = 80.0
    sim_window: tuple[float, float, float, float] = DEFAULT_WINDOW

    def __post_init__(self):
        if not self.alpha > 2.0:
            raise NetModelError(f"path-loss exponent must exceed 2, got {self.alpha}")
        if not (math.isfinite(self.lambda_e) and self.lambda_e >= 0.0):
            raise NetModelError(
                f"eavesdropper density must be finite and >= 0, got {self.lambda_e}")
        if not math.isfinite(self.power_db):
            raise NetModelError(f"power_db must be finite, got {self.power_db}")
        if not 0.0 < self.epsilon < 1.0:
            raise NetModelError(f"epsilon must lie strictly in (0,1), got {self.epsilon}")
        xmin, xmax, ymin, ymax = self.sim_window
        if not (xmax > xmin and ymax > ymin):
            raise NetModelError(f"sim_window must have positive area, got {self.sim_window}")

    @property
    def power_linear(self) -> float:
        return 10.0 ** (self.power_db / 10.0)

    @property
    def window_area(self) -> float:
        xmin, xmax, ymin, ymax = self.sim_window
        return (xmax - xmin) * (ymax - ymin)


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Path:
    """Ordered multihop route, source first."""

    nodes: tuple[int, ...]
    sum_sq_dist: float

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1


class Topology:
    """Immutable set of legitimate nodes with symmetric squared-distance weights.

    `order` lists the node ids ascending and `index` maps an id to its
    position in `order`. The weight matrix, indexed by position, holds the
    squared length of every edge and inf everywhere else (the diagonal
    included), so it is also the adjacency.

    Safe for concurrent read access; all mutation happens in __init__.
    """

    def __init__(self, nodes: list[Node], edges=None):
        if len(nodes) < 2:
            raise NetModelError("a topology needs at least 2 nodes")
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise NetModelError("duplicate node ids")
        for n in nodes:
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise NetModelError(f"non-finite coordinates on node {n.id}")
        self.nodes = {n.id: n for n in nodes}
        self.order = sorted(self.nodes)
        self.index = {nid: i for i, nid in enumerate(self.order)}
        x = np.array([self.nodes[i].x for i in self.order], dtype=float)
        y = np.array([self.nodes[i].y for i in self.order], dtype=float)
        # hypot(...) ** 2, not dx*dx + dy*dy: the two differ in the last bits
        # and the CSV outputs are pinned to the former
        d2 = np.hypot(x[:, None] - x, y[:, None] - y) ** 2
        if edges is None:
            w = d2
            np.fill_diagonal(w, np.inf)
        else:
            w = np.full_like(d2, np.inf)
            for u, v in edges:
                if u not in self.nodes or v not in self.nodes:
                    raise NetModelError(f"edge ({u},{v}) references unknown node")
                if u == v:
                    raise NetModelError(f"self-loop on node {u}")
                i, j = self.index[u], self.index[v]
                w[i, j] = w[j, i] = d2[i, j]
        colocated = np.argwhere(w == 0.0)
        if len(colocated):
            i, j = colocated[0]
            raise NetModelError(f"nodes {self.order[i]} and {self.order[j]} are co-located")
        w.flags.writeable = False
        self._w = w

    def weight_matrix(self) -> np.ndarray:
        """Read-only squared-distance matrix indexed by self.order, inf off-edges."""
        return self._w

    def path(self, node_ids) -> Path:
        """Build a Path from an ordered node-id sequence, validating edges.

        The weight is summed hop by hop from 0.0, the order in which the
        routing sweep accumulates it, so the two agree exactly.
        """
        seq = tuple(node_ids)
        if len(seq) < 2:
            raise NetModelError("a path needs at least one hop")
        if len(set(seq)) != len(seq):
            raise NetModelError("path revisits a node")
        try:
            idx = [self.index[u] for u in seq]
        except KeyError as exc:
            raise NetModelError(f"node {exc.args[0]} not in topology") from None
        total = 0.0
        for k, w in enumerate(self._w[idx[:-1], idx[1:]].tolist()):
            if w == math.inf:
                raise NetModelError(f"no link between {seq[k]} and {seq[k + 1]}")
            total += w
        return Path(seq, total)


def build_topology(nodes: list[Node], edges=None) -> Topology:
    """Full mesh over the given nodes, or restricted to an explicit edge list."""
    return Topology(nodes, edges)


def load_nodes_csv(fname) -> list[Node]:
    """Read `id,x,y` rows; '#' comments and a non-numeric header are skipped."""
    nodes = []
    with open(fname, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                nid = int(row[0])
            except ValueError:
                continue  # header line
            if len(row) < 3:
                raise NetModelError(f"malformed node row: {row}")
            nodes.append(Node(nid, float(row[1]), float(row[2])))
    if not nodes:
        raise NetModelError(f"no node rows found in {fname}")
    return nodes


def load_edges_csv(fname) -> list[tuple[int, int]]:
    """Read optional `from,to` edge rows, same comment/header rules."""
    edges = []
    with open(fname, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                u = int(row[0])
            except ValueError:
                continue  # header line
            if len(row) < 2:
                raise NetModelError(f"malformed edge row: {row}")
            edges.append((u, int(row[1])))
    return edges
