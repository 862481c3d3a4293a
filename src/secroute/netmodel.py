"""Geometric network model: scenario parameters, nodes, topologies, paths.

Distances are plain Euclidean lengths in the same unit system as the
eavesdropper density (nodes per unit area). A topology keeps its node
coordinates as one array, and its geometry as one matrix of squared hop
distances, which is the quantity every downstream formula consumes.
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
    sim_window: (xmin, xmax, ymin, ymax) rectangle whose inscribed disk
                caps the radius of each hop's simulated eavesdropper disk,
                which is centred on the hop's transmitter
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
        if not math.isfinite(self.window_area):
            raise NetModelError(f"sim_window must have finite area, got {self.sim_window}")

    @property
    def power_linear(self) -> float:
        try:
            return 10.0 ** (self.power_db / 10.0)
        except OverflowError:
            raise OverflowError(f"power_db = {self.power_db:g} overflows a float "
                                f"as a linear power") from None

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

    `order` lists the node ids ascending, `index` maps an id to its
    position in `order`, and `xy` is the read-only (N, 2) array of their
    coordinates in that order. The weight matrix, indexed by position,
    holds the squared length of every edge and inf everywhere else (the
    diagonal included), so it is also the adjacency.

    Safe for concurrent read access; all mutation happens in __init__.
    """

    def __init__(self, nodes: list[Node], edges=None):
        if len(nodes) < 2:
            raise NetModelError("a topology needs at least 2 nodes")
        nodes = sorted(nodes, key=lambda n: n.id)
        self.order = [n.id for n in nodes]
        self.index = {nid: i for i, nid in enumerate(self.order)}
        if len(self.index) != len(nodes):
            raise NetModelError("duplicate node ids")
        self.xy = np.array([(n.x, n.y) for n in nodes], dtype=float)
        self.xy.flags.writeable = False
        bad = ~np.isfinite(self.xy).all(axis=1)
        if bad.any():
            raise NetModelError(f"non-finite coordinates on node {self.order[bad.argmax()]}")
        with np.errstate(over="ignore"):
            d2 = _squared_distances(self.xy)
        _reject_pair(d2 == np.inf, self.order,
                     "lie so far apart that their squared distance overflows a float")
        if edges is None:
            w = d2
            np.fill_diagonal(w, np.inf)
        else:
            w = np.full_like(d2, np.inf)
            for u, v in edges:
                if u not in self.index or v not in self.index:
                    raise NetModelError(f"edge ({u},{v}) references unknown node")
                if u == v:
                    raise NetModelError(f"self-loop on node {u}")
                i, j = self.index[u], self.index[v]
                w[i, j] = w[j, i] = d2[i, j]
        _reject_pair(w == 0.0, self.order, "are co-located")
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


# full mesh over the given nodes, or restricted to an explicit edge list
build_topology = Topology


_TRI_ROWS = 16  # rows of the upper triangle per hypot call


def _squared_distances(xy: np.ndarray) -> np.ndarray:
    """(..., N, N) squared distances between the N points of each (N, 2)
    placement in xy.

    hypot(...) ** 2, not dx*dx + dy*dy: the two differ in the last bits and
    the CSV outputs are pinned to the former. The result is exactly
    symmetric: x_j - x_i is -(x_i - x_j) in floating point, and hypot
    ignores signs. So hypot runs on the upper triangle only, _TRI_ROWS
    rows at a time, and each block is mirrored into the lower triangle.
    """
    x, y = xy[..., 0], xy[..., 1]
    n = xy.shape[-2]
    d = np.empty(xy.shape[:-1] + (n,))
    for i in range(0, n, _TRI_ROWS):
        j = min(i + _TRI_ROWS, n)
        blk = d[..., i:j, i:]
        np.subtract(x[..., i:j, None], x[..., None, i:], out=blk)
        np.hypot(blk, y[..., i:j, None] - y[..., None, i:], out=blk)
        blk **= 2
        d[..., j:, i:j] = np.swapaxes(blk[..., j - i:], -1, -2)
    return d


def mesh_weights(xy: np.ndarray) -> np.ndarray:
    """Full-mesh weight matrices of one placement or a stack of them:
    squared distances with inf on the diagonal.

    Raises NetModelError naming the first co-located pair by positions.
    """
    w = _squared_distances(xy)
    n = xy.shape[-2]
    w[..., range(n), range(n)] = np.inf
    _reject_pair(w == 0.0, range(n), "are co-located")
    return w


def _reject_pair(bad: np.ndarray, order, what: str) -> None:
    """Raise NetModelError naming, by its ids in `order`, the first pair of
    nodes flagged in `bad`."""
    if bad.any():
        *_, i, j = np.argwhere(bad)[0]
        raise NetModelError(f"nodes {order[i]} and {order[j]} {what}")


def _csv_rows(fname, ncols: int, kind: str):
    """Yield the data rows of a CSV file.

    Blank lines and '#' comments are skipped, and so is the first other row
    when its first field is not an integer (a header). Any later row whose
    first field is not an integer, or a data row with fewer than `ncols`
    fields, is a malformed `kind` row.
    """
    with open(fname, newline="") as fh:
        first = True
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            header_allowed, first = first, False
            try:
                int(row[0])
            except ValueError:
                if header_allowed:
                    continue
                raise NetModelError(f"malformed {kind} row: {row}") from None
            if len(row) < ncols:
                raise NetModelError(f"malformed {kind} row: {row}")
            yield row


def load_nodes_csv(fname) -> list[Node]:
    """Read `id,x,y` rows; '#' comments and a non-numeric header are skipped."""
    nodes = [Node(int(row[0]), float(row[1]), float(row[2]))
             for row in _csv_rows(fname, 3, "node")]
    if not nodes:
        raise NetModelError(f"no node rows found in {fname}")
    return nodes


def load_edges_csv(fname) -> list[tuple[int, int]]:
    """Read optional `from,to` edge rows, same comment/header rules."""
    return [(int(row[0]), int(row[1])) for row in _csv_rows(fname, 2, "edge")]
