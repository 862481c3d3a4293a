"""Geometric network model: scenario parameters, nodes, topologies, paths.

Distances are plain Euclidean lengths in the same unit system as the
eavesdropper density (nodes per unit area). A topology keeps its node
coordinates as one array, and its geometry as one matrix of squared hop
distances, which is the quantity every downstream formula consumes.

One rule, `_squared_distances`, gives every squared distance as
dx*dx + dy*dy, exactly symmetric since x_i - x_j is -(x_j - x_i) in
floating point and squaring drops the sign. `mesh_weights` alone finishes
a full mesh, and an edge list weighs its edges alone.
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

    alpha     : path-loss exponent, finite and above 2
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
        if not 2.0 < self.alpha < math.inf:
            raise NetModelError(f"alpha must be finite and exceed 2, got {self.alpha}")
        if not (math.isfinite(self.lambda_e) and self.lambda_e >= 0.0):
            raise NetModelError(
                f"eavesdropper density must be finite and >= 0, got {self.lambda_e}")
        # -0.0 passes the check above; adding 0.0 makes it +0.0, so no
        # closed form or CSV cell carries its sign
        object.__setattr__(self, "lambda_e", self.lambda_e + 0.0)
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
        """10^(power_db / 10); a power that overflows a float, or underflows
        to 0 (below about -3234 dB), is named."""
        try:
            power = 10.0 ** (self.power_db / 10.0)
        except OverflowError:
            raise OverflowError(f"power_db = {self.power_db:g} overflows a float "
                                f"as a linear power") from None
        if power == 0.0:
            raise NetModelError(f"power_db = {self.power_db:g} underflows a float "
                                f"as a linear power")
        return power

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

    Built from a list of Nodes, or by Topology.from_xy from an (N, 2) array
    of coordinates and their ids; the two give the same topology. `order`
    lists the node ids ascending, `index` maps an id to its position in
    `order`, and `xy` is the read-only (N, 2) array of their coordinates
    in that order. The weight matrix, indexed by position, holds the
    squared length of every edge and inf everywhere else (the diagonal
    included), so it is also the adjacency: mesh_weights' for a full mesh,
    and for an edge list one inf matrix filled from its edges' ends alone.

    A topology is rejected (NetModelError, naming the pair) when two nodes'
    squared distance overflows a float, when an edge joins co-located
    nodes, or when an edge list's largest weight times N-1 overflows: then
    every path weight, a sum of at most N-1 weights, is finite, and an inf
    entry of a routing sweep means unreachable. A full mesh needs no such
    check: a path whose weight overflows is longer than the direct edge,
    so it never wins (see routing.relax).

    Safe for concurrent read access; all mutation happens in construction.
    """

    def __init__(self, nodes: list[Node], edges=None):
        self._build(np.array([(n.x, n.y) for n in nodes], dtype=float).reshape(-1, 2),
                    [n.id for n in nodes], edges)

    @classmethod
    def from_xy(cls, xy, ids=None, edges=None) -> Topology:
        """The topology of the nodes at the rows of the (N, 2) array xy, with
        ids[k] the id of row k (k itself by default), as Topology(nodes,
        edges) builds it from Node(ids[k], *xy[k])."""
        topo = cls.__new__(cls)
        topo._build(np.array(xy, dtype=float), ids, edges)
        return topo

    def _build(self, xy: np.ndarray, ids, edges) -> None:
        """The constructor's body, on an (N, 2) array of its own."""
        n = len(xy)
        if n < 2:
            raise NetModelError("a topology needs at least 2 nodes")
        if xy.shape != (n, 2) or (ids is not None and len(ids) != n):
            raise NetModelError(f"expected {n} ids and an ({n}, 2) array of coordinates")
        if ids is None:
            self.order = list(range(n))
        else:  # sorted in Python, since an id may exceed int64
            self.order = sorted(ids)
            if self.order != list(ids):
                xy = xy[sorted(range(n), key=ids.__getitem__)]
        self.xy = xy
        self.index = {nid: i for i, nid in enumerate(self.order)}
        if len(self.index) != n:
            seen = set()
            for nid in ids:
                if nid in seen:
                    raise NetModelError(f"duplicate node id {nid}")
                seen.add(nid)
        self.xy.flags.writeable = False
        bad = ~np.isfinite(self.xy).all(axis=1)
        if bad.any():
            raise NetModelError(f"non-finite coordinates on node {self.order[bad.argmax()]}")
        with np.errstate(over="ignore"):
            dx, dy = np.ptp(self.xy, axis=0)
            # rounding is monotone, so no pair's dx*dx + dy*dy exceeds the
            # extent's: only an extent that overflows needs the pairs scanned
            if not math.isfinite(dx * dx + dy * dy):
                d2 = _squared_distances(self.xy)
                _reject_pair(d2, d2.argmax(), np.inf, self.order,
                             "lie so far apart that their squared distance overflows a float")
        if edges is None:
            w = mesh_weights(self.xy, self.order)
        else:
            ends = []
            for u, v in edges:
                if u not in self.index or v not in self.index:
                    raise NetModelError(f"edge ({u},{v}) references unknown node")
                if u == v:
                    raise NetModelError(f"self-loop on node {u}")
                ends.append((self.index[u], self.index[v]))
            i, j = np.array(ends, dtype=np.intp).reshape(-1, 2).T
            d = _squared_distances(self.xy[i, None], self.xy[j, None]).reshape(-1)
            w = np.full((n, n), np.inf)
            w[i, j] = w[j, i] = d
            _reject_pair(w, w.argmin(), 0.0, self.order, "are co-located")
            top = float(d.max(initial=0.0))
            if top * (n - 1) == math.inf:
                _reject_pair(w, (w == top).argmax(), top, self.order, f"lie so far apart "
                             f"that {n - 1} times their squared distance overflows a float")
        w.flags.writeable = False
        self._w = w

    def weight_matrix(self) -> np.ndarray:
        """Read-only squared-distance matrix indexed by self.order, inf off-edges."""
        return self._w

    def hop_weights(self, node_ids) -> list[float]:
        """Each hop's squared length, one lookup of the weight matrix per hop.
        The first bad hop in order raises NetModelError, naming a hop from a
        node to itself, then a node not in the topology, then a missing link."""
        index, weights = self.index, []
        for u, v in zip(node_ids, node_ids[1:]):
            if u == v:
                raise NetModelError("path revisits a node")
            for node in (u, v):
                if node not in index:
                    raise NetModelError(f"node {node} not in topology")
            w = self._w.item(index[u], index[v])
            if w == math.inf:
                raise NetModelError(f"no link between {u} and {v}")
            weights.append(w)
        return weights

    def path(self, node_ids) -> Path:
        """Build a Path from an ordered node-id sequence, its hops checked by hop_weights.

        The weight is summed hop by hop from 0.0, the order in which the
        routing sweep accumulates it, so the two agree exactly.
        """
        seq = tuple(node_ids)
        if len(seq) < 2:
            raise NetModelError("a path needs at least one hop")
        if len(set(seq)) != len(seq):
            raise NetModelError("path revisits a node")
        total = 0.0
        for w in self.hop_weights(seq):
            total += w
        return Path(seq, total)


_ROWS = 16  # rows per block, so each temporary holds O(N * _ROWS) cells


def _squared_distances(xy: np.ndarray, to: np.ndarray | None = None) -> np.ndarray:
    """(..., N, M) squared distances dx*dx + dy*dy from each of the N points
    of each (N, 2) placement in xy to each of the M points of its match in
    `to` (itself by default), _ROWS rows at a time. Exactly symmetric:
    x_j - x_i is -(x_i - x_j) in floating point, and squaring drops the
    sign. The routing sweeps rely on that (see routing.relax), and one
    point's row of distances to xy holds the bits of its row of xy's
    matrix. So every self-distance matrix, one placement's or a stack's,
    is computed from the diagonal rightward only, and each block's
    transpose is copied below the diagonal."""
    x, y = xy[..., 0], xy[..., 1]
    tx, ty = (x, y) if to is None else (to[..., 0], to[..., 1])
    n = xy.shape[-2]
    d = np.empty(xy.shape[:-1] + tx.shape[-1:])
    for i in range(0, n, _ROWS):
        j = i if to is None else 0
        dx = x[..., i:i + _ROWS, None] - tx[..., None, j:]
        dy = y[..., i:i + _ROWS, None] - ty[..., None, j:]
        dx *= dx
        dy *= dy
        np.add(dx, dy, out=d[..., i:i + _ROWS, j:])
        if to is None:
            d[..., i + _ROWS:, i:i + _ROWS] = d[..., i:i + _ROWS, i + _ROWS:].swapaxes(-1, -2)
    return d


def mesh_weights(xy: np.ndarray, labels=None) -> np.ndarray:
    """Full-mesh weight matrices of one placement or a stack of them:
    squared distances with inf on the diagonal. Raises NetModelError naming
    the first co-located pair by labels[i] for position i (i by default)."""
    w = _squared_distances(xy)
    n = xy.shape[-2]
    w.reshape(w.shape[:-2] + (n * n,))[..., ::n + 1] = np.inf  # the diagonal, as a view
    _reject_pair(w, w.argmin(), 0.0, range(n) if labels is None else labels, "are co-located")
    return w


def _reject_pair(w: np.ndarray, k, value: float, order, what: str) -> None:
    """Raise NetModelError naming, by its ids in `order`, the pair of nodes at
    flat index k of the (..., N, N) array w if w holds `value` there; k, an
    argmax or argmin, is the first such entry in C order, without a mask."""
    if w.flat[k] == value:
        *_, i, j = np.unravel_index(k, w.shape)
        raise NetModelError(f"nodes {order[i]} and {order[j]} {what}")


def _csv_rows(fname, kind: str, convert):
    """Yield convert(row) for each data row of a CSV file.

    Blank lines and '#' comments are skipped. The first other row is a
    header, and skipped, when convert fails on it (ValueError or IndexError)
    and its first field is not a number; any other row that convert fails
    on is a malformed `kind` row.
    """
    with open(fname, newline="", encoding="utf-8-sig") as fh:  # a byte-order mark is no id
        first = True
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            header_allowed, first = first, False
            try:
                item = convert(row)
            except (ValueError, IndexError):
                try:
                    float(row[0])  # a number is data, never a header
                except ValueError:
                    if header_allowed:
                        continue
                raise NetModelError(f"malformed {kind} row: {row}") from None
            yield item


def load_nodes_csv(fname) -> tuple[list[int], np.ndarray]:
    """Read `id,x,y` rows into (ids, xy): the ids in file order and the
    (N, 2) array of their coordinates, as Topology.from_xy takes them;
    '#' comments and a header (a first row whose id is not a number) are
    skipped."""
    rows = list(_csv_rows(fname, "node",
                          lambda row: (int(row[0]), float(row[1]), float(row[2]))))
    if not rows:
        raise NetModelError(f"no node rows found in {fname}")
    ids, x, y = zip(*rows)
    return list(ids), np.column_stack((x, y))


def load_edges_csv(fname) -> list[tuple[int, int]]:
    """Read optional `from,to` edge rows, same comment/header rules."""
    return list(_csv_rows(fname, "edge", lambda row: (int(row[0]), int(row[1]))))
