import math
import tracemalloc

import numpy as np
import pytest

from secroute import NetModelError, Node, Scenario, Topology
from secroute.netmodel import (_ROWS, _squared_distances, load_edges_csv, load_nodes_csv,
                               mesh_weights)
from secroute.experiments import six_node_topology


def test_scenario_validation():
    Scenario(4, 1e-5, 0.1)
    with pytest.raises(NetModelError):
        Scenario(2.0, 1e-5, 0.1)
    with pytest.raises(NetModelError):
        Scenario(4, -1e-5, 0.1)
    for lam in (math.nan, math.inf):
        with pytest.raises(NetModelError):
            Scenario(4, lam, 0.1)
    for power in (math.nan, math.inf, -math.inf):
        with pytest.raises(NetModelError):
            Scenario(4, 1e-5, 0.1, power_db=power)
    with pytest.raises(NetModelError):
        Scenario(4, 1e-5, 0.0)
    with pytest.raises(NetModelError):
        Scenario(4, 1e-5, 1.0)
    with pytest.raises(NetModelError):
        Scenario(4, 1e-5, 0.1, sim_window=(0, 0, 0, 1))


def test_power_conversion():
    assert Scenario(4, 0, 0.1, power_db=80).power_linear == pytest.approx(1e8)


def test_three_four_five_link():
    topo = Topology([Node(0, 0, 0), Node(1, 3, 4)])
    assert topo.path((0, 1)).sum_sq_dist == 25.0
    assert topo.weight_matrix()[0, 1] == 25.0


def test_six_node_topology_full_mesh():
    topo = six_node_topology()
    assert topo.order == [1, 2, 3, 4, 5, 6]
    w = topo.weight_matrix()
    assert np.count_nonzero(np.isfinite(w)) == 2 * 15
    assert np.all(np.isinf(np.diag(w)))


def test_coordinates_held_in_id_order():
    topo = Topology([Node(7, 1, 2), Node(3, 5, 6), Node(5, 3, 4)])
    assert topo.order == [3, 5, 7]
    assert topo.xy.tolist() == [[5.0, 6.0], [3.0, 4.0], [1.0, 2.0]]
    assert not hasattr(topo, "nodes")
    with pytest.raises(ValueError):
        topo.xy[0, 0] = 0.0


def test_single_node_rejected():
    with pytest.raises(NetModelError):
        Topology([Node(0, 0, 0)])


@pytest.mark.parametrize("xy, ids", [([(0, 0, 0), (1, 1, 1)], None),
                                     ([(0, 0), (1, 1)], [0, 1, 2]),
                                     ([(0, 0), (1, 1)], [0])])
def test_from_xy_rejects_mismatched_shapes(xy, ids):
    with pytest.raises(NetModelError, match=r"expected 2 ids and an \(2, 2\) array"):
        Topology.from_xy(xy, ids)


def test_duplicate_ids_rejected():
    with pytest.raises(NetModelError, match="^duplicate node id 0$"):
        Topology([Node(0, 0, 0), Node(0, 1, 1)])
    # the message names the first id, in input order, that repeats an earlier one
    with pytest.raises(NetModelError, match="^duplicate node id 3$"):
        Topology.from_xy([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)], [1, 3, 5, 3, 1])


def test_nonfinite_coordinates_rejected():
    with pytest.raises(NetModelError):
        Topology([Node(0, 0, 0), Node(1, math.nan, 1)])


@pytest.mark.parametrize("edges", [None, [], [(0, 2)]])
def test_overflowing_squared_distance_rejected(edges):
    # every pair is checked, on an edge or not, so the straight distance
    # between any two nodes is finite
    nodes = [Node(0, 0, 0), Node(1, 0, 1e154), Node(2, 0, -1e154)]
    Topology(nodes[:2])  # a squared distance of 1e308 fits a float
    with pytest.raises(NetModelError, match="nodes 1 and 2 lie so far apart"):
        Topology(nodes, edges)


def test_overflowing_path_weight_rejected():
    # no squared distance overflows, but a path of N-1 = 2 hops of the
    # longest edge would, so a sweep's sum could read inf on a joined pair
    nodes = [Node(0, 0, 0), Node(1, 1e154, 0), Node(2, 0, 0.001)]
    with pytest.raises(NetModelError, match="nodes 0 and 1 lie so far apart that 2 times"):
        Topology(nodes, [(0, 1), (1, 2)])
    Topology(nodes, [(0, 2)])  # the far node joins no edge
    Topology(nodes)  # on a full mesh a sum that overflows never wins


def test_edge_validation():
    nodes = [Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 5)]
    with pytest.raises(NetModelError):
        Topology(nodes[:2], edges=[(0, 7)])  # unknown node
    with pytest.raises(NetModelError):
        Topology(nodes[:2], edges=[(0, 0)])  # self-loop
    with pytest.raises(NetModelError):
        Topology(nodes)  # 1 and 2 co-located in the full mesh
    with pytest.raises(NetModelError):
        Topology(nodes, edges=[(0, 1), (1, 2)])
    # co-located nodes without an edge between them are allowed
    topo = Topology(nodes, edges=[(0, 1), (0, 2)])
    assert topo.path((1, 0, 2)).sum_sq_dist == 50.0


def test_path_sums():
    topo = Topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)])
    assert topo.path((0, 2)).sum_sq_dist == 100.0
    assert topo.path((0, 1, 2)).sum_sq_dist == 50.0


def test_path_sum_six_node():
    # hand computation from the coordinate list: 54.289... + 25
    topo = six_node_topology()
    p = topo.path((1, 2, 3))
    assert p.sum_sq_dist == pytest.approx(79.28932188134525, rel=1e-14)
    w, i = topo.weight_matrix(), topo.index
    assert w[i[1], i[2]] + w[i[2], i[3]] == p.sum_sq_dist


def test_path_additive_over_split():
    topo = six_node_topology()
    whole = topo.path((1, 2, 3, 5))
    left = topo.path((1, 2, 3))
    right = topo.path((3, 5))
    assert whole.sum_sq_dist == pytest.approx(
        left.sum_sq_dist + right.sum_sq_dist, rel=1e-14)


def test_colinear_split_strictly_decreases_weight():
    # a^2 + b^2 < (a+b)^2: the geometric driver of the hop/rate tradeoff
    topo = Topology([Node(0, 0, 0), Node(1, 0, 3), Node(2, 0, 10)])
    assert topo.path((0, 1, 2)).sum_sq_dist < topo.path((0, 2)).sum_sq_dist


def test_weights_symmetric():
    topo = six_node_topology()
    w = topo.weight_matrix()
    assert np.array_equal(w, w.T)
    assert not w.flags.writeable
    for u in topo.order:
        for v in topo.order:
            if u != v:
                assert topo.path((u, v)).sum_sq_dist == topo.path((v, u)).sum_sq_dist


def squared_distances_reference(xy):
    """dx*dx + dy*dy over whole matrices, the rule every weight follows."""
    dx = xy[..., :, None, 0] - xy[..., None, :, 0]
    dy = xy[..., :, None, 1] - xy[..., None, :, 1]
    return dx * dx + dy * dy


@pytest.mark.parametrize("n, p_edge", [(3, None), (40, None), (602, None), (40, 0.2), (602, 0.05)])
def test_weight_matrix_exactly_symmetric(n, p_edge):
    # the routing sweep reads row i of the matrix in place of column i; 40
    # and 602 nodes span 3 and 38 blocks of _ROWS rows, the last one partial
    assert n % _ROWS
    rng = np.random.default_rng(n)
    xy = rng.uniform(-1e3, 1e3, (n, 2)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    nodes = [Node(i, x, y) for i, (x, y) in enumerate(xy.tolist())]
    edges = None
    if p_edge is not None:
        iu, ju = np.triu_indices(n, 1)
        pick = rng.random(len(iu)) < p_edge
        edges = list(zip(iu[pick].tolist(), ju[pick].tolist()))
    w = Topology(nodes, edges).weight_matrix()
    assert np.array_equal(w, w.T)
    edge = w < np.inf  # every off-diagonal entry of a full mesh
    assert np.array_equal(w[edge], squared_distances_reference(xy)[edge])
    if edges is None:  # table-one's stacked build gives the same matrix
        assert edge.sum() == n * (n - 1)
        assert np.array_equal(mesh_weights(xy[None])[0], w)
        stack = np.stack([xy, xy[::-1], rng.uniform(0.0, 50.0, (n, 2))])
        ws = mesh_weights(stack)
        assert np.array_equal(ws[:, edge], squared_distances_reference(stack)[:, edge])


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 102, 602])
def test_mirrored_squared_distances_match_reference(n):
    # every self-distance matrix, of one placement or of each in a stack,
    # is computed above the diagonal and mirrored; 15, 16, 17 and 33 put the
    # last block of _ROWS rows short, whole and one row long, and 102 is
    # table-one's largest placement
    rng = np.random.default_rng(700 + n)
    xy = rng.uniform(-1e3, 1e3, (n, 2)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    d = _squared_distances(xy)
    assert d.shape == (n, n)
    assert d.tobytes() == squared_distances_reference(xy).tobytes()
    for stack in (1, 3, 20) if n <= 102 else ():
        xys = rng.uniform(-1e3, 1e3, (stack, n, 2)) * 10.0 ** rng.integers(-3, 4, (stack, n, 1))
        d = _squared_distances(xys)
        assert d.shape == (stack, n, n)
        assert d.tobytes() == squared_distances_reference(xys).tobytes()


def test_extent_overflow_alone_builds():
    # the extent's squared diagonal, 2.88e308, overflows, but no pair's
    # squared distance does (the farthest pairs read 1.44e308)
    xy = [(0.6e154, 0.0), (-0.6e154, 0.0), (0.0, 0.6e154), (0.0, -0.6e154)]
    w = Topology.from_xy(xy).weight_matrix()
    assert np.isfinite(w[~np.eye(4, dtype=bool)]).all()
    assert w[0, 1] == 1.2e154 * 1.2e154


def same_topology(a, b):
    assert a.order == b.order
    assert a.index == b.index
    assert a.xy.tobytes() == b.xy.tobytes()
    assert a.weight_matrix().tobytes() == b.weight_matrix().tobytes()


@pytest.mark.parametrize("kind", ["default", "shuffled", "negative", "above-int64"])
@pytest.mark.parametrize("p_edge", [None, 0.1, 0.0, "repeated", "co-located"])
def test_from_xy_matches_node_constructor(kind, p_edge):
    # 0.0 is an empty edge list; "repeated" adds edges again, reversed and
    # as they were; "co-located" puts two nodes at one point, no edge between
    n = 40
    rng = np.random.default_rng([n, 1 if p_edge is None else 2, len(kind)])
    xy = rng.uniform(-1e3, 1e3, (n, 2)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    ids = list(range(n)) if kind == "default" else rng.permutation(n).tolist()
    if kind == "negative":
        ids = [k - 25 for k in ids]
    elif kind == "above-int64":
        ids = [2**63 + 3 * k for k in ids]
    edges = None
    if p_edge is not None:
        iu, ju = np.triu_indices(n, 1)
        pick = rng.random(len(iu)) < (0.1 if isinstance(p_edge, str) else p_edge)
        edges = [(ids[i], ids[j]) for i, j in zip(iu[pick].tolist(), ju[pick].tolist())]
    if p_edge == "repeated":
        edges += [(v, u) for u, v in edges[:5]] + edges[:3]
    elif p_edge == "co-located":
        xy[2] = xy[1]
        edges = [e for e in edges if set(e) != {ids[1], ids[2]}]
    nodes = [Node(k, x, y) for k, (x, y) in zip(ids, xy.tolist())]
    topo = Topology.from_xy(xy, None if kind == "default" else ids, edges)
    same_topology(topo, Topology(nodes, edges))
    assert topo.order == sorted(ids)
    if edges is not None:  # each edge's squared distance both ways, inf elsewhere
        want = np.full((n, n), np.inf)
        d2 = squared_distances_reference(topo.xy)
        for u, v in edges:
            i, j = topo.index[u], topo.index[v]
            want[i, j] = want[j, i] = d2[i, j]
        assert topo.weight_matrix().tobytes() == want.tobytes()
    held = topo.xy.tobytes()
    xy[:] = 0.0  # the topology holds its own copy
    assert topo.xy.tobytes() == held


@pytest.mark.parametrize("xy, edges, message", [
    ([(0, 0), (math.nan, 1)], None, "non-finite coordinates on node 0"),
    ([(0, 0), (0, 1e154), (0, -1e154)], None,
     "nodes 0 and 1 lie so far apart that their squared distance overflows a float"),
    ([(0, 0), (5, 0), (5, 0)], None, "nodes 0 and 1 are co-located"),
    ([(0, 0), (0, 5)], [(0, 0)], "self-loop on node 0"),
    ([(0, 0), (0, 5)], [(0, 7)], "edge (0,7) references unknown node"),
    ([(0, 0), (1e154, 0), (0, 0.001)], [(2, 1), (1, 0)],
     "nodes 0 and 1 lie so far apart that 2 times their squared distance "
     "overflows a float"),
    ([(0, 0), (0, 5), (0, 9)], None, "duplicate node id 0"),
    ([(5, 0), (5, 0), (0, 0)], [(0, 1), (1, 2)], "nodes 1 and 2 are co-located"),
    # no edge joins the overflowing pair, and the all-pairs scan names it
    ([(0, 0), (0, 1e154), (0, -1e154)], [(0, 2)],
     "nodes 0 and 1 lie so far apart that their squared distance overflows a float"),
], ids=["non-finite", "overflow", "co-located", "self-loop", "unknown-node",
        "edge-sum-overflow", "duplicate", "co-located-edge", "overflow-edge-list"])
def test_from_xy_rejects_as_node_constructor(xy, edges, message):
    # ids run backwards, so a message's ids are read through the sort
    ids = [len(xy) - 1 - k for k in range(len(xy))]
    if message.startswith("duplicate"):
        ids[1] = 0
    nodes = [Node(k, x, y) for k, (x, y) in zip(ids, xy)]
    with pytest.raises(NetModelError) as by_xy:
        Topology.from_xy(xy, ids, edges)
    with pytest.raises(NetModelError) as by_nodes:
        Topology(nodes, edges)
    assert str(by_xy.value) == str(by_nodes.value) == message


def test_mesh_weights_reject_colocated():
    xy = np.arange(16.0).reshape(2, 4, 2)
    xy[1, 3] = xy[1, 1]
    with pytest.raises(NetModelError, match="nodes 1 and 3 are co-located"):
        mesh_weights(xy)
    # a topology names the pair by node id
    with pytest.raises(NetModelError, match="nodes 11 and 13 are co-located"):
        Topology([Node(10 + i, x, y) for i, (x, y) in enumerate(xy[1].tolist())])


def test_rejected_pair_is_first_in_row_major_order():
    # several bad pairs: the message names the first, as a mask's argwhere would
    xy = [(0, 0), (5, 0), (0, 0), (5, 0), (9, 9)]
    with pytest.raises(NetModelError, match="nodes 0 and 2 are co-located"):
        Topology([Node(i, x, y) for i, (x, y) in enumerate(xy)])
    with pytest.raises(NetModelError, match="nodes 0 and 2 are co-located"):
        mesh_weights(np.array([[(0, 0), (5, 0), (1, 1), (2, 2), (3, 3)], xy], dtype=float))
    far = [(0, 1e154), (0, 0), (0, -1e154), (1e154, 0)]
    with pytest.raises(NetModelError, match="nodes 0 and 2 lie so far apart"):
        Topology([Node(i, x, y) for i, (x, y) in enumerate(far)])


def test_mesh_build_memory_bounded():
    # the pair checks read the matrix's extremes and make no (N, N) mask:
    # the build holds the weight matrix plus O(N * _ROWS) bytes
    n = 1500
    xy = np.random.default_rng(0).uniform(0.0, 50.0, (n, 2))
    nodes = [Node(i, x, y) for i, (x, y) in enumerate(xy.tolist())]
    tracemalloc.start()
    try:
        Topology(nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (N, N) bool mask alone would add N^2 bytes (2.25 MB) here
    assert peak <= 8 * n * (n + 5 * _ROWS)


def test_edge_list_build_memory_bounded():
    # an edge list weighs its edges alone, into one inf matrix: it holds no
    # full-mesh distance matrix and no (N, N) mask, so it stays within the
    # full mesh's bound; a second (N, N) float matrix would double the peak
    n = 1500
    xy = np.random.default_rng(1).uniform(0.0, 50.0, (n, 2))
    edges = [(i, i + 1) for i in range(n - 1)]
    tracemalloc.start()
    try:
        Topology.from_xy(xy, edges=edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (n + 5 * _ROWS)


def test_path_validation():
    topo = Topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)],
                    edges=[(0, 1), (1, 2)])
    with pytest.raises(NetModelError):
        topo.path((0, 2))  # edge not in topology
    with pytest.raises(NetModelError):
        topo.path((0,))
    with pytest.raises(NetModelError):
        topo.path((0, 1, 0))  # revisit
    with pytest.raises(NetModelError, match="node 9 not in topology"):
        topo.path((0, 9, 2))
    # with two bad hops, the first one is named
    with pytest.raises(NetModelError, match="no link between 0 and 2"):
        topo.path((1, 0, 2, 7))
    with pytest.raises(NetModelError, match="node 7 not in topology"):
        topo.path((7, 0, 2))
    assert topo.hop_weights((2, 1, 0)) == [25.0, 25.0]


def test_explicit_edge_list():
    topo = Topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)],
                    edges=[(0, 1)])
    w = topo.weight_matrix()
    assert w[0, 1] == w[1, 0] == 25.0
    assert np.isinf(w[1, 2]) and np.isinf(w[2, 1])
    assert topo.path((1, 0)).sum_sq_dist == 25.0
    with pytest.raises(NetModelError):
        topo.path((1, 2))


def test_csv_round_trip(tmp_path):
    # a comment, a header and an extra trailing column all load
    nodes_file = tmp_path / "nodes.csv"
    nodes_file.write_text("# example\nid,x,y\n0,0,0\n1,3,4,relay\n2,0,10\n")
    edges_file = tmp_path / "edges.csv"
    edges_file.write_text("# links\nfrom,to\n0,1\n\n1,2,x\n")
    ids, xy = load_nodes_csv(nodes_file)
    assert ids == [0, 1, 2]
    assert xy.tolist() == [[0.0, 0.0], [3.0, 4.0], [0.0, 10.0]]
    edges = load_edges_csv(edges_file)
    assert edges == [(0, 1), (1, 2)]
    topo = Topology.from_xy(xy, ids, edges)
    assert topo.path((0, 1)).sum_sq_dist == 25.0
    with pytest.raises(NetModelError):
        topo.path((0, 2))


@pytest.mark.parametrize("header", [False, True])
def test_csv_byte_order_mark(tmp_path, header):
    # Excel and Notepad start a UTF-8 file with a byte-order mark: it is no
    # part of the first row, so a first data row loads and a header is skipped
    nodes_file = tmp_path / "nodes.csv"
    nodes_file.write_text("\ufeff" + "id,x,y\n" * header + "2,18.87,0\n1,0,0\n3,37.74,0\n",
                          encoding="utf-8")
    ids, xy = load_nodes_csv(nodes_file)
    assert ids == [2, 1, 3]
    assert xy.tolist() == [[18.87, 0.0], [0.0, 0.0], [37.74, 0.0]]
    edges_file = tmp_path / "edges.csv"
    edges_file.write_text("\ufeff" + "from,to\n" * header + "1,2\n2,3\n", encoding="utf-8")
    assert load_edges_csv(edges_file) == [(1, 2), (2, 3)]


def test_one_column_edge_row_rejected(tmp_path):
    edges_file = tmp_path / "edges.csv"
    # a first row whose id is a number is data, not a header to skip; a
    # field that does not parse names its row
    for text, row in [("from,to\n0,1\n2\n", "['2']"),
                      ("0.0,1\n1,2\n", "['0.0', '1']"),
                      ("from,to\n0,x\n", "['0', 'x']")]:
        edges_file.write_text(text)
        with pytest.raises(NetModelError) as exc:
            load_edges_csv(edges_file)
        assert str(exc.value) == f"malformed edge row: {row}"


def test_malformed_node_csv_rejected(tmp_path):
    nodes_file = tmp_path / "two.csv"
    for text, row in [("id,x,y\n0,0,0\n1,3\n", "['1', '3']"),
                      ("1.0,0,0\n2,0,5\n", "['1.0', '0', '0']"),
                      ("nan,0,0\n2,0,5\n", "['nan', '0', '0']"),
                      ("id,x,y\n1,1e,0\n", "['1', '1e', '0']")]:
        nodes_file.write_text(text)
        with pytest.raises(NetModelError) as exc:
            load_nodes_csv(nodes_file)
        assert str(exc.value) == f"malformed node row: {row}"
    no_rows = tmp_path / "empty.csv"
    no_rows.write_text("# nothing here\nid,x,y\n\n")
    with pytest.raises(NetModelError, match="no node rows"):
        load_nodes_csv(no_rows)
