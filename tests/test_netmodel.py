import math

import numpy as np
import pytest

from secroute import NetModelError, Node, Scenario, build_topology
from secroute.netmodel import load_edges_csv, load_nodes_csv, mesh_weights
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
    topo = build_topology([Node(0, 0, 0), Node(1, 3, 4)])
    assert topo.path((0, 1)).sum_sq_dist == 25.0
    assert topo.weight_matrix()[0, 1] == 25.0


def test_six_node_topology_full_mesh():
    topo = six_node_topology()
    assert topo.order == [1, 2, 3, 4, 5, 6]
    w = topo.weight_matrix()
    assert np.count_nonzero(np.isfinite(w)) == 2 * 15
    assert np.all(np.isinf(np.diag(w)))


def test_coordinates_held_in_id_order():
    topo = build_topology([Node(7, 1, 2), Node(3, 5, 6), Node(5, 3, 4)])
    assert topo.order == [3, 5, 7]
    assert topo.xy.tolist() == [[5.0, 6.0], [3.0, 4.0], [1.0, 2.0]]
    assert not hasattr(topo, "nodes")
    with pytest.raises(ValueError):
        topo.xy[0, 0] = 0.0


def test_single_node_rejected():
    with pytest.raises(NetModelError):
        build_topology([Node(0, 0, 0)])


def test_duplicate_ids_rejected():
    with pytest.raises(NetModelError):
        build_topology([Node(0, 0, 0), Node(0, 1, 1)])


def test_nonfinite_coordinates_rejected():
    with pytest.raises(NetModelError):
        build_topology([Node(0, 0, 0), Node(1, math.nan, 1)])


@pytest.mark.parametrize("edges", [None, [], [(0, 2)]])
def test_overflowing_squared_distance_rejected(edges):
    # every pair is checked, on an edge or not, so the straight distance
    # between any two nodes is finite
    nodes = [Node(0, 0, 0), Node(1, 0, 1e154), Node(2, 0, -1e154)]
    build_topology(nodes[:2])  # a squared distance of 1e308 fits a float
    with pytest.raises(NetModelError, match="nodes 1 and 2 lie so far apart"):
        build_topology(nodes, edges)


def test_edge_validation():
    nodes = [Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 5)]
    with pytest.raises(NetModelError):
        build_topology(nodes[:2], edges=[(0, 7)])  # unknown node
    with pytest.raises(NetModelError):
        build_topology(nodes[:2], edges=[(0, 0)])  # self-loop
    with pytest.raises(NetModelError):
        build_topology(nodes)  # 1 and 2 co-located in the full mesh
    with pytest.raises(NetModelError):
        build_topology(nodes, edges=[(0, 1), (1, 2)])
    # co-located nodes without an edge between them are allowed
    topo = build_topology(nodes, edges=[(0, 1), (0, 2)])
    assert topo.path((1, 0, 2)).sum_sq_dist == 50.0


def test_path_sums():
    topo = build_topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)])
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
    topo = build_topology([Node(0, 0, 0), Node(1, 0, 3), Node(2, 0, 10)])
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


@pytest.mark.parametrize("n, p_edge", [(3, None), (40, None), (602, None), (40, 0.2), (602, 0.05)])
def test_weight_matrix_exactly_symmetric(n, p_edge):
    # the routing sweep reads row i of the matrix in place of column i
    rng = np.random.default_rng(n)
    xy = rng.uniform(-1e3, 1e3, (n, 2)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    nodes = [Node(i, x, y) for i, (x, y) in enumerate(xy.tolist())]
    edges = None
    if p_edge is not None:
        iu, ju = np.triu_indices(n, 1)
        pick = rng.random(len(iu)) < p_edge
        edges = list(zip(iu[pick].tolist(), ju[pick].tolist()))
    w = build_topology(nodes, edges).weight_matrix()
    assert np.array_equal(w, w.T)
    if edges is None:  # table-one's stacked build gives the same matrix
        assert np.array_equal(mesh_weights(xy[None])[0], w)


def test_mesh_weights_reject_colocated():
    xy = np.arange(16.0).reshape(2, 4, 2)
    xy[1, 3] = xy[1, 1]
    with pytest.raises(NetModelError, match="nodes 1 and 3 are co-located"):
        mesh_weights(xy)
    # a topology names the pair by node id
    with pytest.raises(NetModelError, match="nodes 11 and 13 are co-located"):
        build_topology([Node(10 + i, x, y) for i, (x, y) in enumerate(xy[1].tolist())])


def test_path_validation():
    topo = build_topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)],
                          edges=[(0, 1), (1, 2)])
    with pytest.raises(NetModelError):
        topo.path((0, 2))  # edge not in topology
    with pytest.raises(NetModelError):
        topo.path((0,))
    with pytest.raises(NetModelError):
        topo.path((0, 1, 0))  # revisit


def test_explicit_edge_list():
    topo = build_topology([Node(0, 0, 0), Node(1, 0, 5), Node(2, 0, 10)],
                          edges=[(0, 1)])
    w = topo.weight_matrix()
    assert w[0, 1] == w[1, 0] == 25.0
    assert np.isinf(w[1, 2]) and np.isinf(w[2, 1])
    assert topo.path((1, 0)).sum_sq_dist == 25.0
    with pytest.raises(NetModelError):
        topo.path((1, 2))


def test_csv_round_trip(tmp_path):
    nodes_file = tmp_path / "nodes.csv"
    nodes_file.write_text("# example\nid,x,y\n0,0,0\n1,3,4\n2,0,10\n")
    edges_file = tmp_path / "edges.csv"
    edges_file.write_text("# links\nfrom,to\n0,1\n\n1,2\n")
    nodes = load_nodes_csv(nodes_file)
    assert [n.id for n in nodes] == [0, 1, 2]
    edges = load_edges_csv(edges_file)
    assert edges == [(0, 1), (1, 2)]
    topo = build_topology(nodes, edges)
    assert topo.path((0, 1)).sum_sq_dist == 25.0
    with pytest.raises(NetModelError):
        topo.path((0, 2))


def test_one_column_edge_row_rejected(tmp_path):
    edges_file = tmp_path / "edges.csv"
    edges_file.write_text("from,to\n0,1\n2\n")
    with pytest.raises(NetModelError):
        load_edges_csv(edges_file)


def test_malformed_node_csv_rejected(tmp_path):
    two_fields = tmp_path / "two.csv"
    two_fields.write_text("id,x,y\n0,0,0\n1,3\n")
    with pytest.raises(NetModelError, match="malformed node row"):
        load_nodes_csv(two_fields)
    no_rows = tmp_path / "empty.csv"
    no_rows.write_text("# nothing here\nid,x,y\n\n")
    with pytest.raises(NetModelError, match="no node rows"):
        load_nodes_csv(no_rows)
