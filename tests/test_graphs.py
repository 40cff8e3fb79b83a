import json

import numpy as np
import pytest

from depcon.errors import (
    DimensionMismatchError,
    InvalidGraphError,
    InvalidVertexError,
    NotSquareError,
)
from depcon.graphs import (
    BidirectedRepresentative,
    MixedGraph,
    SignMatrix,
    graph_distance,
    graph_from_json,
    hamming_product,
    representative,
    sign_map,
    sign_of_statistic,
)
from reference import all_representatives, graph_to_json, random_representative


def collider_free_path_exists(graph, source, target):
    """Independent oracle: enumerate all simple paths, check interior vertices."""

    def arrow_into(v, other):
        etype = graph.edge_type(other, v)
        return etype in ("->", "<->")

    def extend(path):
        last = path[-1]
        for nxt in range(graph.m):
            if nxt in path or graph.edge_type(last, nxt) is None:
                continue
            if len(path) >= 2:
                prev = path[-2]
                if arrow_into(last, prev) and arrow_into(last, nxt):
                    continue  # last would be a collider
            if nxt == target:
                if len(path) >= 2:
                    yield True
                    continue
                yield True
                continue
            yield from extend(path + [nxt])

    if graph.edge_type(source, target) is not None:
        return True
    return any(extend([source]))


# ---------------------------------------------------------------- edges & validity


def test_edge_mirroring():
    g = MixedGraph(3, {(0, 1): "->", (2, 1): "<->"})
    assert g.edge_type(0, 1) == "->"
    assert g.edge_type(1, 0) == "<-"
    assert g.edge_type(1, 2) == "<->"
    assert g.edge_type(0, 2) is None


def test_self_edge_rejected():
    with pytest.raises(InvalidGraphError):
        MixedGraph(2, {(1, 1): "->"})


def test_directed_cycle_rejected():
    with pytest.raises(InvalidGraphError):
        MixedGraph(3, {(0, 1): "->", (1, 2): "->", (2, 0): "->"})


def test_almost_directed_cycle_rejected():
    with pytest.raises(InvalidGraphError):
        MixedGraph(3, {(0, 1): "->", (1, 2): "->", (0, 2): "<->"})


def test_undirected_endpoint_with_arrowhead_rejected():
    with pytest.raises(InvalidGraphError):
        MixedGraph(3, {(0, 1): "--", (2, 1): "->"})


def test_more_than_1000_vertices_rejected():
    # the ancestral check is O(m^3); the cap holds for library callers too
    with pytest.raises(InvalidGraphError, match="1001 vertices, more than the 1000"):
        MixedGraph(1001, {})
    with pytest.raises(InvalidGraphError, match="1001 vertices, more than the 1000"):
        graph_from_json({"vertices": 1001, "edges": []})


def test_invalid_vertex():
    with pytest.raises(InvalidVertexError):
        MixedGraph(2, {(0, 5): "->"})


@pytest.mark.parametrize(
    "edges, message",
    [
        ({(0, 1): "=>"}, "unknown edge type '=>'"),
        ({(0, 1): "->", (1, 0): "->"}, r"conflicting edge types for pair \(0, 1\)"),
    ],
    ids=["unknown-type", "conflicting-types"],
)
def test_invalid_edges_rejected(edges, message):
    with pytest.raises(InvalidGraphError, match=message):
        MixedGraph(3, edges)


def test_edge_type_range_and_diagonal():
    g = MixedGraph(3, {(0, 1): "->"})
    assert g.edge_type(1, 1) is None
    for pair in [(0, 3), (-1, 0)]:
        with pytest.raises(InvalidVertexError, match="outside range"):
            g.edge_type(*pair)


def test_graph_rebuilt_from_its_edge_types():
    # every ordered pair, non-adjacent ones (None) included, in both orientations
    g = MixedGraph(4, {(0, 1): "->", (2, 1): "<->", (0, 3): "--"})
    edges = {(j, k): g.edge_type(j, k) for j in range(4) for k in range(4) if j != k}
    assert None in edges.values()
    assert MixedGraph(4, edges).edges == g.edges


# ---------------------------------------------------------------- m-connection


def test_chain_connects():
    g = MixedGraph(3, {(0, 1): "->", (1, 2): "->"})
    assert representative(g).connected[0, 2]


def test_collider_blocks():
    g = MixedGraph(3, {(0, 1): "->", (2, 1): "->"})  # 0 -> 1 <- 2
    assert g.edge_type(1, 2) == "<-"
    assert not representative(g).connected[0, 2]


def test_fork_connects():
    g = MixedGraph(3, {(1, 0): "->", (1, 2): "->"})
    assert representative(g).connected[0, 2]


def test_m_connection_matches_path_enumeration_oracle():
    rng = np.random.default_rng(0)
    types = ["->", "<-", "<->", "--", None]
    found = 0
    while found < 400:
        m = int(rng.integers(3, 8))
        edges = {}
        for j in range(m):
            for k in range(j + 1, m):
                etype = types[rng.integers(0, len(types))]
                if etype:
                    edges[(j, k)] = etype
        try:
            g = MixedGraph(m, edges)
        except InvalidGraphError:
            continue
        found += 1
        connected = representative(g).connected
        for j in range(m):
            for k in range(j + 1, m):
                assert connected[j, k] == collider_free_path_exists(g, j, k)


# ---------------------------------------------------------------- representatives


def test_empty_graph_representative():
    rep = representative(MixedGraph(4, {}))
    assert not rep.connected.any()


def test_chain_representative_fully_connected():
    rep = representative(MixedGraph(3, {(0, 1): "->", (1, 2): "->"}))
    assert rep.connected[0, 1] and rep.connected[1, 2] and rep.connected[0, 2]


def test_collider_representative():
    rep = representative(MixedGraph(3, {(0, 1): "->", (2, 1): "->"}))
    assert rep.connected[0, 1] and rep.connected[1, 2]
    assert not rep.connected[0, 2]


def test_representative_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rep = random_representative(4, rng)
        again = representative(rep.to_graph())
        assert np.array_equal(rep.connected, again.connected)


@pytest.mark.parametrize(
    "connected, error, message",
    [
        (np.zeros((3, 2), dtype=bool), DimensionMismatchError, "does not match m=3"),
        (np.triu(np.ones((3, 3), dtype=bool), k=1), InvalidGraphError, "must be symmetric"),
        (np.eye(3, dtype=bool), InvalidGraphError, "false diagonal"),
    ],
    ids=["shape", "asymmetric", "true-diagonal"],
)
def test_bad_connection_matrix_rejected(connected, error, message):
    with pytest.raises(error, match=message):
        BidirectedRepresentative(3, connected)


def test_equivalent_dags_share_representative():
    chain = MixedGraph(3, {(0, 1): "->", (1, 2): "->"})
    fork = MixedGraph(3, {(1, 0): "->", (1, 2): "->"})
    reversed_chain = MixedGraph(3, {(1, 0): "->", (2, 1): "->"})
    reps = [representative(g).connected for g in (chain, fork, reversed_chain)]
    assert np.array_equal(reps[0], reps[1]) and np.array_equal(reps[0], reps[2])


# ---------------------------------------------------------------- hamming product


def test_self_product_is_complete():
    g = MixedGraph(4, {(0, 1): "->", (2, 3): "<->"})
    product = hamming_product(g, g)
    for j in range(4):
        for k in range(j + 1, 4):
            assert product.edge_type(j, k) == "<->"


def test_single_flip_product():
    g = MixedGraph(3, {(0, 1): "->"})
    g_flipped = MixedGraph(3, {(0, 1): "<->"})
    product = hamming_product(g, g_flipped)
    assert product.edge_type(0, 1) is None
    assert product.edge_type(0, 2) == "<->" and product.edge_type(1, 2) == "<->"


def test_product_commutative_associative_on_representatives():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        u, v, w = (random_representative(m, rng) for _ in range(3))
        uv = hamming_product(u, v)
        vu = hamming_product(v, u)
        assert np.array_equal(uv.connected, vu.connected)
        left = hamming_product(hamming_product(u, v), w)
        right = hamming_product(u, hamming_product(v, w))
        assert np.array_equal(left.connected, right.connected)


def test_group_axioms_small():
    for m in (2, 3):
        identity = BidirectedRepresentative(m=m, connected=~np.eye(m, dtype=bool))
        for u in all_representatives(m):
            assert np.array_equal(hamming_product(u, identity).connected, u.connected)
            assert np.array_equal(
                hamming_product(u, u).connected, identity.connected
            )  # each element is its own inverse


@pytest.mark.parametrize("kind", ["graphs", "representatives"])
def test_product_vertex_count_mismatch(kind):
    a, b = MixedGraph(3, {}), MixedGraph(4, {})
    if kind == "representatives":
        a, b = representative(a), representative(b)
    with pytest.raises(DimensionMismatchError, match="vertex counts differ: 3 vs 4"):
        hamming_product(a, b)


# ---------------------------------------------------------------- distance


def test_distance_trivials():
    rng = np.random.default_rng(3)
    u = random_representative(4, rng)
    assert graph_distance(u, u) == 0
    connected = BidirectedRepresentative(2, np.array([[False, True], [True, False]]))
    empty = BidirectedRepresentative(2, np.zeros((2, 2), dtype=bool))
    assert graph_distance(connected, empty) == 2


def test_distance_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        u, v, w = (random_representative(m, rng) for _ in range(3))
        assert graph_distance(u, w) <= graph_distance(u, v) + graph_distance(v, w)


def test_distance_dimension_mismatch():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionMismatchError):
        graph_distance(random_representative(3, rng), random_representative(4, rng))


# ---------------------------------------------------------------- sign matrices


def test_sign_map_empty_and_complete():
    empty = BidirectedRepresentative(3, np.zeros((3, 3), dtype=bool))
    assert np.array_equal(sign_map(empty).values, 2 * np.eye(3, dtype=np.int8) - 1)
    complete = BidirectedRepresentative(3, ~np.eye(3, dtype=bool))
    assert (sign_map(complete).values == 1).all()


def test_sign_map_is_group_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        u, v = random_representative(m, rng), random_representative(m, rng)
        lhs = sign_map(u).elementwise_product(sign_map(v))
        rhs = sign_map(hamming_product(u, v))
        assert np.array_equal(lhs.values, rhs.values)


def test_distance_sign_inner_product_bridge():
    # 2 * d(u, u') == m^2 - <O, O'>_F, exactly
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        u, v = random_representative(m, rng), random_representative(m, rng)
        inner = sign_map(u).frobenius_inner(sign_map(v))
        assert 2 * graph_distance(u, v) == m * m - inner


def test_sign_of_statistic():
    zero = sign_of_statistic(np.zeros((3, 3)))
    assert np.array_equal(zero.values, 2 * np.eye(3, dtype=np.int8) - 1)
    positive = sign_of_statistic(np.full((3, 3), 2.0))
    assert (positive.values == 1).all()
    with pytest.raises(NotSquareError):
        sign_of_statistic(np.zeros((2, 3)))


def test_sign_matrix_validation():
    with pytest.raises(InvalidGraphError):
        SignMatrix(np.array([[1, 0], [0, 1]]))
    with pytest.raises(InvalidGraphError):
        SignMatrix(np.array([[1, 1], [-1, 1]]))
    with pytest.raises(NotSquareError):
        SignMatrix(np.ones((2, 3)))
    with pytest.raises(InvalidGraphError, match="diagonal"):
        SignMatrix(np.array([[-1, 1], [1, 1]]))
    small, large = SignMatrix(np.ones((2, 2))), SignMatrix(np.ones((3, 3)))
    for combine in (small.elementwise_product, small.frobenius_inner):
        with pytest.raises(DimensionMismatchError, match="sizes differ: 2 vs 3"):
            combine(large)


# ---------------------------------------------------------------- serialization


def test_json_roundtrip():
    g = MixedGraph(4, {(0, 1): "->", (1, 2): "<->", (0, 3): "--"})
    payload = graph_to_json(g)
    again = graph_from_json(json.loads(json.dumps(payload)))
    assert again.m == 4
    for j in range(4):
        for k in range(4):
            if j != k:
                assert again.edge_type(j, k) == g.edge_type(j, k)
