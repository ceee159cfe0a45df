"""Graph layers against scalar and spectral oracles."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from floodseg.graphnn import (Graph, NormalizedLaplacian,
                              build_grid_graph, center_of_mass, cheb_conv,
                              gat_conv, neighbour_sum, normalized_laplacian)
from floodseg.model import ModelSpec, build_model, init_params
from floodseg.tensor import ShapeError, Tensor, no_grad, tsum


def f64(a):
    return Tensor(np.asarray(a), dtype=np.float64)


def random_connected_graph(rng, n):
    """Random spanning tree plus a few extra edges."""
    edges = set()
    nodes = list(rng.permutation(n))
    for a, b in zip(nodes, nodes[1:]):
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randint(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


# ---- graph structure ---------------------------------------------------------


def test_grid_graph_edge_counts():
    for h, w in [(1, 1), (2, 3), (3, 3), (4, 5)]:
        g4 = build_grid_graph(h, w, 4)
        assert len(g4.edges) == h * (w - 1) + w * (h - 1)
        g8 = build_grid_graph(h, w, 8)
        assert len(g8.edges) == len(g4.edges) + 2 * (h - 1) * (w - 1)


def test_grid_graph_is_row_major():
    g = build_grid_graph(2, 3, 4)
    assert (0, 1) in g.edges and (1, 2) in g.edges      # right neighbours
    assert (0, 3) in g.edges and (2, 5) in g.edges      # down neighbours
    assert (0, 4) not in g.edges
    g8 = build_grid_graph(2, 3, 8)
    assert (0, 4) in g8.edges and (1, 3) in g8.edges    # diagonals


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        build_grid_graph(2, 2, 6)


def test_degrees_and_masks():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    np.testing.assert_array_equal(g.degrees, [1, 3, 1, 1])
    a = g.adjacency()
    np.testing.assert_array_equal(a, a.T)
    assert a.trace() == 0.0
    np.testing.assert_array_equal(g.attention_mask(), a + np.eye(4))


def grid_edges_oracle(height, width, connectivity):
    """Per-cell loop over the row-major grid: right, down and both diagonals."""
    edges = []
    for r in range(height):
        for c in range(width):
            node = r * width + c
            if c + 1 < width:
                edges.append((node, node + 1))
            if r + 1 < height:
                edges.append((node, node + width))
            if connectivity == 8 and r + 1 < height:
                if c + 1 < width:
                    edges.append((node, node + width + 1))
                if c - 1 >= 0:
                    edges.append((node, node + width - 1))
    return edges


def dense_oracle(node_count, edges):
    """Degrees, adjacency, attention mask and Laplacians from per-edge loops.

    The Laplacian is the dense formula with its explicit symmetrisation and
    identity, so the arrays under test must match it byte for byte. Yields
    (name, array) one at a time, which keeps a 4096-node check to a few n x n
    arrays alive at once.
    """
    deg = np.zeros(node_count, dtype=np.int64)
    a = np.zeros((node_count, node_count))
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        a[u, v] = a[v, u] = 1.0
    yield "degrees", deg
    yield "adjacency", a
    yield "attention_mask", a + np.eye(node_count)
    row_sum = a.sum(axis=1)
    inv_sqrt = np.zeros_like(row_sum)
    connected = row_sum > 0
    inv_sqrt[connected] = 1.0 / np.sqrt(row_sum[connected])
    lap = -inv_sqrt[:, None] * a * inv_sqrt[None, :]
    del a
    lap[np.diag_indices_from(lap)] = np.where(connected, 1.0, 0.0)
    lap = (lap + lap.T) / 2.0
    yield "matrix", lap
    yield "scaled", lap - np.eye(node_count)


GRAPH_ARRAYS = {"degrees": lambda g: g.degrees,
                "adjacency": Graph.adjacency,
                "attention_mask": Graph.attention_mask,
                "matrix": lambda g: NormalizedLaplacian(g).matrix,
                "scaled": lambda g: NormalizedLaplacian(g).scaled}


def assert_matches_dense_oracle(make_graph, edges):
    """Each array from a fresh graph, so no earlier array stays cached."""
    compared = []
    for name, want in dense_oracle(make_graph().node_count, edges):
        got = GRAPH_ARRAYS[name](make_graph())
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        compared.append(name)
        del got, want
    assert compared == list(GRAPH_ARRAYS)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("height,width", [(1, 1), (1, 5), (5, 1), (3, 4), (64, 64)])
def test_grid_graph_matches_loop_and_dense_oracles(height, width, connectivity):
    edges = grid_edges_oracle(height, width, connectivity)
    g = build_grid_graph(height, width, connectivity)
    assert g.edges == sorted(edges)
    assert all(type(node) is int for edge in g.edges for node in edge)
    assert_matches_dense_oracle(lambda: build_grid_graph(height, width, connectivity), edges)


def test_random_graphs_with_isolated_nodes_match_dense_oracle():
    rng = np.random.RandomState(10)
    with_isolated = 0
    for _ in range(30):
        n = rng.randint(1, 25)
        keys = {(min(u, v), max(u, v)) for u, v in rng.randint(0, n, (rng.randint(0, n), 2))
                if u != v}
        # either orientation, any order: the graph canonicalises both
        edges = [(u, v) if rng.rand() < 0.5 else (v, u) for u, v in keys]
        rng.shuffle(edges)
        g = Graph(n, edges)
        assert g.edges == sorted(keys)
        assert_matches_dense_oracle(lambda: Graph(n, edges), edges)
        with_isolated += bool((g.degrees == 0).any())
    assert with_isolated >= 10


def test_graph_reports_the_first_faulty_edge_in_input_order():
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        Graph(3, [(0, 1), (1, 0), (2, 2)])
    with pytest.raises(ValueError, match="self-loop on node 2"):
        Graph(3, [(0, 1), (2, 2), (1, 0)])
    with pytest.raises(ValueError, match="self-loop on node 5"):
        Graph(3, [(5, 5)])
    with pytest.raises(ValueError, match=r"edge \(0,4\) outside 0..2"):
        Graph(3, [(0, 4), (0, 1)])
    # in a 3-node graph (0, 5) has the sort key of (1, 2); it is out of range
    # all the same, not a duplicate
    with pytest.raises(ValueError, match=r"edge \(0,5\) outside 0..2"):
        Graph(3, [(1, 2), (0, 5)])
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1, 2)])


@pytest.mark.parametrize("edges,named", [
    ([(0.5, 1), (1.9, 2)], r"\(0.5,1\)"),
    ([(0, 1), (True, 2)], r"\(True,2\)"),
    ([(0, 1), (1, 2.0)], r"\(1,2.0\)"),
    (np.array([[0, 1], [1, 2]], dtype=float), r"\(0.0,1.0\)"),
    (np.array([[False, True]]), r"\(False,True\)"),
], ids=["floats", "a bool", "a float beside ints", "a float array", "a bool array"])
def test_graph_refuses_node_ids_that_are_not_integers(edges, named):
    with pytest.raises(ValueError, match=f"Graph: edge {named} has a node id that is not an int"):
        Graph(3, edges)


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (1,)], r"edges must be \(u, v\) pairs, got a ragged list"),
    ([(0, 1), (1, 2, 0)], r"edges must be \(u, v\) pairs, got a ragged list"),
    ([(0, 2**70)], rf"edge \(0,{2**70}\) outside 0..2"),
    ([(-2**70, 1)], rf"edge \({-2**70},1\) outside 0..2"),
    (np.array([(0, 2**64 - 1)], dtype=np.uint64), rf"edge \(0,{2**64 - 1}\) outside 0..2"),
    (np.array([(2**63, 1)], dtype=np.uint64), rf"edge \({2**63},1\) outside 0..2"),
], ids=["a short pair", "a long pair", "an id past int64", "an id below int64",
        "a uint64 id of 2**64-1", "a uint64 id of 2**63"])
def test_graph_refuses_ragged_lists_and_ids_past_int64_with_its_own_errors(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, edges)


@pytest.mark.parametrize("count", [3.7, 3.0, True, np.float64(3)],
                         ids=["3.7", "3.0", "True", "float64"])
def test_graph_refuses_a_node_count_that_is_not_an_integer(count):
    with pytest.raises(ValueError, match=f"node_count must be a positive integer, got {count}"):
        Graph(count, [(0, 1)])


def test_graph_takes_numpy_integer_ids_and_count():
    g = Graph(np.int64(3), [(np.int64(0), np.int32(1)), (1, 2)])
    assert g.edges == [(0, 1), (1, 2)]
    assert Graph(3, np.array([[0, 1], [1, 2]], dtype=np.uint8)).edges == [(0, 1), (1, 2)]


def test_laplacian_build_peaks_below_two_and_a_half_dense_matrices():
    # The rescaled form is written from the neighbour table into one n x n
    # array, which is then copied for the Laplacian: no adjacency is built.
    n = 32 * 32
    tracemalloc.start()
    try:
        normalized_laplacian(build_grid_graph(32, 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


def random_graphs_with_isolated_nodes(rng, count):
    """Random graphs of 1-24 nodes, many with a node that has no edge."""
    for _ in range(count):
        n = rng.randint(1, 25)
        keys = {(min(u, v), max(u, v)) for u, v in rng.randint(0, n, (rng.randint(0, n), 2))
                if u != v}
        yield Graph(n, sorted(keys))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_neighbourhood_is_bytewise_the_cast_attention_mask_and_its_offset(dtype):
    graphs = [build_grid_graph(h, w, c) for h, w in [(1, 1), (1, 5), (3, 4), (9, 7)]
              for c in (4, 8)]
    graphs += random_graphs_with_isolated_nodes(np.random.RandomState(12), 30)
    assert sum(bool((g.degrees == 0).any()) for g in graphs) >= 10
    for g in graphs:
        mask = Graph(g.node_count, g.edges).attention_mask().astype(dtype)
        inside = g.neighbourhood(dtype, 1.0, 0.0)
        assert inside.dtype == dtype and inside.tobytes() == mask.tobytes()
        offset = g.neighbourhood(dtype, 0.0, -1e30)
        want = ((mask - 1.0) * 1e30).astype(dtype)
        assert offset.dtype == dtype and offset.tobytes() == want.tobytes()
        assert g._adjacency is None and g._attention_mask is None     # nothing cached


def gat_conv_peak(record: bool) -> float:
    """``tracemalloc`` peak of one float32 ``gat_conv`` on a fresh 32x32 grid,
    in n x n float32 arrays."""
    n = 32 * 32
    rng = np.random.RandomState(13)
    graph = build_grid_graph(32, 32)
    x = Tensor(rng.uniform(-1, 1, (n, 16)), dtype=np.float32)
    weight = Tensor(rng.uniform(-1, 1, (8, 16)), requires_grad=True, dtype=np.float32)
    attn = Tensor(rng.uniform(-1, 1, 16), requires_grad=True, dtype=np.float32)
    tracemalloc.start()
    try:
        with contextlib.nullcontext() if record else no_grad():
            out = gat_conv(x, graph, weight, attn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.dtype == np.float32 and out.requires_grad == record
    return peak / (n * n * 4)


def test_gat_conv_without_a_tape_peaks_below_three_and_a_half_dense_arrays():
    # The pair scores, then the mask, then their product; then the product,
    # the offset and their sum; then softmax's one buffer beside its input.
    assert gat_conv_peak(record=False) < 3.5


def test_recorded_gat_conv_peaks_below_five_and_a_half_dense_arrays():
    # The tape keeps the leaky relu output, the mask and the softmax output;
    # at most two more n x n arrays are live beside them.
    assert gat_conv_peak(record=True) < 5.5


def test_a_model_forward_builds_no_adjacency_or_attention_mask():
    spec = ModelSpec(input_size=16, widths=(2, 3), gat_out=3, cheb_order=2, cheb_out=3,
                     variant="gac-unet")
    model = init_params(build_model(spec), 0)
    x = Tensor(np.random.RandomState(14).uniform(0, 1, (2, 3, 16, 16)))
    tsum(model.forward(x)).backward()
    with no_grad():
        model.forward(x)
    assert model.graph._adjacency is None and model.graph._attention_mask is None


# ---- neighbour table and neighbour_sum ------------------------------------------


def oracle_graphs():
    """Random graphs with isolated nodes, then 4- and 8-connected grids, (1, 1) included."""
    graphs = list(random_graphs_with_isolated_nodes(np.random.RandomState(15), 30))
    assert sum(bool((g.degrees == 0).any()) for g in graphs) >= 10
    return graphs + [build_grid_graph(h, w, c) for h, w in [(1, 1), (1, 5), (3, 4), (6, 5)]
                     for c in (4, 8)]


def scattered(w, index, start=0.0):
    """The dense (n, n) matrix, ``start`` everywhere, whose row i adds w[i, d] at
    column index[i, d]."""
    dense = np.full((index.shape[0],) * 2, start)
    np.add.at(dense, (np.arange(index.shape[0])[:, None], index), w)
    return dense


def assert_relative(got, want, rtol=1e-12):
    """Equal to ``rtol`` of the largest entry of ``want``, entry by entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_neighbour_table_lists_self_then_sorted_neighbours_then_self_again():
    for g in oracle_graphs():
        width = g.degrees.max() + 1
        assert g.index.shape == (g.node_count, width)
        for i in range(g.node_count):
            nbrs = sorted([v for u, v in g.edges if u == i] + [u for u, v in g.edges if v == i])
            spare = width - 1 - len(nbrs)
            assert g.index[i].tolist() == [i] + nbrs + [i] * spare
            assert g.used[i].tolist() == [True] * (1 + len(nbrs)) + [False] * spare
        lap = NormalizedLaplacian(g)
        assert lap.graph is g and lap.weights.dtype == np.float64
        # byte for byte: scattered onto -0.0, as the off-edge entries are
        assert scattered(lap.weights, g.index, -0.0).tobytes() == lap.scaled.tobytes()


def partner_oracle(index):
    """For each slot (i, d), the flat slot j * D + e with ``index[j, e] == i`` for
    j = ``index[i, d]``, from an (n, D, D) comparison; a slot that points at its
    own row is its own partner."""
    n, width = index.shape
    rows = np.arange(n)[:, None]
    slots = np.where(index == rows, np.arange(width),
                     (index[index] == rows[:, :, None]).argmax(axis=2))
    return index * width + slots


def test_partner_slots_match_the_comparison_oracle_and_pair_up():
    for g in oracle_graphs() + [build_grid_graph(64, 64, c) for c in (4, 8)]:
        assert g.partner.dtype == np.int64
        assert g.partner.tobytes() == partner_oracle(g.index).tobytes()
        # each slot's partner's partner is the slot itself
        np.testing.assert_array_equal(g.partner.flat[g.partner],
                                      np.arange(g.partner.size).reshape(g.partner.shape))


def test_neighbour_sum_matches_the_dense_product_and_loop_gradients():
    rng = np.random.RandomState(16)
    for g in oracle_graphs():
        index = g.index
        n, width = index.shape
        # random weights in the spare slots too: they count like any other slot
        w, x, probe = (rng.uniform(-1, 1, shape) for shape in [(n, width), (n, 3), (n, 3)])
        wt = Tensor(w, requires_grad=True, dtype=np.float64)
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        out = neighbour_sum(wt, xt, g)
        assert_relative(out.data, scattered(w, index) @ x)
        tsum(out * f64(probe)).backward()
        dw, dx = np.zeros_like(w), np.zeros_like(x)
        for i in range(n):
            for d in range(width):
                dw[i, d] = probe[i] @ x[index[i, d]]
                dx[index[i, d]] += w[i, d] * probe[i]
        assert_relative(wt.grad, dw)
        assert_relative(xt.grad, dx)


def test_neighbour_sum_rejects_a_table_of_another_shape():
    graph = build_grid_graph(2, 2)
    with pytest.raises(ShapeError):
        neighbour_sum(f64(np.ones((4, 2))), f64(np.ones((4, 3))), graph)
    with pytest.raises(ShapeError):
        neighbour_sum(f64(np.ones((4, 3))), f64(np.ones((5, 3))), graph)


def test_cheb_conv_matches_the_recurrence_on_the_dense_scaled_laplacian():
    rng = np.random.RandomState(17)
    for g in oracle_graphs():
        lap = NormalizedLaplacian(g)
        x = rng.uniform(-1, 1, (g.node_count, 3))
        thetas = [rng.uniform(-1, 1, (2, 3)) for _ in range(4)]
        terms = [x, lap.scaled @ x]
        for _ in range(2, 4):
            terms.append(2.0 * lap.scaled @ terms[-1] - terms[-2])
        want = sum(t @ theta.T for t, theta in zip(terms, thetas))
        assert_relative(cheb_conv(f64(x), lap, [f64(t) for t in thetas]).data, want)
        # an isolated node's diagonal entry is -1: its features are negated
        isolated = g.degrees == 0
        step = neighbour_sum(f64(lap.weights), f64(x), lap.graph).data
        np.testing.assert_array_equal(step[isolated], -x[isolated])


def test_gat_conv_sums_its_own_attention_over_the_neighbour_table():
    rng = np.random.RandomState(18)
    for g in oracle_graphs():
        x = rng.uniform(-1, 1, (g.node_count, 4))
        w, a = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 6)
        out, att = gat_conv(f64(x), g, f64(w), f64(a), return_attention=True)
        v = att.data @ (x @ w.T)
        assert_relative(out.data, np.where(v > 0, v, 0.2 * v))


def test_float32_cheb_conv_peaks_far_below_one_dense_array():
    # One 4096 x 4096 float32 array is 64 times the 4096 x 64 features; the
    # table's sum holds the features, one (n, D, f) gather and a few (n, f) terms.
    n, f = 64 * 64, 64
    rng = np.random.RandomState(19)
    lap = normalized_laplacian(build_grid_graph(64, 64))
    x = Tensor(rng.uniform(-1, 1, (n, f)), dtype=np.float32)
    thetas = [Tensor(rng.uniform(-1, 1, (f, f)), dtype=np.float32) for _ in range(3)]
    tracemalloc.start()
    try:
        with no_grad():
            out = cheb_conv(x, lap, thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.dtype == np.float32
    assert peak < 16 * n * f * 4


def test_a_float32_prediction_leaves_no_float32_array_on_the_laplacian():
    spec = ModelSpec(input_size=16, widths=(2, 3), gat_out=3, cheb_order=2, cheb_out=3,
                     variant="gac-unet")
    model = init_params(build_model(spec), 0)
    model.predict_proba(np.random.RandomState(20).uniform(0, 1, (20, 20, 3)))
    held = []
    for value in vars(model.laplacian).values():
        held += list(value.values()) if isinstance(value, dict) else [value]
    assert model.dtype == np.float32
    assert not any(np.asarray(getattr(v, "data", v)).dtype == np.float32 for v in held)


# ---- normalized Laplacian ------------------------------------------------------


def test_two_node_path_laplacian_and_spectrum():
    lap = NormalizedLaplacian(Graph(2, [(0, 1)]))
    np.testing.assert_allclose(lap.matrix, [[1, -1], [-1, 1]], atol=1e-15)
    np.testing.assert_allclose(np.linalg.eigvalsh(lap.matrix), [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(lap.scaled, [[0, -1], [-1, 0]], atol=1e-15)


def test_isolated_node_gets_zero_laplacian_row():
    lap = NormalizedLaplacian(Graph(3, [(0, 1)]))
    np.testing.assert_array_equal(lap.matrix[2], [0, 0, 0])
    np.testing.assert_array_equal(lap.matrix[:, 2], [0, 0, 0])


def test_laplacian_spectrum_stays_in_zero_two():
    rng = np.random.RandomState(0)
    for n in (3, 5, 8):
        lap = NormalizedLaplacian(random_connected_graph(rng, n))
        evals = np.linalg.eigvalsh(lap.matrix)
        assert evals.min() > -1e-10 and evals.max() < 2 + 1e-10
        np.testing.assert_allclose(lap.matrix, lap.matrix.T, atol=1e-15)


# ---- graph attention ----------------------------------------------------------


def gat_oracle(x, w, a, mask, slope=0.2):
    """Scalar-loop attention: mask rows include self-loops."""
    n = x.shape[0]
    fo = w.shape[0]
    z = x @ w.T
    s = z @ a[:fo]
    t = z @ a[fo:]
    att = np.zeros((n, n))
    out = np.zeros((n, fo))
    for i in range(n):
        raw = []
        for j in range(n):
            if mask[i, j]:
                e = s[i] + t[j]
                raw.append((j, e if e > 0 else slope * e))
        m = max(e for _, e in raw)
        total = sum(np.exp(e - m) for _, e in raw)
        for j, e in raw:
            att[i, j] = np.exp(e - m) / total
        vec = sum(att[i, j] * z[j] for j, _ in raw)
        out[i] = np.where(vec > 0, vec, slope * vec)
    return out, att


def test_gat_matches_scalar_oracle_on_a_path():
    rng = np.random.RandomState(1)
    g = Graph(3, [(0, 1), (1, 2)])
    x = rng.uniform(-1, 1, (3, 4))
    w = rng.uniform(-1, 1, (2, 4))
    a = rng.uniform(-1, 1, 4)
    out, att = gat_conv(f64(x), g, f64(w), f64(a), return_attention=True)
    want_out, want_att = gat_oracle(x, w, a, g.attention_mask())
    np.testing.assert_allclose(att.data, want_att, atol=1e-10)
    np.testing.assert_allclose(out.data, want_out, atol=1e-10)


def test_gat_attention_rows_sum_to_one():
    rng = np.random.RandomState(2)
    for _ in range(10):
        n = rng.randint(2, 9)
        g = random_connected_graph(rng, n)
        params = f64(rng.uniform(-1, 1, (3, 5))), f64(rng.uniform(-1, 1, 6))
        _, att = gat_conv(f64(rng.uniform(-1, 1, (n, 5))), g, *params,
                          return_attention=True)
        np.testing.assert_allclose(att.data.sum(axis=1), np.ones(n), atol=1e-6)
        # masked-out pairs carry exactly zero weight
        assert np.all(att.data[g.attention_mask() == 0] == 0.0)


def test_gat_identical_nodes_split_attention_evenly():
    g = Graph(2, [(0, 1)])
    x = f64(np.ones((2, 3)))
    _, att = gat_conv(x, g, f64(np.ones((2, 3))), f64(np.ones(4)), return_attention=True)
    np.testing.assert_allclose(att.data, np.full((2, 2), 0.5), atol=1e-12)


def test_gat_isolated_node_attends_to_itself():
    rng = np.random.RandomState(3)
    g = Graph(3, [(0, 1)])                       # node 2 isolated
    params = f64(rng.uniform(-1, 1, (2, 3))), f64(rng.uniform(-1, 1, 4))
    _, att = gat_conv(f64(rng.uniform(-1, 1, (3, 3))), g, *params, return_attention=True)
    np.testing.assert_allclose(att.data[2], [0.0, 0.0, 1.0], atol=1e-12)


def test_gat_is_permutation_equivariant():
    rng = np.random.RandomState(4)
    for _ in range(10):
        n = 6
        g = random_connected_graph(rng, n)
        x = rng.uniform(-1, 1, (n, 4))
        params = f64(rng.uniform(-1, 1, (3, 4))), f64(rng.uniform(-1, 1, 6))
        perm = rng.permutation(n)
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        base = gat_conv(f64(x), g, *params).data
        # node i moves to label perm[i]: row perm[i] of the permuted run
        # must reproduce row i of the base run
        permuted_x = np.empty_like(x)
        permuted_x[perm] = x
        permuted = gat_conv(f64(permuted_x), relabeled, *params).data
        np.testing.assert_allclose(permuted[perm], base, atol=1e-10)


def test_gat_shape_validation():
    g = Graph(2, [(0, 1)])
    params = f64(np.ones((2, 3))), f64(np.ones(4))
    with pytest.raises(ShapeError):
        gat_conv(f64(np.ones((3, 3))), g, *params)       # node mismatch
    with pytest.raises(ShapeError):
        gat_conv(f64(np.ones((2, 5))), g, *params)       # feature mismatch
    with pytest.raises(ShapeError):
        gat_conv(f64(np.ones((2, 3))), g, f64(np.ones((2, 3))), f64(np.ones(3)))


@pytest.mark.parametrize("weight, attn, message", [
    ((3,), (6,), "gat_conv: weight must be (out_dim, 3), got (3,)"),
    ((2, 3, 1), (4,), "gat_conv: weight must be (out_dim, 3), got (2, 3, 1)"),
    ((2, 4), (4,), "gat_conv: weight must be (out_dim, 3), got (2, 4)"),
    ((2, 3), (3,), "gat_conv: attn shape (3,) != (4,)"),
    ((2, 3), (4, 1), "gat_conv: attn shape (4, 1) != (4,)"),
], ids=["weight_1d", "weight_3d", "weight_width", "attn_length", "attn_2d"])
def test_gat_conv_refuses_a_parameter_of_the_wrong_shape(weight, attn, message):
    with pytest.raises(ShapeError) as err:
        gat_conv(f64(np.ones((2, 3))), Graph(2, [(0, 1)]), f64(np.ones(weight)),
                 f64(np.ones(attn)))
    assert str(err.value) == message


# ---- Chebyshev filter ----------------------------------------------------------


def cheb_oracle(x, lap_matrix, thetas):
    """Spectral route: polynomials evaluated as cos(k arccos) of eigenvalues."""
    evals, evecs = np.linalg.eigh(lap_matrix)
    mu = np.clip(evals - 1.0, -1.0, 1.0)        # rescaled spectrum
    out = np.zeros((x.shape[0], thetas[0].shape[0]))
    for k, theta in enumerate(thetas):
        tk = evecs @ np.diag(np.cos(k * np.arccos(mu))) @ evecs.T
        out += (tk @ x) @ theta.T
    return out


def test_cheb_hand_case_on_two_node_path():
    g = Graph(2, [(0, 1)])
    x = f64([[1.0], [-1.0]])                     # eigenvector of the scaled Laplacian
    thetas = [f64([[2.0]]), f64([[3.0]]), f64([[5.0]])]
    out = cheb_conv(x, NormalizedLaplacian(g), thetas)
    np.testing.assert_allclose(out.data, [[10.0], [-10.0]], atol=1e-12)


def test_cheb_order_zero_ignores_the_graph():
    rng = np.random.RandomState(5)
    x = rng.uniform(-1, 1, (4, 3))
    theta = rng.uniform(-1, 1, (2, 3))
    thetas = [f64(theta)]
    path = NormalizedLaplacian(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    full = NormalizedLaplacian(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
    np.testing.assert_array_equal(cheb_conv(f64(x), path, thetas).data,
                                  cheb_conv(f64(x), full, thetas).data)
    np.testing.assert_allclose(cheb_conv(f64(x), path, thetas).data, x @ theta.T,
                               atol=1e-12)


def test_cheb_matches_spectral_oracle_on_random_graphs():
    rng = np.random.RandomState(6)
    for _ in range(20):
        n = rng.randint(2, 11)
        g = random_connected_graph(rng, n)
        lap = NormalizedLaplacian(g)
        order = rng.randint(0, 5)
        fi, fo = rng.randint(1, 5), rng.randint(1, 5)
        thetas = [rng.uniform(-1, 1, (fo, fi)) for _ in range(order + 1)]
        x = rng.uniform(-1, 1, (n, fi))
        got = cheb_conv(f64(x), lap, [f64(t) for t in thetas]).data
        np.testing.assert_allclose(got, cheb_oracle(x, lap.matrix, thetas), atol=1e-8)


def test_cheb_validation():
    lap = NormalizedLaplacian(Graph(2, [(0, 1)]))
    x = f64(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        cheb_conv(x, lap, [])
    with pytest.raises(ShapeError):
        cheb_conv(x, lap, [f64(np.ones((2, 3))), f64(np.ones((3, 2)))])
    with pytest.raises(ShapeError):
        cheb_conv(f64(np.ones((3, 3))), lap, [f64(np.ones((2, 3)))])


@pytest.mark.parametrize("shapes, message", [
    ([], "cheb_conv: need at least theta_0"),
    ([(3,)], "cheb_conv: theta_0 must be (out_dim, 3), got (3,)"),
    ([(2, 3, 1)], "cheb_conv: theta_0 must be (out_dim, 3), got (2, 3, 1)"),
    ([(2, 3), (6,)], "cheb_conv: theta_1 shape (6,) != (2, 3)"),
    ([(2, 3), (2, 3), (3, 2)], "cheb_conv: theta_2 shape (3, 2) != (2, 3)"),
    ([(2, 4), (2, 4)], "cheb_conv: theta_0 must be (out_dim, 3), got (2, 4)"),
], ids=["empty", "theta0_1d", "theta0_3d", "theta1_1d", "theta2_shape", "theta_width"])
def test_cheb_conv_refuses_thetas_of_the_wrong_shape(shapes, message):
    lap = NormalizedLaplacian(Graph(2, [(0, 1)]))
    with pytest.raises(ShapeError) as err:
        cheb_conv(f64(np.ones((2, 3))), lap, [f64(np.ones(shape)) for shape in shapes])
    assert str(err.value) == message


# ---- soft centroids -------------------------------------------------------------


def test_constant_channel_centers_at_half():
    x = f64(np.zeros((2, 4, 6)))
    centroids, augmented = center_of_mass(x)
    np.testing.assert_allclose(centroids.data, np.full((2, 2), 0.5), atol=1e-12)
    assert augmented.shape == (4, 4, 6)
    np.testing.assert_array_equal(augmented.data[:2], x.data)
    np.testing.assert_allclose(augmented.data[2], 0.5, atol=1e-12)
    np.testing.assert_allclose(augmented.data[3], 0.5, atol=1e-12)


def test_hot_pixel_pulls_the_centroid_onto_itself():
    x = np.zeros((1, 5, 7))
    x[0, 1, 4] = 60.0
    centroids, _ = center_of_mass(f64(x))
    np.testing.assert_allclose(centroids.data, [[1 / 4, 4 / 6]], atol=1e-8)


def test_centroids_are_invariant_to_constant_shifts():
    rng = np.random.RandomState(7)
    x = rng.uniform(-1, 1, (3, 4, 4))
    base, _ = center_of_mass(f64(x))
    shifted, _ = center_of_mass(f64(x + 0.5))
    np.testing.assert_allclose(shifted.data, base.data, atol=1e-12)


def test_centroids_stay_inside_the_unit_square():
    rng = np.random.RandomState(8)
    for _ in range(20):
        x = rng.uniform(-10, 10, (2, rng.randint(1, 6), rng.randint(1, 6)))
        centroids, _ = center_of_mass(f64(x))
        assert np.all(centroids.data >= 0.0) and np.all(centroids.data <= 1.0)


def test_single_cell_grid_centers_at_half():
    centroids, augmented = center_of_mass(f64(np.ones((3, 1, 1))))
    np.testing.assert_allclose(centroids.data, np.full((3, 2), 0.5), atol=1e-12)
    assert augmented.shape == (5, 1, 1)


def test_mirror_symmetry_mirrors_the_column_centroid():
    rng = np.random.RandomState(9)
    x = rng.uniform(-2, 2, (1, 5, 8))
    c, _ = center_of_mass(f64(x))
    cf, _ = center_of_mass(f64(x[:, :, ::-1].copy()))
    np.testing.assert_allclose(cf.data[0, 0], c.data[0, 0], atol=1e-12)
    np.testing.assert_allclose(cf.data[0, 1], 1.0 - c.data[0, 1], atol=1e-12)
