"""Graph layers used at the network bottleneck.

The bottleneck feature grid is treated as a graph: one node per spatial cell,
edges between neighbouring cells. ``gat_conv(features, graph, weight, attn)``
mixes node features by learned attention over each node's neighbourhood and
itself, both leaky-relus at GAT's slope ``tensor.LEAKY_SLOPE`` (0.2);
``cheb_conv(features, laplacian, thetas)`` applies a Chebyshev polynomial of
the rescaled normalized Laplacian; ``center_of_mass`` appends per-channel
soft-centroid coordinates as two extra constant feature channels.

Both layers sum over neighbourhoods with the tape primitive
``neighbour_sum``, through the graph's neighbour table ``Graph.index``, in
O(n D) for n nodes and D - 1 the largest degree.

What the model path holds: a ``Graph`` keeps its neighbour table and, built
with it, its degrees, the table's used-slot mask and its partner slots; its
``NormalizedLaplacian`` keeps the rescaled Laplacian in the table's layout,
in float64, and the dense float64 ``matrix`` and ``scaled``, which no layer
reads. ``gat_conv`` still scores every node pair and makes its attention
mask per call. ``Graph.adjacency()`` and ``Graph.attention_mask()`` are
dense float64 views, built and cached only when called; no layer reads them.
"""

from __future__ import annotations

import numbers

import numpy as np

from .tensor import (ShapeError, Tensor, concat, leaky_relu, matmul, record_op, reshape,
                     softmax, tmean, transpose)


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Graph:
    """Undirected graph over nodes 0..node_count-1, held as one neighbour table.

    ``index`` is (n, D), D the largest degree plus one: row i is i, then i's
    neighbours in ascending order, then i again in any spare slot (self-loops
    are refused). Built with it: ``degrees``; ``used``, the mask of slot 0 and
    the neighbour slots; and ``partner``, whose entry for slot (i, d) is the
    flat slot j * D + e with ``index[j, e] == i``, j = ``index[i, d]`` (a slot
    pointing at its own row is its own partner). Every other view is read
    off the table; only ``adjacency()`` and ``attention_mask()`` are cached.
    """

    def __init__(self, node_count: int, edges):
        if not is_int(node_count) or node_count < 1:
            raise ValueError(f"Graph: node_count must be a positive integer, got {node_count}")
        try:
            pairs = np.asarray(edges)
        except ValueError:      # a ragged list
            raise ValueError("Graph: edges must be (u, v) pairs, got a ragged list") from None
        if pairs.size and pairs.shape[1:] != (2,):
            raise ValueError(f"Graph: edges must be (u, v) pairs, got shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        # numpy reads a bool beside ints as an int: a list's ids are checked one by one
        if pairs.size and not (isinstance(edges, np.ndarray) and pairs.dtype.kind in "iu"):
            for u, v in np.asarray(edges, dtype=object).reshape(-1, 2):
                if not (is_int(u) and is_int(v)):
                    raise ValueError(f"Graph: edge ({u},{v}) has a node id that is not an integer")
                if not -2**63 <= min(u, v) <= max(u, v) < 2**63:     # past what int64 holds
                    raise ValueError(f"Graph: edge ({u},{v}) outside 0..{node_count - 1}")
            pairs = pairs.astype(np.int64)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        # tested on the ids' own dtype: a uint64 id past int64 would wrap in the cast
        bad = (lo == hi) | (lo < 0) | (hi >= node_count)
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        # one key per edge, ordered as (min, max): sorting the keys sorts the edges
        keys = lo * node_count + hi
        unique, first = np.unique(keys, return_index=True)
        faulty = bad | ~np.isin(np.arange(keys.size), first)    # bad, or a key seen before
        if faulty.any():
            # the first faulty edge in input order; one that is not bad repeats
            # an earlier edge that is not bad either, so it is a real duplicate
            i = np.argmax(faulty)
            u, v = pairs[i].tolist()
            if u == v:
                raise ValueError(f"Graph: self-loop on node {u} is not allowed")
            if bad[i]:
                raise ValueError(f"Graph: edge ({u},{v}) outside 0..{node_count - 1}")
            raise ValueError(f"Graph: duplicate edge {(min(u, v), max(u, v))}")
        self.node_count = node_count
        # both directions of every edge, sorted by (row, neighbour); a neighbour's
        # slot is 1 + the number of neighbours listed before it in its row
        rows, cols = np.divmod(np.sort(np.concatenate(
            [unique, unique % node_count * node_count + unique // node_count])), node_count)
        deg = self.degrees = np.bincount(rows, minlength=node_count)
        width = deg.max() + 1
        flat = rows * width + np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg) + 1
        index = np.repeat(np.arange(node_count), width)
        index[flat] = cols
        # reversing every (row, neighbour) key permutes the sorted keys, so the
        # reversed keys' argsort is, per key, the position of its reverse
        partner = np.arange(node_count * width)
        partner[flat] = flat[np.argsort(cols * node_count + rows)]
        self.index, self.partner = index.reshape(-1, width), partner.reshape(-1, width)
        self.used = np.arange(width) <= deg[:, None]
        self._adjacency = None
        self._attention_mask = None

    @property
    def edges(self) -> list:
        """The sorted (u, v) pairs, u < v, as a list of int tuples, built on each access."""
        u, d = np.nonzero(self.index > np.arange(self.node_count)[:, None])
        return list(zip(u.tolist(), self.index[u, d].tolist()))

    def neighbourhood(self, dtype, inside: float, outside: float) -> np.ndarray:
        """A fresh (n, n) ``dtype`` array: ``inside`` on the edges (both ways)
        and the diagonal, ``outside`` elsewhere. Nothing is cached."""
        out = np.full((self.node_count, self.node_count), outside, dtype=dtype)
        out[np.arange(self.node_count)[:, None], self.index] = inside
        return out

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency without self-loops (float64), built and
        cached on the first call; no layer reads it."""
        if self._adjacency is None:
            self._adjacency = self.neighbourhood(np.float64, 1.0, 0.0)
            np.fill_diagonal(self._adjacency, 0.0)
        return self._adjacency

    def attention_mask(self) -> np.ndarray:
        """Adjacency plus the identity (float64), built and cached, with the
        adjacency, on the first call; ``gat_conv`` uses ``neighbourhood`` instead."""
        if self._attention_mask is None:
            self._attention_mask = self.adjacency().copy()
            np.fill_diagonal(self._attention_mask, 1.0)
        return self._attention_mask


def build_grid_graph(height: int, width: int, connectivity: int = 4) -> Graph:
    """Grid graph over row-major cells; connectivity 4 or 8 (adds diagonals)."""
    if connectivity not in (4, 8):
        raise ValueError(f"build_grid_graph: connectivity must be 4 or 8, got {connectivity}")
    if height < 1 or width < 1:
        raise ValueError(f"build_grid_graph: grid {height}x{width} is empty")
    cells = np.arange(height * width).reshape(height, width)
    ends = [(cells[:, :-1], cells[:, 1:]), (cells[:-1], cells[1:])]
    if connectivity == 8:
        ends += [(cells[:-1, :-1], cells[1:, 1:]), (cells[:-1, 1:], cells[1:, :-1])]
    edges = np.concatenate([np.stack([a.ravel(), b.ravel()], axis=1) for a, b in ends])
    return Graph(height * width, edges)


class NormalizedLaplacian:
    """Symmetric normalized Laplacian and its [-1, 1]-rescaled form.

    ``weights`` is the rescaled Laplacian L~ in the layout of ``graph.index``
    (slot 0 the diagonal, -d_i^-1/2 d_j^-1/2 for neighbour j, 0 in spare
    slots), in float64; ``cheb_conv`` reads only it and ``graph``. ``scaled``
    is the same L~, dense float64, and ``matrix`` = ``scaled`` + I is
    I - D^-1/2 A D^-1/2 with zero rows for isolated nodes (its largest
    eigenvalue is taken as 2, which pins ``scaled``'s spectrum into [-1, 1]).
    No layer reads either.
    """

    def __init__(self, graph: Graph):
        n, index = graph.node_count, graph.index
        connected = graph.degrees > 0
        inv_sqrt = np.zeros(n)
        inv_sqrt[connected] = 1.0 / np.sqrt(graph.degrees[connected])
        self.node_count = n
        self.graph = graph
        self.weights = np.where(graph.used, -inv_sqrt[:, None] * inv_sqrt[index], 0.0)
        self.weights[:, 0] = connected - 1.0
        # -0.0 off the edges, as the product -d_u^-1/2 * A * d_v^-1/2 gives; the
        # diagonal is written last, over the spare slots' zeros
        self.scaled = np.full((n, n), -0.0)
        self.scaled[np.arange(n)[:, None], index] = self.weights
        self.scaled[np.diag_indices(n)] = self.weights[:, 0]
        self.matrix = self.scaled.copy()
        self.matrix[np.diag_indices(n)] += 1.0


def normalized_laplacian(graph: Graph) -> NormalizedLaplacian:
    return NormalizedLaplacian(graph)


def neighbour_sum(w: Tensor, x: Tensor, graph: Graph) -> Tensor:
    """``out[i] = sum_d w[i, d] * x[index[i, d]]`` for an (n, D) weight ``w``, an
    (n, f) ``x`` and the graph's (n, D) neighbour table ``index``.

    The table is symmetric: i is in row j exactly when j is in row i, once,
    and row i's other slots point at i. So each slot has one partner slot
    pointing back, ``graph.partner``, and ``x``'s gradient is a gather through
    it, ``dx[j] = sum_e w[partner(j, e)] * g[index[j, e]]``, with no
    scatter-add. A call gathers one (n, D, f) copy of its operand; a
    recorded one keeps ``w`` and ``x`` as they are.
    """
    index = graph.index
    if w.data.shape != index.shape or x.data.ndim != 2 or x.data.shape[0] != index.shape[0]:
        raise ShapeError(f"neighbour_sum: weights {w.data.shape} and features {x.data.shape} "
                         f"do not fit a neighbour table {index.shape}")
    out = np.einsum("nd,ndf->nf", w.data, x.data[index])
    x_data = x.data if w.requires_grad else None
    w_data = w.data if x.requires_grad else None

    def backward(g):
        return (None if x_data is None else np.einsum("nf,ndf->nd", g, x_data[index]),
                None if w_data is None else
                np.einsum("nd,ndf->nf", w_data.reshape(-1)[graph.partner], g[index]))

    return record_op(out, (w, x), backward)


_MASK_OFF = 1e30


def gat_conv(features: Tensor, graph: Graph, weight: Tensor, attn: Tensor,
             return_attention: bool = False):
    """Attention-weighted neighbourhood mixing over graph nodes.

    Each node attends to its neighbours and itself: scores are a leaky-relu
    of the linear form ``attn`` (2 out_dim,) on the pair of features projected
    by ``weight`` (out_dim, in_dim), normalized with a softmax per node, and the
    output is a leaky-relu of the attention-weighted sum of projected neighbour
    features. Off-neighbourhood entries are pushed to -1e30 before the softmax
    so they contribute exactly zero weight.

    The scores, the 0/1 mask, the -1e30 offset and the softmax are dense
    n x n: the mask and the offset are made per call by ``graph.neighbourhood``
    in the features' dtype, and nothing is cached. The weighted sum is a
    ``neighbour_sum`` over ``graph.index`` of the attention read at the
    table's slots, spare slots zeroed by ``graph.used``, so it costs O(n D). A recorded call
    keeps three n x n arrays on the tape (the leaky relu output, the mask and
    the attention) and peaks at five; without a tape it peaks at three.
    """
    if features.data.ndim != 2:
        raise ShapeError(f"gat_conv: features must be (nodes, dim), got {features.data.shape}")
    n, f = features.data.shape
    if n != graph.node_count:
        raise ShapeError(f"gat_conv: {n} feature rows for {graph.node_count} graph nodes")
    if weight.data.ndim != 2 or weight.data.shape[1] != f:
        raise ShapeError(f"gat_conv: weight must be (out_dim, {f}), got {weight.data.shape}")
    fo = weight.data.shape[0]
    if attn.data.shape != (2 * fo,):
        raise ShapeError(f"gat_conv: attn shape {attn.data.shape} != ({2 * fo},)")
    dtype = features.data.dtype

    z = matmul(features, transpose(weight))                     # (n, out)
    attn_col = reshape(attn, (2 * fo, 1))
    source_score = matmul(z, attn_col[:fo, :])                  # (n, 1)
    target_score = matmul(z, attn_col[fo:, :])                  # (n, 1)
    scores = leaky_relu(source_score + transpose(target_score))

    # each n x n reference goes once its consumer has run
    masked = scores * Tensor(graph.neighbourhood(dtype, 1.0, 0.0))
    del scores
    masked = masked + Tensor(graph.neighbourhood(dtype, 0.0, -_MASK_OFF))
    attention = softmax(masked, axis=1)
    del masked
    weights = attention[np.arange(n)[:, None], graph.index] * Tensor(graph.used.astype(dtype))
    out = leaky_relu(neighbour_sum(weights, z, graph))
    if return_attention:
        return out, attention
    return out


def cheb_conv(features: Tensor, laplacian: NormalizedLaplacian, thetas) -> Tensor:
    """Chebyshev-polynomial graph filter of the rescaled Laplacian.

    ``thetas`` holds one (out_dim, in_dim) weight per order, 0..K. Builds
    T_0 = X, T_1 = L~ X, T_k = 2 L~ T_{k-1} - T_{k-2} and returns
    sum_k T_k theta_k^T. Order 0 never touches the Laplacian, so it is the
    graph-independent linear map X theta_0^T.

    Each L~ T is a ``neighbour_sum`` of the Laplacian's table ``weights``, cast
    per call to the features' dtype (n x D values), so a call holds and
    peaks at O(n (D + f)) and never an n x n array. An isolated node's
    diagonal entry is -1, which maps its features to their negation.
    """
    if features.data.ndim != 2:
        raise ShapeError(f"cheb_conv: features must be (nodes, dim), got {features.data.shape}")
    n, f = features.data.shape
    if n != laplacian.node_count:
        raise ShapeError(f"cheb_conv: {n} feature rows for {laplacian.node_count} graph nodes")
    if not thetas:
        raise ShapeError("cheb_conv: need at least theta_0")
    shape = thetas[0].data.shape
    if len(shape) != 2 or shape[1] != f:
        raise ShapeError(f"cheb_conv: theta_0 must be (out_dim, {f}), got {shape}")
    for k, theta in enumerate(thetas):
        if theta.data.shape != shape:
            raise ShapeError(f"cheb_conv: theta_{k} shape {theta.data.shape} != {shape}")

    out = matmul(features, transpose(thetas[0]))
    if len(thetas) == 1:
        return out
    weights = Tensor(laplacian.weights.astype(features.data.dtype, copy=False))
    t_prev, t_curr = features, neighbour_sum(weights, features, laplacian.graph)
    out = out + matmul(t_curr, transpose(thetas[1]))
    for theta in thetas[2:]:
        t_next = 2.0 * neighbour_sum(weights, t_curr, laplacian.graph) - t_prev
        out = out + matmul(t_next, transpose(theta))
        t_prev, t_curr = t_curr, t_next
    return out


def _axis_coords(extent: int, dtype) -> np.ndarray:
    if extent == 1:
        return np.full(1, 0.5, dtype=dtype)
    return (np.arange(extent) / (extent - 1)).astype(dtype)


def center_of_mass(features: Tensor):
    """Soft centroid per channel, plus the grid augmented with centroid channels.

    Each channel is softmax-normalized over all of its cells; the centroid is
    the probability-weighted mean of (row, col) coordinates normalized to
    [0, 1]. Returns ``(centroids, augmented)`` where centroids is (C, 2) and
    augmented is the input with two extra channels holding the channel-mean
    row and column centroid broadcast over the grid.
    """
    if features.data.ndim != 3:
        raise ShapeError(f"center_of_mass: expected (C,H,W), got {features.data.shape}")
    c, h, w = features.data.shape
    dtype = features.data.dtype

    rows = np.repeat(_axis_coords(h, dtype), w)[:, None]        # (h*w, 1)
    cols = np.tile(_axis_coords(w, dtype), h)[:, None]

    weights = softmax(reshape(features, (c, h * w)), axis=1)
    row_centroid = matmul(weights, Tensor(rows))                # (c, 1)
    col_centroid = matmul(weights, Tensor(cols))
    centroids = concat([row_centroid, col_centroid], axis=1)

    ones = Tensor(np.ones((1, h, w), dtype=dtype))
    row_channel = tmean(row_centroid) * ones
    col_channel = tmean(col_centroid) * ones
    augmented = concat([features, row_channel, col_channel], axis=0)
    return centroids, augmented
