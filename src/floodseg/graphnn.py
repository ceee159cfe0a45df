"""Graph layers used at the network bottleneck.

The bottleneck feature grid is treated as a graph: one node per spatial cell,
edges between neighbouring cells. ``gat_conv`` mixes node features with
learned attention over each node's neighbourhood (self-loop included),
``cheb_conv`` applies a Chebyshev polynomial of the rescaled normalized
Laplacian, and ``center_of_mass`` appends per-channel soft-centroid
coordinates as two extra constant feature channels.

What the model path holds: a ``Graph`` keeps only its sorted edge pairs, its
``NormalizedLaplacian`` writes the dense ``matrix`` and ``scaled`` from them,
and ``gat_conv`` makes its attention mask per call. ``Graph.adjacency()`` and
``Graph.attention_mask()`` are dense float64 views, built and cached only
when called; no layer reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (ShapeError, Tensor, concat, leaky_relu, matmul, reshape, softmax,
                     tmean, transpose)


class Graph:
    """Undirected graph over nodes 0..node_count-1.

    Edges are stored once, as sorted (u, v) pairs with u < v, in an (E, 2)
    array; self-loops are rejected here and added implicitly where a
    neighbourhood needs them (attention). That array is all a graph holds
    until ``adjacency()`` or ``attention_mask()`` is called.
    """

    def __init__(self, node_count: int, edges):
        if node_count < 1:
            raise ValueError(f"Graph: node_count must be positive, got {node_count}")
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size and pairs.shape[1:] != (2,):
            raise ValueError(f"Graph: edges must be (u, v) pairs, got shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        # one key per edge, ordered as (min, max): sorting the keys sorts the edges
        keys = lo * node_count + hi
        unique, first = np.unique(keys, return_index=True)
        bad = (lo == hi) | (lo < 0) | (hi >= node_count)
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
        self._pairs = np.stack(np.divmod(unique, node_count), axis=1)
        self._adjacency = None
        self._attention_mask = None

    @property
    def edges(self) -> list:
        """The sorted (u, v) pairs, u < v, as a list of int tuples, built on each access."""
        return list(map(tuple, self._pairs.tolist()))

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self._pairs.ravel(), minlength=self.node_count)

    def neighbourhood(self, dtype, inside: float, outside: float) -> np.ndarray:
        """A fresh (n, n) ``dtype`` array: ``inside`` on the edges (both ways)
        and the diagonal, ``outside`` elsewhere. Nothing is cached."""
        out = np.full((self.node_count, self.node_count), outside, dtype=dtype)
        u, v = self._pairs.T
        out[u, v] = out[v, u] = inside
        np.fill_diagonal(out, inside)
        return out

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency without self-loops (float64), built and
        cached on the first call; no layer reads it."""
        if self._adjacency is None:
            u, v = self._pairs.T
            self._adjacency = np.zeros((self.node_count, self.node_count))
            self._adjacency[u, v] = self._adjacency[v, u] = 1.0
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

    ``matrix`` is I - D^-1/2 A D^-1/2 with zero rows for isolated nodes;
    ``scaled`` subtracts the identity, pinning the spectrum into [-1, 1]
    (the largest eigenvalue of ``matrix`` is taken as 2). Both are dense
    float64, written from the graph's edge pairs without its adjacency.
    """

    def __init__(self, graph: Graph):
        deg = graph.degrees
        connected = deg > 0
        inv_sqrt = np.zeros(graph.node_count)
        inv_sqrt[connected] = 1.0 / np.sqrt(deg[connected])
        # -0.0 off the edges, as the product -d_u^-1/2 * A * d_v^-1/2 gives
        lap = np.full((graph.node_count, graph.node_count), -0.0)
        u, v = graph._pairs.T
        lap[u, v] = lap[v, u] = -inv_sqrt[u] * inv_sqrt[v]
        np.fill_diagonal(lap, connected)
        self.node_count = graph.node_count
        self.matrix = lap
        self.scaled = lap.copy()
        self.scaled[np.diag_indices(graph.node_count)] -= 1.0
        self._tensors: dict = {}

    def scaled_tensor(self, dtype) -> Tensor:
        key = np.dtype(dtype)
        if key not in self._tensors:
            self._tensors[key] = Tensor(self.scaled.astype(key))
        return self._tensors[key]


def normalized_laplacian(graph: Graph) -> NormalizedLaplacian:
    return NormalizedLaplacian(graph)


@dataclass
class GatParams:
    """Attention layer parameters: feature projection, edge scorer, slope."""

    weight: Tensor            # (out_dim, in_dim)
    attn: Tensor              # (2 * out_dim,)
    slope: float = 0.2

    def __post_init__(self):
        if self.weight.data.ndim != 2:
            raise ShapeError(f"GatParams: weight must be 2-D, got {self.weight.data.shape}")
        out_dim = self.weight.data.shape[0]
        if self.attn.data.shape != (2 * out_dim,):
            raise ShapeError(f"GatParams: attn shape {self.attn.data.shape} != ({2 * out_dim},)")

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[0]


_MASK_OFF = 1e30


def gat_conv(features: Tensor, graph: Graph, params: GatParams, return_attention: bool = False):
    """Attention-weighted neighbourhood mixing over graph nodes.

    Each node attends to its neighbours and itself: scores are a leaky-relu
    of a learned linear form on the projected feature pair, normalized with a
    softmax per node, and the output is a leaky-relu of the attention-weighted
    sum of projected neighbour features. Off-neighbourhood entries are pushed
    to -1e30 before the softmax so they contribute exactly zero weight.

    The 0/1 mask and the -1e30 offset are made per call by
    ``graph.neighbourhood`` in the features' dtype, and nothing is cached. A
    recorded call keeps three n x n arrays on the tape (the leaky relu
    output, the mask and the attention) and peaks at five; without a tape it
    peaks at three.
    """
    if features.data.ndim != 2:
        raise ShapeError(f"gat_conv: features must be (nodes, dim), got {features.data.shape}")
    n, f = features.data.shape
    if n != graph.node_count:
        raise ShapeError(f"gat_conv: {n} feature rows for {graph.node_count} graph nodes")
    if f != params.in_dim:
        raise ShapeError(f"gat_conv: feature dim {f} != layer in_dim {params.in_dim}")
    fo = params.out_dim
    dtype = features.data.dtype

    z = matmul(features, transpose(params.weight))              # (n, out)
    attn_col = reshape(params.attn, (2 * fo, 1))
    source_score = matmul(z, attn_col[:fo, :])                  # (n, 1)
    target_score = matmul(z, attn_col[fo:, :])                  # (n, 1)
    scores = leaky_relu(source_score + transpose(target_score), params.slope)

    # each n x n reference goes once its consumer has run
    masked = scores * Tensor(graph.neighbourhood(dtype, 1.0, 0.0))
    del scores
    masked = masked + Tensor(graph.neighbourhood(dtype, 0.0, -_MASK_OFF))
    attention = softmax(masked, axis=1)
    del masked
    out = leaky_relu(matmul(attention, z), params.slope)
    if return_attention:
        return out, attention
    return out


@dataclass
class ChebParams:
    """One weight matrix per Chebyshev polynomial order, 0..K."""

    thetas: list = field(default_factory=list)

    def __post_init__(self):
        if not self.thetas:
            raise ShapeError("ChebParams: need at least theta_0")
        shape = self.thetas[0].data.shape
        for i, th in enumerate(self.thetas):
            if th.data.ndim != 2 or th.data.shape != shape:
                raise ShapeError(f"ChebParams: theta_{i} shape {th.data.shape} != {shape}")

    @property
    def order(self) -> int:
        return len(self.thetas) - 1

    @property
    def in_dim(self) -> int:
        return self.thetas[0].data.shape[1]


def cheb_conv(features: Tensor, laplacian: NormalizedLaplacian, params: ChebParams) -> Tensor:
    """Chebyshev-polynomial graph filter of the rescaled Laplacian.

    Builds T_0 = X, T_1 = L~ X, T_k = 2 L~ T_{k-1} - T_{k-2} and returns
    sum_k T_k theta_k^T. Order 0 never touches the Laplacian, so it is the
    graph-independent linear map X theta_0^T.
    """
    if features.data.ndim != 2:
        raise ShapeError(f"cheb_conv: features must be (nodes, dim), got {features.data.shape}")
    n, f = features.data.shape
    if n != laplacian.node_count:
        raise ShapeError(f"cheb_conv: {n} feature rows for {laplacian.node_count} graph nodes")
    if f != params.in_dim:
        raise ShapeError(f"cheb_conv: feature dim {f} != layer in_dim {params.in_dim}")

    out = matmul(features, transpose(params.thetas[0]))
    if params.order == 0:
        return out
    lap = laplacian.scaled_tensor(features.data.dtype)
    t_prev, t_curr = features, matmul(lap, features)
    out = out + matmul(t_curr, transpose(params.thetas[1]))
    for k in range(2, params.order + 1):
        t_next = 2.0 * matmul(lap, t_curr) - t_prev
        out = out + matmul(t_next, transpose(params.thetas[k]))
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
