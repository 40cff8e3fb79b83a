"""Mixed causal graphs, unconditional connection structure, and sign matrices.

A mixed graph stores one edge per unordered vertex pair with one of four
types: ``--`` (tail-tail), ``->`` / ``<-`` (directed), ``<->``
(arrow-arrow). Graphs are validated to be ancestral on construction.

With an empty conditioning set, two vertices are m-connected exactly when
some path between them contains no collider. In an ancestral graph such a
path is a trek: j <- ... <- a, then a top joining a to b (a = b, a <-> b,
or an undirected path a -- ... -- b), then b -> ... -> k. So one
reachability closure over boolean m x m matrices gives the whole relation.
The bidirected graph over the m-connection relation is the unique
representative of a graph's unconditional equivalence class, and the
sign-matrix image of these representatives carries the group and metric
structure used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _decode_json, _integer
from .errors import (
    DimensionMismatchError,
    InvalidGraphError,
    InvalidVertexError,
    NotSquareError,
)

EDGE_TYPES = ("--", "->", "<-", "<->")

_MIRROR = {"--": "--", "->": "<-", "<-": "->", "<->": "<->"}

#: Graph space builds dense m x m matrices and closes them in O(m^3 log m).
_MAX_VERTICES = 1000


@dataclass(frozen=True, eq=False)
class MixedGraph:
    """Ancestral mixed graph over vertices 0..m-1, with m at most 1000. ``edges``
    maps each pair (j, k) to its type as seen from j; a None type is no edge, so
    a graph can be rebuilt from ``edge_type``'s outputs."""

    m: int
    edges: dict

    def __post_init__(self):
        if self.m < 1:
            raise InvalidGraphError(f"need at least 1 vertex, got {self.m}")
        if self.m > _MAX_VERTICES:
            raise InvalidGraphError(
                f"graph has {self.m} vertices, more than the {_MAX_VERTICES} supported"
            )
        canonical = {}
        for (j, k), etype in self.edges.items():
            if etype is None:
                continue
            if etype not in EDGE_TYPES:
                raise InvalidGraphError(f"unknown edge type {etype!r}")
            if j == k:
                raise InvalidGraphError(f"self-edge at vertex {j}")
            if not (0 <= j < self.m and 0 <= k < self.m):
                raise InvalidVertexError(f"edge ({j}, {k}) outside vertex range")
            if j > k:
                j, k, etype = k, j, _MIRROR[etype]
            if (j, k) in canonical and canonical[(j, k)] != etype:
                raise InvalidGraphError(f"conflicting edge types for pair ({j}, {k})")
            canonical[(j, k)] = etype
        object.__setattr__(self, "edges", canonical)
        _check_ancestral(self)

    def edge_type(self, j: int, k: int):
        """Edge type as seen from (j, k); None when the pair is non-adjacent."""
        if not (0 <= j < self.m and 0 <= k < self.m):
            raise InvalidVertexError(f"vertex pair ({j}, {k}) outside range")
        if j == k:
            return None
        if j < k:
            return self.edges.get((j, k))
        mirrored = self.edges.get((k, j))
        return None if mirrored is None else _MIRROR[mirrored]


def _adjacency(graph: MixedGraph):
    """``parent[a, v]`` for a -> v, and the symmetric bidirected and undirected adjacencies."""
    marks = {etype: np.zeros((graph.m, graph.m), dtype=bool) for etype in EDGE_TYPES}
    for pair, etype in graph.edges.items():
        marks[etype][pair] = True
    spouse = marks["<->"] | marks["<->"].T
    undirected = marks["--"] | marks["--"].T
    return marks["->"] | marks["<-"].T, spouse, undirected


def _reach(a, b):
    """Boolean product: some c has ``a[i, c]`` and ``b[c, j]``.

    Only ``> 0`` is read from the float32 product, and a sum of non-negative
    terms that includes a positive one cannot round to 0, so it is exact.
    """
    return a.astype(np.float32) @ b.astype(np.float32) > 0


def _closure(adj):
    """Reflexive-transitive closure of a boolean adjacency, by repeated squaring."""
    reach = adj | np.eye(len(adj), dtype=bool)
    while True:
        wider = _reach(reach, reach)
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def _check_ancestral(graph: MixedGraph):
    parent, spouse, _ = _adjacency(graph)
    strict = _reach(parent, _closure(parent))  # a -> ... -> v
    cycle = np.flatnonzero(strict.diagonal())
    if cycle.size:
        raise InvalidGraphError(f"directed cycle through vertex {cycle[0]}")
    almost = spouse & (strict | strict.T)
    arrowhead = (parent | spouse).any(axis=0)
    for (j, k), etype in graph.edges.items():  # the first offending edge, as stored
        if etype == "<->" and almost[j, k]:
            raise InvalidGraphError(f"almost-directed cycle: {j} <-> {k} with an ancestral path")
        if etype == "--" and (arrowhead[j] or arrowhead[k]):
            raise InvalidGraphError(
                f"undirected edge endpoint {j if arrowhead[j] else k} has an incident arrowhead"
            )


def _connected(graph: MixedGraph) -> np.ndarray:
    """The m-connection relation given the empty set: a trek joins j and k."""
    parent, spouse, undirected = _adjacency(graph)
    ancestor = _closure(parent)  # ancestor[a, j]: a -> ... -> j, or a = j
    top = _closure(undirected) | spouse
    conn = _reach(_reach(ancestor.T, top), ancestor)
    np.fill_diagonal(conn, False)
    return conn


@dataclass(frozen=True, eq=False)
class BidirectedRepresentative:
    """Unconditional m-connection relation as a symmetric boolean matrix."""

    m: int
    connected: np.ndarray

    def __post_init__(self):
        conn = np.asarray(self.connected, dtype=bool)
        if conn.shape != (self.m, self.m):
            raise DimensionMismatchError(
                f"connection matrix shape {conn.shape} does not match m={self.m}"
            )
        if not np.array_equal(conn, conn.T):
            raise InvalidGraphError("connection matrix must be symmetric")
        if conn.diagonal().any():
            raise InvalidGraphError("connection matrix must have a false diagonal")
        object.__setattr__(self, "connected", conn)

    def to_graph(self) -> MixedGraph:
        edges = {
            (j, k): "<->"
            for j in range(self.m)
            for k in range(j + 1, self.m)
            if self.connected[j, k]
        }
        return MixedGraph(self.m, edges)


def representative(graph: MixedGraph) -> BidirectedRepresentative:
    """Bidirected representative of the graph's unconditional equivalence class:
    ``connected[j, k]`` is True when some path from j to k contains no collider."""
    return BidirectedRepresentative(m=graph.m, connected=_connected(graph))


def hamming_product(a, b):
    """Pairwise edge-type agreement (mutual absence included) as a bidirected graph.

    Accepts two MixedGraphs (returns a bidirected-only MixedGraph) or two
    representatives (returns a representative).
    """
    if a.m != b.m:
        raise DimensionMismatchError(f"vertex counts differ: {a.m} vs {b.m}")
    if isinstance(a, BidirectedRepresentative) and isinstance(b, BidirectedRepresentative):
        agree = a.connected == b.connected
        np.fill_diagonal(agree, False)
        return BidirectedRepresentative(m=a.m, connected=agree)
    edges = {}
    for j in range(a.m):
        for k in range(j + 1, a.m):
            if a.edge_type(j, k) == b.edge_type(j, k):
                edges[(j, k)] = "<->"
    return MixedGraph(a.m, edges)


def graph_distance(u: BidirectedRepresentative, u_prime: BidirectedRepresentative) -> int:
    """Number of ordered off-diagonal pairs where the representatives disagree."""
    if u.m != u_prime.m:
        raise DimensionMismatchError(f"vertex counts differ: {u.m} vs {u_prime.m}")
    return int(np.sum(u.connected != u_prime.connected))


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Symmetric +/-1 matrix with a +1 diagonal."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise NotSquareError(f"sign matrix must be square, got shape {values.shape}")
        values = values.astype(np.int8)
        if not np.isin(values, (-1, 1)).all():
            raise InvalidGraphError("sign matrix entries must be +1 or -1")
        if (values.diagonal() != 1).any():
            raise InvalidGraphError("sign matrix diagonal must be +1")
        if not np.array_equal(values, values.T):
            raise InvalidGraphError("sign matrix must be symmetric")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def elementwise_product(self, other: "SignMatrix") -> "SignMatrix":
        if self.m != other.m:
            raise DimensionMismatchError(f"sizes differ: {self.m} vs {other.m}")
        return SignMatrix(self.values * other.values)

    def frobenius_inner(self, other: "SignMatrix") -> int:
        if self.m != other.m:
            raise DimensionMismatchError(f"sizes differ: {self.m} vs {other.m}")
        return int(np.sum(self.values.astype(np.int64) * other.values))


def sign_map(u: BidirectedRepresentative) -> SignMatrix:
    """+1 where connected or on the diagonal, -1 elsewhere."""
    values = np.where(u.connected, 1, -1).astype(np.int8)
    np.fill_diagonal(values, 1)
    return SignMatrix(values)


def sign_of_statistic(statistic: np.ndarray) -> SignMatrix:
    """Sign pattern of a square matrix: +1 for strictly positive or diagonal entries."""
    statistic = np.asarray(statistic, dtype=np.float64)
    if statistic.ndim != 2 or statistic.shape[0] != statistic.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {statistic.shape}")
    values = np.where(statistic > 0.0, 1, -1).astype(np.int8)
    np.fill_diagonal(values, 1)
    return SignMatrix(values)


def graph_from_json(payload) -> MixedGraph:
    """Graph from ``{"vertices": m, "edges": [[j, k, type], ...]}`` or its UTF-8 JSON text.

    Text that is not UTF-8 JSON, a ``vertices`` count that is missing, not an
    integer or above 1000 (the ``MixedGraph`` limit), and
    ``edges`` that are not a list of ``[j, k, type]`` with integer endpoints
    raise InvalidGraphError. An integral float such as ``2.0`` counts as an
    integer; a bool, a string or ``1.5`` does not. One pair given two types,
    in either order, raises it too.
    """
    if isinstance(payload, (str, bytes)):
        payload = _decode_json(payload, InvalidGraphError, "graph")
    if not isinstance(payload, dict):
        raise InvalidGraphError("graph JSON must be an object with a 'vertices' count")
    m = _integer(payload.get("vertices"))
    if m is None:
        raise InvalidGraphError("graph JSON needs an integer 'vertices' count")
    entries = payload.get("edges", [])
    if not isinstance(entries, list):
        raise InvalidGraphError("graph JSON 'edges' must be a list of [j, k, type]")
    edges = {}
    for entry in entries:
        try:
            j, k, etype = entry
        except (TypeError, ValueError):
            j = k = None
        pair = (_integer(j), _integer(k))
        if None in pair:
            raise InvalidGraphError(f"edge entry {entry!r} is not [j, k, type]")
        if edges.setdefault(pair, str(etype)) != str(etype):
            raise InvalidGraphError(f"conflicting edge types for pair {pair}")
    return MixedGraph(m, edges)
