"""Z2 homology: Betti numbers, (co)homology bases, minimum-weight bases.

Both minimum bases come from one candidate-cycle (Horton) greedy over a
weighted graph: one shortest-path tree per vertex, one candidate cycle per
(tree, non-tree edge) pair, kept in weight order while its annotation is
independent of those kept before.  Following Busaryev, Cabello, Chen, Dey
and Wang (SWAT 2012), every edge carries a beta-bit annotation, and a
cycle's annotation, the xor over its edges, is a linear map whose kernel
is the cycles to ignore.  Each tree labels its vertices with the
annotations of their tree paths, so a candidate is ranked by its weight
and its annotation without being built; only proper candidates, whose
two tree paths leave the root by different edges, are kept, and a
candidate's edge bitset is built only in the weight groups the greedy
reaches.  For homology the graph is the 1-skeleton and an edge's
annotation the homology coordinates of its fundamental cycle in a
spanning tree.  For cohomology on a closed surface the graph is the dual
graph, whose cycles are exactly the 1-cocycles, and a dual edge's
annotation says which homology basis cycles hold its primal edge: the
pairing, which vanishes exactly on coboundaries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .complexes import Chain, Complex, boundary_matrix, dual_graph
from .errors import InputError, InternalError
from .gf2 import GF2Vector, Pivots, _bit_indices, _insert, _reduce, _reindex, kernel_basis, rank

__all__ = [
    "HomologyBasis",
    "WeightedChain",
    "betti",
    "homology_basis",
    "min_homology_basis",
    "min_cohomology_basis",
]


@dataclass(frozen=True)
class WeightedChain:
    """A chain with its total edge weight (used for basis cycles/cocycles)."""

    chain: Chain
    weight: float


class HomologyBasis:
    """beta_p cycles whose classes form a basis of H_p, plus coordinates.

    ``coordinates(z)`` returns c with z + sum(c_i * cycles[i]) a boundary.
    Built only by :func:`homology_basis`, whose pivot dict, the fourth
    argument, holds the columns of ∂_{p+1} (combo 0) and the accepted
    cycles (cycle i with combo bit i) reduced together: a cycle reduces
    to 0 over it, and the combos it picks up are its coordinates.
    """

    def __init__(self, K: Complex, p: int, cycles: List[Chain], pivots: Pivots):
        self.K = K
        self.dimension = p
        self.cycles = cycles
        self._pivots = pivots

    def __len__(self) -> int:
        return len(self.cycles)

    def coordinates(self, z: Chain) -> GF2Vector:
        if z.dimension != self.dimension or z.support.length != self.K.n(self.dimension):
            raise InputError("coordinates: chain does not live in this complex/dimension")
        residue, combo = _reduce(self._pivots, z.support.bits)
        if residue:
            raise InputError("coordinates: input is not a cycle of this complex")
        return GF2Vector(len(self.cycles), combo)

    def is_bounding(self, z: Chain) -> bool:
        return self.coordinates(z).bits == 0

    def combine(self, coeffs: GF2Vector) -> Chain:
        """The cycle sum(coeffs_i * cycles[i])."""
        if coeffs.length != len(self.cycles):
            raise InputError("combine: coefficient length mismatch")
        bits = 0
        for i in _bit_indices(coeffs.bits):
            bits ^= self.cycles[i].support.bits
        return self.K.chain_from_bits(self.dimension, bits)


def betti(K: Complex, p: int) -> int:
    if not (K.lo <= p <= K.hi):
        raise InputError(f"dimension {p} outside window [{K.lo},{K.hi}]")
    dp = boundary_matrix(K, p)
    cycles = K.n(p) - rank(dp)
    return cycles - rank(boundary_matrix(K, p + 1))


def homology_basis(K: Complex, p: int) -> HomologyBasis:
    """Deterministic homology basis: kernel vectors of ∂_p kept greedily
    while independent modulo the boundary columns."""
    if not (K.lo <= p <= K.hi):
        raise InputError(f"dimension {p} outside window [{K.lo},{K.hi}]")
    pivots: Pivots = {}
    for col in boundary_matrix(K, p + 1).cols:
        _insert(pivots, col)
    cycles: List[Chain] = []
    for z in kernel_basis(boundary_matrix(K, p)).cols:
        if _insert(pivots, z, 1 << len(cycles))[0]:
            cycles.append(K.chain_from_bits(p, z))
    return HomologyBasis(K, p, cycles, pivots)


def _horton_greedy(
    nverts: int,
    ends: List[Tuple[int, int]],
    weights: List[float],
    ann: List[int],
    beta: int,
) -> List[Tuple[int, float]]:
    """The first beta candidate cycles of a connected graph, in (weight,
    edge indices) order, whose annotations are independent; each as
    (edge bitset, weight).

    Vertices are 0..nverts-1, edge i joins ends[i] and ann[i] is its
    annotation, a beta-bit int; a cycle's annotation is the xor over its
    edges.  Shortest-path trees break ties by (distance, vertex) and scan
    neighbors by (vertex, edge).  Each tree labels every vertex with the
    annotation of its tree path, so a candidate's annotation is the xor of
    two labels and one edge's.  A candidate is kept only if that is nonzero
    and the candidate is proper: its two tree paths leave the root by
    different edges (or one end is the root), so its key
    dist + dist + weight is the cycle's exact weight.  Edge bitsets are
    built from the kept parent arrays only in the weight groups the greedy
    reaches; there equal cycles are merged and ordered by (weight, edge
    indices).  Raises InputError unless the first tree spans the graph.
    """
    if not nverts:
        raise InputError("complex must be connected; run per component")
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(nverts)]
    for ei, (a, b) in enumerate(ends):
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    for nbrs in adj:
        nbrs.sort()

    inf = float("inf")
    keys: List[Tuple[float, int, int]] = []
    parents: List[List[int]] = []
    for root in range(nverts):
        # Dijkstra; parent[v] = index of the tree edge into v, lab[v] = the
        # annotation of the tree path to v, branch[v] = its first edge
        dist = [inf] * nverts
        parent = [-1] * nverts
        lab = [0] * nverts
        branch = [-1] * nverts
        settled = 0
        dist[root] = 0
        heap: List[Tuple[float, int]] = [(0, root)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:  # a stale entry: u was settled closer
                continue
            settled += 1
            pe = parent[u]
            if pe >= 0:
                a, b = ends[pe]
                t = a ^ b ^ u
                lab[u] = lab[t] ^ ann[pe]
                branch[u] = pe if t == root else branch[t]
            for v, ei in adj[u]:
                nd = d + weights[ei]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = ei
                    heapq.heappush(heap, (nd, v))
        if settled < nverts:
            raise InputError("complex must be connected; run per component")
        if beta == 0:
            return []
        parents.append(parent)
        for ei, (a, b) in enumerate(ends):
            # tree edges and improper candidates share a branch, except a
            # root edge, whose annotation cancels
            if branch[a] != branch[b] and lab[a] ^ lab[b] ^ ann[ei]:
                keys.append((dist[a] + dist[b] + weights[ei], root, ei))
    keys.sort()

    chosen: List[Tuple[int, float]] = []
    pivots: Pivots = {}
    for _, same_weight in groupby(keys, key=itemgetter(0)):
        group: Dict[int, int] = {}  # cycle bitset -> annotation
        for _, root, ei in same_weight:
            parent = parents[root]
            cyc, x = 1 << ei, ann[ei]
            for v in ends[ei]:
                while v != root:
                    pe = parent[v]
                    cyc ^= 1 << pe
                    x ^= ann[pe]
                    a, b = ends[pe]
                    v = a ^ b ^ v
            group[cyc] = x
        ranked = []
        for cyc, x in group.items():
            idx = _bit_indices(cyc)
            ranked.append((sum(weights[i] for i in idx), idx, cyc, x))
        ranked.sort()
        for w, _, cyc, x in ranked:
            if _insert(pivots, x)[0]:
                chosen.append((cyc, w))
                if len(chosen) == beta:
                    return chosen
    raise InternalError("candidate cycles failed to span the annotations")


def min_homology_basis(K: Complex) -> List[WeightedChain]:
    """Minimum-weight H_1 basis, ascending by weight: the greedy on the
    1-skeleton, each edge annotated by the homology coordinates of its
    fundamental cycle in a BFS spanning tree (0 on tree edges)."""
    if not (K.lo <= 0 and 1 <= K.hi):
        raise InputError("window must cover dimensions 0 and 1")
    n = K.n(0)
    vidx = K.index[0]
    ends = [(vidx[(a,)], vidx[(b,)]) for a, b in K.simplices[1]]
    nbrs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for ei, (a, b) in enumerate(ends):
        nbrs[a].append((b, ei))
        nbrs[b].append((a, ei))
    # path[v] = edge bitset of the tree path from vertex 0 to v
    path: List[Optional[int]] = [None] * n
    order = [0] if n else []
    if n:
        path[0] = 0
    for u in order:
        for v, ei in nbrs[u]:
            if path[v] is None:
                path[v] = path[u] | 1 << ei
                order.append(v)
    if not n or len(order) < n:
        raise InputError("complex must be connected; run per component")
    hb = homology_basis(K, 1)
    ann = []
    for ei, (a, b) in enumerate(ends):
        cyc = path[a] ^ path[b] ^ 1 << ei
        ann.append(hb.coordinates(K.chain_from_bits(1, cyc)).bits if cyc else 0)
    weights = [K.edge_weight(e) for e in K.simplices[1]]
    chosen = _horton_greedy(n, ends, weights, ann, len(hb))
    return [WeightedChain(K.chain_from_bits(1, cyc), w) for cyc, w in chosen]


def min_cohomology_basis(K: Complex) -> List[WeightedChain]:
    """Minimum-weight cocycle basis of a connected closed surface, ascending
    by (weight, edge indices).

    Each element is a nontrivial cocycle whose edges form a single circle of
    the dual graph: the greedy on the dual graph, each dual edge annotated
    by which homology basis cycles hold its primal edge.  On a closed
    surface the complex is connected iff its dual graph is, which the
    greedy checks.
    """
    # dual edge j joins triangles ends[j] across primal edge primal[j], in
    # (t1, t2) triangle-pair order
    order = sorted(dual_graph(K))
    ends = [(t1, t2) for t1, t2, _ in order]
    primal = [ei for _, _, ei in order]
    dual = [0] * len(primal)
    for j, ei in enumerate(primal):
        dual[ei] = j
    weights = [K.edge_weight(K.simplices[1][ei]) for ei in primal]
    cycles = homology_basis(K, 1).cycles
    ann = [0] * len(primal)
    for i, z in enumerate(cycles):
        for ei in _bit_indices(z.support.bits):
            ann[dual[ei]] |= 1 << i
    out = [
        WeightedChain(K.chain_from_bits(1, _reindex(cyc, primal)), w)
        for cyc, w in _horton_greedy(K.n(2), ends, weights, ann, len(cycles))
    ]
    out.sort(key=lambda wc: (wc.weight, tuple(_bit_indices(wc.chain.support.bits))))
    return out
