"""Z2 homology: Betti numbers, (co)homology bases, minimum-weight bases.

Both minimum bases come from one candidate-cycle (Horton) greedy over a
weighted graph: one shortest-path tree per vertex, one candidate cycle per
(tree, non-tree edge) pair, kept in weight order while its annotation is
independent of those kept before (Busaryev, Cabello, Chen, Dey and Wang,
SWAT 2012).  The annotation is a linear map of cycles whose kernel is the
cycles to ignore.  For homology the graph is the 1-skeleton and the
annotation the homology coordinates.  For cohomology on a closed surface
the graph is the dual graph, whose cycles are exactly the 1-cocycles, and
the annotation is the pairing with a homology basis, which vanishes
exactly on coboundaries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .complexes import Chain, Complex, boundary_matrix, dual_graph
from .errors import InputError, InternalError
from .gf2 import GF2Matrix, GF2Vector, Pivots, _bit_indices, _insert, _reindex, kernel_basis, rank, solve

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
    """

    def __init__(self, K: Complex, p: int, cycles: List[Chain], bmatrix: GF2Matrix):
        self.K = K
        self.dimension = p
        self.cycles = cycles
        # [boundary columns | basis cycles]: any cycle reduces over this
        self._nb = bmatrix.ncols
        self._joint = GF2Matrix(K.n(p), bmatrix.cols + [c.support.bits for c in cycles])

    def __len__(self) -> int:
        return len(self.cycles)

    def coordinates(self, z: Chain) -> GF2Vector:
        if z.dimension != self.dimension or z.support.length != self.K.n(self.dimension):
            raise InputError("coordinates: chain does not live in this complex/dimension")
        x = solve(self._joint, z.support)
        if x is None:
            raise InputError("coordinates: input is not a cycle of this complex")
        return GF2Vector(len(self.cycles), x.bits >> self._nb)

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
    bmat = boundary_matrix(K, p + 1)
    ker = kernel_basis(boundary_matrix(K, p))
    pivots: Pivots = {}
    for col in bmat.cols:
        _insert(pivots, col)
    cycles = [K.chain_from_bits(p, z) for z in ker.cols if _insert(pivots, z)[0]]
    return HomologyBasis(K, p, cycles, bmat)


def _horton_greedy(
    nverts: int,
    ends: List[Tuple[int, int]],
    weights: List[float],
    annotate: Callable[[int], int],
    beta: int,
) -> List[Tuple[int, float]]:
    """The first beta candidate cycles of a connected graph, in (weight,
    edge indices) order, whose annotations are independent; each as
    (edge bitset, weight).

    Vertices are 0..nverts-1 and edge i joins ends[i].  Shortest-path trees
    break ties by (distance, vertex) and scan neighbors by (vertex, edge).
    """
    if beta == 0:
        return []
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(nverts)]
    for ei, (a, b) in enumerate(ends):
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    for nbrs in adj:
        nbrs.sort()

    candidates: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
    for root in range(nverts):
        # Dijkstra; parent[v] = index of the tree edge into v
        dist = {root: 0.0}
        parent: Dict[int, int] = {}
        done = set()
        heap: List[Tuple[float, int]] = [(0.0, root)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, ei in adj[u]:
                nd = d + weights[ei]
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = ei
                    heapq.heappush(heap, (nd, v))
        path_bits: Dict[int, int] = {root: 0}

        def tree_path(v: int) -> int:
            stack = []
            while v not in path_bits:
                stack.append(v)
                a, b = ends[parent[v]]
                v = a if v == b else b
            bits = path_bits[v]
            for w in reversed(stack):
                bits ^= 1 << parent[w]
                path_bits[w] = bits
            return bits

        for ei, (a, b) in enumerate(ends):
            # 0 exactly when ei is a tree edge
            cyc = tree_path(a) ^ tree_path(b) ^ (1 << ei)
            if cyc and cyc not in candidates:
                idx = tuple(_bit_indices(cyc))
                candidates[cyc] = (sum(weights[i] for i in idx), idx)

    chosen: List[Tuple[int, float]] = []
    pivots: Pivots = {}
    for cyc in sorted(candidates, key=candidates.__getitem__):
        if _insert(pivots, annotate(cyc))[0]:
            chosen.append((cyc, candidates[cyc][0]))
            if len(chosen) == beta:
                return chosen
    raise InternalError("candidate cycles failed to span the annotations")


def min_homology_basis(K: Complex, p: int = 1) -> List[WeightedChain]:
    """Minimum-weight H_1 basis, ascending by weight: the greedy on the
    1-skeleton, annotated by homology coordinates."""
    if p != 1:
        raise InputError("min_homology_basis supports dimension 1 only")
    if not (K.lo <= 0 and 1 <= K.hi):
        raise InputError("window must cover dimensions 0 and 1")
    if betti(K, 0) != 1:
        raise InputError("complex must be connected; run per component")
    hb = homology_basis(K, 1)
    vidx = K.index[0]
    ends = [(vidx[(a,)], vidx[(b,)]) for a, b in K.simplices[1]]
    weights = [K.edge_weight(e) for e in K.simplices[1]]
    chosen = _horton_greedy(
        K.n(0), ends, weights, lambda cyc: hb.coordinates(K.chain_from_bits(1, cyc)).bits, len(hb)
    )
    return [WeightedChain(K.chain_from_bits(1, cyc), w) for cyc, w in chosen]


def min_cohomology_basis(K: Complex) -> List[WeightedChain]:
    """Minimum-weight cocycle basis of a connected closed surface, ascending
    by (weight, edge indices).

    Each element is a nontrivial cocycle whose edges form a single circle of
    the dual graph: the greedy on the dual graph, annotated by the pairing
    with a homology basis.
    """
    _, dedges = dual_graph(K)
    if betti(K, 0) != 1:
        raise InputError("surface must be connected; run per component")
    # dual edge j joins triangles ends[j] across primal edge primal[j], in
    # (t1, t2) triangle-pair order
    order = sorted(dedges)
    ends = [(t1, t2) for t1, t2, _ in order]
    primal = [ei for _, _, ei in order]
    dual = [0] * len(primal)
    for j, ei in enumerate(primal):
        dual[ei] = j
    weights = [K.edge_weight(K.simplices[1][ei]) for ei in primal]
    zs = [_reindex(z.support.bits, dual) for z in homology_basis(K, 1).cycles]

    def pairing(cyc: int) -> int:
        return sum(((cyc & z).bit_count() & 1) << i for i, z in enumerate(zs))

    out = [
        WeightedChain(K.chain_from_bits(1, _reindex(cyc, primal)), w)
        for cyc, w in _horton_greedy(K.n(2), ends, weights, pairing, len(zs))
    ]
    out.sort(key=lambda wc: (wc.weight, tuple(_bit_indices(wc.chain.support.bits))))
    return out
