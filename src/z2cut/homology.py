"""Z2 homology: Betti numbers, (co)homology bases, minimum-weight bases.

The minimum homology basis uses the classic candidate-cycle greedy: one
shortest-path tree per vertex, one candidate cycle per (tree, edge) pair,
greedy selection by weight under linear independence of homology
coordinates.  Minimum cohomology bases on surfaces reduce to minimum
homology bases of a stellar-subdivided dual complex whose cone edges carry
a weight so large they can never appear in a minimum basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .complexes import Chain, Complex, Simplex, boundary_matrix, build_complex, dual_graph
from .errors import InputError, InternalError
from .gf2 import GF2Matrix, GF2Vector, Pivots, _insert, kernel_basis, rank, solve

__all__ = [
    "HomologyBasis",
    "WeightedChain",
    "betti",
    "homology_basis",
    "min_homology_basis",
    "dual_subdivided",
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
        for i, c in enumerate(self.cycles):
            if coeffs.get(i):
                bits ^= c.support.bits
        return self.K.chain_from_bits(self.dimension, bits)


def _boundary_or_zero(K: Complex, p: int) -> GF2Matrix:
    """∂_p, with the zero map when p falls outside the window above/below."""
    if p > K.hi:
        return GF2Matrix(K.n(p - 1), [])
    return boundary_matrix(K, p)


def betti(K: Complex, p: int) -> int:
    if not (K.lo <= p <= K.hi):
        raise InputError(f"dimension {p} outside window [{K.lo},{K.hi}]")
    dp = boundary_matrix(K, p)
    cycles = K.n(p) - rank(dp)
    return cycles - rank(_boundary_or_zero(K, p + 1))


def homology_basis(K: Complex, p: int) -> HomologyBasis:
    """Deterministic homology basis: kernel vectors of ∂_p kept greedily
    while independent modulo the boundary columns."""
    if not (K.lo <= p <= K.hi):
        raise InputError(f"dimension {p} outside window [{K.lo},{K.hi}]")
    bmat = _boundary_or_zero(K, p + 1)
    ker = kernel_basis(boundary_matrix(K, p))
    pivots: Pivots = {}
    for col in bmat.cols:
        _insert(pivots, col)
    cycles = [K.chain_from_bits(p, z) for z in ker.cols if _insert(pivots, z)[0]]
    return HomologyBasis(K, p, cycles, bmat)


def _vertex_graph(K: Complex) -> Tuple[Dict[int, List[Tuple[int, int]]], List[Simplex]]:
    """Vertex adjacency with edge indices: v -> [(neighbor, edge index)]."""
    verts = [s[0] for s in K.simplices[0]]
    vidx = {v: i for i, v in enumerate(verts)}
    adj: Dict[int, List[Tuple[int, int]]] = {i: [] for i in range(len(verts))}
    for ei, (a, b) in enumerate(K.simplices[1]):
        adj[vidx[a]].append((vidx[b], ei))
        adj[vidx[b]].append((vidx[a], ei))
    return adj, K.simplices[1]


def min_homology_basis(K: Complex, p: int = 1) -> List[WeightedChain]:
    """Minimum-weight H_1 basis via the candidate-cycle greedy."""
    if p != 1:
        raise InputError("min_homology_basis supports dimension 1 only")
    if not (K.lo <= 0 and 1 <= K.hi):
        raise InputError("window must cover dimensions 0 and 1")
    if betti(K, 0) != 1:
        raise InputError("complex must be connected; run per component")
    beta = betti(K, 1)
    if beta == 0:
        return []
    nverts = K.n(0)
    adj, edges = _vertex_graph(K)
    ew = [K.edge_weight(e) for e in edges]
    hb = homology_basis(K, 1)

    candidates: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
    for root in range(nverts):
        # Dijkstra with deterministic tie-breaks; parent[v] = edge index
        dist = {root: 0.0}
        parent: Dict[int, int] = {}
        done = set()
        heap: List[Tuple[float, int]] = [(0.0, root)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, ei in sorted(adj[u]):
                nd = d + ew[ei]
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = ei
                    heapq.heappush(heap, (nd, v))
        path_bits: Dict[int, int] = {root: 0}

        def tree_path(v: int) -> int:
            stack = []
            while v not in path_bits:
                stack.append(v)
                ei = parent[v]
                a, b = edges[ei]
                va, vb = K.index[0][(a,)], K.index[0][(b,)]
                v = va if v == vb else vb
            bits = path_bits[v]
            for w in reversed(stack):
                bits ^= 1 << parent[w]
                path_bits[w] = bits
            return path_bits[stack[0]] if stack else bits

        for ei, (a, b) in enumerate(edges):
            va, vb = K.index[0][(a,)], K.index[0][(b,)]
            if va not in done or vb not in done:
                continue
            cyc = tree_path(va) ^ tree_path(vb) ^ (1 << ei)
            if cyc and ((cyc >> ei) & 1) and cyc not in candidates:
                w = sum(ew[i] for i in _bit_indices(cyc))
                candidates[cyc] = (w, tuple(_bit_indices(cyc)))

    order = sorted(candidates, key=lambda c: candidates[c])
    chosen: List[WeightedChain] = []
    pivots: Pivots = {}
    for cyc in order:
        z = K.chain_from_bits(1, cyc)
        if _insert(pivots, hb.coordinates(z).bits)[0]:
            chosen.append(WeightedChain(z, candidates[cyc][0]))
            if len(chosen) == beta:
                return chosen
    raise InternalError("candidate cycles failed to span H_1")


def _bit_indices(bits: int) -> List[int]:
    out = []
    while bits:
        out.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return out


def dual_subdivided(K: Complex) -> Tuple[Complex, Dict[Simplex, int], float]:
    """Stellar-subdivided dual complex of a closed surface.

    Dual vertex i = triangle i; cone vertex (#triangles + j) caps the dual
    2-cell of primal vertex j.  Dual edges keep their primal edge weights;
    cone edges get a weight no minimum basis can afford.  Returns the
    complex, the dual-edge -> primal-edge-index map, and that big weight.
    """
    adj, dedges = dual_graph(K)
    ntri = K.n(2)
    edge_map: Dict[Simplex, int] = {}
    weights: Dict[Simplex, float] = {}
    tris: List[Tuple[int, int, int]] = []
    for t1, t2, ei in dedges:
        de = (min(t1, t2), max(t1, t2))
        edge_map[de] = ei
        weights[de] = K.edge_weight(K.simplices[1][ei])
    tri_idx = K.index[2]
    for vj, (v,) in enumerate(K.simplices[0]):
        cone = ntri + vj
        for t in K.simplices[2]:
            if v not in t:
                continue
            ti = tri_idx[t]
            # dual edges of the 2-cell boundary: primal edges at v inside t
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                if v in e:
                    other = [x for x in dual_graph_cofacets(K, e) if x != ti][0]
                    if ti < other:
                        tris.append((ti, other, cone))
    D = build_complex(sorted(set(tris)), (0, 2))
    maxw = max([w for w in weights.values()] + [0])
    winf = 1.0 + D.n(1) * (1 + maxw)
    full_weights = dict(weights)
    for e in D.simplices[1]:
        if e not in full_weights:
            full_weights[e] = winf
    D = Complex(0, 2, {p: list(D.simplices[p]) for p in (0, 1, 2)}, full_weights)
    return D, edge_map, winf


def dual_graph_cofacets(K: Complex, e: Simplex) -> List[int]:
    """Indices of the (two, on a surface) triangles containing edge e."""
    out = []
    for t, i in K.index[2].items():
        if e[0] in t and e[1] in t:
            out.append(i)
    return out


def min_cohomology_basis(K: Complex) -> List[WeightedChain]:
    """Minimum-weight cocycle basis of a closed surface, ascending by weight.

    Each element is a nontrivial cocycle inducing a single circle subgraph
    of the dual graph; weights are certified not to involve cone edges.
    """
    D, edge_map, winf = dual_subdivided(K)
    basis = min_homology_basis(D)
    out: List[WeightedChain] = []
    d2t = boundary_matrix(K, 2)
    delta0 = _coboundary0(K)
    for wc in basis:
        bits = 0
        for e in D.members(wc.chain):
            if e not in edge_map:
                raise InternalError("minimum dual basis cycle uses a cone edge")
            bits |= 1 << edge_map[e]
        eta = K.chain_from_bits(1, bits)
        for col in d2t.cols:
            if (col & bits).bit_count() & 1:
                raise InternalError("dual basis cycle does not map to a cocycle")
        from .gf2 import in_colspace

        if in_colspace(delta0, eta.support):
            raise InternalError("minimum cocycle basis element is a coboundary")
        out.append(WeightedChain(eta, wc.weight))
    out.sort(key=lambda wc: (wc.weight, tuple(_bit_indices(wc.chain.support.bits))))
    return out


def _coboundary0(K: Complex) -> GF2Matrix:
    """delta_0: columns are vertex coboundaries over the edge index."""
    cols = []
    for (v,) in K.simplices[0]:
        bits = 0
        for ei, e in enumerate(K.simplices[1]):
            if v in e:
                bits |= 1 << ei
        cols.append(bits)
    return GF2Matrix(K.n(1), cols)
