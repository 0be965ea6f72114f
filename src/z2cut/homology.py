"""Z2 homology: Betti numbers, (co)homology bases, minimum-weight bases.

Both minimum bases come from one candidate-cycle (Horton) greedy over a
weighted graph: shortest-path trees, one candidate cycle per (tree,
non-tree edge) pair, kept in weight order while its annotation is
independent of those kept before.  Following Busaryev, Cabello, Chen, Dey
and Wang (SWAT 2012), every edge carries a beta-bit annotation, and a
cycle's annotation, the xor over its edges, is a linear map whose kernel
is the cycles to ignore.  Each tree labels its vertices with the
annotations of their tree paths, so a candidate is ranked by its weight
and its annotation without being built; only proper candidates, whose
two tree paths leave the root by different edges, are kept, and a
candidate's edge bitset is built only in the weight groups the greedy
reaches.

Trees grow only from a vertex cover of the annotated edges, not from
every vertex.  A cycle the greedy can pick has an annotated edge, so it
passes through a root, and a root on the lightest cycle outside the span
of the picks has a proper candidate outside that span of the same
weight; so each pick weighs what it weighs with every vertex a root (the
proof is at ``_horton_greedy``).  On the genus-1 to genus-4 surfaces
of the ``surface`` benchmark the cover holds 5 to 20 of 14 to 50 dual
vertices, and 16 of 128 on the 8 x 8 grid torus.

The trees grow only as far as the picks need.  Each is a Dijkstra that
settles its vertices in (distance, vertex) order, from a queue of one
vertex list per distance, sorted when that level is reached.  All trees
advance to a common radius that grows by half each round.  A proper
candidate's key is at least twice the distance of either of its ends, so
once every tree has settled all distances below L, each weight group of
key below 2L is complete (less a relative 1e-9, for float rounding) and
is taken in key order.  The greedy stops at its beta-th pick.

For homology the graph is the 1-skeleton and an edge's annotation the
homology coordinates of its fundamental cycle in a spanning tree.  For
cohomology on a closed surface the graph is the dual graph, whose cycles
are exactly the 1-cocycles, and a dual edge's annotation says which
homology basis cycles hold its primal edge: the pairing, which vanishes
exactly on coboundaries.  That basis is read off a tree-cotree
decomposition, so no boundary map is built for it.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from .complexes import Chain, Complex, boundary_matrix, dual_graph
from .errors import InputError, InternalError
from .gf2 import GF2Matrix, GF2Vector, Pivots, _bit_indices, _insert, _reduce, _reindex, kernel_basis, rank

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
    return _homology_basis(K, p, boundary_matrix(K, p + 1), kernel_basis(boundary_matrix(K, p)).cols)


def _homology_basis(K: Complex, p: int, boundary: GF2Matrix, kernel: List[int]) -> HomologyBasis:
    """:func:`homology_basis` on ∂_{p+1} and the kernel basis of ∂_p as
    given, for p in the window."""
    pivots: Pivots = {}
    for col in boundary.cols:
        _insert(pivots, col)
    cycles: List[Chain] = []
    for z in kernel:
        if _insert(pivots, z, 1 << len(cycles))[0]:
            cycles.append(K.chain_from_bits(p, z))
    return HomologyBasis(K, p, cycles, pivots)


def _grow_tree(
    root: int,
    adj: List[List[Tuple[int, int]]],
    tails: List[int],
    weights: List[float],
    ann: List[int],
    parent: List[int],
    cands: List[Tuple[float, int, int]],
) -> Generator[float, float, None]:
    """Dijkstra from root, run on demand.  next() settles distance 0 and
    each radius R sent in settles every vertex at distance <= R; each
    answer is the next distance in the queue, a lower bound on every
    distance still unsettled (inf once none is left).

    Settling u pushes (key, root, e) onto the heap cands for each edge e to
    a vertex settled before u, so each edge is seen once, at its later end,
    and is pushed if its candidate is kept: proper, with a nonzero
    annotation.  The queue maps each tentative distance to a list of
    vertices, with a heap of those distances.  A level's list is sorted when
    it is popped, and a vertex that an absorbed weight (d + w == d) puts at
    the same distance joins the rest of the list in id order.  So vertices
    settle in (distance, vertex) order, as from one heap of (distance,
    vertex) pairs, and every parent, label and key is the one a full
    Dijkstra gives.  parent[v], the index of the tree edge into v, is final
    once v is settled; tails[e] is the xor of the two ends of edge e.
    """
    n = len(adj)
    inf = float("inf")
    dist: List[float] = [inf] * n
    dist[root] = 0
    # lab[v] = the annotation of the tree path to v; branch[v] = its first
    # edge, -2 at the root and -1 until v is settled
    lab = [0] * n
    branch = [-1] * n
    buckets: Dict[float, List[int]] = {0: [root]}
    levels: List[float] = [0]
    limit: float = 0  # the first next() settles distance 0
    while True:
        while levels and levels[0] <= limit:
            level = buckets.pop(heapq.heappop(levels))
            level.sort()
            for u in level:
                if branch[u] != -1:  # a stale entry: u was settled closer
                    continue
                d = dist[u]
                pe = parent[u]
                if pe < 0:
                    bu, lu = -2, 0
                else:
                    t = tails[pe] ^ u
                    bu = pe if t == root else branch[t]
                    lu = lab[t] ^ ann[pe]
                branch[u], lab[u] = bu, lu
                for v, ei in adj[u]:
                    bv = branch[v]
                    if bv == -1:
                        nd = d + weights[ei]
                        if nd < dist[v]:
                            dist[v] = nd
                            parent[v] = ei
                            if nd == d:  # joins this level after u, in id order
                                insort(level, v, level.index(u) + 1)
                            elif nd in buckets:
                                buckets[nd].append(v)
                            else:
                                buckets[nd] = [v]
                                heapq.heappush(levels, nd)
                    # tree edges and improper candidates share a branch,
                    # except a root edge, whose annotation cancels
                    elif bv != bu and lab[v] ^ lu ^ ann[ei]:
                        heapq.heappush(cands, (dist[v] + d + weights[ei], root, ei))
        limit = yield levels[0] if levels else inf


def _horton_greedy(
    nverts: int,
    ends: List[Tuple[int, int]],
    weights: List[float],
    ann: List[int],
    beta: int,
) -> List[Tuple[int, float]]:
    """The first beta candidate cycles of a connected graph, in (weight,
    edge indices) order, whose annotations are independent; each as
    (edge bitset, weight).  They are a lightest set of cycles whose
    annotations span.

    Vertices are 0..nverts-1, edge i joins ends[i] and ann[i] is its
    annotation, a beta-bit int; a cycle's annotation is the xor over its
    edges, and weights are positive.  Shortest-path trees break ties by
    (distance, vertex) and scan neighbors by (vertex, edge).  Each tree
    labels every vertex with the annotation of its tree path, so a
    candidate's annotation is the xor of two labels and one edge's.  A
    candidate is kept only if that is nonzero and the candidate is proper:
    its two tree paths leave the root by different edges (or one end is the
    root), so its key dist + dist + weight is the cycle's exact weight.

    Trees grow only from a root set R, a vertex cover of the annotated
    edges: the edges are scanned in index order, and one with a nonzero
    annotation and neither end in R puts its lower end in R.  Every pick
    weighs what it weighs with a tree at every vertex.  Write T_a(x) for the
    tree path from a to x.

    - A cycle with a nonzero annotation has an annotated edge, so it passes
      through R.
    - Let C be a lightest cycle whose annotation lies outside the span V of
      the picks so far; it is one circle, or one of its circles would be a
      lighter such cycle.  Take a in C and R.  Each vertex of C has even
      degree in C, so C = sum over the edges e = xy of C of
      T_a(x) + e + T_a(y), and some term has its annotation outside V.  Its
      key is at most w(C): C less e is a path from x to y through a.
    - If that term were improper, its tree paths would share a first edge,
      and the edges they share cancel in the sum: the term would be a
      cycle outside V strictly lighter than its key, since weights are
      positive, and so lighter than C.  So it is proper: one of a's
      candidates, of weight w(C).

    Hence each pick weighs as much as the lightest cycle outside the span of
    the picks before it, as in the greedy with every vertex a root, and the
    picks are a minimum-weight basis; only which of several equal-weight
    cycles is picked can differ.

    The trees grow on demand (:func:`_grow_tree`): each round advances every
    tree to a radius, which grows by half each round, and a tree emits a
    candidate when the later end of its edge settles.  A proper candidate's
    key is at least twice the distance of either end, so once every tree
    has settled all distances below L, each candidate of key below 2L has
    been emitted and its weight group is complete.  Int weights sum
    exactly, at any size; with a float weight the sums round, so the bound
    is taken a relative 1e-9 under 2L, far more than the few ulps rounding
    can cost.  Complete groups are taken in key order; only there are edge
    bitsets built from the parent arrays, equal cycles merged and ordered
    by (weight, edge indices).  The trees stop growing at the beta-th pick.
    Raises InputError unless the graph is connected, and InternalError if
    the candidates do not span the annotations.
    """
    if not nverts:
        raise InputError("complex must be connected; run per component")
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(nverts)]
    for ei, (a, b) in enumerate(ends):
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    for nbrs in adj:
        nbrs.sort()
    seen = [True] + [False] * (nverts - 1)
    order = [0]
    for u in order:
        for v, _ in adj[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    if len(order) < nverts:
        raise InputError("complex must be connected; run per component")
    if beta == 0:
        return []

    # parents[root][v] = the tree edge into v, for each root of R
    parents: Dict[int, List[int]] = {}
    for (a, b), x in zip(ends, ann):
        if x and a not in parents and b not in parents:
            parents[min(a, b)] = [-1] * nverts
    inf = float("inf")
    exact = all(isinstance(w, int) for w in weights)
    tails = [a ^ b for a, b in ends]
    cands: List[Tuple[float, int, int]] = []  # (key, root, edge), a heap
    trees = [_grow_tree(root, adj, tails, weights, ann, parent, cands) for root, parent in parents.items()]
    nxt = [next(tree) for tree in trees]  # each tree's next level
    chosen: List[Tuple[int, float]] = []
    pivots: Pivots = {}
    radius: float = 0
    while True:
        low = min(nxt, default=inf)
        barrier = 2 * low if exact else 2 * low * (1 - 1e-9)
        while cands and cands[0][0] < barrier:
            key = cands[0][0]
            group: Dict[int, int] = {}  # cycle bitset -> annotation
            while cands and cands[0][0] == key:
                _, root, ei = heapq.heappop(cands)
                parent = parents[root]
                cyc, x = 1 << ei, ann[ei]
                for v in ends[ei]:
                    while v != root:
                        pe = parent[v]
                        cyc ^= 1 << pe
                        x ^= ann[pe]
                        v = tails[pe] ^ v
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
        if low == inf:
            raise InternalError("candidate cycles failed to span the annotations")
        radius = max(radius + radius // 2 if exact else radius * 1.5, low)
        for i, tree in enumerate(trees):
            if nxt[i] <= radius:
                nxt[i] = tree.send(radius)


def _fundamental_cycles(K: Complex) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The vertex indices of each edge's ends, and each edge's fundamental
    cycle, as an edge bitset, in a BFS spanning tree of the 1-skeleton from
    vertex 0 (0 on tree edges).  Raises InputError unless the tree spans."""
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
    return ends, [path[a] ^ path[b] ^ 1 << ei for ei, (a, b) in enumerate(ends)]


def min_homology_basis(K: Complex) -> List[WeightedChain]:
    """Minimum-weight H_1 basis, ascending by weight: the greedy on the
    1-skeleton, each edge annotated by the homology coordinates of its
    fundamental cycle in a BFS spanning tree (0 on tree edges)."""
    if not (K.lo <= 0 and 1 <= K.hi):
        raise InputError("window must cover dimensions 0 and 1")
    ends, cycles = _fundamental_cycles(K)
    hb = homology_basis(K, 1)
    ann = [hb.coordinates(K.chain_from_bits(1, z)).bits if z else 0 for z in cycles]
    weights = [K.edge_weight(e) for e in K.simplices[1]]
    chosen = _horton_greedy(K.n(0), ends, weights, ann, len(hb))
    return [WeightedChain(K.chain_from_bits(1, cyc), w) for cyc, w in chosen]


def min_cohomology_basis(K: Complex) -> List[WeightedChain]:
    """Minimum-weight cocycle basis of a connected closed surface, ascending
    by (weight, edge indices).

    Each element is a nontrivial cocycle whose edges form a single circle of
    the dual graph: the greedy on the dual graph, each dual edge annotated
    by which homology basis cycles hold its primal edge.  That basis comes
    from a tree-cotree decomposition (Eppstein 2003): a BFS spanning tree of
    the 1-skeleton, then a spanning tree of the dual graph on the other
    edges; the 2g edges left out of both close fundamental cycles in the
    first tree that form a homology basis.  The annotation of a cocycle
    then vanishes exactly on coboundaries, like that of any homology basis,
    and the greedy's picks depend on nothing else.  No boundary map is built
    and nothing is eliminated.
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
    cycles = _fundamental_cycles(K)[1]
    # the cotree: a BFS tree of the dual graph on the edges off the primal tree
    nbrs: List[List[Tuple[int, int]]] = [[] for _ in range(K.n(2))]
    for j, (t1, t2) in enumerate(ends):
        if cycles[primal[j]]:
            nbrs[t1].append((t2, j))
            nbrs[t2].append((t1, j))
    reached = [False] * len(nbrs)
    reached[0] = True
    cotree = set()
    frontier = [0]
    for t in frontier:
        for u, j in nbrs[t]:
            if not reached[u]:
                reached[u] = True
                cotree.add(j)
                frontier.append(u)
    ann = [0] * len(primal)
    beta = 0
    for ei, z in enumerate(cycles):
        if z and dual[ei] not in cotree:
            for i in _bit_indices(z):
                ann[dual[i]] |= 1 << beta
            beta += 1
    out = [
        WeightedChain(K.chain_from_bits(1, _reindex(cyc, primal)), w)
        for cyc, w in _horton_greedy(K.n(2), ends, weights, ann, beta)
    ]
    out.sort(key=lambda wc: (wc.weight, tuple(_bit_indices(wc.chain.support.bits))))
    return out
