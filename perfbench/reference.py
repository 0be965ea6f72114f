"""Correctness references for the benchmark, independent of the timed calls.

Every check here is written against the definitions, not against the
library's algorithms: a surface hitting set is checked as a cocycle with
odd pairing whose weight matches a shortest odd closed walk in the
parity double cover of the dual graph; a hitting set in any complex is
checked by the projected-rank criterion (S meets every cycle homologous
to zeta iff zeta restricted to S is outside the span of the boundaries
restricted to S); a boundary cut is refuted by exhibiting a chain with
boundary xi that the cut misses.  The elimination used here is a plain
dict-keyed one, deliberately unlike the library's.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple


class CheckFailed(AssertionError):
    """An op's output disagrees with its reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# Committed optima, cross-checked against z2cut.oracle by the benchmark's tests.
EXPECTED = {
    # Unit-weight THS optimum of every nonzero class on the Csaszar torus.
    "csaszar-torus.ths_opt": 6,
    # Unit-weight THS optimum of the canonical cycle on the genus-2 surface.
    "genus-2.ths_opt": 6,
    # THS optimum of the canonical cycle of the planar-holes complex.
    "planar-holes.ths_opt": 3,
    # THS optimum on the k2-edge gadget (m = 6); no hitting set of size 3.
    "ths-gadget.k2-edge.opt": 4,
    # Global THS optimum on the Csaszar torus.
    "csaszar-torus.global_ths_opt": 6,
    # BNT on a torus: the chains bounding a cycle are some x and its
    # complement, so the optimum takes one triangle from each.
    "torus.bnt_opt": 2,
    # Global BNT on a torus: any two triangles drop the rank of d_2 by one.
    "torus.global_bnt_opt": 2,
}


# ------------------------------------------------------------------ helpers


def bits_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def indices_of(bits: int) -> List[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def boundary_columns(K, p: int) -> List[int]:
    """Columns of the p-th boundary map as row bitsets (benchmark's own)."""
    rows = K.index[p - 1]
    out = []
    for s in K.simplices[p]:
        col = 0
        for f in combinations(s, p):
            col |= 1 << rows[f]
        out.append(col)
    return out


class Span:
    """Row-pivot-keyed GF(2) span: add vectors, test membership."""

    def __init__(self) -> None:
        self.pivots: Dict[int, int] = {}

    def reduce(self, v: int) -> int:
        while v:
            top = v.bit_length() - 1
            p = self.pivots.get(top)
            if p is None:
                return v
            v ^= p
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v
            return True
        return False


def boundary_rank(K, p: int, drop_bits: int = 0) -> int:
    """Rank of the p-th boundary map with the columns in ``drop_bits`` removed."""
    span = Span()
    return sum(span.add(c) for j, c in enumerate(boundary_columns(K, p)) if not drop_bits >> j & 1)


def solve_columns(cols: List[int], target: int) -> Optional[int]:
    """Some x (a bitset over column indices) with xor(cols[x]) == target."""
    pivots: Dict[int, Tuple[int, int]] = {}
    for j, c in enumerate(cols):
        combo = 1 << j
        while c:
            top = c.bit_length() - 1
            if top not in pivots:
                pivots[top] = (c, combo)
                break
            pc, pcombo = pivots[top]
            c ^= pc
            combo ^= pcombo
    combo = 0
    while target:
        top = target.bit_length() - 1
        if top not in pivots:
            return None
        pc, pcombo = pivots[top]
        target ^= pc
        combo ^= pcombo
    return combo


def _compress(v: int, positions: List[int]) -> int:
    out = 0
    for k, i in enumerate(positions):
        if (v >> i) & 1:
            out |= 1 << k
    return out


def ths_feasible(K, zeta_bits: int, r: int, S_bits: int) -> bool:
    """Projected-rank THS criterion: zeta|_S outside span(d_{r+1}|_S)."""
    positions = indices_of(S_bits)
    target = _compress(zeta_bits, positions)
    if target == 0:
        return False
    span = Span()
    if r + 1 <= K.hi:
        for col in boundary_columns(K, r + 1):
            if col & S_bits:
                span.add(_compress(col, positions))
    return span.reduce(target) != 0


# ---------------------------------------------------------- surfaces (r = 1)


def _edge_triangles(K) -> List[List[int]]:
    eidx = K.index[1]
    cof: List[List[int]] = [[] for _ in range(K.n(1))]
    for ti, t in enumerate(K.simplices[2]):
        for e in combinations(t, 2):
            cof[eidx[e]].append(ti)
    return cof


def is_cocycle(K, eta_bits: int) -> bool:
    """Every triangle has an even number of edges in eta."""
    eidx = K.index[1]
    for t in K.simplices[2]:
        if sum((eta_bits >> eidx[e]) & 1 for e in combinations(t, 2)) & 1:
            return False
    return True


def surface_ths_optimum(K, zeta_bits: int) -> float:
    """Least weight of a cocycle pairing oddly with zeta on a closed surface.

    Cocycles are even subgraphs of the dual graph, so the optimum is the
    shortest closed dual walk crossing zeta an odd number of times: the
    shortest path from (t, 0) to (t, 1) in the parity double cover,
    minimized over start triangles t.
    """
    cof = _edge_triangles(K)
    weights = [K.edge_weight(e) for e in K.simplices[1]]
    adj: List[List[Tuple[int, float, int]]] = [[] for _ in range(K.n(2))]
    for ei, ts in enumerate(cof):
        if len(ts) != 2:
            raise CheckFailed("surface reference needs exactly two triangles per edge")
        a, b = ts
        flip = (zeta_bits >> ei) & 1
        adj[a].append((b, weights[ei], flip))
        adj[b].append((a, weights[ei], flip))
    best = float("inf")
    for start in range(K.n(2)):
        dist = {(start, 0): 0.0}
        heap = [(0.0, start, 0)]
        while heap:
            d, u, par = heapq.heappop(heap)
            if d >= best or d > dist.get((u, par), float("inf")):
                continue
            if u == start and par == 1:
                best = d
                break
            for v, w, flip in adj[u]:
                node = (v, par ^ flip)
                nd = d + w
                if nd < dist.get(node, float("inf")):
                    dist[node] = nd
                    heapq.heappush(heap, (nd, v, par ^ flip))
    return best


def check_surface_result(K, zeta, res, expected_weight: float) -> None:
    eta = res.solution
    require(eta.dimension == 1 and eta.support.length == K.n(1), "solution is not an edge chain of K")
    require(eta.support.bits != 0, "empty solution")
    require(is_cocycle(K, eta.support.bits), "solution is not a cocycle")
    require((eta.support.bits & zeta.support.bits).bit_count() & 1 == 1, "solution pairs evenly with zeta")
    weight = sum(K.edge_weight(K.simplices[1][i]) for i in indices_of(eta.support.bits))
    require(weight == res.weight, f"reported weight {res.weight} != support weight {weight}")
    require(weight == expected_weight, f"weight {weight} != reference optimum {expected_weight}")


def check_global_ths_on_surface(K, S_bits: int) -> bool:
    """True iff S contains a cocycle that is not a coboundary (small K only)."""
    verts = [v for (v,) in K.simplices[0]]
    eidx = K.index[1]
    coboundaries = set()
    for mask in range(1 << len(verts)):
        side = {verts[i] for i in range(len(verts)) if (mask >> i) & 1}
        cb = 0
        for (a, b), ei in eidx.items():
            if (a in side) != (b in side):
                cb |= 1 << ei
        coboundaries.add(cb)
    members = indices_of(S_bits)
    for mask in range(1, 1 << len(members)):
        eta = bits_of(members[i] for i in range(len(members)) if (mask >> i) & 1)
        if eta not in coboundaries and is_cocycle(K, eta):
            return True
    return False


# --------------------------------------------------------------- BNT checks


def bounding_chain(K, xi) -> int:
    """Some (r+1)-chain with boundary xi (benchmark's own elimination)."""
    x = solve_columns(boundary_columns(K, xi.dimension + 1), xi.support.bits)
    require(x is not None, "reference: cycle does not bound")
    return x


def check_surface_bnt(K, xi, S_bits: int) -> None:
    """On a connected closed surface the chains with boundary xi are x and
    x + (all triangles); S must meet both."""
    x = bounding_chain(K, xi)
    everything = (1 << K.n(2)) - 1
    require(S_bits & x != 0, "cut misses a chain bounding xi")
    require(S_bits & (everything ^ x) != 0, "cut misses the complementary chain bounding xi")
