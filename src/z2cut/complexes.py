"""Simplicial complexes with dimension windowing.

A complex stores only the simplices whose dimension lies in an inclusive
window [lo, hi]; that is all degree-r homology needs (window [r-1, r+1])
and it keeps the hardness-gadget complexes, whose full face posets are
exponential, at desk scale.  Simplices are sorted vertex tuples; within
each dimension indices follow lexicographic vertex order, so chains and
matrices serialize stably.  A complex closes its input as it is built, top
dimension down, so closure holds by construction and needs no check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError
from .gf2 import GF2Matrix, GF2Vector, _bit_indices

__all__ = [
    "Simplex",
    "Chain",
    "Complex",
    "build_complex",
    "boundary_matrix",
    "evaluate",
    "remove_closure",
    "r_adjacency",
    "dual_graph",
    "is_closed_surface",
]

Simplex = Tuple[int, ...]


def _check_simplex(s: Sequence[int]) -> Simplex:
    t = tuple(s)
    if any(v < 0 for v in t):
        raise InputError(f"negative vertex id in simplex {t}")
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise InputError(f"simplex vertices not strictly increasing: {t}")
    return t


def _check_window(lo: int, hi: int) -> None:
    if lo < 0 or hi < lo:
        raise InputError(f"bad dimension window [{lo}, {hi}]")


def _is_weight(w: object) -> bool:
    """Edge weights are positive finite ints or floats, not bools."""
    return not isinstance(w, bool) and isinstance(w, (int, float)) and 0 < w < math.inf


@dataclass(frozen=True)
class Chain:
    """A set of same-dimension simplices of one complex, as an index bitset."""

    dimension: int
    support: GF2Vector

    def __xor__(self, other: "Chain") -> "Chain":
        if self.dimension != other.dimension:
            raise InputError("chain dimension mismatch")
        return Chain(self.dimension, self.support ^ other.support)

    def __len__(self) -> int:
        return self.support.weight()


class Complex:
    """Immutable windowed simplicial complex.

    The constructor closes the given per-dimension simplex collections (in
    any order) within the window; :func:`build_complex` checks its input.
    """

    __slots__ = ("lo", "hi", "simplices", "index", "weights")

    def __init__(
        self,
        lo: int,
        hi: int,
        simplices: Dict[int, Iterable[Simplex]],
        weights: Optional[Dict[Simplex, float]] = None,
    ):
        _check_window(lo, hi)
        self.lo = lo
        self.hi = hi
        closed = {p: set(simplices.get(p, ())) for p in range(lo, hi + 1)}
        for p in range(hi, lo, -1):
            below = closed[p - 1]
            for s in closed[p]:
                below.update(combinations(s, p))
        self.simplices: Dict[int, Tuple[Simplex, ...]] = {}
        self.index: Dict[int, Dict[Simplex, int]] = {}
        for p in range(lo, hi + 1):
            lst = sorted(closed[p])
            self.simplices[p] = tuple(lst)
            self.index[p] = {s: i for i, s in enumerate(lst)}
        self.weights: Dict[Simplex, float] = {}
        if weights:
            if not (lo <= 1 <= hi):
                raise InputError("edge weights given but dimension 1 not in window")
            for e, w in weights.items():
                e = _check_simplex(e)
                if e not in self.index[1]:
                    raise InputError(f"weight given for non-edge {e}")
                if not _is_weight(w):
                    raise InputError(f"weight on edge {e} must be a positive finite number, got {w!r}")
                self.weights[e] = w

    def n(self, p: int) -> int:
        """Number of p-simplices (0 outside the window)."""
        return len(self.simplices.get(p, ()))

    def edge_weight(self, e: Simplex) -> float:
        return self.weights.get(e, 1)

    def chain(self, dimension: int, members: Iterable[Sequence[int]]) -> Chain:
        """Chain from explicit simplices (must exist in this complex)."""
        if dimension not in self.simplices:
            raise InputError(f"dimension {dimension} outside window")
        bits = 0
        idx = self.index[dimension]
        for m in members:
            s = _check_simplex(m)
            if s not in idx:
                raise InputError(f"simplex {s} not in complex")
            bits |= 1 << idx[s]
        return Chain(dimension, GF2Vector(self.n(dimension), bits))

    def chain_from_bits(self, dimension: int, bits: int) -> Chain:
        return Chain(dimension, GF2Vector(self.n(dimension), bits))

    def members(self, c: Chain) -> List[Simplex]:
        """The simplices in a chain's support, in index order."""
        simp = self.simplices[c.dimension]
        return [simp[i] for i in _bit_indices(c.support.bits)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Complex)
            and self.lo == other.lo
            and self.hi == other.hi
            and self.simplices == other.simplices
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        counts = ", ".join(f"n_{p}={self.n(p)}" for p in range(self.lo, self.hi + 1))
        return f"Complex([{self.lo},{self.hi}]; {counts})"


def build_complex(
    top_simplices: Iterable[Sequence[int]],
    window: Tuple[int, int],
    weights: Optional[Dict[Simplex, float]] = None,
) -> Complex:
    """Complex containing the given simplices and all their in-window faces."""
    lo, hi = window
    _check_window(lo, hi)
    tops = [_check_simplex(s) for s in top_simplices]
    if len(set(tops)) != len(tops):
        raise InputError("duplicate top simplices")
    per_dim: Dict[int, List[Simplex]] = {p: [] for p in range(lo, hi + 1)}
    for s in tops:
        d = len(s) - 1
        if d > hi:
            raise InputError(f"top simplex {s} above window [{lo},{hi}]")
        if d >= lo:
            per_dim[d].append(s)
    return Complex(lo, hi, per_dim, weights)


def boundary_matrix(K: Complex, p: int) -> GF2Matrix:
    """The p-th boundary operator: the zero map with 0 rows at the window
    floor, and with no columns for any p above the window."""
    if p < K.lo:
        raise InputError(f"dimension {p} outside window [{K.lo},{K.hi}]")
    if p > K.hi:
        return GF2Matrix(K.n(p - 1), [])
    if p == K.lo:
        return GF2Matrix(0, [0] * K.n(p))
    rows = K.index[p - 1]
    cols = []
    for s in K.simplices[p]:
        bits = 0
        for f in combinations(s, p):
            bits |= 1 << rows[f]
        cols.append(bits)
    return GF2Matrix(K.n(p - 1), cols)


def evaluate(eta: Chain, zeta: Chain) -> int:
    """Cochain-on-chain evaluation: parity of the common support."""
    if eta.dimension != zeta.dimension:
        raise InputError("evaluate: dimension mismatch")
    if eta.support.length != zeta.support.length:
        raise InputError("evaluate: chains from different complexes")
    return (eta.support.bits & zeta.support.bits).bit_count() & 1


def remove_closure(K: Complex, S: Chain) -> Tuple[Complex, Dict[int, Dict[int, int]]]:
    """K minus the simplices of S and all their in-window cofaces.

    Returns (K_S, old index -> new index per dimension); removed simplices
    have no entry in the map.
    """
    p = S.dimension
    if p not in K.simplices:
        raise InputError(f"dimension {p} outside window")
    doomed = [frozenset(s) for s in K.members(S)]
    survivors: Dict[int, List[Simplex]] = {}
    mapping: Dict[int, Dict[int, int]] = {}
    for q in range(K.lo, K.hi + 1):
        kept = []
        remap = {}
        for i, s in enumerate(K.simplices[q]):
            if q >= p:
                fs = frozenset(s)
                if any(d <= fs for d in doomed):
                    continue
            remap[i] = len(kept)
            kept.append(s)
        survivors[q] = kept
        mapping[q] = remap
    edges = set(survivors.get(1, ()))
    weights = {e: w for e, w in K.weights.items() if e in edges}
    return Complex(K.lo, K.hi, survivors, weights or None), mapping


def r_adjacency(K: Complex, r: int) -> Dict[int, set]:
    """Share-a-cofacet adjacency on r-simplex indices.

    One hop here equals distance 2 in the Hasse graph (facet-cofacet graph).
    """
    if not (K.lo <= r <= K.hi):
        raise InputError(f"dimension {r} outside window")
    adj: Dict[int, set] = {i: set() for i in range(K.n(r))}
    if r + 1 > K.hi:
        return adj
    idx = K.index[r]
    for s in K.simplices[r + 1]:
        facets = [idx[f] for f in combinations(s, r + 1)]
        for a, b in combinations(facets, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _surface_cofacets(K: Complex) -> Optional[List[List[int]]]:
    """Per edge index, the indices of its two triangles, ascending, if K is
    a closed surface, else None.

    K is a closed surface when each edge has exactly two triangles and each
    vertex link is a single circle.  Once every edge has two triangles,
    every link is 2-regular: link vertex b of v has the two triangles of
    edge vb.  So a link is a circle iff it is connected, iff the walk around
    v from one triangle to the next across their shared edge at v crosses
    every edge at v before it returns.
    """
    if K.lo > 0 or K.hi < 2:
        return None
    edge = K.index[1]
    cofacets: List[List[int]] = [[] for _ in range(K.n(1))]
    # sides[t] = the edges ab, ac, bc of triangle t = (a, b, c)
    sides: List[Tuple[int, int, int]] = []
    for ti, (a, b, c) in enumerate(K.simplices[2]):
        s = (edge[(a, b)], edge[(a, c)], edge[(b, c)])
        sides.append(s)
        for ei in s:
            cofacets[ei].append(ti)
    if any(len(ts) != 2 for ts in cofacets):
        return None
    vidx = K.index[0]
    degree = [0] * K.n(0)
    start = [-1] * K.n(0)  # one edge at each vertex
    for ei, (a, b) in enumerate(K.simplices[1]):
        for v in (vidx[(a,)], vidx[(b,)]):
            degree[v] += 1
            start[v] = ei
    tris = K.simplices[2]
    for (v,), e0, deg in zip(K.simplices[0], start, degree):
        if e0 < 0:
            return None
        t, e, crossed = cofacets[e0][0], e0, 0
        while True:
            # the two sides at corner k of a triangle: ab, ac at a; ab, bc at b; ac, bc at c
            s = sides[t]
            k = tris[t].index(v)
            x, y = (s[0], s[1]) if k == 0 else (s[0], s[2]) if k == 1 else (s[1], s[2])
            e = y if e == x else x
            crossed += 1
            if e == e0:
                break
            t1, t2 = cofacets[e]
            t = t2 if t == t1 else t1
        if crossed != deg:
            return None
    return cofacets


def is_closed_surface(K: Complex) -> bool:
    """Every edge has exactly two triangles and every vertex link is a circle."""
    return _surface_cofacets(K) is not None


def dual_graph(K: Complex) -> List[Tuple[int, int, int]]:
    """Dual graph of a closed surface: one node per triangle, one graph edge
    per primal edge.  Returns the (t1, t2, primal edge index) triples, t1 < t2,
    in primal edge order.
    """
    cofacets = _surface_cofacets(K)
    if cofacets is None:
        raise InputError("dual_graph requires a closed surface")
    return [(a, b, ei) for ei, (a, b) in enumerate(cofacets)]
