"""Brute-force ground truth: homologous-cycle/coset enumeration, the
definition-level hitting-set searches that certify every solver, and
reference verifiers that decide the four cut questions on the complex
with S removed rather than by the projected ranks of ``feasibility``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Set

from .complexes import Chain, Complex, boundary_matrix, dual_graph, remove_closure
from .errors import InputError, ResourceError
from .gf2 import GF2Matrix, _reindex, column_space_pivots, in_colspace, kernel_basis, rank, relative_rank, solve
from .homology import betti, homology_basis

__all__ = [
    "OracleBudget",
    "enumerate_homologous",
    "enumerate_boundary_chains",
    "brute_ths",
    "brute_bnt",
    "brute_ths_surface",
    "surviving_basis_ths",
    "surviving_basis_global_ths",
    "restricted_solve_bnt",
    "rank_drop_global_bnt",
]


# the largest kmax the subset searches accept
MAX_SUBSET_SIZE = 16


@dataclass(frozen=True)
class OracleBudget:
    max_enumeration: int = 1 << 22


def enumerate_homologous(K: Complex, zeta: Chain, budget: OracleBudget = OracleBudget()) -> List[Chain]:
    """All cycles homologous to zeta: one representative per boundary."""
    r = zeta.dimension
    B = boundary_matrix(K, r + 1)
    pivots = column_space_pivots(B)
    if 1 << len(pivots) > budget.max_enumeration:
        raise ResourceError(f"2^{len(pivots)} homologous cycles exceed budget")
    reps = [0]
    for j in pivots:
        reps += [b ^ B.cols[j] for b in reps]
    return [K.chain_from_bits(r, zeta.support.bits ^ b) for b in reps]


def enumerate_boundary_chains(K: Complex, zeta: Chain, budget: OracleBudget = OracleBudget()) -> List[Chain]:
    """The full solution coset {x : boundary(x) = zeta} in dimension r+1."""
    r = zeta.dimension
    B = boundary_matrix(K, r + 1)
    x0 = solve(B, zeta.support)
    if x0 is None:
        raise InputError("chain does not bound in this complex")
    ker = kernel_basis(B)
    if 1 << ker.ncols > budget.max_enumeration:
        raise ResourceError(f"2^{ker.ncols} bounding chains exceed budget")
    out = [x0.bits]
    for z in ker.cols:
        out += [x ^ z for x in out]
    return [K.chain_from_bits(r + 1, x) for x in out]


def _min_hitting_set(K: Complex, dim: int, targets: List[int], kmax: int) -> Optional[Chain]:
    """Smallest (size, then lexicographic) index subset intersecting every target."""
    n = K.n(dim)
    if kmax < 0:
        raise InputError(f"kmax must be at least 0, got {kmax}")
    if kmax > MAX_SUBSET_SIZE:
        raise ResourceError(f"subset size {kmax} exceeds budget")
    for size in range(kmax + 1):
        for combo in combinations(range(n), size):
            bits = 0
            for i in combo:
                bits |= 1 << i
            if all(t & bits for t in targets):
                return K.chain_from_bits(dim, bits)
    return None


def brute_ths(K: Complex, zeta: Chain, kmax: int, budget: OracleBudget = OracleBudget()) -> Optional[Chain]:
    """Definition-level THS: hit every cycle homologous to zeta."""
    cycles = enumerate_homologous(K, zeta, budget)
    targets = [c.support.bits for c in cycles]
    if any(t == 0 for t in targets):
        raise InputError("zeta is bounding; the zero cycle cannot be hit")
    return _min_hitting_set(K, zeta.dimension, targets, kmax)


def brute_bnt(K: Complex, zeta: Chain, kmax: int, budget: OracleBudget = OracleBudget()) -> Optional[Chain]:
    """Definition-level BNT: hit every chain whose boundary is zeta."""
    if zeta.support.bits == 0:
        return None  # the empty chain always bounds zero; unsatisfiable
    chains = enumerate_boundary_chains(K, zeta, budget)
    targets = [c.support.bits for c in chains]
    if any(t == 0 for t in targets):
        return None
    return _min_hitting_set(K, zeta.dimension + 1, targets, kmax)


def _simple_cycles_upto(adj: Dict[int, Set[int]], max_len: int) -> List[frozenset]:
    """All simple cycles of a graph, as frozensets of (u,v) node pairs,
    with at most max_len edges."""
    out: Set[frozenset] = set()
    nodes = sorted(adj)
    for start in nodes:
        stack = [(start, [start])]
        while stack:
            u, path = stack.pop()
            for v in sorted(adj[u]):
                if v == start and len(path) >= 3:
                    out.add(frozenset((min(a, b), max(a, b)) for a, b in zip(path, path[1:] + [start])))
                elif v > start and v not in path and len(path) < max_len:
                    stack.append((v, path + [v]))
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def brute_ths_surface(K: Complex, zeta: Chain, wmax: Optional[int] = None) -> Optional[Chain]:
    """Exact THS optimum on a closed surface: the first circle subgraph of
    the dual graph (minimal solutions have that shape), in (length, node
    pairs) order, that is feasible.

    Circles are enumerated up to a length cap doubling from 3 to ``wmax``
    (default: the edge count), so the search stops at the first cap that
    holds a feasible circle.  Each circle is certified by
    :func:`surviving_basis_ths`.  Tractable where full subset enumeration
    is not; unit weights assumed.
    """
    if (
        zeta.dimension != 1
        or boundary_matrix(K, 1).matvec(zeta.support).bits
        or in_colspace(boundary_matrix(K, 2), zeta.support)
    ):
        raise InputError("zeta must be a non-bounding 1-cycle")
    adj: Dict[int, Set[int]] = {t: set() for t in range(K.n(2))}
    pair_to_edge = {}
    for a, b, ei in dual_graph(K):
        adj[a].add(b)
        adj[b].add(a)
        pair_to_edge[a, b] = ei
    limit = wmax if wmax is not None else K.n(1)
    cap = min(3, limit)
    while True:
        for cyc in _simple_cycles_upto(adj, cap):
            bits = 0
            for pair in cyc:
                bits |= 1 << pair_to_edge[pair]
            S = K.chain_from_bits(1, bits)
            if surviving_basis_ths(K, zeta, S):
                return S
        if cap >= limit:
            return None
        cap = min(2 * cap, limit)


# ------------------------------------------------------ reference verifiers
#
# Each takes inputs the public verifier has already validated: zeta a
# non-bounding (THS) or bounding (BNT) r-cycle of K, S a chain of K of the
# right dimension.


def _lift(mapping: Dict[int, Dict[int, int]], c: Chain) -> int:
    """Re-index a K_S chain's support bits into K's index space."""
    return _reindex(c.support.bits, {new: old for old, new in mapping[c.dimension].items()})


def _surviving_cycles(K: Complex, S: Chain) -> List[int]:
    """A homology basis of K_S, lifted back into K's r-chains."""
    KS, mapping = remove_closure(K, S)
    return [_lift(mapping, c) for c in homology_basis(KS, S.dimension).cycles]


def surviving_basis_ths(K: Complex, zeta: Chain, S: Chain) -> bool:
    """THS: zeta is outside the span of K_S's homology basis and K's boundaries."""
    r = zeta.dimension
    B = boundary_matrix(K, r + 1)
    return not in_colspace(GF2Matrix(K.n(r), _surviving_cycles(K, S) + B.cols), zeta.support)


def surviving_basis_global_ths(K: Complex, r: int, S: Chain) -> bool:
    """Global THS: K_S's homology basis spans fewer than beta_r classes of K."""
    B = boundary_matrix(K, r + 1)
    return relative_rank(B, GF2Matrix(K.n(r), _surviving_cycles(K, S))) < betti(K, r)


def restricted_solve_bnt(K: Complex, zeta: Chain, S: Chain) -> bool:
    """BNT: zeta has no preimage among the (r+1)-simplices outside S."""
    B = boundary_matrix(K, zeta.dimension + 1)
    kept = [c for i, c in enumerate(B.cols) if not S.support.get(i)]
    return solve(GF2Matrix(B.nrows, kept), zeta.support) is None


def rank_drop_global_bnt(K: Complex, r: int, S: Chain) -> bool:
    """Global BNT: the columns outside S have lower rank than all of ∂_{r+1}."""
    B = boundary_matrix(K, r + 1)
    kept = [c for i, c in enumerate(B.cols) if not S.support.get(i)]
    return rank(GF2Matrix(B.nrows, kept)) < rank(B)
