"""Polynomial-time topological hitting set on closed surfaces.

Minimal solutions on surfaces are nontrivial cocycles that trace a circle
in the dual graph, so it suffices to compute a minimum-weight cocycle
basis (``homology.min_cohomology_basis``, a shortest-cycle greedy on the
dual graph) and pick the lightest element with odd pairing against the
input cycle; one cut test certifies it.  The cocycle tests transpose
and eliminate nothing: eta is a cocycle iff it vanishes on every column
of ∂_2, and it is a coboundary δf iff labelling the vertices along the
1-skeleton with f(b) = f(a) + eta(ab) meets no conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .complexes import Chain, Complex, boundary_matrix, evaluate
from .errors import InputError, InternalError
from .feasibility import _THS_METHOD, CutInstance, FeasibilityReport, _report
from .gf2 import _bit_indices
from .homology import min_cohomology_basis

__all__ = [
    "SurfaceTHSResult",
    "solve_ths_surface",
    "is_connected_cocycle",
    "classify_cocycle",
]


@dataclass(frozen=True)
class SurfaceTHSResult:
    """The solution cocycle, its weight, its position ``basis_index`` in
    ``min_cohomology_basis(K)``, and the cut test that certifies it."""

    solution: Chain
    weight: float
    basis_index: int
    certificate: FeasibilityReport


def _pairs_evenly(K: Complex, eta: Chain, chains: List[int]) -> bool:
    """Does the 1-cochain eta vanish on each of these 1-chains of K?"""
    if eta.support.length != K.n(1):
        raise InputError("cochain does not belong to this complex")
    return not any((eta.support.bits & c).bit_count() & 1 for c in chains)


def is_connected_cocycle(K: Complex, eta: Chain) -> bool:
    """A nonempty 1-cocycle whose edges induce a connected dual subgraph.

    The triangles of each edge are read from the ∂_2 columns of the cocycle
    test, so only the edges of eta must lie in exactly two triangles
    (InputError otherwise): a pinched surface is answered, not refused."""
    if eta.dimension != 1:
        raise InputError("connected cocycles live in dimension 1")
    cols = boundary_matrix(K, 2).cols
    bits = eta.support.bits
    if bits == 0 or not _pairs_evenly(K, eta, cols):
        return False
    ends: Dict[int, List[int]] = {ei: [] for ei in _bit_indices(bits)}
    for ti, col in enumerate(cols):
        for ei in _bit_indices(col & bits):
            ends[ei].append(ti)
    for ei, ts in ends.items():
        if len(ts) != 2:
            raise InputError(f"edge {K.simplices[1][ei]} of eta lies in {len(ts)} triangles, not 2")
    # grow from one edge of eta across the triangles it shares with others
    start = next(iter(ends))
    reached, frontier = 1 << start, [start]
    while frontier:
        for ti in ends[frontier.pop()]:
            new = cols[ti] & bits & ~reached
            reached |= new
            frontier.extend(_bit_indices(new))
    return reached == bits


def _is_coboundary(K: Complex, eta: Chain) -> bool:
    """Is the 1-cochain eta = δf for a 0-cochain f?  A search labels each
    component of the 1-skeleton from f = 0 at one vertex, with
    f(b) = f(a) + eta(ab) along each edge ab, and eta is a coboundary iff
    no edge meets a conflict.  With the window floor at 1, ∂_1 and so δ_0
    are the zero map, and only eta = 0 is one."""
    if K.lo == 1:
        return eta.support.bits == 0
    bits = eta.support.bits
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for i, (a, b) in enumerate(K.simplices.get(1, ())):
        x = bits >> i & 1
        adj.setdefault(a, []).append((b, x))
        adj.setdefault(b, []).append((a, x))
    f: Dict[int, int] = {}
    for root in adj:
        if root in f:
            continue
        f[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for b, x in adj[a]:
                want = f[a] ^ x
                got = f.get(b)
                if got is None:
                    f[b] = want
                    stack.append(b)
                elif got != want:
                    return False
    return True


def classify_cocycle(K: Complex, eta: Chain) -> str:
    """One of 'not-cocycle', 'trivial-cocycle', 'nontrivial-cocycle'."""
    if eta.dimension != 1:
        raise InputError("classification is for 1-cochains")
    if K.lo > 1:
        raise InputError(f"dimension 1 outside window [{K.lo},{K.hi}]")
    if not _pairs_evenly(K, eta, boundary_matrix(K, 2).cols):
        return "not-cocycle"
    if _is_coboundary(K, eta):
        return "trivial-cocycle"
    return "nontrivial-cocycle"


def solve_ths_surface(K: Complex, zeta: Chain) -> SurfaceTHSResult:
    """Smallest-weight basis cocycle pairing oddly with the input class."""
    if zeta.dimension != 1:
        raise InputError("surface hitting set runs in dimension 1")
    inst = CutInstance.for_ths(K, zeta)  # InputError unless zeta is a non-bounding cycle
    for i, wc in enumerate(min_cohomology_basis(K)):
        if evaluate(wc.chain, zeta):
            cert = _report(_THS_METHOD, inst.cut(wc.chain.support.bits))
            if not cert.verdict:
                raise InternalError("selected basis cocycle is not feasible")
            return SurfaceTHSResult(wc.chain, wc.weight, i, cert)
    raise InternalError("no basis cocycle pairs oddly with a nontrivial cycle")
