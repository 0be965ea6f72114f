"""Polynomial-time topological hitting set on closed surfaces.

Minimal solutions on surfaces are nontrivial cocycles that trace a circle
in the dual graph, so it suffices to compute a minimum-weight cocycle
basis (``homology.min_cohomology_basis``, a shortest-cycle greedy on the
dual graph) and pick the lightest element with odd pairing against the
input cycle; one cut test certifies it.  The cocycle tests transpose
nothing: eta is a cocycle iff it vanishes on every column of ∂_2, and a
cocycle is a coboundary iff it vanishes on a ker ∂_1 basis, since
im δ_0 = (ker ∂_1)^⊥ over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .complexes import Chain, Complex, boundary_matrix, dual_graph, evaluate
from .errors import InputError, InternalError
from .feasibility import _THS_METHOD, CutInstance, FeasibilityReport, _report
from .gf2 import kernel_basis
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
    """A nonempty 1-cocycle whose edges induce a connected dual subgraph."""
    if eta.dimension != 1:
        raise InputError("connected cocycles live in dimension 1")
    if eta.support.bits == 0 or not _pairs_evenly(K, eta, boundary_matrix(K, 2).cols):
        return False
    nodes: set = set()
    adj: Dict[int, set] = {}
    for a, b, ei in dual_graph(K):
        if eta.support.get(ei):
            nodes.update((a, b))
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == nodes


def classify_cocycle(K: Complex, eta: Chain) -> str:
    """One of 'not-cocycle', 'trivial-cocycle', 'nontrivial-cocycle'."""
    if eta.dimension != 1:
        raise InputError("classification is for 1-cochains")
    if not _pairs_evenly(K, eta, boundary_matrix(K, 2).cols):
        return "not-cocycle"
    if _pairs_evenly(K, eta, kernel_basis(boundary_matrix(K, 1)).cols):
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
