"""Polynomial-time topological hitting set on closed surfaces.

Minimal solutions on surfaces are nontrivial cocycles that trace a circle
in the dual graph, so it suffices to compute a minimum-weight cocycle
basis (``homology.min_cohomology_basis``, a shortest-cycle greedy on the
dual graph) and pick the lightest element with odd pairing against the
input cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .complexes import Chain, Complex, boundary_matrix, dual_graph, evaluate
from .errors import InputError, InternalError
from .feasibility import CutInstance, FeasibilityReport
from .gf2 import GF2Matrix, _bit_indices, in_colspace
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


def _coboundary(K: Complex, p: int) -> GF2Matrix:
    """delta_p, the transpose of ∂_(p+1): column j is the coboundary of p-simplex j."""
    return GF2Matrix(K.n(p + 1), boundary_matrix(K, p + 1).rows())


def is_connected_cocycle(K: Complex, eta: Chain) -> bool:
    """A nonempty 1-cocycle whose edges induce a connected dual subgraph."""
    if eta.dimension != 1:
        raise InputError("connected cocycles live in dimension 1")
    if eta.support.bits == 0 or _coboundary(K, 1).matvec(eta.support).bits:
        return False
    _, dedges = dual_graph(K)
    nodes: set = set()
    adj: Dict[int, set] = {}
    for a, b, ei in dedges:
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
    if _coboundary(K, 1).matvec(eta.support).bits:
        return "not-cocycle"
    if in_colspace(_coboundary(K, 0), eta.support):
        return "trivial-cocycle"
    return "nontrivial-cocycle"


def solve_ths_surface(K: Complex, zeta: Chain) -> SurfaceTHSResult:
    """Smallest-weight basis cocycle pairing oddly with the input class."""
    if zeta.dimension != 1:
        raise InputError("surface hitting set runs in dimension 1")
    inst = CutInstance.for_ths(K, zeta)  # InputError unless zeta is a non-bounding cycle
    for i, wc in enumerate(min_cohomology_basis(K)):
        if evaluate(wc.chain, zeta):
            verdict, ranks = inst.cut(_bit_indices(wc.chain.support.bits))
            cert = FeasibilityReport(verdict, "projected-boundary-colspace", ranks)
            if not verdict:
                raise InternalError("selected basis cocycle is not feasible")
            return SurfaceTHSResult(wc.chain, wc.weight, i, cert)
    raise InternalError("no basis cocycle pairs oddly with a nontrivial cycle")
