"""Greedy boundary nontrivialization (log-factor approximation).

The chains with boundary zeta are the coset x0 + ker ∂_(r+1), and a set of
(r+1)-simplices makes zeta non-bounding exactly when it meets every one of
them.  The solver lists the 2^(dim ker ∂_(r+1)) chains of the coset, which
is 2^beta_(r+1) on an (r+1)-dimensional complex, and runs Chvátal's greedy
set cover on them once, so the cover is within H(|coset|) <= ln|coset| + 1
of the optimum.  Chains are bitsets over (r+1)-simplex indices, and the
cover picks rows of that index space.  One ``CutInstance.for_bnt`` checks
that zeta bounds, supplies ∂ and its cached elimination, and certifies the
cover.
"""

from __future__ import annotations

from typing import List

from .complexes import Chain, Complex
from .errors import InputError, InternalError, ResourceError
from .feasibility import CutInstance
from .gf2 import GF2Matrix, kernel_basis, solve

__all__ = ["greedy_set_cover", "solve_bnt_greedy", "BETA_CAP"]

BETA_CAP = 20


def greedy_set_cover(incidence: GF2Matrix) -> List[int]:
    """Rows hitting every column: repeatedly the row that hits the most
    unhit columns, the lowest row on ties.  Columns are the chains to hit,
    rows the simplices, so the rows returned are simplex indices."""
    if not all(incidence.cols):
        raise InputError("some chain contains no available simplex")
    rows = incidence.rows()
    unhit = (1 << incidence.ncols) - 1
    chosen = []
    while unhit:
        best = max(range(len(rows)), key=lambda i: ((rows[i] & unhit).bit_count(), -i))
        chosen.append(best)
        unhit &= ~rows[best]
    return chosen


def solve_bnt_greedy(K: Complex, zeta: Chain) -> Chain:
    """Smallest-ish set of (r+1)-simplices making zeta non-bounding."""
    r = zeta.dimension
    inst = CutInstance.for_bnt(K, zeta)  # InputError unless zeta bounds
    if not zeta.support.bits:
        raise InputError("the zero cycle bounds the empty chain; no removal makes it non-bounding")
    B = inst.boundary
    ker = kernel_basis(B).cols  # from the elimination for_bnt made
    if len(ker) > BETA_CAP:
        raise ResourceError(f"dim ker ∂_{r + 1} = {len(ker)} exceeds the cap {BETA_CAP}")
    coset = [solve(B, zeta.support).bits]
    for k in ker:
        coset += [x ^ k for x in coset]
    picks = greedy_set_cover(GF2Matrix(B.ncols, coset))
    if not inst.cut(picks)[0]:
        raise InternalError("greedy cover output failed the feasibility check")
    return K.chain_from_bits(r + 1, sum(1 << j for j in picks))
