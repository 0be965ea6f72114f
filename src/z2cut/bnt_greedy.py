"""Greedy boundary nontrivialization (log-factor approximation).

The chains with boundary zeta are the coset x0 + ker ∂_(r+1), and a set of
(r+1)-simplices makes zeta non-bounding exactly when it meets every one of
them.  The solver is Chvátal's greedy set cover over that coset: take the
simplex in the most chains not yet met, the lowest index on ties, so the
cover is within H(|coset|) <= ln|coset| + 1 of the optimum.  The coset is
never listed.  The chains not yet met form an affine subspace x + span(ker)
of some dimension d, on which a coordinate is constant 1 (it meets all 2^d
chains), constant 0, or free (it meets half of them).  So the greedy takes
the lowest constant-1 coordinate if there is one, and stops; otherwise it
takes the lowest free coordinate and halves the subspace by one elimination
step.  That is at most dim ker ∂_(r+1) + 1 picks, with no cap on the
dimension.  One ``CutInstance.for_bnt`` checks that zeta bounds, supplies ∂
and its cached elimination, and certifies the cover.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .complexes import Chain, Complex
from .errors import InputError, InternalError
from .feasibility import CutInstance
from .gf2 import kernel_basis, solve

__all__ = ["solve_bnt_greedy"]


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def solve_bnt_greedy(K: Complex, zeta: Chain) -> Chain:
    """Smallest-ish set of (r+1)-simplices making zeta non-bounding."""
    r = zeta.dimension
    inst = CutInstance.for_bnt(K, zeta)  # InputError unless zeta bounds
    if not zeta.support.bits:
        raise InputError("the zero cycle bounds the empty chain; no removal makes it non-bounding")
    x = solve(inst.boundary, zeta.support).bits
    ker = kernel_basis(inst.boundary).cols  # a copy of for_bnt's kernel, which cut reads
    picks = []
    while not x & ~(free := reduce(or_, ker, 0)):
        i = _lowest(free)
        picks.append(i)
        b = ker.pop(next(j for j, v in enumerate(ker) if v >> i & 1))
        ker = [v ^ b if v >> i & 1 else v for v in ker]
        if x >> i & 1:
            x ^= b
    picks.append(_lowest(x & ~free))
    bits = sum(1 << j for j in picks)
    if not inst.cut(bits)[0]:
        raise InternalError("greedy cover output failed the feasibility check")
    return K.chain_from_bits(r + 1, bits)
