"""Greedy boundary nontrivialization (log-factor approximation).

Repeatedly re-solve the restricted boundary system: each surviving
preimage chain yields a fresh particular solution x; every chain with the
right boundary is an odd combination of the x's collected so far, so a
greedy set cover over those combinations kills the whole coset a few
simplices at a time.  One ``CutInstance.for_bnt`` checks that zeta bounds,
supplies ∂ and the elimination that gives beta_(r+1) for the loop bound,
and certifies the final cover with its cut test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .complexes import Chain, Complex, boundary_matrix
from .errors import InputError, InternalError, ResourceError
from .feasibility import CutInstance
from .gf2 import GF2Matrix, _bit_indices, _reindex, rank, solve

__all__ = ["CoverInstance", "greedy_set_cover", "solve_bnt_greedy", "BETA_CAP"]

BETA_CAP = 20


@dataclass
class CoverInstance:
    """Rows are (r+1)-simplex ids, columns chain ids; entry 1 = membership."""

    universe: List[int]
    sets: List[int]
    incidence: GF2Matrix  # one column per universe element, bits over sets


def greedy_set_cover(inst: CoverInstance) -> List[int]:
    """Max-coverage greedy, lowest row index on ties; returns chosen rows."""
    nrows = len(inst.sets)
    row_masks = inst.incidence.rows()
    uncovered = (1 << len(inst.universe)) - 1
    covered_by_any = 0
    for m in row_masks:
        covered_by_any |= m
    if uncovered & ~covered_by_any:
        raise InputError("some chain contains no available simplex")
    chosen = []
    while uncovered:
        gains = [(mask & uncovered).bit_count() for mask in row_masks]
        best = max(range(nrows), key=lambda i: (gains[i], -i))
        chosen.append(inst.sets[best])
        uncovered &= ~row_masks[best]
    return chosen


def solve_bnt_greedy(K: Complex, zeta: Chain, beta_cap: int = BETA_CAP) -> Chain:
    """Smallest-ish set of (r+1)-simplices making zeta non-bounding."""
    r = zeta.dimension
    inst = CutInstance.for_bnt(K, zeta)  # InputError unless zeta bounds
    B = inst.boundary
    n = K.n(r + 1)
    # beta_(r+1) = dim ker ∂_(r+1) - rank ∂_(r+2), from the elimination for_bnt made
    beta_up = B.ncols - rank(B) - rank(boundary_matrix(K, r + 2))
    if beta_up > beta_cap:
        raise ResourceError(f"beta_(r+1) = {beta_up} exceeds the cap {beta_cap}")
    removed = 0  # bitmask over (r+1)-simplex indices
    X: List[int] = []  # particular solutions, original index space
    iterations = 0
    while True:
        keep_idx = [j for j in range(n) if not (removed >> j) & 1]
        BS = GF2Matrix(K.n(r), [B.cols[j] for j in keep_idx])
        x = solve(BS, zeta.support)
        if x is None:
            break
        iterations += 1
        if iterations > beta_up + 1:
            raise InternalError("cover loop exceeded the termination bound")
        X.append(_reindex(x.bits, keep_idx))
        # all odd-size subset XORs of X, minus chains already hit
        ys: List[int] = []
        for mask in range(1, 1 << len(X)):
            if mask.bit_count() & 1 == 0:
                continue
            acc = 0
            for i in _bit_indices(mask):
                acc ^= X[i]
            if acc & removed:
                continue  # already covered by an earlier pick
            ys.append(acc)
        ys = sorted(set(ys))
        # incidence: rows = surviving simplices, columns = chains in Y; no
        # y meets ``removed``, so each of its bits has a position
        position = {j: pos for pos, j in enumerate(keep_idx)}
        cols = [_reindex(y, position) for y in ys]
        cover = CoverInstance(list(range(len(ys))), keep_idx, GF2Matrix(len(keep_idx), cols))
        for j in greedy_set_cover(cover):
            removed |= 1 << j
    if not inst.cut(_bit_indices(removed))[0]:
        raise InternalError("greedy cover output failed the feasibility check")
    return K.chain_from_bits(r + 1, removed)
