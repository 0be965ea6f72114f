"""Randomized solvers for the global problem variants.

A uniformly random nonzero homology class (or bounding cycle) is handed
to the class-specific solver; with probability at least one half the
drawn input admits a solution that already works globally, so a handful
of verified trials suffices.  Randomness is SplitMix64 with the standard
published constants, so transcripts replay bit-for-bit from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .bnt_greedy import _greedy_cover
from .complexes import Chain, Complex, boundary_matrix
from .errors import InputError
from .feasibility import CutInstance
from .fpt_ths import FPTConfig, _search
from .gf2 import GF2Matrix, GF2Vector, _bit_indices, column_space_pivots
from .homology import HomologyBasis, _homology_basis, homology_basis

__all__ = [
    "RandomizedRun",
    "splitmix64",
    "random_nontrivial_cycle",
    "random_bounding_cycle",
    "solve_global_ths",
    "solve_global_bnt",
    "DEFAULT_TRIALS",
]

DEFAULT_TRIALS = 16
_MASK = (1 << 64) - 1


def splitmix64(seed: int):
    """Stateless 64-bit generator: state += 0x9E3779B97F4A7C15, then mixed."""
    state = seed & _MASK

    def next_u64() -> int:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    return next_u64


def _random_nonzero_bits(nbits: int, rng) -> int:
    while True:
        bits = 0
        for word in range((nbits + 63) // 64):
            bits |= rng() << (64 * word)
        bits &= (1 << nbits) - 1
        if bits:
            return bits


@dataclass
class RandomizedRun:
    seed: int
    trials: int
    records: List[dict] = field(default_factory=list)


def _draw_class(hb: HomologyBasis, seed: int) -> Chain:
    if len(hb) == 0:
        raise InputError(f"beta_{hb.dimension} = 0: no nontrivial class to draw")
    rng = splitmix64(seed)
    bits = _random_nonzero_bits(len(hb), rng)
    return hb.combine(GF2Vector(len(hb), bits))


def random_nontrivial_cycle(K: Complex, r: int, seed: int) -> Chain:
    """B·x for uniform nonzero x over the homology basis matrix B."""
    return _draw_class(homology_basis(K, r), seed)


def _draw_bounding(K: Complex, r: int, B: GF2Matrix, pivots: List[int], seed: int) -> Chain:
    """Uniform nonzero combination of the columns of B at ``pivots``."""
    if not pivots:
        raise InputError("boundary space is zero; no bounding cycle to draw")
    rng = splitmix64(seed)
    x = _random_nonzero_bits(len(pivots), rng)
    acc = 0
    for pos in _bit_indices(x):
        acc ^= B.cols[pivots[pos]]
    return K.chain_from_bits(r, acc)


def random_bounding_cycle(K: Complex, r: int, seed: int) -> Chain:
    """Uniform nonzero combination of a boundary-space basis."""
    B = boundary_matrix(K, r + 1)
    return _draw_bounding(K, r, B, column_space_pivots(B), seed)


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")


def solve_global_ths(
    K: Complex,
    r: int,
    config: FPTConfig,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    run: Optional[RandomizedRun] = None,
) -> Optional[Chain]:
    """Best verified global hitting set over seeded independent trials."""
    _require_trials(trials)
    if not (K.lo <= r <= K.hi):
        raise InputError(f"dimension {r} outside window [{K.lo},{K.hi}]")
    inst = CutInstance(K, r)
    hb = _homology_basis(K, r, inst.boundary, inst.cycles())
    best: Optional[Chain] = None
    for t in range(trials):
        zeta = _draw_class(hb, seed + t)
        sol = _search(inst._for_ths(zeta), zeta, config)
        ok = sol is not None and inst.global_ths(sol.support.bits)[0]
        if run is not None:
            run.records.append(
                {"trial": t, "class": zeta.support.bits, "size": None if sol is None else len(sol), "success": ok}
            )
        if ok and (best is None or (len(sol), sol.support.bits) < (len(best), best.support.bits)):
            best = sol
    return best


def solve_global_bnt(
    K: Complex,
    r: int,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    run: Optional[RandomizedRun] = None,
) -> Optional[Chain]:
    """Best verified global boundary-space cut over seeded trials."""
    _require_trials(trials)
    inst = CutInstance(K, r)
    pivots = column_space_pivots(inst.boundary)
    best: Optional[Chain] = None
    for t in range(trials):
        zeta = _draw_bounding(K, r, inst.boundary, pivots, seed + t)
        sol = _greedy_cover(inst._for_bnt(zeta), zeta)
        ok = inst.global_bnt(sol.support.bits)[0]
        if run is not None:
            run.records.append(
                {"trial": t, "cycle": zeta.support.bits, "size": len(sol), "success": ok}
            )
        if ok and (best is None or (len(sol), sol.support.bits) < (len(best), best.support.bits)):
            best = sol
    return best
