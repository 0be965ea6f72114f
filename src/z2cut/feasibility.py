"""Polynomial-time verifiers for both cut problems and their global variants.

Each question about a candidate set S is a rank test on the |S| rows that
S selects; P_S below keeps the coordinates in S.  With ∂ = ∂_{r+1},
B = colspace ∂ the r-boundaries and Z = Z_r the r-cycles:

- THS.  A cycle homologous to zeta is zeta + ∂y, and it avoids S exactly
  when (∂y)|_S = zeta|_S.  So S meets every such cycle iff
  zeta|_S ∉ colspace(P_S ∂).
- Global THS.  H_r(K_S) -> H_r(K) is onto iff every cycle is homologous
  to one avoiding S.  The map Z -> P_S Z / P_S B has kernel Z(K_S) + B,
  so the induced map misses a class iff rank(P_S Z) > rank(P_S ∂).
- BNT.  The chains with boundary zeta are x0 + ker ∂ for one preimage
  x0, so removing S leaves none iff x0|_S ∉ colspace(P_S ker ∂).
- Global BNT.  Dropping the columns in S from ∂ loses
  |S| - rank(P_S ker ∂) of its rank, so the boundary space shrinks iff
  rank(P_S ker ∂) < |S|.

A :class:`CutInstance` validates its input and builds these matrices once,
stored by row, and then answers any number of sets; the four public
verifiers are one-set wrappers around it.  The cut tests build only
∂ = ∂_{r+1}; that zeta is a cycle is checked on its members' facets.
Each rank is the pivot count after inserting the selected rows into one
``gf2`` pivot dict.  For the two cut tests the target is an extra column
at bit 0, and column j of the w-column matrix sits at bit w - j; pivots are
keyed by highest set bit, so key 0 is present exactly when e_0 is in the
row space, i.e. when the target restricted to S lies outside the column
space.  The columns are mirrored so that a row is keyed by its first
column; with the columns in place, the rows of the seed-1 ``fpt``
benchmark ops took 42% more xor steps.  A search that grows its sets one
member at a time keeps each set's pivot dict and adds one row per member
(:meth:`CutInstance.grow`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

from .complexes import Chain, Complex, boundary_matrix
from .errors import InputError
from .gf2 import GF2Matrix, Pivots, _bit_indices, _insert, in_colspace, kernel_basis, solve

__all__ = [
    "FeasibilityReport",
    "CutInstance",
    "is_ths_feasible",
    "is_bnt_feasible",
    "is_global_ths_solution",
    "is_global_bnt_solution",
]


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: bool
    method: str
    ranks: Dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.verdict


def _require_set(K: Complex, S: Chain, dimension: int, what: str) -> None:
    if S.dimension != dimension:
        raise InputError(what)
    if not K.lo <= dimension <= K.hi:
        raise InputError(f"dimension {dimension} outside window [{K.lo},{K.hi}]")
    if S.support.length != K.n(dimension):
        raise InputError("chain does not belong to this complex")


def _require_cycle(K: Complex, zeta: Chain) -> None:
    """∂zeta = 0: the facets of zeta's members cancel in pairs.  As in
    ``boundary_matrix``, every chain at the window floor is a cycle."""
    r = zeta.dimension
    _require_set(K, zeta, r, "")  # in the window, of this complex
    facets = 0
    for s in K.members(zeta) if r > K.lo else ():
        for f in combinations(s, r):
            facets ^= 1 << K.index[r - 1][f]
    if facets:
        raise InputError("input chain is not a cycle")


def _pivots(rows: List[int], S: List[int]) -> Pivots:
    """The rows indexed by S reduced into one pivot dict; its size is their rank."""
    pivots: Pivots = {}
    for i in S:
        _insert(pivots, rows[i])
    return pivots


class CutInstance:
    """The cut questions on one complex in one dimension r.

    ``CutInstance(K, r)`` answers the two global questions; :meth:`for_ths`
    and :meth:`for_bnt` build the instance for one r-cycle zeta, checked
    once to be non-bounding, respectively bounding, and also answer
    :meth:`cut`.  A set is an iterable of simplex indices: r-simplices for
    THS, (r+1)-simplices for BNT.  Each matrix is built on first use and
    kept, stored by row.
    """

    __slots__ = ("K", "r", "boundary", "_augmented", "_bd_rows", "_cycle_rows", "_ker_rows")

    def __init__(self, K: Complex, r: int) -> None:
        self.K = K
        self.r = r
        self.boundary = boundary_matrix(K, r + 1)
        # rows of [∂ | zeta] (for_ths) or [ker ∂ | x0] (for_bnt), laid out
        # by _augment
        self._augmented: List[int] = []
        self._bd_rows: Optional[List[int]] = None
        self._cycle_rows: Optional[List[int]] = None
        self._ker_rows: Optional[List[int]] = None

    def _augment(self, M: GF2Matrix, target: int) -> None:
        """Keep the rows of [M | target] with the target's coordinate as bit 0
        and column j of M as bit M.ncols - j, so that a row's first column is
        its highest bit, the key it is reduced by."""
        mirrored = GF2Matrix(M.nrows, M.cols[::-1]).rows()
        self._augmented = [row << 1 | (target >> i) & 1 for i, row in enumerate(mirrored)]

    @classmethod
    def for_ths(cls, K: Complex, zeta: Chain) -> "CutInstance":
        _require_cycle(K, zeta)
        inst = cls(K, zeta.dimension)
        if in_colspace(inst.boundary, zeta.support):
            raise InputError("input cycle bounds; a non-bounding cycle is required")
        inst._augment(inst.boundary, zeta.support.bits)
        return inst

    @classmethod
    def for_bnt(cls, K: Complex, zeta: Chain) -> "CutInstance":
        inst = cls(K, zeta.dimension)
        x0 = solve(inst.boundary, zeta.support)
        if x0 is None:
            raise InputError("input cycle does not bound; a bounding cycle is required")
        inst._augment(kernel_basis(inst.boundary), x0.bits)
        return inst

    def cut(self, S: Iterable[int]) -> Tuple[bool, Dict[str, int]]:
        """Is S a cut, and the ranks that decide it.

        From :meth:`for_ths`: does S meet every cycle homologous to zeta,
        i.e. zeta|_S ∉ colspace(P_S ∂).  From :meth:`for_bnt`: does removing
        S leave zeta non-bounding, i.e. x0|_S ∉ colspace(P_S ker ∂).  The
        ranks are those of P_S M and of [P_S M | target|_S].
        """
        S = list(S)
        pivots = _pivots(self._augmented, S)
        verdict = 0 in pivots
        return verdict, {"size_S": len(S), "rank_S": len(pivots) - verdict, "rank_augmented_S": len(pivots)}

    def grow(self, pivots: Pivots, i: int) -> Tuple[Pivots, bool]:
        """The pivot dict of S + {i} from that of S (left as it is), and
        whether S + {i} is a cut.

        One row is inserted into a copy, so a search that grows its sets
        one simplex at a time never re-inserts the rows it already holds.
        ``grow({}, i)`` starts the singleton {i}.
        """
        pivots = dict(pivots)
        _insert(pivots, self._augmented[i])
        return pivots, 0 in pivots

    def global_ths(self, S: Iterable[int]) -> Tuple[bool, Dict[str, int]]:
        """Does H_r(K_S) -> H_r(K) miss a class: rank P_S Z_r > rank P_S ∂_{r+1}."""
        if self._cycle_rows is None:
            if self.r > self.K.hi:  # Z_r needs ∂_r, which the window does not hold
                raise InputError(f"dimension {self.r} outside window [{self.K.lo},{self.K.hi}]")
            self._cycle_rows = kernel_basis(boundary_matrix(self.K, self.r)).rows()
            self._bd_rows = self.boundary.rows()
        S = list(S)
        rank_cycles = len(_pivots(self._cycle_rows, S))
        rank_boundary = len(_pivots(self._bd_rows, S))
        return rank_cycles > rank_boundary, {
            "size_S": len(S),
            "rank_cycles_S": rank_cycles,
            "rank_boundary_S": rank_boundary,
        }

    def global_bnt(self, S: Iterable[int]) -> Tuple[bool, Dict[str, int]]:
        """Does removing S lower rank ∂_{r+1}: rank P_S ker ∂_{r+1} < |S|."""
        if self._ker_rows is None:
            self._ker_rows = kernel_basis(self.boundary).rows()
        S = list(S)
        rank_kernel = len(_pivots(self._ker_rows, S))
        return rank_kernel < len(S), {"size_S": len(S), "rank_kernel_S": rank_kernel}


def _report(method: str, answer: Tuple[bool, Dict[str, int]]) -> FeasibilityReport:
    return FeasibilityReport(answer[0], method, answer[1])


def is_ths_feasible(K: Complex, zeta: Chain, S: Chain) -> FeasibilityReport:
    """Does S meet every cycle homologous to zeta?"""
    _require_set(K, S, zeta.dimension, "solution set must consist of simplices of zeta's dimension")
    return _report("projected-boundary-colspace", CutInstance.for_ths(K, zeta).cut(_bit_indices(S.support.bits)))


def is_bnt_feasible(K: Complex, zeta: Chain, S: Chain) -> FeasibilityReport:
    """Does removing S in dimension r+1 make zeta non-bounding?"""
    _require_set(K, S, zeta.dimension + 1, "solution set must consist of (r+1)-simplices")
    return _report("projected-kernel-colspace", CutInstance.for_bnt(K, zeta).cut(_bit_indices(S.support.bits)))


def is_global_ths_solution(K: Complex, r: int, S: Chain) -> FeasibilityReport:
    """Is the inclusion-induced map H_r(K_S) -> H_r(K) non-surjective?"""
    _require_set(K, S, r, "solution set must consist of r-simplices")
    return _report("projected-cycle-rank", CutInstance(K, r).global_ths(_bit_indices(S.support.bits)))


def is_global_bnt_solution(K: Complex, r: int, S: Chain) -> FeasibilityReport:
    """Does removing S strictly shrink the boundary space in dimension r?"""
    _require_set(K, S, r + 1, "solution set must consist of (r+1)-simplices")
    return _report("projected-kernel-rank", CutInstance(K, r).global_bnt(_bit_indices(S.support.bits)))
