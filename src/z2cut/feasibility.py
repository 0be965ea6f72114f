"""Polynomial-time verifiers for both cut problems and their global variants.

Each question about a candidate set S is a rank test on matrix columns
projected to S; P_S below keeps the coordinates in S.  With ∂ = ∂_{r+1},
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

A set is a bitset over simplex indices, as a chain's support is.  A
:class:`CutInstance` validates its input and builds these matrices once,
stored by column, and then answers any number of sets; the four public
verifiers are one-set wrappers around it.  The cut tests build only
∂ = ∂_{r+1}; that zeta is a cycle is checked on its members' facets.
Each rank is the pivot count after inserting the columns, masked to S,
into one ``gf2`` pivot dict; a cut test then reduces the masked target
against it, and S is a cut iff a residue is left.  Only a search that
grows its sets one member at a time transposes (:meth:`CutInstance.grow`):
it keeps one pivot dict of rows, inserts one row per member added and
deletes that row's key when the member is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .complexes import Chain, Complex, boundary_matrix
from .errors import InputError
from .gf2 import GF2Matrix, GF2Vector, Pivots, _eliminate, _insert, _reduce, in_colspace, solve

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


def _projected(cols: List[int], mask: int) -> Pivots:
    """M's columns masked to S in one pivot dict; its size is rank P_S M."""
    pivots: Pivots = {}
    for c in cols:
        if c := c & mask:
            _insert(pivots, c)
    return pivots


class CutInstance:
    """The cut questions on one complex in one dimension r.

    ``CutInstance(K, r)`` answers the two global questions; :meth:`for_ths`
    and :meth:`for_bnt` build the instance for one r-cycle zeta, checked
    once to be non-bounding, respectively bounding, and also answer
    :meth:`cut`.  A set is a bitset over simplex indices: r-simplices for
    THS and global THS, (r+1)-simplices for BNT and global BNT.  Each
    matrix is built on first use and kept, stored by column.
    """

    __slots__ = ("K", "r", "boundary", "_cols", "_target", "_rows", "_cycles")

    def __init__(self, K: Complex, r: int) -> None:
        self.K = K
        self.r = r
        self.boundary = boundary_matrix(K, r + 1)
        # M and the target of cut: ∂ and zeta (for_ths), ker ∂ and x0 (for_bnt)
        self._cols: List[int] = []
        self._target = GF2Vector(0, 0)
        self._rows: Optional[List[int]] = None
        self._cycles: Optional[List[int]] = None

    @classmethod
    def for_ths(cls, K: Complex, zeta: Chain) -> "CutInstance":
        _require_cycle(K, zeta)
        return cls(K, zeta.dimension)._for_ths(zeta)

    @classmethod
    def for_bnt(cls, K: Complex, zeta: Chain) -> "CutInstance":
        return cls(K, zeta.dimension)._for_bnt(zeta)

    def _for_ths(self, zeta: Chain) -> "CutInstance":
        """:meth:`for_ths` for an r-cycle zeta of K, on this instance's ∂:
        the new instance shares ∂ and its cached elimination, so a solver
        that asks about many cycles of one complex builds and eliminates ∂
        once."""
        if in_colspace(self.boundary, zeta.support):
            raise InputError("input cycle bounds; a non-bounding cycle is required")
        return self._aimed(self.boundary.cols, zeta.support)

    def _for_bnt(self, zeta: Chain) -> "CutInstance":
        """:meth:`for_bnt` on this instance's ∂, shared as in :meth:`_for_ths`."""
        x0 = solve(self.boundary, zeta.support)
        if x0 is None:
            raise InputError("input cycle does not bound; a bounding cycle is required")
        return self._aimed(_eliminate(self.boundary)[1], x0)

    def _aimed(self, cols: List[int], target: GF2Vector) -> "CutInstance":
        """A new instance on this ∂ whose :meth:`cut` tests target against cols."""
        inst = CutInstance.__new__(CutInstance)
        inst.K, inst.r, inst.boundary = self.K, self.r, self.boundary
        inst._cols, inst._target = cols, target
        inst._rows = inst._cycles = None
        return inst

    def cut(self, mask: int) -> Tuple[bool, Dict[str, int]]:
        """Is S a cut, and the ranks that decide it.

        From :meth:`for_ths`: does S meet every cycle homologous to zeta,
        i.e. zeta|_S ∉ colspace(P_S ∂).  From :meth:`for_bnt`: does removing
        S leave zeta non-bounding, i.e. x0|_S ∉ colspace(P_S ker ∂).  The
        ranks are those of P_S M and of [P_S M | target|_S].
        """
        pivots = _projected(self._cols, mask)
        verdict = _reduce(pivots, self._target.bits & mask)[0] != 0
        rank = len(pivots)
        return verdict, {"size_S": mask.bit_count(), "rank_S": rank, "rank_augmented_S": rank + verdict}

    def grow(self, pivots: Pivots, i: int) -> int:
        """Make the pivot dict of S that of S + {i}, in place, and return
        the key it stored, or -1 when row i is in the span of S's rows.

        Row i of [M | target] is inserted with ``gf2._insert``, which adds
        at most one key and changes no other, so deleting the returned key
        gives S's dict back: a search that adds and drops one member at a
        time keeps one dict and never re-inserts the rows it holds.
        ``grow({}, i)`` starts {i}.  The rows are built on the first call,
        mirrored: the target is bit 0 and column j of the w columns bit
        w - j, so a row is keyed by its first column (with the columns in
        place, the rows of the seed-1 ``fpt`` benchmark ops took 42% more
        xor steps).  S is a cut iff key 0 is present: e_0 is in the row
        space.
        """
        rows = self._rows
        if rows is None:
            mirrored = GF2Matrix(self._target.length, self._cols[::-1]).rows()
            rows = self._rows = [row << 1 | self._target.get(k) for k, row in enumerate(mirrored)]
        return _insert(pivots, rows[i])[0].bit_length() - 1

    def global_ths(self, mask: int) -> Tuple[bool, Dict[str, int]]:
        """Does H_r(K_S) -> H_r(K) miss a class: rank P_S Z_r > rank P_S ∂_{r+1}."""
        if self._cycles is None:
            if self.r > self.K.hi:  # Z_r needs ∂_r, which the window does not hold
                raise InputError(f"dimension {self.r} outside window [{self.K.lo},{self.K.hi}]")
            self._cycles = _eliminate(boundary_matrix(self.K, self.r))[1]
        rank_cycles = len(_projected(self._cycles, mask))
        rank_boundary = len(_projected(self.boundary.cols, mask))
        return rank_cycles > rank_boundary, {
            "size_S": mask.bit_count(),
            "rank_cycles_S": rank_cycles,
            "rank_boundary_S": rank_boundary,
        }

    def global_bnt(self, mask: int) -> Tuple[bool, Dict[str, int]]:
        """Does removing S lower rank ∂_{r+1}: rank P_S ker ∂_{r+1} < |S|."""
        size = mask.bit_count()
        rank_kernel = len(_projected(_eliminate(self.boundary)[1], mask))
        return rank_kernel < size, {"size_S": size, "rank_kernel_S": rank_kernel}


_THS_METHOD = "projected-boundary-colspace"


def _report(method: str, answer: Tuple[bool, Dict[str, int]]) -> FeasibilityReport:
    return FeasibilityReport(answer[0], method, answer[1])


def is_ths_feasible(K: Complex, zeta: Chain, S: Chain) -> FeasibilityReport:
    """Does S meet every cycle homologous to zeta?"""
    _require_set(K, S, zeta.dimension, "solution set must consist of simplices of zeta's dimension")
    return _report(_THS_METHOD, CutInstance.for_ths(K, zeta).cut(S.support.bits))


def is_bnt_feasible(K: Complex, zeta: Chain, S: Chain) -> FeasibilityReport:
    """Does removing S in dimension r+1 make zeta non-bounding?"""
    _require_set(K, S, zeta.dimension + 1, "solution set must consist of (r+1)-simplices")
    return _report("projected-kernel-colspace", CutInstance.for_bnt(K, zeta).cut(S.support.bits))


def is_global_ths_solution(K: Complex, r: int, S: Chain) -> FeasibilityReport:
    """Is the inclusion-induced map H_r(K_S) -> H_r(K) non-surjective?"""
    _require_set(K, S, r, "solution set must consist of r-simplices")
    return _report("projected-cycle-rank", CutInstance(K, r).global_ths(S.support.bits))


def is_global_bnt_solution(K: Complex, r: int, S: Chain) -> FeasibilityReport:
    """Does removing S strictly shrink the boundary space in dimension r?"""
    _require_set(K, S, r + 1, "solution set must consist of (r+1)-simplices")
    return _report("projected-kernel-rank", CutInstance(K, r).global_bnt(S.support.bits))
