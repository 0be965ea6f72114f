"""Bit-packed linear algebra over GF(2).

Vectors are Python ints used as bitsets (bit i = coordinate i) wrapped in a
thin length-carrying type; matrices store columns as bitsets over row
indices, which is the natural layout for boundary matrices (one column per
simplex, bits over its facets).

Every elimination is one column reduction with pivots keyed by their highest
set bit, the "lowest one" of PHAT (the entry with the largest row index): a
column is reduced by xoring in the pivot stored at its highest set bit until
no pivot is stored there or the column is 0, so each step is one dict
lookup, not a scan of all pivots.  On the lexicographically indexed
boundary matrices of the hardness gadgets a column takes one to two lookups
this way; keyed by the lowest bit it took up to forty.  The outputs do not
depend on the order of reduction.  Column j becomes a pivot exactly when it
lies outside the span of the columns before it, and the solution of
``solve`` and each kernel vector are the unique combinations of those pivot
columns, so any correct reduction returns the same bits.

The cut tests of ``feasibility`` use the same reducer on matrix rows:
inserting the rows a set selects into one pivot dict gives their rank.
This module is also the only one that transposes a matrix
(:meth:`GF2Matrix.rows`) or walks the set bits of a bitset
(``_bit_indices``, ``_reindex``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InputError

__all__ = [
    "GF2Vector",
    "GF2Matrix",
    "rank",
    "solve",
    "in_colspace",
    "kernel_basis",
    "relative_rank",
    "column_space_pivots",
]

# highest set bit -> (reduced column with that highest bit, combo): ``combo``
# is the bitset of input columns whose xor is the reduced column
Pivots = Dict[int, Tuple[int, int]]


@dataclass(frozen=True)
class GF2Vector:
    """A length-checked bit vector; ``bits`` has no set bit >= ``length``."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise InputError("negative vector length")
        if self.bits < 0 or self.bits >> self.length:
            raise InputError("vector bits exceed declared length")

    def __xor__(self, other: "GF2Vector") -> "GF2Vector":
        if self.length != other.length:
            raise InputError("vector length mismatch")
        return GF2Vector(self.length, self.bits ^ other.bits)

    def get(self, i: int) -> int:
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()


class GF2Matrix:
    """Matrix over GF(2), stored column-major (each column a row-index bitset).

    Immutable by contract after construction; elimination results are cached.
    """

    __slots__ = ("nrows", "cols", "_echelon_cache")

    def __init__(self, nrows: int, cols: List[int]):
        if nrows < 0:
            raise InputError("negative row count")
        for c in cols:
            if c < 0 or c >> nrows:
                raise InputError("column bits exceed row count")
        self.nrows = nrows
        self.cols = list(cols)
        self._echelon_cache: Optional[Tuple[Pivots, List[int]]] = None

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def column(self, j: int) -> GF2Vector:
        return GF2Vector(self.nrows, self.cols[j])

    def matvec(self, x: GF2Vector) -> GF2Vector:
        if x.length != self.ncols:
            raise InputError("matvec dimension mismatch")
        acc = 0
        for j in _bit_indices(x.bits):
            acc ^= self.cols[j]
        return GF2Vector(self.nrows, acc)

    def entry(self, i: int, j: int) -> int:
        return (self.cols[j] >> i) & 1

    def rows(self) -> List[int]:
        """The transpose, one bitset per row: bit j of rows()[i] is entry (i, j)."""
        rows = [0] * self.nrows
        for j, col in enumerate(self.cols):
            bit = 1 << j
            for i in _bit_indices(col):
                rows[i] |= bit
        return rows


def _bit_indices(bits: int) -> List[int]:
    """The set bits of ``bits``, ascending."""
    out = []
    while bits:
        out.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return out


def _reindex(bits: int, target: Union[Sequence[int], Mapping[int, int]]) -> int:
    """Move bit i of ``bits`` to bit target[i]; every set bit needs an entry."""
    out = 0
    for i in _bit_indices(bits):
        out |= 1 << target[i]
    return out


def _reduce(pivots: Pivots, v: int, combo: int = 0) -> Tuple[int, int]:
    """Xor pivots into v until its highest set bit holds none or v is 0.

    Returns the residue and ``combo`` xored with the combos used.  The
    residue is 0 exactly when v lies in the span of the pivots.
    """
    while v:
        p = pivots.get(v.bit_length() - 1)
        if p is None:
            break
        v ^= p[0]
        combo ^= p[1]
    return v, combo


def _insert(pivots: Pivots, v: int, combo: int = 0) -> Tuple[int, int]:
    """Reduce v as :func:`_reduce` does and keep a nonzero residue as the
    pivot at its highest bit.

    The loop is repeated here rather than calling ``_reduce``: a cut test
    inserts a few rows and runs thousands of times per FPT solve, and the
    second call per row made it about 30% slower.
    """
    while v:
        high = v.bit_length() - 1
        p = pivots.get(high)
        if p is None:
            pivots[high] = (v, combo)
            break
        v ^= p[0]
        combo ^= p[1]
    return v, combo


def _eliminate(M: GF2Matrix) -> Tuple[Pivots, List[int]]:
    """M's pivots, combos over column indices, and its kernel basis.

    Columns are inserted left to right; column j's combo is kept as a kernel
    vector when it reduces to 0.  Built once per matrix and cached.
    """
    if M._echelon_cache is None:
        pivots: Pivots = {}
        kernel: List[int] = []
        for j, col in enumerate(M.cols):
            v, combo = _insert(pivots, col, 1 << j)
            if not v:
                kernel.append(combo)
        M._echelon_cache = (pivots, kernel)
    return M._echelon_cache


def rank(M: GF2Matrix) -> int:
    return len(_eliminate(M)[0])


def solve(M: GF2Matrix, b: GF2Vector) -> Optional[GF2Vector]:
    """The x with M·x = b supported on the pivot columns, or None."""
    if b.length != M.nrows:
        raise InputError("solve: rhs length != row count")
    residue, combo = _reduce(_eliminate(M)[0], b.bits)
    if residue:
        return None
    return GF2Vector(M.ncols, combo)


def in_colspace(M: GF2Matrix, b: GF2Vector) -> bool:
    if b.length != M.nrows:
        raise InputError("in_colspace: rhs length != row count")
    residue, _ = _reduce(_eliminate(M)[0], b.bits)
    return residue == 0


def kernel_basis(M: GF2Matrix) -> GF2Matrix:
    """Columns form a basis of {x : M·x = 0}; count = ncols - rank.

    One vector per non-pivot column j, in order: e_j plus the pivot columns
    before j that sum to column j.
    """
    return GF2Matrix(M.ncols, _eliminate(M)[1])


def relative_rank(M: GF2Matrix, N: GF2Matrix) -> int:
    """Number of columns of N outside colspace(M) (rank [M|N] - rank M)."""
    if M.nrows != N.nrows:
        raise InputError("relative_rank: row count mismatch")
    base = len(_eliminate(M)[0])
    joint = GF2Matrix(M.nrows, M.cols + N.cols)
    return rank(joint) - base


def column_space_pivots(M: GF2Matrix) -> List[int]:
    """Indices of the columns outside the span of the columns before them.

    Column j is inserted with combo bit j after columns 0..j-1, so it is
    kept as a pivot exactly when some stored combo has j as its highest bit.
    """
    return sorted(combo.bit_length() - 1 for _, combo in _eliminate(M)[0].values())
