"""Bit-packed GF(2) linear algebra."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from z2cut import gf2
from z2cut.complexes import boundary_matrix
from z2cut.gadgets import ColoredGraph, gen_bnt_gadget, gen_ths_gadget
from z2cut.gf2 import (
    GF2Matrix,
    GF2Vector,
    _bit_indices,
    _reindex,
    column_space_pivots,
    in_colspace,
    kernel_basis,
    rank,
    relative_rank,
    solve,
)


def random_matrix(rng, nrows, ncols):
    return GF2Matrix(nrows, [rng.getrandbits(nrows) for _ in range(ncols)])


def test_rank_identity_and_singular():
    eye = GF2Matrix(3, [1, 2, 4])
    assert rank(eye) == 3
    assert rank(GF2Matrix(3, [3, 3, 0])) == 1
    assert rank(GF2Matrix(4, [])) == 0


def test_solve_recovers_a_preimage():
    A = GF2Matrix(3, [0b011, 0b110, 0b101])
    x = solve(A, GF2Vector(3, 0b101))
    assert x is not None
    assert A.matvec(x).bits == 0b101


def test_solve_none_outside_colspace():
    A = GF2Matrix(2, [0b11])
    assert solve(A, GF2Vector(2, 0b01)) is None
    assert not in_colspace(A, GF2Vector(2, 0b10))
    assert in_colspace(A, GF2Vector(2, 0b11))


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    A = random_matrix(rng, 6, 9)
    ker = kernel_basis(A)
    assert len(ker.cols) == 9 - rank(A)
    for bits in ker.cols:
        assert bits != 0
        assert A.matvec(GF2Vector(9, bits)).bits == 0


def test_relative_rank_quotient():
    # columns of B inside span of A contribute nothing
    A = GF2Matrix(3, [0b011])
    B = GF2Matrix(3, [0b011, 0b100, 0b111])
    # 0b111 = 0b011 ^ 0b100, so only 0b100 adds to the span of A
    assert relative_rank(A, B) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 12), st.integers(0, 12))
def test_rank_nullity(seed, nrows, ncols):
    A = random_matrix(random.Random(seed), nrows, ncols)
    assert rank(A) + len(kernel_basis(A).cols) == ncols


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 10), st.integers(1, 10))
def test_solve_agrees_with_membership(seed, nrows, ncols):
    rng = random.Random(seed)
    A = random_matrix(rng, nrows, ncols)
    b = GF2Vector(nrows, rng.getrandbits(nrows))
    x = solve(A, b)
    assert (x is not None) == in_colspace(A, b)
    if x is not None:
        assert A.matvec(x).bits == b.bits


def test_vector_xor_and_weight():
    a = GF2Vector(4, 0b1010)
    b = GF2Vector(4, 0b0110)
    assert (a ^ b).bits == 0b1100
    assert a.weight() == 2
    assert a.get(1) and not a.get(0)


def _combination(cols, indices, target):
    """Brute force: the subset of ``indices`` whose columns xor to target."""
    found = []
    for mask in range(1 << len(indices)):
        acc, x = 0, 0
        for t, j in enumerate(indices):
            if (mask >> t) & 1:
                acc ^= cols[j]
                x |= 1 << j
        if acc == target:
            found.append(x)
    assert len(found) <= 1  # the pivot columns are independent
    return found[0] if found else None


small_systems = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 2**n - 1), max_size=8),
        st.integers(0, 2**n - 1),
    )
)


@settings(max_examples=300, deadline=None)
@given(small_systems)
def test_elimination_contract_against_brute_force_spans(system):
    nrows, cols, b = system
    A = GF2Matrix(nrows, cols)
    span, pivots = {0}, []
    for j, col in enumerate(cols):
        if col not in span:
            pivots.append(j)
            span |= {s ^ col for s in span}
    assert column_space_pivots(A) == pivots
    assert rank(A) == len(pivots)
    kernel = []
    for j, col in enumerate(cols):
        if j not in pivots:
            kernel.append((1 << j) | _combination(cols, [i for i in pivots if i < j], col))
    assert kernel_basis(A).cols == kernel
    x = _combination(cols, pivots, b)
    got = solve(A, GF2Vector(nrows, b))
    assert (got.bits if got is not None else None) == x
    assert in_colspace(A, GF2Vector(nrows, b)) == (x is not None)
    rows = A.rows()
    assert len(rows) == nrows
    assert all(rows[i] >> j & 1 == A.entry(i, j) for i in range(nrows) for j in range(len(cols)))
    assert _bit_indices(b) == [i for i in range(nrows) if b >> i & 1]
    target = [2 * i + 1 for i in range(nrows)]
    assert _reindex(b, target) == sum(1 << target[i] for i in range(nrows) if b >> i & 1)


def test_one_elimination_serves_pivots_rank_and_kernel(monkeypatch):
    inserted = []
    insert = gf2._insert
    monkeypatch.setattr(gf2, "_insert", lambda piv, v, combo=0: inserted.append(v) or insert(piv, v, combo))
    A = GF2Matrix(3, [0b011, 0b110, 0b101, 0b001])
    assert column_space_pivots(A) == [0, 1, 3]
    assert rank(A) == 3 and kernel_basis(A).cols == [0b111]
    assert column_space_pivots(A) == [0, 1, 3]
    assert len(inserted) == A.ncols


class _CountingPivots(dict):
    """A pivot dict that counts the lookups a reduction makes."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_gadget_boundaries_reduce_in_few_lookups_per_column():
    """Work guard for the pivot key.  The boundary columns of the hardness
    gadgets are indexed lexicographically; keyed by their highest bit, a
    column meets one to two stored pivots (measured 1.97, 1.01 and 2.09
    lookups a column below), keyed by their lowest bit 38.8, 7.5 and 10.3."""
    tri = ColoredGraph({1: 1, 2: 2, 3: 3}, frozenset(map(frozenset, [(1, 2), (1, 3), (2, 3)])))
    ths = gen_ths_gadget(tri, math.comb(4, 2) + 3)
    bnt = gen_bnt_gadget(tri, math.comb(4, 2) + 2)
    r, rb = ths.input_chain.dimension, bnt.input_chain.dimension
    for K, d, shape in ((ths.complex, r, (423, 427)), (ths.complex, r + 1, (427, 144)),
                        (bnt.complex, rb + 1, (5043, 4956))):
        M = boundary_matrix(K, d)
        assert (M.nrows, M.ncols) == shape
        pivots = _CountingPivots()
        for j, col in enumerate(M.cols):
            gf2._insert(pivots, col, 1 << j)
        assert len(pivots) == rank(M)
        assert pivots.lookups <= 3 * M.ncols, (shape, pivots.lookups / M.ncols)
