"""Homology ranks, bases, and minimum homology and cohomology bases."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_torus_triangles, random_complex
from z2cut.canonical import gen_canonical
from z2cut.complexes import boundary_matrix, build_complex
from z2cut.errors import InputError
from z2cut.gf2 import GF2Matrix, GF2Vector, kernel_basis, rank
from z2cut.homology import (
    betti,
    homology_basis,
    min_cohomology_basis,
    min_homology_basis,
)
from z2cut.surface_ths import classify_cocycle


def test_betti_fixtures(torus, tetra, octa):
    for (K, _), (b0, b1, b2) in [
        (torus, (1, 2, 1)),
        (tetra, (1, 0, 1)),
        (octa, (1, 0, 1)),
    ]:
        assert (betti(K, 0), betti(K, 1), betti(K, 2)) == (b0, b1, b2)


def test_betti_component_graph():
    K, _ = gen_canonical("component-graph")
    assert betti(K, 0) == 3


def test_betti_genus_g():
    for g in (2, 3):
        K, _ = gen_canonical("genus-g", {"g": g})
        assert betti(K, 1) == 2 * g


def test_homology_basis_coordinates(torus):
    K, _ = torus
    hb = homology_basis(K, 1)
    assert len(hb) == 2
    for i, z in enumerate(hb.cycles):
        coords = hb.coordinates(z)
        assert coords.bits == 1 << i
        assert not hb.is_bounding(z)
    # a triangle boundary is trivial
    tri = K.simplices[2][0]
    bd = K.chain(1, [tuple(sorted(e)) for e in [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]])
    assert hb.is_bounding(bd)
    assert hb.coordinates(bd).bits == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.sampled_from([1, 2]), st.data())
def test_coordinates_recover_the_class(seed, ntri, p, data):
    K = random_complex(seed, nv=6, ntri=ntri)
    hb = homology_basis(K, p)
    c = data.draw(st.integers(0, (1 << len(hb)) - 1))
    y = data.draw(st.integers(0, (1 << K.n(p + 1)) - 1))
    z = hb.combine(GF2Vector(len(hb), c)).support.bits
    z ^= boundary_matrix(K, p + 1).matvec(GF2Vector(K.n(p + 1), y)).bits
    assert hb.coordinates(K.chain_from_bits(p, z)).bits == c
    # one more p-simplex leaves a nonzero boundary: p > 0 is above the floor
    e = data.draw(st.integers(0, K.n(p) - 1))
    with pytest.raises(InputError, match="not a cycle"):
        hb.coordinates(K.chain_from_bits(p, z ^ 1 << e))


def _brute_min_basis_weights(K):
    """All cycles by brute force; greedy minimum-weight homology basis."""
    d1 = boundary_matrix(K, 1)
    n = K.n(1)
    hb = homology_basis(K, 1)
    cycles = []
    for bits in range(1, 1 << n):
        v = GF2Vector(n, bits)
        if d1.matvec(v).bits == 0:
            cycles.append(v)
    cycles.sort(key=lambda v: (sum(K.edge_weight(K.simplices[1][i]) for i in _on(v)), v.bits))
    chosen, coords = [], []
    for v in cycles:
        z = K.chain_from_bits(1, v.bits)
        c = hb.coordinates(z)
        if c.bits and _independent(coords + [c.bits]):
            chosen.append(sum(K.edge_weight(K.simplices[1][i]) for i in _on(v)))
            coords.append(c.bits)
        if len(chosen) == len(hb):
            break
    return chosen


def _on(v):
    return [i for i in range(v.length) if v.get(i)]


def _independent(bits_list):
    m = max(b.bit_length() for b in bits_list)
    return rank(GF2Matrix(m, list(bits_list))) == len(bits_list)


def test_min_homology_basis_torus(torus):
    K, _ = torus
    basis = min_homology_basis(K)
    assert [wc.weight for wc in basis] == [3, 3]
    hb = homology_basis(K, 1)
    coords = [hb.coordinates(wc.chain).bits for wc in basis]
    assert _independent(coords)


def test_min_homology_basis_matches_brute():
    # theta graph: two independent cycles through a weighted middle bar
    K = build_complex(
        [(0, 1), (1, 2), (0, 3), (2, 3), (0, 2)],
        (0, 1),
        {(0, 2): 3},
    )
    basis = min_homology_basis(K)
    assert sorted(wc.weight for wc in basis) == _brute_min_basis_weights(K)


def test_min_homology_basis_random_graphs():
    # weights 1..2 make many ties between candidate cycles
    for top in (4, 2):
        rng = random.Random(11)
        for trial in range(8):
            nv = 5
            edges = set()
            # random connected graph: a spanning path plus extras
            for i in range(nv - 1):
                edges.add((i, i + 1))
            while len(edges) < 8:
                a, b = sorted(rng.sample(range(nv), 2))
                edges.add((a, b))
            weights = {e: rng.randint(1, top) for e in edges}
            K = build_complex(sorted(edges), (0, 1), weights)
            got = sorted(wc.weight for wc in min_homology_basis(K))
            assert got == _brute_min_basis_weights(K), (top, trial)


def test_min_homology_basis_rejects_disconnected():
    K = build_complex([(0, 1), (1, 2), (0, 2), (3, 4)], (0, 1))
    with pytest.raises(InputError, match="connected"):
        min_homology_basis(K)


def _grid_torus_edges(n):
    return sorted({e for t in grid_torus_triangles(n) for e in combinations(t, 2)})


def _weighted_grid_torus(n, seed):
    """n x n grid torus with seeded weights 1..9."""
    rng = random.Random(seed)
    return build_complex(grid_torus_triangles(n), (0, 2), {e: rng.randint(1, 9) for e in _grid_torus_edges(n)})


def _pairing(bits, hb):
    """Bit i is the parity of the cochain's overlap with basis cycle i."""
    return sum(((bits & z.support.bits).bit_count() & 1) << i for i, z in enumerate(hb.cycles))


def test_min_cohomology_basis_torus(torus):
    K, _ = torus
    assert [wc.weight for wc in min_cohomology_basis(K)] == [6, 6]
    for K in (K, gen_canonical("genus-g", {"g": 2})[0], _weighted_grid_torus(4, 5)):
        basis = min_cohomology_basis(K)
        assert len(basis) == betti(K, 1)
        d2 = boundary_matrix(K, 2)
        hb = homology_basis(K, 1)
        pairings = []
        for wc in basis:
            bits = wc.chain.support.bits
            # a cocycle: even overlap with every triangle boundary
            assert all((col & bits).bit_count() % 2 == 0 for col in d2.cols)
            assert classify_cocycle(K, wc.chain) == "nontrivial-cocycle"
            pairings.append(_pairing(bits, hb))
        assert _independent(pairings)
        weights = [wc.weight for wc in basis]
        assert weights == sorted(weights)


def _brute_min_cocycle_weights(K):
    """Every 1-cocycle, from a kernel basis of the coboundary map; greedy by
    (weight, bits) under independence of the pairing with a homology basis."""
    cob = [0] * K.n(1)
    for ti, col in enumerate(boundary_matrix(K, 2).cols):
        for ei in range(K.n(1)):
            if (col >> ei) & 1:
                cob[ei] |= 1 << ti
    cocycles = [0]
    for z in kernel_basis(GF2Matrix(K.n(2), cob)).cols:
        cocycles += [c ^ z for c in cocycles]
    hb = homology_basis(K, 1)

    def weight(bits):
        return sum(K.edge_weight(e) for e in K.members(K.chain_from_bits(1, bits)))

    chosen, pairings = [], []
    for bits in sorted(cocycles[1:], key=lambda c: (weight(c), c)):
        pair = _pairing(bits, hb)
        if pair and _independent(pairings + [pair]):
            chosen.append(weight(bits))
            pairings.append(pair)
            if len(chosen) == len(hb):
                break
    return chosen


def test_min_cohomology_basis_matches_brute(torus):
    """Minimum weights against all cocycles, not only dual-graph circles."""
    genus2 = gen_canonical("genus-g", {"g": 2})[0]
    for K in (torus[0], genus2, _weighted_grid_torus(3, 2), _weighted_grid_torus(4, 5)):
        got = [wc.weight for wc in min_cohomology_basis(K)]
        assert got == _brute_min_cocycle_weights(K)


def test_betti_random_complexes_euler():
    # Euler characteristic check: n0 - n1 + n2 == b0 - b1 + b2
    for seed in range(20):
        K = random_complex(seed)
        euler = K.n(0) - K.n(1) + K.n(2)
        assert euler == betti(K, 0) - betti(K, 1) + betti(K, 2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=27, max_size=27))
def test_min_cohomology_basis_matches_brute_on_tied_grids(ws):
    """Side-3 grid tori with weights 1..3, where most candidates tie."""
    K = build_complex(grid_torus_triangles(3), (0, 2), dict(zip(_grid_torus_edges(3), ws)))
    assert [wc.weight for wc in min_cohomology_basis(K)] == _brute_min_cocycle_weights(K)


# The chains (as support bitsets) and weights of both minimum bases, recorded
# from the candidate-bitset greedy that ranked every (root, edge) candidate.
# Ties are broken by (weight, sorted edge indices); these pin that rule.
_PINNED_BASES = {
    "csaszar": (
        [(0x4607, 6), (0x42815, 6)],
        [(0x43, 3), (0x109, 3)],
    ),
    "genus2": (
        [(0x4607, 6), (0x10100A05, 6), (0x80C070000, 6), (0x120D020000, 6)],
        [(0x43, 3), (0x109, 3), (0x1009000, 3), (0x2011000, 3)],
    ),
    "unit-grid-4": (
        [(0x100900900209, 8), (0x288011000091, 8)],
        [(0x843, 4), (0x400400014, 4)],
    ),
    "weighted-grid-4-5": (
        [(0x405005004140, 22), (0xF1D00088, 25)],
        [(0x80021000028, 10), (0x1108C0, 12)],
    ),
}


def test_min_bases_pin_tie_break(torus):
    complexes = {
        "csaszar": torus[0],
        "genus2": gen_canonical("genus-g", {"g": 2})[0],
        "unit-grid-4": build_complex(grid_torus_triangles(4), (0, 2)),
        "weighted-grid-4-5": _weighted_grid_torus(4, 5),
    }
    for name, K in complexes.items():
        cohomology, homology = _PINNED_BASES[name]
        assert [(wc.chain.support.bits, wc.weight) for wc in min_cohomology_basis(K)] == cohomology, name
        assert [(wc.chain.support.bits, wc.weight) for wc in min_homology_basis(K)] == homology, name
