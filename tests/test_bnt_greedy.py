"""Greedy boundary nontrivialization: Chvátal's greedy on the coset."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2cut.bnt_greedy import solve_bnt_greedy
from z2cut.complexes import build_complex
from z2cut.errors import InputError
from z2cut.feasibility import is_bnt_feasible
from z2cut.global_rand import random_bounding_cycle
from z2cut.homology import betti
from z2cut.oracle import brute_bnt, enumerate_boundary_chains, restricted_solve_bnt


def test_tetra_optimal(tetra):
    K, _ = tetra
    zeta = K.chain(1, [(0, 1), (0, 2), (1, 2)])
    sol = solve_bnt_greedy(K, zeta)
    assert len(sol) == 2
    assert is_bnt_feasible(K, zeta, sol).verdict
    assert len(brute_bnt(K, zeta, kmax=2)) == 2


def test_octa_optimal(octa):
    K, zeta = octa
    sol = solve_bnt_greedy(K, zeta)
    assert len(sol) == 2
    assert is_bnt_feasible(K, zeta, sol).verdict


def test_torus_bounding_cycles(torus):
    K, _ = torus
    from z2cut.global_rand import random_bounding_cycle

    for seed in range(6):
        zeta = random_bounding_cycle(K, 1, seed)
        sol = solve_bnt_greedy(K, zeta)
        assert is_bnt_feasible(K, zeta, sol).verdict
        opt = brute_bnt(K, zeta, kmax=len(sol))
        coset = len(enumerate_boundary_chains(K, zeta))
        assert len(sol) <= (math.log(coset) + 1) * len(opt), seed


def test_rejects_nonbounding_input(torus):
    K, _ = torus
    from z2cut.homology import homology_basis

    with pytest.raises(InputError):
        solve_bnt_greedy(K, homology_basis(K, 1).cycles[0])


def test_zero_cycle_is_refused(torus):
    K, _ = torus
    zeta = K.chain(1, [])
    with pytest.raises(InputError, match="zero cycle bounds the empty chain"):
        solve_bnt_greedy(K, zeta)


def test_solid_tetrahedron():
    # beta_2 = 0, but ker ∂_2 holds the boundary of the 3-simplex, so two
    # chains bound zeta: 012 and 013 + 023 + 123
    K = build_complex([(0, 1, 2, 3)], (0, 3))
    zeta = K.chain(1, [(0, 1), (0, 2), (1, 2)])
    sol = solve_bnt_greedy(K, zeta)
    assert K.members(sol) == [(0, 1, 2), (0, 1, 3)]
    assert restricted_solve_bnt(K, zeta, sol)
    assert len(brute_bnt(K, zeta, kmax=2)) == 2


def test_cover_takes_a_simplex_every_chain_shares():
    # a tetrahedron sphere 0135 with triangles 124 and 235 attached: both
    # chains bounding zeta hold 124, so the optimum is one simplex; a cover
    # that looks at one chain at a time picks 013, then 015
    K = build_complex([(0, 1, 3), (0, 1, 5), (0, 3, 5), (1, 2, 4), (1, 3, 5), (2, 3, 5)], (0, 2))
    zeta = K.chain(1, [(0, 1), (0, 5), (1, 2), (1, 4), (1, 5), (2, 4)])
    assert len(enumerate_boundary_chains(K, zeta)) == 2
    assert K.members(solve_bnt_greedy(K, zeta)) == [(1, 2, 4)]


@st.composite
def _solid_complexes(draw):
    """Up to seven vertices, a few triangles and 1-3 tetrahedra, window [0, 3]."""
    verts = range(draw(st.integers(5, 7)))
    tris = draw(st.lists(st.sampled_from(list(combinations(verts, 3))), max_size=6))
    tets = draw(st.lists(st.sampled_from(list(combinations(verts, 4))), min_size=1, max_size=3))
    return build_complex(sorted(set(tris + tets)) + [(v,) for v in verts], (0, 3))


@settings(max_examples=100, deadline=None)
@given(_solid_complexes(), st.integers(1, 2), st.integers(0, 2**32))
def test_greedy_bound_with_tetrahedra(K, r, seed):
    zeta = random_bounding_cycle(K, r, seed)
    sol = solve_bnt_greedy(K, zeta)
    assert restricted_solve_bnt(K, zeta, sol)
    opt = brute_bnt(K, zeta, kmax=len(sol))
    coset = len(enumerate_boundary_chains(K, zeta))
    assert len(sol) <= (math.log(coset) + 1) * len(opt)


def _listing_greedy(K, zeta):
    """Chvátal's greedy over the listed coset: the simplex in the most
    chains not yet hit, the lowest index on ties, until every one is hit."""
    unhit = [c.support.bits for c in enumerate_boundary_chains(K, zeta)]
    picks = 0
    while unhit:
        i = max(range(K.n(zeta.dimension + 1)), key=lambda i: (sum(c >> i & 1 for c in unhit), -i))
        picks |= 1 << i
        unhit = [c for c in unhit if not c >> i & 1]
    return picks


@st.composite
def _two_complexes(draw):
    """Up to seven vertices and up to fourteen triangles, window [0, 2]."""
    verts = range(draw(st.integers(4, 7)))
    tris = draw(st.lists(st.sampled_from(list(combinations(verts, 3))), min_size=1, max_size=14))
    return build_complex(sorted(set(tris)) + [(v,) for v in verts], (0, 2))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.tuples(_two_complexes(), st.just(1)), st.tuples(_solid_complexes(), st.integers(1, 2))),
    st.integers(0, 2**32),
)
def test_picks_are_those_of_the_listing_greedy(K_r, seed):
    K, r = K_r
    zeta = random_bounding_cycle(K, r, seed)
    assert solve_bnt_greedy(K, zeta).support.bits == _listing_greedy(K, zeta)


def test_full_2_skeleton_on_8_vertices():
    # dim ker ∂_2 = β_2 = C(7, 3) = 35, so the coset has 2^35 chains
    K = build_complex(list(combinations(range(8), 3)), (0, 2))
    assert betti(K, 2) == 35
    for seed in range(3):
        zeta = random_bounding_cycle(K, 1, seed)
        sol = solve_bnt_greedy(K, zeta)
        assert restricted_solve_bnt(K, zeta, sol)
        assert is_bnt_feasible(K, zeta, sol).verdict
