"""Enumeration oracles and brute-force minima."""

import pytest

from z2cut.canonical import gen_canonical
from z2cut.complexes import boundary_matrix, build_complex
from z2cut.errors import InputError, ResourceError
from z2cut.gf2 import rank
from z2cut.homology import homology_basis
from z2cut.oracle import (
    OracleBudget,
    brute_bnt,
    brute_ths,
    brute_ths_surface,
    enumerate_boundary_chains,
    enumerate_homologous,
)


def test_homologous_count_is_boundary_space(torus):
    K, zeta = torus
    chains = enumerate_homologous(K, zeta)
    assert len(chains) == 1 << rank(boundary_matrix(K, 2))
    hb = homology_basis(K, 1)
    target = hb.coordinates(zeta).bits
    for z in chains[:50]:
        assert hb.coordinates(z).bits == target


def test_boundary_coset_tetra(tetra):
    K, _ = tetra
    zeta = K.chain(1, [(0, 1), (0, 2), (1, 2)])
    chains = enumerate_boundary_chains(K, zeta)
    supports = sorted(frozenset(K.members(c)) for c in (chains))
    assert len(chains) == 2
    assert frozenset([(0, 1, 2)]) in supports
    assert frozenset([(0, 1, 3), (0, 2, 3), (1, 2, 3)]) in supports


def test_boundary_coset_requires_bounding(torus):
    K, _ = torus
    hb = homology_basis(K, 1)
    with pytest.raises(InputError):
        enumerate_boundary_chains(K, hb.cycles[0])


def test_budget_enforced(torus):
    K, zeta = torus
    with pytest.raises(ResourceError):
        enumerate_homologous(K, zeta, OracleBudget(max_enumeration=16))


def test_brute_ths_planar_holes():
    K, zeta = gen_canonical("planar-holes")
    sol = brute_ths(K, zeta, kmax=3)
    assert sol is not None and len(sol) == 3
    assert brute_ths(K, zeta, kmax=2) is None


def test_brute_bnt_spheres(tetra, octa):
    K, _ = tetra
    zeta = K.chain(1, [(0, 1), (0, 2), (1, 2)])
    assert len(brute_bnt(K, zeta, kmax=3)) == 2
    K, zeta = octa
    assert len(brute_bnt(K, zeta, kmax=3)) == 2
    assert brute_bnt(K, zeta, kmax=1) is None


def test_negative_kmax_is_an_input_error(tetra):
    # None would read as "no hitting set of size at most kmax"
    K, zeta = gen_canonical("planar-holes")
    with pytest.raises(InputError, match="kmax must be at least 0"):
        brute_ths(K, zeta, kmax=-1)
    K, _ = tetra
    with pytest.raises(InputError, match="kmax must be at least 0"):
        brute_bnt(K, K.chain(1, [(0, 1), (0, 2), (1, 2)]), kmax=-1)


def test_brute_ths_surface_agrees(torus):
    K, zeta = torus
    a = brute_ths_surface(K, zeta)
    b = brute_ths(K, zeta, kmax=6)
    assert len(a) == len(b) == 6


def test_brute_ths_surface_needs_a_nonbounding_cycle(torus, tetra):
    K, zeta = torus
    with pytest.raises(InputError, match="non-bounding 1-cycle"):
        brute_ths_surface(K, K.chain(1, [(0, 1), (0, 3), (1, 3)]))  # ∂ of triangle 013
    with pytest.raises(InputError, match="non-bounding 1-cycle"):
        brute_ths_surface(K, K.chain(1, [(0, 1)]))
    with pytest.raises(InputError, match="non-bounding 1-cycle"):
        brute_ths_surface(K, K.chain(2, [(0, 1, 3)]))
    K, _ = tetra
    with pytest.raises(InputError, match="non-bounding 1-cycle"):
        brute_ths_surface(K, K.chain(1, [(0, 1), (0, 2), (1, 2)]))


def test_brute_ths_size_lexicographic_tie_break():
    K, zeta = gen_canonical("component-graph")
    sol = brute_ths(K, zeta, kmax=4)
    # the 4-cycle component must be fully removed; deterministic output
    assert K.members(sol) == [(3,), (4,), (5,), (6,)]
