"""Parameterized hitting-set search over connected Hasse-neighborhoods."""

from math import comb

import pytest

from conftest import random_complex
from z2cut.canonical import gen_canonical
from z2cut.complexes import r_adjacency
from z2cut.errors import InputError
from z2cut.feasibility import is_ths_feasible
from z2cut.fpt_ths import FPTConfig, enumerate_connected_sets, solve_ths_fpt
from z2cut.global_rand import random_nontrivial_cycle
from z2cut.oracle import brute_ths


def test_config_validates():
    with pytest.raises(InputError):
        FPTConfig(k=0)


def test_connected_set_enumeration_path_graph():
    adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    sets = list(enumerate_connected_sets(adj, 0, 3))
    assert {frozenset(s) for s in sets} == {
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    }


def test_component_graph_fixture():
    K, zeta = gen_canonical("component-graph")
    cfg = FPTConfig(k=4)
    sol = solve_ths_fpt(K, zeta, cfg)
    assert sol is not None and len(sol) == 4
    assert solve_ths_fpt(K, zeta, FPTConfig(k=3)) is None
    assert cfg.stats["candidates"] > 0


def test_matches_brute_on_torus(torus):
    K, _ = torus
    for seed in range(4):
        zeta = random_nontrivial_cycle(K, 1, seed)
        sol = solve_ths_fpt(K, zeta, FPTConfig(k=6))
        ref = brute_ths(K, zeta, kmax=6)
        assert (sol is None) == (ref is None)
        if sol is not None:
            assert len(sol) == len(ref)
            assert is_ths_feasible(K, zeta, sol).verdict


def test_matches_brute_on_random_complexes():
    checked = 0
    for seed in range(40):
        K = random_complex(seed)
        from z2cut.homology import betti, homology_basis

        if betti(K, 1) == 0:
            continue
        zeta = homology_basis(K, 1).cycles[0]
        for k in (1, 2, 3):
            sol = solve_ths_fpt(K, zeta, FPTConfig(k=k))
            ref = brute_ths(K, zeta, kmax=k)
            assert (sol is None) == (ref is None), (seed, k)
            if sol is not None:
                assert len(sol) == len(ref), (seed, k)
        checked += 1
    assert checked >= 10


def test_candidate_envelope(torus):
    # per-center candidate count stays within the connected-subgraph bound
    K, zeta = torus
    k = 4
    cfg = FPTConfig(k=k)
    solve_ths_fpt(K, zeta, cfg)
    delta = max(len(v) for v in r_adjacency(K, 1).values())
    assert cfg.stats["max_per_center"] <= comb(k + k * delta, k)

