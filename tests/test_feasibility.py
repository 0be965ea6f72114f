"""Rank-based feasibility checks against enumeration oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex
from z2cut.canonical import CANONICAL_NAMES, gen_canonical
from z2cut.complexes import boundary_matrix, build_complex, evaluate
from z2cut.errors import InputError
from z2cut.feasibility import (
    is_bnt_feasible,
    is_global_bnt_solution,
    is_global_ths_solution,
    is_ths_feasible,
)
from z2cut.fpt_ths import FPTConfig, solve_ths_fpt
from z2cut.global_rand import random_bounding_cycle, random_nontrivial_cycle
from z2cut.homology import betti, homology_basis
from z2cut.io_cli import emit_chain, emit_complex, main
from z2cut.oracle import (
    enumerate_boundary_chains,
    enumerate_homologous,
    rank_drop_global_bnt,
    restricted_solve_bnt,
    surviving_basis_global_ths,
    surviving_basis_ths,
)
from z2cut.surface_ths import solve_ths_surface


def _enum_ths_feasible(K, zeta, S):
    return all(evaluate(S, z) or (S.support.bits & z.support.bits) for z in enumerate_homologous(K, zeta))


def _hits(S, z):
    return (S.support.bits & z.support.bits) != 0


def test_ths_requires_nonbounding(tetra):
    K, _ = tetra
    bd = K.chain(1, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InputError):
        is_ths_feasible(K, bd, K.chain(1, []))


def test_set_from_another_complex_is_rejected(torus, tetra):
    K, zeta = torus
    T, _ = tetra
    foreign = T.chain(1, list(T.simplices[1]))
    with pytest.raises(InputError):
        is_ths_feasible(K, zeta, foreign)
    with pytest.raises(InputError):
        is_global_ths_solution(K, 1, foreign)
    # a complex windowed to [0, 2] knows nothing of its 3-simplices: no verdict
    empty3 = K.chain_from_bits(3, 0)
    for verify in (
        lambda: is_ths_feasible(K, empty3, empty3),
        lambda: is_bnt_feasible(K, K.chain_from_bits(2, 0), empty3),
        lambda: is_global_ths_solution(K, 3, empty3),
        lambda: is_global_bnt_solution(K, 2, empty3),
    ):
        with pytest.raises(InputError, match="outside window"):
            verify()


def test_non_cycle_is_rejected(torus, tmp_path, capsys):
    K, _ = torus
    edge = K.chain_from_bits(1, 1)
    for call in (
        lambda: is_ths_feasible(K, edge, edge),
        lambda: solve_ths_fpt(K, edge, FPTConfig(k=2)),
        lambda: solve_ths_surface(K, edge),
    ):
        with pytest.raises(InputError, match="not a cycle"):
            call()
    scx, chn = tmp_path / "t.scx", tmp_path / "e.chn"
    scx.write_text(emit_complex(K))
    chn.write_text(emit_chain(K, edge))
    assert main(["verify", "ths", "--complex", str(scx), "--cycle", str(chn), "--set", str(chn)]) == 2
    assert "not a cycle" in capsys.readouterr().err


def test_every_chain_at_the_window_floor_is_a_cycle(torus):
    # ∂_1 is the zero map when dimension 1 is the lowest the window holds
    K, _ = torus
    W = build_complex(list(K.simplices[2]), (1, 2))
    edge = W.chain_from_bits(1, 1)
    assert not is_ths_feasible(W, edge, edge).verdict  # a triangle on the edge reroutes it
    assert is_ths_feasible(W, edge, W.chain(1, W.simplices[1])).verdict


def test_bnt_requires_bounding(torus):
    K, _ = torus
    hb = homology_basis(K, 1)
    with pytest.raises(InputError):
        is_bnt_feasible(K, hb.cycles[0], K.chain(2, []))


def test_ths_matches_enumeration_randomized(torus):
    K, _ = torus
    rng = random.Random(2)
    hits = 0
    for trial in range(40):
        zeta = random_nontrivial_cycle(K, 1, trial)
        bits = 0
        for _ in range(rng.randint(0, 6)):
            bits |= 1 << rng.randrange(K.n(1))
        S = K.chain_from_bits(1, bits)
        want = all(_hits(S, z) for z in enumerate_homologous(K, zeta))
        got = bool(is_ths_feasible(K, zeta, S))
        assert got == want, trial
        hits += want
    # sparse random sets almost never hit everything; add a sure-feasible case
    zeta = random_nontrivial_cycle(K, 1, 0)
    everything = K.chain(1, list(K.simplices[1]))
    assert bool(is_ths_feasible(K, zeta, everything))
    assert all(_hits(everything, z) for z in enumerate_homologous(K, zeta))


def test_bnt_matches_enumeration_randomized(tetra, octa):
    rng = random.Random(3)
    for K, _ in (tetra, octa):
        for trial in range(40):
            zeta = random_bounding_cycle(K, 1, trial)
            bits = 0
            for _ in range(rng.randint(0, 3)):
                bits |= 1 << rng.randrange(K.n(2))
            S = K.chain_from_bits(2, bits)
            want = all(_hits(S, x) for x in enumerate_boundary_chains(K, zeta))
            got = bool(is_bnt_feasible(K, zeta, S))
            assert got == want, (trial, K.n(0))


def test_global_ths_on_torus(torus):
    K, _ = torus
    # removing all edges certainly kills surjectivity
    S = K.chain(1, list(K.simplices[1]))
    assert is_global_ths_solution(K, 1, S).verdict
    assert not is_global_ths_solution(K, 1, K.chain(1, [])).verdict


def test_global_bnt_on_tetra(tetra):
    K, _ = tetra
    # any three of the four triangle columns stay independent, so one
    # removal never drops the boundary rank; two do
    one = K.chain(2, [K.simplices[2][0]])
    two = K.chain(2, list(K.simplices[2][:2]))
    assert not is_global_bnt_solution(K, 1, one).verdict
    assert is_global_bnt_solution(K, 1, two).verdict
    assert not is_global_bnt_solution(K, 1, K.chain(2, [])).verdict


def test_reports_carry_metadata(torus):
    K, _ = torus
    zeta = random_nontrivial_cycle(K, 1, 0)
    rep = is_ths_feasible(K, zeta, K.chain(1, []))
    assert rep.method == "projected-boundary-colspace"
    assert not rep.verdict  # empty set never hits a nontrivial class


_TRIANGLES = list(combinations(range(6), 3))

_complexes = st.one_of(
    st.sampled_from(CANONICAL_NAMES).map(
        lambda name: gen_canonical(name, {"g": 2} if name == "genus-g" else None)[0]
    ),
    st.builds(
        lambda tris, window: build_complex(sorted(tris) + [(v,) for v in range(6)], window),
        st.sets(st.sampled_from(_TRIANGLES), min_size=1, max_size=10),
        st.sampled_from([(0, 2), (1, 2)]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_complexes, st.data())
def test_verifiers_match_reference_verifiers(K, data):
    """The projected-rank verifiers against the K_S-based references in oracle."""
    r = data.draw(st.integers(K.lo, K.hi), label="r")
    seed = data.draw(st.integers(0, 2**30), label="seed")
    S = K.chain_from_bits(r, data.draw(st.integers(0, (1 << K.n(r)) - 1), label="S"))
    assert is_global_ths_solution(K, r, S).verdict == surviving_basis_global_ths(K, r, S)
    if betti(K, r):
        zeta = random_nontrivial_cycle(K, r, seed)
        assert is_ths_feasible(K, zeta, S).verdict == surviving_basis_ths(K, zeta, S)
    if r + 1 > K.hi:
        return
    T = K.chain_from_bits(r + 1, data.draw(st.integers(0, (1 << K.n(r + 1)) - 1), label="T"))
    assert is_global_bnt_solution(K, r, T).verdict == rank_drop_global_bnt(K, r, T)
    if any(boundary_matrix(K, r + 1).cols):
        xi = random_bounding_cycle(K, r, seed)
        assert is_bnt_feasible(K, xi, T).verdict == restricted_solve_bnt(K, xi, T)
