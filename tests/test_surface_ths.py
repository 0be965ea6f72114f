"""Exact hitting sets on closed surfaces via the minimum cocycle basis of
the dual graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complexes
from z2cut.canonical import CANONICAL_NAMES, gen_canonical
from z2cut.complexes import boundary_matrix, build_complex
from z2cut.errors import InputError
from z2cut.feasibility import is_ths_feasible
from z2cut.gf2 import GF2Matrix, in_colspace, kernel_basis
from z2cut.homology import homology_basis, min_cohomology_basis
from z2cut.io_cli import emit_chain, emit_complex, main
from z2cut.oracle import brute_ths
from z2cut.surface_ths import classify_cocycle, is_connected_cocycle, solve_ths_surface


def test_rejects_non_surface():
    K = build_complex([(0, 1, 2), (1, 2, 3)], (0, 2))
    with pytest.raises(InputError):
        solve_ths_surface(K, K.chain(1, [(0, 1)]))


def test_rejects_disconnected_surface(torus, tmp_path, capsys):
    K, zeta = torus
    shift = K.n(0)
    tris = list(K.simplices[2]) + [tuple(v + shift for v in t) for t in K.simplices[2]]
    two = build_complex(tris, (0, 2))
    zeta2 = two.chain(1, K.members(zeta))
    with pytest.raises(InputError, match="connected"):
        min_cohomology_basis(two)
    with pytest.raises(InputError, match="connected"):
        solve_ths_surface(two, zeta2)
    scx, chn = tmp_path / "two.scx", tmp_path / "z.chn"
    scx.write_text(emit_complex(two))
    chn.write_text(emit_chain(two, zeta2))
    assert main(["ths-surface", "--complex", str(scx), "--cycle", str(chn)]) == 2
    assert "connected" in capsys.readouterr().err


def test_rejects_bounding_cycle(torus):
    K, _ = torus
    tri = K.simplices[2][0]
    bd = K.chain(1, [tuple(sorted(p)) for p in [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]])
    with pytest.raises(InputError):
        solve_ths_surface(K, bd)


def test_torus_systole_class(torus):
    K, zeta = torus
    res = solve_ths_surface(K, zeta)
    assert res.weight == 6 and len(res.solution) == 6
    assert res.certificate.verdict
    assert is_connected_cocycle(K, res.solution)
    oracle = brute_ths(K, zeta, kmax=6)
    assert len(oracle) == 6


def test_all_torus_classes_match_oracle(torus):
    K, _ = torus
    hb = homology_basis(K, 1)
    for bits in range(1, 1 << len(hb)):
        from z2cut.gf2 import GF2Vector

        zeta = hb.combine(GF2Vector(len(hb), bits))
        res = solve_ths_surface(K, zeta)
        oracle = brute_ths(K, zeta, kmax=len(res.solution))
        assert oracle is not None and len(oracle) == len(res.solution), bits
        assert is_ths_feasible(K, zeta, res.solution).verdict
        assert classify_cocycle(K, res.solution) == "nontrivial-cocycle"


def test_classify_cocycle(torus):
    K, _ = torus
    res = solve_ths_surface(K, homology_basis(K, 1).cycles[0])
    assert classify_cocycle(K, res.solution) == "nontrivial-cocycle"
    assert classify_cocycle(K, K.chain(1, [(0, 1)])) == "not-cocycle"
    # a vertex coboundary is a trivial cocycle
    star = [e for e in K.simplices[1] if 0 in e]
    assert classify_cocycle(K, K.chain(1, star)) == "trivial-cocycle"


def test_classify_cocycle_at_window_floor_one():
    # ∂_1 is the zero map at the window floor, so every 1-cocycle but 0
    # is nontrivial, even a vertex star, which bounds with vertices present
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    floor0, floor1 = build_complex(tris, (0, 2)), build_complex(tris, (1, 2))
    star = [e for e in floor1.simplices[1] if 0 in e]
    assert classify_cocycle(floor0, floor0.chain(1, star)) == "trivial-cocycle"
    assert classify_cocycle(floor1, floor1.chain(1, star)) == "nontrivial-cocycle"
    assert classify_cocycle(floor1, floor1.chain(1, [])) == "trivial-cocycle"
    assert classify_cocycle(floor1, floor1.chain(1, [(0, 1)])) == "not-cocycle"
    assert classify_cocycle(floor0, floor0.chain(1, [])) == "trivial-cocycle"
    with pytest.raises(InputError):
        classify_cocycle(build_complex(tris, (2, 2)), floor1.chain(1, []))


def _classify_by_transposes(K, eta):
    """classify_cocycle with δ_1 and δ_0 built as the transposes of ∂_2 and ∂_1."""
    delta1 = GF2Matrix(K.n(2), boundary_matrix(K, 2).rows())
    delta0 = GF2Matrix(K.n(1), boundary_matrix(K, 1).rows())
    if delta1.matvec(eta.support).bits:
        return "not-cocycle"
    if in_colspace(delta0, eta.support):
        return "trivial-cocycle"
    return "nontrivial-cocycle"


def _check_classify(K, draw):
    """A drawn 1-cochain, and a drawn sum of a cocycle-space basis (ker δ_1),
    classified both ways."""
    cocycles = kernel_basis(GF2Matrix(K.n(2), boundary_matrix(K, 2).rows())).cols
    combo = draw(st.integers(0, (1 << len(cocycles)) - 1), label="cocycle")
    bits = 0
    for i, z in enumerate(cocycles):
        if combo >> i & 1:
            bits ^= z
    for eta in (K.chain_from_bits(1, draw(st.integers(0, (1 << K.n(1)) - 1), label="cochain")),
                K.chain_from_bits(1, bits)):
        assert classify_cocycle(K, eta) == _classify_by_transposes(K, eta), eta


@pytest.mark.parametrize("name", CANONICAL_NAMES)
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_classify_cocycle_matches_transposes_on_the_canonical_corpus(name, data):
    K, _ = gen_canonical(name, {"g": 2} if name == "genus-g" else None)
    _check_classify(K, data.draw)


@settings(max_examples=60, deadline=None)
@given(random_complexes, st.data())
def test_classify_cocycle_matches_transposes_on_random_complexes(K, data):
    _check_classify(K, data.draw)


def test_weighted_instance_prefers_cheap_edges(torus):
    K, zeta = torus
    # make one optimal cocycle's edges cheap and verify the weight drops
    res0 = solve_ths_surface(K, zeta)
    weights = {e: 2 for e in K.simplices[1]}
    for e in K.members(res0.solution):
        weights[e] = 1
    K2 = build_complex([s for s in K.simplices[2]], (0, 2), weights)
    zeta2 = K2.chain(1, K.members(zeta))
    res2 = solve_ths_surface(K2, zeta2)
    assert res2.weight == len(res0.solution)
