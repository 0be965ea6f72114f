"""Seeded randomized solvers for the any-class problem variants."""

import sys

import pytest

import z2cut.complexes as complexes
import z2cut.gf2 as gf2
from conftest import grid_torus_triangles
from z2cut.bnt_greedy import solve_bnt_greedy
from z2cut.complexes import build_complex
from z2cut.errors import InputError
from z2cut.feasibility import is_global_bnt_solution, is_global_ths_solution
from z2cut.fpt_ths import FPTConfig, solve_ths_fpt
from z2cut.global_rand import (
    RandomizedRun,
    random_bounding_cycle,
    random_nontrivial_cycle,
    solve_global_bnt,
    solve_global_ths,
    splitmix64,
)
from z2cut.homology import homology_basis


def test_splitmix64_reference_stream():
    rng = splitmix64(0)
    first = [rng() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_random_cycle_is_nontrivial_and_seeded(torus):
    K, _ = torus
    hb = homology_basis(K, 1)
    seen = set()
    for seed in range(20):
        z = random_nontrivial_cycle(K, 1, seed)
        assert hb.coordinates(z).bits != 0
        assert z == random_nontrivial_cycle(K, 1, seed)  # deterministic
        seen.add(hb.coordinates(z).bits)
    assert len(seen) > 1  # different classes get drawn


def test_random_cycle_rejects_trivial_homology(tetra):
    K, _ = tetra
    with pytest.raises(InputError):
        random_nontrivial_cycle(K, 1, 0)


def test_random_bounding_cycle_bounds(tetra):
    K, _ = tetra
    hb = homology_basis(K, 1)
    for seed in range(8):
        z = random_bounding_cycle(K, 1, seed)
        assert z.support.bits != 0
        assert hb.is_bounding(z)


def test_global_ths_torus(torus):
    K, _ = torus
    run = RandomizedRun(seed=1, trials=8)
    sol = solve_global_ths(K, 1, FPTConfig(k=6), seed=1, trials=8, run=run)
    assert sol is not None
    assert is_global_ths_solution(K, 1, sol).verdict
    assert len(run.records) == 8
    assert all(rec["success"] for rec in run.records)
    # replay gives the identical solution
    assert sol == solve_global_ths(K, 1, FPTConfig(k=6), seed=1, trials=8)


def test_global_bnt_tetra(tetra):
    K, _ = tetra
    run = RandomizedRun(seed=2, trials=8)
    sol = solve_global_bnt(K, 1, seed=2, trials=8, run=run)
    assert [rec["trial"] for rec in run.records] == list(range(8))  # every draw is a nonzero cycle
    assert sol is not None
    assert is_global_bnt_solution(K, 1, sol).verdict
    assert sol == solve_global_bnt(K, 1, seed=2, trials=8)


def test_transcript_records_classes(torus):
    K, _ = torus
    run = RandomizedRun(seed=3, trials=5)
    solve_global_ths(K, 1, FPTConfig(k=6), seed=3, trials=5, run=run)
    for t, rec in enumerate(run.records):
        assert rec["trial"] == t
        assert rec["class"] != 0


def test_trials_must_be_positive(torus, tetra):
    with pytest.raises(InputError, match="trials"):
        solve_global_ths(torus[0], 1, FPTConfig(k=6), seed=1, trials=0)
    with pytest.raises(InputError, match="trials"):
        solve_global_bnt(tetra[0], 1, seed=1, trials=-1)


def _count_work(monkeypatch):
    """Patch every z2cut binding of ``boundary_matrix`` and ``gf2._eliminate``
    to record the dimension of each boundary map built and the shape of
    each matrix eliminated (a call that finds the elimination cached does
    not eliminate)."""
    built, eliminated = [], []
    real_build, real_eliminate = complexes.boundary_matrix, gf2._eliminate

    def build(K, p):
        built.append(p)
        return real_build(K, p)

    def eliminate(M):
        if M._echelon_cache is None:
            eliminated.append((M.nrows, M.ncols))
        return real_eliminate(M)

    for name, mod in list(sys.modules.items()):
        if name.startswith("z2cut."):
            if getattr(mod, "boundary_matrix", None) is real_build:
                monkeypatch.setattr(mod, "boundary_matrix", build)
            if getattr(mod, "_eliminate", None) is real_eliminate:
                monkeypatch.setattr(mod, "_eliminate", eliminate)
    return built, eliminated


def test_global_solvers_build_and_eliminate_the_boundary_once(torus, monkeypatch):
    """Every trial shares one ∂_2 and its elimination, the homology basis
    and the global THS check share one ∂_1 and its elimination, and each
    record is what the one-cycle solver gives on that trial's draw."""
    T = build_complex(grid_torus_triangles(4), (0, 2))
    shape = (T.n(1), T.n(2))
    built, eliminated = _count_work(monkeypatch)
    run = RandomizedRun(seed=5, trials=3)
    solve_global_bnt(T, 1, seed=5, trials=3, run=run)
    assert built.count(2) == 1 and eliminated.count(shape) == 1
    monkeypatch.undo()
    for t, rec in enumerate(run.records):
        zeta = random_bounding_cycle(T, 1, 5 + t)
        sol = solve_bnt_greedy(T, zeta)
        assert rec == {"trial": t, "cycle": zeta.support.bits, "size": len(sol),
                       "success": is_global_bnt_solution(T, 1, sol).verdict}

    K = torus[0]
    built, eliminated = _count_work(monkeypatch)
    run = RandomizedRun(seed=4, trials=3)
    solve_global_ths(K, 1, FPTConfig(k=6), seed=4, trials=3, run=run)
    assert built.count(2) == 1 and eliminated.count((K.n(1), K.n(2))) == 1
    assert built.count(1) == 1 and eliminated.count((K.n(0), K.n(1))) == 1
    monkeypatch.undo()
    for t, rec in enumerate(run.records):
        zeta = random_nontrivial_cycle(K, 1, 4 + t)
        sol = solve_ths_fpt(K, zeta, FPTConfig(k=6))
        assert rec == {"trial": t, "class": zeta.support.bits, "size": len(sol),
                       "success": is_global_ths_solution(K, 1, sol).verdict}
