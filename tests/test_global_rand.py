"""Seeded randomized solvers for the any-class problem variants."""

import pytest

from z2cut.errors import InputError
from z2cut.feasibility import is_global_bnt_solution, is_global_ths_solution
from z2cut.fpt_ths import FPTConfig
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
