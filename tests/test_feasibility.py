"""Rank-based feasibility checks against enumeration oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complexes
from z2cut.bnt_greedy import solve_bnt_greedy
from z2cut.canonical import CANONICAL_NAMES, gen_canonical
from z2cut.complexes import boundary_matrix, build_complex, evaluate, r_adjacency
from z2cut.errors import InputError
from z2cut.feasibility import (
    CutInstance,
    is_bnt_feasible,
    is_global_bnt_solution,
    is_global_ths_solution,
    is_ths_feasible,
)
from z2cut.fpt_ths import FPTConfig, enumerate_connected_sets, solve_ths_fpt
from z2cut.gf2 import GF2Matrix, _insert, kernel_basis, rank, solve
from z2cut.global_rand import random_bounding_cycle, random_nontrivial_cycle, solve_global_bnt
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
from z2cut.surface_ths import classify_cocycle, is_connected_cocycle, solve_ths_surface


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


_complexes = st.one_of(
    st.sampled_from(CANONICAL_NAMES).map(
        lambda name: gen_canonical(name, {"g": 2} if name == "genus-g" else None)[0]
    ),
    random_complexes,
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


def _connected_sets(adj, k):
    """Every connected set of at most k nodes of ``adj``, sorted."""
    return [sorted(c) for v in adj for c in enumerate_connected_sets(adj, v, k)]


def _facet_adjacency(K, d):
    """d-simplex indices, adjacent when they share a (d-1)-face."""
    adj = {i: set() for i in range(K.n(d))}
    by_facet = {}
    for i, s in enumerate(K.simplices[d]):
        for f in combinations(s, d):
            by_facet.setdefault(f, []).append(i)
    for group in by_facet.values():
        for a, b in combinations(group, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _projected_rank(cols, S):
    """rank P_S M of the matrix M with these columns, S a list of its row
    indices, eliminated column by column."""
    def project(bits):
        return sum(1 << pos for pos, i in enumerate(S) if bits >> i & 1)

    return rank(GF2Matrix(len(S), [project(c) for c in cols]))


def _projected_ranks(cols, target, S):
    """rank P_S M and rank [P_S M | target|_S]."""
    return _projected_rank(cols, S), _projected_rank(cols + [target], S)


def _check_grow_and_cut(inst, zeta, dim, sets, cols, target, reference):
    """Grow each set in one pivot dict from {}, inserting the mirrored row
    of each member in turn; the set is a cut iff key 0 is stored, and that
    verdict must match ``cut`` and the oracle reference, and the ranks a
    column elimination of the projected matrix M (∂ or ker ∂) and target
    (zeta or x0).  Each insertion stores at most one key, so deleting those
    keys in reverse order gives back each smaller set's dict, down to {}."""
    K = inst.K
    rows = inst.mirrored_rows()
    assert len(rows) == K.n(dim)
    for members in sets:
        pivots = {}
        before, keys = [], []
        for i in members:
            before.append(dict(pivots))
            keys.append(_insert(pivots, rows[i])[0].bit_length() - 1)
            assert len(pivots) == len(before[-1]) + (keys[-1] >= 0), members
        grown = 0 in pivots
        S = K.chain(dim, [K.simplices[dim][i] for i in members])
        verdict, ranks = inst.cut(S.support.bits)
        assert grown == verdict == reference(K, zeta, S), members
        assert ranks["size_S"] == len(members)
        assert ranks["rank_augmented_S"] == len(pivots)
        assert (ranks["rank_S"], ranks["rank_augmented_S"]) == _projected_ranks(cols, target, members), members
        for key, dict_before in zip(reversed(keys), reversed(before)):
            if key >= 0:
                del pivots[key]
            assert pivots == dict_before, members
        assert pivots == {}


def _check_every_small_cut(K, seed):
    """THS and BNT on every connected set of up to 3 members, in each
    dimension of K that has a class, respectively a boundary, to cut."""
    for r in range(K.lo, K.hi + 1):
        bd = boundary_matrix(K, r + 1) if r < K.hi else None
        if betti(K, r):
            zeta = random_nontrivial_cycle(K, r, seed)
            _check_grow_and_cut(CutInstance.for_ths(K, zeta), zeta, r, _connected_sets(r_adjacency(K, r), 3),
                                bd.cols if bd else [], zeta.support.bits, surviving_basis_ths)
        if bd is not None and any(bd.cols):
            xi = random_bounding_cycle(K, r, seed)
            _check_grow_and_cut(CutInstance.for_bnt(K, xi), xi, r + 1, _connected_sets(_facet_adjacency(K, r + 1), 3),
                                kernel_basis(bd).cols, solve(bd, xi.support).bits, restricted_solve_bnt)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_grow_and_cut_on_the_canonical_corpus(name):
    K, _ = gen_canonical(name, {"g": 2} if name == "genus-g" else None)
    _check_every_small_cut(K, 1)


@settings(max_examples=60, deadline=None)
@given(random_complexes, st.integers(0, 2**30))
def test_grow_and_cut_on_random_complexes(K, seed):
    _check_every_small_cut(K, seed)


def _arbitrary_sets(K, d, draw):
    """The empty set, every d-simplex and one drawn set: chains and index lists."""
    n = K.n(d)
    for bits in (0, (1 << n) - 1, draw(st.integers(0, (1 << n) - 1), label=f"S{d}")):
        yield K.chain_from_bits(d, bits), [i for i in range(n) if bits >> i & 1]


def _check_all_four_ranks(K, seed, draw):
    """The ranks of every verifier report equal a column elimination of the
    projected matrices: P_S ∂ and [P_S ∂ | zeta|_S] (THS), P_S Z_r and
    P_S ∂ (global THS), P_S ker ∂ and [P_S ker ∂ | x0|_S] (BNT), and
    P_S ker ∂ (global BNT), with ∂ = ∂_{r+1}."""
    for r in range(K.lo, K.hi + 1):
        B = boundary_matrix(K, r + 1)
        bd = B.cols
        cycles = kernel_basis(boundary_matrix(K, r)).cols
        zeta = random_nontrivial_cycle(K, r, seed) if betti(K, r) else None
        for S, idx in _arbitrary_sets(K, r, draw):
            report = is_global_ths_solution(K, r, S)
            ranks = (_projected_rank(cycles, idx), _projected_rank(bd, idx))
            assert (report.ranks["rank_cycles_S"], report.ranks["rank_boundary_S"]) == ranks, (r, idx)
            assert report.verdict == (ranks[0] > ranks[1])
            if zeta is not None:
                report = is_ths_feasible(K, zeta, S)
                ranks = _projected_ranks(bd, zeta.support.bits, idx)
                assert (report.ranks["rank_S"], report.ranks["rank_augmented_S"]) == ranks, (r, idx)
                assert report.verdict == (ranks[0] < ranks[1])
        if r == K.hi:
            continue
        ker = kernel_basis(B).cols
        xi = random_bounding_cycle(K, r, seed) if any(bd) else None
        for T, idx in _arbitrary_sets(K, r + 1, draw):
            report = is_global_bnt_solution(K, r, T)
            assert report.ranks["rank_kernel_S"] == _projected_rank(ker, idx), (r, idx)
            assert report.verdict == (report.ranks["rank_kernel_S"] < len(idx))
            if xi is not None:
                report = is_bnt_feasible(K, xi, T)
                ranks = _projected_ranks(ker, solve(B, xi.support).bits, idx)
                assert (report.ranks["rank_S"], report.ranks["rank_augmented_S"]) == ranks, (r, idx)
                assert report.verdict == (ranks[0] < ranks[1])


@pytest.mark.parametrize("name", CANONICAL_NAMES)
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**30), st.data())
def test_all_four_ranks_on_the_canonical_corpus(name, seed, data):
    K, _ = gen_canonical(name, {"g": 2} if name == "genus-g" else None)
    _check_all_four_ranks(K, seed, data.draw)


@settings(max_examples=60, deadline=None)
@given(random_complexes, st.integers(0, 2**30), st.data())
def test_all_four_ranks_on_random_complexes(K, seed, data):
    _check_all_four_ranks(K, seed, data.draw)


def test_only_the_fpt_search_transposes(torus, tetra, monkeypatch):
    """A one-shot cut test reads the columns a set masks and transposes no
    matrix, nor does a cocycle test; an FPT solve transposes once, for the
    rows its search grows."""
    K, zeta = torus
    T, xi = tetra
    cochains = [solve_ths_surface(K, zeta).solution, K.chain(1, [e for e in K.simplices[1] if 0 in e])]
    transposed = []
    rows = GF2Matrix.rows
    monkeypatch.setattr(GF2Matrix, "rows", lambda M: transposed.append(M.nrows) or rows(M))
    one_shot = {
        "is_ths_feasible": lambda: is_ths_feasible(K, zeta, K.chain(1, K.simplices[1][:4])),
        "is_bnt_feasible": lambda: is_bnt_feasible(T, xi, T.chain(2, T.simplices[2][:2])),
        "is_global_ths_solution": lambda: is_global_ths_solution(K, 1, K.chain(1, K.simplices[1][:4])),
        "is_global_bnt_solution": lambda: is_global_bnt_solution(T, 1, T.chain(2, T.simplices[2][:2])),
        "solve_bnt_greedy": lambda: solve_bnt_greedy(T, xi),
        "solve_global_bnt": lambda: solve_global_bnt(T, 1, seed=1),
        "solve_ths_surface": lambda: solve_ths_surface(K, zeta),
        "classify_cocycle": lambda: [classify_cocycle(K, eta) for eta in cochains],
        "is_connected_cocycle": lambda: [is_connected_cocycle(K, eta) for eta in cochains],
    }
    for name, call in one_shot.items():
        call()
        assert transposed == [], name
    for k in (1, 2, 3):
        solve_ths_fpt(K, zeta, FPTConfig(k=k))
        assert len(transposed) <= 1, k
        transposed.clear()
