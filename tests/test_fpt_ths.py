"""Parameterized hitting-set search over connected Hasse-neighborhoods."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_complexes
from z2cut.canonical import CANONICAL_NAMES, gen_canonical
from z2cut.complexes import build_complex, r_adjacency
from z2cut.errors import InputError
from z2cut.feasibility import CutInstance, is_ths_feasible
from z2cut.fpt_ths import FPTConfig, enumerate_connected_sets, solve_ths_fpt
from z2cut.gf2 import GF2Vector
from z2cut.global_rand import random_nontrivial_cycle
from z2cut.homology import betti, homology_basis
from z2cut.oracle import brute_ths


def test_config_validates():
    with pytest.raises(InputError):
        FPTConfig(k=0)


def _connected(G, S):
    S = set(S)
    stack = [min(S)]
    reached = set(stack)
    while stack:
        for u in G[stack.pop()] & S - reached:
            reached.add(u)
            stack.append(u)
    return reached == S


def _brute_connected_sets(G, k):
    return [frozenset(S) for size in range(1, k + 1) for S in combinations(sorted(G), size) if _connected(G, S)]


def test_connected_set_enumeration_path_graph():
    adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    assert set(enumerate_connected_sets(adj, 0, 3)) == {
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    }
    # sets through 0 belong to the start at 0, not to the start at 1
    assert set(enumerate_connected_sets(adj, 1, 3)) == {
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
    }


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))), st.integers(1, 4))
def test_connected_set_enumeration_matches_brute_force(n, edges, k):
    G = {u: set() for u in range(n)}
    for a, b in edges:
        if a != b and max(a, b) < n:
            G[a].add(b)
            G[b].add(a)
    brute = _brute_connected_sets(G, k)
    for v in range(n):
        got = list(enumerate_connected_sets(G, v, k))
        assert len(got) == len(set(got)), v
        assert set(got) == {S for S in brute if min(S) == v}, v


def test_connected_set_enumeration_rejects_a_node_outside_the_graph():
    with pytest.raises(InputError):
        enumerate_connected_sets({0: {1}, 1: {0}}, 5, 2)


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
    adj = r_adjacency(K, 1)
    delta = max(len(v) for v in adj.values())
    assert cfg.stats["max_per_center"] <= comb(k + k * delta, k)
    # the walk without the distance bound enumerates each connected set
    # once, from its least member; the solver's bound skips some of them
    every = sum(len(enumerate_connected_sets(adj, v, k)) for v in adj)
    assert every == len(_brute_connected_sets(adj, k))
    assert cfg.stats["candidates"] <= every and cfg.stats["pruned"] > 0


def _classes(K):
    """Every nonzero homology class in dimension 1, one cycle each."""
    hb = homology_basis(K, 1)
    return [hb.combine(GF2Vector(len(hb), bits)) for bits in range(1, 1 << len(hb))]


def _relabeled(K, seed):
    perm = list(range(K.n(0)))
    random.Random(seed).shuffle(perm)
    return build_complex([tuple(sorted(perm[x] for x in t)) for t in K.simplices[2]], (0, 2))


def _tie_break_cases(torus):
    """(K, zeta, brute_ths solution): the first homology cycle of every random complex
    with beta_1 > 0 among seeds 0-149, and every class of the Csaszar torus
    and of four relabelings of it.  On a relabeled torus the search meets
    a lexicographically smaller optimum after a larger one from the same
    center, which a random complex this small seldom shows."""
    for seed in range(150):
        K = random_complex(seed)
        if betti(K, 1):
            zeta = homology_basis(K, 1).cycles[0]
            yield K, zeta, brute_ths(K, zeta, kmax=K.n(1))
    for K in [torus[0]] + [_relabeled(torus[0], seed) for seed in range(4)]:
        for zeta in _classes(K):
            yield K, zeta, brute_ths(K, zeta, kmax=6)


def test_tie_break_matches_brute_at_and_above_the_optimum(torus):
    # the search stops below a cut and at the best size only from k = opt
    # on, so pin the exact solution there: brute_ths returns the
    # lexicographically least minimum set
    cases = 0
    for K, zeta, ref in _tie_break_cases(torus):
        opt = len(ref)
        for k in (opt, opt + 1, opt + 2):
            sol = solve_ths_fpt(K, zeta, FPTConfig(k=k))
            assert sol is not None and sol.support.bits == ref.support.bits, (K.n(1), opt, k)
            cases += 1
    assert cases >= 200


def test_feasible_counts_are_pinned(torus):
    # the improving cuts, as counted by the search that tested every
    # connected set of size <= k: stopping early must not change them
    cfg = FPTConfig(k=4)
    solve_ths_fpt(*gen_canonical("component-graph"), cfg)
    assert cfg.stats["feasible"] == 1
    K, _ = torus
    for zeta in _classes(K):
        for k, feasible in ((6, 1), (7, 2), (8, 3)):
            cfg = FPTConfig(k=k)
            solve_ths_fpt(K, zeta, cfg)
            assert cfg.stats["feasible"] == feasible, k


def test_stats_are_pinned(torus):
    # every stats field at k = opt and opt - 1 on the three classes of the
    # Csaszar torus and the genus-2 cycle: a walk that visits or skips other
    # sets, or starts other centers, changes these counts
    K, _ = torus
    cases = [(K, zeta) for zeta in _classes(K)] + [gen_canonical("genus-g", {"g": 2})]
    pinned = [  # per k: candidates, max_per_center, feasible, pruned
        {6: (1241, 764, 1, 185), 5: (709, 232, 0, 185)},
        {6: (1274, 764, 1, 220), 5: (742, 232, 0, 220)},
        {6: (1241, 579, 1, 267), 5: (816, 196, 0, 160)},
        {6: (1250, 774, 1, 207), 5: (708, 232, 0, 207)},
    ]
    for (K, zeta), want in zip(cases, pinned):
        for k, counts in want.items():
            cfg = FPTConfig(k=k)
            assert (solve_ths_fpt(K, zeta, cfg) is None) == (k == 5)
            got = tuple(cfg.stats[f] for f in ("candidates", "max_per_center", "feasible", "pruned"))
            assert got == counts, (zeta.support.bits, k)


def test_pruned_search_visits_at_most_every_connected_set(torus):
    K, _ = torus
    cases = [(K, zeta, 6) for zeta in _classes(K)] + [(*gen_canonical("component-graph"), k) for k in (4, 5)]
    for K, zeta, k in cases:
        cfg = FPTConfig(k=k)
        assert solve_ths_fpt(K, zeta, cfg) is not None
        assert cfg.stats["candidates"] <= len(_brute_connected_sets(r_adjacency(K, zeta.dimension), k))


def _reference(K, zeta, k):
    """The answer and the improving-cut count of testing every connected
    set of size <= k with ``CutInstance.cut``, from each center in turn in
    the order of ``enumerate_connected_sets``: the lexicographically least
    (size, sorted indices) cut as a chain or None, and how often the best
    so far improved."""
    inst = CutInstance.for_ths(K, zeta)
    G = r_adjacency(K, zeta.dimension)
    best, improved = None, 0
    for v in G:
        for S in enumerate_connected_sets(G, v, k):
            key = (len(S), sorted(S))
            if (best is None or key < best) and inst.cut(sum(1 << i for i in S))[0]:
                best, improved = key, improved + 1
    if best is None:
        return None, improved
    return K.chain_from_bits(zeta.dimension, sum(1 << i for i in best[1])), improved


def _check_against_reference(K, seed):
    """In each dimension of K with a class to cut, a drawn class at
    k = opt - 1, opt and opt + 1: the solver's chain and its ``feasible``
    count equal the reference's."""
    for r in range(K.lo, K.hi + 1):
        if not betti(K, r):
            continue
        zeta = random_nontrivial_cycle(K, r, seed)
        opt = next(k for k in range(1, K.n(r) + 1) if _reference(K, zeta, k)[0] is not None)
        for k in (opt - 1, opt, opt + 1):
            if k < 1:
                continue
            cfg = FPTConfig(k=k)
            sol = solve_ths_fpt(K, zeta, cfg)
            ref, improved = _reference(K, zeta, k)
            assert (sol is None) == (ref is None), (r, k)
            assert sol is None or sol.support.bits == ref.support.bits, (r, k)
            assert cfg.stats["feasible"] == improved, (r, k)


@settings(max_examples=60, deadline=None)
@given(random_complexes, st.integers(0, 2**30))
def test_solver_matches_every_set_reference_on_random_complexes(K, seed):
    _check_against_reference(K, seed)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**30))
def test_solver_matches_every_set_reference_on_the_canonical_corpus(name, seed):
    K, _ = gen_canonical(name, {"g": 2} if name == "genus-g" else None)
    _check_against_reference(K, seed)
