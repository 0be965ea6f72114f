"""Acceptance gate: one test and one printed PASS/FAIL line per criterion."""

import math
import random
import sys
import time
from itertools import combinations, product

import pytest

from conftest import random_complex
from z2cut.bnt_greedy import solve_bnt_greedy
from z2cut.canonical import gen_canonical
from z2cut.complexes import boundary_matrix, build_complex, evaluate
from z2cut.feasibility import (
    CutInstance,
    is_bnt_feasible,
    is_global_bnt_solution,
    is_global_ths_solution,
    is_ths_feasible,
)
from z2cut.fpt_ths import FPTConfig, solve_ths_fpt
from z2cut.gadgets import (
    ColoredGraph,
    gen_bnt_gadget,
    gen_ths_gadget,
    has_multicolored_clique,
    s_subdivide,
    ths_clique_solution,
)
from z2cut.gf2 import GF2Matrix, GF2Vector, kernel_basis, rank
from z2cut.global_rand import (
    random_bounding_cycle,
    random_nontrivial_cycle,
    splitmix64,
)
from z2cut.homology import betti, homology_basis, min_homology_basis
from z2cut.oracle import (
    brute_bnt,
    brute_ths,
    brute_ths_surface,
    enumerate_boundary_chains,
    enumerate_homologous,
)
from z2cut.surface_ths import classify_cocycle, is_connected_cocycle, solve_ths_surface


def _verdict(n, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n:2d}] {status}: {desc}{extra}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {n}: {desc}"


def _hits(S, z):
    return (S.support.bits & z.support.bits) != 0


def test_criterion_01_component_graph():
    t0 = time.monotonic()
    K, zeta = gen_canonical("component-graph")
    fpt4 = solve_ths_fpt(K, zeta, FPTConfig(k=4))
    ref = brute_ths(K, zeta, kmax=4)
    fpt3 = solve_ths_fpt(K, zeta, FPTConfig(k=3))
    elapsed = time.monotonic() - t0
    ok = (
        fpt4 is not None
        and ref is not None
        and len(fpt4) == len(ref) == 4
        and fpt3 is None
        and elapsed < 1.0
    )
    _verdict(1, "component-graph optimum 4, infeasible at 3", ok, f" ({elapsed:.2f}s)")


def test_criterion_02_sphere_bnt():
    t0 = time.monotonic()
    ok = True
    for name in ("tetra-sphere", "octa-sphere"):
        K, zeta = gen_canonical(name)
        if zeta is None:
            zeta = K.chain(1, [(0, 1), (0, 2), (1, 2)])
        opt = brute_bnt(K, zeta, kmax=2)
        greedy = solve_bnt_greedy(K, zeta)
        ok &= opt is not None and len(opt) == 2
        ok &= len(greedy) == 2 and is_bnt_feasible(K, zeta, greedy).verdict
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _verdict(2, "sphere equators: brute and greedy both reach 2", ok, f" ({elapsed:.2f}s)")


def test_criterion_03_planar_holes():
    K, zeta = gen_canonical("planar-holes")
    sol = brute_ths(K, zeta, kmax=3)
    ok = sol is not None and len(sol) == 3 and brute_ths(K, zeta, kmax=2) is None
    _verdict(3, "planar hole-class optimum is exactly 3", ok)


def test_criterion_04_surface_sweep():
    t0 = time.monotonic()
    ok = True
    for name, g in (("csaszar-torus", None), ("genus-g", 2)):
        K, _ = gen_canonical(name, {"g": g} if g else None)
        hb = homology_basis(K, 1)
        for bits in range(1, 1 << len(hb)):
            zeta = hb.combine(GF2Vector(len(hb), bits))
            res = solve_ths_surface(K, zeta)
            if name == "csaszar-torus":
                ref = brute_ths(K, zeta, kmax=len(res.solution))
            else:
                ref = brute_ths_surface(K, zeta)
            ok &= ref is not None and len(ref) == len(res.solution)
            ok &= is_connected_cocycle(K, res.solution)
            ok &= classify_cocycle(K, res.solution) == "nontrivial-cocycle"
            ok &= is_ths_feasible(K, zeta, res.solution).verdict
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _verdict(4, "surface solver matches oracle on every class", ok, f" ({elapsed:.2f}s)")


def _rank_le10_pool():
    pool = []
    for name, r in (
        ("tetra-sphere", 2),
        ("octa-sphere", 2),
        ("annulus", 1),
        ("component-graph", 0),
        ("planar-holes", 1),
    ):
        K, _ = gen_canonical(name)
        pool.append((K, r))
    for seed in range(30):
        K = random_complex(seed)
        if rank(boundary_matrix(K, 2)) <= 10 and betti(K, 1) > 0:
            pool.append((K, 1))
        if len(pool) >= 9:
            break
    return pool


def test_criterion_05_colspace_equivalence():
    disagreements = 0
    for K, r in _rank_le10_pool():
        if rank(boundary_matrix(K, r + 1)) > 10 if r + 1 <= K.hi else False:
            continue
        if betti(K, r) == 0:
            continue
        rng = random.Random(str((K.n(r), r)))
        hb = homology_basis(K, r)
        for _ in range(100):
            coeff = rng.randrange(1, 1 << len(hb))
            zeta = hb.combine(GF2Vector(len(hb), coeff))
            S = K.chain_from_bits(r, rng.getrandbits(K.n(r)) & rng.getrandbits(K.n(r)))
            want = all(_hits(S, z) for z in enumerate_homologous(K, zeta))
            got = is_ths_feasible(K, zeta, S).verdict
            disagreements += got != want
    _verdict(5, "rank test equals enumeration on 100 pairs per complex",
             disagreements == 0, f" ({disagreements} disagreements)")


def test_criterion_06_parity_suite():
    violations = 0
    for name, g in (("csaszar-torus", None), ("genus-g", 2)):
        K, _ = gen_canonical(name, {"g": g} if g else None)
        hb = homology_basis(K, 1)
        zeta = hb.cycles[0]
        # cocycle pool: solver outputs per class plus a trivial coboundary
        pool = []
        for bits in range(1, 1 << len(hb)):
            z = hb.combine(GF2Vector(len(hb), bits))
            pool.append(solve_ths_surface(K, z).solution)
        star = K.chain(1, [e for e in K.simplices[1] if 0 in e])
        if is_connected_cocycle(K, star):
            pool.append(star)
        B = boundary_matrix(K, 2)
        rng = splitmix64(99)
        for eta in pool:
            values = set()
            for _ in range(200):
                acc = zeta.support.bits
                for j, col in enumerate(B.cols):
                    if (rng() >> j) & 1:
                        acc ^= col
                z2 = K.chain_from_bits(1, acc)
                values.add(evaluate(eta, z2))
            feasible = is_ths_feasible(K, zeta, eta).verdict
            if len(values) != 1 or (values == {1}) != feasible:
                violations += 1
    _verdict(6, "cocycle pairing constant on classes; 1 iff feasible",
             violations == 0, f" ({violations} violations)")


def test_criterion_07_fpt_equals_brute():
    instances = 0
    envelope_ok = True
    agree = True

    def check(K, zeta, k, kmax=None):
        nonlocal instances, agree, envelope_ok
        cfg = FPTConfig(k=k)
        sol = solve_ths_fpt(K, zeta, cfg)
        ref = brute_ths(K, zeta, kmax if kmax is not None else k)
        agree &= (sol is None) == (ref is None)
        if sol is not None:
            agree &= len(sol) == len(ref)
        from z2cut.complexes import r_adjacency

        delta = max((len(v) for v in r_adjacency(K, zeta.dimension).values()), default=0)
        envelope_ok &= cfg.stats["max_per_center"] <= math.comb(k + k * delta, k)
        instances += 1

    K, zeta = gen_canonical("component-graph")
    check(K, zeta, 3)
    check(K, zeta, 4)
    K, _ = gen_canonical("csaszar-torus")
    hb = homology_basis(K, 1)
    for bits in (1, 2, 3):
        check(K, hb.combine(GF2Vector(2, bits)), 6)
    for seed in range(40):
        Kr = random_complex(seed)
        if betti(Kr, 1) == 0:
            continue
        z = homology_basis(Kr, 1).cycles[0]
        for k in (1, 2, 3):
            check(Kr, z, k)
        if instances >= 28:
            break
    # small hardness gadgets; m=1 keeps the enumeration oracle in budget
    import warnings

    for G in (
        ColoredGraph({1: 1, 2: 2}, frozenset({frozenset((1, 2))})),
        ColoredGraph({1: 1, 2: 2}, frozenset()),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = gen_ths_gadget(G, 1)
        for k in (2, 4):
            check(inst.complex, inst.input_chain, k)
    ok = agree and envelope_ok and instances >= 30
    _verdict(7, "parameterized solver equals brute force",
             ok, f" ({instances} instances, envelope {'ok' if envelope_ok else 'exceeded'})")


def test_criterion_08_bnt_greedy_guarantees():
    ok = True
    checked = 0
    cases = []
    for name in ("tetra-sphere", "octa-sphere", "csaszar-torus"):
        K, _ = gen_canonical(name)
        for seed in range(4):
            cases.append((K, random_bounding_cycle(K, 1, seed)))
    for seed in range(12):
        K = random_complex(seed, ntri=6)
        if rank(boundary_matrix(K, 2)) == 0:
            continue
        cases.append((K, random_bounding_cycle(K, 1, seed)))
    for K, zeta in cases:
        if zeta.support.bits == 0:
            continue
        sol = solve_bnt_greedy(K, zeta)  # raises if the iteration bound breaks
        ok &= is_bnt_feasible(K, zeta, sol).verdict
        coset = enumerate_boundary_chains(K, zeta)
        if len(coset) <= 64:
            opt = brute_bnt(K, zeta, kmax=len(sol))
            ok &= len(sol) <= (math.log(len(coset)) + 1) * len(opt)
        checked += 1
    _verdict(8, "greedy is feasible, bounded, and ln-approximate",
             ok and checked >= 15, f" ({checked} instances)")


def test_criterion_09_randomized_globals():
    t0 = time.monotonic()
    K, _ = gen_canonical("csaszar-torus")
    cache = {}
    succ = 0
    for t in range(200):
        zeta = random_nontrivial_cycle(K, 1, 1000 + t)
        key = zeta.support.bits
        if key not in cache:
            sol = solve_ths_fpt(K, zeta, FPTConfig(k=6))
            cache[key] = (
                sol is not None and is_global_ths_solution(K, 1, sol).verdict
            )
        succ += cache[key]
    rate_ths = succ / 200
    Kt, _ = gen_canonical("tetra-sphere")
    cache.clear()
    succ = 0
    for t in range(200):
        zeta = random_bounding_cycle(Kt, 1, 2000 + t)
        key = zeta.support.bits
        if key not in cache:
            sol = solve_bnt_greedy(Kt, zeta)
            cache[key] = is_global_bnt_solution(Kt, 1, sol).verdict
        succ += cache[key]
    rate_bnt = succ / 200
    elapsed = time.monotonic() - t0
    ok = rate_ths >= 0.40 and rate_bnt >= 0.40 and elapsed < 60.0
    _verdict(9, "per-trial success rate at least 0.40 on 200 seeded trials",
             ok, f" (ths {rate_ths:.2f}, bnt {rate_bnt:.2f}, {elapsed:.1f}s)")


GRAPHS = {
    "k2-edge": ColoredGraph({1: 1, 2: 2}, frozenset({frozenset((1, 2))})),
    "k2-noedge": ColoredGraph({1: 1, 2: 2}, frozenset()),
    "k2-V4": ColoredGraph(
        {1: 1, 2: 1, 3: 2, 4: 2}, frozenset(map(frozenset, [(1, 3), (2, 4)]))
    ),
    "k2-V6-noedge": ColoredGraph({1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}, frozenset()),
    "k3-V3-tri": ColoredGraph(
        {1: 1, 2: 2, 3: 3}, frozenset(map(frozenset, [(1, 2), (1, 3), (2, 3)]))
    ),
    "k3-V3-path": ColoredGraph(
        {1: 1, 2: 2, 3: 3}, frozenset(map(frozenset, [(1, 2), (2, 3)]))
    ),
    "k3-V5": ColoredGraph(
        {1: 1, 2: 2, 3: 3, 4: 1, 5: 2},
        frozenset(map(frozenset, [(1, 2), (1, 3), (2, 3), (4, 5)])),
    ),
    "k3-V6-clique": ColoredGraph(
        {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3},
        frozenset(map(frozenset, [(1, 3), (1, 5), (3, 5), (2, 4), (2, 6)])),
    ),
    "k3-V6-noclique": ColoredGraph(
        {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3},
        frozenset(map(frozenset, [(1, 3), (3, 5), (2, 5)])),
    ),
}


def _ths_decision(inst, G):
    """Does the gadget admit a hitting set of size <= parameter?

    Search over the structured candidates V + one alpha per color + one
    beta per color pair; feasibility is monotone in S, so if no maximal
    candidate works, no admissible subset does.
    """
    K, zeta = inst.complex, inst.input_chain
    k = G.k
    alpha_opts = {
        i: [inst.legend["alpha"][(i, v)] for v in G.color_class(i)] for i in range(1, k + 1)
    }
    beta_opts = {}
    for (i, j, v, u), s in inst.legend["beta"].items():
        beta_opts.setdefault(frozenset((i, j)), set()).add(s)
    pairs = [frozenset(p) for p in combinations(range(1, k + 1), 2)]
    if any(p not in beta_opts for p in pairs):
        return False
    for alphas in product(*(alpha_opts[i] for i in range(1, k + 1))):
        for betas in product(*(sorted(beta_opts[p]) for p in pairs)):
            members = {inst.legend["V"], *alphas, *betas}
            S = K.chain(zeta.dimension, sorted(members))
            if len(S) <= inst.parameter and is_ths_feasible(K, zeta, S).verdict:
                return True
    return False


def _bnt_decision(inst, G):
    """Structured search over alpha/beta combinations, a dimension down."""
    K, xi = inst.complex, inst.input_chain
    k = G.k
    r = xi.dimension + 1
    alpha_opts = {
        i: [inst.legend["alpha"][(i, v)] for v in G.color_class(i)] for i in range(1, k + 1)
    }
    beta_opts = {}
    for (i, j, v, u), s in inst.legend["beta"].items():
        beta_opts.setdefault(frozenset((i, j)), set()).add(s)
    pairs = [frozenset(p) for p in combinations(range(1, k + 1), 2)]
    if any(p not in beta_opts for p in pairs):
        return False
    cut = CutInstance.for_bnt(K, xi).cut  # one elimination, every candidate a row test
    index = K.index[r]
    for alphas in product(*(alpha_opts[i] for i in range(1, k + 1))):
        for betas in product(*(sorted(beta_opts[p]) for p in pairs)):
            members = {*alphas, *betas}
            if len(members) <= inst.parameter and cut(index[s] for s in members)[0]:
                return True
    return False


def test_criterion_10_gadget_equivalence():
    t0 = time.monotonic()
    ok = True
    for G in GRAPHS.values():
        has = has_multicolored_clique(G) is not None
        inst = gen_ths_gadget(G, inst_m := (math.comb(G.k + 1, 2) + 1) + 2)
        ok &= _ths_decision(inst, G) == has
        if has:  # forward: the clique-derived set itself is feasible
            S = ths_clique_solution(inst, has_multicolored_clique(G), G)
            ok &= is_ths_feasible(inst.complex, inst.input_chain, S).verdict
        if G.k == 2 and len(G.colors) == 2:  # unconditional cross-check
            full = solve_ths_fpt(inst.complex, inst.input_chain, FPTConfig(k=inst.parameter))
            ok &= (full is not None) == has
        # boundary gadget, where the construction permits; every size is decided
        if len(G.colors) < 3:
            continue
        binst = gen_bnt_gadget(G, math.comb(G.k + 1, 2) + 2)
        ok &= _bnt_decision(binst, G) == has
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    _verdict(10, "gadget solvability mimics the clique decision",
             ok, f" ({elapsed:.1f}s; no skips)")


def test_criterion_11_subdivision_counts():
    ok = True
    for d in (1, 2, 3, 4):
        K, dist = s_subdivide(d)
        ok &= K.n(d) == 2 * d * (d + 1) + 1
        original = set(range(d + 1))
        for s in K.simplices[d]:
            if set(dist) & set(s):
                ok &= not (original & set(s))
    _verdict(11, "subdivision counts 2d(d+1)+1 and star-disjointness", ok)


def _brute_min_basis_weights(K):
    hb = homology_basis(K, 1)
    d1 = boundary_matrix(K, 1)
    ker = kernel_basis(d1)
    dim = len(ker.cols)
    assert dim <= 16, "fixture too large for exhaustive basis search"
    cycles = []
    for bits in range(1, 1 << dim):
        acc = 0
        b = bits
        while b:
            j = (b & -b).bit_length() - 1
            acc ^= ker.cols[j]
            b &= b - 1
        w = sum(
            K.edge_weight(K.simplices[1][i])
            for i in range(K.n(1))
            if (acc >> i) & 1
        )
        cycles.append((w, acc))
    cycles.sort()
    chosen, coords = [], []
    for w, acc in cycles:
        c = hb.coordinates(K.chain_from_bits(1, acc)).bits
        if c and rank(GF2Matrix(len(hb), coords + [c])) == len(coords) + 1:
            chosen.append(w)
            coords.append(c)
        if len(chosen) == len(hb):
            break
    return chosen


def test_criterion_12_algebraic_invariants():
    ok = True
    # boundary squares to zero on every constructed complex
    complexes = [gen_canonical(n, {"g": 2} if n == "genus-g" else None)[0]
                 for n in ("tetra-sphere", "octa-sphere", "csaszar-torus",
                           "genus-g", "annulus", "component-graph", "planar-holes")]
    complexes += [random_complex(s) for s in range(10)]
    EDGE = ColoredGraph({1: 1, 2: 2}, frozenset({frozenset((1, 2))}))
    complexes.append(gen_ths_gadget(EDGE, 6).complex)
    for K in complexes:
        for p in range(K.lo + 2, K.hi + 1):
            dp, dpm = boundary_matrix(K, p), boundary_matrix(K, p - 1)
            for col in dp.cols:
                ok &= dpm.matvec(GF2Vector(K.n(p - 1), col)).bits == 0
    # rank-nullity on 1000 random matrices
    rng = random.Random(0)
    for _ in range(1000):
        nr, nc = rng.randint(1, 12), rng.randint(0, 12)
        M = GF2Matrix(nr, [rng.getrandbits(nr) for _ in range(nc)])
        ok &= rank(M) + len(kernel_basis(M).cols) == nc
    # minimum homology basis equals brute force on all small fixtures
    small = []
    K, _ = gen_canonical("csaszar-torus")
    small.append(K)
    small.append(build_complex([(0, 1), (1, 2), (0, 3), (2, 3), (0, 2)], (0, 1), {(0, 2): 3}))
    rng = random.Random(4)
    while len(small) < 8:
        nv = 5
        edges = {(i, i + 1) for i in range(nv - 1)}
        while len(edges) < 9:
            a, b = sorted(rng.sample(range(nv), 2))
            edges.add((a, b))
        weights = {e: rng.randint(1, 5) for e in edges}
        small.append(build_complex(sorted(edges), (0, 1), weights))
    for K in small:
        if K.n(1) > 25:
            continue
        got = sorted(wc.weight for wc in min_homology_basis(K, 1))
        ok &= got == _brute_min_basis_weights(K)
    _verdict(12, "boundary squares to zero; rank-nullity; minimum bases", ok)
