"""Homology ranks, bases, and minimum homology and cohomology bases."""

import heapq
import random
from itertools import combinations, groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_torus_triangles, random_complex
from z2cut.canonical import gen_canonical
from z2cut.complexes import boundary_matrix, build_complex, dual_graph
from z2cut.errors import InputError, InternalError
from z2cut.gf2 import GF2Matrix, GF2Vector, _bit_indices, _insert, _reindex, kernel_basis, rank
from z2cut.homology import (
    _horton_greedy,
    betti,
    homology_basis,
    min_cohomology_basis,
    min_homology_basis,
)
from z2cut.surface_ths import classify_cocycle


def test_betti_fixtures(torus, tetra, octa):
    for (K, _), (b0, b1, b2) in [
        (torus, (1, 2, 1)),
        (tetra, (1, 0, 1)),
        (octa, (1, 0, 1)),
    ]:
        assert (betti(K, 0), betti(K, 1), betti(K, 2)) == (b0, b1, b2)


def test_betti_component_graph():
    K, _ = gen_canonical("component-graph")
    assert betti(K, 0) == 3


def test_betti_genus_g():
    for g in (2, 3):
        K, _ = gen_canonical("genus-g", {"g": g})
        assert betti(K, 1) == 2 * g


def test_homology_basis_coordinates(torus):
    K, _ = torus
    hb = homology_basis(K, 1)
    assert len(hb) == 2
    for i, z in enumerate(hb.cycles):
        coords = hb.coordinates(z)
        assert coords.bits == 1 << i
        assert not hb.is_bounding(z)
    # a triangle boundary is trivial
    tri = K.simplices[2][0]
    bd = K.chain(1, [tuple(sorted(e)) for e in [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]])
    assert hb.is_bounding(bd)
    assert hb.coordinates(bd).bits == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.sampled_from([1, 2]), st.data())
def test_coordinates_recover_the_class(seed, ntri, p, data):
    K = random_complex(seed, nv=6, ntri=ntri)
    hb = homology_basis(K, p)
    c = data.draw(st.integers(0, (1 << len(hb)) - 1))
    y = data.draw(st.integers(0, (1 << K.n(p + 1)) - 1))
    z = hb.combine(GF2Vector(len(hb), c)).support.bits
    z ^= boundary_matrix(K, p + 1).matvec(GF2Vector(K.n(p + 1), y)).bits
    assert hb.coordinates(K.chain_from_bits(p, z)).bits == c
    # one more p-simplex leaves a nonzero boundary: p > 0 is above the floor
    e = data.draw(st.integers(0, K.n(p) - 1))
    with pytest.raises(InputError, match="not a cycle"):
        hb.coordinates(K.chain_from_bits(p, z ^ 1 << e))


def _brute_min_basis_weights(K):
    """All cycles by brute force; greedy minimum-weight homology basis."""
    d1 = boundary_matrix(K, 1)
    n = K.n(1)
    hb = homology_basis(K, 1)
    cycles = []
    for bits in range(1, 1 << n):
        v = GF2Vector(n, bits)
        if d1.matvec(v).bits == 0:
            cycles.append(v)
    cycles.sort(key=lambda v: (sum(K.edge_weight(K.simplices[1][i]) for i in _on(v)), v.bits))
    chosen, coords = [], []
    for v in cycles:
        z = K.chain_from_bits(1, v.bits)
        c = hb.coordinates(z)
        if c.bits and _independent(coords + [c.bits]):
            chosen.append(sum(K.edge_weight(K.simplices[1][i]) for i in _on(v)))
            coords.append(c.bits)
        if len(chosen) == len(hb):
            break
    return chosen


def _on(v):
    return [i for i in range(v.length) if v.get(i)]


def _independent(bits_list):
    m = max(b.bit_length() for b in bits_list)
    return rank(GF2Matrix(m, list(bits_list))) == len(bits_list)


def test_min_homology_basis_torus(torus):
    K, _ = torus
    basis = min_homology_basis(K)
    assert [wc.weight for wc in basis] == [3, 3]
    hb = homology_basis(K, 1)
    coords = [hb.coordinates(wc.chain).bits for wc in basis]
    assert _independent(coords)


def test_min_homology_basis_matches_brute():
    # theta graph: two independent cycles through a weighted middle bar
    K = build_complex(
        [(0, 1), (1, 2), (0, 3), (2, 3), (0, 2)],
        (0, 1),
        {(0, 2): 3},
    )
    basis = min_homology_basis(K)
    assert sorted(wc.weight for wc in basis) == _brute_min_basis_weights(K)


def test_min_homology_basis_random_graphs():
    # weights 1..2 make many ties between candidate cycles
    for top in (4, 2):
        rng = random.Random(11)
        for trial in range(8):
            nv = 5
            edges = set()
            # random connected graph: a spanning path plus extras
            for i in range(nv - 1):
                edges.add((i, i + 1))
            while len(edges) < 8:
                a, b = sorted(rng.sample(range(nv), 2))
                edges.add((a, b))
            weights = {e: rng.randint(1, top) for e in edges}
            K = build_complex(sorted(edges), (0, 1), weights)
            got = sorted(wc.weight for wc in min_homology_basis(K))
            assert got == _brute_min_basis_weights(K), (top, trial)


def test_min_homology_basis_rejects_disconnected():
    K = build_complex([(0, 1), (1, 2), (0, 2), (3, 4)], (0, 1))
    with pytest.raises(InputError, match="connected"):
        min_homology_basis(K)


def _grid_torus_edges(n):
    return sorted({e for t in grid_torus_triangles(n) for e in combinations(t, 2)})


def _weighted_grid_torus(n, seed):
    """n x n grid torus with seeded weights 1..9."""
    rng = random.Random(seed)
    return build_complex(grid_torus_triangles(n), (0, 2), {e: rng.randint(1, 9) for e in _grid_torus_edges(n)})


def _pairing(bits, hb):
    """Bit i is the parity of the cochain's overlap with basis cycle i."""
    return sum(((bits & z.support.bits).bit_count() & 1) << i for i, z in enumerate(hb.cycles))


def test_min_cohomology_basis_torus(torus):
    K, _ = torus
    assert [wc.weight for wc in min_cohomology_basis(K)] == [6, 6]
    for K in (K, gen_canonical("genus-g", {"g": 2})[0], _weighted_grid_torus(4, 5)):
        basis = min_cohomology_basis(K)
        assert len(basis) == betti(K, 1)
        d2 = boundary_matrix(K, 2)
        hb = homology_basis(K, 1)
        pairings = []
        for wc in basis:
            bits = wc.chain.support.bits
            # a cocycle: even overlap with every triangle boundary
            assert all((col & bits).bit_count() % 2 == 0 for col in d2.cols)
            assert classify_cocycle(K, wc.chain) == "nontrivial-cocycle"
            pairings.append(_pairing(bits, hb))
        assert _independent(pairings)
        weights = [wc.weight for wc in basis]
        assert weights == sorted(weights)


def _brute_min_cocycle_weights(K):
    """Every 1-cocycle, from a kernel basis of the coboundary map; greedy by
    (weight, bits) under independence of the pairing with a homology basis."""
    cob = [0] * K.n(1)
    for ti, col in enumerate(boundary_matrix(K, 2).cols):
        for ei in range(K.n(1)):
            if (col >> ei) & 1:
                cob[ei] |= 1 << ti
    cocycles = [0]
    for z in kernel_basis(GF2Matrix(K.n(2), cob)).cols:
        cocycles += [c ^ z for c in cocycles]
    hb = homology_basis(K, 1)

    def weight(bits):
        return sum(K.edge_weight(e) for e in K.members(K.chain_from_bits(1, bits)))

    chosen, pairings = [], []
    for bits in sorted(cocycles[1:], key=lambda c: (weight(c), c)):
        pair = _pairing(bits, hb)
        if pair and _independent(pairings + [pair]):
            chosen.append(weight(bits))
            pairings.append(pair)
            if len(chosen) == len(hb):
                break
    return chosen


def test_min_cohomology_basis_matches_brute(torus):
    """Minimum weights against all cocycles, not only dual-graph circles."""
    genus2 = gen_canonical("genus-g", {"g": 2})[0]
    for K in (torus[0], genus2, _weighted_grid_torus(3, 2), _weighted_grid_torus(4, 5)):
        got = [wc.weight for wc in min_cohomology_basis(K)]
        assert got == _brute_min_cocycle_weights(K)


def test_betti_random_complexes_euler():
    # Euler characteristic check: n0 - n1 + n2 == b0 - b1 + b2
    for seed in range(20):
        K = random_complex(seed)
        euler = K.n(0) - K.n(1) + K.n(2)
        assert euler == betti(K, 0) - betti(K, 1) + betti(K, 2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=27, max_size=27))
def test_min_cohomology_basis_matches_brute_on_tied_grids(ws):
    """Side-3 grid tori with weights 1..3, where most candidates tie."""
    K = build_complex(grid_torus_triangles(3), (0, 2), dict(zip(_grid_torus_edges(3), ws)))
    assert [wc.weight for wc in min_cohomology_basis(K)] == _brute_min_cocycle_weights(K)


def test_min_cohomology_basis_takes_ints_past_the_float_range():
    """Int weights sum exactly at any size: 10**400 on every edge scales
    the unit basis, where a float bound would overflow."""
    unit = build_complex(grid_torus_triangles(3), (0, 2))
    huge = build_complex(grid_torus_triangles(3), (0, 2), {e: 10**400 for e in _grid_torus_edges(3)})
    want = [(wc.chain.support.bits, wc.weight * 10**400) for wc in min_cohomology_basis(unit)]
    assert [(wc.chain.support.bits, wc.weight) for wc in min_cohomology_basis(huge)] == want


def _min_cohomology_basis_from_homology_basis(K):
    """min_cohomology_basis as it was before the tree-cotree: each dual edge
    annotated by the cycles of homology_basis(K, 1) that hold its primal
    edge."""
    order = sorted(dual_graph(K))
    primal = [ei for _, _, ei in order]
    dual = {ei: j for j, ei in enumerate(primal)}
    ann = [0] * len(primal)
    cycles = homology_basis(K, 1).cycles
    for i, z in enumerate(cycles):
        for ei in _bit_indices(z.support.bits):
            ann[dual[ei]] |= 1 << i
    weights = [K.edge_weight(K.simplices[1][ei]) for ei in primal]
    chosen = _all_trees_greedy(K.n(2), [(t1, t2) for t1, t2, _ in order], weights, ann, len(cycles))
    out = [(_reindex(cyc, primal), w) for cyc, w in chosen]
    return sorted(out, key=lambda cw: (cw[1], _bit_indices(cw[0])))


# The 6-vertex projective plane, a non-orientable closed surface (beta_1 = 1).
_RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)]


def test_cotree_annotations_pick_the_same_basis(torus):
    """Any homology basis gives annotations with the same kernel, the
    coboundaries, and so the same picks, orientable or not."""
    surfaces = [torus[0], build_complex(sorted(tuple(sorted(t)) for t in _RP2), (0, 2))]
    surfaces += [gen_canonical("genus-g", {"g": g})[0] for g in (2, 3)]
    surfaces += [build_complex(grid_torus_triangles(n), (0, 2)) for n in (3, 5)]
    surfaces += [_weighted_grid_torus(n, n) for n in (3, 4, 5)]
    for K in surfaces:
        got = [(wc.chain.support.bits, wc.weight) for wc in min_cohomology_basis(K)]
        assert got == _min_cohomology_basis_from_homology_basis(K)


# The chains (as support bitsets) and weights of both minimum bases, recorded
# from the candidate-bitset greedy that ranked every (root, edge) candidate.
# Ties are broken by (weight, sorted edge indices); these pin that rule.
_PINNED_BASES = {
    "csaszar": (
        [(0x4607, 6), (0x42815, 6)],
        [(0x43, 3), (0x109, 3)],
    ),
    "genus2": (
        [(0x4607, 6), (0x10100A05, 6), (0x80C070000, 6), (0x120D020000, 6)],
        [(0x43, 3), (0x109, 3), (0x1009000, 3), (0x2011000, 3)],
    ),
    "unit-grid-4": (
        [(0x100900900209, 8), (0x288011000091, 8)],
        [(0x843, 4), (0x400400014, 4)],
    ),
    "weighted-grid-4-5": (
        [(0x405005004140, 22), (0xF1D00088, 25)],
        [(0x80021000028, 10), (0x1108C0, 12)],
    ),
}


def test_min_bases_pin_tie_break(torus):
    complexes = {
        "csaszar": torus[0],
        "genus2": gen_canonical("genus-g", {"g": 2})[0],
        "unit-grid-4": build_complex(grid_torus_triangles(4), (0, 2)),
        "weighted-grid-4-5": _weighted_grid_torus(4, 5),
    }
    for name, K in complexes.items():
        cohomology, homology = _PINNED_BASES[name]
        assert [(wc.chain.support.bits, wc.weight) for wc in min_cohomology_basis(K)] == cohomology, name
        assert [(wc.chain.support.bits, wc.weight) for wc in min_homology_basis(K)] == homology, name


def _all_trees_greedy(nverts, ends, weights, ann, beta):
    """The Horton greedy as it was before its trees grew on demand: a full
    Dijkstra from every vertex, every kept candidate's key sorted, then the
    weight groups in key order.  The reference for ``_horton_greedy``."""
    if not nverts:
        raise InputError("complex must be connected; run per component")
    adj = [[] for _ in range(nverts)]
    for ei, (a, b) in enumerate(ends):
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    for nbrs in adj:
        nbrs.sort()
    inf = float("inf")
    keys, parents = [], []
    for root in range(nverts):
        dist = [inf] * nverts
        parent = [-1] * nverts
        lab = [0] * nverts
        branch = [-1] * nverts
        settled = 0
        dist[root] = 0
        heap = [(0, root)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            settled += 1
            pe = parent[u]
            if pe >= 0:
                a, b = ends[pe]
                t = a ^ b ^ u
                lab[u] = lab[t] ^ ann[pe]
                branch[u] = pe if t == root else branch[t]
            for v, ei in adj[u]:
                nd = d + weights[ei]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = ei
                    heapq.heappush(heap, (nd, v))
        if settled < nverts:
            raise InputError("complex must be connected; run per component")
        if beta == 0:
            return []
        parents.append(parent)
        for ei, (a, b) in enumerate(ends):
            if branch[a] != branch[b] and lab[a] ^ lab[b] ^ ann[ei]:
                keys.append((dist[a] + dist[b] + weights[ei], root, ei))
    keys.sort()
    chosen, pivots = [], {}
    for _, same_weight in groupby(keys, key=itemgetter(0)):
        group = {}
        for _, root, ei in same_weight:
            parent = parents[root]
            cyc, x = 1 << ei, ann[ei]
            for v in ends[ei]:
                while v != root:
                    pe = parent[v]
                    cyc ^= 1 << pe
                    x ^= ann[pe]
                    a, b = ends[pe]
                    v = a ^ b ^ v
            group[cyc] = x
        ranked = []
        for cyc, x in group.items():
            idx = _bit_indices(cyc)
            ranked.append((sum(weights[i] for i in idx), idx, cyc, x))
        ranked.sort()
        for w, _, cyc, x in ranked:
            if _insert(pivots, x)[0]:
                chosen.append((cyc, w))
                if len(chosen) == beta:
                    return chosen
    raise InternalError("candidate cycles failed to span the annotations")


def _outcome(greedy, args):
    """The greedy's output list, or the type of the error it raised."""
    try:
        return greedy(*args)
    except (InputError, InternalError) as exc:
        return type(exc)


_PALETTES = {
    "unit": [1],
    "ints": list(range(1, 10)),
    "decimals": [0.1, 0.2, 0.3, 0.7],
    "absorbed": [1e-3, 1, 1e16],
}


def _random_multigraph(rng, palette):
    """Up to 14 vertices: a random spanning tree (one edge dropped 5% of the
    time), up to 2n more edges with repeats and a few loops, in random
    order; beta 0..4 capped at the cycle rank, random annotations."""
    n = rng.randint(1, 14)
    ends = [(rng.randrange(i), i) for i in range(1, n)]
    if n > 1 and rng.random() < 0.05:
        ends.pop(rng.randrange(len(ends)))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b or rng.random() < 0.1:
            ends.append((a, b))
    rng.shuffle(ends)
    beta = max(0, min(rng.randint(0, 4), len(ends) - n + 1))
    weights = [rng.choice(palette) for _ in ends]
    ann = [rng.randrange(1 << beta) for _ in ends]
    return n, ends, weights, ann, beta


def test_greedy_matches_the_all_trees_reference():
    seen = set()
    for name, palette in _PALETTES.items():
        rng = random.Random(name)
        for _ in range(750):
            args = _random_multigraph(rng, palette)
            want = _outcome(_all_trees_greedy, args)
            assert _outcome(_horton_greedy, args) == want, (name, args)
            seen.add(want if isinstance(want, type) else len(want))
    # every outcome occurs: each list length 0..4 and both errors
    assert seen == {0, 1, 2, 3, 4, InputError, InternalError}


# Cases where a lazy greedy went wrong on floats, each shrunk from a random
# multigraph.  Rounding: a bound of exactly 2L took the weight group of key
# 0.7999999999999999 while a candidate of that key was still to come.
# Absorption: from vertex 5, 1e16 + 1 == 1e16 puts vertices 1 and 2 on the
# level {0, 3} while it is settled; a queue that appended them after it
# settled 3 before them, and vertex 4 took its tree edge from 3, not 1.
_FLOAT_CASES = [
    (
        (
            12,
            [(4, 1), (8, 11), (2, 9), (0, 5), (11, 8), (11, 1), (0, 2), (1, 10), (3, 7), (2, 4), (6, 11), (0, 1), (10, 7)],
            [0.3, 0.7, 0.3, 0.3, 0.1, 0.7, 0.2, 0.3, 0.7, 0.2, 0.3, 0.1, 0.1],
            [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0],
            2,
        ),
        [(2625, 0.7999999999999999), (18, 0.7999999999999999)],
    ),
    (
        (
            6,
            [(0, 1), (1, 4), (0, 5), (1, 2), (4, 3), (4, 2), (3, 5)],
            [1, 1, 1e16, 1, 1, 1, 1e16],
            [0, 0, 0, 1, 0, 1, 1],
            1,
        ),
        [(87, 2.0000000000000004e16)],
    ),
]


@pytest.mark.parametrize("args, want", _FLOAT_CASES, ids=["rounding", "absorbed"])
def test_greedy_float_regressions(args, want):
    assert _all_trees_greedy(*args) == want
    assert _horton_greedy(*args) == want
