"""Windowed complexes, boundary maps, and surface predicates."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RP2_TRIANGLES, grid_torus_triangles, random_complex
from z2cut.canonical import gen_canonical
from z2cut.complexes import (
    Complex,
    boundary_matrix,
    build_complex,
    dual_graph,
    evaluate,
    is_closed_surface,
    r_adjacency,
    remove_closure,
)
from z2cut.errors import InputError


def test_build_generates_faces_in_window():
    K = build_complex([(0, 1, 2)], (0, 2))
    assert K.n(0) == 3 and K.n(1) == 3 and K.n(2) == 1
    K = build_complex([(0, 1, 2)], (1, 2))
    assert 0 not in K.simplices and K.n(1) == 3


_TOPS = [s for d in range(4) for s in combinations(range(6), d + 1)]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(_TOPS), max_size=8), st.integers(0, 3), st.integers(0, 3), st.data())
def test_build_is_the_closure_of_each_top(tops, a, b, data):
    lo, hi = min(a, b), max(a, b)
    tops = [s for s in tops if len(s) - 1 <= hi]  # tops below the floor stay
    K = build_complex(tops, (lo, hi))
    closure = {p: set() for p in range(lo, hi + 1)}
    for s in tops:
        for p in range(lo, len(s)):
            closure[p].update(combinations(s, p + 1))
    assert K.simplices == {p: tuple(sorted(closure[p])) for p in range(lo, hi + 1)}
    # what survives remove_closure is closed, with no faces put back
    p = data.draw(st.integers(lo, hi))
    S = K.chain_from_bits(p, data.draw(st.integers(0, (1 << K.n(p)) - 1)))
    KS, _ = remove_closure(K, S)
    for q in range(lo + 1, hi + 1):
        assert all(f in KS.index[q - 1] for s in KS.simplices[q] for f in combinations(s, q))
    assert all(set(KS.simplices[q]) <= set(K.simplices[q]) for q in range(lo, hi + 1))
    assert not set(KS.simplices[p]) & set(K.members(S))


def test_constructor_closes_its_input():
    assert Complex(0, 2, {2: [(0, 1, 2)]}) == build_complex([(0, 1, 2)], (0, 2))
    assert Complex(1, 2, {2: [(0, 1, 2)], 1: [(3, 4)]}) == build_complex([(0, 1, 2), (3, 4)], (1, 2))
    # a one-dimension window takes no facets
    K = Complex(1, 1, {1: [(1, 2), (0, 1)], 2: [(0, 1, 2)]})
    assert K.simplices == {1: ((0, 1), (1, 2))}


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        build_complex([(0, 0, 1)], (0, 2))
    with pytest.raises(InputError):
        build_complex([(0, 1, 2)], (2, 0))
    with pytest.raises(InputError, match="bad dimension window"):
        build_complex([(0, 1, 2)], (-1, 2))  # no empty simplex below dimension 0


def test_indexing_is_lexicographic():
    K = build_complex([(0, 1, 2), (1, 2, 3)], (0, 2))
    assert K.simplices[1] == tuple(sorted(K.simplices[1]))
    assert K.index[1][(0, 1)] == 0


def test_boundary_of_triangle():
    K = build_complex([(0, 1, 2)], (0, 2))
    d2 = boundary_matrix(K, 2)
    c = K.chain(2, [(0, 1, 2)])
    bd = d2.matvec(c.support)
    assert K.chain_from_bits(1, bd.bits) == K.chain(1, [(0, 1), (0, 2), (1, 2)])


def test_boundary_zero_rows_at_window_floor():
    K = build_complex([(0, 1, 2)], (1, 2))
    d1 = boundary_matrix(K, 1)
    assert d1.nrows == 0 and len(d1.cols) == 3
    # above the window: the zero map from nothing into the top simplices
    d3 = boundary_matrix(K, 3)
    assert d3.nrows == 1 and d3.cols == []
    with pytest.raises(InputError):
        boundary_matrix(K, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_boundary_squares_to_zero(seed):
    K = random_complex(seed)
    d2, d1 = boundary_matrix(K, 2), boundary_matrix(K, 1)
    for col in d2.cols:
        from z2cut.gf2 import GF2Vector

        assert d1.matvec(GF2Vector(K.n(1), col)).bits == 0


def test_evaluate_parity():
    K = build_complex([(0, 1, 2)], (0, 2))
    a = K.chain(1, [(0, 1), (0, 2)])
    b = K.chain(1, [(0, 1), (1, 2)])
    assert evaluate(a, b) == 1
    assert evaluate(a, a) == 0


def test_remove_closure_drops_cofaces():
    K = build_complex([(0, 1, 2), (1, 2, 3)], (0, 2))
    S = K.chain(1, [(1, 2)])
    KS, mapping = remove_closure(K, S)
    assert KS.n(2) == 0 and KS.n(1) == 4 and KS.n(0) == 4
    assert (1, 2) not in KS.index[1]
    # mapping relates surviving old indices to new ones
    for old, new in mapping[1].items():
        assert KS.simplices[1][new] == K.simplices[1][old]
    # the removed edge's weight is dropped, every other weight kept
    weights = {(0, 1): 2, (0, 2): 3, (1, 2): 5, (1, 3): 7, (2, 3): 1.5}
    W = build_complex([(0, 1, 2), (1, 2, 3)], (0, 2), weights)
    WS, _ = remove_closure(W, W.chain(1, [(1, 2)]))
    assert WS.weights == {e: w for e, w in weights.items() if e != (1, 2)}


def test_surface_predicates(torus, tetra):
    assert is_closed_surface(torus[0])
    assert is_closed_surface(tetra[0])
    annulus = build_complex(
        [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)], (0, 2)
    )
    assert not is_closed_surface(annulus)
    # two tori sharing one vertex: every edge still has two triangles, but
    # the shared vertex's link is two circles
    tris = list(torus[0].simplices[2])
    shift = max(v for t in tris for v in t)
    pinched = build_complex(tris + [tuple(v + shift for v in t) for t in tris], (0, 2))
    assert not is_closed_surface(pinched)
    with pytest.raises(InputError):
        dual_graph(pinched)


def _closed_by_links(K):
    """The definition, from the link graphs: the window holds dimensions 0
    to 2, every edge lies in two triangles, and the link of every vertex,
    the edges bc opposite it in its triangles vbc, is one circle."""
    if K.lo > 0 or K.hi < 2:
        return False
    if any(sum(set(e) <= set(t) for t in K.simplices[2]) != 2 for e in K.simplices[1]):
        return False
    for (v,) in K.simplices[0]:
        link = {}
        for t in K.simplices[2]:
            if v in t:
                a, b = (u for u in t if u != v)
                link.setdefault(a, set()).add(b)
                link.setdefault(b, set()).add(a)
        if not link or any(len(nbrs) != 2 for nbrs in link.values()):
            return False
        reached = {next(iter(link))}
        frontier = list(reached)
        while frontier:
            new = link[frontier.pop()] - reached
            reached |= new
            frontier.extend(new)
        if len(reached) != len(link):
            return False
    return True


def _surface_variants():
    """Closed surfaces, and each with an isolated vertex, with a hole, with
    two vertices identified, and glued to a copy of itself at one or two
    vertices (pinched at a vertex, or along an edge or at two vertices)."""
    surfaces = [gen_canonical(name)[0].simplices[2] for name in ("tetra-sphere", "octa-sphere", "csaszar-torus")]
    surfaces += [gen_canonical("genus-g", {"g": 2})[0].simplices[2], RP2_TRIANGLES]
    surfaces += [grid_torus_triangles(n) for n in (3, 4)]
    for tris in surfaces:
        tris = sorted(tuple(sorted(t)) for t in tris)
        m = max(v for t in tris for v in t)
        yield tris
        yield tris + [(m + 1,)]
        yield tris[1:]
        merged = {tuple(sorted({0 if v == 1 else v for v in t})) for t in tris}
        yield sorted(t for t in merged if len(t) == 3)
        for shift in (m, m - 1):
            yield tris + [tuple(v + shift for v in t) for t in tris]


def test_closed_surface_matches_the_link_definition():
    verdicts = []
    for tris in _surface_variants():
        for window in ((0, 2), (1, 2), (0, 3)):
            K = build_complex(tris, window)
            verdicts.append(is_closed_surface(K))
            assert verdicts[-1] == _closed_by_links(K), (tris, window)
    assert any(verdicts) and not all(verdicts)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(list(combinations(range(6), 3))), min_size=1, max_size=12))
def test_closed_surface_matches_the_link_definition_at_random(tris):
    K = build_complex(sorted(tris), (0, 2))
    assert is_closed_surface(K) == _closed_by_links(K)


def test_dual_graph_torus(torus):
    K, _ = torus
    edges = dual_graph(K)
    # one triple per primal edge, in order, across two triangles that hold it
    assert [ei for _, _, ei in edges] == list(range(K.n(1)))
    for t1, t2, ei in edges:
        assert t1 < t2
        assert set(K.simplices[1][ei]) <= set(K.simplices[2][t1]) & set(K.simplices[2][t2])
    degree = Counter(t for t1, t2, _ in edges for t in (t1, t2))
    assert sorted(degree) == list(range(K.n(2))) and set(degree.values()) == {3}


def test_r_adjacency_counts():
    K = build_complex([(0, 1, 2), (1, 2, 3)], (0, 2))
    G = r_adjacency(K, 1)
    # the two triangles make their edges pairwise adjacent
    assert sorted(G) == list(range(K.n(1)))
    assert len(G[K.index[1][(1, 2)]]) == 4
