"""Colored-graph hardness gadgets and the iterated subdivision."""

import hashlib
import warnings
from itertools import combinations

import pytest

from z2cut.complexes import boundary_matrix
from z2cut.errors import InputError
from z2cut.feasibility import is_bnt_feasible, is_ths_feasible
from z2cut.fpt_ths import FPTConfig, solve_ths_fpt
from z2cut.io_cli import emit_colored_graph, main
from z2cut.gadgets import (
    ColoredGraph,
    bnt_clique_solution,
    gen_bnt_gadget,
    gen_ths_gadget,
    has_multicolored_clique,
    s_subdivide,
    ths_clique_solution,
    verify_gadget_answer,
)

EDGE = ColoredGraph({1: 1, 2: 2}, frozenset({frozenset((1, 2))}))
NO_EDGE = ColoredGraph({1: 1, 2: 2}, frozenset())
TRI = ColoredGraph(
    {1: 1, 2: 2, 3: 3},
    frozenset({frozenset((1, 2)), frozenset((1, 3)), frozenset((2, 3))}),
)


def test_colored_graph_validation():
    with pytest.raises(InputError):
        ColoredGraph({1: 1, 2: 3}, frozenset())  # gap in colors
    with pytest.raises(InputError):
        ColoredGraph({1: 1, 2: 2**64}, frozenset())  # a gap too wide to list
    with pytest.raises(InputError):
        ColoredGraph({1: 1, 2: 1}, frozenset({frozenset((1, 2))}))  # monochromatic
    with pytest.raises(InputError, match="edge 1,1 is a loop"):
        ColoredGraph({1: 1, 2: 2}, frozenset({frozenset((1, 1))}))


def test_clique_search():
    assert has_multicolored_clique(EDGE) == (1, 2)
    assert has_multicolored_clique(NO_EDGE) is None
    assert has_multicolored_clique(TRI) == (1, 2, 3)


def test_s_subdivision_counts_and_star_disjointness():
    for d in (1, 2, 3, 4):
        K, dist = s_subdivide(d)
        assert K.n(d) == 2 * d * (d + 1) + 1
        assert K.n(0) == 3 * (d + 1)
        original = set(range(d + 1))
        for s in K.simplices[d]:
            if set(dist) & set(s):
                assert not (original & set(s))


def test_ths_gadget_single_edge_trace():
    inst = gen_ths_gadget(EDGE, 5)
    K = inst.complex
    assert inst.parameter == 4
    # input cycle: the vertex-pair edge plus its two dummy companions
    assert K.members(inst.input_chain) == [(0, 1), (0, 4), (1, 4)]
    admissible = {inst.legend["V"]} | set(inst.legend["alpha"].values()) | set(
        inst.legend["beta"].values()
    )
    assert admissible == {(0, 1), (1, 2), (0, 3), (2, 3)}
    # penalties: every undesirable simplex has m cofacets
    for omega, cofs in inst.legend["penalty"].items():
        assert len(cofs) == 5
        for c in cofs:
            assert set(omega) < set(c)


def test_ths_gadget_forward_and_reverse():
    inst = gen_ths_gadget(EDGE, 6)
    S = ths_clique_solution(inst, (1, 2), EDGE)
    assert len(S) == inst.parameter
    assert is_ths_feasible(inst.complex, inst.input_chain, S).verdict
    best = solve_ths_fpt(inst.complex, inst.input_chain, FPTConfig(k=inst.parameter))
    assert best is not None and len(best) == inst.parameter
    inst0 = gen_ths_gadget(NO_EDGE, 6)
    none = solve_ths_fpt(inst0.complex, inst0.input_chain, FPTConfig(k=inst0.parameter))
    assert none is None
    assert verify_gadget_answer(EDGE, best)
    assert verify_gadget_answer(NO_EDGE, none)


def test_ths_gadget_warns_on_small_m():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gen_ths_gadget(EDGE, 2)
    assert len(caught) == 1


def test_bnt_gadget_structure():
    G = ColoredGraph({1: 1, 2: 2, 3: 2}, frozenset({frozenset((1, 2))}))
    inst = gen_bnt_gadget(G, 4)
    K, xi = inst.complex, inst.input_chain
    assert inst.parameter == 3
    r = xi.dimension + 1
    d_up = boundary_matrix(K, r)
    d_low = boundary_matrix(K, r - 1)
    assert d_low.matvec(xi.support).bits == 0  # xi is a cycle
    # each glued simplex-boundary-minus-one-face chain bounds exactly xi
    for i, members in inst.legend["sigma_chain"].items():
        c = K.chain(r, members)
        assert d_up.matvec(c.support).bits == xi.support.bits, i
    # each full-boundary gadget is closed
    for t, members in inst.legend["tau_chain"].items():
        c = K.chain(r, members)
        assert d_up.matvec(c.support).bits == 0, t


def test_bnt_gadget_forward_and_reverse():
    G = ColoredGraph({1: 1, 2: 2, 3: 2}, frozenset({frozenset((1, 2))}))
    inst = gen_bnt_gadget(G, 4)
    S = bnt_clique_solution(inst, (1, 2), G)
    assert len(S) == inst.parameter
    assert is_bnt_feasible(inst.complex, inst.input_chain, S).verdict
    # restricted search over the distinguished simplices finds no smaller set
    assert _best_admissible(inst) is not None
    G0 = ColoredGraph({1: 1, 2: 2, 3: 2}, frozenset())
    inst0 = gen_bnt_gadget(G0, 4)
    assert _best_admissible(inst0) is None


def _best_admissible(inst):
    K, xi = inst.complex, inst.input_chain
    r = xi.dimension + 1
    adm = sorted(set(inst.legend["alpha"].values()) | set(inst.legend["beta"].values()))
    for size in range(1, inst.parameter + 1):
        for sub in combinations(adm, size):
            S = K.chain(r, sub)
            if is_bnt_feasible(K, xi, S).verdict:
                return S
    return None


def test_bnt_gadget_identifications_are_shared():
    G = ColoredGraph({1: 1, 2: 2, 3: 2}, frozenset({frozenset((1, 2))}))
    inst = gen_bnt_gadget(G, 4)
    # every alpha simplex appears in its sigma chain and in every tau chain
    # of the same color/vertex pair
    for (i, v), simplex in inst.legend["alpha"].items():
        assert simplex in inst.legend["sigma_chain"][i]
        for (ti, tj, tv), members in inst.legend["tau_chain"].items():
            if ti == i and tv == v:
                assert simplex in members


def test_gadget_rejects_bad_m():
    with pytest.raises(InputError):
        gen_ths_gadget(EDGE, 0)
    with pytest.raises(InputError):
        gen_bnt_gadget(EDGE, 4)  # too few vertices for the low-dim gadget


PINNED_GRAPHS = {
    "k3": TRI,
    "k3-V5": ColoredGraph(
        {1: 1, 2: 2, 3: 3, 4: 1, 5: 2},
        frozenset(map(frozenset, [(1, 2), (1, 3), (2, 3), (4, 5)])),
    ),
    "k2-V4": ColoredGraph({1: 1, 2: 1, 3: 2, 4: 2}, frozenset(map(frozenset, [(1, 3), (2, 4)]))),
}


@pytest.mark.parametrize("graph", sorted(PINNED_GRAPHS))
def test_bnt_gadget_vertex_ids_are_contiguous(graph):
    """Every copy of a distinguished simplex is subdivided onto the ids of
    its first copy, so no id is allocated and then left unused."""
    K = gen_bnt_gadget(PINNED_GRAPHS[graph], 8).complex
    verts = {v for s in K.simplices[K.lo] for v in s}
    assert verts == set(range(len(verts)))


@pytest.mark.parametrize("kind, graph, digest", [
    ("gadget-bnt", "k3", "6b866725de720e11"),
    ("gadget-bnt", "k3-V5", "ab29c4fb5f114f42"),
    ("gadget-bnt", "k2-V4", "4febe2a568e0d04f"),
    ("gadget-ths", "k3", "415aa72aba349c95"),
    ("gadget-ths", "k3-V5", "9642777e314cca1a"),
    ("gadget-ths", "k2-V4", "44c6c014fc96864a"),
])
def test_gadget_files_are_pinned(tmp_path, kind, graph, digest):
    """`z2cut gen` writes the same .scx, .chn and legend bytes as when these
    digests were taken (the first 16 hex digits of sha256(scx + chn + json),
    default --m 8): vertex ids, simplex order and legend entries included."""
    cg = tmp_path / "g.cg"
    cg.write_text(emit_colored_graph(PINNED_GRAPHS[graph]))
    out = [str(tmp_path / name) for name in ("g.scx", "g.chn", "g.json")]
    assert main(["gen", kind, "--graph", str(cg), "--out", out[0],
                 "--chain-out", out[1], "--legend-out", out[2]]) == 0
    blob = b"".join(open(p, "rb").read() for p in out)
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
