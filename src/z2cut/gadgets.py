"""Hardness-instance generators from properly colored graphs.

For a k-colored graph G on |V| = r+1 vertices, the hitting-set gadget is an
(r+1)-dimensional windowed complex whose small solutions for the input
cycle pick one vertex per color and one edge per color pair; the
boundary-nontrivialization gadget plays the same game one dimension down,
gluing subdivided simplex boundaries along distinguished faces (each copy of
a face is subdivided onto the same anchor vertices).  In both, "undesirable"
simplices receive m-fold penalty structures that make them uneconomical
inside small solutions.
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .complexes import Chain, Complex, Simplex, build_complex
from .errors import InputError, InternalError

__all__ = [
    "ColoredGraph",
    "GadgetInstance",
    "gen_ths_gadget",
    "gen_bnt_gadget",
    "s_subdivide",
    "has_multicolored_clique",
    "ths_clique_solution",
    "bnt_clique_solution",
    "verify_gadget_answer",
]


@dataclass(frozen=True)
class ColoredGraph:
    """Properly colored graph; colors must be contiguous 1..k."""

    colors: Dict[int, int]
    edges: FrozenSet[FrozenSet[int]]

    def __post_init__(self) -> None:
        colors = set(self.colors.values())
        if len(colors) != self.k or min(colors, default=1) < 1:
            raise InputError("colors must be contiguous 1..k")
        for e in self.edges:
            u, v = min(e), max(e)
            if u == v:
                raise InputError(f"edge {u},{v} is a loop")
            if u not in self.colors or v not in self.colors:
                raise InputError(f"edge {u},{v} uses an unknown vertex")
            if self.colors[u] == self.colors[v]:
                raise InputError(f"edge {u},{v} is monochromatic")

    @property
    def k(self) -> int:
        return max(self.colors.values(), default=0)

    def color_class(self, i: int) -> List[int]:
        return sorted(v for v, c in self.colors.items() if c == i)


@dataclass
class GadgetInstance:
    complex: Complex
    input_chain: Chain
    parameter: int
    legend: Dict[str, object] = field(default_factory=dict)


def has_multicolored_clique(G: ColoredGraph) -> Optional[Tuple[int, ...]]:
    """A clique with one vertex of each color, or None (exhaustive search)."""
    classes = [G.color_class(i) for i in range(1, G.k + 1)]
    if any(not c for c in classes):
        return None
    for combo in product(*classes):
        if all(frozenset((a, b)) in G.edges for a, b in combinations(combo, 2)):
            return tuple(combo)
    return None


# ---------------------------------------------------------------- THS gadget


def gen_ths_gadget(G: ColoredGraph, m: int) -> GadgetInstance:
    """Hitting-set gadget: windowed complex, input cycle, parameter.

    The intended small solutions consist of the full vertex-set simplex,
    one alpha facet per color and one beta facet per color pair.
    """
    if m < 1:
        raise InputError("penalty multiplicity m must be >= 1")
    k = G.k
    verts = sorted(G.colors)
    r = len(verts) - 1
    vid = {v: i for i, v in enumerate(verts)}  # graph vertices -> 0..r
    cid = {i: r + 1 + (i - 1) for i in range(1, k + 1)}  # colors
    d = r + k + 1  # dummy vertex
    next_free = d + 1
    Vset = frozenset(range(r + 1))

    def simplex(s: Set[int]) -> Simplex:
        return tuple(sorted(s))

    top_up: List[Simplex] = []  # (r+1)-simplices
    legend: Dict[str, object] = {
        "V": simplex(Vset),
        "alpha": {},
        "beta": {},
        "sigma": {},
        "tau": {},
        "zeta_d": [],
        "undesirable": [],
        "penalty": {},
        "m_recommended": (r + 1) ** 3,
        "m": m,
    }
    admissible: Set[Simplex] = {simplex(Vset)}
    undesirable: Set[Simplex] = set()

    for i in range(1, k + 1):
        sigma = Vset | {cid[i]}
        top_up.append(simplex(sigma))
        legend["sigma"][i] = simplex(sigma)
        Vi = set(G.color_class(i))
        for v in verts:
            facet = simplex(sigma - {vid[v]})
            if v in Vi:
                admissible.add(facet)
                legend["alpha"][(i, v)] = facet
            else:
                undesirable.add(facet)

    for i in range(1, k + 1):
        for v in G.color_class(i):
            for j in range(1, k + 1):
                if j == i:
                    continue
                tau = (Vset - {vid[v]}) | {cid[i], cid[j]}
                top_up.append(simplex(tau))
                legend["tau"][(i, j, v)] = simplex(tau)
                for w in tau:
                    facet = simplex(tau - {w})
                    if w == cid[j]:
                        continue  # alpha_i^v, already admissible
                    if w == cid[i]:
                        undesirable.add(facet)
                    else:  # w is a graph vertex u != v
                        u = verts[w]
                        if G.colors[u] == j and frozenset((u, v)) in G.edges:
                            admissible.add(facet)
                            legend["beta"][(i, j, v, u)] = facet
                        else:
                            undesirable.add(facet)

    zeta_members: List[Simplex] = [simplex(Vset)]
    for u in verts:
        ds = simplex((Vset - {vid[u]}) | {d})
        zeta_members.append(ds)
        legend["zeta_d"].append(ds)
        undesirable.add(ds)  # only V is an admissible member of the cycle

    undesirable -= admissible
    legend["undesirable"] = sorted(undesirable)
    for omega in sorted(undesirable):
        cofacets = []
        for _ in range(m):
            cofacets.append(simplex(set(omega) | {next_free}))
            next_free += 1
        legend["penalty"][omega] = cofacets
        top_up.extend(cofacets)

    window = (max(r - 1, 0), r + 1)
    K = build_complex(top_up + zeta_members, window)
    zeta = K.chain(r, zeta_members)
    parameter = comb(k + 1, 2) + 1
    if m < parameter + 1:
        warnings.warn(f"penalty multiplicity {m} < parameter+1 = {parameter + 1}; "
                      "small solutions may dodge penalties", stacklevel=2)
    inst = GadgetInstance(K, zeta, parameter, legend)
    # closed-form size check: sigmas + taus + penalties
    expected_up = k + sum(len(G.color_class(i)) for i in range(1, k + 1)) * (k - 1) + m * len(undesirable)
    if K.n(r + 1) != expected_up:
        raise InternalError("gadget top-simplex count disagrees with closed form")
    return inst


# ------------------------------------------------------------- S-subdivision


def _s_subdivide_sets(ordered: Sequence[int], new: Sequence[int]) -> List[Simplex]:
    """Iterated stellar subdivision of the simplex on ``ordered`` vertices.

    ``ordered`` lists vertices in increasing rank, and ``new`` the 2(d+1)
    new vertices in increasing rank, each outranking everything before it;
    each step cones off the simplex on the d+1 highest ranks, so the last
    d+1 of ``new`` span the distinguished simplex.  Returns the d-simplices
    as sorted tuples, ascending.
    """
    d = len(ordered) - 1
    order = list(ordered)
    simplices: Set[FrozenSet[int]] = {frozenset(order)}
    for z in new:
        omega = frozenset(order[-(d + 1):])
        if omega not in simplices:
            raise InternalError("highest-ranked vertices do not span a simplex")
        simplices.remove(omega)
        for w in omega:
            simplices.add((omega - {w}) | {z})
        order.append(z)
    return sorted(tuple(sorted(s)) for s in simplices)


def s_subdivide(d: int, order: Optional[Sequence[int]] = None) -> Tuple[Complex, Simplex]:
    """Standalone S-subdivision of a d-simplex; returns (complex,
    distinguished d-simplex whose vertex stars avoid the original vertices)."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    ordered = list(order) if order is not None else list(range(d + 1))
    if len(set(ordered)) != d + 1:
        raise InputError("order must list d+1 distinct vertices")
    new = range(max(ordered) + 1, max(ordered) + 1 + 2 * (d + 1))
    K = build_complex(_s_subdivide_sets(ordered, new), (0, d))
    return K, tuple(new[d + 1:])


# ---------------------------------------------------------------- BNT gadget


def _penalize(omega: Simplex, m: int, next_free: int) -> Tuple[List[Simplex], int]:
    """The m(r+1) replacement r-simplices for an undesirable r-simplex:
    all facets of omega+{u_l} other than omega itself, for m fresh u_l."""
    out: List[Simplex] = []
    for _ in range(m):
        u = next_free
        next_free += 1
        for w in omega:
            out.append(tuple(sorted((set(omega) - {w}) | {u})))
    return out, next_free


def gen_bnt_gadget(G: ColoredGraph, m: int) -> GadgetInstance:
    """Boundary-nontrivialization gadget for the boundary of the full
    vertex-set simplex (which is itself absent from the complex)."""
    if m < 1:
        raise InputError("penalty multiplicity m must be >= 1")
    k = G.k
    verts = sorted(G.colors)
    r = len(verts) - 1
    if r < 2:
        raise InputError("gadget needs at least three graph vertices (r >= 2)")
    vid = {v: i for i, v in enumerate(verts)}
    cid = {i: r + 1 + (i - 1) for i in range(1, k + 1)}
    next_free = r + k + 1
    Vset = frozenset(range(r + 1))

    legend: Dict[str, object] = {
        "alpha": {},  # (i, v) -> shared distinguished simplex
        "beta": {},  # (i, j, v, u) with i < j -> shared distinguished simplex
        "sigma_chain": {},  # i -> r-simplices of the subdivided sigma boundary
        "tau_chain": {},  # (i, j, v) -> r-simplices of the tau sphere
        "undesirable": [],
        "m_recommended": (r + 1) ** 3,
        "m": m,
    }
    all_r: List[Simplex] = []
    copies = 0  # subdivisions made; each role beyond its first one shares its anchor

    def run_gadget(
        pre_adm: Dict[Tuple, List[int]],
        w_facets: List[Simplex],
        chain_slot: Tuple[str, object],
    ) -> None:
        """Subdivide each pre-admissible facet (given in rank order) onto n
        fresh inner ids and its role's anchor, n more ids that the role's
        first copy takes; record penalties for everything but the anchor."""
        nonlocal next_free, copies
        members: List[Simplex] = []
        undes: List[Simplex] = []
        for (kind, *role), facet_order in pre_adm.items():
            n = len(facet_order)
            inner = list(range(next_free, next_free + n))
            next_free += n
            anchor = legend[kind].get(tuple(role))
            if anchor is None:
                anchor = legend[kind][tuple(role)] = tuple(range(next_free, next_free + n))
                next_free += n
            copies += 1
            for t in _s_subdivide_sets(facet_order, inner + list(anchor)):
                members.append(t)
                if t != anchor:
                    undes.append(t)
        # non-pre-admissible facets stay unsubdivided and are undesirable
        members.extend(w_facets)
        undes.extend(w_facets)
        legend[chain_slot[0]][chain_slot[1]] = sorted(members)
        all_r.extend(members)
        legend["undesirable"].extend(undes)
        for omega in undes:
            pen, next_free = _penalize(omega, m, next_free)
            all_r.extend(pen)

    # type-1 gadgets: subdivided boundaries of sigma_i minus the face V
    for i in range(1, k + 1):
        sigma = sorted(Vset | {cid[i]})
        w_facets: List[Simplex] = []
        pre: Dict[Tuple, List[int]] = {}
        for v in verts:
            facet = sorted(set(sigma) - {vid[v]})
            if G.colors[v] == i:
                pre[("alpha", i, v)] = facet  # rank order = id order here
            else:
                w_facets.append(tuple(facet))
        run_gadget(pre, w_facets, ("sigma_chain", i))

    # type-2 gadgets: full simplex boundaries on fresh vertex copies
    for i in range(1, k + 1):
        for v in G.color_class(i):
            for j in range(1, k + 1):
                if j == i:
                    continue
                # fresh copies of (V \ v) then colors i, j (colors outrank)
                base = sorted(Vset - {vid[v]})
                copy = {}
                for b in base:
                    copy[b] = next_free
                    next_free += 1
                copy_color = {min(i, j): next_free, max(i, j): next_free + 1}
                next_free += 2
                order = [copy[b] for b in base] + [copy_color[min(i, j)], copy_color[max(i, j)]]
                pre: Dict[Tuple, List[int]] = {}
                w_facets = []
                drop_j = copy_color[j]
                pre[("alpha", i, v)] = [x for x in order if x != drop_j]
                b_keys = {}
                for u in G.color_class(j):
                    if frozenset((u, v)) in G.edges:
                        b_keys[copy[vid[u]]] = ("beta", i, j, v, u) if i < j else ("beta", j, i, u, v)
                for w in order:
                    facet = [x for x in order if x != w]
                    if w == drop_j:
                        continue  # the alpha facet, added above
                    if w in b_keys:
                        pre[b_keys[w]] = facet
                    else:
                        w_facets.append(tuple(sorted(facet)))
                run_gadget(pre, w_facets, ("tau_chain", (i, j, v)))

    roles = len(legend["alpha"]) + len(legend["beta"])
    if len(set(all_r)) != len(all_r) - (copies - roles):
        raise InternalError("identification merged unintended simplices")
    legend["undesirable"].sort()

    window = (max(r - 2, 0), r)
    K = build_complex(set(all_r), window)
    xi = K.chain(r - 1, [tuple(sorted(Vset - {x})) for x in Vset])
    parameter = comb(k + 1, 2)
    if m < parameter + 1:
        warnings.warn(f"penalty multiplicity {m} < parameter+1 = {parameter + 1}; "
                      "small solutions may dodge penalties", stacklevel=2)
    return GadgetInstance(K, xi, parameter, legend)


# ----------------------------------------------------------------- verifiers


def ths_clique_solution(inst: GadgetInstance, clique: Sequence[int], G: ColoredGraph) -> Chain:
    """The hitting set derived from a multicolored clique."""
    members = [inst.legend["V"]]
    for v in clique:
        members.append(inst.legend["alpha"][(G.colors[v], v)])
    for u, v in combinations(clique, 2):
        i, j = G.colors[u], G.colors[v]
        key = (i, j, u, v) if (i, j, u, v) in inst.legend["beta"] else (j, i, v, u)
        members.append(inst.legend["beta"][key])
    r = inst.input_chain.dimension
    return inst.complex.chain(r, members)


def bnt_clique_solution(inst: GadgetInstance, clique: Sequence[int], G: ColoredGraph) -> Chain:
    """The boundary cut derived from a multicolored clique."""
    members = []
    for v in clique:
        members.append(inst.legend["alpha"][(G.colors[v], v)])
    for u, v in combinations(clique, 2):
        i, j = G.colors[u], G.colors[v]
        key = (i, j, u, v) if i < j else (j, i, v, u)
        members.append(inst.legend["beta"][key])
    r = inst.input_chain.dimension + 1
    return inst.complex.chain(r, members)


def verify_gadget_answer(G: ColoredGraph, solver_result: Optional[Chain]) -> bool:
    """True iff the solver's small-solution verdict matches the exhaustive
    clique decision (the gadget mimics the graph)."""
    has = has_multicolored_clique(G) is not None
    found = solver_result is not None
    return has == found
