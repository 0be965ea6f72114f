"""Canonical test complexes, each with a distinguished chain where natural.

All generators are deterministic.  The genus-g surface is an iterated
connected sum of seven-vertex tori: one triangle is removed from each
summand and the boundary vertex triples are identified.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Tuple

from .complexes import Chain, Complex, build_complex
from .errors import InputError

__all__ = ["gen_canonical", "CANONICAL_NAMES"]

CANONICAL_NAMES = (
    "tetra-sphere",
    "octa-sphere",
    "csaszar-torus",
    "genus-g",
    "annulus",
    "component-graph",
    "planar-holes",
)


def _tetra() -> Tuple[Complex, Chain]:
    K = build_complex(list(combinations(range(4), 3)), (0, 2))
    return K, K.chain(1, [(0, 1), (0, 2), (1, 2)])


def _octa() -> Tuple[Complex, Chain]:
    tris = []
    for pole in (4, 5):
        for i in range(4):
            tris.append(tuple(sorted((i, (i + 1) % 4, pole))))
    K = build_complex(tris, (0, 2))
    return K, K.chain(1, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _csaszar_faces():
    faces = set()
    for i in range(7):
        faces.add(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
        faces.add(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
    return sorted(faces)


def _csaszar() -> Tuple[Complex, Chain]:
    K = build_complex(_csaszar_faces(), (0, 2))
    return K, K.chain(1, [(0, 1), (0, 2), (1, 2)])


# Each torus copy attaches to the previous one along the removed triangle
# (0,1,3) (local ids), gluing onto the previous copy's removed (2,4,5).
_IN_TRI = (0, 1, 3)
_OUT_TRI = (2, 4, 5)


def _genus(g: int) -> Tuple[Complex, Chain]:
    if g < 1:
        raise InputError("genus must be >= 1")
    base = _csaszar_faces()
    tris = []
    prev_out: Dict[int, int] = {}
    for j in range(g):
        offset = 7 * j
        drop = set()
        if j > 0:
            drop.add(_IN_TRI)
        if j < g - 1:
            drop.add(_OUT_TRI)
        ident = {v: prev_out[w] for v, w in zip(_IN_TRI, _OUT_TRI)} if j > 0 else {}
        relabel = {v: ident.get(v, v + offset) for v in range(7)}
        for t in base:
            if t in drop:
                continue
            tris.append(tuple(sorted(relabel[v] for v in t)))
        prev_out = relabel
    K = build_complex(tris, (0, 2))
    return K, K.chain(1, [(0, 1), (0, 2), (1, 2)])


def _annulus() -> Tuple[Complex, Chain]:
    tris = []
    for i in range(3):
        a, b = i, (i + 1) % 3
        tris.append(tuple(sorted((a, b, b + 3))))
        tris.append(tuple(sorted((a, a + 3, b + 3))))
    K = build_complex(tris, (0, 2))
    return K, K.chain(1, [(0, 1), (0, 2), (1, 2)])


def _component_graph() -> Tuple[Complex, Chain]:
    edges = [(0, 1), (0, 2), (1, 2)]  # C_1, three vertices
    edges += [(3, 4), (4, 5), (5, 6), (3, 6)]  # C_2, four vertices
    edges += [(7, 8), (8, 9), (9, 10), (10, 11), (7, 11)]  # C_3, five
    K = build_complex(edges, (0, 1))
    return K, K.chain(0, [(3,)])


def _planar_holes() -> Tuple[Complex, Chain]:
    # Triangulated ring: inner triangular hole (0,1,2), outer hexagon 3..8.
    tris = [
        (0, 3, 4),
        (0, 4, 5),
        (0, 1, 5),
        (1, 5, 6),
        (1, 6, 7),
        (1, 2, 7),
        (2, 7, 8),
        (2, 3, 8),
        (0, 2, 3),
    ]
    K = build_complex(tris, (0, 2))
    return K, K.chain(1, [(0, 1), (0, 2), (1, 2)])


def gen_canonical(name: str, params: Optional[dict] = None) -> Tuple[Complex, Optional[Chain]]:
    """Build a named canonical complex; returns (complex, distinguished chain)."""
    params = params or {}
    if name == "tetra-sphere":
        return _tetra()
    if name == "octa-sphere":
        return _octa()
    if name == "csaszar-torus":
        return _csaszar()
    if name == "genus-g":
        return _genus(int(params.get("g", 2)))
    if name == "annulus":
        return _annulus()
    if name == "component-graph":
        return _component_graph()
    if name == "planar-holes":
        return _planar_holes()
    raise InputError(f"unknown canonical complex {name!r}")
