"""Fixed-parameter topological hitting set (parameter: size bound + degree).

Minimal solutions induce connected subgraphs of the share-a-cofacet
adjacency, so the search walks the connected sets of at most k
r-simplices depth first, each once, from its least member: from a center
tau it extends only by neighbours u > tau (the ESU rule; Wernicke,
"Efficient detection of network motifs", 2006).  Each search node holds
the pivot dict of its set's rows in one ``CutInstance`` built per solve
(the only cut test laid out by row), made from its parent's by one
insertion, so the cut test of a node is one row reduction.  A cut is not
extended, and no set is grown past the size of the best cut found so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .complexes import Chain, Complex, r_adjacency
from .errors import InputError, InternalError
from .feasibility import CutInstance
# unused here; perfbench/test_perfbench.py checks that the tracer wraps this binding
from .feasibility import is_ths_feasible  # noqa: F401

__all__ = ["FPTConfig", "enumerate_connected_sets", "solve_ths_fpt"]


@dataclass
class FPTConfig:
    k: int = 1
    stats: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("size budget k must be >= 1")


def _walk(
    G: Dict[int, Set[int]],
    v: int,
    inst: Optional[CutInstance],
    visit: Callable[[List[int], bool], int],
) -> None:
    """Visit every connected node set whose least member is v, once, depth first.

    A node is its members, its sorted extension list, and the exclusion
    set shared along the path: the members plus every neighbour above v
    already put in an extension list.  The children add the extension
    candidates in ascending order, each one banning those before it: a
    child's extension list is the candidates after its new member plus
    that member's neighbours outside the exclusion set, so no set is
    reached along two branches.  With an instance each node also
    holds its pivot dict (``CutInstance.grow``) and a cut is not extended.
    ``visit(members, is_cut)`` sees each set in that order, members in
    insertion order and the list reused, and returns the size cap: a set
    smaller than the cap is extended.
    """
    members = [v]
    excluded = {v}

    def node(u: int, pivots, ext: List[int]) -> None:
        cut = False
        if inst is not None:
            pivots, cut = inst.grow(pivots, u)
        if len(members) >= visit(members, cut) or cut:
            return
        new = [w for w in G[u] if w > v and w not in excluded]
        if new:
            excluded.update(new)
            ext = sorted(ext + new)
        for i, w in enumerate(ext):
            members.append(w)
            node(w, pivots, ext[i + 1:])
            members.pop()
        excluded.difference_update(new)

    node(v, {}, [])


def enumerate_connected_sets(G: Dict[int, Set[int]], v: int, k: int) -> List[frozenset]:
    """Every connected node set of size <= k whose least member is v, once,
    in the search order of :func:`solve_ths_fpt`."""
    if k < 1:
        raise InputError("size budget k must be >= 1")
    out: List[frozenset] = []

    def visit(members: List[int], cut: bool) -> int:
        out.append(frozenset(members))
        return k

    _walk(G, v, None, visit)
    return out


def solve_ths_fpt(K: Complex, zeta: Chain, config: FPTConfig) -> Optional[Chain]:
    """Minimum hitting set of size <= k, or None.

    Ties break by lexicographic sorted-index order.  Once a best cut (s, t)
    is known, the rest of the search from t's least member stops at size s,
    and every later center at size s - 1: its sets are lexicographically
    larger.  ``config.stats`` records the connected sets visited
    (``candidates``), the most visited from one center (``max_per_center``)
    and the improving cuts (``feasible``).
    """
    r = zeta.dimension
    inst = CutInstance.for_ths(K, zeta)
    adj = r_adjacency(K, r)
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    cap = config.k
    stats = config.stats = {"candidates": 0, "max_per_center": 0, "feasible": 0}
    visited = 0

    def visit(members: List[int], cut: bool) -> int:
        nonlocal best, cap, visited
        visited += 1
        if cut:
            key = (len(members), tuple(sorted(members)))
            if best is None or key < best:
                best, cap = key, key[0]
                stats["feasible"] += 1
        return cap

    for tau in range(K.n(r)):
        if cap == 0:
            break
        visited = 0
        _walk(adj, tau, inst, visit)
        stats["candidates"] += visited
        stats["max_per_center"] = max(stats["max_per_center"], visited)
        if best is not None:
            cap = best[0] - 1
    if best is None:
        return None
    bits = 0
    for i in best[1]:
        bits |= 1 << i
    if not inst.cut(bits)[0]:
        raise InternalError("best candidate failed the feasibility check")
    return K.chain_from_bits(r, bits)
