"""Fixed-parameter topological hitting set (parameter: size bound + degree).

Minimal solutions induce connected subgraphs of the share-a-cofacet
adjacency, so the search walks the connected sets of at most k
r-simplices depth first, each once, from its least member: from a center
tau it extends only by neighbours u > tau (the ESU rule; Wernicke,
"Efficient detection of network motifs", 2006).  The walk keeps its sets
as bitsets over simplex indices, with each simplex's neighbours as one
int built once per solve.  One pivot dict of rows serves a whole center
and is changed in place: a node inserts its new member's row
(``CutInstance.grow``), so its cut test is one row reduction, and deletes
the key that insertion stored when it returns.  A cut is not extended,
and no set is grown past the size of the best cut found so far.

Every cut meets supp zeta, since zeta is one of the cycles homologous to
zeta.  A connected set grows along paths inside itself, so a set needs at
least min over its members u of dist(u, supp zeta) more members before it
can be a cut.  The distances come from one breadth-first search per solve
over the whole adjacency; a path inside the indices the walk may still
add is no shorter.  A child whose set cannot reach a cut within the size
cap is not entered, and no center above the last member of supp zeta is
started, since its sets hold no member of supp zeta.  A skipped subtree
holds no cut, so the answer and the improving cuts are those of the full
walk; only the count of visited sets falls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .complexes import Chain, Complex, r_adjacency
from .errors import InputError, InternalError
from .feasibility import CutInstance
# unused here; perfbench/test_perfbench.py checks that the tracer wraps this binding
from .feasibility import is_ths_feasible  # noqa: F401
from .gf2 import Pivots, _bit_indices

__all__ = ["FPTConfig", "enumerate_connected_sets", "solve_ths_fpt"]


@dataclass
class FPTConfig:
    k: int = 1
    stats: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("size budget k must be >= 1")


def _neighbour_bits(G: Dict[int, Set[int]]) -> Dict[int, int]:
    """Each node's neighbours as one bitset over node ids."""
    return {u: sum(1 << w for w in ws) for u, ws in G.items()}


def _distances(nbrs: Dict[int, int], source: int, n: int) -> List[int]:
    """Hops from each of the nodes 0..n-1 to the node set ``source`` (a
    bitset), by one breadth-first search; n where no path leads there,
    more than any set of these nodes can add."""
    dist = [n] * n
    seen = frontier = source
    d = 0
    while frontier:
        reach = 0
        for u in _bit_indices(frontier):
            dist[u] = d
            reach |= nbrs[u]
        frontier = reach & ~seen
        seen |= frontier
        d += 1
    return dist


def _no_test(pivots: Pivots, u: int) -> int:
    """The cut test of a bare enumeration: it stores no row."""
    return -1


def _walk(
    nbrs: Dict[int, int],
    v: int,
    dist: Sequence[int],
    grow: Callable[[Pivots, int], int],
    visit: Callable[[List[int], bool], int],
) -> int:
    """Visit every connected node set whose least member is v, once, depth
    first, except the subtrees the distance bound skips; return how many
    children it skipped.

    A node is its members, its extension set and the nodes it may still
    add: those above v outside the members and outside every extension set
    on its path.  The children take the extension bits lowest first, each
    one banning those before it: a child's extension set is the bits above
    its new member plus that member's neighbours it may still add, so no
    set is reached along two branches.  One pivot dict holds the current
    set's rows: ``grow(pivots, u)`` inserts u's row and returns the key it
    stored, or -1, and the node deletes that key when it returns.  Key 0
    means the set is a cut (its parent was not, or it would not have been
    extended), and a cut is not extended.  ``visit(members, is_cut)`` sees
    each set in that order, members in insertion order and the list
    reused, and returns the size cap: a set smaller than the cap is
    extended.  A set needs at least ``need``, the least ``dist`` of its
    members, more members to be a cut, so a child is skipped when its size
    plus its need exceeds the cap, which is re-read after each child.
    """
    members = [v]
    pivots: Pivots = {}
    skipped = 0

    def node(u: int, size: int, ext: int, allowed: int, need: int) -> int:
        nonlocal skipped
        key = grow(pivots, u)
        cap = visit(members, key == 0)
        size += 1  # of each child
        if key != 0 and size <= cap:
            new = nbrs[u] & allowed
            allowed ^= new
            ext |= new
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                child_need = dist[w]
                if child_need > need:
                    child_need = need
                if size + child_need > cap:
                    skipped += 1
                    continue
                members.append(w)
                cap = node(w, size, ext, allowed, child_need)
                members.pop()
        if key >= 0:
            del pivots[key]
        return cap

    node(v, 1, 0, -2 << v, dist[v])
    return skipped


def enumerate_connected_sets(G: Dict[int, Set[int]], v: int, k: int) -> List[frozenset]:
    """Every connected node set of size <= k whose least member is v, once,
    in the search order of :func:`solve_ths_fpt` without its bound."""
    if k < 1:
        raise InputError("size budget k must be >= 1")
    out: List[frozenset] = []

    def visit(members: List[int], cut: bool) -> int:
        out.append(frozenset(members))
        return k

    _walk(_neighbour_bits(G), v, dict.fromkeys(G, 0), _no_test, visit)
    return out


def solve_ths_fpt(K: Complex, zeta: Chain, config: FPTConfig) -> Optional[Chain]:
    """Minimum hitting set of size <= k, or None.

    Ties break by lexicographic sorted-index order.  Once a best cut (s, t)
    is known, the rest of the search from t's least member stops at size s,
    and every later center at size s - 1: its sets are lexicographically
    larger.  Within that cap, the distance-to-supp-zeta bound of the module
    docstring skips the subtrees that hold no cut.  ``config.stats``
    records the connected sets visited (``candidates``), the most visited
    from one center (``max_per_center``), the improving cuts
    (``feasible``), and the children the bound skipped plus the centers
    above the last member of supp zeta (``pruned``).
    """
    return _search(CutInstance.for_ths(K, zeta), zeta, config)


def _search(inst: CutInstance, zeta: Chain, config: FPTConfig) -> Optional[Chain]:
    """The search of :func:`solve_ths_fpt`, from zeta's ``for_ths`` instance."""
    K, r = inst.K, inst.r
    n = K.n(r)
    nbrs = _neighbour_bits(r_adjacency(K, r))
    dist = _distances(nbrs, zeta.support.bits, n)
    last = zeta.support.bits.bit_length() - 1
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    cap = config.k
    stats = config.stats = {"candidates": 0, "max_per_center": 0, "feasible": 0, "pruned": 0}
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

    for tau in range(n):
        if cap == 0:
            break
        if tau > last:
            stats["pruned"] += n - tau
            break
        visited = 0
        stats["pruned"] += _walk(nbrs, tau, dist, inst.grow, visit)
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
