"""Fixed-parameter topological hitting set (parameter: size bound + degree).

Minimal solutions induce connected subgraphs of the share-a-cofacet
adjacency, so the search enumerates every connected set of at most k
r-simplices once, from its least member: from a center tau it extends
only by neighbours u > tau (the ESU rule; Wernicke, "Efficient detection
of network motifs", 2006).  Every candidate is tested against one
``CutInstance`` built per solve, a rank test on at most k rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set, Tuple

from .complexes import Chain, Complex, r_adjacency
from .errors import InputError, InternalError
from .feasibility import CutInstance, is_ths_feasible

__all__ = ["FPTConfig", "enumerate_connected_sets", "solve_ths_fpt"]


@dataclass
class FPTConfig:
    k: int = 1
    stats: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("size budget k must be >= 1")


def enumerate_connected_sets(G: Dict[int, Set[int]], v: int, k: int) -> Iterator[frozenset]:
    """Every connected node set of size <= k whose least member is v, exactly once.

    A set grows only by neighbours above v.  Extension candidates are
    scanned lowest-index first; a candidate skipped at one branch is
    banned below it, so no set is reached along two branches.
    """
    if k < 1:
        raise InputError("size budget k must be >= 1")

    def rec(cur: frozenset, banned: frozenset) -> Iterator[frozenset]:
        yield cur
        if len(cur) == k:
            return
        ext = sorted({u for c in cur for u in G[c] if u > v} - cur - banned)
        for i, u in enumerate(ext):
            yield from rec(cur | {u}, banned | frozenset(ext[:i]))

    yield from rec(frozenset([v]), frozenset())


def solve_ths_fpt(K: Complex, zeta: Chain, config: FPTConfig) -> Optional[Chain]:
    """Minimum hitting set of size <= k, or None.

    Ties break by lexicographic sorted-index order.  ``config.stats``
    records the distinct connected sets enumerated (``candidates``), the
    most whose least member is one simplex (``max_per_center``) and the
    improving feasible ones (``feasible``).
    """
    r = zeta.dimension
    k = config.k
    inst = CutInstance.for_ths(K, zeta)
    adj = r_adjacency(K, r)
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    config.stats = {"candidates": 0, "max_per_center": 0, "feasible": 0}
    for tau in range(K.n(r)):
        per_center = 0
        for cand in enumerate_connected_sets(adj, tau, k):
            per_center += 1
            key = (len(cand), tuple(sorted(cand)))
            if best is not None and key >= best:
                continue
            if inst.cut(cand)[0]:
                config.stats["feasible"] += 1
                best = key
        config.stats["candidates"] += per_center
        config.stats["max_per_center"] = max(config.stats["max_per_center"], per_center)
    if best is None:
        return None
    bits = 0
    for i in best[1]:
        bits |= 1 << i
    S = K.chain_from_bits(r, bits)
    if not is_ths_feasible(K, zeta, S).verdict:
        raise InternalError("best candidate failed the feasibility check")
    return S
