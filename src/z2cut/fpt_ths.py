"""Fixed-parameter topological hitting set (parameter: size bound + degree).

Minimal solutions induce connected subgraphs of the share-a-cofacet
adjacency, and lie within adjacency-distance k of each of their members;
so for every r-simplex we enumerate the connected supersets of size at
most k inside its radius-k ball and keep the best feasible one.  Every
candidate is tested against one ``CutInstance`` built per solve, a rank
test on at most k rows.
"""

from __future__ import annotations

from collections import deque
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
    """Every connected node set of size <= k containing v, exactly once.

    Extension candidates are scanned lowest-index first; a candidate
    skipped at one branch is banned below it, which is what makes each
    set appear once.
    """
    if k < 1:
        raise InputError("size budget k must be >= 1")

    def rec(cur: frozenset, banned: frozenset) -> Iterator[frozenset]:
        yield cur
        if len(cur) == k:
            return
        ext = sorted(u for c in cur for u in G[c] if u not in cur and u not in banned)
        seen_here: list = []
        for u in ext:
            if u in seen_here:
                continue
            seen_here.append(u)
            yield from rec(cur | {u}, banned | frozenset(seen_here[:-1]))

    yield from rec(frozenset([v]), frozenset())


def _ball(G: Dict[int, Set[int]], v: int, radius: int) -> Set[int]:
    seen = {v}
    frontier = deque([(v, 0)])
    while frontier:
        u, d = frontier.popleft()
        if d == radius:
            continue
        for w in G[u]:
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return seen


def solve_ths_fpt(K: Complex, zeta: Chain, config: FPTConfig) -> Optional[Chain]:
    """Minimum hitting set of size <= k, or None.

    Ties break by lexicographic sorted-index order.  Candidate counts per
    ball center are recorded in ``config.stats``.
    """
    r = zeta.dimension
    k = config.k
    inst = CutInstance.for_ths(K, zeta)
    adj = r_adjacency(K, r)
    seen: Set[frozenset] = set()
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    config.stats = {"candidates": 0, "max_per_center": 0, "feasible": 0}
    for tau in range(K.n(r)):
        ball = _ball(adj, tau, k)
        sub = {u: adj[u] & ball for u in ball}
        per_center = 0
        for cand in enumerate_connected_sets(sub, tau, k):
            per_center += 1
            if cand in seen:
                continue
            seen.add(cand)
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
