"""The benchmark's workloads: seeded inputs, op lists and their checks.

Each workload has a ``setup(seed)`` that does the library work needed
before the first op (timed as ``setup_s``) and a ``plan(inputs)`` that
computes the references and returns the op list (untimed, untraced).
Library functions are always looked up through their module at call
time, so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import z2cut.canonical as canonical
import z2cut.complexes as complexes
import z2cut.errors as errors
import z2cut.fpt_ths as fpt_ths
import z2cut.gadgets as gadgets
import z2cut.gf2 as gf2
import z2cut.homology as homology
import z2cut.global_rand as global_rand
import z2cut.io_cli as io_cli
import z2cut.oracle as oracle
import z2cut.bnt_greedy as bnt_greedy
import z2cut.feasibility as feasibility
import z2cut.surface_ths as surface_ths

import reference as ref
from reference import EXPECTED, require


@dataclass
class Op:
    """One user-level call; ``check`` raises CheckFailed on a wrong output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def digest(obj):
    """Comparable form of an op output, for bit-identity between runs."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(digest(o) for o in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, digest(v)) for k, v in obj.items()))
    if isinstance(obj, complexes.Chain):
        return ("chain", obj.dimension, obj.support.length, obj.support.bits)
    if isinstance(obj, feasibility.FeasibilityReport):  # elapsed is a time
        return ("report", obj.verdict, obj.method, digest(obj.ranks))
    if isinstance(obj, surface_ths.SurfaceTHSResult):
        return ("surface", digest(obj.solution), obj.weight, obj.basis_index, digest(obj.certificate))
    raise TypeError(f"no digest for {type(obj).__name__}")


def _seeds(rng: random.Random):
    while True:
        yield rng.getrandbits(63)


def grid_torus(n: int, rng: Optional[random.Random] = None):
    """n x n grid torus, each square cut by its diagonal; integer edge
    weights 1..9 drawn from rng, or unit weights."""
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * n + j, ((i + 1) % n) * n + j
            c, d = i * n + (j + 1) % n, ((i + 1) % n) * n + (j + 1) % n
            tris.append(tuple(sorted((a, b, d))))
            tris.append(tuple(sorted((a, c, d))))
    weights = None
    if rng is not None:
        edges = sorted({e for t in tris for e in combinations(t, 2)})
        weights = {e: rng.randint(1, 9) for e in edges}
    return complexes.build_complex(sorted(tris), (0, 2), weights)


def roundtrip(K, chains: Sequence):
    """Emit and re-parse a complex and chains on it through .scx/.chn."""
    K2 = io_cli.parse_complex(io_cli.emit_complex(K))
    return K2, [io_cli.parse_chain(io_cli.emit_chain(K, c), K2) for c in chains]


def ths_gadget_m(G) -> int:
    """Penalty multiplicity: THS gadget parameter C(k+1, 2) + 1, plus 2,
    as in the acceptance tests."""
    return comb(G.k + 1, 2) + 3


# ------------------------------------------------------------------ surface
#
# Solve time is almost all in homology.min_cohomology_basis and grows
# steeply with the surface, so the list spans genus 1..4 and tori 3x3..8x8.
# Small surfaces get many classes and large ones a single class, so a
# per-complex basis cache would show on the former only.  Solve time
# depends on the surface, hardly on the class, so the op counts put the
# median rank in the middle of the genus-2 ops and the tail rank in the
# middle of the genus-4 ops: both statistics then rank ops on a fixed
# surface, whatever classes and weights the seed draws.

SURFACE_GENERA = {1: 6, 2: 6, 3: 3, 4: 9}  # genus -> classes drawn
SURFACE_TORI = {3: 9, 4: 3, 6: 1, 7: 1, 8: 1}  # side -> classes, unit and weighted


def surface_setup(seed: int):
    rng = random.Random(seed)
    seeds = _seeds(rng)
    surfaces = []
    for g, ncls in SURFACE_GENERA.items():
        K, _ = canonical.gen_canonical("genus-g", {"g": g})
        surfaces.append((f"genus{g}", K, ncls))
    for n, ncls in SURFACE_TORI.items():
        surfaces.append((f"torus{n}", grid_torus(n), ncls))
        surfaces.append((f"torus{n}w", grid_torus(n, rng), ncls))
    cases = []
    for name, K, ncls in surfaces:
        for c in range(ncls):
            cases.append((f"{name}.class{c}", K, global_rand.random_nontrivial_cycle(K, 1, next(seeds))))
    return cases


def surface_plan(cases) -> List[Op]:
    ops = []
    for name, K, zeta in cases:
        def check(res, K=K, zeta=zeta):
            ref.check_surface_result(K, zeta, res, ref.surface_ths_optimum(K, zeta.support.bits))

        ops.append(Op(f"ths-surface {name}", lambda K=K, zeta=zeta: surface_ths.solve_ths_surface(K, zeta), check))
    return ops


# ---------------------------------------------------------------------- fpt
#
# Almost all of an op is in feasibility.is_ths_feasible, called once per
# enumerated candidate on a complex of a few dozen simplices: per-call
# overhead dominates.  Every instance runs at k = optimum (pruning after
# the first hit) and at k = optimum - 1 (exhausted search, returns None).
# The heavy instances are fixed (every class of the Csaszar torus, the
# canonical genus-2 cycle, the two smallest THS gadgets, one seeded global
# run), and so is the planar-holes cycle; the seed draws the small random
# complexes.  Every edge of one lies on a triangle, so a class has no
# one-edge hitting set: the optimum is at least 2 (2 or 3 in practice) and
# each complex gives two ops, cheaper than the planar-holes ones.  So the
# median falls on the two planar-holes ops and the tail rank on the
# cheapest Csaszar-torus ops, never on a seeded op.

K2_EDGE = gadgets.ColoredGraph({1: 1, 2: 2}, frozenset({frozenset((1, 2))}))
K2_NOEDGE = gadgets.ColoredGraph({1: 1, 2: 2}, frozenset())
RANDOM_COMPLEXES = 6
SMALL_CANONICAL = ("planar-holes",)
GLOBAL_THS_SEED = 7
GLOBAL_TRIALS = 2


def _random_2complex(rng: random.Random, nv: int = 7, ntri: int = 7):
    tris = set()
    while len(tris) < ntri:
        tris.add(tuple(sorted(rng.sample(range(nv), 3))))
    return complexes.build_complex(sorted(tris) + [(v,) for v in range(nv)], (0, 2))


def fpt_setup(seed: int):
    rng = random.Random(seed)
    seeds = _seeds(rng)
    torus, _ = canonical.gen_canonical("csaszar-torus")
    hb = homology.homology_basis(torus, 1)
    classes = [hb.combine(gf2.GF2Vector(len(hb), bits)) for bits in range(1, 1 << len(hb))]
    genus2, zeta2 = canonical.gen_canonical("genus-g", {"g": 2})
    inputs = {"torus": (torus, classes), "genus2": (genus2, zeta2)}
    inputs["small"] = [(name,) + canonical.gen_canonical(name) for name in SMALL_CANONICAL]
    for name, G in (("k2-edge", K2_EDGE), ("k2-noedge", K2_NOEDGE)):
        inst = gadgets.gen_ths_gadget(G, ths_gadget_m(G))
        K, (zeta,) = roundtrip(inst.complex, [inst.input_chain])
        inputs[name] = (K, zeta, inst.parameter)
    randoms = []
    while len(randoms) < RANDOM_COMPLEXES:
        K = _random_2complex(rng)
        try:
            zeta = global_rand.random_nontrivial_cycle(K, 1, next(seeds))
        except errors.InputError:  # beta_1 = 0: draw another complex
            continue
        randoms.append((K, zeta))
    inputs["random"] = randoms
    return inputs


def _fpt_op(name: str, K, zeta, k: int, opt: Optional[int]) -> Op:
    """solve_ths_fpt at budget k; opt is the reference optimum (None: > k)."""

    def check(sol):
        if opt is None or k < opt:
            require(sol is None, f"found a solution below the optimum ({name}, k={k})")
            return
        require(sol is not None, f"no solution at k = optimum ({name})")
        require(len(sol) == opt, f"size {len(sol)} != optimum {opt} ({name})")
        require(ref.ths_feasible(K, zeta.support.bits, zeta.dimension, sol.support.bits),
                f"solution does not hit every homologous cycle ({name})")

    return Op(f"ths-fpt {name} k={k}", lambda: fpt_ths.solve_ths_fpt(K, zeta, fpt_ths.FPTConfig(k=k)), check)


def _both_budgets(name: str, K, zeta, opt: int) -> List[Op]:
    ops = [_fpt_op(name, K, zeta, opt, opt)]
    if opt > 1:
        ops.append(_fpt_op(name, K, zeta, opt - 1, opt))
    return ops


def fpt_plan(inputs) -> List[Op]:
    ops = []
    torus, classes = inputs["torus"]
    genus2, zeta2 = inputs["genus2"]
    surface_cases = [(f"csaszar-torus.class{c + 1}", torus, z, "csaszar-torus.ths_opt") for c, z in enumerate(classes)]
    surface_cases.append(("genus-2", genus2, zeta2, "genus-2.ths_opt"))
    for name, K, zeta, key in surface_cases:
        opt = EXPECTED[key]
        require(ref.surface_ths_optimum(K, zeta.support.bits) == opt, f"committed optimum of {name} is stale")
        ops += _both_budgets(name, K, zeta, opt)
    for name, K, zeta in inputs["small"]:
        ops += _both_budgets(name, K, zeta, EXPECTED[f"{name}.ths_opt"])
    K, zeta, _ = inputs["k2-edge"]
    ops += _both_budgets("gadget-k2-edge", K, zeta, EXPECTED["ths-gadget.k2-edge.opt"])
    # no multicolored clique: no hitting set within the gadget parameter
    K, zeta, parameter = inputs["k2-noedge"]
    require(gadgets.has_multicolored_clique(K2_NOEDGE) is None, "k2-noedge has a clique")
    ops.append(_fpt_op("gadget-k2-noedge", K, zeta, parameter - 1, None))
    for i, (K, zeta) in enumerate(inputs["random"]):
        ops += _both_budgets(f"random{i}", K, zeta, len(oracle.brute_ths(K, zeta, kmax=min(K.n(1), 16))))

    k = EXPECTED["csaszar-torus.global_ths_opt"]

    def global_ths():
        run = global_rand.RandomizedRun(GLOBAL_THS_SEED, GLOBAL_TRIALS)
        sol = global_rand.solve_global_ths(torus, 1, fpt_ths.FPTConfig(k=k), GLOBAL_THS_SEED, trials=GLOBAL_TRIALS, run=run)
        return sol, run.records

    def check_global(out):
        sol, records = out
        require(len(records) == GLOBAL_TRIALS, "wrong trial count")
        require(sol is not None and len(sol) == k, "global THS size differs from the optimum")
        require(ref.check_global_ths_on_surface(torus, sol.support.bits), "not a global hitting set")

    ops.append(Op("global-ths csaszar-torus", global_ths, check_global))
    return ops


# ------------------------------------------------------------------ bigrank
#
# Few calls, each eliminating a matrix with up to thousands of columns:
# the verifiers on hardness gadgets built from seeded colored graphs
# (k <= 3, at most 6 vertices), plus greedy BNT, which re-solves a
# shrinking boundary matrix, on grid tori of growing size.  Every graph
# slot has a fixed vertex coloring and edge count, so gadget sizes do not
# depend on the seed; the seed picks the edges and the bounding cycles.
# The BNT gadget stops at three vertices: is_bnt_feasible takes seconds on
# k3-V3 and over ten minutes on k3-V5 at this commit.  With 33 ops the
# median rank falls in the middle of the three k3-V4 THS verifier ops and
# the tail rank among the five ops of 0.3 to 0.4 s (BNT gadget verifiers,
# greedy BNT on 20x20, global BNT on 15x15); the 17x17 global BNT op sits
# above them.

# name -> (vertex colors, edges beyond a planted multicolored clique)
THS_CLIQUE_SLOTS = {
    "ths-k2-v3": ((1, 1, 2), 0),
    "ths-k2-v4": ((1, 1, 2, 2), 1),
    "ths-k3-v3": ((1, 2, 3), 0),
    "ths-k3-v4": ((1, 2, 3, 1), 1),
    "ths-k3-v5": ((1, 2, 3, 1, 2), 2),
}
THS_BIG_SLOT = ("ths-k3-v6", (1, 1, 2, 2, 3, 3), 2)  # clique-set verdict only
# name -> (vertex colors, edges); every color pair joined, no multicolored clique
THS_NOCLIQUE_SLOTS = {
    "ths-k3-v4-noclique": ((1, 2, 3, 1), 3),
    "ths-k3-v5-noclique": ((1, 2, 3, 1, 2), 4),
}
BNT_SLOT = ("bnt-k2-v3", (1, 1, 2), 0)
GREEDY_TORI = (8, 11, 14, 17, 20)
GREEDY_CYCLES = 2  # bounding cycles per torus
GLOBAL_BNT_TORI = (15, 17)


def _graph(colors: Sequence[int], edges) -> "gadgets.ColoredGraph":
    return gadgets.ColoredGraph(
        {v: c for v, c in enumerate(colors, start=1)}, frozenset(frozenset(e) for e in edges)
    )


def _bichromatic_pairs(colors: Sequence[int]) -> List[Tuple[int, int]]:
    return [(u, v) for u, v in combinations(range(1, len(colors) + 1), 2) if colors[u - 1] != colors[v - 1]]


def planted_clique_graph(rng: random.Random, colors: Sequence[int], extra: int):
    k = max(colors)
    clique = [rng.choice([v for v, c in enumerate(colors, start=1) if c == i]) for i in range(1, k + 1)]
    edges = set(combinations(clique, 2))
    rest = [e for e in _bichromatic_pairs(colors) if e not in edges]
    edges.update(rng.sample(rest, extra))
    return _graph(colors, sorted(edges)), tuple(clique)


def _has_clique(colors: Sequence[int], edges) -> bool:
    classes = [[v for v, c in enumerate(colors, start=1) if c == i] for i in range(1, max(colors) + 1)]
    return any(all(tuple(sorted(p)) in edges for p in combinations(combo, 2)) for combo in product(*classes))


def noclique_graph(rng: random.Random, colors: Sequence[int], nedges: int):
    """Every color pair joined by some edge, but no multicolored clique."""
    pairs = _bichromatic_pairs(colors)
    color_pairs = {frozenset((a, b)) for a, b in combinations(range(1, max(colors) + 1), 2)}
    while True:
        edges = set(rng.sample(pairs, nedges))
        covered = {frozenset((colors[u - 1], colors[v - 1])) for u, v in edges}
        if covered == color_pairs and not _has_clique(colors, edges):
            return _graph(colors, sorted(edges))


def _structured_candidate(inst, G, rng: random.Random):
    """V plus one alpha per color plus one beta per color pair."""
    members = {inst.legend["V"]}
    for i in range(1, G.k + 1):
        members.add(inst.legend["alpha"][(i, rng.choice(G.color_class(i)))])
    for i, j in combinations(range(1, G.k + 1), 2):
        options = sorted(s for (a, b, _, _), s in inst.legend["beta"].items() if {a, b} == {i, j})
        members.add(rng.choice(options))
    return inst.complex.chain(inst.input_chain.dimension, sorted(members))


def bigrank_setup(seed: int):
    rng = random.Random(seed)
    seeds = _seeds(rng)
    out: Dict[str, object] = {}
    for name, (colors, extra) in list(THS_CLIQUE_SLOTS.items()) + [(THS_BIG_SLOT[0], THS_BIG_SLOT[1:])]:
        G, clique = planted_clique_graph(rng, colors, extra)
        inst = gadgets.gen_ths_gadget(G, ths_gadget_m(G))
        S = gadgets.ths_clique_solution(inst, clique, G)
        K, (zeta, S) = roundtrip(inst.complex, [inst.input_chain, S])
        out[name] = (G, K, zeta, S)
    for name, (colors, nedges) in THS_NOCLIQUE_SLOTS.items():
        G = noclique_graph(rng, colors, nedges)
        inst = gadgets.gen_ths_gadget(G, ths_gadget_m(G))
        S = _structured_candidate(inst, G, rng)
        K, (zeta, S) = roundtrip(inst.complex, [inst.input_chain, S])
        out[name] = (G, K, zeta, S)

    name, colors, extra = BNT_SLOT
    G, clique = planted_clique_graph(rng, colors, extra)
    inst = gadgets.gen_bnt_gadget(G, comb(G.k + 1, 2) + 2)
    S = gadgets.bnt_clique_solution(inst, clique, G)
    # dropping the alpha of color 1 leaves the subdivided sigma_1 boundary,
    # a chain bounding xi, untouched
    dropped = inst.legend["alpha"][(1, clique[0])]
    r = inst.input_chain.dimension + 1
    S_minus = inst.complex.chain(r, [s for s in inst.complex.members(S) if s != dropped])
    witness = inst.complex.chain(r, inst.legend["sigma_chain"][1])
    K, (xi, S, S_minus, witness) = roundtrip(inst.complex, [inst.input_chain, S, S_minus, witness])
    out[name] = (G, K, xi, S, S_minus, witness)

    out["greedy"] = []
    for n in GREEDY_TORI:
        T = grid_torus(n)
        out["greedy"].append((n, T, [global_rand.random_bounding_cycle(T, 1, next(seeds)) for _ in range(GREEDY_CYCLES)]))
    out["global-bnt"] = [(n, grid_torus(n), next(seeds)) for n in GLOBAL_BNT_TORI]
    return out


def _verdict_op(name: str, fn: Callable, args, expected: bool, why: Callable[[], bool]) -> Op:
    """A verifier call whose verdict must equal ``expected``; ``why`` is an
    independent reference evaluated once, which must also agree."""

    def check(rep):
        require(rep.verdict == expected, f"verdict {rep.verdict} != expected {expected} ({name})")
        require(why(), f"reference disagrees with the expected verdict ({name})")

    return Op(name, lambda: fn(*args), check)


def _ths(*args):
    return feasibility.is_ths_feasible(*args)


def _ths_clique_ops(name, G, K, zeta, S, full: bool) -> List[Op]:
    r = zeta.dimension

    def feasible_ref():
        return (gadgets.has_multicolored_clique(G) is not None
                and ref.ths_feasible(K, zeta.support.bits, r, S.support.bits))

    ops = [_verdict_op(f"verify-ths {name} clique-set", _ths, (K, zeta, S), True, feasible_ref)]
    if full:
        # the clique set without V misses zeta itself
        S_minus = K.chain_from_bits(r, S.support.bits & ~zeta.support.bits)
        misses = lambda: S_minus.support.bits & zeta.support.bits == 0
        ops.append(_verdict_op(f"verify-ths {name} clique-set-minus-V", _ths, (K, zeta, S_minus), False, misses))
        ops.append(_verdict_op(f"verify-global-ths {name} clique-set",
                               lambda *a: feasibility.is_global_ths_solution(*a), (K, r, S), True, feasible_ref))
    return ops


def _bnt_gadget_ops(name, G, K, xi, S, S_minus, witness) -> List[Op]:
    r = xi.dimension + 1
    clique_ref = lambda: gadgets.has_multicolored_clique(G) is not None

    def witnessed():
        cols = ref.boundary_columns(K, r)
        bound = 0
        for j in ref.indices_of(witness.support.bits):
            bound ^= cols[j]
        return bound == xi.support.bits and witness.support.bits & S_minus.support.bits == 0

    bnt = lambda *a: feasibility.is_bnt_feasible(*a)
    return [
        _verdict_op(f"verify-bnt {name} clique-set", bnt, (K, xi, S), True, clique_ref),
        _verdict_op(f"verify-bnt {name} clique-set-minus-alpha", bnt, (K, xi, S_minus), False, witnessed),
        _verdict_op(f"verify-global-bnt {name} clique-set",
                    lambda *a: feasibility.is_global_bnt_solution(*a), (K, r - 1, S), True, clique_ref),
    ]


def bigrank_plan(inputs) -> List[Op]:
    ops = []
    for name in THS_CLIQUE_SLOTS:
        ops += _ths_clique_ops(name, *inputs[name], full=True)
    ops += _ths_clique_ops(THS_BIG_SLOT[0], *inputs[THS_BIG_SLOT[0]], full=False)
    for name in THS_NOCLIQUE_SLOTS:
        G, K, zeta, S = inputs[name]
        no_clique = lambda G=G, K=K, zeta=zeta, S=S: (
            gadgets.has_multicolored_clique(G) is None
            and not ref.ths_feasible(K, zeta.support.bits, zeta.dimension, S.support.bits)
        )
        ops.append(_verdict_op(f"verify-ths {name} structured-set", _ths, (K, zeta, S), False, no_clique))

    ops += _bnt_gadget_ops(BNT_SLOT[0], *inputs[BNT_SLOT[0]])
    for n, T, cycles in inputs["greedy"]:
        for i, xi in enumerate(cycles):
            def check_greedy(S, T=T, xi=xi):
                require(len(S) == EXPECTED["torus.bnt_opt"], f"greedy BNT size {len(S)} on a torus")
                ref.check_surface_bnt(T, xi, S.support.bits)

            ops.append(Op(f"bnt-greedy torus{n} cycle{i}",
                          lambda T=T, xi=xi: bnt_greedy.solve_bnt_greedy(T, xi), check_greedy))

    for n, T, seed in inputs["global-bnt"]:
        def global_bnt(T=T, seed=seed):
            run = global_rand.RandomizedRun(seed, GLOBAL_TRIALS)
            return global_rand.solve_global_bnt(T, 1, seed, trials=GLOBAL_TRIALS, run=run), run.records

        def check_global(out, T=T):
            sol, records = out
            require(len(records) == GLOBAL_TRIALS, "wrong trial count")
            require(sol is not None and sol.dimension == 2, "global BNT gave no set of triangles")
            # any two triangles of a torus drop rank d_2 by one; one never does
            require(len(sol) == EXPECTED["torus.global_bnt_opt"], "global BNT size is not 2")
            require(ref.boundary_rank(T, 2, sol.support.bits) < ref.boundary_rank(T, 2),
                    "global BNT set does not lower the rank of d_2")

        ops.append(Op(f"global-bnt torus{n}", global_bnt, check_global))
    return ops


WORKLOADS = {
    "surface": (surface_setup, surface_plan),
    "fpt": (fpt_setup, fpt_plan),
    "bigrank": (bigrank_setup, bigrank_plan),
}
