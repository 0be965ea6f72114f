"""Tests of the benchmark itself: trace coverage, transparency of tracing,
and the committed references against z2cut.oracle.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
from itertools import combinations

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layertrace  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from z2cut import homology, oracle  # noqa: E402
from z2cut.canonical import gen_canonical  # noqa: E402
from z2cut.gf2 import GF2Vector  # noqa: E402


def _z2cut_attributes():
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "z2cut" or modname.startswith("z2cut.")):
            for attr, val in vars(mod).items():
                yield mod, attr, val


def test_wrappers_cover_every_binding():
    functions = layertrace.layer_functions()
    originals = {id(fn): (layer, name) for layer, name, fn in functions}
    before = {(mod.__name__, attr): val for mod, attr, val in _z2cut_attributes() if id(val) in originals}
    coords = homology.HomologyBasis.coordinates
    assert ("z2cut.fpt_ths", "is_ths_feasible") in before
    assert ("z2cut.bnt_greedy", "solve") in before
    with layertrace.Tracer().installed():
        for mod, attr, val in _z2cut_attributes():
            assert id(val) not in originals, f"{mod.__name__}.{attr} is not wrapped"
            if (mod.__name__, attr) in before:
                assert val.__wrapped__ is before[(mod.__name__, attr)]
                assert val.__wrapped_layer__ == originals[id(val.__wrapped__)][0]
        assert homology.HomologyBasis.coordinates.__wrapped__ is coords
    after = {(mod.__name__, attr): val for mod, attr, val in _z2cut_attributes() if id(val) in originals}
    assert after == before
    assert homology.HomologyBasis.coordinates is coords


def _small_ops():
    ops = []
    cases = [c for c in workloads.surface_setup(11) if c[0].startswith(("genus1.", "torus3"))]
    ops += workloads.surface_plan(cases)
    inputs = workloads.fpt_setup(11)
    for i, (K, zeta) in enumerate(inputs["random"][:4]):
        opt = len(oracle.brute_ths(K, zeta, kmax=K.n(1)))
        ops += workloads._both_budgets(f"random{i}", K, zeta, opt)
    ops += [op for op in workloads.bigrank_plan(workloads.bigrank_setup(11))
            if "k2-v3" in op.name or "torus8" in op.name]
    return ops


def test_traced_outputs_are_bit_identical():
    ops = _small_ops()
    assert len(ops) >= 10
    plain = []
    for op in ops:
        out = op.call()
        op.check(out)
        plain.append(workloads.digest(out))
    tracer = layertrace.Tracer()
    with tracer.installed():
        traced = [workloads.digest(op.call()) for op in ops]
    assert traced == plain
    values = layertrace.metrics(tracer.raw)
    for layer in ("gf2", "complexes", "homology", "feasibility", "surface_ths", "fpt_ths", "bnt_greedy"):
        assert values[f"{layer}.calls"] > 0, layer
    assert values["homology.min_basis_s"] > 0
    assert values["fpt_ths.candidates"] > 0 and values["bnt_greedy.solves"] > 0


def test_surface_reference_matches_oracle():
    K, _ = gen_canonical("csaszar-torus")
    hb = homology.homology_basis(K, 1)
    optima = []
    for bits in range(1, 1 << len(hb)):
        zeta = hb.combine(GF2Vector(len(hb), bits))
        opt = ref.surface_ths_optimum(K, zeta.support.bits)
        assert opt == ref.EXPECTED["csaszar-torus.ths_opt"]
        assert len(oracle.brute_ths_surface(K, zeta, wmax=opt)) == opt
        optima.append(opt)
    assert min(optima) == ref.EXPECTED["csaszar-torus.global_ths_opt"]
    K, zeta = gen_canonical("genus-g", {"g": 2})
    assert ref.surface_ths_optimum(K, zeta.support.bits) == ref.EXPECTED["genus-2.ths_opt"]
    assert len(oracle.brute_ths_surface(K, zeta, wmax=6)) == 6
    T = workloads.grid_torus(3)
    for seed in range(3):
        zeta = workloads.global_rand.random_nontrivial_cycle(T, 1, seed)
        opt = ref.surface_ths_optimum(T, zeta.support.bits)
        assert len(oracle.brute_ths_surface(T, zeta, wmax=int(opt))) == opt


def test_small_canonical_optima_match_oracle():
    for name in workloads.SMALL_CANONICAL:
        K, zeta = gen_canonical(name)
        assert len(oracle.brute_ths(K, zeta, kmax=8)) == ref.EXPECTED[f"{name}.ths_opt"]


def test_projected_rank_matches_oracle_definition():
    inputs = workloads.fpt_setup(5)
    for K, zeta in inputs["random"][:6]:
        targets = [c.support.bits for c in oracle.enumerate_homologous(K, zeta)]
        for size in (1, 2):
            for S in combinations(range(K.n(1)), size):
                bits = ref.bits_of(S)
                assert ref.ths_feasible(K, zeta.support.bits, 1, bits) == all(t & bits for t in targets)


def test_k2_edge_gadget_has_no_small_hitting_set():
    # brute_ths cannot enumerate this gadget's 2^27 homologous cycles, so the
    # committed optimum is checked by the projected-rank criterion instead
    K, zeta, _ = workloads.fpt_setup(1)["k2-edge"]
    opt = ref.EXPECTED["ths-gadget.k2-edge.opt"]
    for size in range(1, opt):
        for S in combinations(range(K.n(1)), size):
            assert not ref.ths_feasible(K, zeta.support.bits, 1, ref.bits_of(S))


def test_global_surface_reference():
    K, _ = gen_canonical("csaszar-torus")
    star = sum(1 << i for i, e in enumerate(K.simplices[1]) if 0 in e)  # a coboundary
    assert not ref.check_global_ths_on_surface(K, star)
    hb = homology.homology_basis(K, 1)
    zeta = hb.combine(GF2Vector(len(hb), 1))
    sol = oracle.brute_ths_surface(K, zeta, wmax=6)
    assert ref.check_global_ths_on_surface(K, sol.support.bits)


def test_torus_bnt_expectations():
    T = workloads.grid_torus(4)
    for seed in range(3):
        xi = workloads.global_rand.random_bounding_cycle(T, 1, seed)
        best = oracle.brute_bnt(T, xi, kmax=3)
        assert len(best) == ref.EXPECTED["torus.bnt_opt"]
        ref.check_surface_bnt(T, xi, best.support.bits)
    # one triangle never drops rank d_2 of a torus; two always do
    for drop in ({0}, {0, 5}, {3, 17}):
        lower = ref.boundary_rank(T, 2, ref.bits_of(drop)) < ref.boundary_rank(T, 2)
        assert lower == (len(drop) == ref.EXPECTED["torus.global_bnt_opt"])


def test_exits_nonzero_without_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fpt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
