"""Layer tracing from outside the library.

``Tracer.installed()`` wraps every function named in each layer module's
``__all__`` at every z2cut module attribute that binds it (so names
imported with ``from .x import y`` are wrapped where they are used), plus
``HomologyBasis.coordinates``.  Each call becomes a span; spans nest
through a stack, and a span's self time is its duration minus the time of
the spans it caused.  Spans are folded into per-layer totals as they
close, which keeps memory flat on workloads that make millions of calls.
Classes and constants in ``__all__`` are not wrapped: replacing a class
object would break ``isinstance`` and dataclass identity, so construction
cost is charged to the calling layer.  A generator function's span
covers only the creation of the generator; iterating it is charged to
the consumer (``enumerate_connected_sets`` to ``solve_ths_fpt``, both in
``fpt_ths``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from typing import Dict, List, Tuple

LAYERS = (
    "gf2",
    "complexes",
    "homology",
    "feasibility",
    "surface_ths",
    "fpt_ths",
    "bnt_greedy",
    "global_rand",
    "gadgets",
    "io_cli",
)

# Extra methods wrapped in place on their class: (layer, class, method).
METHODS = (("homology", "HomologyBasis", "coordinates"),)

VERIFIERS = ("is_ths_feasible", "is_bnt_feasible", "is_global_ths_solution", "is_global_bnt_solution")


def layer_functions() -> List[Tuple[str, str, object]]:
    """(layer, name, function) for every function in each layer's __all__."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"z2cut.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if isinstance(obj, types.FunctionType):
                out.append((layer, name, obj))
    return out


def bindings(fn) -> List[Tuple[object, str]]:
    """Every (z2cut module, attribute) that currently holds ``fn``."""
    out = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "z2cut" or modname.startswith("z2cut.")):
            continue
        for attr, val in vars(mod).items():
            if val is fn:
                out.append((mod, attr))
    return out


class Tracer:
    """Folds spans into raw per-layer counters; see ``metrics``."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        self.raw: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        hook = _HOOKS.get((layer, name))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                raw = tracer.raw
                raw[layer + ".self_s"] += dt - frame[1]
                raw[layer + ".calls"] += 1
                raw["trace.spans"] += 1
            if hook is not None:
                hook(raw, parent, dt, args, kwargs, result)
            return result

        span.__wrapped_layer__ = layer
        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap all layer bindings for the duration of the block."""
        saved = []
        try:
            for layer, name, fn in layer_functions():
                wrapped = self._wrap(layer, name, fn)
                for mod, attr in bindings(fn):
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
            for layer, cls_name, meth in METHODS:
                cls = getattr(importlib.import_module(f"z2cut.{layer}"), cls_name)
                fn = cls.__dict__[meth]
                saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.stack.clear()


# ---------------------------------------------------------------- counters


def _gf2_sizes(raw, parent, dt, args, kwargs, result) -> None:
    for a in args:
        nrows, cols = getattr(a, "nrows", None), getattr(a, "cols", None)
        if nrows is not None and cols is not None:
            raw["gf2.cols_in"] += len(cols)
            raw["gf2.cells_in"] += nrows * len(cols)


def _gf2_solve(raw, parent, dt, args, kwargs, result) -> None:
    _gf2_sizes(raw, parent, dt, args, kwargs, result)
    if parent == "bnt_greedy":
        raw["bnt_greedy.solves"] += 1


def _verifier(raw, parent, dt, args, kwargs, result) -> None:
    raw["feasibility.verdicts"] += 1
    raw["feasibility.true"] += bool(result.verdict)
    if parent == "fpt_ths":
        raw["fpt_ths.checked"] += 1


def _inclusive(key: str):
    def hook(raw, parent, dt, args, kwargs, result) -> None:
        raw[key] += dt

    return hook


def _count(key: str):
    def hook(raw, parent, dt, args, kwargs, result) -> None:
        raw[key] += 1

    return hook


def _fpt(raw, parent, dt, args, kwargs, result) -> None:
    config = args[2] if len(args) > 2 else kwargs["config"]
    raw["fpt_ths.candidates"] += config.stats["candidates"]


def _global(raw, parent, dt, args, kwargs, result) -> None:
    run = kwargs.get("run")
    if run is not None:
        raw["global_rand.trials"] += len(run.records)
        raw["global_rand.successes"] += sum(1 for rec in run.records if rec["success"])


_HOOKS = {("gf2", name): _gf2_sizes for name in ("rank", "in_colspace", "kernel_basis", "relative_rank", "column_space_pivots")}
_HOOKS[("gf2", "solve")] = _gf2_solve
_HOOKS.update({("feasibility", name): _verifier for name in VERIFIERS})
_HOOKS[("complexes", "boundary_matrix")] = _count("complexes.boundary_matrix_calls")
_HOOKS[("complexes", "remove_closure")] = _count("complexes.remove_closure_calls")
_HOOKS[("homology", "min_cohomology_basis")] = _inclusive("homology.min_basis_s")
_HOOKS[("fpt_ths", "solve_ths_fpt")] = _fpt
_HOOKS[("bnt_greedy", "greedy_set_cover")] = _inclusive("bnt_greedy.cover_s")
_HOOKS[("global_rand", "solve_global_ths")] = _global
_HOOKS[("global_rand", "solve_global_bnt")] = _global
_HOOKS.update({("io_cli", name): _inclusive("io_cli.parse_s") for name in ("parse_complex", "parse_chain", "parse_colored_graph")})
_HOOKS.update({("io_cli", name): _inclusive("io_cli.emit_s") for name in ("emit_complex", "emit_chain", "emit_colored_graph")})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(raw: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values (the per_layer names of BENCHMARK.json)."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = raw.get(f"{layer}.self_s", 0.0)
        out[f"{layer}.calls"] = raw.get(f"{layer}.calls", 0.0)
    for key in (
        "gf2.cols_in",
        "gf2.cells_in",
        "complexes.boundary_matrix_calls",
        "complexes.remove_closure_calls",
        "homology.min_basis_s",
        "fpt_ths.candidates",
        "bnt_greedy.solves",
        "bnt_greedy.cover_s",
        "global_rand.trials",
        "io_cli.parse_s",
        "io_cli.emit_s",
        "trace.spans",
    ):
        out[key] = raw.get(key, 0.0)
    out["feasibility.true_ratio"] = _ratio(raw.get("feasibility.true", 0), raw.get("feasibility.verdicts", 0))
    out["fpt_ths.checked_ratio"] = _ratio(raw.get("fpt_ths.checked", 0), raw.get("fpt_ths.candidates", 0))
    out["global_rand.success_ratio"] = _ratio(raw.get("global_rand.successes", 0), raw.get("global_rand.trials", 0))
    return out
