"""File formats and the command-line surface.

Three line-oriented text formats: ``.scx`` complexes (``dim``, ``window``,
``top``/``simplex``, ``weight``, ``#`` comments), ``.chn`` chains
(``chain <dim>`` then one simplex per line), and ``.cg`` colored graphs
(``vertex <id> <color>``, ``edge <u> <v>``).  ``main`` wires every solver,
verifier and oracle to a subcommand with exit codes 0 (solved /
verified-true), 1 (no solution / verified-false), 2 (input error),
3 (resource error), 141 (stdout closed before the output was written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .bnt_greedy import solve_bnt_greedy
from .canonical import CANONICAL_NAMES, gen_canonical
from .complexes import Chain, Complex, _is_weight, build_complex
from .errors import InputError, ResourceError
from .feasibility import (
    is_bnt_feasible,
    is_global_bnt_solution,
    is_global_ths_solution,
    is_ths_feasible,
)
from .fpt_ths import FPTConfig, solve_ths_fpt
from .gadgets import ColoredGraph, gen_bnt_gadget, gen_ths_gadget
from .global_rand import DEFAULT_TRIALS, RandomizedRun, solve_global_bnt, solve_global_ths
from .oracle import (
    OracleBudget,
    brute_bnt,
    brute_ths,
    enumerate_boundary_chains,
    enumerate_homologous,
)
from .surface_ths import solve_ths_surface

__all__ = [
    "parse_complex",
    "emit_complex",
    "parse_chain",
    "emit_chain",
    "parse_colored_graph",
    "emit_colored_graph",
    "main",
]

SCHEMA = "z2cut-report/1"


# -------------------------------------------------------------- file formats


def _tokenized(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _ints(tokens: Sequence[str], lineno: int) -> List[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise InputError(f"line {lineno}: expected integers, got {tokens!r}")


def _number(token: str, lineno: int) -> float:
    """An int, or failing that a float, as ``emit_complex`` writes weights."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise InputError(f"line {lineno}: expected a number, got {token!r}")


def parse_complex(text: str) -> Complex:
    """Parse the `.scx` format; deterministic indexing via build_complex."""
    dim: Optional[int] = None
    window: Optional[Tuple[int, int]] = None
    tops: List[Tuple[int, ...]] = []
    weights: Dict[Tuple[int, int], float] = {}
    weight_lines: Dict[Tuple[int, int], int] = {}
    for lineno, toks in _tokenized(text):
        kw, rest = toks[0], toks[1:]
        if kw == "dim":
            if len(rest) != 1:
                _bad(lineno, "dim takes one value")
            (dim,) = _ints(rest, lineno)
        elif kw == "window":
            if len(rest) != 2:
                _bad(lineno, "window takes two values")
            lo, hi = _ints(rest, lineno)
            window = (lo, hi)
        elif kw in ("top", "simplex"):
            vs = _ints(rest, lineno)
            if kw == "simplex":
                if len(vs) < 2 or vs[0] != len(vs) - 2:
                    _bad(lineno, "simplex line: dimension does not match vertex count")
                vs = vs[1:]
            if len(set(vs)) != len(vs):
                _bad(lineno, "duplicate vertex in simplex")
            tops.append(tuple(sorted(vs)))
        elif kw == "weight":
            if len(rest) != 3:
                _bad(lineno, "weight takes u v w")
            u, v = _ints(rest[:2], lineno)
            e = (min(u, v), max(u, v))
            if e in weight_lines:
                _bad(lineno, f"duplicate weight for edge {e}, first given on line {weight_lines[e]}")
            w = _number(rest[2], lineno)
            if not _is_weight(w):
                _bad(lineno, f"weight on edge {e} must be a positive finite number, got {rest[2]!r}")
            weights[e], weight_lines[e] = w, lineno
        else:
            _bad(lineno, f"unknown keyword {kw!r}")
    if window is None:
        raise InputError("missing window line")
    if dim is not None and dim != window[1]:
        raise InputError(f"dim {dim} disagrees with window {window}")
    if weights:
        # tops above the window are rejected by build_complex, so these are
        # exactly the complex's edges when the window holds dimension 1
        edges = {e for t in tops for e in combinations(t, 2)} if window[0] <= 1 <= window[1] else set()
        for e, lineno in weight_lines.items():
            if e not in edges:
                _bad(lineno, f"weight given for non-edge {e}")
    return build_complex(tops, window, weights or None)


def _bad(lineno: int, msg: str):
    raise InputError(f"line {lineno}: {msg}")


def emit_complex(K: Complex) -> str:
    """Byte-stable inverse of parse_complex (maximal simplices as tops)."""
    lines = [f"dim {K.hi}", f"window {K.lo} {K.hi}"]
    for p in range(K.hi, K.lo - 1, -1):
        covered = {f for t in K.simplices.get(p + 1, ()) for f in combinations(t, p + 1)}
        for s in K.simplices[p]:
            if s not in covered:
                lines.append("top " + " ".join(map(str, s)))
    for (u, v), w in sorted(K.weights.items()):
        wtxt = str(int(w)) if isinstance(w, float) and w.is_integer() else str(w)
        lines.append(f"weight {u} {v} {wtxt}")
    return "\n".join(lines) + "\n"


def parse_chain(text: str, K: Complex) -> Chain:
    dim: Optional[int] = None
    members: List[Tuple[int, ...]] = []
    for lineno, toks in _tokenized(text):
        if dim is None:
            if toks[0] != "chain" or len(toks) != 2:
                _bad(lineno, "first line must be 'chain <dim>'")
            (dim,) = _ints(toks[1:], lineno)
        else:
            members.append(tuple(sorted(_ints(toks, lineno))))
    if dim is None:
        raise InputError("empty chain file")
    return K.chain(dim, members)


def emit_chain(K: Complex, c: Chain) -> str:
    lines = [f"chain {c.dimension}"]
    lines.extend(" ".join(map(str, s)) for s in K.members(c))
    return "\n".join(lines) + "\n"


def parse_colored_graph(text: str) -> ColoredGraph:
    colors: Dict[int, int] = {}
    edges = set()
    for lineno, toks in _tokenized(text):
        kw, rest = toks[0], toks[1:]
        if kw == "vertex":
            if len(rest) != 2:
                _bad(lineno, "vertex takes id and color")
            v, c = _ints(rest, lineno)
            if v in colors:
                _bad(lineno, f"duplicate vertex {v}")
            colors[v] = c
        elif kw == "edge":
            if len(rest) != 2:
                _bad(lineno, "edge takes two vertex ids")
            u, v = _ints(rest, lineno)
            edges.add(frozenset((u, v)))
        else:
            _bad(lineno, f"unknown keyword {kw!r}")
    return ColoredGraph(colors, frozenset(edges))


def emit_colored_graph(G: ColoredGraph) -> str:
    lines = [f"vertex {v} {c}" for v, c in sorted(G.colors.items())]
    lines.extend(f"edge {u} {v}" for u, v in sorted(tuple(sorted(e)) for e in G.edges))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- artifacts


def _sha256(path: str) -> str:
    # imported on first use: hashlib maps OpenSSL, about 3.6 MB of resident
    # memory that only the --json report needs
    import hashlib

    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


class _Report:
    """Accumulates a replayable run artifact for --json."""

    def __init__(self, args: argparse.Namespace, argv: Sequence[str]) -> None:
        self.data = {
            "schema": SCHEMA,
            "command": list(argv),
            "inputs": {},
            "seed": getattr(args, "seed", None),
            "output": {},
            "verification": {},
        }
        self.t0 = time.monotonic()

    def add_input(self, path: Optional[str]) -> None:
        if path:
            self.data["inputs"][path] = _sha256(path)

    def finish(self, path: Optional[str], exit_code: int) -> None:
        self.data["elapsed_s"] = round(time.monotonic() - self.t0, 6)
        self.data["exit_code"] = exit_code
        if path:
            _write(path, json.dumps(self.data, indent=2, sort_keys=True) + "\n")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _load_complex(args, report: _Report) -> Complex:
    report.add_input(args.complex)
    return parse_complex(_read(args.complex))


def _load_chain(path: str, K: Complex, report: _Report) -> Chain:
    report.add_input(path)
    return parse_chain(_read(path), K)


def _print_solution(K: Complex, c: Optional[Chain], report: _Report) -> int:
    if c is None:
        print("no solution")
        report.data["output"]["solution"] = None
        return 1
    members = K.members(c)
    print(f"solution size {len(members)}")
    for s in members:
        print(" ".join(map(str, s)))
    report.data["output"]["solution"] = [list(s) for s in members]
    return 0


# --------------------------------------------------------------- subcommands


def _cmd_ths_surface(args, report) -> int:
    K = _load_complex(args, report)
    zeta = _load_chain(args.cycle, K, report)
    res = solve_ths_surface(K, zeta)
    members = K.members(res.solution)
    print(f"cocycle weight {res.weight} size {len(members)}")
    for s in members:
        print(" ".join(map(str, s)))
    report.data["output"] = {
        "solution": [list(s) for s in members],
        "weight": res.weight,
        "basis_index": res.basis_index,
    }
    report.data["verification"]["feasible"] = res.certificate.verdict
    return 0


def _cmd_ths_fpt(args, report) -> int:
    K = _load_complex(args, report)
    zeta = _load_chain(args.cycle, K, report)
    config = FPTConfig(k=args.k)
    sol = solve_ths_fpt(K, zeta, config)
    code = _print_solution(K, sol, report)
    print(f"candidates {config.stats['candidates']}")
    print(f"pruned {config.stats['pruned']}")
    report.data["output"]["stats"] = dict(config.stats)
    return code


def _cmd_bnt_greedy(args, report) -> int:
    K = _load_complex(args, report)
    zeta = _load_chain(args.cycle, K, report)
    sol = solve_bnt_greedy(K, zeta)
    return _print_solution(K, sol, report)


def _cmd_global_ths(args, report) -> int:
    K = _load_complex(args, report)
    run = RandomizedRun(args.seed, args.trials)
    sol = solve_global_ths(K, args.dim, FPTConfig(k=args.k), args.seed, args.trials, run)
    report.data["output"]["trials"] = run.records
    code = _print_solution(K, sol, report)
    if sol is not None:
        report.data["verification"]["global"] = is_global_ths_solution(K, args.dim, sol).verdict
    return code


def _cmd_global_bnt(args, report) -> int:
    K = _load_complex(args, report)
    run = RandomizedRun(args.seed, args.trials)
    sol = solve_global_bnt(K, args.dim, args.seed, args.trials, run)
    report.data["output"]["trials"] = run.records
    code = _print_solution(K, sol, report)
    if sol is not None:
        report.data["verification"]["global"] = is_global_bnt_solution(K, args.dim, sol).verdict
    return code


def _cmd_verify(args, report) -> int:
    K = _load_complex(args, report)
    S = _load_chain(args.set, K, report)
    if args.kind == "ths":
        zeta = _load_chain(args.cycle, K, report)
        rep = is_ths_feasible(K, zeta, S)
    elif args.kind == "bnt":
        zeta = _load_chain(args.cycle, K, report)
        rep = is_bnt_feasible(K, zeta, S)
    elif args.kind == "global-ths":
        rep = is_global_ths_solution(K, args.dim, S)
    else:
        rep = is_global_bnt_solution(K, args.dim, S)
    print(f"verdict {'true' if rep.verdict else 'false'} ({rep.method})")
    report.data["verification"] = {"verdict": rep.verdict, "method": rep.method, "ranks": rep.ranks}
    return 0 if rep.verdict else 1


def _cmd_oracle(args, report) -> int:
    K = _load_complex(args, report)
    zeta = _load_chain(args.cycle, K, report)
    budget = OracleBudget()
    if args.kind in ("homologous", "coset"):
        fn = enumerate_homologous if args.kind == "homologous" else enumerate_boundary_chains
        chains = fn(K, zeta, budget)
        print(f"count {len(chains)}")
        report.data["output"]["count"] = len(chains)
        return 0
    fn = brute_ths if args.kind == "ths" else brute_bnt
    sol = fn(K, zeta, args.kmax, budget)
    return _print_solution(K, sol, report)


def _cmd_gen(args, report) -> int:
    legend = None
    chain = None
    if args.name in ("gadget-ths", "gadget-bnt"):
        if not args.graph:
            raise InputError("gadget generation needs --graph")
        report.add_input(args.graph)
        G = parse_colored_graph(_read(args.graph))
        inst = (gen_ths_gadget if args.name == "gadget-ths" else gen_bnt_gadget)(G, args.m)
        K, chain = inst.complex, inst.input_chain
        legend = {
            "parameter": inst.parameter,
            "roles": {
                role: _legend_json(val)
                for role, val in inst.legend.items()
            },
        }
    else:
        params = {"g": args.g} if args.name == "genus-g" else None
        K, chain = gen_canonical(args.name, params)
    _write(args.out, emit_complex(K))
    print(f"wrote {args.out}")
    if chain is not None and args.chain_out:
        _write(args.chain_out, emit_chain(K, chain))
        print(f"wrote {args.chain_out}")
    if legend is not None and args.legend_out:
        _write(args.legend_out, json.dumps(legend, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote {args.legend_out}")
    report.data["output"] = {
        "counts": {p: K.n(p) for p in range(K.lo, K.hi + 1)},
        "parameter": None if legend is None else legend["parameter"],
    }
    return 0


def _legend_json(val):
    if isinstance(val, dict):
        return {str(k): _legend_json(v) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [_legend_json(v) for v in val]
    return val


# ------------------------------------------------------------------ argparse


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="z2cut", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, cycle=True, rand=False):
        p.add_argument("--complex", required=True, help=".scx complex file")
        if cycle:
            p.add_argument("--cycle", required=True, help=".chn chain file")
        p.add_argument("--json", metavar="PATH", help="write a replayable run report")
        if rand:
            p.add_argument("--seed", type=int, required=True, help="trial seed")
            p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)

    p = sub.add_parser("ths-surface", help="exact hitting set on a closed surface")
    common(p)

    p = sub.add_parser("ths-fpt", help="parameterized exact hitting set")
    common(p)
    p.add_argument("--k", type=int, required=True, help="solution size bound")

    p = sub.add_parser("bnt-greedy", help="greedy boundary nontrivialization")
    common(p)

    p = sub.add_parser("global-ths", help="randomized global hitting set")
    common(p, cycle=False, rand=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("global-bnt", help="randomized global boundary cut")
    common(p, cycle=False, rand=True)
    p.add_argument("--dim", type=int, required=True)

    p = sub.add_parser("verify", help="check a proposed solution")
    p.add_argument("kind", choices=["ths", "bnt", "global-ths", "global-bnt"])
    p.add_argument("--complex", required=True)
    p.add_argument("--cycle", help="required for ths/bnt")
    p.add_argument("--set", required=True, help=".chn file with the candidate set")
    p.add_argument("--dim", type=int, help="required for global variants")
    p.add_argument("--json", metavar="PATH")

    p = sub.add_parser("oracle", help="exhaustive reference computations")
    p.add_argument("kind", choices=["ths", "bnt", "homologous", "coset"])
    common(p)
    p.add_argument("--kmax", type=int, default=6)

    p = sub.add_parser("gen", help="write canonical or gadget complexes")
    p.add_argument("name", choices=list(CANONICAL_NAMES) + ["gadget-ths", "gadget-bnt"])
    p.add_argument("--out", required=True, help="output .scx path")
    p.add_argument("--chain-out", help="output .chn path for the distinguished chain")
    p.add_argument("--legend-out", help="output JSON legend path (gadgets)")
    p.add_argument("--graph", help=".cg colored-graph file (gadgets)")
    p.add_argument("--m", type=int, default=8, help="penalty multiplicity (gadgets)")
    p.add_argument("--g", type=int, default=2, help="genus for genus-g")
    p.add_argument("--json", metavar="PATH")
    return top


_DISPATCH = {
    "ths-surface": _cmd_ths_surface,
    "ths-fpt": _cmd_ths_fpt,
    "bnt-greedy": _cmd_bnt_greedy,
    "global-ths": _cmd_global_ths,
    "global-bnt": _cmd_global_bnt,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = _Report(args, argv)
    try:
        code = _run(args, report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone (``| head``): send the exit-time flush
        # to devnull and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141
    try:
        report.finish(getattr(args, "json", None), code)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _run(args: argparse.Namespace, report: _Report) -> int:
    """The subcommand's exit code, with input and resource errors mapped to 2 and 3."""
    try:
        if args.cmd == "verify" and args.kind in ("ths", "bnt") and not args.cycle:
            raise InputError(f"verify {args.kind} needs --cycle")
        if args.cmd == "verify" and args.kind.startswith("global") and args.dim is None:
            raise InputError(f"verify {args.kind} needs --dim")
        return _DISPATCH[args.cmd](args, report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
