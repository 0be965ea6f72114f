"""File formats, round trips, and the command-line surface."""

import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import z2cut
from z2cut.canonical import CANONICAL_NAMES, gen_canonical
from z2cut.complexes import boundary_matrix, build_complex
from z2cut.errors import InputError
from z2cut.gf2 import kernel_basis
from z2cut.io_cli import (
    emit_chain,
    emit_colored_graph,
    emit_complex,
    main,
    parse_chain,
    parse_colored_graph,
    parse_complex,
)
from z2cut.oracle import restricted_solve_bnt


def test_parse_documented_examples():
    K = parse_complex("dim 2\nwindow 0 2\ntop 0 1 2\ntop 0 1 3\ntop 0 2 3\ntop 1 2 3\n")
    assert (K.n(0), K.n(1), K.n(2)) == (4, 6, 4)
    K = parse_complex("dim 1\nwindow 0 1\ntop 0 1\nweight 0 1 5\n")
    assert K.edge_weight((0, 1)) == 5
    with pytest.raises(InputError):
        parse_complex("window 0 1\ntop 1 1 2\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_complex("window 0 1\nbogus 1 2\n")
    with pytest.raises(InputError, match="window"):
        parse_complex("top 0 1\n")
    with pytest.raises(InputError):
        parse_complex("dim 2\nwindow 0 1\ntop 0 1\n")  # dim/window mismatch


def test_round_trip_all_canonical():
    for name in CANONICAL_NAMES:
        K, ch = gen_canonical(name, {"g": 2} if name == "genus-g" else None)
        text = emit_complex(K)
        K2 = parse_complex(text)
        assert K2 == K, name
        assert emit_complex(K2) == text, name  # byte-stable
        if ch is not None:
            assert parse_chain(emit_chain(K, ch), K2) == ch


def test_round_trip_weighted(torus):
    K = torus[0]
    weights = {e: (3, 2.5, 11, 0.125)[i % 4] for i, e in enumerate(K.simplices[1])}
    W = build_complex(list(K.simplices[2]), (0, 2), weights)
    assert parse_complex(emit_complex(W)) == W


_positive_weights = st.one_of(
    st.integers(1, 2**70),
    st.floats(min_value=0, exclude_min=True, allow_infinity=False, allow_nan=False),
)


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.sampled_from(list(combinations(range(6), 3))), min_size=1, max_size=8),
    st.sampled_from([(0, 1), (0, 2), (1, 2)]),
    st.data(),
)
def test_round_trip_weighted_property(tris, window, data):
    """Every weighted complex the library accepts survives .scx emit/parse."""
    edges = sorted({e for t in tris for e in combinations(t, 2)})
    chosen = data.draw(st.lists(st.sampled_from(edges), unique=True), label="weighted edges")
    weights = {e: data.draw(_positive_weights, label=f"w{e}") for e in chosen}
    K = build_complex(sorted(tris) if window[1] == 2 else edges, window, weights or None)
    text = emit_complex(K)
    K2 = parse_complex(text)
    assert K2 == K
    assert emit_complex(K2) == text


def test_weight_domain():
    assert parse_complex("window 0 1\ntop 0 1\nweight 0 1 2.5\n").edge_weight((0, 1)) == 2.5
    for bad in ("0", "-1", "nan", "inf", "x"):
        with pytest.raises(InputError):
            parse_complex(f"window 0 1\ntop 0 1\nweight 0 1 {bad}\n")
    for bad in (0, -0.5, float("nan"), float("inf"), True, "3"):
        with pytest.raises(InputError):
            build_complex([(0, 1)], (0, 1), {(0, 1): bad})


def test_colored_graph_round_trip():
    text = "vertex 1 1\nvertex 2 2\nvertex 3 2\nedge 1 2\n"
    G = parse_colored_graph(text)
    assert emit_colored_graph(G) == text
    with pytest.raises(InputError):
        parse_colored_graph("vertex 1 1\nvertex 1 2\n")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture()
def torus_files(tmp_path, torus):
    K, zeta = torus
    return (
        _write(tmp_path, "t.scx", emit_complex(K)),
        _write(tmp_path, "z.chn", emit_chain(K, zeta)),
        tmp_path,
    )


def test_cli_ths_surface(torus_files, capsys):
    scx, chn, _ = torus_files
    assert main(["ths-surface", "--complex", scx, "--cycle", chn]) == 0
    out = capsys.readouterr().out
    assert "cocycle weight 6 size 6" in out


@pytest.mark.parametrize(
    "weight_lines, lineno",
    [
        ("weight 0 1 0\n", 4),  # outside the weight domain
        ("weight 0 3 2\n", 4),  # not an edge of the complex
        ("weight 0 1 2\nweight 1 0 3\n", 5),  # the same edge twice
    ],
)
def test_cli_bad_weight_names_its_line(tmp_path, capsys, weight_lines, lineno):
    scx = _write(tmp_path, "w.scx", "dim 1\nwindow 0 1\ntop 0 1\n" + weight_lines)
    chn = _write(tmp_path, "w.chn", "chain 1\n")
    assert main(["ths-surface", "--complex", scx, "--cycle", chn]) == 2
    assert f"line {lineno}:" in capsys.readouterr().err


def test_cli_verify_exit_codes(torus_files, tmp_path, capsys):
    scx, chn, _ = torus_files
    empty = _write(tmp_path, "empty.chn", "chain 1\n")
    assert main(["verify", "ths", "--complex", scx, "--cycle", chn, "--set", empty]) == 1
    assert main(["verify", "ths", "--complex", scx, "--cycle", chn, "--set", chn]) in (0, 1)
    assert main(["verify", "ths", "--complex", scx, "--cycle", chn, "--set", "missing.chn"]) == 2


def test_cli_json_artifact_replays(torus_files, tmp_path, capsys):
    scx, _, _ = torus_files
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["global-ths", "--complex", scx, "--dim", "1", "--k", "6",
            "--seed", "7", "--trials", "3"]
    assert main(args + ["--json", out1]) == 0
    assert main(args + ["--json", out2]) == 0
    a, b = json.load(open(out1)), json.load(open(out2))
    assert a["schema"] == "z2cut-report/1"
    for doc in (a, b):
        doc.pop("elapsed_s")
        doc["command"] = [c for c in doc["command"] if not c.endswith(".json")]
    assert a == b


def test_cli_seed_required_with_json(torus_files, tmp_path, capsys):
    scx, _, _ = torus_files
    for cmd, extra in (("global-ths", ["--k", "6"]), ("global-bnt", [])):
        args = [cmd, "--complex", scx, "--dim", "1"] + extra
        assert main(args + ["--json", str(tmp_path / "x.json")]) == 2
        assert main(args) == 2
        assert "--seed" in capsys.readouterr().err


def test_cli_gen_gadget_round_trip(tmp_path, capsys):
    cg = _write(tmp_path, "g.cg", "vertex 1 1\nvertex 2 2\nedge 1 2\n")
    scx = str(tmp_path / "k.scx")
    chn = str(tmp_path / "k.chn")
    leg = str(tmp_path / "k.json")
    assert main(["gen", "gadget-ths", "--graph", cg, "--m", "5",
                 "--out", scx, "--chain-out", chn, "--legend-out", leg]) == 0
    K = parse_complex(open(scx).read())
    zeta = parse_chain(open(chn).read(), K)
    legend = json.load(open(leg))
    assert legend["parameter"] == 4
    assert len(K.members(zeta)) == 3
    # solve the regenerated instance end to end
    assert main(["ths-fpt", "--complex", scx, "--cycle", chn, "--k", "4"]) == 0
    assert "solution size 4" in capsys.readouterr().out


def test_cli_unknown_arguments(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["ths-surface"]) == 2  # missing required options


def test_cli_oracle_and_exit_one(tmp_path, capsys, tetra):
    K, _ = tetra
    scx = _write(tmp_path, "t.scx", emit_complex(K))
    tri = _write(tmp_path, "b.chn", "chain 1\n0 1\n0 2\n1 2\n")
    assert main(["oracle", "coset", "--complex", scx, "--cycle", tri]) == 0
    assert "count 2" in capsys.readouterr().out
    assert main(["oracle", "bnt", "--complex", scx, "--cycle", tri, "--kmax", "1"]) == 1
    assert main(["oracle", "bnt", "--complex", scx, "--cycle", tri, "--kmax", "-1"]) == 2
    assert "kmax must be at least 0" in capsys.readouterr().err


def test_cli_bnt_on_a_solid_tetrahedron(tmp_path, capsys):
    scx = _write(tmp_path, "solid.scx", "dim 3\nwindow 0 3\ntop 0 1 2 3\n")
    tri = _write(tmp_path, "b.chn", "chain 1\n0 1\n0 2\n1 2\n")
    assert main(["bnt-greedy", "--complex", scx, "--cycle", tri]) == 0
    assert "solution size 2" in capsys.readouterr().out
    assert main(["global-bnt", "--complex", scx, "--dim", "1", "--seed", "1"]) in (0, 1)
    empty = _write(tmp_path, "e.chn", "chain 1\n")
    assert main(["bnt-greedy", "--complex", scx, "--cycle", empty]) == 2
    err = capsys.readouterr().err
    assert "the zero cycle bounds the empty chain" in err
    assert "Traceback" not in err


def test_cli_bnt_greedy_on_the_k3_gadget(tmp_path):
    """dim ker ∂_2 = 1,592: the greedy covers 2^1592 chains without listing them."""
    cg = _write(tmp_path, "k3.cg", "vertex 1 1\nvertex 2 2\nvertex 3 3\nedge 1 2\nedge 1 3\nedge 2 3\n")
    scx, chn, rep = (str(tmp_path / name) for name in ("k3.scx", "k3.chn", "k3.json"))
    assert main(["gen", "gadget-bnt", "--graph", cg, "--out", scx, "--chain-out", chn]) == 0
    assert main(["bnt-greedy", "--complex", scx, "--cycle", chn, "--json", rep]) == 0
    K = parse_complex(open(scx).read())
    zeta = parse_chain(open(chn).read(), K)
    assert kernel_basis(boundary_matrix(K, 2)).ncols == 1592
    sol = K.chain(2, [tuple(s) for s in json.load(open(rep))["output"]["solution"]])
    assert len(sol) > 0 and restricted_solve_bnt(K, zeta, sol)


def test_cli_closed_stdout_exits_141_quietly(tmp_path):
    """A reader that goes away (``| head``) gets the SIGPIPE exit status and
    no traceback; the --json report still records the run."""
    cg = _write(tmp_path, "k3.cg", "vertex 1 1\nvertex 2 2\nvertex 3 3\nedge 1 2\nedge 1 3\nedge 2 3\n")
    scx, chn, rep = (str(tmp_path / name) for name in ("k3.scx", "k3.chn", "k3.json"))
    assert main(["gen", "gadget-bnt", "--graph", cg, "--out", scx, "--chain-out", chn]) == 0
    src = os.path.dirname(os.path.dirname(z2cut.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "z2cut.io_cli", "bnt-greedy", "--complex", scx, "--cycle", chn, "--json", rep],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
    assert json.load(open(rep))["exit_code"] == 141


def test_cli_gen_refuses_a_loop_edge(tmp_path, capsys):
    cg = _write(tmp_path, "loop.cg", "vertex 0 1\nvertex 1 2\nedge 0 0\n")
    for name in ("gadget-ths", "gadget-bnt"):
        assert main(["gen", name, "--graph", cg, "--out", str(tmp_path / "x.scx")]) == 2
    err = capsys.readouterr().err
    assert err.count("edge 0,0 is a loop") == 2 and "Traceback" not in err


def test_cli_unwritable_outputs_exit_two(torus_files, tmp_path, capsys):
    scx, chn, _ = torus_files
    bad = str(tmp_path / "no-such-dir" / "x")
    ok = str(tmp_path / "ok.scx")
    cg = _write(tmp_path, "g.cg", "vertex 1 1\nvertex 2 2\nedge 1 2\n")
    assert main(["gen", "csaszar-torus", "--out", bad]) == 2
    assert main(["gen", "csaszar-torus", "--out", ok, "--chain-out", bad]) == 2
    assert main(["gen", "gadget-ths", "--graph", cg, "--m", "5", "--out", ok, "--legend-out", bad]) == 2
    assert main(["ths-surface", "--complex", scx, "--cycle", chn, "--json", bad]) == 2
    # the report is written after a failed command too
    assert main(["ths-surface", "--complex", scx, "--cycle", "missing.chn", "--json", bad]) == 2
    err = capsys.readouterr().err
    assert err.count(f"cannot write {bad}") == 5
    assert "Traceback" not in err


def test_cli_trials_must_be_positive(torus_files, capsys):
    scx, _, _ = torus_files
    for cmd, extra in (("global-ths", ["--k", "6"]), ("global-bnt", [])):
        args = [cmd, "--complex", scx, "--dim", "1", "--seed", "1", "--trials", "0"] + extra
        assert main(args) == 2
    assert capsys.readouterr().err.count("trials must be at least 1") == 2


def test_cli_binary_input_exits_two(torus_files, tmp_path, capsys):
    """A file that is not UTF-8 text is an input error, in every place a
    subcommand reads one: the complex, the cycle or set, the graph."""
    scx, chn, _ = torus_files
    cg = _write(tmp_path, "g.cg", "vertex 1 1\nvertex 2 2\nedge 1 2\n")
    junk = tmp_path / "junk.bin"
    junk.write_bytes(random.Random(0).randbytes(200))
    commands = [
        ["ths-surface", "--complex", scx, "--cycle", chn],
        ["ths-fpt", "--complex", scx, "--cycle", chn, "--k", "2"],
        ["bnt-greedy", "--complex", scx, "--cycle", chn],
        ["global-ths", "--complex", scx, "--dim", "1", "--k", "2", "--seed", "1", "--trials", "1"],
        ["global-bnt", "--complex", scx, "--dim", "1", "--seed", "1", "--trials", "1"],
        *(["verify", kind, "--complex", scx, "--cycle", chn, "--set", chn] for kind in ("ths", "bnt")),
        *(["verify", kind, "--complex", scx, "--dim", "1", "--set", chn] for kind in ("global-ths", "global-bnt")),
        *(["oracle", kind, "--complex", scx, "--cycle", chn] for kind in ("ths", "bnt", "homologous", "coset")),
        *(["gen", name, "--graph", cg, "--out", scx + ".out"] for name in ("gadget-ths", "gadget-bnt")),
    ]
    for cmd in commands:
        for i in (i for i, arg in enumerate(cmd) if arg in (scx, chn, cg)):
            assert main(cmd[:i] + [str(junk)] + cmd[i + 1:]) == 2, (cmd, i)
            err = capsys.readouterr().err
            assert "is not UTF-8 text" in err and "Traceback" not in err, (cmd, i)


def _mutate(text, data):
    """Damage a file as a careless edit would: drop a token, put a
    non-integer or a negative id in its place, cut the window line short,
    repeat a line, or add a 3-simplex and raise the window top to 3."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        op = data.draw(st.sampled_from(["drop", "replace", "window", "repeat", "solid"]))
        if op == "drop" and toks:
            del toks[data.draw(st.integers(0, len(toks) - 1))]
        elif op == "replace" and toks:
            bad = data.draw(st.sampled_from(["x", "1.5", "-1", "-7", "1e3", "0x3", "--", "99"]))
            toks[data.draw(st.integers(0, len(toks) - 1))] = bad
        elif op == "window":
            i = next((j for j, line in enumerate(lines) if line.startswith("window")), i)
            toks = lines[i].split()[: data.draw(st.integers(0, 2))]
        elif op == "repeat":
            toks = None
            lines.insert(i, lines[i])
        elif op == "solid":
            toks = None
            quad = data.draw(st.lists(st.integers(0, 6), min_size=4, max_size=4, unique=True))
            lines = ["dim 3" if line.startswith("dim") else "window 0 3" if line.startswith("window") else line
                     for line in lines]
            lines.append("top " + " ".join(map(str, sorted(quad))))
        if toks is not None:
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def _shift_ids(text, shift):
    """``text`` with every vertex id raised by ``shift``."""
    lines = []
    for line in text.splitlines():
        toks = line.split()
        if toks[0] in ("top", "weight"):
            ids = slice(1, None) if toks[0] == "top" else slice(1, 3)
            toks[ids] = [str(int(t) + shift) for t in toks[ids]]
        elif toks[0] not in ("dim", "window", "chain"):
            toks = [str(int(t) + shift) for t in toks]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def _damaged(text, data):
    """The bytes of a damaged file: mostly an edit of ``text``, sometimes
    a file that was never text of any format: empty, or binary."""
    kind = data.draw(st.sampled_from(["edit"] * 10 + ["empty", "binary"]))
    if kind == "empty":
        return b""
    if kind == "binary":
        return data.draw(st.binary(min_size=1, max_size=200))
    return _mutate(text, data).encode()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_mutated_inputs_exit_cleanly(torus, tmp_path_factory, data):
    """Every subcommand that reads a complex and a chain, on damaged files,
    on files whose ids are huge, and on windows that start above 0."""
    K, zeta = torus
    # a few weight lines, so that their parse is damaged too
    W = build_complex(list(K.simplices[2]), (0, 2), {e: 2 + i for i, e in enumerate(K.simplices[1][:3])})
    shift = data.draw(st.sampled_from([0, 0, 2**63, 10**30]), label="id shift")
    window = data.draw(st.sampled_from(["window 0 2"] * 4 + ["window 1 2", "window 2 2"]), label="window")
    d = tmp_path_factory.mktemp("mutated")

    def damaged(name, text):
        p = d / name
        p.write_bytes(_damaged(_shift_ids(text, shift), data))
        return str(p)

    scx = damaged("m.scx", emit_complex(W).replace("window 0 2", window))
    chn = damaged("m.chn", emit_chain(K, zeta))
    bounding = damaged("b.chn", "chain 1\n0 1\n0 3\n1 3\n")  # ∂ of triangle 013
    tri = damaged("t.chn", "chain 2\n0 1 3\n")
    # exit 1 is a clean answer too: no solution within k, or verified false
    assert main(["ths-fpt", "--complex", scx, "--cycle", chn, "--k", "6"]) in (0, 1, 2)
    assert main(["ths-surface", "--complex", scx, "--cycle", chn]) in (0, 1, 2)
    assert main(["global-ths", "--complex", scx, "--dim", "1", "--k", "3", "--seed", "1", "--trials", "2"]) in (0, 1, 2)
    assert main(["verify", "ths", "--complex", scx, "--cycle", chn, "--set", chn]) in (0, 1, 2)
    assert main(["verify", "bnt", "--complex", scx, "--cycle", bounding, "--set", tri]) in (0, 1, 2)
    assert main(["verify", "global-ths", "--complex", scx, "--dim", "1", "--set", chn]) in (0, 1, 2)
    assert main(["verify", "global-bnt", "--complex", scx, "--dim", "1", "--set", tri]) in (0, 1, 2)
    # the greedy always finds a cover of a bounding nonzero cycle
    assert main(["bnt-greedy", "--complex", scx, "--cycle", bounding]) in (0, 2)
    assert main(["global-bnt", "--complex", scx, "--dim", "1", "--seed", "1"]) in (0, 1, 2)
    # and exit 3 is the oracle's enumeration budget
    for kind, cycle in (("ths", chn), ("bnt", bounding), ("homologous", chn), ("coset", bounding)):
        assert main(["oracle", kind, "--complex", scx, "--cycle", cycle, "--kmax", "3"]) in (0, 1, 2, 3)


def _damaged_graph(data):
    """A colored triangle with a pendant vertex, its ids raised by 0, 2^63
    or 10^30, then damaged: a dropped token, a non-integer, a loop, an edge
    to an unknown vertex, a colour past k, or a line deleted."""
    shift = data.draw(st.sampled_from([0, 0, 2**63, 10**30]), label="id shift")
    v = [str(i + shift) for i in range(4)]
    lines = [f"vertex {v[0]} 1", f"vertex {v[1]} 2", f"vertex {v[2]} 3", f"vertex {v[3]} 1",
             f"edge {v[0]} {v[1]}", f"edge {v[0]} {v[2]}", f"edge {v[1]} {v[2]}", f"edge {v[3]} {v[1]}"]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        op = data.draw(st.sampled_from(["drop", "replace", "loop", "unknown", "gap", "delete"]))
        if op == "drop" and toks:
            del toks[data.draw(st.integers(0, len(toks) - 1))]
        elif op == "replace" and toks:
            bad = data.draw(st.sampled_from(["x", "1.5", "-1", "1e3", "0x3", "--", str(2**64)]))
            toks[data.draw(st.integers(0, len(toks) - 1))] = bad
        elif op == "loop":
            u = data.draw(st.sampled_from(v))
            toks = ["edge", u, u]
        elif op == "unknown":
            toks = ["edge", v[0], str(9 + shift)]
        elif op == "gap":
            toks = ["vertex", str(7 + shift), "5"]
        elif op == "delete":
            toks = []
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cli_gen_on_damaged_graphs_exits_cleanly(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("graph")
    cg = _write(d, "g.cg", _damaged_graph(data))
    m = data.draw(st.sampled_from(["-1", "0", "1", "3"]), label="m")
    for name in ("gadget-ths", "gadget-bnt"):
        out = [str(d / f"{name}.{ext}") for ext in ("scx", "chn", "json")]
        cmd = ["gen", name, "--graph", cg, "--m", m, "--out", out[0], "--chain-out", out[1], "--legend-out", out[2]]
        assert main(cmd) in (0, 2)
