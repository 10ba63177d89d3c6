import json
import subprocess
import sys

import pytest

from swindex import bounds, format_edge_list, parse_edge_list, path_graph, cycle_graph, complete_graph
from swindex.cli import _parser, build_parser, main
from swindex.graph import MAX_VERTICES


@pytest.fixture()
def graph_file(tmp_path):
    def write(g, name="g.txt"):
        path = tmp_path / name
        path.write_text(format_edge_list(g))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_family(capsys):
    code, out, _ = run(capsys, "compute", "--family", "path", "--size", "4", "--k", "3")
    assert code == 0 and out == "10\n"
    code, out, _ = run(capsys, "compute", "--family", "cycle", "--size", "5")
    assert code == 0 and out == "15\n"
    code, out, _ = run(capsys, "compute", "--family", "path", "--size", "4", "--metric", "mu")
    assert code == 0 and out == "5/3\n"


def test_compute_graph_file(capsys, graph_file):
    path = graph_file(path_graph(7))
    code, out, _ = run(capsys, "compute", "--graph", path)
    assert code == 0 and out == "56\n"


def test_compute_weighted(capsys, graph_file, tmp_path):
    path = graph_file(path_graph(3))
    wfile = tmp_path / "w.txt"
    wfile.write_text("0 2\n1 1\n2 1\n")
    code, out, _ = run(capsys, "compute", "--graph", path, "--weights", str(wfile))
    assert code == 0 and out == "7\n"
    code, out, _ = run(
        capsys, "compute", "--graph", path, "--uniform-weight", "2", "--metric", "mu"
    )
    # six copies over three path vertices: 16 total over C(6,2) pairs
    assert code == 0 and out == "16/15\n"
    code, out, _ = run(capsys, "compute", "--graph", path, "--uniform-weight", "1")
    assert code == 0 and out == "4\n"


def test_compute_error_codes(capsys, graph_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 0\n")
    code, _, err = run(capsys, "compute", "--graph", str(bad))
    assert code == 2 and "u < v" in err
    code, _, err = run(capsys, "compute", "--graph", str(tmp_path / "missing.txt"))
    assert code == 2
    # disconnected graph is a computation precondition, not a usage error
    disc = tmp_path / "disc.txt"
    disc.write_text("3 1\n0 1\n")
    code, _, err = run(capsys, "compute", "--graph", str(disc))
    assert code == 3 and "disconnected" in err
    path = graph_file(path_graph(3))
    code, _, err = run(capsys, "compute", "--graph", path, "--k", "9")
    assert code == 3 and "out of range" in err


# one row per kind of refusal; `@name` is a file in the test's directory
@pytest.mark.parametrize("argv, code", [
    (["generate", "--family", "G", "--d", "3", "--delta", "4"], 2),
    (["compute", "--family", "cycle", "--size", "2"], 2),
    (["bound", "--which", "theorem4", "--n", "16", "--k", "2"], 2),
    (["bound", "--which", "theorem1", "--n", "4", "--k", "5"], 2),
    (["sweep", "--family", "G", "--delta", "2", "--k", "1", "--d-min", "2", "--d-max", "3"], 2),
    (["sweep", "--family", "H", "--delta", "2", "--k", "12", "--d-min", "3", "--d-max", "8"], 3),
    (["compute", "--graph", "@disconnected"], 3),
    (["construct", "--graph", "@disconnected", "--method", "packing"], 3),
    (["compute", "--graph", "@bad"], 2),
    (["compute", "--graph", "@missing"], 2),
], ids=[
    "family_rule", "classic_size", "bound_missing", "bound_domain", "sweep_k_below_2",
    "sweep_k_above_n", "disconnected", "construct_disconnected", "bad_file", "missing_file",
])
def test_exit_code_per_refusal_kind(argv, code, capsys, tmp_path):
    (tmp_path / "bad").write_text("2 1\n1 0\n")
    (tmp_path / "disconnected").write_text("3 1\n0 1\n")
    argv = [str(tmp_path / tok[1:]) if tok.startswith("@") else tok for tok in argv]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "") and err.startswith("error: ")


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "--which", "theorem4", "--n", "16", "--delta", "5", "--k", "2")
    assert code == 0 and out == "1120\n"
    code, out, _ = run(capsys, "bound", "--which", "lemma2", "--N", "3", "--C", "1", "--k", "2")
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "bound", "--which", "theorem3", "--n", "7", "--delta", "1")
    assert code == 0 and out == "231/2\n"
    code, _, err = run(capsys, "bound", "--which", "theorem4", "--n", "16", "--k", "2")
    assert code == 2 and "--delta" in err


def test_construct_command(capsys, graph_file, tmp_path):
    path = graph_file(path_graph(7))
    out_file = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "construct", "--graph", path, "--method", "packing", "--out", str(out_file)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "anchors 0 3 6"
    assert lines[-1] == "result PASS"
    assert any(line.startswith("vertex_coverage PASS") for line in lines)
    payload = json.loads(out_file.read_text())
    assert set(payload) == {"anchors", "assignment", "connectors", "tree_edges", "weights"}

    code, out, _ = run(capsys, "construct", "--graph", graph_file(path_graph(8), "p8.txt"), "--method", "matching")
    assert code == 0
    assert out.splitlines()[0] == "anchors 0-1 4-5"

    code, _, err = run(capsys, "construct", "--graph", graph_file(complete_graph(4), "k4.txt"), "--method", "matching")
    assert code == 3 and "triangle" in err


def test_generate_command(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--family", "H", "--d", "4", "--delta", "2")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 9
    out_file = tmp_path / "g.txt"
    code, _, _ = run(capsys, "generate", "--family", "path", "--size", "5", "--out", str(out_file))
    assert code == 0 and parse_edge_list(out_file.read_text()).adj == path_graph(5).adj
    code, _, err = run(capsys, "generate", "--family", "G", "--d", "3", "--delta", "4")
    assert code == 2 and "divisible" in err
    code, _, err = run(capsys, "generate")
    assert code == 2


def test_verify_command(capsys, graph_file):
    code, out, err = run(capsys, "verify", "--graph", graph_file(path_graph(4)))
    assert code == 0
    assert "eq1 PASS" in out and "theorem1 PASS" in out
    assert "skip eq2" in err
    code, out, _ = run(
        capsys, "verify", "--graph", graph_file(cycle_graph(5), "c5.txt"), "--which", "eq2"
    )
    assert code == 0 and out.startswith("eq2 PASS")


def test_verify_measures_each_index_once(capsys, graph_file, monkeypatch):
    calls = []
    measure = bounds._indices

    def counting(g, c, ks):
        calls.append(sorted(ks))
        return measure(g, c, ks)

    monkeypatch.setattr(bounds, "_indices", counting)
    g = cycle_graph(8)
    code, out, _ = run(capsys, "verify", "--graph", graph_file(g), "--all", "--k", "4")
    # eight bounds apply to C8 at k = 4; they read only SW_2 and SW_4, and
    # one engine call measures both
    assert code == 0 and calls == [[2, 4]]
    names = [name for name in bounds.BOUND_IDS if bounds.applicable(g, name, 4)[0]]
    assert len(names) == 8
    assert out == "".join(f"{bounds.check(g, name, 4)}\n" for name in names)


def test_non_ascii_input_is_a_format_error(capsys, graph_file, tmp_path):
    # int() reads Arabic-Indic digits, so these files would parse as 0 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n\u0660 \u0661\n", encoding="utf-8")
    code, out, err = run(capsys, "compute", "--graph", str(bad))
    assert code == 2 and out == "" and "ASCII" in err
    wfile = tmp_path / "w.txt"
    wfile.write_text("0 \u0662\n", encoding="utf-8")
    code, out, err = run(capsys, "compute", "--graph", graph_file(path_graph(2)), "--weights", str(wfile))
    assert code == 2 and out == "" and "ASCII" in err


def test_vertex_cap_is_a_format_error(capsys, tmp_path):
    # a header-only file must not be able to ask for unbounded allocation
    big = tmp_path / "big.txt"
    big.write_text(f"{MAX_VERTICES + 1} 0\n")
    for argv in (["compute"], ["verify", "--all"], ["construct", "--method", "packing"]):
        code, out, err = run(capsys, *argv, "--graph", str(big))
        assert code == 2 and out == "" and f"{MAX_VERTICES}" in err


def test_file_errors_exit_2(capsys, graph_file, tmp_path):
    # an --out that cannot be written fails before anything reaches stdout
    nowhere = str(tmp_path / "missing" / "out")
    for argv in (
        ["construct", "--graph", graph_file(cycle_graph(9)), "--method", "packing"],
        ["generate", "--family", "path", "--size", "5"],
        ["sweep", "--family", "G", "--delta", "2", "--d-min", "2", "--d-max", "3"],
    ):
        code, out, err = run(capsys, *argv, "--out", nowhere)
        assert (code, out) == (2, "") and err.startswith("error:") and "missing" in err
    # an unreadable input file is the same input error for every command
    for argv in (["compute"], ["verify", "--all"], ["construct", "--method", "packing"]):
        code, out, err = run(capsys, *argv, "--graph", nowhere)
        assert (code, out) == (2, "") and "missing" in err


def test_sweep_command(capsys, tmp_path):
    code, out, err = run(
        capsys, "sweep", "--family", "G", "--delta", "2", "--d-min", "2", "--d-max", "8"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,n,sw_k,bound_term,ratio"
    assert len(lines) == 8
    assert lines[-1].startswith("8,11,202,")
    assert "triangles" in err  # delta=2 end cliques are triangles

    code, _, err = run(
        capsys, "sweep", "--family", "H", "--delta", "3", "--d-min", "3", "--d-max", "4"
    )
    assert code == 2 and "even" in err
    code, _, err = run(
        capsys, "sweep", "--family", "H", "--delta", "2", "--d-min", "1", "--d-max", "4"
    )
    assert code == 2


def test_usage_errors(capsys):
    assert run(capsys, "nosuchcmd")[0] == 2
    assert run(capsys, "compute")[0] == 2  # no graph source
    assert run(capsys, "compute", "--family", "path")[0] == 2  # size missing
    assert run(capsys, "compute", "--family", "complete_bipartite", "--size", "2")[0] == 2


def test_deterministic_output(capsys, graph_file):
    path = graph_file(cycle_graph(9))
    first = run(capsys, "construct", "--graph", path, "--method", "packing")
    second = run(capsys, "construct", "--graph", path, "--method", "packing")
    assert first == second


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "swindex.cli", "compute", "--family", "path", "--size", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "10\n"


def test_one_parser_serves_every_run(capsys, graph_file):
    # the parser is built once per process; a usage error, a compute and a
    # verify in a row each print what a fresh process prints
    g = graph_file(cycle_graph(9))
    runs = [
        ["compute", "--graph", g, "--k", "x"],
        ["compute", "--graph", g, "--k", "3", "--metric", "mu"],
        ["verify", "--graph", g, "--all", "--k", "3"],
    ]
    got = [run(capsys, *argv) for argv in runs]
    for argv, (code, out, err) in zip(runs, got):
        proc = subprocess.run(
            [sys.executable, "-m", "swindex.cli", *argv], capture_output=True, text=True
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert [code for code, _, _ in got] == [2, 0, 0]
    assert "invalid int value: 'x'" in got[0][2] and got[1][1] == "111/28\n"
    assert got[2][1].startswith("eq1 PASS")
    # main shares one parser; build_parser hands every caller a new one
    assert _parser() is _parser() and build_parser() is not _parser()
