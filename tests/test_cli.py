import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravopt import cli
from gravopt.cli import (EXIT_GUARD, EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK,
                         EXIT_UNBOUNDED, EXIT_USAGE, dispatch, format_rhs,
                         format_stencil, parse_rhs, parse_stencil)
from gravopt.errors import InternalInconsistencyError
from gravopt.intlinalg import IntMat
from gravopt.nfold import NFoldRhs, NFoldStencil


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


TRANSPORT_INSTANCE = {
    "schema": "transport-v1", "p": 2, "q": 2, "n": 2,
    "u": [[1, 1], [1, 1]], "v": [[1, 1], [1, 1]], "z": [[1, 1], [1, 1]],
    "weights": [[[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]],
}


def test_stencil_roundtrip():
    st_obj = NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(1, 2, ((1, -1),)))
    assert parse_stencil(format_stencil(st_obj)) == st_obj
    empty_a2 = NFoldStencil(IntMat(1, 2, ((1, 1),)), IntMat(0, 2, ()))
    assert parse_stencil(format_stencil(empty_a2)) == empty_a2


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(1, 3),
       st.integers(0, 10 ** 6))
def test_rhs_roundtrip(r, s, n, seed):
    import random
    rng = random.Random(seed)
    rhs = NFoldRhs.make(tuple(rng.randint(-5, 5) for _ in range(r)),
                        [tuple(rng.randint(-5, 5) for _ in range(s))
                         for _ in range(n)])
    assert parse_rhs(format_rhs(rhs)) == rhs


def test_graver_subcommand(files, capsys):
    mat = files("a.mat", "1 3\n1 2 1\n")
    assert dispatch(["graver", mat]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "4 3\n0 1 -2\n1 -1 1\n1 0 -1\n2 -1 0\n"


def test_nfold_graver_subcommand(files, capsys):
    stencil = files("st.txt", "1 0 1\n1 1\n1\n0 1\n")
    assert dispatch(["nfold-graver", "--stencil", stencil, "--n", "2"]) == \
        EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[1] == "2"


def test_zonotope_subcommand(files, capsys):
    gens = files("g.mat", "2 2\n1 0\n0 1\n")
    assert dispatch(["zonotope", gens]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4 and all(" ; " in ln for ln in lines)


def test_solve_ip_nfold_and_exit_codes(files, capsys):
    stencil = files("st.txt", "1 0 2\n1 2\n1 1\n0 2\n")
    rhs = files("rhs.txt", "1 0 1\n3\n")
    obj = files("obj.mat", "1 2\n2 1\n")
    assert dispatch(["solve-ip", "--stencil", stencil, "--n", "1",
                     "--rhs", rhs, "--obj", obj]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal" and doc["value"] == 6
    bad_rhs = files("bad.txt", "1 0 1\n-1\n")
    assert dispatch(["solve-ip", "--stencil", stencil, "--n", "1",
                     "--rhs", bad_rhs, "--obj", obj]) == EXIT_INFEASIBLE


def test_solve_ip_matrix_unbounded(files, capsys):
    mat = files("m.mat", "1 2\n1 -1\n")
    rhs = files("b.mat", "1 1\n0\n")
    obj = files("o.mat", "1 2\n1 1\n")
    assert dispatch(["solve-ip", "--matrix", mat, "--rhs", rhs,
                     "--obj", obj]) == EXIT_UNBOUNDED
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unbounded" and doc["certificate"] == [1, 1]


def test_solve_convex_subcommand(files, capsys):
    stencil = files("st.txt", "1 0 2\n1 2\n1 1\n0 2\n")
    rhs = files("rhs.txt", "1 0 1\n3\n")
    weights = files("w.mat", "2 2\n1 0\n0 1\n")
    assert dispatch(["solve-convex", "--stencil", stencil, "--n", "1",
                     "--rhs", rhs, "--weights", weights,
                     "--objective", "norm2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["z"] == [0, 3]
    assert doc["stats"]["identity_checks"] > 0


def test_transport_subcommand_and_verify(files, capsys):
    inst = files("t.json", json.dumps(TRANSPORT_INSTANCE))
    assert dispatch(["transport", inst]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal" and "table" in doc
    assert dispatch(["verify", inst]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    bad = dict(TRANSPORT_INSTANCE)
    bad["u"] = [[5, 5], [5, 5]]
    inst2 = files("t2.json", json.dumps(bad))
    assert dispatch(["transport", inst2]) == EXIT_INFEASIBLE


def test_pack_and_partition_subcommands(files, capsys):
    pack = files("p.json", json.dumps({
        "schema": "pack-v1", "weights": [3, 2], "counts": [2, 2],
        "capacities": [5, 5, 4],
        "utilities": [[[1, 0, 0], [0, 1, 0]], [[0, 1, 1], [1, 0, 1]]]}))
    assert dispatch(["pack", pack, "--objective", "linear"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal" and len(doc["bins"]) == 3
    part = files("q.json", json.dumps({
        "schema": "partition-v1", "players": 2,
        "items": [[0, 0], [1, 0], [4, 0], [5, 0], [0, 3], [1, 3]],
        "sizes": [3, 3]}))
    assert dispatch(["partition", part]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["variance"] == {"num": 46, "den": 9}
    assert dispatch(["verify", part]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_guard_and_usage_exit_codes(files, capsys):
    gens = files("g.mat", "1 2\n1 1\n")
    assert dispatch(["zonotope", gens, "--dim-cap", "1"]) == EXIT_GUARD
    assert dispatch(["graver", "/no/such/file"]) == EXIT_USAGE
    assert dispatch(["graver"]) == EXIT_USAGE
    bad = files("bad.json", "{not json")
    assert dispatch(["verify", bad]) == EXIT_USAGE
    capsys.readouterr()


def test_internal_fault_has_its_own_exit_code(files, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInconsistencyError("invariant failed")

    monkeypatch.setattr(cli, "zonotope_vertices", broken)
    gens = files("g.mat", "1 2\n1 1\n")
    assert dispatch(["zonotope", gens]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_env_overrides_and_flag_precedence(files, monkeypatch, capsys):
    gens = files("g.mat", "1 2\n1 1\n")
    monkeypatch.setenv("GRAVOPT_DIM_CAP", "1")
    assert dispatch(["zonotope", gens]) == EXIT_GUARD
    assert dispatch(["zonotope", gens, "--dim-cap", "6"]) == EXIT_OK
    capsys.readouterr()


def test_output_file_is_written_atomically(files, tmp_path, capsys):
    mat = files("a.mat", "1 3\n1 2 1\n")
    target = tmp_path / "basis.mat"
    assert dispatch(["graver", mat, "--output", str(target)]) == EXIT_OK
    assert target.read_text().startswith("4 3\n")
    assert capsys.readouterr().out == ""
    leftovers = [p for p in tmp_path.iterdir()
                 if p.name.startswith(".gravopt-")]
    assert not leftovers


def test_round_trip_solution_files(files, tmp_path, capsys):
    stencil = files("st.txt", "1 0 2\n1 2\n1 1\n0 2\n")
    rhs = files("rhs.txt", "1 0 1\n3\n")
    obj = files("obj.mat", "1 2\n2 1\n")
    sol = tmp_path / "x.mat"
    assert dispatch(["solve-ip", "--stencil", stencil, "--n", "1",
                     "--rhs", rhs, "--obj", obj,
                     "--solution", str(sol)]) == EXIT_OK
    from gravopt.intlinalg import parse_matrix
    x = parse_matrix(sol.read_text())
    doc = json.loads(capsys.readouterr().out)
    assert list(x.data[0]) == doc["x"]
