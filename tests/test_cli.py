import argparse
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import format_rhs, format_stencil
from gravopt import cli
from gravopt.bruteforce import EnumBudget, enumerate_feasible
from gravopt.cli import (EXIT_GUARD, EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK,
                         EXIT_UNBOUNDED, EXIT_USAGE, dispatch, parse_rhs,
                         parse_stencil)
from gravopt.config import RunConfig
from gravopt.errors import InternalInconsistencyError
from gravopt.intlinalg import IntMat
from gravopt.nfold import NFoldRhs, NFoldStencil, nfold_matrix


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


def _as_multiway(doc):
    """The same p x q x n line-sum instance in the multiway-v1 schema."""
    p, q, n = doc["p"], doc["q"], doc["n"]
    margins = ([[[i, j, None], doc["u"][i][j]]
                for i in range(p) for j in range(q)]
               + [[[i, None, k], doc["v"][i][k]]
                  for i in range(p) for k in range(n)]
               + [[[None, j, k], doc["z"][j][k]]
                  for j in range(q) for k in range(n)])
    weights = [[[[i, j, k], table[i][j][k]] for i in range(p)
                for j in range(q) for k in range(n)]
               for table in doc["weights"]]
    return {"schema": "multiway-v1", "dims": [p, q], "n": n,
            "family": [[0, 1], [0, 2], [1, 2]], "margins": margins,
            "weights": weights}


PACK_INSTANCE = {
    "schema": "pack-v1", "weights": [3, 2], "counts": [2, 2],
    "capacities": [5, 5, 4],
    "utilities": [[[1, 0, 0], [0, 1, 0]], [[0, 1, 1], [1, 0, 1]]]}

PARTITION_INSTANCE = {
    "schema": "partition-v1", "players": 2,
    "items": [[0, 0], [1, 0], [4, 0], [5, 0], [0, 3], [1, 3]],
    "sizes": [3, 3]}


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


# the 2x2 line-sum stencil: A1 = I_4, A2 = row and column sums of a layer
LINE_SUM_STENCIL = ("4 4 4\n4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
                    "4 4\n1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 0 1\n")


# n = 5 and 6 are completed, one brick per element; n = 7 is the first n
# that is lifted rather than completed; n = 128 is the nfold-graver-n128
# benchmark workload (perfbench/expected.json holds the digest of the
# list of this one digest)
@pytest.mark.parametrize("n, digest", [
    (5, "28e732dd41001dc04cb4884ead1a15d6f270a0fc544fd385d7c6579ecc2b4801"),
    (6, "f7faf8f1b10310c5e7442fd3f6785ab6bb2bc0cef441080db9c5077e756660c2"),
    (7, "f4b699f0ba85abfdfbf7dd3ecd7c382a768dd9470b0aff8c62a7cd6265ce3838"),
    (8, "ee7340d1cc421f0710384beb9e1d48fd1c4124409277539915fa7d44075b003d"),
    (16, "67c61caf8e386c67dfe2466e1bfd0e5f74864831a6fef5155abd7a22fa473739"),
    (128, "e4954272122250620e4508b79a50d771042ac90a60325e14030ec4799100275d"),
])
def test_nfold_graver_output_is_pinned(files, tmp_path, capsys, n, digest):
    stencil = files("st.txt", LINE_SUM_STENCIL)
    out = tmp_path / "basis.txt"
    assert dispatch(["nfold-graver", "--stencil", stencil, "--n", str(n),
                     "--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert f"{n * (n - 1) // 2} canonical elements" in capsys.readouterr().err


def test_graver_output_is_pinned(files, tmp_path):
    # written as one-brick placements, in format_matrix's text
    mat = files("b.mat", "2 4\n1 1 1 1\n1 2 3 4\n")
    out = tmp_path / "basis.txt"
    assert dispatch(["graver", mat, "--output", str(out)]) == EXIT_OK
    assert out.read_text() == ("5 4\n0 1 -2 1\n1 -2 1 0\n1 -1 -1 1\n"
                               "1 0 -3 2\n2 -3 0 1\n")


def test_graver_of_a_matrix_without_columns(files, capsys):
    mat = files("z.mat", "1 0\n")
    assert dispatch(["graver", mat]) == EXIT_OK
    assert capsys.readouterr().out == "0 0\n"


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


def test_solve_ip_matrix_checks_the_objective_length(files, monkeypatch,
                                                     capsys):
    def solve(*args, **kwargs):
        raise AssertionError("solved with a malformed objective")

    monkeypatch.setattr(cli, "solve_ip", solve)
    mat = files("m.mat", "1 2\n1 1\n")
    obj = files("o.mat", "1 3\n1 2 3\n")
    for b in ("-1", "3"):
        rhs = files("b.mat", f"1 1\n{b}\n")
        assert dispatch(["solve-ip", "--matrix", mat, "--rhs", rhs,
                         "--obj", obj]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: objective length != column count\n")


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


def test_multiway_transport_and_verify(files, capsys):
    inst = files("m.json", json.dumps(_as_multiway(TRANSPORT_INSTANCE)))
    assert dispatch(["transport", inst]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "transport-solution-v1"
    assert doc["status"] == "optimal"
    # the multiway view is the sorted [key, value] table of the same x
    table = dict((tuple(key), val) for key, val in doc["table"])
    assert [key for key, _ in doc["table"]] == sorted(
        [list(key) for key in table])
    assert sorted(table.values()) == sorted(doc["x"])
    three = files("t.json", json.dumps(TRANSPORT_INSTANCE))
    assert dispatch(["transport", three]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["z"] == doc["z"]
    assert dispatch(["verify", inst]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["instance_schema"] == "multiway-v1"
    assert report["pass"] is True and report["points"] == 2


def test_verify_pack_instance(files, capsys):
    pack = files("p.json", json.dumps(PACK_INSTANCE))
    assert dispatch(["verify", pack, "--objective", "linear"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["instance_schema"] == "pack-v1"
    assert report["pipeline_status"] == "optimal"
    assert report["pass"] is True and report["points"] > 1


def test_verify_infeasible_transport_stays_inside_the_guard(files, capsys):
    # u = 5s cannot be met with v = z = 1s; the box x <= 1 has 2^8 points
    bad = dict(TRANSPORT_INSTANCE, u=[[5, 5], [5, 5]])
    inst = files("t.json", json.dumps(bad))
    assert dispatch(["verify", inst]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pipeline_status"] == "infeasible"
    assert report["points"] == 0 and report["pass"] is True


def test_verify_handles_a_margin_past_int64(files, capsys):
    # no table meets u = 10^20 with v = z = 1s; the enumeration compares
    # against that margin on Python ints
    big = dict(TRANSPORT_INSTANCE, u=[[10 ** 20, 1], [1, 1]])
    inst = files("t.json", json.dumps(big))
    assert dispatch(["transport", inst]) == EXIT_INFEASIBLE
    capsys.readouterr()
    assert dispatch(["verify", inst]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pipeline_status"] == "infeasible"
    assert report["points"] == 0 and report["pass"] is True


def test_verify_checks_the_budget_before_solving(files, monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("verify solved before checking its budget")

    monkeypatch.setattr(cli, "solve_convex_nfold", solve)
    inst = files("t.json", json.dumps(TRANSPORT_INSTANCE))
    # the derived box x <= 1 has 2^8 = 256 points
    assert dispatch(["verify", inst, "--max-points", "100"]) == EXIT_GUARD
    out = capsys.readouterr()
    assert out.out == "" and "resource guard" in out.err


def _per_schema_bounds(doc, A, b):
    """The hand-written bounds verify used per schema before the box was
    derived from (A, b): 0/1 for partitions, counts plus residual slack
    for packing, max|b| for margin systems."""
    if doc["schema"] == "partition-v1":
        return (1,) * A.cols
    if doc["schema"] == "pack-v1":
        residual = sum(doc["capacities"]) - sum(
            c * w for c, w in zip(doc["counts"], doc["weights"]))
        per_layer = tuple(doc["counts"]) + (residual,)
        return per_layer * len(doc["capacities"])
    return (max(abs(v) for v in b),) * A.cols


@pytest.mark.parametrize("doc", [TRANSPORT_INSTANCE,
                                 _as_multiway(TRANSPORT_INSTANCE),
                                 PACK_INSTANCE, PARTITION_INSTANCE],
                         ids=lambda doc: doc["schema"])
def test_enumeration_box_is_derived_from_the_system(doc):
    stencil, n, rhs, _weights, _decode = cli.LOADERS[doc["schema"]](doc)
    A, b = nfold_matrix(stencil, n), rhs.concat()
    box = cli.enumeration_box(A, b)
    wide = _per_schema_bounds(doc, A, b)
    assert box is not None and len(box) == A.cols
    assert all(0 <= lo <= hi for lo, hi in zip(box, wide))
    points = enumerate_feasible(A, b, EnumBudget(bounds=wide))
    assert points
    assert all(all(v <= cap for v, cap in zip(x, box)) for x in points)
    assert enumerate_feasible(A, b, EnumBudget(bounds=box)) == points


def test_enumeration_box_falls_back_without_a_nonnegative_row():
    A = IntMat(2, 3, ((1, 1, 0), (0, 1, -1)))
    assert cli.enumeration_box(A, (2, 0)) is None
    assert cli.enumeration_box(IntMat(1, 2, ((2, 3),)), (7, )) == (3, 2)
    # a nonnegative row with a negative right-hand side admits no x
    assert cli.enumeration_box(IntMat(1, 2, ((1, 1),)), (-1,)) == (0, 0)


def test_pack_and_partition_subcommands(files, capsys):
    pack = files("p.json", json.dumps(PACK_INSTANCE))
    assert dispatch(["pack", pack, "--objective", "linear"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal" and len(doc["bins"]) == 3
    part = files("q.json", json.dumps(PARTITION_INSTANCE))
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


def test_threads_is_not_an_option(files, capsys):
    gens = files("g.mat", "1 2\n1 1\n")
    assert dispatch(["zonotope", gens, "--threads", "2"]) == EXIT_USAGE
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


# one valid argument list per subcommand; parsing reads no file
SUBCOMMAND_ARGS = {
    "graver": ["m.txt"],
    "nfold-graver": ["--stencil", "s.txt", "--n", "2"],
    "zonotope": ["g.txt"],
    "solve-ip": ["--stencil", "s.txt", "--n", "2", "--rhs", "r.txt",
                 "--obj", "o.txt"],
    "solve-convex": ["--stencil", "s.txt", "--n", "2", "--rhs", "r.txt",
                     "--weights", "w.txt"],
    "transport": ["i.json"], "pack": ["i.json"], "partition": ["i.json"],
    "verify": ["i.json"],
}


def _subparsers() -> dict:
    action, = (a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_lift_cap_is_not_an_option(capsys):
    assert set(_subparsers()) == set(SUBCOMMAND_ARGS)
    for command, args in SUBCOMMAND_ARGS.items():
        assert dispatch([command, *args, "--lift-cap", "5"]) == EXIT_USAGE
        assert "unrecognized arguments: --lift-cap 5" in capsys.readouterr().err


def test_a_malformed_guard_variable_is_named(files, monkeypatch, capsys):
    mat = files("m.txt", "1 3\n1 2 1\n")
    monkeypatch.setenv("GRAVOPT_DIM_CAP", "abc")
    assert dispatch(["graver", mat]) == EXIT_USAGE
    assert "GRAVOPT_DIM_CAP must be an integer, got 'abc'" \
        in capsys.readouterr().err


@pytest.mark.parametrize("env, flags, source", [
    ({"GRAVOPT_BASIS_CAP": "0"}, [], "GRAVOPT_BASIS_CAP"),
    ({}, ["--basis-cap", "0"], "--basis-cap"),
], ids=["variable", "flag"])
def test_a_non_positive_guard_is_named(files, monkeypatch, capsys, env,
                                       flags, source):
    mat = files("m.txt", "1 3\n1 2 1\n")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert dispatch(["graver", mat, *flags]) == EXIT_USAGE
    assert f"{source} must be positive, got 0" in capsys.readouterr().err
    with pytest.raises(ValueError, match="basis_cap must be positive"):
        RunConfig(basis_cap=0)


def test_a_non_integer_rhs_entry_names_the_file(files, capsys):
    stencil = files("st.txt", "1 0 2\n1 2\n1 1\n0 2\n")
    rhs = files("r.txt", "1 0 2\n1 1 1 x\n")
    obj = files("o.mat", "1 4\n1 1 1 1\n")
    assert dispatch(["solve-ip", "--stencil", stencil, "--n", "2",
                     "--rhs", rhs, "--obj", obj]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: {rhs}: non-integer token in rhs body" in err
    assert "'x'" in err


def test_readme_guard_table_matches_the_run_config():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Resource guards", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("| `--")]
    expected = [(f"`--{f.name.replace('_', '-')}`",
                 f"`GRAVOPT_{f.name.upper()}`", f.default)
                for f in fields(RunConfig)]
    assert [(flag, env, int(default.replace(" ", "")))
            for flag, env, default, _ in rows] == expected
    flags = {flag.strip("`") for flag, _, _ in expected}
    for command, parser in _subparsers().items():
        guards = {opt for a in parser._actions for opt in a.option_strings
                  if opt.endswith("-cap")}
        assert guards == flags, command


def test_objective_length_is_checked_before_solving(files, monkeypatch,
                                                    capsys):
    def solve(*args, **kwargs):
        raise AssertionError("solved with a malformed objective")

    monkeypatch.setattr(cli, "solve_convex_nfold", solve)
    inst = files("t.json", json.dumps(TRANSPORT_INSTANCE))
    empty_row = files("c.mat", "1 0\n")
    for command in ("transport", "verify"):
        assert dispatch([command, inst, "--objective",
                         "linear:" + empty_row]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: objective rows have length 0, expected d=2\n")


def test_malformed_instances_are_usage_errors(files, capsys):
    listed = files("list.json", "[1, 2]")
    assert dispatch(["transport", listed]) == EXIT_USAGE
    assert "must be a JSON object" in capsys.readouterr().err
    partial = dict(TRANSPORT_INSTANCE)
    del partial["q"]
    missing = files("missing.json", json.dumps(partial))
    assert dispatch(["verify", missing]) == EXIT_USAGE
    assert "missing field 'q'" in capsys.readouterr().err
    wrong = files("wrong.json", json.dumps(dict(PACK_INSTANCE, counts=5)))
    assert dispatch(["pack", wrong]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def _with_first_entry(value, entry):
    """A copy of a nested list with its first scalar replaced by entry."""
    if isinstance(value, list):
        return [_with_first_entry(value[0], entry)] + value[1:]
    return entry


@pytest.mark.parametrize("command, doc, field", [
    ("transport", TRANSPORT_INSTANCE, "u"),
    ("pack", PACK_INSTANCE, "weights"),
    ("partition", PARTITION_INSTANCE, "items"),
    ("verify", TRANSPORT_INSTANCE, "z"),
], ids=["transport", "pack", "partition", "verify"])
def test_non_integer_fields_are_usage_errors(files, capsys, command, doc,
                                             field):
    # int() would read each of these as 1, or truncate 1.7 to it
    for entry in (1.7, True, "1"):
        bad = dict(doc, **{field: _with_first_entry(doc[field], entry)})
        inst = files("bad.json", json.dumps(bad))
        assert dispatch([command, inst]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"field {field!r} holds {entry!r}, not an integer\n")


def test_internal_fault_has_its_own_exit_code(files, monkeypatch, capsys):
    gens = files("g.mat", "1 2\n1 1\n")
    for fault in (InternalInconsistencyError("invariant failed"),
                  AssertionError(), KeyError("k"), TypeError("t")):
        def broken(*args, fault=fault, **kwargs):
            raise fault

        monkeypatch.setattr(cli, "zonotope_vertices", broken)
        assert dispatch(["zonotope", gens]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


def test_an_unexpected_exception_is_an_internal_error(files, monkeypatch,
                                                    capsys):
    # exit 1 would read as a verify mismatch
    def crash(*args, **kwargs):
        raise RuntimeError("crash")

    monkeypatch.setattr(cli, "solve_convex_nfold", crash)
    inst = files("t.json", json.dumps(TRANSPORT_INSTANCE))
    assert dispatch(["verify", inst]) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal error: RuntimeError('crash')\n")


def _with_first_line(value, edit):
    """A copy of a nested list with its first innermost list edited."""
    if isinstance(value[0], list):
        return [_with_first_line(value[0], edit)] + value[1:]
    return edit(value)


def test_weight_tables_of_the_wrong_shape_are_usage_errors(files, capsys):
    # a short table would escape as an IndexError, a long one be cut to
    # fit and an extra key be ignored
    short, long = (lambda line: line[:-1]), (lambda line: line + [0])
    multiway = _as_multiway(TRANSPORT_INSTANCE)
    extra = [multiway["weights"][0] + [[[0, 0, 2], 1]]] \
        + multiway["weights"][1:]
    cases = [("transport", dict(TRANSPORT_INSTANCE, weights=_with_first_line(
                 TRANSPORT_INSTANCE["weights"], edit)))
             for edit in (short, long)]
    cases += [("pack", dict(PACK_INSTANCE, utilities=_with_first_line(
                  PACK_INSTANCE["utilities"], edit)))
              for edit in (short, long)]
    cases.append(("transport", dict(multiway, weights=extra)))
    for command, doc in cases:
        inst = files("bad.json", json.dumps(doc))
        for cmd in (command, "verify"):
            assert dispatch([cmd, inst]) == EXIT_USAGE, (cmd, doc)
            assert capsys.readouterr().err.startswith("error: ")


def test_repeated_multiway_keys_are_usage_errors(files, capsys):
    # a dict built from the pairs would keep the last value of a key
    multiway = _as_multiway(TRANSPORT_INSTANCE)
    margins = multiway["margins"] + [[[0, 0, None], 7]]
    weights = [multiway["weights"][0] + [[[0, 0, 0], 9]]] \
        + multiway["weights"][1:]
    for doc, message in ((dict(multiway, margins=margins),
                          "repeated margin key [0, 0, null]"),
                         (dict(multiway, weights=weights),
                          "repeated weight key [0, 0, 0]")):
        inst = files("dup.json", json.dumps(doc))
        for cmd in ("transport", "verify"):
            assert dispatch([cmd, inst]) == EXIT_USAGE
            assert message in capsys.readouterr().err


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
