"""Command-line entry point.

Subcommands: graver, nfold-graver, zonotope, solve-ip, solve-convex,
transport, pack, partition, verify.  The last four read a JSON instance
through one schema table: LOADERS maps each instance schema to its
loader, and COMMANDS maps each command to its output schema and the
instance schemas it accepts.  Machine-readable output goes to stdout (or
--output, written atomically); a short human summary goes to stderr.
Exit codes: 0 optimal/success, 1 verify mismatch, 2 infeasible,
3 unbounded, 4 guard/resource limit, 5 usage error, 6 internal error
(any other exception).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import fields
from typing import Iterable, Iterator, Optional

from .apps import (MultiwayInstance, PackingInstance, PartitionInstance,
                   build_multiway, build_packing, build_partition,
                   build_threeway, cluster_variance)
from .bruteforce import EnumBudget, brute_convex_max, enumerate_feasible
from .config import RunConfig
from .convexopt import (INFEASIBLE_OUTCOME, UNBOUNDED_POLYHEDRON,
                        LinearObjective, MaxLinearObjective, ObjectiveWeights,
                        SquaredNormObjective, solve_convex_nfold)
from .errors import (GravoptError, InfeasibleInstanceError,
                     InternalInconsistencyError, ResourceLimitError,
                     UsageError)
from .graver import graver_basis
from .intlinalg import IntMat, format_matrix, parse_matrix
from .ipsolve import INFEASIBLE, UNBOUNDED, solve_ip, solve_nfold_ip
from .nfold import NFoldRhs, NFoldStencil, nfold_graver, nfold_matrix
from .zonotope import zonotope_vertices

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_GUARD = 4
EXIT_USAGE = 5
EXIT_INTERNAL = 6


# ---------------------------------------------------------------------------
# File formats.

def parse_stencil(text: str) -> NFoldStencil:
    """Header line "r s t", then the two matrix blocks A1 (r x t) and
    A2 (s x t) in the matrix text format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise UsageError("empty stencil file")
    try:
        r, s, t = (int(v) for v in lines[0].split())
    except ValueError:
        raise UsageError("stencil header must be three integers: r s t") from None
    a1 = parse_matrix("\n".join(lines[1:2 + r]))
    a2 = parse_matrix("\n".join(lines[2 + r:3 + r + s]))
    if (a1.rows, a1.cols) != (r, t) or (a2.rows, a2.cols) != (s, t):
        raise UsageError("stencil blocks disagree with the r s t header")
    return NFoldStencil(a1, a2)


def parse_rhs(text: str) -> NFoldRhs:
    """Header line "r s n", one line of r integers (b0), then n lines of
    s integers (per-layer right-hand sides)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise UsageError("empty rhs file")
    try:
        r, s, n = (int(v) for v in lines[0].split())
    except ValueError:
        raise UsageError("rhs header must be three integers: r s n") from None
    try:
        body = [tuple(int(v) for v in ln.split()) for ln in lines[1:]]
    except ValueError as exc:
        raise UsageError(f"non-integer token in rhs body: {exc}") from None
    # empty lines (r == 0 or s == 0) are omitted from the body
    expected = (1 if r else 0) + (n if s else 0)
    if len(body) != expected:
        raise UsageError("rhs body disagrees with the r s n header")
    b0 = body[0] if r else ()
    layers = body[1 if r else 0:] if s else [()] * n
    if len(b0) != r or any(len(row) != s for row in layers):
        raise UsageError("rhs body disagrees with the r s n header")
    return NFoldRhs.make(b0, layers)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _read_parsed(path: str, parse=parse_matrix):
    """parse(text of the file at path); a parse error names the file."""
    text = _read(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _write_atomic(path: str, lines: Iterable[str]) -> None:
    """An unwritable path is a usage error; the temporary file never stays."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gravopt-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(payload: str | Iterable[str], output) -> None:
    # a str is written whole: writelines would write it a character a time
    lines = [payload] if isinstance(payload, str) else payload
    if output:
        _write_atomic(output, lines)
    else:
        sys.stdout.writelines(lines)


def _summary(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Objective selector and JSON schemas.

def parse_objective(selector: str, d: int):
    """norm2 | linear | linear:<coeff-file> | maxlin:<rows-file>, for
    objective rows of length d (`linear` alone is the all-ones form)."""
    if selector == "norm2":
        return SquaredNormObjective()
    if selector == "linear":
        return LinearObjective((1,) * d)
    if selector.startswith("linear:"):
        mat = _read_parsed(selector[len("linear:"):])
        if mat.rows != 1:
            raise UsageError("linear objective file must have one row")
        objective = LinearObjective(mat.data[0])
    elif selector.startswith("maxlin:"):
        mat = _read_parsed(selector[len("maxlin:"):])
        if mat.rows == 0:
            raise UsageError("maxlin objective file must have at least one row")
        objective = MaxLinearObjective(mat.data)
    else:
        raise UsageError(f"unknown objective selector {selector!r}")
    if mat.cols != d:
        raise UsageError(
            f"objective rows have length {mat.cols}, expected d={d}")
    return objective


def _config_from_args(args) -> RunConfig:
    return RunConfig.from_env(**{f.name: getattr(args, f.name, None)
                                 for f in fields(RunConfig)})


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_graver(args, config: RunConfig) -> int:
    basis = graver_basis(_read_parsed(args.matrix), config)
    half = _emit_basis(basis, args.output)
    _summary(f"graver: {half} canonical elements ({len(basis)} with signs)")
    return EXIT_OK


def _cmd_nfold_graver(args, config: RunConfig) -> int:
    stencil = _read_parsed(args.stencil, parse_stencil)
    half = _emit_basis(nfold_graver(stencil, args.n, config), args.output)
    _summary(f"nfold-graver: n={args.n}, {half} canonical elements")
    return EXIT_OK


def _emit_basis(basis, output) -> int:
    """Write the basis's canonical half; return its size."""
    half = basis.half_placements()
    _emit(format_placements(half, basis.n, basis.t), output)
    return len(half)


def format_placements(half: list, n: int, t: int) -> Iterator[str]:
    """`format_matrix`'s text, line by line, for rows of length n given
    as (bricks, positions) pairs of bricks of width t: each row joins
    cached brick strings and the runs of zeros between them, cut from one
    zero row."""
    blank = " ".join("0" * n)  # k zeros: blank[:2k - 1]
    texts: dict = {}
    yield f"{len(half)} {n}\n"
    for bricks, positions in half:
        parts, end = [], 0
        for brick, pos in zip(bricks, positions):
            if pos * t > end:
                parts.append(blank[:2 * (pos * t - end) - 1])
            if brick not in texts:
                texts[brick] = " ".join(map(str, brick))
            parts.append(texts[brick])
            end = pos * t + t
        if n > end:
            parts.append(blank[:2 * (n - end) - 1])
        yield " ".join(parts) + "\n"


def _cmd_zonotope(args, config: RunConfig) -> int:
    gens = _read_parsed(args.generators)
    verts = zonotope_vertices(list(gens.data), dim=gens.cols, config=config)
    lines = ["{} ; {}".format(" ".join(str(v) for v in zv.vertex),
                              " ".join(str(v) for v in zv.certificate))
             for zv in verts]
    _emit("\n".join(lines) + "\n", args.output)
    _summary(f"zonotope: {len(verts)} vertices from {gens.rows} generators")
    return EXIT_OK


def _cmd_solve_ip(args, config: RunConfig) -> int:
    obj = _read_parsed(args.obj)
    if obj.rows != 1:
        raise UsageError("objective file must be a single-row matrix")
    w = obj.data[0]
    if args.stencil:
        stencil = _read_parsed(args.stencil, parse_stencil)
        if args.n is None:
            raise UsageError("--n is required with --stencil")
        rhs = _read_parsed(args.rhs, parse_rhs)
        rhs.check_shape(stencil, args.n)
        if len(w) != args.n * stencil.t:
            raise UsageError("objective length != n*t")
        out = solve_nfold_ip(stencil, args.n, w, rhs, config)
    else:
        mat = _read_parsed(args.matrix)
        rhs_mat = _read_parsed(args.rhs)
        if rhs_mat.rows != 1 or rhs_mat.cols != mat.rows:
            raise UsageError("rhs for --matrix must be a single row of "
                             "length equal to the row count")
        if len(w) != mat.cols:
            raise UsageError("objective length != column count")
        out = solve_ip(mat, rhs_mat.data[0], w, config)
    doc = {"schema": "ip-solution-v1", "status": out.status}
    if out.status == INFEASIBLE:
        _emit(json.dumps(doc) + "\n", args.output)
        _summary("solve-ip: infeasible")
        return EXIT_INFEASIBLE
    if out.status == UNBOUNDED:
        doc["certificate"] = list(out.certificate)
        _emit(json.dumps(doc) + "\n", args.output)
        _summary("solve-ip: unbounded")
        return EXIT_UNBOUNDED
    doc["value"] = out.value
    doc["x"] = list(out.x)
    payload = json.dumps(doc) + "\n"
    if args.solution:
        _write_atomic(args.solution,
                      [format_matrix(IntMat(1, len(out.x), (out.x,)))])
    _emit(payload, args.output)
    _summary(f"solve-ip: optimal value {out.value}")
    return EXIT_OK


def _solve_and_emit(args, config: RunConfig, schema: str, stencil, n: int,
                    rhs, weights, decode=None) -> int:
    """Solve once; write the `schema` document, plus decode(x) when optimal,
    and the stderr summary; return the exit code."""
    objective = parse_objective(args.objective, weights.d)
    out = solve_convex_nfold(stencil, n, weights, rhs, objective, config)
    doc = {"schema": schema, "status": out.status}
    if out.is_optimal:
        doc["x"] = list(out.x)
        doc["z"] = list(out.z)
        doc["stats"] = {"oracle_queries": out.stats.oracle_queries,
                        "identity_checks": out.stats.identity_checks,
                        "vertices": out.stats.vertices}
        if decode is not None:
            doc.update(decode(out.x))
    _emit(json.dumps(doc) + "\n", args.output)
    _summary(f"{args.command}: {out.status}"
             + (f", z={out.z}" if out.is_optimal else ""))
    return {INFEASIBLE_OUTCOME: EXIT_INFEASIBLE,
            UNBOUNDED_POLYHEDRON: EXIT_UNBOUNDED}.get(out.status, EXIT_OK)


def _cmd_solve_convex(args, config: RunConfig) -> int:
    stencil = _read_parsed(args.stencil, parse_stencil)
    rhs = _read_parsed(args.rhs, parse_rhs)
    rhs.check_shape(stencil, args.n)
    wmat = _read_parsed(args.weights)
    if wmat.cols != args.n * stencil.t:
        raise UsageError("weight rows must have length n*t")
    return _solve_and_emit(args, config, "convex-solution-v1", stencil,
                           args.n, rhs, ObjectiveWeights.make(wmat.data))


# -- application instances ---------------------------------------------------
# A loader maps an instance document to (stencil, n, rhs, weights, decode),
# where decode(x) is the solution document's domain view.

def _load_transport(doc: dict):
    stencil, rhs, codec = build_threeway(doc["p"], doc["q"], doc["n"],
                                         doc["u"], doc["v"], doc["z"])
    return (stencil, doc["n"], rhs, codec.encode_weights(doc["weights"]),
            lambda x: {"table": codec.decode(x)})


def _keyed(pairs, what: str) -> dict:
    """{tuple(key): value} of [key, value] pairs; a repeated key would
    silently keep its last value, so it is a usage error."""
    table: dict = {}
    for key, val in pairs:
        if tuple(key) in table:
            raise UsageError(f"repeated {what} key {json.dumps(key)}")
        table[tuple(key)] = val
    return table


def _load_multiway(doc: dict):
    # margin keys serialized as [index-or-null, ...] lists
    inst = MultiwayInstance.make(
        doc["dims"], doc["n"], [frozenset(f) for f in doc["family"]],
        _keyed(doc["margins"], "margin"))
    stencil, rhs, codec = build_multiway(inst)
    weights = ObjectiveWeights.make(
        [codec.encode(_keyed(table, "weight")) for table in doc["weights"]])
    return (stencil, inst.n, rhs, weights,
            lambda x: {"table": [[list(key), val] for key, val
                                 in sorted(codec.decode(x).items())]})


def _load_pack(doc: dict):
    inst = PackingInstance.from_items(doc["weights"], doc["counts"],
                                      doc["capacities"])
    stencil, rhs, codec = build_packing(inst)
    return (stencil, inst.n, rhs, codec.lift_utilities(doc["utilities"]),
            lambda x: {"bins": codec.decode(x)})


def _load_partition(doc: dict):
    inst = PartitionInstance.make(doc["players"], doc["items"],
                                  doc.get("sizes"))
    stencil, rhs, weights, codec = build_partition(inst)

    def decode(x):
        clusters = codec.decode(x)
        view = {"clusters": [list(c) for c in clusters]}
        if all(clusters):
            var = cluster_variance(inst, clusters)
            view["variance"] = {"num": var.numerator, "den": var.denominator}
        return view

    return stencil, inst.n, rhs, weights, decode


LOADERS = {"transport-v1": _load_transport, "multiway-v1": _load_multiway,
           "pack-v1": _load_pack, "partition-v1": _load_partition}

# command -> (output schema, accepted instance schemas)
COMMANDS = {"transport": ("transport-solution-v1",
                          ("transport-v1", "multiway-v1")),
            "pack": ("pack-solution-v1", ("pack-v1",)),
            "partition": ("partition-solution-v1", ("partition-v1",)),
            "verify": ("verify-report-v1", tuple(LOADERS))}


def _load_instance(path: str, accepted: tuple):
    """(schema, loader result) for an instance whose schema is accepted."""
    try:
        doc = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: an instance must be a JSON object")
    schema = doc.get("schema")
    if schema not in accepted:
        raise UsageError(
            f"{path}: schema {schema!r} not among {sorted(accepted)}")
    # the loaders coerce with int(), which would truncate 1.7 or read "1"
    stack = [(key, v) for key, v in doc.items() if key != "schema"]
    while stack:
        key, value = stack.pop()
        if isinstance(value, (dict, list)):
            items = value.values() if isinstance(value, dict) else value
            stack.extend((key, v) for v in items)
        elif value is not None and type(value) is not int:  # not a bool
            raise UsageError(
                f"{path}: field {key!r} holds {value!r}, not an integer")
    try:
        return schema, LOADERS[schema](doc)
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _cmd_instance(args, config: RunConfig) -> int:
    schema, accepted = COMMANDS[args.command]
    _, loaded = _load_instance(args.instance, accepted)
    return _solve_and_emit(args, config, schema, *loaded)


def enumeration_box(A: IntMat, b) -> Optional[tuple]:
    """Bounds x_j <= b_i // A_ij (at least 0) over the rows i with no
    negative entry and A_ij > 0; every x >= 0 with Ax = b lies inside.
    None when some column has no such row."""
    rows = [(row, bi) for row, bi in zip(A.data, b)
            if all(a >= 0 for a in row)]
    caps = [[bi // row[j] for row, bi in rows if row[j] > 0]
            for j in range(A.cols)]
    return tuple(max(min(c), 0) for c in caps) if all(caps) else None


def _cmd_verify(args, config: RunConfig) -> int:
    report_schema, accepted = COMMANDS[args.command]
    schema, (stencil, n, rhs, weights, _decode) = _load_instance(
        args.instance, accepted)
    objective = parse_objective(args.objective, weights.d)
    A, b = nfold_matrix(stencil, n), rhs.concat()
    budget = EnumBudget(max_points=args.max_points,
                        bounds=enumeration_box(A, b))
    points = enumerate_feasible(A, b, budget)
    out = solve_convex_nfold(stencil, n, weights, rhs, objective, config)

    report = {"schema": report_schema, "instance_schema": schema,
              "pipeline_status": out.status, "points": len(points)}
    if out.status == INFEASIBLE_OUTCOME:
        ok = not points
    elif out.status == UNBOUNDED_POLYHEDRON:
        ok = False
        report["note"] = "unbounded pipeline reply cannot be cross-checked"
    else:
        bx, bz = brute_convex_max(points, weights, objective)
        report["pipeline"] = {"x": list(out.x), "z": list(out.z)}
        report["oracle"] = {"x": list(bx), "z": list(bz)}
        # c-equal optima with different argmax points are fine; the pipeline
        # point must be feasible, project correctly, and attain the optimum
        ok = (out.x in points
              and weights.project(out.x) == out.z
              and objective.compare_leq(bz, out.z)
              and objective.compare_leq(out.z, bz))
    report["pass"] = ok
    _emit(json.dumps(report) + "\n", args.output)
    _summary("verify: {} ({}, {} enumerated points)".format(
        "PASS" if ok else "FAIL", out.status, len(points)))
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Parser and dispatch.

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--output", help="write the result here atomically "
                     "instead of stdout")
    for f in fields(RunConfig):
        sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                         type=int, default=None,
                         help="guard override (beats the GRAVOPT_* "
                         "environment variable)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gravopt",
                     description="Exact convex integer maximization over "
                     "n-fold systems.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("graver", help="Graver basis of a matrix file")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(func=_cmd_graver)

    p = subs.add_parser("nfold-graver", help="Graver basis of an n-fold matrix")
    p.add_argument("--stencil", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_nfold_graver)

    p = subs.add_parser("zonotope", help="vertices of a generator zonotope")
    p.add_argument("generators")
    _add_common(p)
    p.set_defaults(func=_cmd_zonotope)

    p = subs.add_parser("solve-ip", help="linear integer program")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stencil")
    group.add_argument("--matrix")
    p.add_argument("--n", type=int)
    p.add_argument("--rhs", required=True)
    p.add_argument("--obj", required=True)
    p.add_argument("--solution", help="also write the optimal x as a "
                   "matrix text file")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_ip)

    p = subs.add_parser("solve-convex", help="convex integer maximization")
    p.add_argument("--stencil", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--objective", default="norm2")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_convex)

    for name, func, help_text in (
            ("transport", _cmd_instance, "multiway transportation instance"),
            ("pack", _cmd_instance, "bin packing instance"),
            ("partition", _cmd_instance, "vector partition instance"),
            ("verify", _cmd_verify, "pipeline vs brute-force oracle")):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("instance")
        p.add_argument("--objective", default="norm2")
        if func is _cmd_verify:
            p.add_argument("--max-points", type=int, default=1_000_000)
        _add_common(p)
        p.set_defaults(func=func)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return args.func(args, config)
    except UsageError as exc:
        _summary(f"usage error: {exc}")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        _summary(f"resource guard: {exc}")
        return EXIT_GUARD
    except InfeasibleInstanceError as exc:
        _summary(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    except InternalInconsistencyError as exc:  # before its base class
        _summary(f"internal error: {exc!r}")
        return EXIT_INTERNAL
    except (GravoptError, ValueError) as exc:
        _summary(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # a crash is no verify mismatch (exit 1)
        _summary(f"internal error: {exc!r}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
