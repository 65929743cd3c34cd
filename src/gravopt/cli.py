"""Command-line entry point.

Subcommands: graver, nfold-graver, zonotope, solve-ip, solve-convex,
transport, pack, partition, verify.  Machine-readable output goes to
stdout (or --output, written atomically); a short human summary goes to
stderr.  Exit codes: 0 optimal/success, 1 verify mismatch, 2 infeasible,
3 unbounded, 4 guard/resource limit, 5 usage error, 6 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .apps import (MultiwayInstance, PackingInstance, PartitionInstance,
                   build_multiway, build_packing, build_partition,
                   build_threeway, cluster_variance)
from .bruteforce import EnumBudget, brute_convex_max, enumerate_feasible
from .config import RunConfig
from .convexopt import (INFEASIBLE_OUTCOME,
                        UNBOUNDED_POLYHEDRON, ConvexOutcome, LinearObjective,
                        MaxLinearObjective, ObjectiveWeights,
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


def format_stencil(stencil: NFoldStencil) -> str:
    return "{} {} {}\n{}{}".format(stencil.r, stencil.s, stencil.t,
                                   format_matrix(stencil.A1),
                                   format_matrix(stencil.A2))


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
    body = []
    for ln in lines[1:]:
        body.append(tuple(int(v) for v in ln.split()))
    # empty lines (r == 0 or s == 0) are omitted from the body
    expected = (1 if r else 0) + (n if s else 0)
    if len(body) != expected:
        raise UsageError("rhs body disagrees with the r s n header")
    b0 = body[0] if r else ()
    layers = body[1 if r else 0:] if s else [()] * n
    if len(b0) != r or any(len(row) != s for row in layers):
        raise UsageError("rhs body disagrees with the r s n header")
    return NFoldRhs.make(b0, layers)


def format_rhs(rhs: NFoldRhs) -> str:
    s = len(rhs.layer_rhs[0]) if rhs.layer_rhs else 0
    lines = ["{} {} {}".format(len(rhs.b0), s, rhs.n)]
    if rhs.b0:
        lines.append(" ".join(str(v) for v in rhs.b0))
    lines.extend(" ".join(str(v) for v in layer)
                 for layer in rhs.layer_rhs if layer)
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _read_matrix(path: str) -> IntMat:
    text = _read(path)
    try:
        return parse_matrix(text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _write_atomic(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gravopt-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: str, output) -> None:
    if output:
        _write_atomic(output, payload)
    else:
        sys.stdout.write(payload)


def _summary(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Objective selector and JSON schemas.

def parse_objective(selector: str):
    """norm2 | linear | linear:<coeff-file> | maxlin:<rows-file>."""
    if selector == "norm2":
        return SquaredNormObjective()
    if selector == "linear":
        return LinearObjective(None)  # coeffs resolved once d is known
    if selector.startswith("linear:"):
        mat = _read_matrix(selector[len("linear:"):])
        if mat.rows != 1:
            raise UsageError("linear objective file must have one row")
        return LinearObjective(mat.data[0])
    if selector.startswith("maxlin:"):
        mat = _read_matrix(selector[len("maxlin:"):])
        if mat.rows == 0:
            raise UsageError("maxlin objective file must have at least one row")
        return MaxLinearObjective(mat.data)
    raise UsageError(f"unknown objective selector {selector!r}")


def _resolve_objective(objective, d: int):
    if isinstance(objective, LinearObjective) and objective.coeffs is None:
        return LinearObjective((1,) * d)
    rows = getattr(objective, "rows", None)
    coeffs = getattr(objective, "coeffs", None)
    for row in ([coeffs] if coeffs else []) + list(rows or []):
        if len(row) != d:
            raise UsageError(
                f"objective rows have length {len(row)}, expected d={d}")
    return objective


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for name in ("basis_cap", "enum_cap", "lift_cap", "dim_cap", "threads"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    return RunConfig.from_env(**overrides)


def _convex_json(schema: str, outcome: ConvexOutcome, extra=None) -> dict:
    doc = {"schema": schema, "status": outcome.status}
    if outcome.is_optimal:
        doc["x"] = list(outcome.x)
        doc["z"] = list(outcome.z)
        if outcome.stats is not None:
            doc["stats"] = {"oracle_queries": outcome.stats.oracle_queries,
                            "identity_checks": outcome.stats.identity_checks,
                            "vertices": outcome.stats.vertices}
        if extra:
            doc.update(extra() if callable(extra) else extra)
    return doc


def _convex_exit(outcome: ConvexOutcome) -> int:
    if outcome.status == INFEASIBLE_OUTCOME:
        return EXIT_INFEASIBLE
    if outcome.status == UNBOUNDED_POLYHEDRON:
        return EXIT_UNBOUNDED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_graver(args, config: RunConfig) -> int:
    basis = graver_basis(_read_matrix(args.matrix), config)
    half = basis.canonical_half()
    _emit(format_matrix(IntMat.from_rows(half, cols=basis.n)), args.output)
    _summary(f"graver: {len(half)} canonical elements "
             f"({len(basis)} with signs)")
    return EXIT_OK


def _cmd_nfold_graver(args, config: RunConfig) -> int:
    stencil = parse_stencil(_read(args.stencil))
    basis = nfold_graver(stencil, args.n, config)
    half = basis.canonical_half()
    _emit(format_matrix(IntMat.from_rows(half, cols=basis.n)), args.output)
    _summary(f"nfold-graver: n={args.n}, {len(half)} canonical elements")
    return EXIT_OK


def _cmd_zonotope(args, config: RunConfig) -> int:
    gens = _read_matrix(args.generators)
    verts = zonotope_vertices(list(gens.data), dim=gens.cols, config=config)
    lines = ["{} ; {}".format(" ".join(str(v) for v in zv.vertex),
                              " ".join(str(v) for v in zv.certificate))
             for zv in verts]
    _emit("\n".join(lines) + "\n", args.output)
    _summary(f"zonotope: {len(verts)} vertices from {gens.rows} generators")
    return EXIT_OK


def _cmd_solve_ip(args, config: RunConfig) -> int:
    obj = _read_matrix(args.obj)
    if obj.rows != 1:
        raise UsageError("objective file must be a single-row matrix")
    w = obj.data[0]
    if args.stencil:
        stencil = parse_stencil(_read(args.stencil))
        if args.n is None:
            raise UsageError("--n is required with --stencil")
        rhs = parse_rhs(_read(args.rhs))
        rhs.check_shape(stencil, args.n)
        if len(w) != args.n * stencil.t:
            raise UsageError("objective length != n*t")
        out = solve_nfold_ip(stencil, args.n, w, rhs, config)
    else:
        mat = _read_matrix(args.matrix)
        rhs_mat = _read_matrix(args.rhs)
        if rhs_mat.rows != 1 or rhs_mat.cols != mat.rows:
            raise UsageError("rhs for --matrix must be a single row of "
                             "length equal to the row count")
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
                      format_matrix(IntMat.from_rows([out.x])))
    _emit(payload, args.output)
    _summary(f"solve-ip: optimal value {out.value}")
    return EXIT_OK


def _cmd_solve_convex(args, config: RunConfig) -> int:
    stencil = parse_stencil(_read(args.stencil))
    rhs = parse_rhs(_read(args.rhs))
    rhs.check_shape(stencil, args.n)
    wmat = _read_matrix(args.weights)
    if wmat.cols != args.n * stencil.t:
        raise UsageError("weight rows must have length n*t")
    weights = ObjectiveWeights.make(wmat.data)
    objective = _resolve_objective(parse_objective(args.objective), weights.d)
    out = solve_convex_nfold(stencil, args.n, weights, rhs, objective, config)
    doc = _convex_json("convex-solution-v1", out)
    _emit(json.dumps(doc) + "\n", args.output)
    _summary(f"solve-convex: {out.status}"
             + (f", z={out.z}" if out.is_optimal else ""))
    return _convex_exit(out)


# -- application instances ---------------------------------------------------

def _load_instance(path: str, expected: tuple) -> dict:
    try:
        doc = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None
    schema = doc.get("schema")
    if schema not in expected:
        raise UsageError(
            f"{path}: schema {schema!r} not among {sorted(expected)}")
    return doc


def _build_transport(doc: dict):
    if doc["schema"] == "transport-v1":
        p, q, n = doc["p"], doc["q"], doc["n"]
        stencil, rhs, codec = build_threeway(p, q, n,
                                             doc["u"], doc["v"], doc["z"])
        weights = codec.encode_weights(doc["weights"])
        return stencil, rhs, weights, codec, n
    # multiway-v1: margin keys serialized as [index-or-null, ...] lists
    margins = {tuple(key): val for key, val in doc["margins"]}
    inst = MultiwayInstance.make(doc["dims"], doc["n"],
                                 [frozenset(f) for f in doc["family"]],
                                 margins)
    stencil, rhs, codec = build_multiway(inst)
    weights = ObjectiveWeights.make(
        [codec.encode({tuple(key): val for key, val in table})
         for table in doc["weights"]])
    return stencil, rhs, weights, codec, inst.n


def _decode_transport(doc: dict, codec, x):
    if doc["schema"] == "transport-v1":
        return {"table": codec.decode(x)}
    return {"table": [[list(key), val]
                      for key, val in sorted(codec.decode(x).items())]}


def _build_pack(doc: dict):
    inst = PackingInstance.from_items(doc["weights"], doc["counts"],
                                      doc["capacities"])
    stencil, rhs, codec = build_packing(inst)
    weights = codec.lift_utilities(doc["utilities"])
    return inst, stencil, rhs, weights, codec


def _build_partition(doc: dict):
    inst = PartitionInstance.make(doc["players"], doc["items"],
                                  doc.get("sizes"))
    stencil, rhs, weights, codec = build_partition(inst)
    return inst, stencil, rhs, weights, codec


def _cmd_transport(args, config: RunConfig) -> int:
    doc = _load_instance(args.instance, ("transport-v1", "multiway-v1"))
    stencil, rhs, weights, codec, n = _build_transport(doc)
    objective = _resolve_objective(parse_objective(args.objective), weights.d)
    out = solve_convex_nfold(stencil, n, weights, rhs, objective, config)
    result = _convex_json("transport-solution-v1", out,
                          extra=lambda: _decode_transport(doc, codec, out.x))
    _emit(json.dumps(result) + "\n", args.output)
    _summary(f"transport: {out.status}"
             + (f", z={out.z}" if out.is_optimal else ""))
    return _convex_exit(out)


def _cmd_pack(args, config: RunConfig) -> int:
    doc = _load_instance(args.instance, ("pack-v1",))
    inst, stencil, rhs, weights, codec = _build_pack(doc)
    objective = _resolve_objective(parse_objective(args.objective), weights.d)
    out = solve_convex_nfold(stencil, inst.n, weights, rhs, objective, config)
    result = _convex_json("pack-solution-v1", out,
                          extra=lambda: {"bins": codec.decode(out.x)})
    _emit(json.dumps(result) + "\n", args.output)
    _summary(f"pack: {out.status}"
             + (f", z={out.z}" if out.is_optimal else ""))
    return _convex_exit(out)


def _cmd_partition(args, config: RunConfig) -> int:
    doc = _load_instance(args.instance, ("partition-v1",))
    inst, stencil, rhs, weights, codec = _build_partition(doc)
    objective = _resolve_objective(parse_objective(args.objective), weights.d)
    out = solve_convex_nfold(stencil, inst.n, weights, rhs, objective, config)

    def extra():
        clusters = codec.decode(out.x)
        payload = {"clusters": [list(c) for c in clusters]}
        if all(clusters):
            var = cluster_variance(inst, clusters)
            payload["variance"] = {"num": var.numerator,
                                   "den": var.denominator}
        return payload

    result = _convex_json("partition-solution-v1", out, extra=extra)
    _emit(json.dumps(result) + "\n", args.output)
    _summary(f"partition: {out.status}"
             + (f", z={out.z}" if out.is_optimal else ""))
    return _convex_exit(out)


def _verify_bounds(doc: dict, stencil, rhs, n: int):
    if doc["schema"] == "partition-v1":
        return (1,) * (n * stencil.t)
    if doc["schema"] == "pack-v1":
        residual = sum(doc["capacities"]) - sum(
            c * w for c, w in zip(doc["counts"], doc["weights"]))
        per_layer = tuple(doc["counts"]) + (max(residual, 0),)
        return per_layer * n
    return None  # margin systems: the default max|b| bound is valid


def _cmd_verify(args, config: RunConfig) -> int:
    doc = _load_instance(args.instance,
                         ("transport-v1", "multiway-v1", "pack-v1",
                          "partition-v1"))
    schema = doc["schema"]
    if schema == "partition-v1":
        inst, stencil, rhs, weights, _codec = _build_partition(doc)
        n = inst.n
    elif schema == "pack-v1":
        inst, stencil, rhs, weights, _codec = _build_pack(doc)
        n = inst.n
    else:
        stencil, rhs, weights, _codec, n = _build_transport(doc)
    objective = _resolve_objective(parse_objective(args.objective), weights.d)
    out = solve_convex_nfold(stencil, n, weights, rhs, objective, config)

    budget = EnumBudget(max_points=args.max_points,
                        bounds=_verify_bounds(doc, stencil, rhs, n))
    points = enumerate_feasible(nfold_matrix(stencil, n), rhs.concat(), budget)

    report = {"schema": "verify-report-v1", "instance_schema": schema,
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
    for flag, name in (("--basis-cap", "basis_cap"),
                       ("--enum-cap", "enum_cap"),
                       ("--lift-cap", "lift_cap"),
                       ("--dim-cap", "dim_cap"),
                       ("--threads", "threads")):
        sub.add_argument(flag, dest=name, type=int, default=None,
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
            ("transport", _cmd_transport, "multiway transportation instance"),
            ("pack", _cmd_pack, "bin packing instance"),
            ("partition", _cmd_partition, "vector partition instance")):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("instance")
        p.add_argument("--objective", default="norm2")
        _add_common(p)
        p.set_defaults(func=func)

    p = subs.add_parser("verify", help="pipeline vs brute-force oracle")
    p.add_argument("instance")
    p.add_argument("--objective", default="norm2")
    p.add_argument("--max-points", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

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
    except InternalInconsistencyError as exc:
        _summary(f"internal error: {exc}")
        return EXIT_INTERNAL
    except (GravoptError, ValueError, KeyError, TypeError) as exc:
        _summary(f"error: {exc}")
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
