"""Command-line surface: analyze, generate, verify, semigroup.

Exit codes are uniform across commands: 0 success / all properties hold,
1 a checked property failed or a verdict was withheld (truncated closure),
2 input could not be parsed or validated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .decomposition import (
    InvariantSubsetWitness,
    block_triangularize,
    brute_force_decomposable,
    is_decomposable,
    main_decomposability_test,
)
from .generators import GeneratorSpec
from .matrix import RMatrix, load_matrix, matrix_to_json
from .potency import DEFAULT_POTENCY_CAP, minimal_potency, potency_report
from .semigroup import (
    ClosureTruncated,
    DEFAULT_CLOSURE_CAP,
    equivalence_report,
    pattern_closure,
    semigroup_rank_floor_check,
)
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, spectral_report
from .structure import analyze_structure
from .verification import CHECKS, run_check

ORACLE_DIM_LIMIT = 12


def _closure_cap(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("RPOTENT_CLOSURE_CAP")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"RPOTENT_CLOSURE_CAP must be an integer, got {env!r}") from exc
    return DEFAULT_CLOSURE_CAP


def _analysis_bundle(a: RMatrix, r: int | None, tol: float, max_iter: int) -> dict:
    """Assemble every report for one matrix into a JSON-ready bundle."""
    if r is None:
        r = minimal_potency(a, DEFAULT_POTENCY_CAP)
    potency = potency_report(a, r) if r is not None else None
    potent = potency is not None and potency.is_r_potent
    decomposable = is_decomposable(a)
    tri = block_triangularize(a)
    oracle_checked = a.n <= ORACLE_DIM_LIMIT
    oracle_witness = brute_force_decomposable(a) if oracle_checked else None
    oracle_agrees = None
    if oracle_checked:
        oracle_agrees = (oracle_witness is not None) == decomposable
    prediction = main_decomposability_test(a, r) if potent else None
    structure = analyze_structure(a, r) if potent else None
    spectral = spectral_report(a, r=r if potent else None, tol=tol, max_iter=max_iter)
    checks_ok = all(
        flag is not False
        for flag in (
            oracle_agrees,
            None if prediction is None else prediction.agrees,
            None if potency is None else potency.rank_trace_ok,
            None if structure is None else (structure.blocks_ok and structure.rank_sum_ok),
        )
    )
    witness = None
    if decomposable and not tri.is_trivial:
        w = InvariantSubsetWitness(frozenset(tri.components[0]), a.n)
        if not w.verify(a):
            raise RuntimeError("sink component failed to verify as invariant")
        witness = w.sorted_indices()
    return {
        "matrix": a.to_json_dict(),
        "r": r,
        "potency": None if potency is None else potency.to_dict(),
        "decomposability": {
            "decomposable": decomposable,
            "witness": witness,
            "oracle_checked": oracle_checked,
            "oracle_witness": None if oracle_witness is None else oracle_witness.sorted_indices(),
            "oracle_agrees": oracle_agrees,
        },
        "triangularization": tri.to_dict(),
        "structure": None if structure is None else structure.to_dict(),
        "spectral": spectral.to_dict(),
        "prediction": None if prediction is None else prediction.to_dict(),
        "ok": checks_ok,
    }


def _print_bundle_human(bundle: dict, out) -> None:
    n = bundle["matrix"]["n"]
    print(f"matrix: {n}x{n}", file=out)
    pot = bundle["potency"]
    if pot is None:
        print("potency: no exponent r <= 64 with A^r = A", file=out)
    else:
        state = "holds" if pot["is_r_potent"] else "fails"
        print(
            f"potency: A^{pot['r']} = A {state}; minimal r = {pot['minimal_r']}; "
            f"rank = {pot['rank']}; projection trace = {pot['trace_of_projection']}",
            file=out,
        )
    dec = bundle["decomposability"]
    verdict = "decomposable" if dec["decomposable"] else "indecomposable"
    oracle = ""
    if dec["oracle_checked"]:
        oracle = " (oracle agrees)" if dec["oracle_agrees"] else " (ORACLE DISAGREES)"
    print(f"decomposability: {verdict}{oracle}", file=out)
    if dec["witness"] is not None:
        print(f"  invariant index set: {dec['witness']}", file=out)
    tri = bundle["triangularization"]
    if tri["is_trivial"]:
        print("triangularization: trivial (one block)", file=out)
    else:
        print(
            f"triangularization: {len(tri['block_sizes'])} blocks, sizes {tri['block_sizes']}",
            file=out,
        )
    st = bundle["structure"]
    if st is not None and st["applicable"]:
        print(
            f"structure: {st['nonzero_count']} nonzero of {st['total_count']} blocks; "
            f"bounds {'ok' if st['bounds_ok'] else 'VIOLATED'}",
            file=out,
        )
    sp = bundle["spectral"]
    if sp["perron_value"] is None:
        perron = f"perron value withheld ({sp['perron_withheld']})"
    else:
        value = sp["perron_value"]
        perron = f"perron value {value:.9f}" if value < 1e12 else f"perron value {value:.9e}"
    period = sp["period"]
    if period is not None:
        prim = "primitive" if sp["is_primitive"] else f"period {period}"
        print(f"spectral: {prim}, {perron}", file=out)
    else:
        print(f"spectral: {perron}", file=out)
    if sp["trace_zero_applicable"]:
        print(f"  zero-trace identity: {'holds' if sp['trace_is_zero'] else 'FAILS'}", file=out)
    pred = bundle["prediction"]
    if pred is not None and pred["predicted_decomposable"] is not None:
        print(
            f"prediction ({pred['case']}): decomposable expected, "
            f"{'confirmed' if pred['agrees'] else 'CONTRADICTED'}",
            file=out,
        )
    print(f"result: {'ok' if bundle['ok'] else 'PROPERTY FAILURE'}", file=out)


def cmd_analyze(args) -> int:
    a = load_matrix(args.file)
    bundle = _analysis_bundle(a, args.r, args.tol, args.max_iter)
    if args.json:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    else:
        _print_bundle_human(bundle, sys.stdout)
    return 0 if bundle["ok"] else 1


def _generator_spec_from_args(args) -> GeneratorSpec:
    params: dict[str, object] = {}
    kind = "kronecker" if args.kind == "kron" else args.kind
    if kind in ("cycle", "conjugated"):
        if args.length is None:
            raise ValueError("--length is required for this kind")
        params["length"] = args.length
    elif kind == "rank_one_idempotent":
        if args.dim is None:
            raise ValueError("--dim is required for this kind")
        params["dim"] = args.dim
        if args.padded:
            params["padded"] = True
    elif kind == "block_diagonal":
        if not args.sizes:
            raise ValueError("--sizes is required for this kind")
        params["sizes"] = [int(s) for s in args.sizes.split(",")]
    elif kind == "kronecker":
        if args.r is None or args.rank is None:
            raise ValueError("--r and --rank are required for this kind")
        params["r"] = args.r
        params["rank"] = args.rank
    elif kind == "triangular_family":
        if args.r is None:
            raise ValueError("--r is required for this kind")
        params["r"] = args.r
    elif kind == "permutation":
        if args.n is None:
            raise ValueError("--n is required for this kind")
        params["n"] = args.n
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return GeneratorSpec(kind=kind, seed=args.seed, params=params)


def cmd_generate(args) -> int:
    spec = _generator_spec_from_args(args)
    matrix = spec.build()
    text = matrix_to_json(matrix, provenance=spec.provenance())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    if args.theorem not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        print(f"unknown check id {args.theorem!r}; known ids: {known}", file=sys.stderr)
        return 2
    result = run_check(args.theorem, trials=args.trials, seed=args.seed, n=args.n)
    status = "pass" if result.ok else "FAIL"
    print(f"check {result.check_id}: {result.passed}/{result.total} {status}")
    print(f"  {result.description}")
    if result.failures:
        first = result.failures[0]
        print(f"  first counterexample (trial {first.trial}, seed {first.seed}): {first.detail}")
        if first.matrix is not None:
            print(json.dumps(first.matrix, indent=2, sort_keys=True))
    return 0 if result.ok else 1


def cmd_semigroup(args) -> int:
    cap = _closure_cap(args.cap)
    matrices = [load_matrix(path) for path in args.files]
    dims = {m.n for m in matrices}
    if len(dims) > 1:
        raise ValueError(f"generators must share a dimension, got {sorted(dims)}")
    closure = pattern_closure([m.pattern() for m in matrices], cap=cap)
    report: dict = {
        "generator_count": closure.generator_count,
        "closure_size": len(closure),
        "truncated": closure.truncated,
    }
    exit_code = 0
    if closure.truncated:
        report["verdict"] = "withheld (closure truncated)"
        exit_code = 1
    else:
        eq = equivalence_report(closure)
        report["equivalences"] = eq.to_dict()
        if not eq.consistent:
            exit_code = 1
        if args.r is not None:
            try:
                floor = semigroup_rank_floor_check(matrices, args.r, cap=cap)
                report["rank_floor"] = floor.to_dict()
                if not floor.all_ok:
                    exit_code = 1
            except ClosureTruncated:
                report["rank_floor"] = {"verdict": "withheld (closure truncated)"}
                exit_code = 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="rpotent",
        description="Exact decomposability analysis for nonnegative matrices with A^r = A.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for one matrix file (JSON or CSV)")
    p_an.add_argument("file")
    p_an.add_argument("--r", type=int, default=None, help="potency exponent (default: inferred)")
    p_an.add_argument("--json", action="store_true", help="machine-readable output")
    p_an.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_an.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    p_gen = sub.add_parser("generate", help="emit a seeded matrix as JSON with provenance")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=[
            "cycle",
            "rank_one_idempotent",
            "block_diagonal",
            "kronecker",
            "kron",
            "triangular_family",
            "permutation",
            "conjugated",
        ],
    )
    p_gen.add_argument("--length", "--len", type=int, default=None, help="cycle length")
    p_gen.add_argument("--dim", type=int, default=None, help="idempotent dimension")
    p_gen.add_argument("--padded", action="store_true", help="zero-pad the idempotent factors")
    p_gen.add_argument("--sizes", type=str, default=None, help="comma-separated block sizes")
    p_gen.add_argument("--r", type=int, default=None, help="potency exponent")
    p_gen.add_argument("--rank", type=int, default=None, help="target rank")
    p_gen.add_argument("--n", type=int, default=None, help="permutation size")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", type=str, default=None)

    p_ver = sub.add_parser("verify", help="run one named property suite")
    p_ver.add_argument("--theorem", required=True, help="check id, e.g. 3.2 (see README)")
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--n", type=int, default=None, help="dimension for enumeration checks")

    p_sg = sub.add_parser("semigroup", help="close generators and report decomposability")
    p_sg.add_argument("files", nargs="+")
    p_sg.add_argument("--r", type=int, default=None, help="potency exponent for the rank floor")
    p_sg.add_argument("--cap", type=int, default=None, help="closure member cap")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call rather than stored in the shared parser, so that a
    # command function rebound after the first call (bench/tracer.py wraps
    # them) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClosureTruncated as exc:
        print(f"verdict withheld: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
