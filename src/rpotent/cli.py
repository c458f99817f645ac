"""Command-line surface: analyze, generate, verify, semigroup.

Exit codes are uniform across commands: 0 success / all properties hold,
1 a checked property failed, a verdict was withheld (truncated closure) or
stdout was closed before the output was written, 2 input could not be parsed
or validated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .decomposition import block_triangularize, brute_force_decomposable
from .generators import GENERATOR_KINDS, GeneratorSpec
from .matrix import RMatrix, load_matrix, matrix_to_json
from .potency import main_decomposability_test, potency_report
from .semigroup import (
    ClosureTruncated,
    DEFAULT_CLOSURE_CAP,
    equivalence_report,
    pattern_closure,
    semigroup_rank_floor_check,
)
from .spectral import spectral_report
from .structure import analyze_structure
from .verification import CHECKS, run_check


def _analysis_bundle(a: RMatrix, r: int | None) -> dict:
    """Every report for one matrix, from one triangularization and the potency decision over it."""
    tri = block_triangularize(a)
    potency = potency_report(tri, r)
    potent = potency.potent
    decomposable = not tri.is_trivial
    oracle_witness = brute_force_decomposable(a)
    oracle_agrees = (oracle_witness is not None) == decomposable
    prediction = None if potent is None else main_decomposability_test(potent)
    structure = None if potent is None else analyze_structure(potent)
    spectral = spectral_report(tri, potent)
    checks_ok = (
        oracle_agrees
        and potency.rank_trace_ok
        and (
            potent is None
            or (prediction.agrees and structure.blocks_ok and structure.rank_sum_ok and structure.bounds_ok)
        )
    )
    bundle = {
        "matrix": a.to_json_dict(),
        "r": potency.r,
        "potency": None if potency.r is None else potency.to_dict(),
        "decomposability": {
            "decomposable": decomposable,
            "witness": None if tri.witness is None else tri.witness.sorted_indices(),
            "oracle_checked": True,
            "oracle_witness": None if oracle_witness is None else oracle_witness.sorted_indices(),
            "oracle_agrees": oracle_agrees,
        },
        "triangularization": tri.to_dict(),
        "structure": None if structure is None else structure.to_dict(),
        "spectral": spectral.to_dict(),
        "prediction": None if prediction is None else prediction.to_dict(),
        "ok": checks_ok,
    }
    if potency.nonpotency is not None:
        bundle["nonpotency"] = potency.nonpotency.to_dict()
    return bundle


def _print_bundle_human(bundle: dict, out) -> None:
    n = bundle["matrix"]["n"]
    print(f"matrix: {n}x{n}", file=out)
    pot = bundle["potency"]
    if pot is None:
        print("potency: no exponent r with A^r = A", file=out)
    else:
        state = "holds" if pot["is_r_potent"] else "fails"
        line = f"potency: A^{pot['r']} = A {state}; minimal r = {pot['minimal_r']}; "
        line += f"rank = {pot['rank']}"
        if pot["trace_of_projection"] is not None:
            line += f"; projection trace = {pot['trace_of_projection']}"
        print(line, file=out)
    proof = bundle.get("nonpotency")
    if proof is not None:
        big_l = proof["period_lcm"]
        print(f"  not potent for any r: A^{big_l + 1} != A at L = {big_l}, the lcm of the block periods", file=out)
    dec = bundle["decomposability"]
    verdict = "decomposable" if dec["decomposable"] else "indecomposable"
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
    value = sp["perron_value"]
    if value is None:
        perron = "perron value above the float range"
    elif value == 0 and sp["perron_bracket"][1] != 0:
        perron = "perron value below the float range"
    elif value == 0 or 1e-3 <= value < 1e12:
        perron = f"perron value {value:.9f}"
    else:
        perron = f"perron value {value:.9e}"
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
    bundle = _analysis_bundle(a, args.r)
    if args.json:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    else:
        _print_bundle_human(bundle, sys.stdout)
    return 0 if bundle["ok"] else 1


def _int_list(text: str) -> list[int]:
    """``1,2,3`` as [1, 2, 3]."""
    return [int(s) for s in text.split(",")]


def _generator_spec_from_args(args) -> GeneratorSpec:
    """The spec of ``generate``: the kind's parameters from the flags of the same name, no others."""
    name = "kronecker" if args.kind == "kron" else args.kind
    kind = GENERATOR_KINDS[name]
    given = {
        p: value
        for k in GENERATOR_KINDS.values()
        for p in k.required + k.optional
        if (value := getattr(args, p)) is not None and value is not False
    }
    foreign = [p for p in given if p not in kind.required + kind.optional]
    if foreign:
        raise ValueError(f"kind {name} takes no {', '.join(f'--{p}' for p in foreign)}")
    if any(p not in given for p in kind.required):
        flags = " and ".join(f"--{p}" for p in kind.required)
        raise ValueError(f"{flags} {'is' if len(kind.required) == 1 else 'are'} required for this kind")
    return GeneratorSpec(kind=name, seed=args.seed, params=given)


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
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
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
    matrices = [load_matrix(path) for path in args.files]
    dims = {m.n for m in matrices}
    if len(dims) > 1:
        raise ValueError(f"generators must share a dimension, got {sorted(dims)}")
    closure = pattern_closure([m.pattern() for m in matrices], cap=args.cap)
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
                floor = semigroup_rank_floor_check(matrices, args.r, cap=args.cap)
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

    p_gen = sub.add_parser("generate", help="emit a seeded matrix as JSON with provenance")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=[*GENERATOR_KINDS, "kron"],
    )
    p_gen.add_argument("--length", "--len", type=int, default=None, help="cycle length")
    p_gen.add_argument("--dim", type=int, default=None, help="idempotent dimension")
    p_gen.add_argument("--padded", action="store_true", help="zero-pad the idempotent factors")
    p_gen.add_argument("--sizes", type=_int_list, default=None, help="comma-separated block sizes")
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
    p_sg.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP, help="closure member cap")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call rather than stored in the shared parser, so that a
    # command function rebound after the first call (bench/tracer.py wraps
    # them) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        code = command(args)
        # flushed here, so that a closed stdout raises below, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away; the input was fine.  Point stdout at devnull
        # so that the flush at exit stays quiet (the recipe of the Python
        # ``signal`` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClosureTruncated as exc:
        print(f"verdict withheld: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
