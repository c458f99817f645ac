"""Command-line surface: analyze, generate, verify, semigroup.

Exit codes are uniform across commands: 0 success / all properties hold,
1 a checked property failed, the rank floor was withheld (its exact closure
hit the member cap, or holds a member that is not r-potent) or stdout was
closed before the output was written, 2 input (a file or an option) could
not be parsed or validated.  A truncated pattern closure withholds
nothing: the semigroup's verdict comes from its generators.  ``semigroup
--r`` decides the generators before it builds any closure, so a generator
that is not r-potent exits 2 at once.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .decomposition import block_triangularize, brute_force_decomposable_pattern
from .generators import GENERATOR_KINDS, GeneratorSpec
from .matrix import RMatrix, format_entry, json_text, load_matrix, matrix_to_json
from .potency import NonPotency, main_decomposability_test, minimal_potency, potent_at, require_exponent
from .semigroup import (
    DEFAULT_CLOSURE_CAP,
    equivalence_report,
    generator_blocks,
    pattern_closure,
    semigroup_rank_floor_check,
)
from .spectral import spectral_report
from .structure import analyze_structure
from .verification import CHECKS, run_check


def _analysis_bundle(a: RMatrix, r: int | None) -> dict:
    """Every report for one matrix, from one triangularization and the potency decision over it.

    With no ``r`` the decision's least exponent is reported.  ``potency``
    is None only when no ``r`` is given and no exponent exists; the
    ``nonpotency`` certificate is added whenever none exists.
    """
    if r is not None:
        require_exponent(r)
    tri = block_triangularize(a)
    decision = minimal_potency(tri)
    minimal_r = None if isinstance(decision, NonPotency) else decision.r
    if r is None:
        r = minimal_r
    potent = None if minimal_r is None else decision.at(r)
    decomposable = not tri.is_trivial
    oracle_witness = brute_force_decomposable_pattern(tri.graph.pattern)
    oracle_agrees = (oracle_witness is not None) == decomposable
    prediction = None if potent is None else main_decomposability_test(potent)
    structure = None if potent is None else analyze_structure(potent)
    spectral = spectral_report(tri, potent)
    potency = None
    if r is not None:
        rank = a.rank() if potent is None else potent.rank
        # A^(r-1) is a projection only when A^r = A; its trace is then rank A
        trace = None if potent is None else potent.projection.trace()
        potency = {
            "is_r_potent": potent is not None,
            "r": r,
            "minimal_r": minimal_r,
            "rank": rank,
            "trace_of_projection": None if trace is None else format_entry(trace),
            "rank_trace_ok": trace is None or trace == rank,
        }
    # ok leaves out the blocks' rank bound and rank sum: the decision proves both (``analyze_structure``)
    checks_ok = (
        oracle_agrees
        and (potency is None or potency["rank_trace_ok"])
        and (potent is None or (prediction.agrees and structure.bounds_ok))
    )
    bundle = {
        "matrix": a,
        "r": r,
        "potency": potency,
        "decomposability": {
            "decomposable": decomposable,
            "witness": None if tri.witness is None else tri.witness.sorted_indices(),
            "oracle_witness": None if oracle_witness is None else oracle_witness.sorted_indices(),
            "oracle_agrees": oracle_agrees,
        },
        "triangularization": tri.to_dict(),
        "structure": None if structure is None else structure.to_dict(),
        "spectral": spectral.to_dict(),
        "prediction": None if prediction is None else prediction.to_dict(),
        "ok": checks_ok,
    }
    if minimal_r is None:
        bundle["nonpotency"] = decision.to_dict()
    return bundle


def _print_bundle_human(bundle: dict, out) -> None:
    n = bundle["matrix"].n
    print(f"matrix: {n}x{n}", file=out)
    pot = bundle["potency"]
    if pot is None:
        print("potency: no exponent r with A^r = A", file=out)
    else:
        state = "holds" if pot["is_r_potent"] else "fails"
        minimal = "no r has A^r = A" if pot["minimal_r"] is None else f"minimal r = {pot['minimal_r']}"
        line = f"potency: A^{pot['r']} = A {state}; {minimal}; "
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
        print(json_text(bundle))
    else:
        _print_bundle_human(bundle, sys.stdout)
    return 0 if bundle["ok"] else 1


def _ascii_int(text: str) -> int:
    """The argparse ``type`` of every integer option: ``int(text)``, refused unless ``text`` is ASCII without ``_``.

    ``int`` also reads "٣" (Arabic-Indic three) as 3 and "1_0" as 10; an
    option is written in ASCII digits, as a matrix entry is (``coerce_entry``).
    Other text gets argparse's message for ``type=int``.
    """
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"integers are written in ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_list(text: str) -> list[int]:
    """``1,2,3`` as [1, 2, 3]."""
    return [_ascii_int(s) for s in text.split(",")]


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
            print(json_text(first.matrix))
    return 0 if result.ok else 1


def cmd_semigroup(args) -> int:
    matrices = [load_matrix(path) for path in args.files]
    dims = {m.n for m in matrices}
    if len(dims) > 1:
        raise ValueError(f"generators must share a dimension, got {sorted(dims)}")
    if args.r is not None:
        # decided once, before any closure is built: by A's own powers when
        # r - 1 <= n, else from the block periods, so a large --r takes no
        # r-th power, and a refused set starts no closure
        potents = [potent_at(m, args.r) for m in matrices]
        if None in potents:
            raise ValueError(f"every generator must be {args.r}-potent")
        patterns = [p.pattern for p in potents]  # read once, off the decision's triangularization when it made one
    else:
        patterns = [m.pattern() for m in matrices]
    closure = pattern_closure(patterns, cap=args.cap)
    reach, components = generator_blocks(patterns)  # G+ and its blocks, read by both reports
    eq = equivalence_report(reach, components)
    report: dict = {
        "generator_count": closure.generator_count,
        "closure_size": len(closure),
        "truncated": closure.truncated,
        "equivalences": eq.to_dict(),
    }
    exit_code = 0 if eq.consistent else 1
    if args.r is not None:
        floor = semigroup_rank_floor_check(potents, components, cap=args.cap)
        report["rank_floor"] = floor.to_dict()
        if not floor.all_ok:
            exit_code = 1
    print(json_text(report))
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
    p_an.add_argument("--r", type=_ascii_int, default=None, help="potency exponent (default: inferred)")
    p_an.add_argument("--json", action="store_true", help="machine-readable output")

    p_gen = sub.add_parser("generate", help="emit a seeded matrix as JSON with provenance")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=[*GENERATOR_KINDS, "kron"],
    )
    p_gen.add_argument("--length", "--len", type=_ascii_int, default=None, help="cycle length")
    p_gen.add_argument("--dim", type=_ascii_int, default=None, help="idempotent dimension")
    p_gen.add_argument("--padded", action="store_true", help="zero-pad the idempotent factors")
    p_gen.add_argument("--sizes", type=_int_list, default=None, help="comma-separated block sizes")
    p_gen.add_argument("--r", type=_ascii_int, default=None, help="potency exponent")
    p_gen.add_argument("--rank", type=_ascii_int, default=None, help="target rank")
    p_gen.add_argument("--n", type=_ascii_int, default=None, help="permutation size")
    p_gen.add_argument("--seed", type=_ascii_int, default=0)
    p_gen.add_argument("-o", "--output", type=str, default=None)

    p_ver = sub.add_parser("verify", help="run one named property suite")
    p_ver.add_argument("--theorem", required=True, help="check id, e.g. 3.2 (see README)")
    p_ver.add_argument("--trials", type=_ascii_int, default=None)
    p_ver.add_argument("--seed", type=_ascii_int, default=None)
    p_ver.add_argument("--n", type=_ascii_int, default=None, help="dimension for enumeration checks")

    p_sg = sub.add_parser("semigroup", help="close generators and report decomposability")
    p_sg.add_argument("files", nargs="+")
    p_sg.add_argument("--r", type=_ascii_int, default=None, help="potency exponent for the rank floor")
    p_sg.add_argument("--cap", type=_ascii_int, default=DEFAULT_CLOSURE_CAP, help="closure member cap")
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


if __name__ == "__main__":
    sys.exit(main())
