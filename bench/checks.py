"""Correctness checks made apart from the program, applied after timing.

Each ``check_*`` function takes an operation (see ``workloads.Op``), its exit
code and its standard output, and returns ``None`` when the output is right or
a one-line reason when it is not.  The facts come from how the benchmark built
each input and from the benchmark's own exact arithmetic in ``exact.py``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import exact as ex

# Largest Mersenne prime below 2^64: denominators of the inputs are never
# multiples of it, so every input has an image modulo P.
P = (1 << 61) - 1
POTENCY_CAP = 64
# Float power iteration cannot represent the squares of entries this large.
FLOAT_SAFE_LIMIT = Fraction(10) ** 154


# ---------------------------------------------------------------------------
# JSON schema, the subset of draft 2020-12 that the program's schema uses


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_ANNOTATIONS = {"$schema", "$id", "$comment", "title", "description", "default", "examples"}


def schema_errors(value, schema, path="$"):
    """Violations of ``schema`` by ``value``; raises on a keyword it cannot judge."""
    errors = []
    for key, rule in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "type":
            names = rule if isinstance(rule, list) else [rule]
            if not any(_TYPES[t](value) for t in names):
                errors.append(f"{path}: {type(value).__name__} is not {rule}")
                return errors
        elif key == "required":
            if isinstance(value, dict):
                errors += [f"{path}: missing {k}" for k in rule if k not in value]
        elif key == "properties":
            if isinstance(value, dict):
                for k, sub in rule.items():
                    if k in value:
                        errors += schema_errors(value[k], sub, f"{path}.{k}")
        elif key == "additionalProperties":
            if isinstance(value, dict):
                extra = [k for k in value if k not in schema.get("properties", {})]
                for k in extra:
                    if rule is False:
                        errors.append(f"{path}: unexpected {k}")
                    elif isinstance(rule, dict):
                        errors += schema_errors(value[k], rule, f"{path}.{k}")
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    errors += schema_errors(item, rule, f"{path}[{i}]")
        elif key == "enum":
            if value not in rule:
                errors.append(f"{path}: {value!r} not in {rule}")
        elif key == "const":
            if value != rule:
                errors.append(f"{path}: {value!r} != {rule!r}")
        elif key in ("minimum", "maximum"):
            if _TYPES["number"](value) and (value < rule if key == "minimum" else value > rule):
                errors.append(f"{path}: {value} violates {key} {rule}")
        elif key in ("anyOf", "oneOf"):
            passing = sum(1 for sub in rule if not schema_errors(value, sub, path))
            if passing == 0 or (key == "oneOf" and passing != 1):
                errors.append(f"{path}: {key} matched {passing} alternatives")
        else:
            raise ValueError(f"schema keyword {key!r} is not supported by the benchmark's validator")
    return errors


# ---------------------------------------------------------------------------
# facts about matrices, computed independently of the program


def nonpotency_certificate(a):
    """A reason why no r in [2, 64] has A^r = A, or None if none is found.

    Three certificates: a minimum row sum above 1 (the spectral radius is at
    least that, while an r-potent matrix has radius 0 or 1); a nonzero
    nilpotent pattern (A^r = A would give A = A^(r^m) = 0); or A^k x != A x
    modulo P for a fixed vector x and every k up to 64, which implies
    A^k != A.  When the vector test ties at some k, the full powers modulo P
    decide.
    """
    n = len(a)
    if min(ex.row_sums(a)) > 1:
        return "min row sum above 1"
    pat = ex.pattern(a)
    if any(pat):
        p = pat
        for _ in range(n):
            p = ex.pattern_mul(p, pat)
        if not any(p):
            return "nonzero nilpotent"
    mod = [[x.numerator * pow(x.denominator, -1, P) % P for x in row] for row in a]
    x = [(7 * i + 3) % P for i in range(n)]

    def apply(m, v):
        return [sum(c * w for c, w in zip(row, v)) % P for row in m]

    def square_mod(m1, m2):
        return [[sum(m1[i][t] * m2[t][j] for t in range(n)) % P for j in range(n)] for i in range(n)]

    ax = apply(mod, x)
    y = ax
    for k in range(2, POTENCY_CAP + 1):
        y = apply(mod, y)
        if y == ax:
            pk = mod
            for _ in range(k - 1):
                pk = square_mod(pk, mod)
            if pk == mod:
                return None
    return f"A^k x != A x mod {P} for k <= {POTENCY_CAP}"


def perron_error(value, a):
    """Why a Perron estimate is wrong for ``a``, or None.

    The spectral radius of a nonnegative matrix lies between its least and its
    greatest row sum.  For entries at or above 1e154 a withheld estimate
    (``None``) passes too.
    """
    sums = ex.row_sums(a)
    lo, hi = float(min(sums)), float(max(sums))
    if value is None:
        if max(x for row in a for x in row) >= FLOAT_SAFE_LIMIT:
            return None
        return "perron value withheld"
    slack = 1e-6 * max(1.0, hi)
    if not lo - slack <= value <= hi + slack:
        return f"perron value {value} outside row-sum bracket [{lo}, {hi}]"
    return None


def closure(gens, mul):
    """Members of the semigroup generated by ``gens``, by generator-product BFS.

    Every member is a word in the generators, so right-multiplying each new
    member by every generator reaches the whole semigroup.
    """
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def union_pattern(patterns):
    n = len(next(iter(patterns)))
    rows = [0] * n
    for p in patterns:
        rows = [a | b for a, b in zip(rows, p)]
    return tuple(rows)


# ---------------------------------------------------------------------------
# per-kind output checks


def _bundle(op, out, schema):
    try:
        bundle = json.loads(out)
    except ValueError:
        return None, "output is not JSON"
    errs = schema_errors(bundle, schema)
    if errs:
        return None, "schema: " + errs[0]
    return bundle, None


def _common_analyze(op, bundle):
    a = op.expect["matrix"]
    decomposable = not ex.strongly_connected(ex.pattern(a))
    if bundle["decomposability"]["decomposable"] != decomposable:
        return f"decomposable={bundle['decomposability']['decomposable']}, reachability says {decomposable}"
    return perron_error(bundle["spectral"]["perron_value"], a)


def check_potent(op, rc, out, schema):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    bundle, err = _bundle(op, out, schema)
    if err:
        return err
    e = op.expect
    pot = bundle["potency"]
    if pot is None:
        return "no potency exponent reported"
    if pot["minimal_r"] != e["r"] or pot["r"] != e["r"] or not pot["is_r_potent"]:
        return f"minimal r {pot['minimal_r']} (r {pot['r']}), expected {e['r']}"
    if pot["rank"] != e["rank"]:
        return f"rank {pot['rank']}, expected {e['rank']}"
    blocks = len(bundle["triangularization"]["block_sizes"])
    if blocks != e["blocks"]:
        return f"{blocks} diagonal blocks, expected {e['blocks']}"
    if (e["blocks"] > 1) == ex.strongly_connected(ex.pattern(e["matrix"])):
        return "benchmark input disagrees with its own block count"
    return _common_analyze(op, bundle)


def check_nonpotent(op, rc, out, schema):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    bundle, err = _bundle(op, out, schema)
    if err:
        return err
    if nonpotency_certificate(op.expect["matrix"]) is None:
        return "benchmark input has no non-potency certificate"
    if bundle["potency"] is not None or bundle["r"] is not None:
        return f"reported potent with r={bundle['r']}"
    return _common_analyze(op, bundle)


def check_semigroup(op, rc, out, schema=None):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not JSON"
    gens = op.expect["gens"]
    pats = [ex.pattern(g) for g in gens]
    members = closure(pats, ex.pattern_mul)
    if op.expect["size"] is not None and len(members) != op.expect["size"]:
        return f"benchmark BFS found {len(members)} members, group order is {op.expect['size']}"
    if report.get("truncated") or report.get("closure_size") != len(members):
        return f"closure size {report.get('closure_size')}, expected {len(members)}"
    if report.get("generator_count") != len(set(pats)):
        return f"generator count {report.get('generator_count')}, expected {len(set(pats))}"
    eq = report.get("equivalences") or {}
    decomposable = not ex.strongly_connected(union_pattern(members))
    if eq.get("decomposable") != decomposable or not eq.get("consistent"):
        return f"decomposable={eq.get('decomposable')}, reachability on the closure says {decomposable}"
    if op.expect["r"] is not None:
        floor = report.get("rank_floor") or {}
        exact_members = closure(list(gens), ex.matmul)
        if floor.get("closure_size") != len(exact_members):
            return f"exact closure size {floor.get('closure_size')}, expected {len(exact_members)}"
        if not floor.get("all_ok") or floor.get("decomposable") != decomposable:
            return "rank floor not confirmed"
    return None


_VERIFY_LINE = re.compile(r"^check (\S+): (\d+)/(\d+) (pass|FAIL)$")


def check_verify(op, rc, out, schema=None):
    first = out.splitlines()[0] if out else ""
    m = _VERIFY_LINE.match(first)
    if not m:
        return f"unexpected first line {first!r}"
    check_id, passed, total, status = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
    if check_id != op.expect["check"] or total != op.expect["total"]:
        return f"check {check_id} reported {total} trials, expected {op.expect['total']} of {op.expect['check']}"
    if rc != 0 or passed != total or status != "pass":
        return f"{passed}/{total} {status}, exit code {rc}"
    return None


CHECKERS = {
    "potent": check_potent,
    "nonpotent": check_nonpotent,
    "semigroup": check_semigroup,
    "verify": check_verify,
}


def check(op, rc, out, schema):
    return CHECKERS[op.kind](op, rc, out, schema)
