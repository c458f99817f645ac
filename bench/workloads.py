"""Seeded inputs and operation lists of the four workloads.

Every input is built here with the standard library from the workload seed;
nothing comes from ``rpotent.generators``, so a change to the program's
generators cannot change a workload.  The seed picks relabellings and, for
the potent matrices and the rank-floor generators, entry values; the shapes
(dimension, exponent, block structure, closure size) are fixed per workload,
so that the cost of a round hardly depends on the seed.

Each operation is one call of the command line, ``rpotent.cli.main(argv)``,
and carries the facts the checker in ``checks.py`` compares its output with.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact as ex
from exact import ONE, ZERO

WORKLOADS = ("analyze_potent", "analyze_nonpotent", "semigroup_closure", "verify_checks")

# The two operations that fail because of faults in the program at the time
# the benchmark was written.  They stay in their workloads and count as failed
# until the program is fixed; their inputs do not depend on the seed.
PERRON_OVERFLOW = "perron_overflow_2x2"
RANK_FLOOR_COUNTEREXAMPLE = "verify_6.4_seed8"
KNOWN_FAULTS = frozenset({PERRON_OVERFLOW, RANK_FLOOR_COUNTEREXAMPLE})

# Trial count each check reports at its default settings.
VERIFY_TOTALS = {
    "2.4": 500, "2.5": 100, "2.6": 500, "3.1": 100, "3.2": 300, "4.1": 300,
    "5.1": 100, "5.2": 100, "6.1": 100, "6.2": 300, "6.3": 100, "6.4": 50,
    "7.1": 200, "7.2": 5, "perron": 100,
}

# Bundled example matrices and what is known about each of them.
BUNDLED = {
    "decomposable_rank_one.json": {"r": 2, "rank": 1, "blocks": 2},
    "indecomposable_rank_one.json": {"r": 2, "rank": 1, "blocks": 1},
    "quadripotent_cycle3.json": {"r": 4, "rank": 3, "blocks": 1},
    "uniform_block_tower_r4.json": {"r": 2, "rank": 3, "blocks": 3},
}

_POOL = tuple(Fraction(x) for x in ("1", "2", "3", "1/2", "1/3", "2/3", "3/2"))


@dataclass
class Op:
    """One command-line call with everything needed to check its result."""

    label: str
    kind: str  # "potent", "nonpotent", "semigroup" or "verify"
    argv: list[str]
    expect: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    warm_argv: list[str] | None = None

    @property
    def known_fault(self) -> bool:
        return self.label in KNOWN_FAULTS


# ---------------------------------------------------------------------------
# potent parts: (matrix, cycle length, rank, diagonal block count)


def _cycle(n):
    return tuple(tuple(ONE if i == (j + 1) % n else ZERO for j in range(n)) for i in range(n))


def _zero(n):
    return tuple((ZERO,) * n for _ in range(n))


def _weighted_cycle(rng, n):
    d = [Fraction(rng.choice((1, 2, 3))) for _ in range(n)]
    c = _cycle(n)
    return tuple(tuple(c[i][j] * d[j] / d[i] for j in range(n)) for i in range(n))


def _positive_idempotent(rng, k):
    """u v^T with v.u = 1 and u, v positive: rank one, indecomposable."""
    u = [rng.choice(_POOL) for _ in range(k)]
    raw = [rng.choice(_POOL) for _ in range(k)]
    s = sum((a * b for a, b in zip(raw, u)), ZERO)
    v = [x / s for x in raw]
    return tuple(tuple(a * b for b in v) for a in u)


def _part(rng, spec):
    kind = spec[0]
    if kind == "cyc":
        return _cycle(spec[1]), spec[1], spec[1], 1
    if kind == "wcyc":
        return _weighted_cycle(rng, spec[1]), spec[1], spec[1], 1
    if kind == "idem":
        return _positive_idempotent(rng, spec[1]), 1, 1, 1
    if kind == "cidem":
        length, k = spec[1], spec[2]
        return ex.kron(_cycle(length), _positive_idempotent(rng, k)), length, length, 1
    if kind == "iidem":  # [[1, 1], [0, 0]]: idempotent, rank one, two blocks
        return ((ONE, ONE), (ZERO, ZERO)), 1, 1, 2
    if kind == "zero":
        return _zero(1), 1, 0, 1
    raise ValueError(kind)


def _potent(rng, parts, wrap):
    """Direct sum of parts, optionally wrapped as [[B, B^(r-1) X], [0, 0]].

    The wrap keeps the potency exponent and the rank of B and adds ``wrap``
    zero coordinates, each a block of its own.  A seeded relabelling comes
    last.  Returns the matrix and its minimal r, rank and block count.
    """
    built = [_part(rng, p) for p in parts]
    b = ex.direct_sum([m for m, _, _, _ in built])
    period = math.lcm(*(length for _, length, _, _ in built))
    r = period + 1
    rank = sum(k for _, _, k, _ in built)
    blocks = sum(c for _, _, _, c in built)
    if wrap:
        k = len(b)
        proj = ex.power(b, r - 1)
        x = [[Fraction(rng.randint(0, 2)) for _ in range(wrap)] for _ in range(k)]
        coupling = [[sum((proj[i][t] * x[t][j] for t in range(k)), ZERO) for j in range(wrap)] for i in range(k)]
        n = k + wrap
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(k):
            rows[i][:k] = b[i]
            rows[i][k:] = coupling[i]
        b = tuple(tuple(row) for row in rows)
        blocks += wrap
    a = ex.conjugate(b, ex.random_perm(rng, len(b)))
    return a, {"r": r, "rank": rank, "blocks": blocks}


# (parts, wrap): n from 2 to 30, r from 2 to 7, integer and rational entries.
POTENT_TEMPLATES = (
    ((("cyc", 2),), 0),
    ((("idem", 3),), 0),
    ((("cyc", 5),), 0),
    ((("wcyc", 6),), 0),
    ((("cidem", 3, 4),), 0),
    ((("idem", 12),), 0),
    ((("cidem", 6, 3),), 0),
    ((("cidem", 5, 6),), 0),
    ((("cyc", 2), ("idem", 2)), 0),
    ((("cyc", 3), ("cyc", 2)), 0),
    ((("iidem",), ("cyc", 4)), 0),
    ((("idem", 3), ("zero",), ("idem", 2)), 0),
    ((("cyc", 3), ("cyc", 3)), 2),
    ((("wcyc", 4), ("idem", 3), ("cyc", 2)), 0),
    ((("cidem", 3, 2), ("cyc", 3)), 1),
    ((("cidem", 2, 3), ("idem", 4), ("zero",)), 0),
    ((("cyc", 6), ("cyc", 3), ("cyc", 2), ("zero",), ("zero",)), 0),
    ((("idem", 5), ("idem", 5), ("idem", 4)), 0),
    ((("cidem", 2, 4), ("idem", 6)), 2),
    ((("cidem", 3, 3), ("cyc", 3), ("wcyc", 3), ("zero",)), 0),
    ((("cyc", 5), ("cyc", 5), ("idem", 4), ("zero",)), 3),
    ((("cidem", 2, 5), ("cidem", 3, 3), ("idem", 2)), 0),
    ((("idem", 6), ("cidem", 4, 3), ("cyc", 2)), 2),
    ((("cidem", 6, 2), ("cyc", 6), ("iidem",), ("idem", 3), ("zero",)), 2),
)


# ---------------------------------------------------------------------------
# non-potent inputs


def _sparse_primitive(rng, n, extra):
    """Integer matrix on a Hamiltonian cycle plus a loop and chords.

    Strongly connected with a loop, hence primitive, and not full: no power
    of its pattern equals the pattern, so a boolean screen rejects it.
    """
    order = ex.random_perm(rng, n)
    rows = [[ZERO] * n for _ in range(n)]
    for t in range(n):
        rows[order[(t + 1) % n]][order[t]] = Fraction(rng.randint(1, 3))
    rows[order[0]][order[0]] = Fraction(rng.randint(1, 3))
    placed = 0
    while placed < extra:
        i, j = rng.randrange(n), rng.randrange(n)
        if not rows[i][j]:
            rows[i][j] = Fraction(rng.randint(1, 3))
            placed += 1
    return tuple(tuple(r) for r in rows)


def _nilpotent(rng, n, extra):
    """Strictly upper triangular integer matrix: nonzero and nilpotent."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = Fraction(rng.randint(1, 3))
    placed = 0
    while placed < extra:
        i, j = sorted(rng.sample(range(n), 2))
        if not rows[i][j]:
            rows[i][j] = Fraction(rng.randint(1, 3))
            placed += 1
    return tuple(tuple(r) for r in rows)


_RATIONAL_POOL = tuple(Fraction(p, q) for q in (2, 3, 4, 5) for p in range(1, q))


def _positive_rational(rng, n, scale):
    return tuple(tuple(rng.choice(_RATIONAL_POOL) * scale for _ in range(n)) for _ in range(n))


# (kind, n, extra nonzeros).  Half are sparse integer matrices, half positive
# rational ones, whose full pattern is boolean-idempotent.  The "positive"
# kind has row sums above 1; the "subunit" kind is scaled by 1/n, so its row
# sums straddle 1 and its entries stay near 1 in size while their
# denominators grow with every power.  Single operations scatter by about 10%
# on a shared machine, so the median is made to fall inside a cluster of five
# relabelled copies of one matrix (positive, n = 6), well apart from the
# cheaper operations listed before it and the dearer ones after it.
NONPOTENT_TEMPLATES = (
    ("nilpotent", 8, 10),
    ("nilpotent", 14, 20),
    ("nilpotent", 17, 24),
    ("nilpotent", 20, 30),
    ("sparse", 6, 4),
    ("sparse", 7, 5),
    ("sparse", 9, 6),
) + (("positive", 6, 0),) * 5 + (
    ("sparse", 12, 8),
    ("sparse", 15, 9),
    ("sparse", 17, 10),
    ("subunit", 7, 0),
    ("sparse", 14, 9),
    ("sparse", 20, 12),
    ("positive", 8, 0),
    ("subunit", 8, 0),
    ("positive", 9, 0),
    ("positive", 10, 0),
)


def _nonpotent(rng, kind, n, extra):
    if kind == "sparse":
        return _sparse_primitive(rng, n, extra)
    if kind == "nilpotent":
        return _nilpotent(rng, n, extra)
    return _positive_rational(rng, n, ONE if kind == "positive" else Fraction(1, n))


# ---------------------------------------------------------------------------
# semigroup generator sets: fixed structures under a seeded relabelling


def _perm_matrix(images):
    n = len(images)
    return tuple(tuple(ONE if images[j] == i else ZERO for j in range(n)) for i in range(n))


def _transposition(n):
    return _perm_matrix([1, 0] + list(range(2, n)))


def _identity(n):
    return _perm_matrix(list(range(n)))


def _upper(top_left, top_right, bottom_right):
    """[[A, X], [0, B]] from square A, B and a rectangular X."""
    k, m = len(top_left), len(bottom_right)
    rows = [list(top_left[i]) + list(top_right[i]) for i in range(k)]
    rows += [[ZERO] * k + list(bottom_right[i]) for i in range(m)]
    return tuple(tuple(r) for r in rows)


def _ones(k, m):
    return tuple((ONE,) * m for _ in range(k))


def _column(k, m, col):
    return tuple(tuple(ONE if j == col else ZERO for j in range(m)) for _ in range(k))


_E_ROW = ((ONE, ONE), (ZERO, ZERO))  # [[1, 1], [0, 0]]
_E_COL = ((ONE, ZERO), (ONE, ZERO))  # [[1, 0], [1, 0]]


def _pattern_families():
    """Decomposable 0/1 generator sets: direct sums and block-triangular ones."""
    c3, c2, c4, c5 = _cycle(3), _cycle(2), _cycle(4), _cycle(5)
    t3, t4 = _transposition(3), _transposition(4)
    i2, i3, i4 = _identity(2), _identity(3), _identity(4)
    ds = ex.direct_sum
    return {
        "sum_S3_C2": [ds([t3, i2]), ds([c3, i2]), ds([i3, c2])],
        "sum_S4_C3": [ds([t4, i3]), ds([c4, i3]), ds([i4, c3])],
        "sum_S3_S3": [ds([t3, i3]), ds([c3, i3]), ds([i3, t3]), ds([i3, c3])],
        "sum_idem_C3": [ds([_E_ROW, c3]), ds([_E_COL, i3])],
        "sum_idem_C5": [ds([_E_ROW, c5]), ds([_E_COL, _identity(5)]), ds([_E_ROW, _identity(5)])],
        "upper_S3_C2": [_upper(t3, _ones(3, 2), i2), _upper(c3, _ones(3, 2), i2), _upper(i3, _ones(3, 2), c2)],
        "upper_S4_S2": [_upper(t4, _ones(4, 2), i2), _upper(c4, _ones(4, 2), i2), _upper(i4, _ones(4, 2), c2)],
        "upper_C4_col": [_upper(c4, _column(4, 3, 0), _identity(3)), _upper(i4, _column(4, 3, 1), c3)],
        "upper_C3_col_idem": [_upper(c3, _column(3, 2, 0), _E_ROW), _upper(i3, _column(3, 2, 1), _E_COL)],
        "upper_S3_C3": [_upper(t3, _ones(3, 3), i3), _upper(c3, _ones(3, 3), c3)],
        "sum_C2_C3_C4": [ds([c2, c3, c4])],
        "upper_idem_idem": [_upper(_E_ROW, _column(2, 2, 0), _E_COL), _upper(_E_COL, _ones(2, 2), _E_ROW)],
    }


def _rank_floor_families(rng):
    """Block-diagonal cycle and idempotent generator sets, each r-potent for its r."""
    c2, c3, c4, c5, c6 = (_cycle(k) for k in (2, 3, 4, 5, 6))
    z2, z3, z4 = (_zero(k) for k in (2, 3, 4))
    e2, e3, e4 = (_positive_idempotent(rng, k) for k in (2, 3, 4))
    one = _identity(1)
    ds, sq = ex.direct_sum, ex.power
    return {
        "floor_r2_idem": (2, [ds([e3, e2]), ds([e3, z2])]),
        "floor_r3_C2_idem": (3, [ds([c2, e3, z2]), ds([c2, z3, e2])]),
        "floor_r4_C3_idem": (4, [ds([c3, e2, one]), ds([sq(c3, 2), z2, one])]),
        "floor_r5_C4_idem": (5, [ds([c4, e3]), ds([sq(c4, 2), e3]), ds([_identity(4), z3])]),
        "floor_r6_C5_idem": (6, [ds([c5, e4]), ds([sq(c5, 2), z4])]),
        "floor_r7_C6_C3": (7, [ds([c6, c3, e2]), ds([sq(c6, 2), _identity(3), z2])]),
    }


# ---------------------------------------------------------------------------
# workload assembly


def _write(path, matrix):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ex.to_json_text(matrix))
    return path


def _analyze_potent(rng, workdir, root):
    ops = []
    for idx, (parts, wrap) in enumerate(POTENT_TEMPLATES):
        a, facts = _potent(rng, parts, wrap)
        path = _write(os.path.join(workdir, f"potent_{idx:02d}.json"), a)
        label = f"potent_{idx:02d}_n{len(a)}_r{facts['r']}"
        ops.append(Op(label, "potent", ["analyze", path, "--json"], {**facts, "matrix": a}, [path]))
    data = os.path.join(root, "src", "rpotent", "data")
    for name, facts in BUNDLED.items():
        path = os.path.join(data, name)
        with open(path, encoding="utf-8") as fh:
            a = ex.from_json_entries(json.load(fh)["entries"])
        ops.append(Op(f"bundled_{name[:-5]}", "potent", ["analyze", path, "--json"], {**facts, "matrix": a}, [path]))
    return ops


def _analyze_nonpotent(rng, workdir, root):
    # The cost of 64 exact powers swings with the entries and the pattern, so
    # each template fixes both and the seed picks only the relabelling.
    ops = []
    for idx, (kind, n, extra) in enumerate(NONPOTENT_TEMPLATES):
        base = _nonpotent(random.Random(f"nonpotent:{kind}:{n}:{extra}"), kind, n, extra)
        a = ex.conjugate(base, ex.random_perm(rng, n))
        path = _write(os.path.join(workdir, f"nonpotent_{idx:02d}.json"), a)
        ops.append(Op(f"nonpotent_{idx:02d}_{kind}_n{n}", "nonpotent", ["analyze", path, "--json"], {"matrix": a}, [path]))
    big = Fraction(10**200)
    a = ((big, big), (big, big))
    path = _write(os.path.join(workdir, "perron_overflow.json"), a)
    ops.append(Op(PERRON_OVERFLOW, "nonpotent", ["analyze", path, "--json"], {"matrix": a}, [path]))
    return ops


def _semigroup_op(label, workdir, gens, r=None, expected_size=None):
    paths = [_write(os.path.join(workdir, f"{label}_g{i}.json"), g) for i, g in enumerate(gens)]
    argv = ["semigroup", *paths] + ([] if r is None else ["--r", str(r)])
    expect = {"gens": gens, "r": r, "size": expected_size}
    return Op(label, "semigroup", argv, expect, paths)


# Single operations scatter by 10-20% on a shared machine, so the median and
# the tail of semigroup_closure are made to fall inside groups of similar
# operations: five relabelled copies of upper_C4_col next to the three families
# that cost about as much (ten operations are cheaper, eight dearer), and three
# copies of sum_S4_C3 where the tail's ten operations beyond it end.  S6 (720
# members, seconds per call) is left out: at two thirds of a round its scatter
# alone moved the workload's throughput by up to 30% between runs.
COPIES = {"upper_C4_col": 5, "sum_S4_C3": 3}


def _semigroup_closure(rng, workdir, root):
    ops = []
    for n in (4, 5):
        perm = ex.random_perm(rng, n)
        gens = [ex.conjugate(_transposition(n), perm), ex.conjugate(_cycle(n), perm)]
        ops.append(_semigroup_op(f"symmetric_S{n}", workdir, gens, expected_size=math.factorial(n)))
    for label, gens in _pattern_families().items():
        for copy in range(COPIES.get(label, 1)):
            perm = ex.random_perm(rng, len(gens[0]))
            name = f"{label}_{copy}" if label in COPIES else label
            ops.append(_semigroup_op(name, workdir, [ex.conjugate(g, perm) for g in gens]))
    for label, (r, gens) in _rank_floor_families(rng).items():
        perm = ex.random_perm(rng, len(gens[0]))
        ops.append(_semigroup_op(label, workdir, [ex.conjugate(g, perm) for g in gens], r=r))
    return ops


# Checks 6.1 and 6.3 cost about as much and sit in the middle of the 16
# operations.  Each runs three times, spread through the round, so that the
# median falls inside a group of six similar operations rather than between
# two single ones.
VERIFY_ROUND = (
    "2.4", "2.5", "6.1", "2.6", "3.1", "6.3", "3.2", "4.1", "6.1", "5.1",
    "5.2", "6.3", "6.1", "6.2", "6.3", "6.4", "7.1", "7.2", "perron",
)


def _verify_checks(rng, workdir, root):
    ops = []
    for i, check_id in enumerate(VERIFY_ROUND):
        copy = VERIFY_ROUND[:i].count(check_id)
        argv = ["verify", "--theorem", check_id]
        expect = {"check": check_id, "total": VERIFY_TOTALS[check_id]}
        ops.append(Op(f"verify_{check_id}" + (f"_{copy}" if copy else ""), "verify", argv, expect, warm_argv=argv + ["--trials", "3"]))
    argv = ["verify", "--theorem", "6.4", "--seed", "8"]
    ops.append(Op(RANK_FLOOR_COUNTEREXAMPLE, "verify", argv, {"check": "6.4", "total": 50}, warm_argv=argv + ["--trials", "3"]))
    return ops


_BUILDERS = {
    "analyze_potent": _analyze_potent,
    "analyze_nonpotent": _analyze_nonpotent,
    "semigroup_closure": _semigroup_closure,
    "verify_checks": _verify_checks,
}


def build(name: str, seed: int, workdir: str, root: str) -> list[Op]:
    """The operations of one round of workload ``name``, inputs written to ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, workdir, root)
