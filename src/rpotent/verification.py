"""Named property suites over seeded families of generated matrices.

``CHECKS`` declares each check once: its id, the description ``verify``
prints, its runner and its default trials.  A runner generates its family
deterministically from a seed and yields one verdict per trial;
``run_check`` tallies the verdicts into a ``CheckResult`` with the first
counterexamples serialized for reproduction.  The same checks back the
command-line ``verify`` command and the acceptance tests.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .decomposition import block_triangularize, is_decomposable, rank_one_idempotent_diag_test
from .generators import (
    cycle_matrix,
    random_r_potent,
    random_rank_one_idempotent,
    random_singular_zero_diag,
    rank_dominant_semigroup_generators,
)
from .matrix import PatternMatrix, Permutation, RMatrix
from .potency import Potent, as_potent, is_r_potent, main_decomposability_test, rank_trace_check, zero_diagonal_powers
from .semigroup import (
    cyclic_semigroup,
    cyclic_semigroup_decomposable_check,
    equivalence_report,
    pattern_closure,
    semigroup_rank_floor_check,
    symmetric_group_analysis,
)
from .spectral import perron_value, trace_zero_check, wielandt_check
from .structure import analyze_structure

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Failure:
    trial: int
    seed: int | None
    detail: str
    matrix: dict | None = None

    def to_dict(self) -> dict:
        return {"trial": self.trial, "seed": self.seed, "detail": self.detail, "matrix": self.matrix}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    total: int
    passed: int
    failures: tuple[Failure, ...] = ()

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.passed == self.total

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "description": self.description,
            "total": self.total,
            "passed": self.passed,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures[:3]],
        }


def _case_seed(seed: int, i: int) -> int:
    return seed + 7919 * i


# ---------------------------------------------------------------------------
# seeded families


def high_rank_cases(count: int, seed: int) -> Iterator[tuple[int, int, int, Potent]]:
    """r-potent matrices of verified rank strictly above r-1."""
    for i in range(count):
        r = (2, 3, 4, 5)[i % 4]
        target = r + (i % 3)
        case_seed = _case_seed(seed, i)
        max_dim = (14, 22, 30)[i % 3]
        yield i, case_seed, r, random_r_potent(r, target, case_seed, max_dim=max_dim)


def singular_zero_diag_cases(count: int, seed: int) -> Iterator[tuple[int, int, int, Potent]]:
    """Singular r-potents of rank <= r-1 whose powers all carry a zero diagonal entry."""
    for i in range(count):
        r = (3, 4, 5)[i % 3]
        case_seed = _case_seed(seed, i)
        yield i, case_seed, r, random_singular_zero_diag(r, case_seed)


def rank_one_cases(count: int, seed: int) -> Iterator[tuple[int, int, RMatrix]]:
    """Rank-one nonnegative idempotents, a mix of positive and zero-padded."""
    for i in range(count):
        dim = 2 + (i % 5)
        case_seed = _case_seed(seed, i)
        padded = (True, False, None)[i % 3]
        yield i, case_seed, random_rank_one_idempotent(dim, case_seed, padded)


def rank_trace_cases(count: int, seed: int) -> Iterator[tuple[int, int, int, Potent]]:
    """General r-potent mix across r in {2,3,4,5}, ranks 1..8, dimensions <= 30."""
    for i in range(count):
        r = (2, 3, 4, 5)[i % 4]
        target = 1 + (i % 8)
        case_seed = _case_seed(seed, i)
        yield i, case_seed, r, random_r_potent(r, target, case_seed, max_dim=(14, 22, 30)[i % 3])


def kron_cases(
    count: int, seed: int, idempotent_b: bool
) -> Iterator[tuple[int, int, int, Potent, Potent]]:
    """Pairs (A, B): rank(A) > r-1 and B a nonzero r-potent (or idempotent)."""
    for i in range(count):
        r = (2, 3, 4)[i % 3]
        case_seed = _case_seed(seed, i)
        a = random_r_potent(r, r + (i % 2), case_seed, max_dim=9)
        if idempotent_b:
            b = random_r_potent(2, 1 + (i % 2), case_seed + 1, max_dim=4)
        else:
            b = random_r_potent(r, 1 + (i % 2), case_seed + 1, max_dim=4)
        yield i, case_seed, r, a, b


def semigroup_family_cases(
    count: int, seed: int
) -> Iterator[tuple[int, int, int, list[RMatrix]]]:
    """Generator families whose full closures stay r-potent of rank > r-1.

    Check 6.3 passes on them because they are decomposable by construction
    (``rank_dominant_semigroup_generators``), not because of the rank of
    their members.  Check 6.4 tests that every nonzero block of their joint
    triangularization holds a member of rank <= r-1, which the Klein
    four-group refutes; a family that contains it fails the check, as trials
    1 and 10 of ``verify --theorem 6.4 --seed 8`` do.
    """
    for i in range(count):
        r = (2, 3, 4)[i % 3]
        case_seed = _case_seed(seed, i)
        gens = rank_dominant_semigroup_generators(r, 1 + (i % 3), case_seed)
        yield i, case_seed, r, gens


def random_pattern(rng: random.Random, n: int, density: float) -> PatternMatrix:
    rows = []
    for _ in range(n):
        mask = 0
        for j in range(n):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask)
    return PatternMatrix(n, tuple(rows))


# ---------------------------------------------------------------------------
# runners: each yields one verdict (ok, trial, seed, detail, matrix) per trial

Verdict = tuple[bool, int, int | None, str, RMatrix | None]


def run_wielandt(trials: int, seed: int, n: int | None) -> Iterator[Verdict]:
    """Primitive patterns raised to the n^2 - 2n + 2 power are strictly positive."""
    dims = [2, 3, 4, 5, 6] if n is None else [n]
    for dim in dims:
        rng = random.Random(seed + dim)
        collected = 0
        attempts = 0
        while collected < trials and attempts < trials * 500:
            attempts += 1
            p = random_pattern(rng, dim, rng.uniform(0.2, 0.7))
            m = p.to_matrix()
            t = block_triangularize(m)
            # primitive: one block, of period 1; is_trivial first, so that a
            # rejected sample builds no diagonal block
            if not (t.is_trivial and t.periods == (1,)):
                continue
            collected += 1
            yield wielandt_check(t), collected, seed + dim, f"n={dim}", m
        if collected < trials:
            yield False, -1, seed + dim, f"could not sample {trials} primitive patterns at n={dim}", None


def run_zero_diagonal_chain(trials: int, seed: int) -> Iterator[Verdict]:
    """A potent matrix whose every power has a zero diagonal entry is reducible and singular."""
    for i, case_seed, r, p in singular_zero_diag_cases(trials, seed):
        m = p.a
        hypothesis = zero_diagonal_powers(p) == set(range(1, r))
        ok = hypothesis and not p.tri.is_trivial and p.rank < m.n
        yield ok, i, case_seed, f"r={r}", m


def run_rank_trace(trials: int, seed: int) -> Iterator[Verdict]:
    """rank(A) equals trace(A^(r-1)) exactly, for every generated r-potent."""
    for i, case_seed, r, p in rank_trace_cases(trials, seed):
        yield rank_trace_check(p), i, case_seed, f"r={r}", p.a


def run_rank_one_diagonal(trials: int, seed: int) -> Iterator[Verdict]:
    """Rank-one idempotents decompose exactly when a diagonal entry is zero."""
    for i, case_seed, m in rank_one_cases(trials, seed):
        ok = rank_one_idempotent_diag_test(m) == is_decomposable(m)
        yield ok, i, case_seed, "", m


def decomposable_cases(trials: int, seed: int) -> Iterator[tuple[int, int, int, Potent, str]]:
    """Two thirds high-rank cases, then singular zero-diagonal ones, with the case each predicts."""
    high = (2 * trials) // 3
    for i, case_seed, r, p in high_rank_cases(high, seed):
        yield i, case_seed, r, p, "rank_above_threshold"
    for i, case_seed, r, p in singular_zero_diag_cases(trials - high, seed + 1):
        yield high + i, case_seed, r, p, "singular_zero_diagonal"


def run_decomposability_criteria(trials: int, seed: int) -> Iterator[Verdict]:
    """Both prediction branches (high rank; singular with zero-diagonal powers) decompose."""
    for i, case_seed, r, p, case in decomposable_cases(trials, seed):
        pred = main_decomposability_test(p)
        ok = pred.case == case and pred.actual_decomposable
        if case == "singular_zero_diagonal":  # the hypothesis itself, from the powers
            ok = ok and p.rank < p.a.n and set(range(2, r)) <= zero_diagonal_powers(p)
        yield ok, i, case_seed, f"r={r} case={pred.case}", p.a


def structure_case_ok(p: Potent) -> tuple[bool, str]:
    """Full block-structure contract for one decomposable r-potent matrix, checked at ``p.r``."""
    report = analyze_structure(p)
    if not report.applicable:
        return True, "indecomposable, nothing to check"
    if not report.blocks_ok:
        return False, "a diagonal block is neither zero nor an indecomposable potent block"
    if not report.rank_sum_ok:
        return False, "block ranks do not sum to the rank"
    if not report.bounds_ok:
        return False, f"{report.nonzero_count} nonzero of {report.total_count} blocks break the bounds at rank {report.k}"
    for b in report.blocks:
        if b.is_zero and not p.a.submatrix(b.indices).is_zero():
            return False, f"merged zero block {list(b.indices)} is not a zero submatrix"
    return True, ""


def run_structure(trials: int, seed: int) -> Iterator[Verdict]:
    """Block dichotomy, rank sums, and count bounds on the decomposable families."""
    for i, case_seed, r, p, _ in decomposable_cases(trials, seed):
        ok, detail = structure_case_ok(p)
        yield ok, i, case_seed, detail, p.a


def run_kron(trials: int, seed: int, idempotent_b: bool) -> Iterator[Verdict]:
    """Kronecker products with a high-rank factor are decomposable r-potents of high rank."""
    for i, case_seed, r, pa, pb in kron_cases(trials, seed, idempotent_b):
        k = pa.a.kron(pb.a)
        rank = k.rank()
        ok = (
            is_r_potent(k, r)
            and rank == pa.rank * pb.rank
            and rank > r - 1
            and is_decomposable(k)
        )
        yield ok, i, case_seed, f"r={r}", k


def run_cyclic_semigroup(trials: int, seed: int) -> Iterator[Verdict]:
    """One permutation triangularizes every power of a decomposable r-potent."""
    half = trials // 2
    cases = list(high_rank_cases(half, seed)) + list(singular_zero_diag_cases(trials - half, seed + 1))
    for i, (trial, case_seed, r, p) in enumerate(cases):
        s = cyclic_semigroup(p)
        closed = all(x @ y in set(s.members) for x in s.members for y in s.members)
        rep = cyclic_semigroup_decomposable_check(p)
        ok = closed and rep.prediction.agrees and (not rep.applicable or rep.all_triangular)
        yield ok, i, case_seed, f"r={r}", p.a


def _random_closure_trials(
    trials: int,
    seed: int,
    judge: Callable[[object], tuple[bool, str]],
) -> Iterator[Verdict]:
    rng = random.Random(seed)
    collected = 0
    attempts = 0
    while collected < trials and attempts < trials * 50:
        attempts += 1
        dim = rng.randint(2, 4)
        gens = [random_pattern(rng, dim, rng.uniform(0.2, 0.8)) for _ in range(rng.randint(1, 2))]
        s = pattern_closure(gens, cap=4000)
        if s.truncated:
            continue
        collected += 1
        ok, detail = judge(s)
        yield ok, collected, seed, detail, None
    if collected < trials:
        yield False, -1, seed, "could not collect enough complete closures", None


def run_equivalences(trials: int, seed: int) -> Iterator[Verdict]:
    """Witness, common zero entry, and sum-with-zero agree on random closures."""

    def judge(s) -> tuple[bool, str]:
        rep = equivalence_report(s)
        return rep.consistent, "" if rep.consistent else "facets disagree"

    return _random_closure_trials(trials, seed, judge)


def run_semigroup_common_zero(trials: int, seed: int) -> Iterator[Verdict]:
    """Closures of rank-dominant families decompose with a common zero entry."""
    for i, case_seed, r, gens in semigroup_family_cases(trials, seed):
        s = pattern_closure([g.pattern() for g in gens])
        if s.truncated:
            yield False, i, case_seed, "closure truncated", None
            continue
        rep = equivalence_report(s)
        ok = (
            rep.consistent
            and rep.witness is not None
            and rep.zero_entry is not None
            and rep.sum_has_zero
        )
        yield ok, i, case_seed, f"r={r} gens={len(gens)}", gens[0]


def run_rank_floor(trials: int, seed: int) -> Iterator[Verdict]:
    """Every nonzero diagonal block of a closed rank-dominant semigroup hits rank <= r-1."""
    for i, case_seed, r, gens in semigroup_family_cases(trials, seed):
        report = semigroup_rank_floor_check(gens, r)
        yield report.all_ok, i, case_seed, f"r={r}", gens[0]


def run_sum_zero(trials: int, seed: int) -> Iterator[Verdict]:
    """Decomposability of a closed semigroup matches its sum having a zero entry."""

    def judge(s) -> tuple[bool, str]:
        rep = equivalence_report(s)
        ok = rep.decomposable == rep.sum_has_zero
        return ok, "" if ok else "sum facet disagrees with witness facet"

    return _random_closure_trials(trials, seed, judge)


def run_symmetric_group(trials: int, seed: int, n: int | None) -> Iterator[Verdict]:
    """Potency classes of S2..S6 (or of S_n alone), enumerated: ``trials`` and ``seed`` are unused."""
    dims = [2, 3, 4, 5, 6] if n is None else [n]
    for dim in dims:
        report = symmetric_group_analysis(dim)
        counts = dict(report.potency_counts)
        ok = (
            report.sum_positive
            and report.formula_mismatches == 0
            and counts.get(dim + 1, 0) > 0
        )
        yield ok, dim, None, f"n={dim} counts={report.potency_counts}", None


def is_unit_bracket(lower: Fraction, upper: Fraction) -> bool:
    """An exact Perron bracket that holds 1 and is at most 1e-9 wide.

    Every sound bracket of a potent matrix holds 1; the width bound is what
    makes the check able to see a radius other than 1.
    """
    return lower <= 1 <= upper and upper - lower <= Fraction(1, 10**9)


def run_perron_trace(trials: int, seed: int) -> Iterator[Verdict]:
    """Spectral radius 1 for every nonzero potent matrix; zero trace at rank r-1."""
    for i, case_seed, r, p in high_rank_cases(trials // 2, seed):
        lower, upper = perron_value(p.tri)
        detail = f"perron in [{lower}, {upper}]"
        yield is_unit_bracket(lower, upper), i, case_seed, detail, p.a
    for i in range(trials - trials // 2):
        r = (3, 4, 5, 6)[i % 4]
        case_seed = _case_seed(seed, i)
        rng = random.Random(case_seed)
        p = as_potent(cycle_matrix(r - 1).conjugate(Permutation.random(r - 1, rng)), r)
        lower, upper = perron_value(p.tri)
        ok = is_unit_bracket(lower, upper) and trace_zero_check(p)
        yield ok, trials // 2 + i, case_seed, f"r={r}", p.a


@dataclass(frozen=True)
class CheckSpec:
    """One check: the description ``verify`` prints, its runner and its default trials.

    ``accepts_n`` marks the enumeration checks, whose runner takes one
    dimension ``n`` (None for the default range) after the trials and seed.
    """

    check_id: str
    description: str
    runner: Callable[..., Iterator[Verdict]]
    default_trials: int
    accepts_n: bool = False


CHECKS: dict[str, CheckSpec] = {
    spec.check_id: spec
    for spec in [
        CheckSpec("2.4", "primitive patterns have a positive squared-index power", run_wielandt, 100, accepts_n=True),
        CheckSpec("2.5", "all-powers-zero-diagonal forces decomposability and a zero eigenvalue", run_zero_diagonal_chain, 100),
        CheckSpec("2.6", "rank equals projection trace", run_rank_trace, 500),
        CheckSpec("3.1", "rank-one idempotent zero-diagonal criterion", run_rank_one_diagonal, 100),
        CheckSpec("3.2", "rank and diagonal criteria force decomposability", run_decomposability_criteria, 300),
        CheckSpec("4.1", "maximal triangularization structure bounds", run_structure, 300),
        CheckSpec("5.1", "Kronecker products inherit potency and decompose",
                  functools.partial(run_kron, idempotent_b=False), 100),
        CheckSpec("5.2", "Kronecker products inherit potency and decompose",
                  functools.partial(run_kron, idempotent_b=True), 100),
        CheckSpec("6.1", "power semigroup shares one triangularizing permutation", run_cyclic_semigroup, 100),
        CheckSpec("6.2", "decomposability facets agree on closed semigroups", run_equivalences, 300),
        CheckSpec("6.3", "rank-dominant semigroups have a common zero entry", run_semigroup_common_zero, 100),
        CheckSpec("6.4", "triangularized semigroup blocks contain a low-rank element", run_rank_floor, 50),
        CheckSpec("7.1", "sum-with-zero matches decomposability on closures", run_sum_zero, 200),
        CheckSpec("7.2", "permutation group classification and positivity of the sum", run_symmetric_group, 0,
                  accepts_n=True),
        CheckSpec("perron", "unit spectral radius and zero trace where applicable", run_perron_trace, 100),
    ]
}


def run_check(
    check_id: str,
    trials: int | None = None,
    seed: int | None = None,
    n: int | None = None,
) -> CheckResult:
    """Run one check at its default trials and seed unless given, and tally its verdicts.

    ``n``, one dimension instead of the default range, is taken only by the
    checks whose spec ``accepts_n``; elsewhere it is rejected, not ignored.
    The result keeps the first three failures.
    """
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    spec = CHECKS[check_id]
    if n is not None:
        if not spec.accepts_n:
            takers = ", ".join(cid for cid, s in CHECKS.items() if s.accepts_n)
            raise ValueError(f"--n applies to checks {takers} only, not to {check_id}")
        if n < 1:
            raise ValueError(f"--n must be at least 1, got {n}")
    verdicts = spec.runner(
        spec.default_trials if trials is None else trials,
        DEFAULT_SEED if seed is None else seed,
        *((n,) if spec.accepts_n else ()),
    )
    total = passed = 0
    failures: list[Failure] = []
    for ok, trial, case_seed, detail, matrix in verdicts:
        total += 1
        if ok:
            passed += 1
        elif len(failures) < 3:
            failures.append(Failure(trial, case_seed, detail, None if matrix is None else matrix.to_json_dict()))
    return CheckResult(check_id, spec.description, total, passed, tuple(failures))
