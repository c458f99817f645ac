"""Named property suites over seeded families of generated matrices.

``CHECKS`` declares each check once: its id, the description ``verify``
prints, its runner and its default trials.  A runner generates its family
deterministically from a seed and yields one verdict per trial;
``run_check`` tallies the verdicts into a ``CheckResult`` with the first
counterexamples kept for reproduction.  The same checks back the
command-line ``verify`` command and the acceptance tests.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .decomposition import block_triangularize
from .generators import (
    MAX_SPEC_DIM,
    conjugated_cycle,
    random_r_potent,
    random_rank_one_idempotent,
    random_singular_zero_diag,
    rank_dominant_semigroup_generators,
)
from .matrix import PatternMatrix, RMatrix
from .potency import Potent, is_r_potent, main_decomposability_test, potent_at, rank_trace_check, zero_diagonal_powers
from .semigroup import (
    PatternSemigroup,
    equivalence_report,
    generator_blocks,
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
    matrix: RMatrix | None = None

    def to_dict(self) -> dict:
        """The failure as a report dict; ``"matrix"`` is the ``RMatrix`` itself, written by ``json_text``."""
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
        """The result as a report dict; a failure's ``"matrix"`` is an ``RMatrix``, written by ``json_text``."""
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


def semigroup_family_cases(count: int, seed: int) -> Iterator[tuple[int, int, int, list[Potent]]]:
    """Generator families, checked at r, whose full closures stay r-potent of rank > r-1.

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
    """rank(A) equals trace(A^(r-1)) exactly, for every generated r-potent: the elimination kernel against the normal form.

    Each case comes checked by its normal form A = F C G, with rank k and
    projection F G of trace k, so the check tests ``RMatrix.rank``'s
    elimination on A against that trace (``rank_trace_check``).
    """
    for i, case_seed, r, p in rank_trace_cases(trials, seed):
        yield rank_trace_check(p), i, case_seed, f"r={r}", p.a


def run_rank_one_diagonal(trials: int, seed: int) -> Iterator[Verdict]:
    """Rank-one idempotents decompose exactly when a diagonal entry is zero."""
    for i, case_seed, m in rank_one_cases(trials, seed):
        # the equivalence holds for rank-one idempotents, so each case is checked to be one
        t = block_triangularize(m)
        ok = m @ m == m and m.rank() == 1 and t.graph.pattern.has_zero_diagonal_entry() == (not t.is_trivial)
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
    if not all(b.is_zero or b.block_rank <= p.r - 1 for b in report.blocks):
        return False, "a diagonal block is neither zero nor an indecomposable potent block"
    if sum(b.block_rank for b in report.blocks) != p.rank:
        return False, "block ranks do not sum to the rank"
    if not report.bounds_ok:
        return False, f"{report.nonzero_count} nonzero of {report.total_count} blocks break the bounds at rank {p.rank}"
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
            and not block_triangularize(k).is_trivial
        )
        yield ok, i, case_seed, f"r={r}", k


def powers_closed(powers: list[RMatrix], a: RMatrix) -> bool:
    """Whether the set M of ``powers`` of ``a``, A among them, is closed under products: M A within M.

    That suffices, as every member is a power of A: if M A lies in M, then
    x A^j = (x A^(j-1)) A lies in M for every x in M, by induction on j.
    It is needed too, as A is a member.  So one product per member is made,
    not one per pair.  For M = {A, ..., A^L} with A^(L+1) = A, which the
    potency decision checked, A^L A = A and every other A^j A = A^(j+1),
    so the powers of a checked value are always closed.
    """
    members = set(powers)
    return all(x @ a in members for x in powers)


def run_power_semigroup(trials: int, seed: int) -> Iterator[Verdict]:
    """One permutation triangularizes every power of a decomposable r-potent.

    Read off the checked value: its powers, closed as A^r = A (``powers_closed``), their supports, and the prediction.
    """
    half = trials // 2
    cases = itertools.chain(high_rank_cases(half, seed), singular_zero_diag_cases(trials - half, seed + 1))
    for i, (trial, case_seed, r, p) in enumerate(cases):
        closed = powers_closed(list(p.power_cycle()), p.a)
        triangular = p.tri.is_trivial or all(p.per_exponent(p.tri.is_respected_by))
        ok = closed and main_decomposability_test(p).agrees and triangular
        yield ok, i, case_seed, f"r={r}", p.a


def _random_closure_trials(
    trials: int,
    seed: int,
    judge: Callable[[list[PatternMatrix], PatternSemigroup], tuple[bool, str]],
) -> Iterator[Verdict]:
    """Judge random generator sets together with their complete closures."""
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
        ok, detail = judge(gens, s)
        yield ok, collected, seed, detail, None
    if collected < trials:
        yield False, -1, seed, "could not collect enough complete closures", None


def run_equivalences(trials: int, seed: int) -> Iterator[Verdict]:
    """Witness, common zero entry, and sum-with-zero agree, and G+ is the enumerated union."""

    def judge(gens, s) -> tuple[bool, str]:
        reach, components = generator_blocks(gens)
        if not equivalence_report(reach, components).consistent:
            return False, "facets disagree"
        if reach != s.union_pattern():
            return False, "generator reach differs from the closure's union pattern"
        return True, ""

    return _random_closure_trials(trials, seed, judge)


def run_semigroup_common_zero(trials: int, seed: int) -> Iterator[Verdict]:
    """Semigroups of rank-dominant families decompose with a common zero entry."""
    for i, case_seed, r, gens in semigroup_family_cases(trials, seed):
        rep = equivalence_report(*generator_blocks([g.a.pattern() for g in gens]))
        ok = (
            rep.consistent
            and rep.witness is not None
            and rep.zero_entry is not None
            and rep.sum_has_zero
        )
        yield ok, i, case_seed, f"r={r} gens={len(gens)}", gens[0].a


def run_rank_floor(trials: int, seed: int) -> Iterator[Verdict]:
    """Every nonzero diagonal block of a closed rank-dominant semigroup hits rank <= r-1."""
    for i, case_seed, r, gens in semigroup_family_cases(trials, seed):
        _, components = generator_blocks([p.pattern for p in gens])
        report = semigroup_rank_floor_check(gens, components)
        detail = "closure truncated" if report.truncated else f"r={r}"
        if report.non_potent_member is not None:
            detail += f": a member is not {r}-potent"
        yield report.all_ok, i, case_seed, detail, gens[0].a


def run_sum_zero(trials: int, seed: int) -> Iterator[Verdict]:
    """Decomposability of a closed semigroup matches its sum having a zero entry."""

    def judge(gens, s) -> tuple[bool, str]:
        # a sum of nonnegative members vanishes exactly where their union does
        ok = equivalence_report(*generator_blocks(gens)).decomposable == (s.union_pattern().first_zero() is not None)
        return ok, "" if ok else "the closure's sum disagrees with the witness facet"

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
        m = conjugated_cycle(case_seed, r - 1)
        p = potent_at(m, r)
        # a cycle of length r - 1 is indecomposable of rank r - 1, so the identity applies: None fails
        ok = p is not None and is_unit_bracket(*perron_value(p.tri)) and trace_zero_check(p)
        yield ok, trials // 2 + i, case_seed, f"r={r}", m


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
        CheckSpec("6.1", "power semigroup shares one triangularizing permutation", run_power_semigroup, 100),
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
    It is at most ``MAX_SPEC_DIM``, as a generated dimension, before anything is drawn.
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
        if n > MAX_SPEC_DIM:
            raise ValueError(f"--n must be at most {MAX_SPEC_DIM}, got {n}")
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
            failures.append(Failure(trial, case_seed, detail, matrix))
    return CheckResult(check_id, spec.description, total, passed, tuple(failures))
