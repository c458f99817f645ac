"""Acceptance suite: every exit criterion, pinned counts and tolerances.

One test per criterion; the conftest hook prints a pass/fail line for each.
Failures embed the offending matrix and seed so any counterexample can be
reproduced directly.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm

import pytest

from rpotent.decomposition import (
    block_triangularize,
    brute_force_decomposable_pattern,
)
from rpotent.generators import cycle_matrix
from rpotent.matrix import PatternMatrix, Permutation, json_text, matrix_to_json
from rpotent.potency import is_r_potent, zero_diagonal_powers
from rpotent.semigroup import (
    equivalence_report,
    generator_blocks,
    pattern_closure,
    symmetric_group_analysis,
)
from rpotent.spectral import perron_value, trace_zero_check
from rpotent.verification import (
    high_rank_cases,
    kron_cases,
    rank_one_cases,
    rank_trace_cases,
    run_check,
    semigroup_family_cases,
    singular_zero_diag_cases,
    structure_case_ok,
)
from rpotent.cli import main

from oracles import (
    as_potent,
    is_decomposable,
    is_decomposable_pattern,
    pattern_from_packed,
    rank_one_idempotent_diag_test,
    zero_one_patterns,
)

SEED = 20250810


def _dump(matrix, seed):
    return f"seed={seed}\n{matrix_to_json(matrix)}"


@pytest.fixture(scope="module")
def high_rank_family():
    t0 = time.monotonic()
    family = list(high_rank_cases(200, SEED))
    return family, time.monotonic() - t0


@pytest.fixture(scope="module")
def singular_family():
    return list(singular_zero_diag_cases(100, SEED + 1))


def test_oracle_equivalence_exhaustive_and_random():
    """Component decision vs exhaustive subset oracle: zero disagreements."""
    t0 = time.monotonic()
    disagreements = 0
    for p in zero_one_patterns(3):
        if (brute_force_decomposable_pattern(p) is not None) != is_decomposable_pattern(p):
            disagreements += 1
    for packed in range(1 << 16):
        p = pattern_from_packed(4, packed)
        if (brute_force_decomposable_pattern(p) is not None) != is_decomposable_pattern(p):
            disagreements += 1
    for n in (5, 6, 7, 8):
        rng = random.Random(SEED + n)
        for _ in range(1000):
            p = PatternMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            witness = brute_force_decomposable_pattern(p)
            if (witness is not None) != is_decomposable_pattern(p):
                disagreements += 1
            if witness is not None:
                assert witness.verify_pattern(p)
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_rank_equals_projection_trace_on_500_potents():
    """Exact rank/trace identity across r in {2,3,4,5}, dimensions <= 36."""
    result = run_check("2.6", trials=500, seed=SEED)
    assert result.total == 500
    assert result.ok, json_text(result.to_dict())


def test_rank_above_threshold_always_decomposes(high_rank_family):
    """200 verified rank > r-1 instances, all decomposable, under 30 s."""
    family, generation_time = high_rank_family
    t0 = time.monotonic()
    assert len(family) == 200
    for i, case_seed, r, p in family:
        m = p.a
        assert is_r_potent(m, r), _dump(m, case_seed)
        assert m.rank() > r - 1, _dump(m, case_seed)
        assert is_decomposable(m), _dump(m, case_seed)
    elapsed = generation_time + (time.monotonic() - t0)
    assert elapsed < 30.0, f"took {elapsed:.1f}s including generation"


def test_singular_zero_diagonal_always_decomposes(singular_family):
    """100 singular rank <= r-1 instances with zero-diagonal powers, all decomposable."""
    assert len(singular_family) == 100
    for i, case_seed, r, p in singular_family:
        m = p.a
        assert is_r_potent(m, r), _dump(m, case_seed)
        assert m.rank() <= r - 1, _dump(m, case_seed)
        assert m.rank() < m.n, _dump(m, case_seed)
        assert set(range(2, r)) <= zero_diagonal_powers(p), _dump(m, case_seed)
        assert is_decomposable(m), _dump(m, case_seed)


def test_rank_one_idempotent_zero_diagonal_criterion():
    """100 mixed rank-one idempotents: decomposable iff zero diagonal entry."""
    count = 0
    for i, case_seed, m in rank_one_cases(100, SEED + 2):
        count += 1
        assert rank_one_idempotent_diag_test(m) == is_decomposable(m), _dump(m, case_seed)
    assert count == 100


def test_triangular_structure_bounds(high_rank_family, singular_family):
    """Block dichotomy, rank sums, count bounds, and zero separation."""
    checked = 0
    for i, case_seed, r, p in itertools.chain(high_rank_family[0], singular_family):
        if not is_decomposable(p.a):
            continue
        checked += 1
        ok, detail = structure_case_ok(p)
        assert ok, f"{detail}\n{_dump(p.a, case_seed)}"
    # every matrix from the two families decomposes, so all 300 are checked
    assert checked == 300


def test_kronecker_products_decompose():
    """100 trials per variant: potent product, rank > r-1, decomposable."""
    for idempotent_b in (False, True):
        count = 0
        for i, case_seed, r, pa, pb in kron_cases(100, SEED + 3, idempotent_b):
            count += 1
            a, b = pa.a, pb.a
            k = a.kron(b)
            assert is_r_potent(k, r), _dump(k, case_seed)
            assert k.rank() == a.rank() * b.rank(), _dump(k, case_seed)
            assert k.rank() > r - 1, _dump(k, case_seed)
            assert is_decomposable(k), _dump(k, case_seed)
        assert count == 100


def test_wielandt_power_positive_for_primitive_patterns():
    """100 random primitive patterns per n in {2..6}: positive power, exactly."""
    result = run_check("2.4", trials=100, seed=SEED + 4)
    assert result.total == 500
    assert result.ok, json_text(result.to_dict())


def test_perron_value_one_and_zero_trace(high_rank_family, singular_family):
    """Unit spectral radius for every generated potent, in an exact bracket at
    most 1e-9 wide (every sound bracket holds 1); zero trace at rank r-1."""
    mixed = itertools.chain(
        high_rank_family[0], singular_family, rank_trace_cases(100, SEED + 9)
    )
    for i, case_seed, r, p in mixed:
        m = p.a
        lower, upper = perron_value(block_triangularize(m))
        tight = upper - lower <= Fraction(1, 10**9)
        assert lower <= 1 <= upper and tight, f"perron in [{lower}, {upper}]\n{_dump(m, case_seed)}"
    for r in (3, 4, 5, 6):
        for offset in range(5):
            rng = random.Random(SEED + 10 * r + offset)
            m = cycle_matrix(r - 1).conjugate(Permutation.random(r - 1, rng))
            lower, upper = perron_value(block_triangularize(m))
            assert lower <= 1 <= upper and upper - lower <= Fraction(1, 10**9)
            assert trace_zero_check(as_potent(m, r)), _dump(m, SEED + 10 * r + offset)
            assert m.trace() == 0


def test_semigroup_closures_have_common_zero():
    """100 rank-dominant families: closure completes, common zero, facets agree."""
    count = 0
    for i, case_seed, r, gens in semigroup_family_cases(100, SEED + 5):
        count += 1
        patterns = [g.a.pattern() for g in gens]
        assert not pattern_closure(patterns).truncated, f"seed={case_seed}"
        rep = equivalence_report(*generator_blocks(patterns))
        assert rep.witness is not None, f"seed={case_seed} r={r}"
        assert rep.zero_entry is not None, f"seed={case_seed}"
        assert rep.sum_has_zero, f"seed={case_seed}"
        assert rep.consistent, f"seed={case_seed}"
    assert count == 100


def test_permutation_group_classification():
    """Potency equals cycle-lcm + 1; sums positive; enumeration of S6 under 5 s."""

    def max_partition_lcm(n):
        def partitions(total, mx):
            if total == 0:
                yield []
                return
            for k in range(min(total, mx), 0, -1):
                for rest in partitions(total - k, k):
                    yield [k] + rest

        return max(lcm(*p) for p in partitions(n, n))

    for n in (2, 3, 4, 5, 6):
        t0 = time.monotonic()
        report = symmetric_group_analysis(n)
        elapsed = time.monotonic() - t0
        assert report.sum_positive
        assert report.formula_mismatches == 0
        counts = dict(report.potency_counts)
        # full cycles attain potency n + 1
        assert counts.get(n + 1, 0) > 0
        assert report.max_potency == max_partition_lcm(n) + 1
        assert sum(counts.values()) == [2, 6, 24, 120, 720][n - 2]
        if n == 6:
            assert elapsed < 5.0, f"enumeration took {elapsed:.1f}s"
    assert dict(symmetric_group_analysis(3).potency_counts) == {2: 1, 3: 3, 4: 2}


def test_cli_determinism(tmp_path, capsys):
    """generate and verify produce byte-identical output across two runs."""
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    gen_args = ["generate", "--kind", "kronecker", "--r", "3", "--rank", "4", "--seed", "7"]
    assert main(gen_args + ["-o", str(p1)]) == 0
    assert main(gen_args + ["-o", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    verify_args = ["verify", "--theorem", "5.1", "--trials", "25", "--seed", "3"]
    assert main(verify_args) == 0
    first = capsys.readouterr().out
    assert main(verify_args) == 0
    second = capsys.readouterr().out
    assert first == second and first

    # same commands through fresh interpreter processes
    runs = [
        subprocess.run(
            [sys.executable, "-m", "rpotent"] + gen_args,
            capture_output=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0] == p1.read_bytes()
