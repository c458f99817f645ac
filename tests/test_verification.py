"""The named check registry: every suite runs green and deterministically."""

import itertools

import pytest

from rpotent.matrix import PatternMatrix, RMatrix
from rpotent.semigroup import PatternSemigroup, rational_closure
from rpotent.verification import (
    CHECKS,
    DEFAULT_SEED,
    CheckResult,
    high_rank_cases,
    powers_closed,
    run_check,
    singular_zero_diag_cases,
)

from oracles import all_pairs_closed, decide, small_zero_one_potents

REDUCED_TRIALS = {
    "2.4": 15,
    "2.5": 25,
    "2.6": 40,
    "3.1": 30,
    "3.2": 30,
    "4.1": 30,
    "5.1": 20,
    "5.2": 20,
    "6.1": 16,
    "6.2": 40,
    "6.3": 15,
    "6.4": 6,
    "7.1": 30,
    "7.2": 0,
    "perron": 16,
}


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_every_check_passes(check_id):
    result = run_check(check_id, trials=REDUCED_TRIALS[check_id], seed=777)
    assert result.ok, [f.to_dict() for f in result.failures]
    assert result.check_id == check_id


def test_results_are_deterministic():
    a = run_check("3.2", trials=20, seed=5)
    b = run_check("3.2", trials=20, seed=5)
    assert a.to_dict() == b.to_dict()


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        run_check("0.0")


def test_empty_result_is_not_ok():
    assert not CheckResult("x", "empty", total=0, passed=0).ok


def test_symmetric_group_check_accepts_single_dimension():
    result = run_check("7.2", n=4)
    assert result.ok and result.total == 1


def test_wielandt_check_accepts_single_dimension():
    result = run_check("2.4", trials=4, n=3)
    assert result.ok and result.total == 4
    with pytest.raises(ValueError, match="--n applies to checks 2.4, 7.2 only"):
        run_check("3.2", n=5)


def test_sum_check_reads_the_closure_it_builds(monkeypatch):
    # with each closure's sum replaced by the full pattern, check 7.1 must
    # fail on the decomposable closures: it judges the closure, not G+ again
    assert run_check("7.1").ok
    monkeypatch.setattr(PatternSemigroup, "union_pattern", lambda s: PatternMatrix(s.n, ((1 << s.n) - 1,) * s.n))
    result = run_check("7.1")
    assert not result.ok and result.passed < result.total


def test_rank_trace_check_ranks_each_matrix_once(monkeypatch):
    # the emission check proves each rank from the normal form, with no
    # elimination, and the check ranks each matrix once by elimination:
    # the kernel against the trace of the projection
    calls = []
    rank = RMatrix.rank

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(RMatrix, "rank", counted)
    result = run_check("2.6", trials=20)
    assert result.ok and result.total == 20
    assert len(calls) == 20


def test_rank_floor_check_decides_each_generator_once(monkeypatch):
    # the emission check proves each generator r-potent and hands the Potent
    # on; the rank floor reuses it, and at r - 1 <= n decides every other
    # member of each closure by a walk in the closure's own products: no
    # member takes potent_at, and each complete closure makes exactly
    # |S|·|G| exact products
    import rpotent.generators
    import rpotent.semigroup
    import rpotent.verification

    families, checked, decided, floor_products = [], [], [], []
    products = 0
    verify_emission = rpotent.generators._verify_emission
    potent_at = rpotent.semigroup.potent_at
    build = rpotent.verification.rank_dominant_semigroup_generators
    floor = rpotent.verification.semigroup_rank_floor_check
    matmul = RMatrix.__matmul__

    def checking_emission(a, *args):
        checked.append(a)
        return verify_emission(a, *args)

    def decided_potent_at(m, r):
        decided.append(m)
        return potent_at(m, r)

    def built(*args):
        gens = build(*args)
        families.append(gens)
        return gens

    def counted(x, y):
        nonlocal products
        products += 1
        return matmul(x, y)

    def counted_floor(*args, **kwargs):
        before = products
        report = floor(*args, **kwargs)
        floor_products.append(products - before)
        return report

    monkeypatch.setattr(rpotent.generators, "_verify_emission", checking_emission)
    monkeypatch.setattr(rpotent.semigroup, "potent_at", decided_potent_at)
    monkeypatch.setattr(rpotent.verification, "rank_dominant_semigroup_generators", built)
    monkeypatch.setattr(rpotent.verification, "semigroup_rank_floor_check", counted_floor)
    monkeypatch.setattr(RMatrix, "__matmul__", counted)
    result = run_check("6.4")
    monkeypatch.undo()
    assert result.ok and result.total == 50
    assert len(families) >= 50
    assert checked == [p.a for gens in families for p in gens]
    assert all(3 - 1 <= p.a.n for gens in families for p in gens)  # r <= 4 throughout
    assert decided == []
    expected = []
    for gens in families:
        matrices = list(dict.fromkeys(p.a for p in gens))
        expected.append(len(rational_closure(matrices)) * len(matrices))
    assert floor_products == expected


def _power_closure_inputs():
    """Check 6.1's default cases and every 0/1 potent with n <= 3, each checked at its least r."""
    half = CHECKS["6.1"].default_trials // 2
    cases = itertools.chain(
        high_rank_cases(half, DEFAULT_SEED),
        singular_zero_diag_cases(CHECKS["6.1"].default_trials - half, DEFAULT_SEED + 1),
    )
    yield from (p for _, _, _, p in cases)
    yield from (decide(a) for a, _ in small_zero_one_potents())


def test_power_closure_by_a_alone_matches_every_pair():
    # check 6.1 multiplies each power by A alone; every pair of powers is the
    # reference, on the powers A, ..., A^L and on each shorter prefix A, ..., A^j,
    # which is closed only when A^(j+1) = A
    closed = not_closed = 0
    for p in _power_closure_inputs():
        powers = list(p.power_cycle())
        for j in range(1, len(powers) + 1):
            verdict = powers_closed(powers[:j], p.a)
            assert verdict == all_pairs_closed(powers[:j]), (p.a, j)
            closed += verdict
            not_closed += not verdict
    assert closed >= 100 + 87 and not_closed > 0
