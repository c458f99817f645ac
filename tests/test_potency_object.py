"""The analyze ``potency`` object against the ``Fraction`` oracles.

``analyze --json`` writes ``potency``, ``nonpotency`` and ``ok`` from one
decision, ``minimal_potency`` then ``Potent.at``.  Here each is rebuilt from
the oracles alone: L from the diagonal hits of each block's boolean powers,
the powers of A by the naive cubic product, and the rank by fraction
Gaussian elimination.  Every golden and bundled input is checked at its
minimal r and at r + L, at r + 1 when L > 1 (where A is not potent), and
every input that is potent at no r with no ``--r`` and at ``--r 5``.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from rpotent.cli import main
from rpotent.matrix import RMatrix, format_entry, load_matrix

from oracles import diagonal_hit_period_lcm, gauss_rank, naive_power

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("rpotent").joinpath("data")
INPUTS = sorted(
    p
    for p in GOLDEN.iterdir()
    if p.suffix in (".json", ".csv") and not p.name.endswith((".analyze.json", ".semigroup.json"))
) + sorted(Path(str(p)) for p in DATA.iterdir() if p.name.endswith(".json"))


def _expected(a: RMatrix, big_l: int, r: int | None) -> dict:
    """The ``potency``, ``nonpotency`` and ``ok`` of ``analyze --json`` at ``r``, from the oracles."""
    minimal_r = big_l + 1 if naive_power(a, big_l + 1) == a else None
    if r is None:
        r = minimal_r
    nonpotency = None if minimal_r is not None else {"period_lcm": big_l}
    if r is None:
        return {"potency": None, "nonpotency": nonpotency, "ok": True}
    rank = gauss_rank(a)
    potent = naive_power(a, r) == a
    trace = sum(naive_power(a, r - 1).entries[i][i] for i in range(a.n)) if potent else None
    potency = {
        "is_r_potent": potent,
        "r": r,
        "minimal_r": minimal_r,
        "rank": rank,
        "trace_of_projection": None if trace is None else format_entry(trace),
        "rank_trace_ok": trace is None or trace == rank,
    }
    return {"potency": potency, "nonpotency": nonpotency, "ok": True}


def _analyze(capsys, path: Path, r: int | None) -> dict:
    argv = ["analyze", "--json", str(path)] + ([] if r is None else ["--r", str(r)])
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["ok"] else 1)
    return {"potency": report["potency"], "nonpotency": report.get("nonpotency"), "ok": report["ok"]}


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.name)
def test_potency_object_matches_the_fraction_oracles(capsys, path):
    a = load_matrix(str(path))
    big_l = diagonal_hit_period_lcm(a)
    if naive_power(a, big_l + 1) == a:
        # L + 1 is the least exponent: no power below it returns A (checked where L is small)
        assert big_l > 64 or all(naive_power(a, k) != a for k in range(2, big_l + 1))
        exponents = [None, big_l + 1, 2 * big_l + 1] + ([big_l + 2] if big_l > 1 else [])
    else:
        exponents = [None, 5]
    for r in exponents:
        expected = _expected(a, big_l, r)
        assert _analyze(capsys, path, r) == expected, r
        if r == big_l + 2 and big_l > 1:
            assert not expected["potency"]["is_r_potent"]
