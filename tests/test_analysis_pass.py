"""One potency decision and one triangularization per ``analyze`` run.

Counts calls while ``analyze --json`` runs on each bundled example: the
decision of ``minimal_potency`` runs once, A's pattern is read once, A is
triangularized once, its digraph is searched for components once, its rank
is taken at most once, and no report re-checks A^r = A.  Non-potent input is
certified within a product budget that does not grow with the lcm of the
block periods.
"""

import json
import sys
from collections import Counter
from importlib import resources

import pytest

from rpotent import cli, decomposition, potency
from rpotent.generators import block_diagonal, cycle_matrix
from rpotent.matrix import PatternMatrix, RMatrix, load_matrix

DATA = resources.files("rpotent").joinpath("data")
BUNDLED = sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json"))


def _rebind(monkeypatch, original, replacement):
    """Replace ``original`` under every name any rpotent module binds it to."""
    for name, module in list(sys.modules.items()):
        if name == "rpotent" or name.startswith("rpotent."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def test_every_bundled_example_is_covered():
    assert len(BUNDLED) == 4


@pytest.mark.parametrize("name", BUNDLED)
def test_analyze_makes_one_pass(name, monkeypatch, capsys):
    path = str(DATA.joinpath(name))
    a = load_matrix(path)
    counts = Counter()

    def counting(label, fn, on_a_only):
        def wrapper(*args, **kwargs):
            if not on_a_only or args[0] == a:
                counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    _rebind(monkeypatch, potency.minimal_potency, counting("decision", potency.minimal_potency, False))
    _rebind(monkeypatch, potency.is_r_potent, counting("check", potency.is_r_potent, True))
    _rebind(
        monkeypatch,
        decomposition.block_triangularize,
        counting("triangularize", decomposition.block_triangularize, True),
    )
    monkeypatch.setattr(RMatrix, "rank", counting("rank", RMatrix.rank, True))
    monkeypatch.setattr(RMatrix, "pattern", counting("pattern", RMatrix.pattern, True))
    scc = decomposition.Digraph.strongly_connected_components

    def counting_scc(graph):
        # a search on a digraph of A's size is a search of A: every block of
        # a decomposable A is smaller
        if graph.n == a.n:
            counts["scc"] += 1
        return scc(graph)

    monkeypatch.setattr(decomposition.Digraph, "strongly_connected_components", counting_scc)

    assert cli.main(["analyze", path, "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["potency"]["is_r_potent"]

    assert counts["decision"] == 1
    # the triangularization reads it; the oracle, the witness and the Wielandt test take it from there
    assert counts["pattern"] == 1
    assert counts["triangularize"] == 1
    assert counts["scc"] == 1
    assert counts["rank"] <= 1
    assert counts["check"] == 0


def _permutation_file(tmp_path, lengths, weight=1, zeros=0):
    """The permutation matrix with cycles of the given lengths times ``weight``, then ``zeros`` 1x1 zero blocks."""
    a = block_diagonal([cycle_matrix(k) for k in lengths] + [RMatrix.zeros(1)] * zeros)
    return _write(tmp_path, [[weight * x for x in row] for row in a.num])


def test_explicit_exponent_of_a_large_order_is_checked_by_powers(tmp_path, monkeypatch, capsys):
    # cycles of lengths 5, 7, 8, 9 and 11 on 40 points: A^r = A first at r = 27721,
    # which a walk of one product per exponent would take 27720 products to reach
    path = _permutation_file(tmp_path, (5, 7, 8, 9, 11))
    products = _products(monkeypatch)
    assert cli.main(["analyze", path, "--r", "27721", "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["potency"]["is_r_potent"] and bundle["potency"]["minimal_r"] == 27721
    assert bundle["potency"]["rank"] == 40 and bundle["ok"]
    # the decision, then a few square-and-multiply powers of the blocks
    assert products["matmul"] <= 400


def test_large_order_with_a_zero_block_predicts_from_the_blocks(tmp_path, monkeypatch, capsys):
    # L = 27720 and rank 40 < n = 41: the singular zero-diagonal criterion
    # holds by the zero block, with no walk through the L powers of A
    path = _permutation_file(tmp_path, (5, 7, 8, 9, 11), zeros=1)
    products = _products(monkeypatch)
    assert cli.main(["analyze", path, "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["potency"]["minimal_r"] == 27721 and bundle["potency"]["rank"] == 40
    assert bundle["prediction"]["case"] == "singular_zero_diagonal" and bundle["ok"]
    assert products["matmul"] <= 400 and products["pattern_mul"] <= 100


def _products(monkeypatch):
    """Counts, from now on, of exact products, of pattern products, and of powers by exponent."""
    products = Counter()
    matmul, power, pattern_mul = RMatrix.__matmul__, RMatrix.pow, PatternMatrix.__mul__

    def counting_pattern_mul(x, y):
        products["pattern_mul"] += 1
        return pattern_mul(x, y)

    def counting_matmul(x, y):
        products["matmul"] += 1
        return matmul(x, y)

    def counting_pow(x, k):
        products[f"pow{k}"] += 1
        return power(x, k)

    monkeypatch.setattr(RMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(RMatrix, "pow", counting_pow)
    monkeypatch.setattr(PatternMatrix, "__mul__", counting_pattern_mul)
    return products


def _write(tmp_path, rows):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"n": len(rows), "entries": rows}))
    return str(path)


@pytest.mark.parametrize("weight", [1000, 10**10])
def test_weighted_permutation_is_certified_within_a_product_budget(weight, tmp_path, monkeypatch, capsys):
    # L = 27720 > n = 40: each block is checked at its own period first, and
    # the first, a weighted 5-cycle, already fails; A^27721 is never formed
    path = _permutation_file(tmp_path, (5, 7, 8, 9, 11), weight)
    products = _products(monkeypatch)
    assert cli.main(["analyze", path, "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["potency"] is None and bundle["nonpotency"] == {"period_lcm": 27720}
    assert products["pow27720"] == 0
    assert products["matmul"] <= 10


def test_positive_nonpotent_input_takes_one_product(tmp_path, monkeypatch, capsys):
    # one primitive block, so L = 1, and A^2 != A decides
    rows = [[f"{i + j + 1}/7" for j in range(6)] for i in range(6)]
    path = _write(tmp_path, rows)
    products = _products(monkeypatch)
    assert cli.main(["analyze", path, "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["potency"] is None
    assert bundle["nonpotency"] == {"period_lcm": 1}
    assert products["matmul"] == 1


def test_nilpotent_input_takes_one_product(tmp_path, monkeypatch, capsys):
    # all ones below the diagonal: every block is a 1 x 1 zero, so L = 1 and
    # A^2 != A decides, where a walk to the zero power took 19 products
    rows = [[int(j < i) for j in range(20)] for i in range(20)]
    path = _write(tmp_path, rows)
    products = _products(monkeypatch)
    assert cli.main(["analyze", path, "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["nonpotency"] == {"period_lcm": 1}
    assert products["matmul"] == 1


def test_certified_input_takes_no_power_at_the_given_exponent(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, [[2, 1], [1, 2]])
    products = _products(monkeypatch)
    assert cli.main(["analyze", path, "--r", "100", "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert not bundle["potency"]["is_r_potent"]
    assert bundle["nonpotency"] == {"period_lcm": 1}
    # neither A^100 nor A^99: A is not 100-potent, so no projection trace is reported
    assert products["pow100"] == 0 and products["pow99"] == 0
    assert bundle["potency"]["trace_of_projection"] is None


def test_non_potent_input_at_a_given_exponent_takes_no_power(tmp_path, monkeypatch, capsys):
    # A^59 of the 101-digit 10^100 has 5901 digits, past the int-to-string
    # limit; it is no projection anyway, since A^60 != A
    path = tmp_path / "a.json"
    path.write_text('{"n": 1, "entries": [[1' + "0" * 100 + "]]}")
    products = _products(monkeypatch)
    assert cli.main(["analyze", str(path), "--r", "60", "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert not bundle["potency"]["is_r_potent"]
    assert bundle["potency"]["trace_of_projection"] is None
    # the decision's one product A^2, and no power at 60 or 59
    assert products["pow59"] == 0 and products["pow60"] == 0 and products["matmul"] == 1
    assert cli.main(["analyze", str(path), "--r", "60"]) == 0
    assert "projection trace" not in capsys.readouterr().out
