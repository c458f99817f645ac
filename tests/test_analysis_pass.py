"""One potency pass and one triangularization per ``analyze`` run.

Counts calls while ``analyze --json`` runs on each bundled example: the walk
of ``minimal_potency`` runs once, A is triangularized once, its digraph is
searched for components once, its rank is taken at most once, and no report
re-checks A^r = A.  On non-potent input the walk stops at the first power
that certifies it, within a product budget.
"""

import json
import sys
from collections import Counter
from importlib import resources

import pytest

from rpotent import cli, decomposition, potency
from rpotent.matrix import RMatrix, load_matrix

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

    _rebind(monkeypatch, potency.minimal_potency, counting("walk", potency.minimal_potency, False))
    _rebind(monkeypatch, potency.is_r_potent, counting("check", potency.is_r_potent, True))
    _rebind(
        monkeypatch,
        decomposition.block_triangularize,
        counting("triangularize", decomposition.block_triangularize, True),
    )
    monkeypatch.setattr(RMatrix, "rank", counting("rank", RMatrix.rank, True))
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

    assert counts["walk"] == 1
    assert counts["triangularize"] == 1
    assert counts["scc"] == 1
    assert counts["rank"] <= 1
    assert counts["check"] == 0


def test_explicit_exponent_past_the_cap_is_checked_by_powers(tmp_path, monkeypatch, capsys):
    # cycles of lengths 5, 7, 8, 9 and 11 on 40 points: A^r = A first at r = 27721,
    # which a walk of one product per exponent would take 27720 products to reach
    images, start = [], 0
    for n in (5, 7, 8, 9, 11):
        images += [start + (i + 1) % n for i in range(n)]
        start += n
    rows = [[int(images[i] == j) for j in range(40)] for i in range(40)]
    path = tmp_path / "order27720.json"
    path.write_text(json.dumps({"n": 40, "entries": rows}))
    products = Counter()
    matmul = RMatrix.__matmul__

    def counting(x, y):
        products["matmul"] += 1
        return matmul(x, y)

    monkeypatch.setattr(RMatrix, "__matmul__", counting)
    assert cli.main(["analyze", str(path), "--r", "27721", "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["potency"]["is_r_potent"] and bundle["potency"]["minimal_r"] is None
    assert bundle["potency"]["rank"] == 40
    # the capped walk, then a few square-and-multiply powers of A and its blocks
    assert products["matmul"] <= 400


def _walk_products(monkeypatch):
    """Counts, from now on, of exact products inside the potency walk and outside it, and of powers by exponent."""
    inside = [False]
    products = Counter()
    walk, matmul, power = potency.minimal_potency, RMatrix.__matmul__, RMatrix.pow

    def counting_walk(*args, **kwargs):
        inside[0] = True
        try:
            return walk(*args, **kwargs)
        finally:
            inside[0] = False

    def counting_matmul(x, y):
        products["walk" if inside[0] else "other"] += 1
        return matmul(x, y)

    def counting_pow(x, k):
        products[f"pow{k}"] += 1
        return power(x, k)

    _rebind(monkeypatch, walk, counting_walk)
    monkeypatch.setattr(RMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(RMatrix, "pow", counting_pow)
    return products


def _write(tmp_path, rows):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"n": len(rows), "entries": rows}))
    return str(path)


def test_positive_nonpotent_input_makes_no_walk_product(tmp_path, monkeypatch, capsys):
    # trace(A) = 36/7 is not an integer, so A itself certifies non-potency
    rows = [[f"{i + j + 1}/7" for j in range(6)] for i in range(6)]
    path = _write(tmp_path, rows)
    products = _walk_products(monkeypatch)
    assert cli.main(["analyze", path, "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["potency"] is None
    assert bundle["nonpotency"] == {"power": 1, "invariant": "trace_integer"}
    assert products["walk"] == 0


def test_nilpotent_walk_stops_at_the_zero_power(tmp_path, monkeypatch, capsys):
    # all ones below the diagonal: A^19 != 0 = A^20
    rows = [[int(j < i) for j in range(20)] for i in range(20)]
    path = _write(tmp_path, rows)
    products = _walk_products(monkeypatch)
    assert cli.main(["analyze", path, "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["nonpotency"] == {"power": 20, "invariant": "nonzero"}
    assert products["walk"] <= 19


def test_certified_input_skips_the_power_past_the_cap(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, [[2, 1], [1, 2]])
    products = _walk_products(monkeypatch)
    assert cli.main(["analyze", path, "--r", "100", "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert not bundle["potency"]["is_r_potent"]
    assert bundle["nonpotency"] == {"power": 1, "invariant": "trace_bound"}
    # neither A^100 nor A^99: A is not 100-potent, so no projection trace is reported
    assert products["pow100"] == 0 and products["pow99"] == 0
    assert bundle["potency"]["trace_of_projection"] is None


def test_non_potent_input_at_a_given_exponent_takes_no_power(tmp_path, monkeypatch, capsys):
    # A^59 of the 101-digit 10^100 has 5901 digits, past the int-to-string
    # limit; it is no projection anyway, since A^60 != A
    path = tmp_path / "a.json"
    path.write_text('{"n": 1, "entries": [[1' + "0" * 100 + "]]}")
    products = _walk_products(monkeypatch)
    assert cli.main(["analyze", str(path), "--r", "60", "--json"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert not bundle["potency"]["is_r_potent"]
    assert bundle["potency"]["trace_of_projection"] is None
    assert products["pow59"] == 0 and products["walk"] + products["other"] == 0
    assert cli.main(["analyze", str(path), "--r", "60"]) == 0
    assert "projection trace" not in capsys.readouterr().out
