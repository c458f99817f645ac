"""``analyze --json`` output, byte for byte, on fixed inputs.

``tests/golden/<name>.analyze.json`` is the expected output of
``rpotent analyze <input> --json``, where the input is the bundled example
``<name>.json`` from the package data or ``tests/golden/<name>.json`` or
``.csv``: a positive, a sparse and a nilpotent matrix that are not potent,
whose outputs carry the ``nonpotency`` certificate, two permutation
matrices whose least exponents, 85 and 316, lie past where a capped walk
stopped, a CSV file with ``p/q`` cells, padded cells and a zero row, and the
3x3 zero matrix and diag(0, 0, 0, 0, 1, 1), whose adjacent zero components
count as one zero block each, and the idempotent [[1,0,0],[0,1,0],[1,0,0]],
whose block order (1), (2), (0) differs from the order in which a depth-first
component search finishes the components, (2), (0), (1), and an integer
matrix on Wielandt's extremal 20 x 20 pattern, whose squared-index power is
positive past the dimension where the report used to stop.

``tests/golden/<name>.analyze.txt`` is the expected output of
``rpotent analyze <input>``, the human report, on the same inputs.

``tests/golden/<name>.semigroup.json`` is the expected output of
``rpotent semigroup <inputs> --r 4``, where the inputs are the bundled
example ``<name>.json`` or the generators ``tests/golden/<name>.g*.json``:
the block tower and the 3-cycle, one generator each, and a two-generator
family of check 6.4 (``rank_dominant_semigroup_generators(4, 2, 11)``) with
three blocks.
"""

from importlib import resources
from pathlib import Path

import pytest

from rpotent.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("rpotent").joinpath("data")
EXPECTED = sorted(p.name.removesuffix(".analyze.json") for p in GOLDEN.glob("*.analyze.json"))
SEMIGROUPS = sorted(p.name.removesuffix(".semigroup.json") for p in GOLDEN.glob("*.semigroup.json"))


def test_every_bundled_example_and_nonpotent_input_is_covered():
    bundled = {p.name.removesuffix(".json") for p in DATA.iterdir() if p.name.endswith(".json")}
    local = {"positive_rational", "sparse_integer", "nilpotent"}
    local |= {"permutation_cycles_3_4_7", "permutation_cycles_5_7_9", "padded_rational"}
    local |= {"zero_3x3", "diag_0_0_0_0_1_1", "block_order_tiebreak", "wielandt_extremal_20"}
    assert set(EXPECTED) == bundled | local


def _analyze_input(name: str) -> str:
    local = [GOLDEN / f"{name}{suffix}" for suffix in (".json", ".csv")]
    return next((str(p) for p in local if p.exists()), str(DATA.joinpath(f"{name}.json")))


def test_every_analyze_golden_has_a_human_report():
    assert sorted(p.name.removesuffix(".analyze.txt") for p in GOLDEN.glob("*.analyze.txt")) == EXPECTED


@pytest.mark.parametrize("name", EXPECTED)
def test_analyze_json_matches_golden_bytes(name, capsys):
    assert main(["analyze", _analyze_input(name), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.analyze.json").read_text()


@pytest.mark.parametrize("name", EXPECTED)
def test_analyze_human_report_matches_golden_bytes(name, capsys):
    assert main(["analyze", _analyze_input(name)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.analyze.txt").read_text()


def test_semigroup_goldens_are_present():
    assert SEMIGROUPS == ["quadripotent_cycle3", "rank_dominant_r4_seed11", "uniform_block_tower_r4"]


@pytest.mark.parametrize("name", SEMIGROUPS)
def test_semigroup_json_matches_golden_bytes(name, capsys):
    bundled = DATA.joinpath(f"{name}.json")
    inputs = [str(bundled)] if bundled.is_file() else [str(p) for p in sorted(GOLDEN.glob(f"{name}.g*.json"))]
    assert inputs
    assert main(["semigroup", *inputs, "--r", "4"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.semigroup.json").read_text()
