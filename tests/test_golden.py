"""``analyze --json`` output, byte for byte, on fixed inputs.

``tests/golden/<name>.analyze.json`` is the expected output of
``rpotent analyze <input> --json``, where the input is the bundled example
``<name>.json`` from the package data or ``tests/golden/<name>.json`` or
``.csv``: a positive, a sparse and a nilpotent matrix that are not potent,
whose outputs carry the ``nonpotency`` certificate, two permutation
matrices whose least exponents, 85 and 316, lie past where a capped walk
stopped, a CSV file with ``p/q`` cells, padded cells and a zero row, and the
3x3 zero matrix and diag(0, 0, 0, 0, 1, 1), whose adjacent zero components
count as one zero block each.
"""

from importlib import resources
from pathlib import Path

import pytest

from rpotent.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("rpotent").joinpath("data")
EXPECTED = sorted(p.name.removesuffix(".analyze.json") for p in GOLDEN.glob("*.analyze.json"))


def test_every_bundled_example_and_nonpotent_input_is_covered():
    bundled = {p.name.removesuffix(".json") for p in DATA.iterdir() if p.name.endswith(".json")}
    local = {"positive_rational", "sparse_integer", "nilpotent"}
    local |= {"permutation_cycles_3_4_7", "permutation_cycles_5_7_9", "padded_rational"}
    local |= {"zero_3x3", "diag_0_0_0_0_1_1"}
    assert set(EXPECTED) == bundled | local


@pytest.mark.parametrize("name", EXPECTED)
def test_analyze_json_matches_golden_bytes(name, capsys):
    local = [GOLDEN / f"{name}{suffix}" for suffix in (".json", ".csv")]
    source = next((str(p) for p in local if p.exists()), str(DATA.joinpath(f"{name}.json")))
    assert main(["analyze", source, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.analyze.json").read_text()
