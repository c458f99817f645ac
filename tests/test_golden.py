"""``analyze --json`` output, byte for byte, on fixed inputs.

``tests/golden/<name>.analyze.json`` is the expected output of
``rpotent analyze <input> --json``, where the input is the bundled example
``<name>.json`` from the package data or ``tests/golden/<name>.json``: a
positive, a sparse and a nilpotent matrix that are not potent, whose
outputs carry the ``nonpotency`` certificate.
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
    assert set(EXPECTED) == bundled | {"positive_rational", "sparse_integer", "nilpotent"}


@pytest.mark.parametrize("name", EXPECTED)
def test_analyze_json_matches_golden_bytes(name, capsys):
    local = GOLDEN / f"{name}.json"
    source = str(local) if local.exists() else str(DATA.joinpath(f"{name}.json"))
    assert main(["analyze", source, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.analyze.json").read_text()
