"""``verify`` and ``generate`` output, byte for byte, with the exit code.

``tests/golden/<name>.stdout`` is the expected stdout of ``rpotent <argv>``
for each case below: every ``verify`` check at three trials, the Klein
four-group counterexample of ``verify --theorem 6.4 --seed 8`` (48/50, exit
1), and ``generate`` for every kind, the ``kron`` alias, ``--len`` and
``--padded``.
"""

from pathlib import Path

import pytest

from rpotent.cli import main
from rpotent.verification import CHECKS

GOLDEN = Path(__file__).parent / "golden"

CHECK_IDS = ("2.4", "2.5", "2.6", "3.1", "3.2", "4.1", "5.1", "5.2", "6.1", "6.2", "6.3", "6.4", "7.1", "7.2", "perron")

CASES = [(f"verify_{cid}_trials3", ["verify", "--theorem", cid, "--trials", "3"], 0) for cid in CHECK_IDS] + [
    ("verify_6.4_seed8", ["verify", "--theorem", "6.4", "--seed", "8"], 1),
    ("generate_cycle", ["generate", "--kind", "cycle", "--length", "3"], 0),
    ("generate_cycle_len", ["generate", "--kind", "cycle", "--len", "5", "--seed", "9"], 0),
    ("generate_rank_one_idempotent", ["generate", "--kind", "rank_one_idempotent", "--dim", "3", "--seed", "2"], 0),
    ("generate_rank_one_idempotent_padded",
     ["generate", "--kind", "rank_one_idempotent", "--dim", "4", "--padded", "--seed", "3"], 0),
    ("generate_block_diagonal", ["generate", "--kind", "block_diagonal", "--sizes", "1,2,3"], 0),
    ("generate_kronecker", ["generate", "--kind", "kronecker", "--r", "3", "--rank", "4", "--seed", "7"], 0),
    ("generate_kron", ["generate", "--kind", "kron", "--r", "4", "--rank", "5", "--seed", "11"], 0),
    ("generate_triangular_family", ["generate", "--kind", "triangular_family", "--r", "4", "--seed", "5"], 0),
    ("generate_permutation", ["generate", "--kind", "permutation", "--n", "5", "--seed", "1"], 0),
    ("generate_conjugated", ["generate", "--kind", "conjugated", "--length", "4", "--seed", "3"], 0),
]


def test_every_check_is_pinned():
    assert set(CHECK_IDS) == set(CHECKS)


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_stdout_and_exit_code_match_golden(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()
