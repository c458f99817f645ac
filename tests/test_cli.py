"""End-to-end command-line behavior: formats, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpotent import generators
from rpotent.cli import main
from rpotent.decomposition import Digraph
from rpotent.generators import MAX_SPEC_DIM, block_diagonal, cycle_matrix, uniform_idempotent
from rpotent.matrix import PatternMatrix, RMatrix, load_matrix, matrix_from_json, matrix_to_json
import rpotent.semigroup
from rpotent.verification import CHECKS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _write_tower(tmp_path, r=4):
    tower = block_diagonal([uniform_idempotent(k) for k in range(1, r)])
    path = tmp_path / "tower.json"
    path.write_text(matrix_to_json(tower))
    return str(path)


def _write_cycle(tmp_path, length=3):
    path = tmp_path / f"cycle{length}.json"
    path.write_text(matrix_to_json(cycle_matrix(length)))
    return str(path)


def _load_schema():
    text = resources.files("rpotent").joinpath("schemas/analyze.schema.json").read_text()
    return json.loads(text)


class TestAnalyze:
    def test_quadripotent_cycle(self, tmp_path, capsys):
        path = _write_cycle(tmp_path)
        assert main(["analyze", path, "--r", "4"]) == 0
        out = capsys.readouterr().out
        assert "indecomposable" in out
        assert "rank = 3" in out
        assert "projection trace = 3" in out

    def test_block_tower(self, tmp_path, capsys):
        path = _write_tower(tmp_path)
        assert main(["analyze", path, "--r", "4"]) == 0
        out = capsys.readouterr().out
        assert "decomposable" in out
        assert "3 blocks" in out

    def test_json_output_validates_against_schema(self, tmp_path, capsys):
        schema = _load_schema()
        for path in (_write_cycle(tmp_path), _write_tower(tmp_path)):
            assert main(["analyze", path, "--json"]) == 0
            bundle = json.loads(capsys.readouterr().out)
            jsonschema.validate(bundle, schema)

    def test_json_output_for_non_potent_matrix(self, tmp_path, capsys):
        path = tmp_path / "nilpotent.json"
        path.write_text(json.dumps({"n": 2, "entries": [[0, 1], [0, 0]]}))
        assert main(["analyze", str(path), "--json"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        jsonschema.validate(bundle, _load_schema())
        assert bundle["potency"] is None
        # every block is a 1 x 1 zero, so L = 1, and A^2 = 0 != A
        assert bundle["nonpotency"] == {"period_lcm": 1}

    def test_human_report_names_the_nonpotency_certificate(self, tmp_path, capsys):
        path = tmp_path / "nilpotent.json"
        path.write_text(json.dumps({"n": 2, "entries": [[0, 1], [0, 0]]}))
        assert main(["analyze", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == [
            "potency: no exponent r with A^r = A",
            "  not potent for any r: A^2 != A at L = 1, the lcm of the block periods",
        ]

    @pytest.mark.parametrize("name", ["nilpotent.json", "positive_rational.json"])
    def test_human_report_at_r_says_no_exponent_exists(self, name, capsys):
        assert main(["analyze", os.path.join(GOLDEN, name), "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "potency: A^3 = A fails; no r has A^r = A; rank = 3"
        assert "None" not in out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["analyze", str(bad)]) == 2

    def test_negative_entry_exits_two(self, tmp_path):
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps({"n": 1, "entries": [[-1]]}))
        assert main(["analyze", str(bad)]) == 2

    @pytest.mark.parametrize("entry", ["\u0663", "\uff11", "3.\u0665", "\u0661e\u0662"])
    def test_entry_in_non_ascii_digits_exits_two(self, tmp_path, capsys, entry):
        bad = tmp_path / "digits.json"
        bad.write_text(json.dumps({"n": 1, "entries": [[entry]]}))
        assert main(["analyze", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: cannot parse matrix entry {entry!r}\n"

    @pytest.mark.parametrize("entry", ["1_000", "1_0/3", "1_0e5", "1.0_0", "1e1_0", "2/1_0"])
    def test_entry_with_underscores_exits_two(self, tmp_path, capsys, entry):
        # ``Fraction`` reads "1_000" as 1000 from Python 3.11 on only, so the
        # reader refuses it on every interpreter, in JSON and in CSV
        for name, text in (("u.json", json.dumps({"n": 1, "entries": [[entry]]})), ("u.csv", entry + "\n")):
            bad = tmp_path / name
            bad.write_text(text)
            assert main(["analyze", str(bad)]) == 2
            assert capsys.readouterr().err == f"error: cannot parse matrix entry {entry!r}\n"

    def test_boolean_entry_exits_two(self, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({"n": 2, "entries": [[True, False], [False, False]]}))
        assert main(["analyze", str(bad)]) == 2
        bad.write_text(json.dumps({"n": True, "entries": [[1]]}))
        assert main(["analyze", str(bad)]) == 2

    def test_perron_value_of_huge_entries(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        for exponent, expected in ((200, 2e200), (400, None)):
            big = 10**exponent
            path.write_text(json.dumps({"n": 2, "entries": [[str(big)] * 2] * 2}))
            assert main(["analyze", str(path), "--json"]) == 0
            bundle = json.loads(capsys.readouterr().out)
            jsonschema.validate(bundle, _load_schema())
            # equal row sums: the bracket is the radius itself, exactly
            assert bundle["spectral"]["perron_bracket"] == [2 * big, 2 * big]
            assert bundle["spectral"]["perron_value"] == expected
        assert main(["analyze", str(path)]) == 0
        assert "perron value above the float range" in capsys.readouterr().out

    def test_perron_vector_entry_below_the_float_range(self, tmp_path, capsys):
        # scaled to floats, the last row is 2^-1074, the least subnormal: a
        # power step that rounds it to 0 must not reach a Collatz-Wielandt quotient
        big, small = str(2**1100 - 1), str(2**26)
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"n": 3, "entries": [[big] * 3, [big] * 3, [small, 0, 0]]}))
        assert main(["analyze", str(path), "--json"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        jsonschema.validate(bundle, _load_schema())
        low, high = (Fraction(x) for x in bundle["spectral"]["perron_bracket"])
        # rho exceeds 2 big, the radius of the leading 2 x 2 block
        assert 0 < low <= high and 2 * (2**1100 - 1) <= high
        assert main(["analyze", str(path)]) == 0

    def test_unprintable_perron_bracket_is_rounded_outward(self, tmp_path, capsys):
        # 1/p and 1/q with p, q of limit digits: the exact bracket ends have
        # denominators beyond the int-to-string limit
        limit = sys.get_int_max_str_digits()
        p, q = 10 ** (limit - 1) + 1, 3 * 10 ** (limit - 1) + 7
        path = tmp_path / "pq.json"
        path.write_text(json.dumps({"n": 2, "entries": [[0, f"1/{p}"], [f"1/{q}", 0]]}))
        assert main(["analyze", str(path), "--json"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        bundle = json.loads(captured.out)
        jsonschema.validate(bundle, _load_schema())
        low, high = (Fraction(x) for x in bundle["spectral"]["perron_bracket"])
        # rho^2 = 1 / (p q), and the rounded ends still bound it
        assert low < high and low**2 <= Fraction(1, p * q) <= high**2
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        # the float midpoint is 0.0 but the exact bracket is positive
        assert "spectral: period 2, perron value below the float range" in captured.out

    def test_tolerance_options_are_gone(self, tmp_path):
        path = _write_cycle(tmp_path)
        for option in (["--tol", "1e-9"], ["--max-iter", "10"]):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", path, *option])
            assert exc.value.code == 2

    def test_human_perron_value_of_huge_entries_is_bounded(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        big = str(10**200)
        path.write_text(json.dumps({"n": 2, "entries": [[big, big], [big, big]]}))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "perron value 2.000000000e+200" in out
        assert max(len(line) for line in out.splitlines()) < 80

    def test_human_perron_value_keeps_fixed_point_below_1e12(self, tmp_path, capsys):
        # fixed point from 1e-3 up to 1e12, and for the exact zero of a
        # nilpotent input; a nonzero value outside that range in e-form
        path = tmp_path / "m.json"
        for value, expected in ((10**12 - 1, "perron value 999999999999.000000000"),
                                (10**12, "perron value 1.000000000e+12"),
                                ("1/1000", "perron value 0.001000000"),
                                (f"1/{10**12}", "perron value 1.000000000e-12"),
                                (0, "perron value 0.000000000")):
            path.write_text(json.dumps({"n": 1, "entries": [[value]]}))
            assert main(["analyze", str(path)]) == 0
            assert expected in capsys.readouterr().out

    def test_missing_file_exits_two(self):
        assert main(["analyze", "/nonexistent/matrix.json"]) == 2

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("0,1,0\n0,0,1\n1,0,0\n")
        assert main(["analyze", str(path), "--r", "4"]) == 0

    def test_bundled_examples_analyze_clean(self, tmp_path, capsys):
        data = resources.files("rpotent").joinpath("data")
        for name in (
            "quadripotent_cycle3.json",
            "indecomposable_rank_one.json",
            "decomposable_rank_one.json",
            "uniform_block_tower_r4.json",
        ):
            target = tmp_path / name
            target.write_text(data.joinpath(name).read_text())
            assert main(["analyze", str(target)]) == 0


class TestGenerate:
    def test_cycle_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "c.json"
        assert main(["generate", "--kind", "cycle", "--length", "3", "-o", str(out_path)]) == 0
        m = matrix_from_json(out_path.read_text())
        assert m == cycle_matrix(3)

    def test_determinism_byte_for_byte(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--kind", "kronecker", "--r", "3", "--rank", "4", "--seed", "7"]
        assert main(args + ["-o", str(p1)]) == 0
        assert main(args + ["-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_short_aliases_match_long_forms(self, tmp_path, capsys):
        assert main(["generate", "--kind", "cycle", "--len", "3"]) == 0
        short = capsys.readouterr().out
        assert main(["generate", "--kind", "cycle", "--length", "3"]) == 0
        assert capsys.readouterr().out == short
        p1, p2 = tmp_path / "k1.json", tmp_path / "k2.json"
        assert main(["generate", "--kind", "kron", "--r", "3", "--rank", "4",
                     "--seed", "7", "-o", str(p1)]) == 0
        assert main(["generate", "--kind", "kronecker", "--r", "3", "--rank", "4",
                     "--seed", "7", "-o", str(p2)]) == 0
        assert p1.read_text() == p2.read_text()

    def test_unreachable_rank_exits_two(self, capsys):
        assert main(["generate", "--kind", "kronecker", "--r", "2", "--rank", "0"]) == 2

    def test_missing_parameter_exits_two(self, capsys):
        assert main(["generate", "--kind", "cycle"]) == 2

    def test_provenance_header_present(self, capsys):
        assert main(["generate", "--kind", "cycle", "--length", "4", "--seed", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["kind"] == "cycle"
        assert doc["provenance"]["seed"] == 9

    def test_every_kind_generates_and_analyzes(self, tmp_path, capsys):
        cases = [
            ["--kind", "rank_one_idempotent", "--dim", "3", "--seed", "2"],
            ["--kind", "rank_one_idempotent", "--dim", "3", "--padded", "--seed", "2"],
            ["--kind", "block_diagonal", "--sizes", "1,2,3"],
            ["--kind", "triangular_family", "--r", "4", "--seed", "5"],
            ["--kind", "permutation", "--n", "5", "--seed", "1"],
            ["--kind", "conjugated", "--length", "4", "--seed", "3"],
        ]
        for idx, extra in enumerate(cases):
            out_path = tmp_path / f"gen{idx}.json"
            assert main(["generate", *extra, "-o", str(out_path)]) == 0
            assert main(["analyze", str(out_path)]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize(
        "extra, foreign",
        [
            (["--kind", "cycle", "--length", "3", "--r", "5"], "--r"),
            (["--kind", "cycle", "--length", "2", "--r", "5", "--padded", "--dim", "7"], "--dim, --padded, --r"),
            (["--kind", "conjugated", "--len", "3", "--n", "3"], "--n"),
            (["--kind", "kron", "--r", "3", "--rank", "2", "--sizes", "1,2"], "--sizes"),
            (["--kind", "block_diagonal", "--sizes", "1,2", "--padded"], "--padded"),
            (["--kind", "permutation", "--n", "4", "--length", "0"], "--length"),
            (["--kind", "triangular_family", "--r", "3", "--rank", "1"], "--rank"),
            (["--kind", "rank_one_idempotent", "--dim", "3", "--n", "3"], "--n"),
        ],
    )
    def test_foreign_parameter_exits_two_and_is_named(self, extra, foreign, capsys):
        assert main(["generate", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"takes no {foreign}\n" in captured.err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--kind", "cycle", "--length", "3"],
            ["--kind", "conjugated", "--length", "3"],
            ["--kind", "rank_one_idempotent", "--dim", "3"],
            ["--kind", "block_diagonal", "--sizes", "1,2"],
            ["--kind", "kronecker", "--r", "3", "--rank", "2"],
            ["--kind", "triangular_family", "--r", "3"],
            ["--kind", "permutation", "--n", "3"],
        ],
    )
    def test_seed_is_accepted_and_recorded_for_every_kind(self, extra, capsys):
        assert main(["generate", *extra, "--seed", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["seed"] == 4

    def test_zero_parameter_counts_as_given(self, capsys):
        # a zero value reaches the builder, which rejects it, rather than being read as absent
        assert main(["generate", "--kind", "cycle", "--length", "0"]) == 2
        assert "cycle length must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag, value",
        [
            ("cycle", "--length", str(MAX_SPEC_DIM)),
            ("conjugated", "--length", str(MAX_SPEC_DIM)),
            ("permutation", "--n", str(MAX_SPEC_DIM)),
            ("rank_one_idempotent", "--dim", str(MAX_SPEC_DIM)),
            ("block_diagonal", "--sizes", f"1,{MAX_SPEC_DIM - 2},1"),
        ],
    )
    def test_dimension_above_the_bound_exits_two_before_building(self, kind, flag, value, monkeypatch, capsys):
        # the builder is a stub that records its call, so no large matrix is ever made
        built = []
        old = generators.GENERATOR_KINDS[kind]
        stub = generators.GeneratorKind(old.required, lambda seed, **params: built.append(params) or RMatrix([[1]]), old.optional)
        monkeypatch.setitem(generators.GENERATOR_KINDS, kind, stub)
        assert main(["generate", "--kind", kind, flag, value]) == 0
        assert len(built) == 1
        capsys.readouterr()
        over = f"{value},1" if kind == "block_diagonal" else str(MAX_SPEC_DIM + 1)
        assert main(["generate", "--kind", kind, flag, over]) == 2
        captured = capsys.readouterr()
        assert len(built) == 1 and captured.out == ""
        assert captured.err == f"error: dimension {MAX_SPEC_DIM + 1} is above the limit of {MAX_SPEC_DIM} for a generated matrix\n"

    def test_a_negative_size_does_not_pay_for_an_oversized_one(self, capsys):
        # the oversized block comes first, so it would be built before the negative size is refused
        assert main(["generate", "--kind", "block_diagonal", "--sizes", f"{MAX_SPEC_DIM + 1},-{MAX_SPEC_DIM}"]) == 2
        assert f"dimension {MAX_SPEC_DIM + 1} is above the limit" in capsys.readouterr().err

    def test_missing_kind_parameters_exit_two(self):
        assert main(["generate", "--kind", "rank_one_idempotent"]) == 2
        assert main(["generate", "--kind", "block_diagonal"]) == 2
        assert main(["generate", "--kind", "kronecker", "--r", "3"]) == 2
        assert main(["generate", "--kind", "triangular_family"]) == 2
        assert main(["generate", "--kind", "permutation"]) == 2


class TestVerify:
    def test_known_check_passes(self, capsys):
        assert main(["verify", "--theorem", "3.1", "--trials", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "20/20 pass" in out

    def test_unknown_check_exits_two(self, capsys):
        assert main(["verify", "--theorem", "nope"]) == 2

    def test_enumeration_check_with_n(self, capsys):
        assert main(["verify", "--theorem", "7.2", "--n", "5"]) == 0

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--theorem", "3.2", "--n", "5"], "--n applies to checks 2.4, 7.2 only"),
            (["--theorem", "7.2", "--n", "0"], "--n must be at least 1"),
            (["--theorem", "2.4", "--n", "-1"], "--n must be at least 1"),
            (["--theorem", "3.2", "--trials", "-3"], "--trials must be at least 1"),
            (["--theorem", "7.2", "--trials", "0"], "--trials must be at least 1"),
        ],
    )
    def test_bad_dimension_or_trial_count_exits_two(self, extra, message, capsys):
        assert main(["verify", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("check_id", [cid for cid, spec in CHECKS.items() if spec.accepts_n])
    def test_dimension_above_the_bound_exits_two_before_drawing(self, check_id, monkeypatch, capsys):
        # the runner is a stub that records its call, so no large family is ever drawn
        called = []

        def stub(trials, seed, n):
            called.append(n)
            return iter([(True, 1, None, "", None)])

        monkeypatch.setitem(CHECKS, check_id, dataclasses.replace(CHECKS[check_id], runner=stub))
        assert main(["verify", "--theorem", check_id, "--n", str(MAX_SPEC_DIM)]) == 0
        assert called == [MAX_SPEC_DIM]
        capsys.readouterr()
        assert main(["verify", "--theorem", check_id, "--n", str(MAX_SPEC_DIM + 1)]) == 2
        captured = capsys.readouterr()
        assert called == [MAX_SPEC_DIM] and captured.out == ""
        assert captured.err == f"error: --n must be at most {MAX_SPEC_DIM}, got {MAX_SPEC_DIM + 1}\n"

    def test_three_trials_are_accepted_by_every_check(self, capsys):
        for check_id in CHECKS:
            assert main(["verify", "--theorem", check_id, "--trials", "3"]) == 0

    def test_deterministic_output(self, capsys):
        args = ["verify", "--theorem", "3.2", "--trials", "15", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestSemigroupCommand:
    def test_single_cycle_generator(self, tmp_path, capsys):
        path = _write_cycle(tmp_path)
        assert main(["semigroup", path, "--r", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["closure_size"] == 3
        assert report["equivalences"]["decomposable"] is False

    def test_block_tower_generator_decomposes(self, tmp_path, capsys):
        path = _write_tower(tmp_path)
        assert main(["semigroup", path, "--r", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equivalences"]["decomposable"] is True
        assert report["equivalences"]["witness"]

    def test_truncation_keeps_the_verdict_and_withholds_the_rank_floor(self, tmp_path, capsys):
        path = _write_cycle(tmp_path)
        assert main(["semigroup", path, "--cap", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncated"] is True and report["closure_size"] == 1
        assert report["equivalences"]["decomposable"] is False
        assert report["equivalences"]["consistent"] is True
        assert "rank_floor" not in report
        assert main(["semigroup", path, "--r", "4", "--cap", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["equivalences"]["decomposable"] is False
        assert report["rank_floor"] == {
            "closure_size": 1, "truncated": True, "decomposable": None, "blocks": [],
            "non_potent_member": None, "all_ok": False,
        }

    def test_symmetric_group_eight_past_the_cap(self, capsys):
        gens = [os.path.join(GOLDEN, f"{name}.json") for name in ("transposition_8", "cycle_8")]
        assert main(["semigroup", *gens]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["truncated"] is True and report["closure_size"] == 10_000
        assert report["equivalences"]["decomposable"] is False
        # 840 is the lcm of the element orders of S8, so both generators are 841-potent
        assert main(["semigroup", *gens, "--r", "841"]) == 1
        floor = json.loads(capsys.readouterr().out)["rank_floor"]
        assert floor["truncated"] is True and floor["all_ok"] is False

    def test_one_by_one_zero_matrix_is_consistent(self, capsys):
        assert main(["semigroup", os.path.join(GOLDEN, "zero_1x1.json")]) == 0
        eq = json.loads(capsys.readouterr().out)["equivalences"]
        assert eq["consistent"] is True and eq["decomposable"] is False
        assert eq["zero_entry"] == [0, 0] and eq["sum_has_zero"] is True

    def test_two_block_diagonal_generators_decompose(self, tmp_path, capsys):
        c = cycle_matrix(3)
        m1 = block_diagonal([c, c])
        m2 = m1 @ m1
        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        p1.write_text(matrix_to_json(m1))
        p2.write_text(matrix_to_json(m2))
        assert main(["semigroup", str(p1), str(p2), "--r", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["generator_count"] == 2
        assert report["equivalences"]["decomposable"] is True
        assert report["equivalences"]["witness"]
        assert report["rank_floor"]["all_ok"] is True

    @pytest.mark.parametrize("entries, r", [([[0, 1], [0, 0]], "3"), ([[2]], "10000000000")])
    def test_generator_that_is_not_r_potent_exits_two(self, tmp_path, capsys, entries, r):
        # decided from the block periods: [[2]] is potent for no r, and its
        # 10^10-th power would have 10^10-bit entries
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": len(entries), "entries": entries}))
        start = time.perf_counter()
        assert main(["semigroup", str(path), "--r", r]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: every generator must be {r}-potent\n"

    def test_generators_are_decided_before_the_pattern_closure(self, capsys, monkeypatch):
        # (12) and an 8-cycle are not 3-potent; S8 would fill the member cap
        gens = [os.path.join(GOLDEN, f"{name}.json") for name in ("transposition_8", "cycle_8")]
        products = 0
        product = PatternMatrix.__mul__

        def counted(x, y):
            nonlocal products
            products += 1
            return product(x, y)

        def no_closure(generators, product):
            raise AssertionError("a closure was started")

        monkeypatch.setattr(PatternMatrix, "__mul__", counted)
        monkeypatch.setattr(rpotent.semigroup, "_close", no_closure)
        assert main(["semigroup", *gens, "--r", "3"]) == 2
        assert capsys.readouterr().err == "error: every generator must be 3-potent\n"
        assert products == 0

    def test_reach_and_its_blocks_are_computed_once_with_r(self, capsys, monkeypatch):
        # G+ and its components feed both the equivalences and the rank
        # floor; at r - 1 <= n no generator is triangularized, so these are
        # the only reach and the only component search of the run
        paths = [os.path.join(GOLDEN, f"rank_dominant_r4_seed11.g{i}.json") for i in (0, 1)]
        reached, searched = [], []
        reach = rpotent.semigroup.generator_reach
        components = Digraph.strongly_connected_components

        def counted_reach(gens):
            reached.append(gens)
            return reach(gens)

        def counted_components(graph):
            searched.append(graph)
            return components(graph)

        monkeypatch.setattr(rpotent.semigroup, "generator_reach", counted_reach)
        monkeypatch.setattr(Digraph, "strongly_connected_components", counted_components)
        assert main(["semigroup", *paths, "--r", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["rank_floor"]["all_ok"] is True
        assert len(reached) == 1 and len(searched) == 1

    def test_each_generator_pattern_is_read_once_with_r(self, capsys, monkeypatch):
        # the potency decision's triangularization reads each generator's
        # pattern; the closure and G+, which both reports read, reuse it
        paths = [os.path.join(GOLDEN, f"rank_dominant_r4_seed11.g{i}.json") for i in (0, 1)]
        gens = [load_matrix(path) for path in paths]
        read = []
        pattern = RMatrix.pattern

        def counted(m):
            read.append(m)
            return pattern(m)

        monkeypatch.setattr(RMatrix, "pattern", counted)
        assert main(["semigroup", *paths, "--r", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["rank_floor"]["all_ok"] is True
        assert [sum(m == g for m in read) for g in gens] == [1, 1]

    @pytest.mark.parametrize(
        "gens, r, admitted",
        [
            ([[[1, 1], [0, 0]], [[0, 0], [0, 1]]], 2, 2),
            (["decomposable_rank_one", "indecomposable_rank_one"], 4, 2),
            ([[[1, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [1, 0, 1], [1, 0, 0]]], 3, 5),
        ],
    )
    def test_member_that_is_not_r_potent_exits_one(self, tmp_path, capsys, gens, r, admitted):
        # the first member that is not r-potent ends the closure; the members
        # admitted before it are counted, and no cap is reached
        paths = []
        for i, g in enumerate(gens):
            if isinstance(g, str):
                paths.append(str(resources.files("rpotent") / "data" / f"{g}.json"))
            else:
                paths.append(str(tmp_path / f"g{i}.json"))
                (tmp_path / f"g{i}.json").write_text(json.dumps({"n": len(g), "entries": g}))
        start = time.perf_counter()
        assert main(["semigroup", *paths, "--r", str(r)]) == 1
        assert time.perf_counter() - start < 1
        floor = json.loads(capsys.readouterr().out)["rank_floor"]
        member = floor.pop("non_potent_member")
        assert floor == {
            "closure_size": admitted, "truncated": False, "decomposable": None, "blocks": [], "all_ok": False,
        }
        # the member is a matrix file that analyze re-checks
        path = tmp_path / "member.json"
        path.write_text(json.dumps(member))
        assert main(["analyze", str(path), "--r", str(r), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["potency"]["is_r_potent"] is False

    def test_dimension_mismatch_exits_two(self, tmp_path):
        p1 = _write_cycle(tmp_path, 3)
        p2 = _write_cycle(tmp_path, 4)
        assert main(["semigroup", p1, p2]) == 2

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main(["semigroup", str(bad)]) == 2


class TestParserReuse:
    def test_successive_calls_parse_independently(self, tmp_path, capsys):
        cycle = _write_cycle(tmp_path)
        assert main(["analyze", cycle, "--r", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["r"] == 3
        assert main(["semigroup", cycle, "--cap", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["truncated"] is True
        # no --r, --json or --cap carried over from the calls above
        assert main(["analyze", cycle]) == 0
        out = capsys.readouterr().out
        assert out.startswith("matrix: 3x3") and "A^4 = A holds" in out
        assert main(["semigroup", cycle]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["closure_size"] == 3 and "rank_floor" not in report

    def test_parser_is_built_once(self):
        from rpotent.cli import build_parser

        assert build_parser() is build_parser()


class TestAnalyzeWithMismatchedExponent:
    def test_non_matching_r_still_reports(self, tmp_path, capsys):
        path = _write_cycle(tmp_path, 3)
        # cycle(3) is not 3-potent; the bundle records that without predicting
        assert main(["analyze", path, "--r", "3", "--json"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["potency"]["is_r_potent"] is False
        assert bundle["prediction"] is None
        assert bundle["structure"] is None


class TestSubprocessEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = _write_cycle(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "rpotent", "analyze", path, "--r", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "indecomposable" in proc.stdout

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_is_not_bad_input(self, unbuffered):
        import rpotent

        package = os.path.dirname(rpotent.__file__)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        data = os.path.join(package, "data", "uniform_block_tower_r4.json")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rpotent", "semigroup", data, "--r", "4"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "error:" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""

    def test_cli_import_loads_no_numpy(self):
        import rpotent

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpotent.__file__)))
        code = "import sys, rpotent.cli; assert 'numpy' not in sys.modules, 'numpy imported'"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


def _oversized_csv_field(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1" * 200_000 + "\n")
    return str(path)


def _deeply_nested_json(tmp_path, depth=100_000):
    path = tmp_path / "deep.json"
    path.write_text('{"n": ' + "[" * depth + "]" * depth + ', "entries": []}')
    return str(path)


class TestParseBoundary:
    """Input the parsers cannot take ends in exit code 2 and a message."""

    def test_csv_field_beyond_the_field_limit_exits_two(self, tmp_path, capsys):
        path = _oversized_csv_field(tmp_path)
        for command in ("analyze", "semigroup"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid CSV matrix:")
            assert "Traceback" not in err

    def test_json_nested_beyond_the_recursion_limit_exits_two(self, tmp_path, capsys):
        path = _deeply_nested_json(tmp_path)
        for command in ("analyze", "semigroup"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid matrix JSON:")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, text",
        [("tiny.json", '{"n": 1, "entries": [["1e-10000"]]}'), ("huge.csv", "1e10000\n")],
    )
    def test_entry_beyond_the_int_string_limit_exits_two(self, tmp_path, capsys, name, text):
        # the entry parses, but its integers have more digits than the
        # interpreter converts to text, so no report could print it
        path = tmp_path / name
        path.write_text(text)
        for command in ("analyze", "semigroup"):
            start = time.perf_counter()
            assert main([command, str(path)]) == 2
            assert time.perf_counter() - start < 0.2
            err = capsys.readouterr().err
            assert err.startswith("error: matrix entry '1e")
            assert f"more than {sys.get_int_max_str_digits()} digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--kind", "cycle", "--length", "٣"],
            ["semigroup", "src/rpotent/data/quadripotent_cycle3.json", "--r", "٤"],
            ["analyze", "src/rpotent/data/quadripotent_cycle3.json", "--r", "٤"],
            ["generate", "--kind", "rank_one_idempotent", "--dim", "３"],
            ["generate", "--kind", "block_diagonal", "--sizes", "1,٢"],
            ["generate", "--kind", "kronecker", "--r", "٣", "--rank", "2"],
            ["generate", "--kind", "kronecker", "--r", "3", "--rank", "٢"],
            ["generate", "--kind", "permutation", "--n", "٣"],
            ["generate", "--kind", "cycle", "--length", "3", "--seed", "٣"],
            ["verify", "--theorem", "7.2", "--n", "٣"],
            ["verify", "--theorem", "3.2", "--trials", "٣"],
            ["verify", "--theorem", "3.2", "--seed", "٣"],
            ["semigroup", "src/rpotent/data/quadripotent_cycle3.json", "--cap", "٣"],
            ["analyze", "src/rpotent/data/quadripotent_cycle3.json", "--r", "1_0"],
            ["generate", "--kind", "cycle", "--length", "1_0"],
        ],
    )
    def test_integer_options_are_read_in_ascii_digits(self, capsys, argv):
        # int reads "٣" (Arabic-Indic three) and "３" (fullwidth three) as 3,
        # and "1_0" as 10; the options, like the matrix entries, take ASCII
        # digits only
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        argv = [os.path.join(root, a) if a.startswith("src/") else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integers are written in ASCII digits" in captured.err


# Input text for the contract test below: arbitrary text, JSON documents of
# every shape, matrix documents with degenerate or oversized ``n``, CSV grids,
# and the two inputs that once escaped as tracebacks (a CSV field longer than
# the csv module's field limit, JSON nested deeper than the recursion limit).
_ENTRIES = st.one_of(
    st.integers(0, 6),
    st.integers(-3, 10**6),
    st.sampled_from(["1/2", "0", "3/0", "x", "1e3", " 2 ", "", "-1/2", "1/3", "nan", "inf"]),
    st.booleans(),
    st.floats(0, 3),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)
_SIZES = st.one_of(
    st.integers(-2, 4),
    st.integers(10**6, 10**30),
    st.sampled_from([True, False, "2", 2.0, None, [], {}]),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=16,
)


@st.composite
def _matrix_documents(draw):
    n = draw(_SIZES)
    if isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= 4 and draw(st.booleans()):
        entries = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    else:
        entries = draw(st.one_of(st.lists(st.lists(_ENTRIES, max_size=4), max_size=4), _JSON_VALUES))
    doc = {"n": n, "entries": entries}
    if draw(st.booleans()):
        del doc[draw(st.sampled_from(["n", "entries"]))]
    return json.dumps(doc)


@st.composite
def _csv_grids(draw):
    k = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(_ENTRIES.map(lambda x: x if isinstance(x, str) else json.dumps(x)), min_size=1, max_size=k + 1),
            min_size=1,
            max_size=k + 1,
        )
    )
    return "\n".join(",".join(row) for row in rows)


_JSON_TEXT = st.one_of(
    st.text(max_size=60),
    _JSON_VALUES.map(json.dumps),
    _matrix_documents(),
    st.integers(1, 100_000).map(lambda d: '{"n": ' + "[" * d + "]" * d + ', "entries": []}'),
)
_CSV_TEXT = st.one_of(
    st.text(max_size=60),
    st.text(alphabet="0123456789/,.- \n\"e+x\r\t", max_size=60),
    _csv_grids(),
    st.integers(1, 200_000).map(lambda k: "1" * k),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


class TestInputContract:
    """Whatever a file holds, analyze and semigroup end in 0, 1 or 2, never a traceback."""

    @settings(max_examples=120, deadline=None)
    @example((".json", '{"n": ' + "[" * 100_000 + "]" * 100_000 + ', "entries": []}'))
    @example((".csv", "1" * 200_000))
    @example((".json", '{"n": 1000000, "entries": [[1]]}'))
    @example((".json", '{"n": 0, "entries": []}'))
    @given(
        st.one_of(
            st.tuples(st.just(".json"), _JSON_TEXT),
            st.tuples(st.sampled_from([".csv", ".txt"]), _CSV_TEXT),
        )
    )
    def test_every_file_ends_in_an_exit_code(self, case):
        suffix, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input" + suffix)
            with open(path, "w", encoding="utf-8", errors="surrogatepass", newline="") as fh:
                fh.write(text)
            for command in ("analyze", "semigroup"):
                rc, err = _run([command, path])
                assert rc in (0, 1, 2)
                assert "Traceback" not in err
