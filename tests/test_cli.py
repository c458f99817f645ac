"""End-to-end command-line behavior: formats, exit codes, determinism."""

import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from rpotent.cli import main
from rpotent.generators import block_diagonal, cycle_matrix, uniform_idempotent
from rpotent.matrix import matrix_from_json, matrix_to_json


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

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["analyze", str(bad)]) == 2

    def test_negative_entry_exits_two(self, tmp_path):
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps({"n": 1, "entries": [[-1]]}))
        assert main(["analyze", str(bad)]) == 2

    def test_boolean_entry_exits_two(self, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({"n": 2, "entries": [[True, False], [False, False]]}))
        assert main(["analyze", str(bad)]) == 2
        bad.write_text(json.dumps({"n": True, "entries": [[1]]}))
        assert main(["analyze", str(bad)]) == 2

    def test_perron_value_of_huge_entries(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        for exponent, expected in ((200, 2e200), (400, None)):
            big = str(10**exponent)
            path.write_text(json.dumps({"n": 2, "entries": [[big, big], [big, big]]}))
            assert main(["analyze", str(path), "--json"]) == 0
            bundle = json.loads(capsys.readouterr().out)
            jsonschema.validate(bundle, _load_schema())
            if expected is None:
                assert bundle["spectral"]["perron_value"] is None
                assert "float range" in bundle["spectral"]["perron_withheld"]
            else:
                assert bundle["spectral"]["perron_value"] == pytest.approx(expected, rel=1e-12)
        assert main(["analyze", str(path)]) == 0
        assert "perron value withheld (perron value outside the float range)" in capsys.readouterr().out

    def test_human_perron_value_of_huge_entries_is_bounded(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        big = str(10**200)
        path.write_text(json.dumps({"n": 2, "entries": [[big, big], [big, big]]}))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "perron value 2.000000000e+200" in out
        assert max(len(line) for line in out.splitlines()) < 80

    def test_human_perron_value_keeps_fixed_point_below_1e12(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        for value, expected in ((10**12 - 1, "perron value 999999999999.000000000"),
                                (10**12, "perron value 1.000000000e+12")):
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

    def test_truncation_exits_one(self, tmp_path, capsys):
        path = _write_cycle(tmp_path)
        assert main(["semigroup", path, "--cap", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["truncated"] is True

    def test_env_var_overrides_cap(self, tmp_path, capsys, monkeypatch):
        path = _write_cycle(tmp_path)
        monkeypatch.setenv("RPOTENT_CLOSURE_CAP", "1")
        assert main(["semigroup", path]) == 1
        monkeypatch.setenv("RPOTENT_CLOSURE_CAP", "100")
        capsys.readouterr()
        assert main(["semigroup", path]) == 0

    def test_non_integer_env_cap_exits_two(self, tmp_path, monkeypatch):
        path = _write_cycle(tmp_path)
        monkeypatch.setenv("RPOTENT_CLOSURE_CAP", "lots")
        assert main(["semigroup", path]) == 2

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
        assert main(["semigroup", cycle, "--cap", "1"]) == 1
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
