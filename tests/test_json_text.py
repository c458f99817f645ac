"""The JSON writer ``json_text`` against ``json.dumps(doc, indent=2, sort_keys=True)``.

The stdlib is the oracle.  A matrix is handed to it as the plain object
``{"entries": ..., "n": ...}``, built from the ``Fraction`` view of its
entries with ``format_entry``, so the writer's grid path is checked against
an independent rendering.  The documents are every report the command line
writes (``analyze`` on every golden and bundled input, ``semigroup`` with and
without ``--r``, every ``generate`` kind and a ``verify`` counterexample),
seeded random nested documents, and matrices of every shape the writer
distinguishes.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from rpotent import cli
from rpotent.matrix import RMatrix, format_entry, json_text, matrix_to_json

from test_golden_cli import CASES

GOLDEN = Path(__file__).parent / "golden"
DATA = resources.files("rpotent").joinpath("data")
INPUTS = sorted(
    [p for p in GOLDEN.glob("*.json") if not p.name.endswith((".analyze.json", ".semigroup.json"))]
    + list(GOLDEN.glob("*.csv"))
    + [Path(str(p)) for p in DATA.iterdir() if p.name.endswith(".json")]
)
RANK_ONE_PAIR = [str(DATA.joinpath(f"{kind}_rank_one.json")) for kind in ("decomposable", "indecomposable")]


def _plain(x):
    """``x`` with every ``RMatrix`` replaced by its JSON object, for the stdlib."""
    if isinstance(x, RMatrix):
        return {"n": x.n, "entries": [[format_entry(f) for f in row] for row in x.entries]}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _oracle(doc) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True)


def _run(argv, monkeypatch) -> tuple[str, list]:
    """Stdout of ``main(argv)``, and every document the command handed to ``json_text``."""
    docs = []

    def recording(doc):
        docs.append(doc)
        return json_text(doc)

    monkeypatch.setattr(cli, "json_text", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue(), docs


def test_every_analyze_golden_input_is_read():
    assert {p.name.removesuffix(".analyze.json") for p in GOLDEN.glob("*.analyze.json")} <= {p.stem for p in INPUTS}


@pytest.mark.parametrize("path", INPUTS, ids=[p.name for p in INPUTS])
def test_analyze_reports(path, monkeypatch):
    out, docs = _run(["analyze", str(path), "--json"], monkeypatch)
    (doc,) = docs
    assert isinstance(doc["matrix"], RMatrix)
    assert out == _oracle(doc) + "\n"


_TOWER = [str(DATA.joinpath("uniform_block_tower_r4.json"))]
_CYCLE3 = [str(DATA.joinpath("quadripotent_cycle3.json"))]
_FAMILY = sorted(str(p) for p in GOLDEN.glob("rank_dominant_r4_seed11.g*.json"))
_ZERO = [str(GOLDEN / "zero_1x1.json")]
_S8 = [str(GOLDEN / "transposition_8.json"), str(GOLDEN / "cycle_8.json")]
SEMIGROUP_CASES = [
    argv
    for files in (_TOWER, _CYCLE3, _FAMILY, _ZERO, RANK_ONE_PAIR)
    for argv in (["semigroup", *files], ["semigroup", *files, "--r", "4"])
] + [["semigroup", *_S8]]  # truncated at the member cap


@pytest.mark.parametrize("argv", SEMIGROUP_CASES, ids=[" ".join(Path(a).stem for a in c[1:]) for c in SEMIGROUP_CASES])
def test_semigroup_reports(argv, monkeypatch):
    # the rank-one pair at --r 4 reports a member that is not 4-potent: a matrix in the report
    out, docs = _run(argv, monkeypatch)
    (doc,) = docs
    assert out == _oracle(doc) + "\n"


GENERATE = [argv for _, argv, _ in CASES if argv[0] == "generate"]


@pytest.mark.parametrize("argv", GENERATE, ids=[" ".join(a[1:]) for a in GENERATE])
def test_generate_output(argv, monkeypatch):
    out, _ = _run(argv, monkeypatch)
    spec = cli._generator_spec_from_args(cli.build_parser().parse_args(argv))
    doc = {"provenance": spec.provenance(), **_plain(spec.build())}
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_verify_counterexample(monkeypatch):
    out, docs = _run(["verify", "--theorem", "6.4", "--seed", "8"], monkeypatch)
    (doc,) = docs
    assert isinstance(doc, RMatrix)
    assert out.endswith("\n" + _oracle(doc) + "\n")


MATRICES = [
    RMatrix([[0, 1, 2], [3, 0, 0], [1, 1, 1]]),  # den 1
    RMatrix([["1/2", 0, "2/3"], [1, "3/4", 0], [0, 0, 5]]),  # den > 1, int and p/q cells
    RMatrix([["1/6", "5/6"], ["1/3", "1/2"]]),  # every cell a fraction
    RMatrix.zeros(4),
    RMatrix([[0]]),
    RMatrix([[7]]),
    RMatrix([["1/9"]]),
    RMatrix([[10**40, "1/" + "3" * 30], [0, 0]]),
]


@pytest.mark.parametrize("a", MATRICES, ids=range(len(MATRICES)))
def test_matrices_at_every_depth(a):
    for doc in (a, [a], {"m": a, "z": [a, {"a": (a, a)}]}, [[[{"x": a}]]]):
        assert json_text(doc) == _oracle(doc)
    provenance = {"kind": "test", "params": {"sizes": [1, 2], "padded": True}, "seed": 3}
    expected = json.dumps({"provenance": provenance, **_plain(a)}, indent=2, sort_keys=True) + "\n"
    assert matrix_to_json(a, provenance=provenance) == expected
    assert matrix_to_json(a) == _oracle(a) + "\n"


_CHARS = "aZ09 _-/\"\\\x00\x01\x1f\x7f\n\t\r\b\fé€ ퟿\U0001f600٣"
_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308, 1.5, -2.25, 0.1, 1e-7, 1e16]


def _random_text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 2**63, -(2**64) - 1, 10**300, -(10**4299)])
    if kind == 2:
        return rng.randint(-1000, 1000)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return rng.choice(_FLOATS)
    if kind == 5:
        return rng.uniform(-1e6, 1e6)
    return rng.choice(MATRICES)


def _random_doc(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _random_scalar(rng)
    width = rng.choice([0, 1, 2, 3, 5])
    kind = rng.randrange(3)
    if kind == 0:
        return [_random_doc(rng, depth - 1) for _ in range(width)]
    if kind == 1:
        return tuple(_random_doc(rng, depth - 1) for _ in range(width))
    return {_random_text(rng): _random_doc(rng, depth - 1) for _ in range(width)}


@pytest.mark.parametrize("seed", range(20))
def test_random_documents(seed):
    rng = random.Random(seed)
    for _ in range(40):
        doc = _random_doc(rng, 4)
        assert json_text(doc) == _oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        "",
        {"": [], "b": {}, "a": ()},
        {"é": 1, "e": 2, "\x00": 3, '"': 4, "\\": 5, "\U0001f600": 6},
        [1.0, -0.0, 5e-324, float("nan"), float("-inf")],
        [True, False, None, 0, -0, "null"],
    ],
)
def test_listed_documents(doc):
    assert json_text(doc) == _oracle(doc)


def _raised(write, doc):
    try:
        write(doc)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize(
    "doc",
    [
        [10**5000],
        {"a": -(10**4300)},
        RMatrix([[10**4300]]),
        RMatrix._make(10**4301, ((1,),)),
        object(),
        {"a": {1, 2}},
        [b"bytes"],
        {"a": Fraction(1, 2)},
        {(1, 2): 0},
        {1: 0, "a": 1},
    ],
    ids=range(10),
)
def test_errors_match_the_stdlib(doc):
    expected = _raised(lambda d: json.dumps(_plain(d), indent=2, sort_keys=True), doc)
    assert expected is not None
    assert _raised(json_text, doc) is expected


@pytest.mark.parametrize("key", [1, 2.5, True, None])
def test_keys_are_strings_only(key):
    # json.dumps would write the key as a string; no report has a key that is not one
    with pytest.raises(TypeError):
        json_text({key: 0})
