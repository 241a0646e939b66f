"""Tests for the command-line interface: exit codes, report shapes,
determinism, and the JSON wire formats."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hourglass import cli
from hourglass.cli import main, report_text

from helpers import ex4_set, listed

from hourglass import FiniteSet, IRUSet, Matrix, Scale, Sum, set_to_json
from hourglass.linalg import matrix_json


@pytest.fixture
def files(tmp_path):
    """Write the standing input fixtures and return their paths."""
    paths = {}

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return p

    dump("id2.json", {"rows": 2, "cols": 2, "data": [[1, 0], [0, 1]]})
    dump("ex4.json", set_to_json(ex4_set()))
    dump(
        "iru_a.json",
        {"kind": "iru", "row_sets": [[[0.3, 0.7], [0.6, 0.2]], [[0.5, 0.5]]]},
    )
    dump(
        "iru_b.json",
        {"kind": "iru", "row_sets": [[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]]},
    )
    dump(
        "expr.json",
        {
            "kind": "expr",
            "expr": {
                "op": "sum",
                "left": {"op": "leaf", "set": set_to_json(ex4_set())},
                "right": {"op": "leaf", "set": set_to_json(ex4_set())},
            },
        },
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    paths["bad.json"] = str(bad)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_spectral_identity(files, capsys):
    code, report = run_cli(capsys, "spectral", files["id2.json"])
    assert code == 0
    assert report["rho"] == 1.0
    assert report["converged"] is True
    assert report["vector"] == [0.5, 0.5]


def test_minimax_example4_values_and_exit(files, capsys):
    code, report = run_cli(capsys, "minimax", files["ex4.json"], files["ex4.json"])
    assert code == 0
    assert report == {"minmax": 1.0, "maxmin": 0.0, "gap": 1.0}

    code, report = run_cli(
        capsys, "minimax", files["ex4.json"], files["ex4.json"], "--require-equality"
    )
    assert code == 1
    assert report["gap"] == 1.0


def test_minimax_table_flag(files, capsys):
    code, report = run_cli(
        capsys, "minimax", files["ex4.json"], files["ex4.json"], "--table"
    )
    assert code == 0
    assert report["table"] == [[1.0, 0.0], [0.0, 1.0]]


def test_saddle_with_certificate_and_hull_samples(files, capsys):
    code, report = run_cli(
        capsys,
        "saddle",
        files["iru_a.json"],
        files["iru_b.json"],
        "--certify",
        "--hull-samples",
        "50",
        "--seed",
        "3",
        "--require-equality",
    )
    assert code == 0
    assert report["gap"] <= 1e-9
    assert report["certificate"]["valid"] is True
    assert report["hull_check"] is True
    assert report["perron"]["converged"] is True
    # the reported pair re-parses as matrices
    from hourglass import Matrix

    a_tilde = Matrix.from_json(report["a_tilde"])
    b_tilde = Matrix.from_json(report["b_tilde"])
    assert a_tilde.shape == (2, 2) and b_tilde.shape == (2, 2)


def test_hset_check_pass_and_fail(files, capsys):
    code, report = run_cli(
        capsys, "hset-check", files["iru_a.json"], "--probes", "20", "--seed", "1"
    )
    assert code == 0
    assert report["passed"] is True
    assert report["failures"] == 0

    code, report = run_cli(
        capsys, "hset-check", files["ex4.json"], "--probes", "5", "--seed", "1"
    )
    assert code == 1
    assert report["passed"] is False
    first = report["first_failure"]
    assert first["holds"] is False
    assert first["probe_matrix"]["data"] == [[1.0, 0.0], [0.0, 0.0]]


def test_hausdorff_command(files, capsys):
    code, report = run_cli(capsys, "hausdorff", files["ex4.json"], files["ex4.json"])
    assert code == 0
    assert report == {"distance": 0.0}


def test_algebra_materializes_and_roundtrips(files, capsys):
    code, report = run_cli(capsys, "algebra", files["expr.json"])
    assert code == 0
    assert report["kind"] == "finite"
    assert len(report["matrices"]) == 3  # A + A has three members, not two

    # the emitted document is itself a valid input
    from hourglass import set_from_json

    back = set_from_json(report)
    assert len(back.stack()) == 3


def test_batch_sweep(files, capsys):
    code, report = run_cli(
        capsys, "batch", "--trials", "100", "--seed", "7", "--require-equality"
    )
    assert code == 0
    assert report["trials"] == 100
    assert report["all_within_tol"] is True
    assert len(report["results"]) == 100
    assert report["max_gap"] <= 1e-9


def test_identical_configs_produce_identical_bytes(files, capsys):
    main(["batch", "--trials", "3", "--seed", "11"])
    first = capsys.readouterr().out
    main(["batch", "--trials", "3", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second


def test_parse_error_exit_code_and_location(files, capsys):
    code, report = run_cli(capsys, "minimax", files["bad.json"], files["ex4.json"])
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert "bad.json" in report["error"]["location"]


def test_schema_error_reports_path(files, tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"kind": "finite", "matrices": []}))
    code, report = run_cli(capsys, "hset-check", str(p))
    assert code == 2
    assert "matrices" in report["error"]["location"]


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, report = run_cli(capsys, "algebra", str(p))
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert report["error"]["location"] == str(p)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["batch", "--trials", "-3"], "--trials"),
        (["saddle", "a.json", "b.json", "--hull-samples", "-4"], "--hull-samples"),
        (["hset-check", "s.json", "--probes", "-1"], "--probes"),
    ],
)
def test_negative_counts_are_parse_errors(argv, flag, capsys):
    code, report = run_cli(capsys, *argv)
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert report["error"]["location"] == flag


def test_cap_exceeded_is_an_input_error(files, capsys, monkeypatch):
    code, report = run_cli(
        capsys,
        "minimax",
        files["iru_a.json"],
        files["iru_b.json"],
        "--cap",
        "1",
    )
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "cap" in report["error"]["message"]


def test_env_cap_override(files, capsys, monkeypatch):
    monkeypatch.setenv("HOURGLASS_CAP", "1")
    code, report = run_cli(capsys, "algebra", files["ex4.json"])
    assert code == 2
    assert "cap" in report["error"]["message"]

    # explicit flag beats the environment
    code, report = run_cli(capsys, "algebra", files["ex4.json"], "--cap", "100")
    assert code == 0


def test_output_file(files, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["spectral", files["id2.json"], "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["rho"] == 1.0


def test_non_convergence_exit_code(tmp_path, capsys):
    # Antidiagonal with distinct entries: the peripheral pair +-2 defeats
    # the tiny shift for any reasonable step budget.
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[0, 1], [4, 0]]}))
    code, report = run_cli(
        capsys, "spectral", str(p), "--max-iter", "500"
    )
    assert code == 3
    assert report["converged"] is False
    assert report["error"]["kind"] == "non-convergence"


def test_hausdorff_pair_cap_is_an_input_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        p.write_text(json.dumps(set_to_json(FiniteSet(
            [Matrix(m) for m in rng.uniform(size=(39, 2, 2))]
        ))))
        paths.append(str(p))
    code, report = run_cli(capsys, "hausdorff", *paths, "--cap", "100")
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "1521" in report["error"]["message"]


@pytest.mark.filterwarnings("error")
def test_algebra_overflow_is_an_input_error(tmp_path, capsys):
    # the finiteness check is the only report: no numpy warning on stderr
    p = tmp_path / "overflow.json"
    overflow = Scale(1e300, FiniteSet([Matrix([[1e10]])]))
    p.write_text(json.dumps(set_to_json(overflow)))
    code = main(["algebra", str(p)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == 2
    assert json.loads(captured.out)["error"] == {
        "kind": "input", "message": "matrix entries must be finite"
    }


@pytest.mark.parametrize(
    "row_sets, location",
    [
        ([[["0.5", 1.0]], [[1.0, 2.0]]], "row_sets[0][0][0]"),
        ([[[0.5, True]], [[1.0, 2.0]]], "row_sets[0][0][1]"),
        ([[[0.5, 1.0]], [[1.0, 2.0], [1.0, "2e0"]]], "row_sets[1][1][1]"),
        ([[[0.5, None]], [[1.0, 2.0]]], "row_sets[0][0][1]"),
        ([[[0.5, [1.0]]], [[1.0, 2.0]]], "row_sets[0][0][1]"),
    ],
)
def test_iru_entries_must_be_numbers(tmp_path, capsys, row_sets, location):
    # the same rule as matrix entries, with the path of the offending entry
    p = tmp_path / "iru.json"
    p.write_text(json.dumps({"kind": "iru", "row_sets": row_sets}))
    code, report = run_cli(capsys, "algebra", str(p))
    assert code == 2
    assert report["error"] == {
        "kind": "parse", "location": f"{p}.{location}", "message": "expected a number"
    }


def _saddle_iru_and_finite(tmp_path, capsys, a, b, *flags):
    """`saddle` outputs for two IRU sets and for their members as finite sets."""
    reports = []
    for tag, sets in (("iru", (a, b)), ("finite", [FiniteSet(listed(s)) for s in (a, b)])):
        paths = []
        for name, mset in zip("ab", sets):
            p = tmp_path / f"{tag}_{name}.json"
            p.write_text(json.dumps(set_to_json(mset)))
            paths.append(str(p))
        code = main(["saddle", *paths, *flags])
        reports.append((code, capsys.readouterr().out))
    return reports


def test_iru_by_finite_saddle_never_enumerates_the_iru_set(tmp_path, capsys):
    # 12^8 members of A against one B: the table would exceed --cap 10, the
    # row-wise answers do not, and their pair carries a valid certificate
    rng = np.random.default_rng(8)
    paths = []
    for name, doc in (
        ("a", {"kind": "iru", "row_sets": rng.uniform(0.05, 1, size=(8, 12, 8)).tolist()}),
        ("b", set_to_json(FiniteSet([Matrix(rng.uniform(0.05, 1, size=(8, 8)))]))),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    code, report = run_cli(capsys, "saddle", *paths, "--certify", "--cap", "10")
    assert code == 0
    assert report["gap"] == 0.0
    assert report["certificate"]["valid"] is True


def test_hull_samples_draw_iru_sets_past_2_63_members(tmp_path, capsys):
    # 2^70 members of A (70 row sets of two rows) against a 2x70 IRU set: a
    # hull point picks one row per row set, so no member index is drawn and
    # a cap above the cardinality is all the draw needs.
    rng = np.random.default_rng(70)
    paths = []
    for name, size in (("a", (70, 2, 2)), ("b", (2, 2, 70))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"kind": "iru", "row_sets": rng.uniform(0.05, 1, size=size).tolist()}))
        paths.append(str(p))
    code, report = run_cli(
        capsys, "saddle", *paths, "--certify", "--hull-samples", "5", "--cap", str(10 ** 30)
    )
    assert code == 0
    assert report["certificate"]["valid"] is True
    assert report["hull_check"] is True


def test_iru_saddle_falls_back_to_the_exhaustive_report(tmp_path, capsys):
    # A zero row of A leaves a zero in the Perron vector, so the row-wise
    # answers are declined; the report must then be exactly the one the
    # exhaustive path gives for the same members listed as a finite set.
    from hourglass import IRUSet

    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.0, 0.0]]])
    b = IRUSet([[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]])
    flags = ("--certify", "--hull-samples", "20", "--seed", "3")
    reports = _saddle_iru_and_finite(tmp_path, capsys, a, b, *flags)
    assert reports[0] == reports[1]
    assert json.loads(reports[0][1])["certificate"]["conclusive"] is False


def test_iru_saddle_certifies_at_the_users_tol(tmp_path, capsys):
    # The settled pair's A residual is about -2.6e-13 (rounding), so the
    # structured answer, with its gap of 0.0, stands at --tol 1e-12 and is
    # declined at --tol 1e-14, where the report is the exhaustive one.
    from hourglass import IRUSet

    a = IRUSet([[[0.8, 0.4], [0.3, 0.1]], [[0.2, 0.9]]])
    b = IRUSet([[[0.8, 0.1]], [[0.9, 0.1], [0.1, 0.9]]])
    reports = _saddle_iru_and_finite(tmp_path, capsys, a, b, "--certify", "--tol", "1e-14")
    assert reports[0] == reports[1]
    assert json.loads(reports[0][1])["certificate"]["valid"] is False
    paths = [str(tmp_path / f"iru_{name}.json") for name in "ab"]
    code, report = run_cli(capsys, "saddle", *paths, "--certify", "--tol", "1e-12", "--cap", "1")
    assert code == 0
    assert report["certificate"]["valid"] is True
    assert report["gap"] == 0.0


def test_iru_saddle_ignores_the_cap_until_it_enumerates(files, capsys):
    pair = (files["iru_a.json"], files["iru_b.json"])
    code, report = run_cli(capsys, "saddle", *pair, "--certify", "--cap", "1")
    assert code == 0
    assert report["certificate"]["valid"] is True
    assert report["gap"] == 0.0
    # hull samples check the cardinality against the cap, so it still binds
    # there (and on the minimax table, see test_cap_exceeded_is_an_input_error)
    code, report = run_cli(capsys, "saddle", *pair, "--hull-samples", "5", "--cap", "1")
    assert code == 2
    assert "cap" in report["error"]["message"]


def test_saddle_hull_samples_beyond_64_row_sets(tmp_path, capsys):
    # A has 70 singleton row sets, so each hull draw gathers 70 rows
    rng = np.random.default_rng(70)
    sets = {
        "a": {"kind": "iru", "row_sets": rng.uniform(0.1, 1, size=(70, 1, 2)).tolist()},
        "b": {"kind": "iru", "row_sets": rng.uniform(0.1, 1, size=(2, 2, 70)).tolist()},
    }
    paths = []
    for name, obj in sets.items():
        p = tmp_path / f"{name}70.json"
        p.write_text(json.dumps(obj))
        paths.append(str(p))
    code, report = run_cli(capsys, "saddle", *paths, "--certify", "--hull-samples", "5")
    assert code == 0
    assert report["certificate"]["valid"] is True
    assert report["hull_check"] is True


def test_expr_sets_are_evaluated_once_per_invocation(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    paths = []
    for name in ("a.json", "b.json"):
        leaves = [FiniteSet([Matrix(rng.uniform(0.1, 1, size=(2, 2))) for _ in range(2)])
                  for _ in range(2)]
        path = tmp_path / name
        path.write_text(json.dumps(set_to_json(Sum(*leaves))))
        paths.append(str(path))
    evaluations = []
    combine = Sum._combine

    def counting(self, cap, *stacks):
        evaluations.append(cap)
        return combine(self, cap, *stacks)

    monkeypatch.setattr(Sum, "_combine", counting)
    for argv in (["saddle", "--certify", "--hull-samples", "10"], ["saddle", "--certify"],
                 ["minimax"]):
        evaluations.clear()
        code, _ = run_cli(capsys, argv[0], *paths, *argv[1:])
        assert code == 0
        assert len(evaluations) == 2, argv


def stdlib_text(obj, **kwargs):
    return json.dumps(obj, indent=2, sort_keys=True, **kwargs)


def expand_stack(o):
    """``default`` for ``json.dumps``: a member stack as its members' wire forms."""
    if isinstance(o, np.ndarray) and o.ndim == 3 and o.dtype == np.float64:
        return [matrix_json(a) for a in o]
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def test_every_report_is_the_standard_indented_encoding(files, tmp_path, capsys, monkeypatch):
    # Each report, error and exit-3 reports included, is its own stdlib
    # re-encoding, and also the stdlib encoding of the object it was written from.
    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    def iru(row_sets):
        return {"op": "leaf", "set": {"kind": "iru", "row_sets": row_sets}}

    # the 216 sums of two IRU sets are built from 18 distinct rows
    rows = np.random.default_rng(10).uniform(0.05, 1, size=(3, 3, 3))
    shared_rows = dump("sum.json", {"kind": "expr", "expr": {
        "op": "sum", "left": iru(rows.tolist()), "right": iru(rows[:, :2].tolist())}})
    signed_zeros = dump("zeros.json", {"kind": "finite", "matrices": [
        {"rows": 2, "cols": 2, "data": [[0.0, 1.0], [2.0, 3.0]]},
        {"rows": 2, "cols": 2, "data": [[-0.0, 1.0], [5.0, 6.0]]}]})
    cycle = dump("cycle.json", {"rows": 2, "cols": 2, "data": [[0, 1], [4, 0]]})
    f = files
    runs = [
        (0, ["spectral", f["id2.json"]]),
        (3, ["spectral", cycle, "--max-iter", "500"]),
        (0, ["minimax", f["iru_a.json"], f["iru_b.json"], "--table"]),
        (1, ["minimax", f["ex4.json"], f["ex4.json"], "--require-equality"]),
        (2, ["minimax", f["bad.json"], f["ex4.json"]]),
        (2, ["minimax", f["iru_a.json"], f["iru_b.json"], "--cap", "1"]),
        (0, ["saddle", f["iru_a.json"], f["iru_b.json"], "--certify", "--hull-samples", "20"]),
        (2, ["saddle", f["iru_a.json"], f["iru_b.json"], "--tol", "0"]),
        (0, ["hset-check", f["iru_a.json"]]),
        (1, ["hset-check", f["ex4.json"], "--probes", "5", "--seed", "1"]),
        (0, ["hausdorff", f["ex4.json"], f["expr.json"]]),
        (0, ["algebra", f["expr.json"]]),
        (0, ["algebra", shared_rows]),
        (0, ["algebra", signed_zeros]),
        (2, ["algebra", f["ex4.json"], "--cap", "0"]),
        (0, ["batch", "--trials", "3", "--seed", "11"]),
    ]
    written, texts = [], {}

    def recording(report):
        written.append(report)
        return report_text(report)

    monkeypatch.setattr(cli, "report_text", recording)
    for code, argv in runs:
        assert main(argv) == code, argv
        text = texts[argv[-1]] = capsys.readouterr().out
        assert text == stdlib_text(json.loads(text)) + "\n", argv
        assert text == stdlib_text(written[-1], default=expand_stack) + "\n", argv
    assert len(written) == len(runs)
    assert "[\n          -0.0,\n          1.0\n        ]" in texts[signed_zeros]


_NAN, _INF = float("nan"), float("inf")
#: Floats whose texts are easy to mix up, and two values equal to 1.0.
_TRICKY = [0.0, -0.0, 1.0, 0.5, 1e16, 1e15, 1e-05, 0.0001, _NAN, _INF, -_INF, True, 1]
_rows = st.lists(st.sampled_from(_TRICKY) | st.floats(), min_size=1, max_size=3)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_values = st.recursive(
    _scalars | _rows,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_values)
def test_report_text_matches_the_stdlib_encoder(value):
    assert report_text(value) == stdlib_text(value)


@pytest.mark.parametrize(
    "report",
    [
        # -0.0 == 0.0, but the two rows print differently, in either order
        {"a": [[0.0, 1.0], [-0.0, 1.0]], "b": [[-0.0, 1.0], [0.0, 1.0]]},
        # True == 1 == 1.0: a row with a bool or an int is not the float row
        [[1.0, 1.0], [1.0, True], [1.0, 1]],
        # the same row at two depths has two indentations
        {"a": [2.5, 0.5], "b": {"c": [2.5, 0.5]}},
        [[_NAN, _INF, -_INF], [_NAN, _INF, -_INF], _NAN, -_INF],
        # float.__repr__ turns to exponents at 1e16 and below 1e-04
        [[1e16, 1e-05], [1e15, 0.0001], [9999999999999998.0, -1e16, 1.5e-05]],
        {"": [], "\u00e9\u6f22": {}, "k": ["\u2603", None, False, 7, -0.0]},
    ],
    ids=["signed-zero", "bool-and-int", "depth", "non-finite", "repr-boundaries", "scalars"],
)
def test_report_text_traps(report):
    assert report_text(report) == stdlib_text(report)


def test_report_text_rejects_what_json_rejects():
    # only a 3-D float64 array is a member stack
    arrays = (np.zeros((2, 2)), np.zeros((2, 2, 2), dtype=np.int64),
              np.zeros((2, 2, 2), dtype=np.float32))
    for bad in (np.float32(1.0), np.int64(1), {1, 2}, {"a": object()}, *arrays):
        with pytest.raises(TypeError):
            stdlib_text(bad)
        with pytest.raises(TypeError):
            report_text(bad)
    # numpy float64 is a float: both write it through float.__repr__
    assert report_text([np.float64(0.1), np.float64(2.0)]) == "[\n  0.1,\n  2.0\n]"


#: Entries whose texts are easy to mix up, and arbitrary non-negative floats.
_entries = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-05, 1.0]) | st.floats(
    min_value=0.0, allow_nan=False)


@st.composite
def _stacks(draw):
    """A (K, n, m) float64 stack whose rows repeat from a pool of up to 4 rows."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=k * n, max_size=k * n))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(k, n, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stacks())
def test_report_text_writes_a_stack_as_its_members_wire_forms(stack):
    for report in (stack, {"kind": "finite", "set": {"matrices": stack, "t": [0.5]}}):
        assert report_text(report) == stdlib_text(report, default=expand_stack)


def test_algebra_formats_each_distinct_row_once(tmp_path, capsys, monkeypatch):
    # every row of the 64 sums has a zero, and the 192 rows hold 12 distinct ones
    rng = np.random.default_rng(13)
    left, right = rng.uniform(0.05, 1, size=(2, 3, 2, 3))
    left[..., 0] = right[..., 0] = 0.0
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(set_to_json(Sum(IRUSet(left), IRUSet(right)))))
    calls = []
    float_text = cli._float_text

    def counting(x):
        calls.append(x)
        return float_text(x)

    monkeypatch.setattr(cli, "_float_text", counting)
    code, report = run_cli(capsys, "algebra", str(path))
    assert code == 0
    rows = [row for member in report["matrices"] for row in member["data"]]
    assert len(rows) == 192
    assert len(calls) == 3 * len(set(map(tuple, rows))) == 36
