"""Tests for the command-line interface: exit codes, report shapes,
determinism, and the JSON wire formats."""

import json

import numpy as np
import pytest

from hourglass.cli import main

from helpers import ex4_set

from hourglass import FiniteSet, Matrix, Scale, Sum, set_to_json


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
    assert len(back.members()) == 3


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
    for tag, sets in (("iru", (a, b)), ("finite", [FiniteSet(s.members()) for s in (a, b)])):
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
    # The settled pair's A residual is about -2.2e-13 (rounding), so the
    # structured answer, with its gap of 0.0, stands at --tol 1e-12 and is
    # declined at --tol 1e-14, where the report is the exhaustive one.
    from hourglass import IRUSet

    a = IRUSet([[[0.3, 0.7], [0.6, 0.2]], [[0.5, 0.5]]])
    b = IRUSet([[[0.4, 0.4]], [[0.9, 0.1], [0.2, 0.8]]])
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
