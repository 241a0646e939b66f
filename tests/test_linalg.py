"""Tests for the dense non-negative matrix kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hourglass import (
    Matrix,
    ShapeError,
    collatz_wielandt_lower,
    collatz_wielandt_upper,
    spectral_radius,
)
from hourglass.errors import ParseError
from hourglass.linalg import matrix_json

from helpers import diag, rho_2x2_closed_form


# --- Matrix type ------------------------------------------------------------


def test_matrix_rejects_negative_entries():
    with pytest.raises(ValueError, match="non-negative"):
        Matrix([[1.0, -0.5], [0.0, 2.0]])


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        Matrix([[np.inf, 0.0]])


def test_matrix_rejects_bad_rank():
    with pytest.raises(ShapeError):
        Matrix([1.0, 2.0])


def test_matrix_data_is_read_only():
    m = Matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 3.0


def test_matrix_equality():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert a == Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert a != Matrix([[1.0, 2.0], [3.0, 4.0 + 1e-15]])


def test_matrix_json_roundtrip_is_exact():
    m = Matrix([[0.1, 2.5e-13], [1e6, 7.0 / 3.0]])
    assert Matrix.from_json(matrix_json(m.data)) == m
    assert matrix_json(m.data) == {
        "rows": 2,
        "cols": 2,
        "data": [[0.1, 2.5e-13], [1e6, 7.0 / 3.0]],
    }


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda obj: obj.pop("rows"), "rows"),
        (lambda obj: obj.__setitem__("cols", 0), "cols"),
        (lambda obj: obj.__setitem__("data", [[1.0]]), "data"),
        (lambda obj: obj["data"][0].__setitem__(1, "x"), "data[0][1]"),
        (lambda obj: obj["data"][1].__setitem__(0, -1.0), "data"),
    ],
)
def test_matrix_json_parse_errors(mangle, fragment):
    obj = matrix_json(Matrix([[1.0, 2.0], [3.0, 4.0]]).data)
    mangle(obj)
    with pytest.raises(ParseError) as err:
        Matrix.from_json(obj, location="input")
    assert "input" in str(err.value)
    assert fragment in str(err.value)


# --- spectral_radius ----------------------------------------------------------


def test_spectral_radius_identity_is_exact():
    out = spectral_radius(diag(1.0, 1.0))
    assert out.rho == 1.0
    assert out.converged
    assert np.array_equal(out.vector, [0.5, 0.5])


def test_spectral_radius_projection_is_exact():
    out = spectral_radius(diag(1.0, 0.0))
    assert out.rho == 1.0
    assert out.converged


def test_spectral_radius_zero_matrix():
    out = spectral_radius(Matrix(np.zeros((3, 3))))
    assert out.rho == 0.0
    assert out.converged
    assert np.allclose(out.vector, 1.0 / 3.0)


def test_spectral_radius_matches_characteristic_polynomial():
    entries = [[1.0, 2.0], [3.0, 4.0]]
    out = spectral_radius(Matrix(entries))
    assert out.converged
    assert abs(out.rho - rho_2x2_closed_form(entries)) <= 1e-9
    assert abs(out.rho - (5.0 + np.sqrt(33.0)) / 2.0) <= 1e-9


def test_spectral_radius_permutation_matrix():
    out = spectral_radius(Matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert out.converged
    assert out.rho == 1.0


def test_spectral_radius_imprimitive_reports_non_convergence():
    # Peripheral eigenvalues +-4 are separated only by the tiny shift, far
    # too slowly for any practical step limit; the honest outcome is
    # converged=False while the Collatz-Wielandt bounds still bracket 4.
    m = Matrix([[0.0, 2.0], [8.0, 0.0]])
    out = spectral_radius(m, max_iter=2000)
    assert not out.converged
    assert out.iterations == 2000
    assert collatz_wielandt_lower(m, [1.0, 1.0]) <= 4.0
    assert collatz_wielandt_upper(m, [1.0, 1.0]) >= 4.0


def test_spectral_radius_requires_square():
    with pytest.raises(ShapeError):
        spectral_radius(Matrix(np.ones((2, 3))))


def test_spectral_radius_positive_matrix_has_positive_vector(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        out = spectral_radius(Matrix(rng.uniform(0.05, 2.0, size=(n, n))))
        assert out.converged
        assert (out.vector > 0).all()
        assert abs(out.vector.sum() - 1.0) <= 1e-12


def test_spectral_radius_residual_when_converged(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = Matrix(rng.uniform(0.0, 3.0, size=(n, n)))
        out = spectral_radius(m)
        assert out.converged
        resid = np.abs(m.data @ out.vector - out.rho * out.vector).max()
        assert resid <= 1e-11 * max(1.0, out.rho)


def test_spectral_radius_scale_invariance(rng):
    for factor in (0.25, 3.0, 1e4):
        entries = rng.uniform(0.1, 1.0, size=(3, 3))
        base = spectral_radius(Matrix(entries)).rho
        scaled = spectral_radius(Matrix(factor * entries)).rho
        assert abs(scaled - factor * base) <= 1e-9 * max(1.0, factor * base)


def test_rho_of_product_ignores_factor_order(rng):
    for _ in range(40):
        n, m = (int(x) for x in rng.integers(1, 5, size=2))
        a = rng.uniform(0.05, 1.0, size=(n, m))
        b = rng.uniform(0.05, 1.0, size=(m, n))
        ab = spectral_radius(Matrix(a @ b)).rho
        ba = spectral_radius(Matrix(b @ a)).rho
        tab = spectral_radius(Matrix((b.T @ a.T))).rho
        assert abs(ab - ba) <= 1e-9
        assert abs(ab - tab) <= 1e-9


# --- Collatz-Wielandt bounds ---------------------------------------------------


def test_collatz_wielandt_identity():
    i2 = diag(1.0, 1.0)
    assert collatz_wielandt_upper(i2, [1.0, 1.0]) == 1.0
    assert collatz_wielandt_lower(i2, [1.0, 1.0]) == 1.0


def test_collatz_wielandt_generic_values():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    rho = rho_2x2_closed_form([[1.0, 2.0], [3.0, 4.0]])
    upper = collatz_wielandt_upper(m, [1.0, 1.0])
    lower = collatz_wielandt_lower(m, [1.0, 1.0])
    assert upper == 7.0
    assert lower == 3.0
    assert lower <= rho <= upper


def test_collatz_wielandt_diagonal_cases():
    d10 = diag(1.0, 0.0)
    assert collatz_wielandt_upper(d10, [1.0, 1.0]) == 1.0
    assert collatz_wielandt_lower(d10, [1.0, 0.0]) == 1.0


def test_collatz_wielandt_upper_rejects_non_positive():
    with pytest.raises(ValueError, match="non-positive"):
        collatz_wielandt_upper(diag(1.0, 1.0), [1.0, 0.0])


def test_collatz_wielandt_lower_rejects_zero_vector():
    with pytest.raises(ValueError, match="non-zero"):
        collatz_wielandt_lower(diag(1.0, 1.0), [0.0, 0.0])
    with pytest.raises(ValueError, match="negative"):
        collatz_wielandt_lower(diag(1.0, 1.0), [1.0, -1.0])


def test_collatz_wielandt_dimension_mismatch():
    with pytest.raises(ShapeError):
        collatz_wielandt_upper(diag(1.0, 1.0), [1.0, 1.0, 1.0])


# Entry ratios are capped at 100 so the Birkhoff contraction rate keeps the
# power iteration comfortably inside its step budget; smaller minima admit
# near-cyclic matrices whose dominant pair is too close to separate.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    entries=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=0.1, max_value=10.0),
    ),
    u=arrays(
        np.float64,
        (3,),
        elements=st.floats(min_value=1e-2, max_value=1e2),
    ),
)
def test_collatz_wielandt_brackets_spectral_radius(entries, u):
    m = Matrix(entries)
    out = spectral_radius(m)
    assert out.converged
    assert collatz_wielandt_lower(m, u) <= out.rho + 1e-9
    assert out.rho <= collatz_wielandt_upper(m, u) + 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    entries=arrays(
        np.float64,
        (2, 2),
        elements=st.floats(min_value=0.1, max_value=10.0),
    )
)
def test_spectral_radius_2x2_closed_form_property(entries):
    out = spectral_radius(Matrix(entries))
    assert out.converged
    assert abs(out.rho - rho_2x2_closed_form(entries)) <= 1e-9 * max(1.0, out.rho)
