"""Field arithmetic, norms, and the porous-medium inequality oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klausim.basis import build_basis, synthesize
from klausim.fields import (
    gradient_squared,
    lp_norm,
    pm_inequality_gap,
    power_gamma,
    sobolev_norm,
)

from helpers import inner_product, projection_residual


@pytest.fixture(scope="module")
def basis():
    return build_basis(1, "periodic", 64, 9)


def test_power_gamma_values():
    assert power_gamma(0.0, 3.0) == 0.0
    assert power_gamma(-2.0, 3.0) == -8.0
    assert abs(power_gamma(2.0, 1.5) - 2.0**1.5) < 1e-12


def test_power_gamma_rejects_low_exponent():
    with pytest.raises(ValueError):
        power_gamma(1.0, 1.0)


@given(
    z1=st.floats(-50, 50),
    z2=st.floats(-50, 50),
    gamma=st.floats(1.01, 5.0),
)
def test_power_gamma_odd_and_monotone(z1, z2, gamma):
    assert power_gamma(-z1, gamma) == pytest.approx(
        -power_gamma(z1, gamma), rel=1e-12, abs=1e-12
    )
    if abs(z1 - z2) > 1e-9:
        assert (z1 - z2) * (power_gamma(z1, gamma) - power_gamma(z2, gamma)) > 0


def test_lp_norm_constant_and_zero():
    f = np.full((64,), -3.5)
    for p in (1.0, 2.0, 3.7):
        assert lp_norm(f, p) == pytest.approx(3.5, abs=1e-12)
    assert lp_norm(np.zeros(64), 2.0) == 0.0


def test_lp_norm_of_sine_mode(basis):
    x = basis.axis_coordinates()
    f = np.sqrt(2.0) * np.sin(2 * np.pi * x)
    assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-6)


def test_lp_norm_triangle_and_homogeneity():
    rng = np.random.default_rng(3)
    f, g = rng.normal(size=64), rng.normal(size=64)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12
        assert lp_norm(2.5 * f, p) == pytest.approx(2.5 * lp_norm(f, p), rel=1e-12)


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm(np.ones(8), 0.5)


def test_holder_inequality_on_random_fields():
    rng = np.random.default_rng(11)
    for _ in range(50):
        f, g = rng.normal(size=64), rng.normal(size=64)
        p = rng.uniform(1.1, 4.0)
        q = p / (p - 1.0)
        assert abs(inner_product(f, g)) <= lp_norm(f, p) * lp_norm(g, q) + 1e-12


def test_sobolev_norm_constant(basis):
    f = np.full(basis.grid_shape, 2.0)
    for s in (-2.0, -0.5, 0.0, 1.0, 2.0):
        assert sobolev_norm(basis, f, s) == pytest.approx(2.0, abs=1e-12)


def test_sobolev_norm_single_mode(basis):
    psi1 = basis.mode_field(1)
    nu1 = basis.eigenvalues[1]
    val = sobolev_norm(basis, psi1, -1.0)
    assert val == pytest.approx((1.0 + nu1) ** -0.5, abs=1e-12)
    assert val == pytest.approx(0.1571, abs=2e-4)


def test_sobolev_norm_zero_field(basis):
    assert sobolev_norm(basis, np.zeros(basis.grid_shape), 1.5) == 0.0


def test_sobolev_matches_l2_at_order_zero(basis):
    rng = np.random.default_rng(5)
    f = synthesize(basis, rng.normal(size=basis.n_modes))
    assert abs(sobolev_norm(basis, f, 0.0) - lp_norm(f, 2.0)) <= 1e-8
    assert projection_residual(basis, f) <= 1e-10


def test_sobolev_monotone_in_order(basis):
    rng = np.random.default_rng(9)
    f = synthesize(basis, rng.normal(size=basis.n_modes))
    orders = [-2.0, -1.0, -0.3, 0.0, 0.7, 2.0]
    vals = [sobolev_norm(basis, f, s) for s in orders]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_sobolev_rejects_out_of_range(basis):
    with pytest.raises(ValueError):
        sobolev_norm(basis, np.zeros(basis.grid_shape), 2.5)


@pytest.mark.parametrize("d, boundary, n, n_modes",
                         [(2, "periodic", 16, 100), (3, "neumann", 8, 300)])
def test_sobolev_norm_of_a_stack_is_each_fields_norm(d, boundary, n, n_modes):
    """Row p of a stacked norm sums its weighted squares as the lone field's
    norm does: the stacked coefficients must stay C-contiguous."""
    basis = build_basis(d, boundary, n, n_modes)
    stack = np.random.default_rng(d).normal(size=(5,) + basis.grid_shape)
    for s in (-1.0, 0.4, 2.0):
        norms = sobolev_norm(basis, stack, s)
        assert norms.tolist() == [sobolev_norm(basis, f, s) for f in stack]


def test_pm_gap_examples():
    assert pm_inequality_gap(1.0, 1.0, 2.5) == 0.0
    assert pm_inequality_gap(1.0, -1.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert pm_inequality_gap(2.0, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=200)
@given(
    x=st.floats(-100, 100),
    y=st.floats(-100, 100),
    gamma=st.floats(1.01, 5.0),
)
@example(x=97.0, y=-96.99999999999999, gamma=2.0)  # x = -y to an ulp,
@example(x=100.0, y=-99.99999999999999, gamma=5.0)  # where the sides cancel
def test_pm_gap_nonnegative_property(x, y, gamma):
    assert pm_inequality_gap(x, y, gamma) >= -1e-12


def test_pm_gap_bulk_sampling():
    rng = np.random.default_rng(17)
    x = rng.uniform(-10, 10, size=100_000)
    y = rng.uniform(-10, 10, size=100_000)
    g = rng.uniform(1.0 + 1e-6, 5.0, size=100_000)
    assert np.min(pm_inequality_gap(x, y, g)) >= -1e-12


def test_gradient_squared_of_sine():
    n = 256
    x = np.arange(n) / n
    f = np.sin(2 * np.pi * x)
    gsq = gradient_squared(build_basis(1, "periodic", n, 1), f)
    exact = (2 * np.pi * np.cos(2 * np.pi * x)) ** 2
    assert np.max(np.abs(gsq - exact)) <= 0.05 * np.max(exact)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("boundary", ["periodic", "neumann"])
def test_gradient_squared_batch_rows_equal_lone_calls(d, boundary):
    """Only the grid axes are differenced: row p of a batch is the lone
    field's |grad f|^2 bit for bit.  A d=1 batch of 16 rows is (16, 16),
    the shape of one d=2 field, and still differences along rows only."""
    basis = build_basis(d, boundary, 16, 8)
    rng = np.random.default_rng(d)
    batch = rng.normal(size=(16,) + basis.grid_shape)
    rows = gradient_squared(basis, batch)
    for p in range(len(batch)):
        assert np.array_equal(rows[p], gradient_squared(basis, batch[p]))
    if d == 1:
        plane = gradient_squared(build_basis(2, boundary, 16, 8), batch)
        assert not np.array_equal(rows, plane)
