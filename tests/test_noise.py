"""Statistical and reproducibility checks for the spectral noise channels."""

import numpy as np
import pytest

from klausim.basis import build_basis
from klausim.fields import lp_norm
from klausim.noise import (
    BdgReport,
    NoiseSpec,
    _stream_key,
    bdg_selfcheck,
    generate_path,
    mode_normals,
    sample_increments,
    stratonovich_correction,
    unit_trace_spec,
    validate_noise,
)


@pytest.fixture(scope="module")
def basis():
    return build_basis(1, "periodic", 64, 63)


def test_validate_noise_default_accepted(basis):
    spec = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.1, c2=0.1, seed=1)
    report = validate_noise(spec, basis)
    assert report.ok
    expected = 0.01 * np.sum((1.0 + basis.eigenvalues) ** -2)
    assert report.traces[0] == pytest.approx(expected, rel=1e-12)


def test_validate_noise_rejects_slow_decay(basis):
    spec = NoiseSpec(delta1=0.4, delta2=1.0, c1=0.1, c2=0.1)
    report = validate_noise(spec, basis)
    assert not report.ok
    assert any("delta" in msg for msg in report.failures)


def test_validate_noise_zero_amplitude_degenerate(basis):
    spec = NoiseSpec(c1=0.0, c2=0.0, delta1=0.1, delta2=0.1)
    report = validate_noise(spec, basis)
    assert report.ok
    assert report.traces == (0.0, 0.0)


def test_validate_noise_explicit_spectrum_bound(basis):
    good = NoiseSpec(c1=1.0, lambdas1=0.5 * (1.0 + basis.eigenvalues) ** -1.0)
    assert validate_noise(good, basis).ok
    bad = NoiseSpec(c1=1.0, lambdas1=np.full(basis.n_modes, 0.9))
    report = validate_noise(bad, basis)
    assert not report.ok


def test_trace_truncation_adequacy():
    coarse = build_basis(1, "periodic", 128, 32)
    fine = build_basis(1, "periodic", 128, 64)
    spec = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.1, c2=0.1)
    report = validate_noise(spec, coarse, refined_basis=fine)
    assert report.trace_rel_change is not None
    assert max(report.trace_rel_change) < 0.01


def test_sample_increments_zero_amplitude(basis):
    spec = NoiseSpec(c1=0.0, c2=0.0)
    dw1, dw2 = sample_increments(spec, basis, 0.01, 0)
    assert np.all(dw1 == 0.0) and np.all(dw2 == 0.0)


def test_sample_increments_deterministic(basis):
    spec = NoiseSpec(seed=99)
    a1, a2 = sample_increments(spec, basis, 0.01, 5)
    b1, b2 = sample_increments(spec, basis, 0.01, 5)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


def test_mode_normals_order_independent(basis):
    spec = NoiseSpec(seed=3)
    late = mode_normals(spec, 1, 100, 8)
    early = mode_normals(spec, 1, 2, 8)
    late_again = mode_normals(spec, 1, 100, 8)
    assert np.array_equal(late, late_again)
    assert not np.array_equal(late, early)


def test_per_mode_variance_monte_carlo(basis):
    """Sample variance of <dW, psi_k> must match lambda_k^2 dt (4 s.e.)."""
    spec = NoiseSpec(seed=11)
    dt = 0.01
    n = 20_000
    k_max = 8
    lam = spec.spectrum(basis, 1)[:k_max]
    draws = np.empty((n, k_max))
    for i in range(n):
        draws[i] = lam * np.sqrt(dt) * mode_normals(spec, 1, i, k_max)
    sample_var = np.var(draws, axis=0, ddof=1)
    expected = lam**2 * dt
    stderr = expected * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(sample_var - expected) <= 4.0 * stderr)


def test_channel_independence(basis):
    spec = NoiseSpec(seed=23)
    n = 20_000
    k_max = 4
    xi1 = np.empty((n, k_max))
    xi2 = np.empty((n, k_max))
    for i in range(n):
        xi1[i] = mode_normals(spec, 1, i, k_max)
        xi2[i] = mode_normals(spec, 2, i, k_max)
    for k in range(k_max):
        for l in range(k_max):
            corr = np.mean(xi1[:, k] * xi2[:, l])
            assert abs(corr) <= 4.0 / np.sqrt(n)


def test_increment_energy_matches_trace(basis):
    """E |dW|_L2^2 = dt * trace, within 4 standard errors."""
    spec = NoiseSpec(seed=37)
    dt = 0.05
    n = 4000
    vals = np.empty(n)
    for i in range(n):
        dw1, _ = sample_increments(spec, basis, dt, 0, path_index=i)
        vals[i] = lp_norm(dw1, 2.0) ** 2
    expected = dt * spec.trace(basis, 1)
    stderr = np.std(vals, ddof=1) / np.sqrt(n)
    assert abs(np.mean(vals) - expected) <= 4.0 * stderr


def test_quadratic_variation(basis):
    """Sum of squared increments of one beta estimates T within 5 s.e."""
    spec = NoiseSpec(seed=5)
    t_final, n_steps = 1.0, 512
    path = generate_path(spec, basis, t_final / n_steps, n_steps)
    qv = np.sum(path.increments[0, :, 1] ** 2)
    stderr = t_final * np.sqrt(2.0 / n_steps)
    assert abs(qv - t_final) <= 5.0 * stderr


def test_path_reproducible_and_coarsening(basis):
    spec = NoiseSpec(seed=13)
    fine = generate_path(spec, basis, 0.001, 64)
    again = generate_path(spec, basis, 0.001, 64)
    assert np.array_equal(fine.increments, again.increments)
    coarse = fine.coarsen(2)
    assert coarse.dt == 0.002 and coarse.n_steps == 32
    assert np.allclose(
        coarse.increments[:, 0], fine.increments[:, 0] + fine.increments[:, 1]
    )
    with pytest.raises(ValueError):
        fine.coarsen(3)


def test_stratonovich_correction_single_constant_mode():
    basis = build_basis(1, "periodic", 64, 1)
    a = 0.7
    spec = NoiseSpec(c1=a, delta1=1.0)
    corr = stratonovich_correction(spec, basis, 1, sigma=2.0)
    assert np.allclose(corr, a**2 * 4.0 / 2.0, atol=1e-12)


def test_stratonovich_correction_zero_amplitude(basis):
    spec = NoiseSpec(c1=0.0)
    corr = stratonovich_correction(spec, basis, 1, sigma=1.0)
    assert np.all(corr == 0.0)


def test_stratonovich_correction_constant_for_full_pairs(basis):
    """Full sin/cos pairing with equal amplitudes: sin^2+cos^2 collapses."""
    spec = NoiseSpec(delta1=1.2, c1=0.3)
    corr = stratonovich_correction(spec, basis, 1, sigma=0.5)
    assert corr.max() - corr.min() <= 1e-10


def test_bdg_ito_isometry():
    basis = build_basis(1, "periodic", 32, 31)
    spec = NoiseSpec(seed=7)
    report = bdg_selfcheck(spec, basis, p=2.0, n_paths=2000, n_steps=1)
    assert not report.degenerate
    err = abs(report.isometry_estimate - report.isometry_expected)
    assert err <= 4.0 * report.isometry_stderr


def test_bdg_degenerate_integrand():
    basis = build_basis(1, "periodic", 32, 31)
    spec = NoiseSpec(seed=7)
    report = bdg_selfcheck(
        spec, basis, p=2.0, n_paths=1000, xi=np.zeros(basis.grid_shape), n_steps=2
    )
    assert report.degenerate


def test_bdg_ratio_stable_under_doubling():
    basis = build_basis(1, "periodic", 32, 31)
    spec = unit_trace_spec(NoiseSpec(seed=19), basis)
    r1 = bdg_selfcheck(spec, basis, p=4.0, n_paths=1000, n_steps=8)
    r2 = bdg_selfcheck(spec, basis, p=4.0, n_paths=2000, n_steps=8)
    assert 1.0 <= r2.ratio <= 10.0
    assert abs(r2.ratio - r1.ratio) <= 0.2 * abs(r1.ratio)


def test_bdg_rejects_bad_arguments(basis):
    spec = NoiseSpec()
    with pytest.raises(ValueError):
        bdg_selfcheck(spec, basis, p=1.0, n_paths=2000)
    with pytest.raises(ValueError):
        bdg_selfcheck(spec, basis, p=2.0, n_paths=10)


def _serial_bdg(spec, basis, p, n_paths, channel=1, xi=None, t_final=1.0,
                n_steps=16):
    """bdg_selfcheck as it ran before its paths were batched: one stored
    path, one field_increment and one lp_norm per path and step."""
    if xi is None:
        xi = np.ones(basis.grid_shape)
    dt = t_final / n_steps
    denom = (t_final * lp_norm(xi, 2.0) ** 2) ** (p / 2.0)
    sup_p = np.empty(n_paths)
    end_sq = np.empty(n_paths)
    for i in range(n_paths):
        path = generate_path(spec, basis, dt, n_steps, path_index=i)
        y = np.zeros(basis.grid_shape)
        sup_norm = 0.0
        for n in range(n_steps):
            y = y + xi * path.field_increment(channel, n)
            sup_norm = max(sup_norm, lp_norm(y, 2.0))
        sup_p[i] = sup_norm**p
        end_sq[i] = lp_norm(y, 2.0) ** 2
    degenerate = denom == 0.0
    return BdgReport(
        p=p,
        n_paths=n_paths,
        ratio=float("nan") if degenerate else float(np.mean(sup_p) / denom),
        sup_moment=float(np.mean(sup_p)),
        denominator=denom,
        isometry_estimate=float(np.mean(end_sq)),
        isometry_expected=t_final * spec.trace(basis, channel),
        isometry_stderr=float(np.std(end_sq, ddof=1) / np.sqrt(n_paths)),
        degenerate=degenerate,
    )


def test_bdg_batch_equals_serial_oracle():
    """The batched check reports what the per-path loop did, field for field:
    at criterion 04's setting, and on channel 2 with a varying integrand."""
    basis = build_basis(1, "periodic", 64, 63)
    spec = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.1, c2=0.1, seed=404)
    args = dict(p=2.0, n_paths=20_000, n_steps=1)
    assert bdg_selfcheck(spec, basis, **args) == _serial_bdg(spec, basis, **args)
    spec = NoiseSpec(delta2=0.8, c2=0.3, seed=12)
    args = dict(p=3.0, n_paths=1000, channel=2, n_steps=9, t_final=0.7,
                xi=1.0 + 0.5 * np.sin(2 * np.pi * basis.axis_coordinates()))
    assert bdg_selfcheck(spec, basis, **args) == _serial_bdg(spec, basis, **args)


def test_sample_increments_equal_generate_path_rows():
    """The per-step draw and the whole-path draw give the same fields bit for
    bit, also when paths and rungs are visited out of order.  At dt = 0.002
    sqrt(dt) is inexact, so this holds only because both round
    lam * (xi sqrt(dt)) alike."""
    basis = build_basis(1, "periodic", 16, 15)
    spec = NoiseSpec(seed=9, c1=0.3, c2=0.2)
    n_steps = 4
    for dt in (0.25, 0.002):
        paths = {(p, r): generate_path(spec, basis, dt, n_steps,
                                       path_index=p, rung=r)
                 for p, r in ((0, 0), (1, 0), (1, 1))}
        for p, r in ((1, 0), (0, 0), (1, 1), (1, 0), (0, 0)):
            for n in (0, 3, 1):
                dw1, dw2 = sample_increments(spec, basis, dt, n,
                                             path_index=p, rung=r)
                path = paths[(p, r)]
                assert np.array_equal(dw1, path.field_increment(1, n))
                assert np.array_equal(dw2, path.field_increment(2, n))


def test_stream_key_is_read_only():
    key = _stream_key(3, 1, 0, 0)
    with pytest.raises(ValueError):
        key[0] = 0
    assert _stream_key(3, 1, 0, 0) is key
