"""Hypothesis validator, energy ledgers, ensembles, uniqueness, positivity."""

import dataclasses

import numpy as np
import pytest

from klausim.basis import build_basis
from klausim.diagnostics import (
    HypothesisParams,
    _ensemble_report,
    _ensemble_rows,
    energy_monitor,
    ensemble_moments,
    nonneg_monitor,
    uniqueness_experiment,
    validate_hypotheses,
    weak_norm_distance,
)
from klausim.dynamics import ModelConfig, SolverConfig, _run_paths, simulate_path
from klausim.noise import NoiseSpec, generate_path
from klausim.scenarios import (
    Scenario,
    bump_field,
    default_cutoff,
    default_hypothesis,
    nonneg_scenario,
    small_data_scenario,
    uniqueness_scenario,
)

GOOD = HypothesisParams()  # the documented d=1 feasible set


# ------------------------------------------------------------- hypotheses


def test_reference_parameter_set_passes():
    report = validate_hypotheses(GOOD)
    assert report.existence_ok and report.uniqueness_ok
    assert report.uniqueness_dimension_feasible
    slack = {c.name: c.slack for c in report.existence}
    assert slack["regularity_window"] == pytest.approx(2 / 6 + 1 / 12 - 0.1)
    assert slack["time_int_v"] == pytest.approx(0.75 - (2 / 12 + 1 / 8))
    assert slack["l_lower"] == pytest.approx(1.0)
    assert slack["delta0_upper"] == pytest.approx(1 / 12 - 0.05)


@pytest.mark.parametrize(
    "change, expected_failures",
    [
        (dict(rho=0.6), {"rho_upper"}),
        (dict(gamma=1.5), {"gamma_gt_2"}),
        # any m <= 2 also breaks the 1/p*+2/m < 1 window: coupled by algebra
        (dict(m=2.0), {"m_gt_2", "time_int_u"}),
        # a small m0 also breaks the v-integrability window at p0*=8
        (dict(m0=2.5), {"m0_lower", "time_int_v"}),
        (dict(p_star=1.9), {"p_star_min"}),
        (dict(p0_star=1.9), {"p0_star_min"}),
        (dict(l=5.0), {"l_lower"}),
        (dict(delta0=0.1), {"delta0_upper"}),
        (dict(delta0=0.4), {"delta0_upper", "uniq_delta0"}),
    ],
)
def test_single_clause_perturbations(change, expected_failures):
    hp = dataclasses.replace(GOOD, **change)
    report = validate_hypotheses(hp)
    assert set(report.failing()) == expected_failures


def test_dimension_two_uniqueness_infeasible():
    for d in (2, 3):
        report = validate_hypotheses(dataclasses.replace(GOOD, d=d))
        assert not report.uniqueness_dimension_feasible
        assert not report.uniqueness_ok


def test_validator_is_pure():
    a = validate_hypotheses(GOOD)
    b = validate_hypotheses(GOOD)
    assert [c.row() for c in a.existence] == [c.row() for c in b.existence]


# ------------------------------------------------------------ energy ledger


@pytest.fixture(scope="module")
def neu():
    return build_basis(1, "neumann", 64, 32)


def test_energy_monitor_zero_trajectory(neu):
    model = ModelConfig(sigma1=0.0, sigma2=0.0)
    solver = SolverConfig(dt=0.01, t_final=0.1, snapshot_stride=1)
    zeros = np.zeros(neu.grid_shape)
    traj = simulate_path(neu, zeros, zeros, model, solver, None)
    ledger = energy_monitor(traj, 1.0, model, neu)
    assert np.all(ledger.sup_term == 0.0)
    assert np.all(ledger.dissipation == 0.0)
    assert np.all(ledger.coupling == 0.0)


def test_energy_monitor_constant_field_no_dissipation(neu):
    model = ModelConfig(chi=1.0, sigma1=0.0, sigma2=0.0)
    solver = SolverConfig(dt=0.01, t_final=0.1, snapshot_stride=1)
    u0 = np.full(neu.grid_shape, 2.0)
    traj = simulate_path(neu, u0, np.zeros(neu.grid_shape), model, solver, None)
    ledger = energy_monitor(traj, 1.0, model, neu)
    assert np.all(ledger.dissipation <= 1e-12)
    assert np.all(ledger.coupling == 0.0)  # v = 0


def test_energy_monitor_pm_decay(neu):
    """Pure porous-medium flow dissipates the L^(p+1) norm."""
    model = ModelConfig(r_u=1.0, gamma=3.0, chi=0.0, sigma1=0.0, sigma2=0.0)
    solver = SolverConfig(dt=1e-3, t_final=0.2, snapshot_stride=1)
    x = neu.axis_coordinates()
    u0 = 1.0 + 0.5 * np.cos(np.pi * x)
    traj = simulate_path(neu, u0, np.zeros(neu.grid_shape), model, solver, None)
    p = 1.0
    norms = np.array([np.mean(np.abs(u) ** (p + 1)) for u in traj.u_snapshots])
    assert np.all(np.diff(norms) <= 1e-8)
    ledger = energy_monitor(traj, p, model, neu)
    assert ledger.sup_term[-1] <= ledger.sup_term[0] * (1.0 + 1e-8)
    assert np.all(np.diff(ledger.dissipation) >= 0.0)
    assert np.isfinite(ledger.combined_statistic(model, p))


def test_energy_monitor_requires_full_snapshots(neu):
    model = ModelConfig(sigma1=0.0, sigma2=0.0)
    solver = SolverConfig(dt=0.01, t_final=0.1, snapshot_stride=5)
    zeros = np.zeros(neu.grid_shape)
    traj = simulate_path(neu, zeros, zeros, model, solver, None)
    with pytest.raises(ValueError):
        energy_monitor(traj, 1.0, model, neu)


# --------------------------------------------------------- ensemble moments


def coarse_scenario(seed=0):
    basis = build_basis(1, "periodic", 32, 31)
    model = ModelConfig(r_u=1.0, r_v=0.1, chi=1.0, gamma=3.0,
                        sigma1=0.2, sigma2=0.2)
    solver = SolverConfig(dt=2.5e-3, t_final=0.05, snapshot_stride=1)
    noise = NoiseSpec(c1=0.2, c2=0.2, seed=seed)
    return Scenario(
        basis, model, solver, noise, default_cutoff(), default_hypothesis(),
        bump_field(basis, 0.2, 0.2), bump_field(basis, 0.15, 0.15, center=0.3),
    )


def test_ensemble_finite_and_deterministic_limit():
    sc = coarse_scenario()
    quiet = dataclasses.replace(
        sc, model=dataclasses.replace(sc.model, sigma1=0.0, sigma2=0.0)
    )
    report = ensemble_moments(quiet, p=1.0, n_paths=100)
    for stat in report.stats.values():
        assert np.isfinite(stat.mean)
        assert stat.stderr <= 1e-12  # zero variance without noise
    assert report.c0_ratio > 0.0


def test_ensemble_stderr_clt_scaling():
    sc = coarse_scenario(seed=21)
    small = ensemble_moments(sc, p=1.0, n_paths=100)
    big = ensemble_moments(sc, p=1.0, n_paths=200)
    name = "sup_u_lp"
    ratio = small.stats[name].stderr / big.stats[name].stderr
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.25)


def test_ensemble_permutation_invariance():
    sc = coarse_scenario(seed=33)
    fwd = _ensemble_report(sc, 1.0, _ensemble_rows(sc, 1.0, range(100), 1))
    perm = _ensemble_report(
        sc, 1.0, _ensemble_rows(sc, 1.0, list(reversed(range(100))), 1))
    for name in fwd.stats:
        assert fwd.stats[name].mean == pytest.approx(
            perm.stats[name].mean, rel=1e-12
        )


def test_ensemble_parallel_matches_serial():
    sc = coarse_scenario(seed=44)
    serial = ensemble_moments(sc, p=1.0, n_paths=100)
    parallel = ensemble_moments(sc, p=1.0, n_paths=100, workers=2)
    for name in serial.stats:
        assert serial.stats[name].mean == parallel.stats[name].mean


def test_ensemble_rejects_small_sample():
    with pytest.raises(ValueError):
        ensemble_moments(coarse_scenario(), p=1.0, n_paths=10)


def test_ensemble_c0_affine_in_initial_data():
    """Doubling u0 moves the empirical constant by at most the affine factor
    of the bound's right-hand side (recorded, loosely asserted)."""
    sc = coarse_scenario(seed=55)
    base = ensemble_moments(sc, p=1.0, n_paths=100)
    doubled = dataclasses.replace(sc, u0=2.0 * sc.u0)
    big = ensemble_moments(doubled, p=1.0, n_paths=100)
    ratio = big.c0_ratio / base.c0_ratio
    assert 0.25 <= ratio <= 4.0


def test_report_from_leading_rows_matches_ensemble_moments():
    """The report of the first 100 rows of a 130-path run equals the
    100-path ensemble bit for bit: the rows are keyed by path index, 100 is a
    whole number of chunks, and a C-order row prefix reduces as a fresh
    array does."""
    sc = coarse_scenario(seed=66)
    sc = dataclasses.replace(
        sc, solver=dataclasses.replace(sc.solver, t_final=0.01))
    rows = _ensemble_rows(sc, 1.0, range(130), 1)
    assert _ensemble_report(sc, 1.0, rows[:100]) == ensemble_moments(
        sc, 1.0, 100)


# ------------------------------------------------------------- uniqueness


def test_uniqueness_same_fixed_point():
    """The two starts are two orbits: D is small but not 0.  (Run B from
    the zero pair retraced run A one sweep behind, with D = 0 exactly.)"""
    sc = uniqueness_scenario(seed=3)
    report = uniqueness_experiment(sc, tol=1e-6, control_seed=999)
    assert report.indistinguishable
    assert 0.0 < report.distance <= 1e-6
    assert report.negative_control > 1e-2


def test_uniqueness_metric_symmetric():
    sc = small_data_scenario(seed=5)
    model = sc.model
    solver = dataclasses.replace(sc.solver, t_final=0.02)
    from klausim.noise import generate_path

    path = generate_path(sc.noise, sc.basis, solver.dt, solver.n_steps)
    a = simulate_path(sc.basis, sc.u0, sc.v0, model, solver, path)
    b = simulate_path(sc.basis, 2 * sc.u0, 2 * sc.v0, model, solver, path)
    d_ab = weak_norm_distance(sc.basis, a, b, sc.hypothesis.delta0)
    d_ba = weak_norm_distance(sc.basis, b, a, sc.hypothesis.delta0)
    assert d_ab == pytest.approx(d_ba, rel=1e-12)
    assert d_ab > 0.0


def test_uniqueness_rejects_infeasible_dimension():
    sc = uniqueness_scenario()
    bad = dataclasses.replace(sc, hypothesis=dataclasses.replace(
        sc.hypothesis, d=2, rho=0.4))
    with pytest.raises(ValueError):
        uniqueness_experiment(bad)


# ------------------------------------------------------------ nonnegativity


def test_nonneg_monitor_zero_data(neu):
    model = ModelConfig(sigma1=0.0, sigma2=0.0)
    solver = SolverConfig(dt=0.01, t_final=0.1, snapshot_stride=1)
    zeros = np.zeros(neu.grid_shape)
    traj = simulate_path(neu, zeros, zeros, model, solver, None)
    report = nonneg_monitor(traj)
    assert report.worst_min_u == 0.0 and report.worst_min_v == 0.0
    assert report.ok


def test_nonneg_monitor_default_scenario():
    sc = small_data_scenario(seed=7)
    from klausim.noise import generate_path

    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    traj = simulate_path(sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path)
    report = nonneg_monitor(traj)
    assert report.ok


def test_runner_minima_match_serial_loop():
    """Criterion 05's audit: the batch's per-record minima of u and v on
    each row equal the min_u and min_v columns of its path's serial run.
    Four rows solve by LU, below the PCG crossover, so bit for bit."""
    sc = nonneg_scenario(seed=505, n=128, dt=1e-3)
    sc = dataclasses.replace(
        sc, solver=dataclasses.replace(sc.solver, t_final=0.05))
    records = []

    def audit(n, u, v, live, rung):
        records.append((u.min(axis=1), v.min(axis=1)))
        return live, ()

    _run_paths(sc, np.arange(4), audit)
    minima = np.array(records)  # (record, field, path)
    for i in range(4):
        path = generate_path(sc.noise, sc.basis, sc.solver.dt,
                             sc.solver.n_steps, path_index=i)
        traj = simulate_path(sc.basis, sc.u0, sc.v0, sc.model, sc.solver,
                             path)
        assert np.array_equal(minima[:, 0, i], traj.norms["min_u"])
        assert np.array_equal(minima[:, 1, i], traj.norms["min_v"])


def test_nonneg_negative_region_smooths_upward():
    """Porous-medium flow pulls an initial undershoot back toward zero."""
    basis = build_basis(1, "periodic", 64, 63)
    model = ModelConfig(r_u=1.0, gamma=3.0, chi=0.0, sigma1=0.0, sigma2=0.0)
    solver = SolverConfig(dt=1e-3, t_final=0.5, snapshot_stride=1)
    x = basis.axis_coordinates()
    u0 = 0.3 + 0.5 * np.sin(2 * np.pi * x)  # dips to -0.2
    traj = simulate_path(basis, u0, np.zeros(64), model, solver, None)
    mins = traj.norms["min_u"]
    assert mins[-1] >= mins[0] - 1e-8
