"""Acceptance suite: one test per contracted criterion, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete.  The heavy Monte-Carlo criteria (08, 11)
take a few minutes combined; everything else is seconds.
"""

import dataclasses

import numpy as np
import pytest

from klausim.basis import build_basis
from klausim.cli import apply_overrides, default_config, run
from klausim.diagnostics import (
    HypothesisParams,
    _ensemble_report,
    _ensemble_rows,
    ensemble_moments,
    uniqueness_experiment,
    validate_hypotheses,
)
from klausim.dynamics import (
    ModelConfig,
    SolverConfig,
    Trajectory,
    heat_step,
    simulate_path,
)
from klausim.fields import lp_norm, pm_inequality_gap
from klausim.fixedpoint import (
    FrozenPair,
    apply_V,
    exit_tail,
    fit_tail_constant,
    pair_distance,
    picard_solve,
)
from klausim.noise import NoiseSpec, bdg_selfcheck, generate_path, mode_normals
from klausim.scenarios import (
    Scenario,
    bump_field,
    default_cutoff,
    default_hypothesis,
    exit_scenario,
    nonneg_scenario,
    small_data_scenario,
    uniqueness_scenario,
)

from helpers import run_paths


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_pm_inequality_oracle():
    rng = np.random.default_rng(2024)
    n = 100_000
    x = rng.uniform(-25.0, 25.0, size=n)
    y = rng.uniform(-25.0, 25.0, size=n)
    gamma = rng.uniform(1.0 + 1e-9, 5.0, size=n)
    worst = float(np.min(pm_inequality_gap(x, y, gamma)))
    report(1, "porous-medium inequality", worst >= -1e-12, f"min gap {worst:.2e}")


def test_criterion_02_spectral_heat_exactness():
    basis = build_basis(1, "periodic", 64, 63)
    model = ModelConfig(r_v=0.05, sigma2=0.0)
    dt = 1e-3
    v = basis.mode_field(1)
    for _ in range(1000):
        v = heat_step(basis, v, np.zeros(64), None, model, dt)
    expected = np.exp(-model.r_v * basis.eigenvalues[1]) * basis.mode_field(1)
    err = float(np.max(np.abs(v - expected)))
    report(2, "spectral heat exactness", err <= 1e-10, f"max err {err:.2e}")


def test_criterion_03_mass_conservation():
    basis = build_basis(1, "neumann", 64, 32)
    model = ModelConfig(r_u=1.0, gamma=3.0, chi=0.0, k=0.0, f=0.0,
                        sigma1=0.0, sigma2=0.0)
    solver = SolverConfig(dt=1e-3, t_final=1.0, snapshot_stride=1000)
    x = basis.axis_coordinates()
    u0 = 1.0 + 0.5 * np.cos(np.pi * x)
    traj = simulate_path(basis, u0, np.zeros(64), model, solver, None)
    mass0 = float(np.mean(traj.u_snapshots[0]))
    drift = abs(float(np.mean(traj.u_snapshots[-1])) - mass0)
    report(3, "mass conservation", drift <= 1e-10 * abs(mass0),
           f"drift {drift:.2e} over 1000 steps")


def test_criterion_04_noise_statistics():
    basis = build_basis(1, "periodic", 64, 63)
    spec = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.1, c2=0.1, seed=404)
    dt = 0.01
    n = 100_000
    k_max = 8
    xi = {1: np.empty((n, k_max)), 2: np.empty((n, k_max))}
    for ch in (1, 2):
        for i in range(n):
            xi[ch][i] = mode_normals(spec, ch, i, k_max)
    variance_ok = True
    for ch in (1, 2):
        lam = spec.spectrum(basis, ch)[:k_max]
        incs = lam * np.sqrt(dt) * xi[ch]
        sample_var = np.var(incs, axis=0, ddof=1)
        expected = lam**2 * dt
        stderr = expected * np.sqrt(2.0 / (n - 1))
        variance_ok &= bool(np.all(np.abs(sample_var - expected) <= 4 * stderr))
    cross = np.abs(xi[1].T @ xi[2]) / n
    cross_ok = bool(np.all(cross <= 4.0 / np.sqrt(n)))
    bdg = bdg_selfcheck(spec, basis, p=2.0, n_paths=20_000, n_steps=1)
    iso_err = abs(bdg.isometry_estimate - bdg.isometry_expected)
    iso_ok = iso_err <= 4.0 * bdg.isometry_stderr
    report(4, "noise statistics", variance_ok and cross_ok and iso_ok,
           f"var_ok={variance_ok} cross_ok={cross_ok} "
           f"iso err {iso_err:.2e} vs 4se {4 * bdg.isometry_stderr:.2e}")


def test_criterion_05_nonnegativity_ensemble():
    # the 50 paths step as one batch; each row stays within 1e-9 of its
    # path's serial simulate_path run (test_diagnostics.py checks the audit
    # on a batch small enough for LU, bit for bit)
    sc = nonneg_scenario(seed=505, n=128, dt=1e-3)
    minima = np.full((2, 50), np.inf)

    def audit(n, u, v, live, rung, clipped):
        np.minimum(minima[0], u.min(axis=1), out=minima[0])
        np.minimum(minima[1], v.min(axis=1), out=minima[1])
        return live, ()

    run_paths(sc, np.arange(50), audit)
    worst_u, worst_v = minima.min(axis=1)
    report(5, "nonnegativity", worst_u >= -1e-6 and worst_v >= -1e-6,
           f"worst min u {worst_u:.2e}, worst min v {worst_v:.2e}, 50 paths")


@pytest.fixture(scope="module")
def picard_setup():
    sc = small_data_scenario(seed=606)
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    result = picard_solve(
        sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver, sc.basis,
        sc.cutoff, tol=1e-8,
    )
    return sc, path, result


def test_criterion_06_picard_fixed_point():
    # data sized so the contraction plays out over several sweeps
    sc = uniqueness_scenario(seed=606)
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    result = picard_solve(
        sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver, sc.basis,
        sc.cutoff, tol=1e-10,
    )
    res = result.residuals
    decreasing = len(res) >= 3 and all(b < a for a, b in zip(res[1:], res[2:]))
    final_ok = res[-1] <= 1e-8
    reapplied = apply_V(
        result.pair, sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver,
        sc.basis, sc.cutoff,
    )
    drift = pair_distance(FrozenPair.from_trajectory(reapplied), result.pair,
                          sc.cutoff)
    report(6, "picard fixed point",
           decreasing and final_ok and drift <= 1e-8,
           f"{len(res)} sweeps, final {res[-1]:.2e}, reapply {drift:.2e}")


def test_criterion_07_truncation_consistency(picard_setup):
    sc, path, result = picard_setup
    direct = simulate_path(
        sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path, cutoff=sc.cutoff
    )
    budget_ok = float(np.nanmax(direct.norms["h"])) < sc.cutoff.kappa
    sup_gap = max(
        lp_norm(a - b, 2.0)
        for a, b in zip(result.trajectory.u_snapshots, direct.u_snapshots)
    ) + max(
        lp_norm(a - b, 2.0)
        for a, b in zip(result.trajectory.v_snapshots, direct.v_snapshots)
    )
    report(7, "truncation consistency", budget_ok and sup_gap <= 1e-7,
           f"sup L2 gap {sup_gap:.2e} while h < kappa")


def test_criterion_08_stopping_time_tail():
    sc = exit_scenario(seed=808)
    kappas = [1.0, 2.0, 4.0, 8.0]
    # one pass over the kappa=8 ladder; test_fixedpoint.py checks it against
    # one exit_prob_estimate call per kappa
    estimates = exit_tail(sc, kappas, 500)
    p_hats = [e.p_hat for e in estimates]
    nonincreasing = all(
        b.p_hat <= a.p_hat + 2.0 * (a.stderr + b.stderr)
        for a, b in zip(estimates, estimates[1:])
    )
    c = fit_tail_constant(kappas, p_hats)
    overbounds = all(
        c / k >= p - 1e-12 for k, p in zip(kappas, p_hats)
    )
    report(8, "stopping-time tail", nonincreasing and overbounds,
           "p_hat=" + ", ".join(f"{p:.3f}" for p in p_hats) + f"; c={c:.3f}")


def test_criterion_09_pathwise_uniqueness():
    sc = uniqueness_scenario(seed=909)
    rep = uniqueness_experiment(sc, tol=1e-6, control_seed=909 + 99991)
    ok = rep.distance <= 1e-6 and rep.negative_control > 1e-2
    report(9, "pathwise uniqueness", ok,
           f"D={rep.distance:.2e}, control D={rep.negative_control:.2e}")


def test_criterion_10_hypothesis_validator():
    good = HypothesisParams()
    base = validate_hypotheses(good)
    all_pass = base.existence_ok and base.uniqueness_ok
    # single-parameter perturbations and the exact clause sets they break
    # (m and m0 perturbations break a second window by plain arithmetic)
    cases = [
        (dict(rho=0.6), {"rho_upper"}),
        (dict(gamma=1.5), {"gamma_gt_2"}),
        (dict(m=2.0), {"m_gt_2", "time_int_u"}),
        (dict(m0=2.5), {"m0_lower", "time_int_v"}),
        (dict(p_star=1.9), {"p_star_min"}),
        (dict(p0_star=1.9), {"p0_star_min"}),
        (dict(l=5.0), {"l_lower"}),
        (dict(delta0=0.1), {"delta0_upper"}),
    ]
    exact = all(
        set(validate_hypotheses(dataclasses.replace(good, **chg)).failing())
        == expected
        for chg, expected in cases
    )
    dims_infeasible = all(
        not validate_hypotheses(
            dataclasses.replace(good, d=d)
        ).uniqueness_dimension_feasible
        for d in (2, 3)
    )
    report(10, "hypothesis validator", all_pass and exact and dims_infeasible,
           f"reference set ok={all_pass}, perturbations exact={exact}, "
           f"d=2,3 uniqueness-infeasible={dims_infeasible}")


def test_criterion_11_moment_bound_monitor():
    basis = build_basis(1, "periodic", 64, 63)
    model = ModelConfig(r_u=1.0, r_v=0.1, chi=1.0, gamma=3.0,
                        sigma1=0.2, sigma2=0.2)
    solver = SolverConfig(dt=1e-3, t_final=0.25, snapshot_stride=1)
    noise = NoiseSpec(c1=0.2, c2=0.2, seed=111)
    sc = Scenario(
        basis, model, solver, noise, default_cutoff(), default_hypothesis(),
        bump_field(basis, 0.2, 0.2), bump_field(basis, 0.15, 0.15, center=0.3),
    )
    # paths 0-199 are the first 200 of the 400 rows; their report equals
    # ensemble_moments(sc, 1.0, 200) bit for bit (test_diagnostics.py)
    rows = _ensemble_rows(sc, 1.0, range(400), 1)
    base = _ensemble_report(sc, 1.0, rows[:200])
    double = _ensemble_report(sc, 1.0, rows)
    sc_fine = dataclasses.replace(
        sc, solver=dataclasses.replace(solver, dt=5e-4)
    )
    fine = ensemble_moments(sc_fine, p=1.0, n_paths=200)
    finite = all(np.isfinite(s.mean) for s in base.stats.values())
    rel_paths = abs(double.c0_ratio - base.c0_ratio) / base.c0_ratio
    rel_dt = abs(fine.c0_ratio - base.c0_ratio) / base.c0_ratio
    report(11, "moment-bound monitor",
           finite and rel_paths <= 0.2 and rel_dt <= 0.2,
           f"C0={base.c0_ratio:.4f}, paths-doubling {rel_paths:.2%}, "
           f"dt-halving {rel_dt:.2%}")


def test_criterion_12_ito_stratonovich_equivalence():
    from klausim.noise import stratonovich_correction

    basis = build_basis(1, "periodic", 64, 63)
    spec = NoiseSpec(seed=1212, c1=0.1, c2=0.1)
    solver = SolverConfig(dt=1e-3, t_final=0.02, snapshot_stride=1)
    path = generate_path(spec, basis, solver.dt, solver.n_steps)
    u0 = 1.0 + 0.2 * basis.mode_field(1)
    v0 = 0.5 + 0.1 * basis.mode_field(2)
    strat = ModelConfig(sigma1=0.4, sigma2=0.3, calculus="stratonovich")
    ito = ModelConfig(sigma1=0.4, sigma2=0.3, calculus="ito")
    corr = (
        stratonovich_correction(spec, basis, 1, strat.sigma1),
        stratonovich_correction(spec, basis, 2, strat.sigma2),
    )
    traj_s = simulate_path(basis, u0, v0, strat, solver, path)
    traj_i = simulate_path(basis, u0, v0, ito, solver, path,
                           mult_drift_override=corr)
    identical = all(
        np.array_equal(traj_s.norms[c], traj_i.norms[c])
        for c in Trajectory.NORM_COLUMNS[:-1]
    ) and np.array_equal(
        traj_s.u_snapshots, traj_i.u_snapshots
    ) and np.array_equal(traj_s.v_snapshots, traj_i.v_snapshots)
    report(12, "ito/stratonovich equivalence", identical,
           "bitwise-equal trajectories")


def test_criterion_13_reproducibility(tmp_path):
    cfg = default_config()
    apply_overrides(cfg, [
        "run.seed=1313", "solver.t_final=0.05", "solver.dt=0.001",
        "solver.snapshot_stride=10", "grid.n=64",
    ])
    run("simulate", cfg, tmp_path / "a")
    run("simulate", cfg, tmp_path / "b")
    norms_same = (tmp_path / "a" / "norms.tsv").read_bytes() == (
        tmp_path / "b" / "norms.tsv"
    ).read_bytes()
    snaps_same = (tmp_path / "a" / "snapshots.bin").read_bytes() == (
        tmp_path / "b" / "snapshots.bin"
    ).read_bytes()
    report(13, "reproducibility", norms_same and snaps_same,
           "byte-identical norm series and snapshots")
