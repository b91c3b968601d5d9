"""Stepping kernels against closed forms and brute-force oracles."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import fsolve

from klausim import dynamics
from klausim.basis import analyze, apply_laplacian, build_basis, synthesize
from klausim.dynamics import (
    CoupledState,
    ModelConfig,
    NewtonError,
    SolverConfig,
    Trajectory,
    heat_step,
    pm_implicit_step,
    simulate_path,
    step_coupled,
    step_frozen,
)
from klausim.fields import lp_norm, power_gamma
from klausim.noise import NoiseSpec, generate_path, stratonovich_correction
from klausim.scenarios import bump_field, exit_scenario

from helpers import final_state


@pytest.fixture(scope="module")
def per64():
    return build_basis(1, "periodic", 64, 63)


@pytest.fixture(scope="module")
def neu64():
    return build_basis(1, "neumann", 64, 32)


def make_solver(**kw):
    defaults = dict(dt=1e-3, t_final=1.0, snapshot_stride=1)
    defaults.update(kw)
    return SolverConfig(**defaults)


@pytest.mark.parametrize("name", ["r_u", "r_v", "chi", "gamma", "k", "f", "g",
                                  "sigma1", "sigma2"])
def test_model_config_rejects_nan(name):
    with pytest.raises(ValueError):
        ModelConfig(**{name: float("nan")})


@pytest.mark.parametrize("name", ["dt", "t_final", "newton_tol",
                                  "newton_max_iter", "snapshot_stride",
                                  "record_rho"])
def test_solver_config_rejects_nan(name):
    with pytest.raises(ValueError):
        make_solver(**{name: float("nan")})


def test_solver_config_rejects_a_fractional_step_count():
    """t_final = 1.0 is 3.33 steps of 0.3; the run would stop at t = 0.9."""
    for dt, t_final in ((0.3, 1.0), (0.2, 0.1), (1e-3, -1e-3),
                        (1e-3, float("inf"))):
        with pytest.raises(ValueError, match="whole number of dt"):
            make_solver(dt=dt, t_final=t_final)
    # a whole number up to rounding (0.07 / 0.01 is 7.000000000000001), and
    # no steps at all
    assert make_solver(dt=0.01, t_final=0.07).n_steps == 7
    assert make_solver(dt=0.01, t_final=0.0).n_steps == 0


# ---------------------------------------------------------------- pm step


def test_pm_step_identity_without_diffusion(per64):
    model = ModelConfig(r_u=0.0, sigma1=0.0)
    u = np.linspace(0.0, 1.0, 64)
    out = pm_implicit_step(per64, u, np.zeros(64), None, model, make_solver(), 1e-3)
    assert np.array_equal(out, u)


def test_pm_step_constant_fixed_point(neu64):
    model = ModelConfig(r_u=1.0, gamma=3.0, sigma1=0.0)
    u = np.full(64, 2.5)
    out = pm_implicit_step(neu64, u, np.zeros(64), None, model, make_solver(), 1e-2)
    assert np.max(np.abs(out - 2.5)) <= 1e-10


def test_pm_step_manufactured_solution(per64):
    """Feed the solver the exact right-hand side of a known solution."""
    model = ModelConfig(r_u=0.7, gamma=2.5, sigma1=0.0)
    dt = 5e-3
    x = per64.axis_coordinates()
    w_exact = 1.0 + 0.3 * np.sqrt(2.0) * np.sin(2 * np.pi * x)
    rhs = w_exact - dt * model.r_u * apply_laplacian(
        per64, power_gamma(w_exact, model.gamma)
    )
    out = pm_implicit_step(per64, rhs, np.zeros(64), None, model, make_solver(), dt)
    assert np.max(np.abs(out - w_exact)) <= 1e-8


def test_pm_step_matches_fsolve_oracle():
    """Brute-force nonlinear solve (finite-difference Jacobian) on N=8."""
    basis = build_basis(1, "periodic", 8, 7)
    model = ModelConfig(r_u=1.0, gamma=2.0, sigma1=0.0)
    dt = 1e-3
    u = 1.0 + 0.1 * basis.mode_field(1)
    out = pm_implicit_step(basis, u, np.zeros(8), None, model, make_solver(), dt)

    lap = basis.laplacian_matrix()

    def residual(w):
        return w - dt * model.r_u * (lap @ power_gamma(w, model.gamma)) - u

    oracle = fsolve(residual, u.copy(), xtol=1e-13)
    assert np.max(np.abs(out - oracle)) <= 1e-6


def test_pm_step_matches_per_mode_bisection_oracle():
    """Mean-linearized system solved by global bisection, mode by mode.

    dt is small enough that the quadratic flux content the linearization
    drops (the frequency-2 alias of psi_1^2) stays below the tolerance; the
    full nonlinear regime is covered by the fsolve and manufactured-solution
    oracles above.
    """
    basis = build_basis(1, "periodic", 8, 7)
    model = ModelConfig(r_u=1.0, gamma=2.0, sigma1=0.0)
    dt = 5e-7
    u = 1.0 + 0.1 * basis.mode_field(1)
    out = pm_implicit_step(basis, u, np.zeros(8), None, model, make_solver(), dt)

    # around the mean state the Jacobi coefficient gamma*|1|^(gamma-1) = 2
    # is constant, so each retained mode solves a scalar equation
    coef = dt * model.r_u * model.gamma
    rhs_hat = analyze(basis, u)
    w_hat = np.empty_like(rhs_hat)
    for k, (nu, r) in enumerate(zip(basis.eigenvalues, rhs_hat)):
        lo, hi = -4.0, 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * (1.0 + coef * nu) - r > 0:
                hi = mid
            else:
                lo = mid
        w_hat[k] = 0.5 * (lo + hi)
    oracle = synthesize(basis, w_hat)
    assert np.max(np.abs(out - oracle)) <= 1e-6


def test_pm_step_krylov_path_manufactured_2d():
    """Grids past the dense-LU limit use the transform PCG; same contract."""
    basis = build_basis(2, "periodic", 64, 150)
    model = ModelConfig(r_u=0.7, gamma=2.5, sigma1=0.0)
    dt = 5e-3
    x = basis.axis_coordinates()
    w_exact = 1.0 + 0.6 * np.multiply.outer(
        np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
    )
    rhs = w_exact - dt * model.r_u * apply_laplacian(
        basis, power_gamma(w_exact, model.gamma)
    )
    out = pm_implicit_step(
        basis, rhs, np.zeros(basis.grid_shape), None, model, make_solver(), dt
    )
    assert np.max(np.abs(out - w_exact)) <= 1e-8


@pytest.mark.parametrize("d,n,dense", [(1, 256, True), (2, 32, False),
                                       (3, 8, False)])
def test_pm_step_builds_dense_matrix_only_on_small_grids(d, n, dense):
    """Dense LU up to 256 grid points, the transform PCG past them: the
    PCG path never builds the N^d x N^d Laplacian."""
    basis = build_basis(d, "neumann", n, min(n**d, 200))
    model = ModelConfig(r_u=0.7, gamma=2.5, sigma1=0.0)
    x = basis.axis_coordinates()
    u = 1.0 + 0.3 * np.cos(np.pi * x)
    for _ in range(d - 1):
        u = np.multiply.outer(u, np.ones(n))
    out = pm_implicit_step(
        basis, u, np.zeros(basis.grid_shape), None, model, make_solver(), 5e-3
    )
    assert np.all(np.isfinite(out))
    assert ("laplacian_matrix" in basis._cache) == dense


def test_pm_step_reports_newton_failure(per64):
    model = ModelConfig(r_u=50.0, gamma=5.0, sigma1=0.0)
    u = 3.0 + 2.0 * per64.mode_field(1)
    solver = make_solver(newton_max_iter=1, newton_tol=1e-14)
    with pytest.raises(NewtonError) as err:
        pm_implicit_step(per64, u, np.zeros(64), None, model, solver, 1.0)
    assert np.isfinite(err.value.residual)


# ---------------------------------------------------------------- heat step


def test_heat_step_eigen_decay(per64):
    model = ModelConfig(r_v=0.3, sigma2=0.0)
    dt = 0.01
    for k in (1, 4, 7):
        psi = per64.mode_field(k)
        out = heat_step(per64, psi, np.zeros(64), None, model, dt)
        expected = np.exp(-model.r_v * per64.eigenvalues[k] * dt) * psi
        assert np.max(np.abs(out - expected)) <= 1e-12


def test_heat_step_explicit_euler_limit(per64):
    model = ModelConfig(r_v=0.0, sigma2=0.0)
    rng = np.random.default_rng(2)
    v = rng.normal(size=64)
    s = rng.normal(size=64)
    out = heat_step(per64, v, s, None, model, 0.25)
    assert np.max(np.abs(out - (v + 0.25 * s))) <= 1e-14


def test_heat_step_composition_exact(per64):
    """Criterion-2 oracle: 1000 composed steps equal the closed form."""
    model = ModelConfig(r_v=0.05, sigma2=0.0)
    dt = 1e-3
    v = per64.mode_field(1)
    for _ in range(1000):
        v = heat_step(per64, v, np.zeros(64), None, model, dt)
    expected = np.exp(-model.r_v * per64.eigenvalues[1]) * per64.mode_field(1)
    assert np.max(np.abs(v - expected)) <= 1e-10


# ---------------------------------------------------------------- couplings


def test_coupled_zero_equilibrium(per64):
    model = ModelConfig(k=0.0, sigma1=0.0, sigma2=0.0)
    state = CoupledState(np.zeros(64), np.zeros(64), 0.0)
    solver = make_solver()
    out = step_coupled(per64, state, model, solver, None, None)
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)


def test_coupled_decouples_when_u_zero(per64):
    """chi=0 and u=0: v is pure heat, u stays at the porous-medium rest."""
    model = ModelConfig(r_u=1.0, r_v=0.2, chi=0.0, sigma1=0.0, sigma2=0.0)
    solver = make_solver(dt=1e-3, t_final=0.2)
    v0 = per64.mode_field(1)
    traj = simulate_path(per64, np.zeros(64), v0, model, solver, None)
    final = final_state(traj)
    expected = np.exp(-model.r_v * per64.eigenvalues[1] * 0.2) * v0
    assert np.max(np.abs(final.v - expected)) <= 1e-10
    assert np.max(np.abs(final.u)) <= 1e-12


def test_frozen_constant_field_ode(per64):
    model = ModelConfig(
        r_u=0.0, r_v=0.0, chi=0.8, k=0.0, f=0.0, g=0.0, sigma1=0.0, sigma2=0.0
    )
    solver = make_solver(dt=0.01, t_final=1.0)
    ones = np.ones(64)
    state = CoupledState(2.0 * ones, 3.0 * ones, 0.0)
    out = step_frozen(per64, state, ones, ones, 1.0, model, solver, None, None)
    assert np.allclose(out.u, 2.0 - 0.01 * model.chi, atol=1e-14)
    assert np.allclose(out.v, 3.0 + 0.01, atol=1e-14)


def test_frozen_phi_zero_is_reaction_free(per64):
    model = ModelConfig(sigma1=0.0, sigma2=0.0)
    solver = make_solver()
    rng = np.random.default_rng(4)
    state = CoupledState(
        1.0 + 0.1 * per64.mode_field(1), 0.5 + 0.1 * per64.mode_field(2), 0.0
    )
    eta, xi = rng.normal(size=64) ** 2, rng.normal(size=64) ** 2
    a = step_frozen(per64, state, eta, xi, 0.0, model, solver, None, None)
    b = step_frozen(per64, state, np.zeros(64), np.zeros(64), 1.0, model, solver,
                    None, None)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_decoupled_closed_forms(neu64):
    model = ModelConfig(r_u=1.0, r_v=0.2, sigma1=0.0, sigma2=0.0)
    solver = make_solver(dt=1e-3, t_final=0.5)
    c = 1.7 * np.ones(64)
    v0 = neu64.mode_field(1)
    traj = simulate_path(neu64, c, v0, model, solver, None, mode="decoupled")
    final = final_state(traj)
    assert np.max(np.abs(final.u - 1.7)) <= 1e-10
    expected_v = np.exp(-(model.r_v * neu64.eigenvalues[1] + 1.0) * 0.5) * v0
    assert np.max(np.abs(final.v - expected_v)) <= 1e-10


def test_decoupled_zero_is_fixed_point(per64):
    spec = NoiseSpec(seed=8, c1=0.2, c2=0.2)
    model = ModelConfig(sigma1=0.3, sigma2=0.3)
    solver = make_solver(dt=1e-2, t_final=0.1)
    path = generate_path(spec, per64, solver.dt, solver.n_steps)
    traj = simulate_path(
        per64, np.zeros(64), np.zeros(64), model, solver, path, mode="decoupled"
    )
    assert np.max(np.abs(final_state(traj).u)) == 0.0


# ------------------------------------------------------------- invariants


def test_mass_conservation_porous_medium(neu64):
    """Criterion-3 oracle: the divergence-form flux conserves the integral."""
    model = ModelConfig(r_u=1.0, gamma=3.0, chi=0.0, sigma1=0.0, sigma2=0.0)
    solver = make_solver(dt=1e-3, t_final=1.0, snapshot_stride=1000)
    x = neu64.axis_coordinates()
    u0 = 1.0 + 0.5 * np.cos(np.pi * x)
    traj = simulate_path(neu64, u0, np.zeros(64), model, solver, None)
    mass0 = np.mean(traj.u_snapshots[0])
    mass1 = np.mean(traj.u_snapshots[-1])
    assert abs(mass1 - mass0) <= 1e-10 * abs(mass0)


def test_comparison_principle_ordering(per64):
    model = ModelConfig(r_u=1.0, gamma=3.0, chi=0.0, sigma1=0.0, sigma2=0.0)
    solver = make_solver(dt=1e-3, t_final=0.3, snapshot_stride=300)
    x = per64.axis_coordinates()
    lo = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    hi = lo + 0.2 + 0.1 * np.cos(2 * np.pi * x) ** 2
    t_lo = simulate_path(per64, lo, np.zeros(64), model, solver, None)
    t_hi = simulate_path(per64, hi, np.zeros(64), model, solver, None)
    gap = t_hi.u_snapshots[-1] - t_lo.u_snapshots[-1]
    assert gap.min() >= -1e-8


def test_ito_stratonovich_bitwise(per64):
    spec = NoiseSpec(seed=31, c1=0.1, c2=0.1)
    solver = make_solver(dt=1e-3, t_final=0.05)
    path = generate_path(spec, per64, solver.dt, solver.n_steps)
    u0 = 1.0 + 0.2 * per64.mode_field(1)
    v0 = 0.5 + 0.1 * per64.mode_field(2)

    strat = ModelConfig(sigma1=0.4, sigma2=0.3, calculus="stratonovich")
    ito = ModelConfig(sigma1=0.4, sigma2=0.3, calculus="ito")
    corr = (
        stratonovich_correction(spec, per64, 1, strat.sigma1),
        stratonovich_correction(spec, per64, 2, strat.sigma2),
    )
    traj_s = simulate_path(per64, u0, v0, strat, solver, path)
    traj_i = simulate_path(
        per64, u0, v0, ito, solver, path, mult_drift_override=corr
    )
    assert np.array_equal(traj_s.u_snapshots[-1], traj_i.u_snapshots[-1])
    assert np.array_equal(traj_s.v_snapshots[-1], traj_i.v_snapshots[-1])
    for col in Trajectory.NORM_COLUMNS[:-1]:
        assert np.array_equal(traj_s.norms[col], traj_i.norms[col])


def test_reproducibility_same_seed(per64):
    spec = NoiseSpec(seed=77)
    model = ModelConfig(sigma1=0.1, sigma2=0.1)
    solver = make_solver(dt=1e-3, t_final=0.05)
    u0 = 1.0 + 0.1 * per64.mode_field(1)
    v0 = 0.4 + 0.05 * per64.mode_field(2)
    runs = []
    for _ in range(2):
        path = generate_path(spec, per64, solver.dt, solver.n_steps)
        runs.append(simulate_path(per64, u0, v0, model, solver, path))
    for col in Trajectory.NORM_COLUMNS[:-1]:
        assert np.array_equal(runs[0].norms[col], runs[1].norms[col])


def test_zero_horizon_single_snapshot(per64):
    model = ModelConfig()
    solver = SolverConfig(dt=1e-3, t_final=0.0)
    traj = simulate_path(per64, np.ones(64), np.ones(64), model, solver, None)
    assert traj.n_records == 1
    assert traj.u_snapshots.shape[0] == 1


def test_strong_self_convergence_order(per64):
    """Halving dt with a shared Brownian path shrinks the strong error."""
    spec = NoiseSpec(seed=301, c1=0.2, c2=0.2)
    model = ModelConfig(r_u=0.5, r_v=0.1, gamma=3.0, sigma1=0.5, sigma2=0.5)
    t_final = 0.1
    dt_fine = t_final / 512
    fine_path = generate_path(spec, per64, dt_fine, 512)
    u0 = 1.0 + 0.2 * per64.mode_field(1)
    v0 = 0.5 + 0.1 * per64.mode_field(2)

    def endpoint(path, dt):
        solver = make_solver(dt=dt, t_final=t_final, snapshot_stride=10**6)
        traj = simulate_path(per64, u0, v0, model, solver, path)
        return final_state(traj)

    ref = endpoint(fine_path, dt_fine)
    errs = []
    for factor in (8, 4):
        coarse = endpoint(fine_path.coarsen(factor), dt_fine * factor)
        errs.append(
            lp_norm(coarse.u - ref.u, 2.0) + lp_norm(coarse.v - ref.v, 2.0)
        )
    order = np.log2(errs[0] / errs[1])
    assert order >= 0.4

    det = ModelConfig(r_u=0.5, r_v=0.1, gamma=3.0, sigma1=0.0, sigma2=0.0)
    def endpoint_det(path, dt):
        solver = make_solver(dt=dt, t_final=t_final, snapshot_stride=10**6)
        return final_state(simulate_path(per64, u0, v0, det, solver, path))
    ref_d = endpoint_det(fine_path, dt_fine)
    errs_d = []
    for factor in (8, 4):
        coarse = endpoint_det(fine_path.coarsen(factor), dt_fine * factor)
        errs_d.append(
            lp_norm(coarse.u - ref_d.u, 2.0) + lp_norm(coarse.v - ref_d.v, 2.0)
        )
    assert np.log2(errs_d[0] / errs_d[1]) >= 0.9


def test_deterministic_vegetation_run_bounded():
    """Perturbed equilibrium with rain terms stays bounded (regression)."""
    from helpers import pattern_scenario

    sc = pattern_scenario(seed=0)
    traj = simulate_path(sc.basis, sc.u0, sc.v0, sc.model, sc.solver, None)
    max_v = float(np.max(np.abs(traj.v_snapshots)))
    assert np.isfinite(max_v)
    # frozen after the first verified run (equilibrium biomass ~ g/u*)
    assert max_v == pytest.approx(4.2090461, rel=1e-4)


def test_two_dimensional_smoke():
    """The stepping machinery is dimension-agnostic at desk scale."""
    basis = build_basis(2, "periodic", 16, 60)
    model = ModelConfig(r_u=0.5, r_v=0.1, gamma=3.0, sigma1=0.1, sigma2=0.1)
    solver = SolverConfig(dt=2e-3, t_final=0.02, snapshot_stride=5)
    spec = NoiseSpec(seed=77, c1=0.1, c2=0.1)
    path = generate_path(spec, basis, solver.dt, solver.n_steps)
    x = basis.axis_coordinates()
    bump = np.exp(-np.sin(np.pi * (x - 0.5)) ** 2 / 0.15**2)
    u0 = 0.2 + 0.1 * np.multiply.outer(bump, bump)
    v0 = 0.1 + 0.05 * np.multiply.outer(bump, bump)
    traj = simulate_path(basis, u0, v0, model, solver, path)
    assert traj.flags["completed"]
    assert np.all(np.isfinite(traj.u_snapshots))
    assert traj.norms["min_u"].min() > 0.0


def test_frozen_batch_rows_are_their_lone_steps(per64):
    """A batch of three rows, each with its own frozen fields and cutoff
    value, steps each row as the lone step with a scalar phi; a value
    outside [0, 1] in any row is refused by value."""
    model = ModelConfig(sigma1=0.3, sigma2=0.2)
    solver = make_solver()
    rng = np.random.default_rng(9)
    u, v, eta, xi = (1.0 + 0.5 * rng.random((4, 3, 64)))
    phi = np.array([1.0, 0.37, 0.0])
    dw1, dw2 = 0.03 * rng.standard_normal((2, 64))
    out = step_frozen(per64, CoupledState(u, v, 0.0), eta, xi, phi, model,
                      solver, dw1, dw2)
    for row in range(3):
        lone = step_frozen(per64, CoupledState(u[row][None], v[row][None],
                                               0.0), eta[row], xi[row],
                           float(phi[row]), model, solver, dw1, dw2)
        assert np.array_equal(out.u[row], lone.u[0])
        assert np.array_equal(out.v[row], lone.v[0])
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError, match=f"cutoff value {bad} outside"):
            step_frozen(per64, CoupledState(u, v, 0.0), eta, xi,
                        np.array([1.0, bad, 0.5]), model, solver, dw1, dw2)


def test_driver_counts_clips_and_names_a_non_finite_row(per64):
    """The time driver counts clipped points per row, and a row left
    non-finite by a step aborts the run naming the row."""
    solver = make_solver(dt=0.1, t_final=0.3, nonneg_policy="project")
    start = CoupledState(np.ones((3, 64)), np.ones((3, 64)), 0.0)

    def step(state, n, dw1, dw2):
        u = state.u - 0.0
        u[1, :n + 1] = -1.0  # row 1 dips below zero at n + 1 points
        v = state.v.copy()
        if n == 2:
            v[2, 5] = np.inf
        return CoupledState(u, v, state.t + solver.dt)

    def none(n):
        return None, None

    run = dynamics._drive(start, solver, 3, step, none)
    clipped = [c for _, c in itertools.islice(run, 3)]
    assert clipped[0] == 0
    assert [list(c) for c in clipped[1:]] == [[0, 1, 0], [0, 2, 0]]
    with pytest.raises(NewtonError) as err:
        next(run)
    assert str(err.value) == "non-finite state after step 2"
    assert (err.value.row, err.value.step_index, err.value.path) == (2, 2, None)


def test_non_finite_path_batch_names_no_row(monkeypatch):
    """In a path batch a row is an index of the live rows, which the time
    driver cannot map a row of the whole state to: a non-finite state names
    its step, but neither a row nor a path."""
    sc = exit_scenario(seed=808, n=32, t_final=0.02)
    step = dynamics.step_coupled

    def poisoned(basis, state, *args):
        new = step(basis, state, *args)
        if state.t > 0.0:
            new.u[-1, 0] = np.nan
        return new

    monkeypatch.setattr(dynamics, "step_coupled", poisoned)
    with pytest.raises(NewtonError) as err:
        dynamics._run_paths(sc, np.arange(5, 9),
                            lambda n, u, v, live, rung: (live[1:], ()))
    assert str(err.value) == "non-finite state after step 1"
    assert (err.value.row, err.value.step_index, err.value.path) == (
        None, 1, None)


def test_project_policy_clips_and_counts(per64):
    model = ModelConfig(r_u=0.0, r_v=0.0, chi=0.0, f=5.0, sigma1=0.0, sigma2=0.0)
    solver = make_solver(dt=0.1, t_final=0.2, nonneg_policy="project")
    x = per64.axis_coordinates()
    u0 = np.sin(2 * np.pi * x)  # half of it below zero
    traj = simulate_path(per64, u0, np.zeros(64), model, solver, None)
    assert traj.flags["projected_points"] > 0
    assert traj.norms["min_u"][-1] >= 0.0


def test_newton_failure_carries_step_index(per64):
    model = ModelConfig(r_u=100.0, gamma=5.0, sigma1=0.0, sigma2=0.0)
    solver = make_solver(dt=0.5, t_final=1.0, newton_max_iter=1, newton_tol=1e-15)
    u0 = 2.0 + 1.5 * per64.mode_field(1)
    with pytest.raises(NewtonError) as err:
        simulate_path(per64, u0, np.zeros(64), model, solver, None)
    assert err.value.step_index is not None


def _rough_batch(basis, rows, seed):
    """Positive rough fields of spread amplitudes, a source and noise."""
    rng = np.random.default_rng(seed)
    shape = (rows,) + basis.grid_shape
    amp = np.geomspace(0.05, 6.0, rows).reshape((rows,) + (1,) * basis.dimension)
    u = amp * (1.0 + 0.8 * rng.standard_normal(shape) ** 2)
    return u, rng.standard_normal(shape), 0.03 * rng.standard_normal(shape)


@pytest.mark.parametrize("rows", [dynamics._PCG_ROWS - 1, dynamics._PCG_ROWS])
def test_pcg_crossover_picks_the_solver(per64, monkeypatch, rows):
    """The first Newton iteration of a dense batch solves by PCG from
    _PCG_ROWS rows on, and by LU, row by row, below it."""
    model = ModelConfig(r_u=1.0, gamma=3.0, sigma1=0.4)
    solver = make_solver(dt=4e-3)
    u, source, dw1 = _rough_batch(per64, rows, seed=3)
    calls = []
    pcg, solve = dynamics._pcg, np.linalg.solve

    def spy_pcg(*args):
        calls.append(("pcg", len(args[-1])))
        return pcg(*args)

    def spy_lu(a, b):
        calls.append(("lu", 1))
        return solve(a, b)

    monkeypatch.setattr(dynamics, "_pcg", spy_pcg)
    monkeypatch.setattr(np.linalg, "solve", spy_lu)
    pm_implicit_step(per64, u, source, dw1, model, solver, solver.dt)
    if rows >= dynamics._PCG_ROWS:
        assert calls[0] == ("pcg", rows)
    else:
        assert calls[:rows] == [("lu", 1)] * rows
        assert all(c[0] == "lu" for c in calls)


def _run_failing_batch(monkeypatch, failure, sc=None,
                       paths=np.arange(59, 39, -1)):
    """Paths `paths` of `sc` (by default an exit scenario, paths 40-59
    reversed) as one batch: rows 0-2 stop after step 2, then
    `failure(basis)` breaks the PCG of the next step."""
    if sc is None:
        sc = exit_scenario(seed=808, n=32, t_final=0.02)

    def observe(n, u, v, live, rung):
        if n == 2:
            failure(sc.basis)
            return live[3:], ()
        return live, ()

    with pytest.raises(NewtonError) as err:
        dynamics._run_paths(sc, paths, observe)
    return err.value, paths


def test_pcg_cap_raises_newton_error_naming_step_and_path(monkeypatch):
    """A PCG that cannot meet its tolerance stops at its cap, 2 n
    iterations, and the error carries the step and the global path."""
    def no_tolerance(basis):
        monkeypatch.setattr(dynamics, "_PCG_RTOL", 0.0)

    err, paths = _run_failing_batch(monkeypatch, no_tolerance)
    assert "PCG did not converge in 64 iterations" in str(err)
    assert err.step_index == 2
    assert err.row == 0 and err.path == paths[3] == 56  # row 0 of the live
    assert err.iterations == 0 and np.isfinite(err.residual)


def test_pcg_breakdown_raises_newton_error_naming_step_and_path(monkeypatch):
    """An indefinite system (the Laplacian's sign flipped) breaks the PCG
    down on zero or negative curvature."""
    def flip(basis):
        monkeypatch.setitem(basis._cache, "laplacian_matrix",
                            -basis.laplacian_matrix())

    err, paths = _run_failing_batch(monkeypatch, flip)
    assert "PCG breakdown" in str(err)
    assert err.step_index == 2
    assert err.path in paths[3:]


def _d2_exit_scenario(u0=None):
    """The exit scenario on a d=2 Neumann N=32 grid, 1024 cells, where every
    row count solves by the transform PCG; u0(basis) defaults to a bump."""
    sc = exit_scenario(seed=808, n=32, t_final=0.02)
    basis = build_basis(2, "neumann", 32, 120)
    assert basis.grid_size > dynamics._DENSE_LIMIT
    return dataclasses.replace(
        sc, basis=basis,
        u0=bump_field(basis, 0.9, 0.5) if u0 is None else u0(basis),
        v0=bump_field(basis, 0.8, 0.4, center=0.35))


def test_transform_pcg_cap_names_step_row_and_path(monkeypatch):
    """Above the dense limit the PCG stops at its cap, 2 n iterations, and
    the error carries the step, the row and the global path.  The transform
    products leave no rounding floor, so on smooth rows the residual falls
    until it underflows; a rough u0 of amplitude 20 slows the iteration
    enough that the cap comes first (the largest row residual^2 left is
    about 1e-91)."""
    def no_tolerance(basis):
        monkeypatch.setattr(dynamics, "_PCG_RTOL", 0.0)

    def rough(basis):
        rng = np.random.default_rng(5)
        return 20.0 * (1.0 + 0.8 * rng.standard_normal(basis.grid_shape) ** 2)

    err, paths = _run_failing_batch(monkeypatch, no_tolerance,
                                    _d2_exit_scenario(rough), np.arange(9, 3, -1))
    assert "PCG did not converge in 2048 iterations" in str(err)
    assert err.step_index == 2
    assert err.row == 0 and err.path == paths[3] == 6  # row 0 of the live
    assert f"path {err.path}" in str(err)
    assert err.iterations == 0 and np.isfinite(err.residual)


def test_transform_pcg_breakdown_names_step_row_and_path(monkeypatch):
    """An indefinite system (the Laplacian's sign flipped) breaks the
    transform PCG down on zero or negative curvature."""
    def flip(basis):
        monkeypatch.setattr(dynamics, "apply_laplacian",
                            lambda basis, f: -apply_laplacian(basis, f))

    err, paths = _run_failing_batch(monkeypatch, flip, _d2_exit_scenario(),
                                    np.arange(9, 3, -1))
    assert "PCG breakdown" in str(err)
    assert err.step_index == 2
    assert err.row in range(3) and err.path == paths[3 + err.row]
    assert f"path {err.path}" in str(err)