"""Cutoff, norm budget, Picard iteration, stopping times, and gluing."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import helpers
from klausim import dynamics, fixedpoint
from klausim.basis import build_basis
from klausim.cli import apply_overrides, build_scenario, default_config
from klausim.dynamics import (
    ModelConfig,
    NewtonError,
    SolverConfig,
    simulate_path,
    step_frozen,
)
from klausim.fields import lp_norm
from klausim.fixedpoint import (
    CutoffParams,
    _exit_ladder,
    _exit_steps,
    FrozenPair,
    PicardError,
    apply_V,
    cutoff_phi,
    default_nu,
    exit_prob_estimate,
    exit_tail,
    first_exit_time,
    fit_tail_constant,
    glue_simulate,
    h_functional,
    pair_distance,
    picard_solve,
)
from klausim.noise import NoiseSpec, generate_path
from klausim.scenarios import (
    default_cutoff,
    exit_scenario,
    small_data_scenario,
)


# ----------------------------------------------------------------- cutoff


def test_cutoff_plateau_and_support():
    for kappa in (0.5, 1.0, 7.0):
        assert cutoff_phi(0.0, kappa) == 1.0
        assert cutoff_phi(kappa, kappa) == 1.0
        assert cutoff_phi(2.0 * kappa, kappa) == 0.0
        assert cutoff_phi(5.0 * kappa, kappa) == 0.0
        mid = cutoff_phi(1.5 * kappa, kappa)
        assert 0.0 < mid < 1.0


def test_cutoff_monotone_and_lipschitz():
    kappa = 2.0
    xs = np.linspace(0.0, 2.5 * kappa, 20001)
    vals = cutoff_phi(xs, kappa)
    assert np.all(np.diff(vals) <= 1e-12)
    slopes = np.abs(np.diff(vals) / np.diff(xs))
    assert slopes.max() <= 2.0 / kappa + 1e-3


def test_cutoff_midpoint_slope_bound():
    kappa = 1.0
    eps = 1e-6
    slope = (cutoff_phi(1.5 + eps, kappa) - cutoff_phi(1.5 - eps, kappa)) / (2 * eps)
    assert abs(slope) <= 2.0 / kappa + 1e-3


def test_cutoff_rejects_bad_kappa():
    for kappa in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="kappa"):
            cutoff_phi(1.0, kappa)


# ----------------------------------------------------------------- params


def test_default_nu_saturates_constraints():
    nu = default_nu(gamma=3.0, m0=12.0, p0_star=8.0)
    assert nu == pytest.approx((1.0 - 0.125) * 4.0 / 12.0)
    CutoffParams(kappa=1.0, gamma=3.0, m=6.0, m0=12.0, p0_star=8.0, nu=nu)


def test_cutoff_params_reject_bad_nu():
    with pytest.raises(ValueError):
        CutoffParams(kappa=1.0, gamma=3.0, m=6.0, m0=12.0, p0_star=8.0, nu=0.9)
    with pytest.raises(ValueError):
        CutoffParams(kappa=-1.0, gamma=3.0, m=6.0, m0=12.0, p0_star=8.0)


@pytest.mark.parametrize("name", ["kappa", "gamma", "m", "m0", "p0_star",
                                  "nu"])
def test_cutoff_params_reject_nan(name):
    fields = dict(kappa=1.0, gamma=3.0, m=6.0, m0=12.0, p0_star=8.0, nu=None)
    with pytest.raises(ValueError):
        CutoffParams(**{**fields, name: float("nan")})


# ------------------------------------------------------------ h functional


def grid_pair(basis, dt, n_steps, eta_value, xi_value):
    shape = (n_steps + 1,) + basis.grid_shape
    return FrozenPair(
        eta=np.full(shape, float(eta_value)),
        xi=np.full(shape, float(xi_value)),
        dt=dt,
    )


def test_h_zero_pair():
    basis = build_basis(1, "periodic", 16, 15)
    pair = grid_pair(basis, 0.01, 50, 0.0, 0.0)
    params = default_cutoff()
    for t in (0.0, 0.25, 0.5):
        assert h_functional(pair, t, params) == 0.0


def test_h_constant_eta_closed_form():
    basis = build_basis(1, "periodic", 16, 15)
    pair = grid_pair(basis, 0.01, 100, 1.0, 0.0)
    params = CutoffParams(kappa=1.0, gamma=2.0, m=4.0, m0=2.5, p0_star=8.0, nu=1.0)
    # |1|_{L^3}^3 integrates to t
    assert h_functional(pair, 0.5, params) == pytest.approx(0.5, abs=1e-12)


def test_h_both_channels_with_root():
    basis = build_basis(1, "periodic", 16, 15)
    pair = grid_pair(basis, 0.01, 100, 1.0, 1.0)
    params = CutoffParams(kappa=1.0, gamma=2.0, m=4.0, m0=4.0, p0_star=8.0, nu=0.5)
    assert h_functional(pair, 1.0, params) == pytest.approx(2.0, abs=1e-12)


def test_h_nondecreasing_and_off_grid_rejected():
    basis = build_basis(1, "periodic", 16, 15)
    rng = np.random.default_rng(0)
    pair = FrozenPair(
        eta=rng.normal(size=(21, 16)) ** 2,
        xi=rng.normal(size=(21, 16)) ** 2,
        dt=0.05,
    )
    params = default_cutoff()
    h = pair.h_values(params)
    assert h[0] == 0.0
    assert np.all(np.diff(h) >= 0.0)
    with pytest.raises(ValueError):
        h_functional(pair, 0.033, params)


def test_recorded_h_is_h_values_of_the_recorded_fields():
    """Every recorded h column is FrozenPair.h_values of the run's own
    fields, bit for bit: one h formula for direct runs and each glue
    segment (rungs restart h, the decoupled tail included)."""
    sc = exit_scenario(seed=2, n=16, t_final=0.05)
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    traj = simulate_path(sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path,
                         cutoff=sc.cutoff)
    assert np.array_equal(
        traj.norms["h"], FrozenPair.from_trajectory(traj).h_values(sc.cutoff)
    )

    glued = glue_simulate(sc.u0, sc.v0, [0.2, 0.4], sc.model, sc.solver,
                          sc.basis, sc.noise, sc.cutoff).trajectory
    ends = [int(round(t / sc.solver.dt)) for t in
            glued.times[np.flatnonzero(np.diff(glued.norms["h"]) < 0)]]
    assert len(ends) == 2  # both rungs exit, then the tail runs
    h = glued.norms["h"]
    assert h[0] == 0.0
    for a, b in zip([0] + ends, ends + [sc.solver.n_steps]):
        segment = FrozenPair(eta=glued.u_snapshots[a:b + 1],
                             xi=glued.v_snapshots[a:b + 1], dt=sc.solver.dt)
        assert np.array_equal(h[a + 1:b + 1], segment.h_values(sc.cutoff)[1:])


# ---------------------------------------------------------------- apply_V


@pytest.fixture(scope="module")
def small():
    return small_data_scenario(seed=4)


def test_apply_v_zero_pair_is_reaction_free(small):
    sc = small
    n_steps = sc.solver.n_steps
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, n_steps)
    zero = FrozenPair.zero(sc.basis, sc.solver.dt, n_steps)
    traj = apply_V(
        zero, sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver,
        sc.basis, sc.cutoff,
    )
    # independent check: decoupled porous-medium flow for u (chi-term absent)
    import dataclasses

    free_model = dataclasses.replace(sc.model, chi=0.0)
    ref_u = simulate_path(
        sc.basis, sc.u0, np.zeros_like(sc.v0), free_model, sc.solver, path
    )
    assert np.max(np.abs(traj.u_snapshots[-1] - ref_u.u_snapshots[-1])) <= 1e-12


def test_apply_v_deterministic(small):
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    zero = FrozenPair.zero(sc.basis, sc.solver.dt, sc.solver.n_steps)
    a = apply_V(zero, sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis,
                sc.cutoff)
    b = apply_V(zero, sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis,
                sc.cutoff)
    assert np.array_equal(a.u_snapshots, b.u_snapshots)


def test_apply_v_tiny_kappa_switches_reaction_off(small):
    """Once h exceeds 2 kappa the tail must follow the reaction-free flow."""
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    ones_pair = FrozenPair(
        eta=np.ones((sc.solver.n_steps + 1,) + sc.basis.grid_shape),
        xi=np.ones((sc.solver.n_steps + 1,) + sc.basis.grid_shape),
        dt=sc.solver.dt,
    )
    tiny = 1e-9
    traj = apply_V(
        ones_pair, sc.u0, sc.v0, tiny, path, sc.model, sc.solver, sc.basis,
        sc.cutoff.with_kappa(tiny),
    )
    zero = FrozenPair.zero(sc.basis, sc.solver.dt, sc.solver.n_steps)
    free = apply_V(
        zero, sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver,
        sc.basis, sc.cutoff,
    )
    # the first step sees h=0 (phi=1); everything after is reaction-free
    tail_gap = np.max(np.abs(traj.u_snapshots[-1] - free.u_snapshots[-1]))
    first_step_kick = sc.solver.dt * sc.model.chi  # one step of eta xi^2
    assert tail_gap <= 2.0 * first_step_kick


def _periodic64_setup(**solver_kw):
    basis = build_basis(1, "periodic", 64, 63)
    solver = SolverConfig(snapshot_stride=1, **solver_kw)
    path = generate_path(NoiseSpec(), basis, solver.dt, solver.n_steps)
    zero = FrozenPair.zero(basis, solver.dt, solver.n_steps)
    return basis, solver, path, zero


def test_picard_sweep_projects_under_project_policy():
    model = ModelConfig(r_u=0.0, r_v=0.0, chi=0.0, f=5.0, sigma1=0.0,
                        sigma2=0.0)
    basis, solver, path, _ = _periodic64_setup(
        dt=0.1, t_final=0.2, nonneg_policy="project"
    )
    u0 = np.sin(2 * np.pi * basis.axis_coordinates())  # half below zero
    result = picard_solve(u0, np.zeros(64), 1.0, path, model, solver, basis,
                          default_cutoff())
    traj = result.trajectory
    assert traj.flags["projected_points"] > 0
    assert traj.norms["min_u"][1:].min() >= 0.0


def test_apply_v_rejects_short_noise_path():
    basis, solver, _, zero = _periodic64_setup(dt=0.1, t_final=0.2)
    short = generate_path(NoiseSpec(), basis, solver.dt, solver.n_steps - 1)
    with pytest.raises(ValueError, match="shorter"):
        apply_V(zero, np.ones(64), np.ones(64), 1.0, short, ModelConfig(),
                solver, basis, default_cutoff())


def test_apply_v_newton_failure_carries_step_index():
    model = ModelConfig(r_u=100.0, gamma=5.0, sigma1=0.0, sigma2=0.0)
    basis, solver, path, zero = _periodic64_setup(
        dt=0.5, t_final=1.0, newton_max_iter=1, newton_tol=1e-15
    )
    u0 = 2.0 + 1.5 * basis.mode_field(1)
    with pytest.raises(NewtonError) as err:
        apply_V(zero, u0, np.zeros(64), 1.0, path, model, solver, basis,
                default_cutoff())
    assert err.value.step_index == 0


# ------------------------------------------------------------------ picard


def test_picard_zero_data_converges_immediately(small):
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    zeros = np.zeros(sc.basis.grid_shape)
    result = picard_solve(
        zeros, zeros, 1.0, path, sc.model, sc.solver, sc.basis, sc.cutoff,
        tol=1e-12,
    )
    assert result.converged and result.iterations == 1
    assert np.max(np.abs(result.trajectory.u_snapshots)) == 0.0


def test_picard_small_data_contracts(small):
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    result = picard_solve(
        sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver, sc.basis,
        sc.cutoff, tol=1e-8,
    )
    assert result.converged
    res = result.residuals
    assert res[-1] <= 1e-8
    assert all(b < a for a, b in zip(res[1:], res[2:]))  # decreasing from it 2
    # frozen after the first verified run
    assert res[0] == pytest.approx(1.163322e-05, rel=1e-3)
    assert res[-1] == pytest.approx(1.732598e-09, rel=1e-3)


def test_picard_restart_from_fixed_point_is_instant(small):
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    result = picard_solve(
        sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis, sc.cutoff,
        tol=1e-8,
    )
    again = picard_solve(
        sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis, sc.cutoff,
        tol=1e-8, initial_pair=result.pair,
    )
    assert again.iterations == 1
    assert again.residuals[0] <= 1e-8


def test_picard_self_consistency(small):
    """Re-applying the operator moves the fixed point by at most tol."""
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    result = picard_solve(
        sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis, sc.cutoff,
        tol=1e-9,
    )
    reapplied = apply_V(
        result.pair, sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis,
        sc.cutoff,
    )
    drift = pair_distance(
        FrozenPair.from_trajectory(reapplied), result.pair, sc.cutoff
    )
    assert drift <= 1e-9


def test_picard_nonconvergence_raises():
    sc = small_data_scenario(seed=4)
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    with pytest.raises(PicardError) as err:
        picard_solve(
            sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis, sc.cutoff,
            tol=1e-30, max_iter=3,
        )
    assert len(err.value.residuals) == 3


@pytest.mark.parametrize("tol, max_iter", [(1e-8, 0), (float("nan"), 60)])
def test_picard_rejects_bad_controls(small, tol, max_iter):
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(
            sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis, sc.cutoff,
            tol=tol, max_iter=max_iter,
        )


def test_truncation_consistency_with_direct_run(small):
    """Below the budget the fixed point equals the plain coupled dynamics."""
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    tol = 1e-9
    result = picard_solve(
        sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver, sc.basis,
        sc.cutoff, tol=tol,
    )
    direct = simulate_path(
        sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path, cutoff=sc.cutoff
    )
    assert np.nanmax(direct.norms["h"]) < sc.cutoff.kappa  # small data stays below
    sup_gap = max(
        lp_norm(a - b, 2.0)
        for a, b in zip(result.trajectory.u_snapshots, direct.u_snapshots)
    ) + max(
        lp_norm(a - b, 2.0)
        for a, b in zip(result.trajectory.v_snapshots, direct.v_snapshots)
    )
    assert sup_gap <= 10.0 * tol


def test_monotone_truncation(small):
    """Trajectories at kappa and 2 kappa agree up to the first kappa-exit."""
    sc = small
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    tol = 1e-9
    lo = picard_solve(sc.u0, sc.v0, 1.0, path, sc.model, sc.solver, sc.basis,
                      sc.cutoff.with_kappa(1.0), tol=tol)
    hi = picard_solve(sc.u0, sc.v0, 2.0, path, sc.model, sc.solver, sc.basis,
                      sc.cutoff.with_kappa(2.0), tol=tol)
    exit_lo = first_exit_time(lo.trajectory, 1.0)
    n_keep = (
        lo.trajectory.n_records
        if exit_lo is None
        else int(round(exit_lo / sc.solver.dt))
    )
    gap = max(
        lp_norm(a - b, 2.0)
        for a, b in zip(
            lo.trajectory.u_snapshots[:n_keep], hi.trajectory.u_snapshots[:n_keep]
        )
    )
    assert gap <= 10.0 * tol


# ------------------------------------------------- lockstep Picard batches


def _assert_same_solve(got, want):
    """Iterations, residuals and every recorded array equal bit for bit."""
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert got.residuals == want.residuals
    a, b = got.trajectory, want.trajectory
    for name in ("times", "snapshot_times", "u_snapshots", "v_snapshots"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.norms.keys() == b.norms.keys()
    for key in a.norms:
        assert np.array_equal(a.norms[key], b.norms[key]), key
    assert a.flags == b.flags


def _picard_case(name):
    """(scenario, kappa, tol): small data with phi = 1 throughout, and
    exit data whose h crosses kappa, so that phi falls below 1."""
    if name == "small":
        return small_data_scenario(seed=4), 1.0, 1e-9
    return exit_scenario(seed=2, n=16, t_final=0.05), 0.3, 1e-10


def _picard_args(sc, kappa):
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    return (sc.u0, sc.v0, kappa, path, sc.model, sc.solver, sc.basis,
            sc.cutoff.with_kappa(kappa))


def _batches(monkeypatch, rows=None, full=False):
    """Cap the lockstep batches at `rows` sweeps; with `full`, run every
    batch at the cap instead of sizing it from the residuals."""
    if rows is not None:
        monkeypatch.setattr(fixedpoint, "_SWEEP_ROWS", rows)
    if full:
        monkeypatch.setattr(fixedpoint, "_batch_rows",
                            lambda *a: fixedpoint._SWEEP_ROWS)


def _count_sweeps(monkeypatch):
    """The rows of every lockstep batch run from now on, in a list."""
    rows = []
    sweep = fixedpoint._sweep

    def spy(pair, n_rows, *args):
        rows.append(n_rows)
        return sweep(pair, n_rows, *args)

    monkeypatch.setattr(fixedpoint, "_sweep", spy)
    return rows


def _both_solves(sc, kappa, tol, **kw):
    args = _picard_args(sc, kappa)
    return (picard_solve(*args, tol=tol, **kw),
            helpers.picard_serial(*args, tol=tol, **kw))


def test_sweep_batches_stay_on_lu():
    """Every row of a sweep batch solves by LU, as a lone sweep does."""
    assert fixedpoint._SWEEP_ROWS < dynamics._PCG_ROWS


@pytest.mark.parametrize("case", ["small", "exit"])
@pytest.mark.parametrize("rows", [None, 2])
@pytest.mark.parametrize("full", [False, True])
def test_picard_batches_match_the_serial_loop(case, rows, full, monkeypatch):
    """Batches sized from the residuals, full batches converging inside the
    first, and several batches of at most 2 rows all give the serial
    loop's iterates bit for bit."""
    _batches(monkeypatch, rows, full)
    sc, kappa, tol = _picard_case(case)
    got, want = _both_solves(sc, kappa, tol)
    assert want.iterations >= 2
    if full and rows is None:
        assert want.iterations + 1 <= fixedpoint._SWEEP_ROWS
    _assert_same_solve(got, want)


def test_batch_rows_follow_the_contraction():
    """Two residuals' worth first, then the sweeps the last ratio says are
    left, within [1, _SWEEP_ROWS]; no contraction runs a full batch."""
    cap = fixedpoint._SWEEP_ROWS
    rows = fixedpoint._batch_rows
    assert (rows([], 1e-8, True), rows([], 1e-8, False)) == (3, 2)
    assert rows([1e-1], 1e-8, False) == 1
    assert rows([1e-1, 1e-2], 2e-8, False) == 6  # 5.7 sweeps of 10^-1
    assert rows([1e-1, 1e-2], 9e-3, False) == 1
    assert rows([1e-1, 1e-6], 1e-300, False) == cap
    assert rows([1e-2, 1e-2], 1e-8, False) == cap
    assert rows([1e-2, 5e-2], 1e-8, False) == cap


def test_picard_runs_the_serial_sweeps_when_two_iterations_do():
    """A solve that converges at its second iterate runs the start and two
    sweeps, no more than the serial loop: a first batch of three rows."""
    sc, kappa, _ = _picard_case("small")
    want = helpers.picard_serial(*_picard_args(sc, kappa), tol=1e-9)
    tol = want.residuals[1]
    with pytest.MonkeyPatch.context() as mp:
        rows = _count_sweeps(mp)
        got, want = _both_solves(sc, kappa, tol)
    assert want.iterations == 2
    assert rows == [3]
    _assert_same_solve(got, want)


@pytest.mark.parametrize("rows", [None, 2])
def test_picard_batches_count_projected_points_per_row(rows, monkeypatch):
    """Under nonneg_policy=project each row counts its own clipped points:
    the result's count is that of its serial sweep."""
    if rows is not None:
        monkeypatch.setattr(fixedpoint, "_SWEEP_ROWS", rows)
    model = ModelConfig(r_u=0.2, r_v=0.1, chi=10.0, sigma1=0.0, sigma2=0.0)
    basis, solver, path, _ = _periodic64_setup(
        dt=0.01, t_final=0.3, nonneg_policy="project"
    )
    x = basis.axis_coordinates()
    u0 = 0.2 + np.sin(2 * np.pi * x)  # the sweeps clip 97, 150, 115, ...
    v0 = 1.0 + np.cos(2 * np.pi * x)
    args = (u0, v0, 1.0, path, model, solver, basis, default_cutoff())
    got = picard_solve(*args, tol=1e-12)
    want = helpers.picard_serial(*args, tol=1e-12)
    assert want.iterations >= 3
    assert want.trajectory.flags["projected_points"] > 0
    _assert_same_solve(got, want)


@pytest.mark.parametrize("from_run", [True, False])
@pytest.mark.parametrize("rows", [None, 2])
def test_picard_batches_from_an_initial_pair(from_run, rows, monkeypatch):
    """Row 0 of the first batch is frozen on the initial pair and its
    h_values: the pair of a direct run, or the data frozen in time (the
    uniqueness experiment's start)."""
    if rows is not None:
        monkeypatch.setattr(fixedpoint, "_SWEEP_ROWS", rows)
    sc, kappa, tol = _picard_case("exit")
    if from_run:
        path = generate_path(sc.noise, sc.basis, sc.solver.dt,
                             sc.solver.n_steps)
        pair = FrozenPair.from_trajectory(simulate_path(
            sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path,
            cutoff=sc.cutoff.with_kappa(kappa)))
    else:
        shape = (sc.solver.n_steps + 1,) + sc.basis.grid_shape
        pair = FrozenPair(eta=np.broadcast_to(sc.u0, shape),
                          xi=np.broadcast_to(sc.v0, shape), dt=sc.solver.dt)
    got, want = _both_solves(sc, kappa, tol, initial_pair=pair)
    _assert_same_solve(got, want)


@pytest.mark.parametrize("rows", [None, 2])
def test_picard_computes_h_once_per_solve(rows, monkeypatch):
    """picard_solve calls h_values for its first pair only, also across
    several batches: each later batch is frozen on the h column the
    recorder wrote for the carried row, with the bits of the serial loop,
    which calls h_values for every sweep."""
    _batches(monkeypatch, rows)
    sc, kappa, tol = _picard_case("exit")
    args = _picard_args(sc, kappa)
    want = helpers.picard_serial(*args, tol=tol)
    batches = _count_sweeps(monkeypatch)
    calls = []
    h_values = FrozenPair.h_values

    def spy(pair, params):
        calls.append(params)
        return h_values(pair, params)

    monkeypatch.setattr(FrozenPair, "h_values", spy)
    got = picard_solve(*args, tol=tol)
    assert calls == [args[-1]]
    assert len(batches) > (1 if rows else 0)
    _assert_same_solve(got, want)


def test_sweep_refuses_a_pair_on_another_time_grid():
    """A pair whose dt is not the solver's would be read on the wrong clock
    (its h by the wrong quadrature weight); a one-slice pair, to which
    from_trajectory gives dt 0, has no clock and is accepted."""
    sc = small_data_scenario()
    params = sc.cutoff.with_kappa(0.02)
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    args = (sc.u0, sc.v0, params.kappa, path, sc.model, sc.solver, sc.basis,
            params)
    recorded = FrozenPair.from_trajectory(simulate_path(
        sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path, cutoff=params))
    apply_V(recorded, *args)
    other = dataclasses.replace(recorded, dt=0.5)
    both = (f"at dt 0.5 is not on the grid of {sc.solver.n_steps} steps at "
            f"solver dt {sc.solver.dt!r}")
    with pytest.raises(ValueError, match=both):
        apply_V(other, *args)
    with pytest.raises(ValueError, match=both):
        picard_solve(*args, initial_pair=other)

    still = dataclasses.replace(sc.solver, t_final=0.0)
    one = FrozenPair.from_trajectory(simulate_path(
        sc.basis, sc.u0, sc.v0, sc.model, still, path, cutoff=params))
    assert (one.n_times, one.dt) == (1, 0.0)
    traj = apply_V(one, *args[:5], still, *args[6:])
    assert traj.n_records == 1


@pytest.mark.parametrize("rows, max_iter", [(None, 3), (2, 4)])
def test_picard_batches_stop_at_max_iter(rows, max_iter, monkeypatch):
    """The last batch is capped at max_iter, and the error carries the
    serial loop's residuals."""
    if rows is not None:
        monkeypatch.setattr(fixedpoint, "_SWEEP_ROWS", rows)
    args = _picard_args(*_picard_case("small")[:2])
    with pytest.raises(PicardError) as got:
        picard_solve(*args, tol=1e-30, max_iter=max_iter)
    with pytest.raises(PicardError) as want:
        helpers.picard_serial(*args, tol=1e-30, max_iter=max_iter)
    assert len(got.value.residuals) == max_iter
    assert got.value.residuals == want.value.residuals
    assert str(got.value) == str(want.value)


def _serial_error(sc, kappa, tol, kind=NewtonError):
    args = _picard_args(sc, kappa)
    with pytest.raises(kind) as want:
        helpers.picard_serial(*args, tol=tol)
    with pytest.raises(kind) as got:
        picard_solve(*args, tol=tol)
    return got.value, want.value


def test_picard_row_newton_failure_is_the_serial_error():
    """With constant water and no water noise the reaction-free start needs
    no Newton iteration, and the first reacting sweep fails its first step
    within one: the batch raises the serial loop's error."""
    sc = exit_scenario(seed=3, n=32, t_final=0.03)
    sc = dataclasses.replace(
        sc, u0=np.full(sc.basis.grid_shape, 0.9),
        model=dataclasses.replace(sc.model, sigma1=0.0, chi=2.0),
        solver=dataclasses.replace(sc.solver, newton_max_iter=1))
    got, want = _serial_error(sc, 1.0, 1e-10)
    assert "Newton did not reach tolerance" in str(want)
    assert str(got) == str(want)
    assert (got.step_index, got.residual, got.iterations) == (
        want.step_index, want.residual, want.iterations)
    assert got.row == 1  # the first iterate; the serial sweep's lone row is 0


def _break_sweep_after(monkeypatch, *failures):
    """For each (target, how) of `failures`, make the sweep frozen on the
    field `target` fail at the step that reads it, in the batches and in
    the serial loop alike: by a NewtonError of its own, by a non-finite
    state, or by an error that names no row."""
    def step(basis, state, eta, xi, phi, *args):
        rows = np.reshape(eta, (len(state.u), -1))
        poisoned = []
        for target, how in failures:
            hits = [i for i, e in enumerate(rows)
                    if np.array_equal(e, target.ravel())]
            if hits and how == "newton":
                raise NewtonError("injected failure", 0.25, 2, row=hits[0])
            if hits and how == "other":
                raise ValueError("injected failure")
            poisoned += hits[:1]
        new = step_frozen(basis, state, eta, xi, phi, *args)
        for row in poisoned:
            new.u[row, 3] = np.nan
        return new

    monkeypatch.setattr(fixedpoint, "step_frozen", step)
    monkeypatch.setattr(helpers, "step_frozen", step)


@pytest.mark.parametrize("how", ["newton", "nonfinite", "other"])
@pytest.mark.parametrize("rows", [None, 3])
def test_picard_failing_row_after_convergence_is_dropped(how, rows,
                                                         monkeypatch):
    """In full batches, the sweep after the converged one (row 4 of the
    first batch, or row 1 of the second batch of 3) fails inside its batch.
    The serial loop never runs it, so the batch reruns without it (or, for
    an error that names no row, its first sweep alone) and returns the
    serial result."""
    _batches(monkeypatch, rows, full=True)
    sc, kappa, tol = _picard_case("small")
    want = _both_solves(sc, kappa, tol)[1]
    assert want.iterations == 3
    _break_sweep_after(monkeypatch, (want.trajectory.u_snapshots[3], how))
    sweeps = _count_sweeps(monkeypatch)
    got = _both_solves(sc, kappa, tol)[0]
    assert len(sweeps) > 1  # the failing batch ran again
    _assert_same_solve(got, want)


def _serial_sweeps(monkeypatch, sc, kappa, tol):
    """The sweeps of the serial loop: the start and iterates 1-3."""
    sweeps = []
    sweep = helpers.sweep_serial
    monkeypatch.setattr(helpers, "sweep_serial",
                        lambda *a: sweeps.append(sweep(*a)) or sweeps[-1])
    helpers.picard_serial(*_picard_args(sc, kappa), tol=tol)
    assert len(sweeps) == 4
    monkeypatch.setattr(helpers, "sweep_serial", sweep)
    return sweeps


def test_picard_unnamed_failure_drops_a_pending_row_error(monkeypatch):
    """A full batch fails in row 4 (after the converged sweep) at step 3,
    and its rerun in row 3 (the converged sweep) at step 5 by an error
    that names no row: the serial loop's ValueError is raised, not the
    dropped row's NewtonError."""
    _batches(monkeypatch, full=True)
    sc, kappa, tol = _picard_case("small")
    sweeps = _serial_sweeps(monkeypatch, sc, kappa, tol)
    _break_sweep_after(monkeypatch, (sweeps[3].u_snapshots[3], "newton"),
                       (sweeps[2].u_snapshots[5], "other"))
    got, want = _serial_error(sc, kappa, tol, ValueError)
    assert str(got) == str(want) == "injected failure"


@pytest.mark.parametrize("how", ["newton", "nonfinite", "other"])
@pytest.mark.parametrize("rows", [None, 2])
def test_picard_failing_row_before_convergence_raises(how, rows,
                                                      monkeypatch):
    """A sweep before convergence fails in a full batch: the batch raises
    the serial loop's error, with its message, step, residual and the
    failing row."""
    _batches(monkeypatch, rows, full=True)
    sc, kappa, tol = _picard_case("small")
    sweeps = _serial_sweeps(monkeypatch, sc, kappa, tol)
    _break_sweep_after(monkeypatch, (sweeps[2].u_snapshots[3], how))
    if how == "other":
        got, want = _serial_error(sc, kappa, tol, ValueError)
        assert str(got) == str(want) == "injected failure"
        return
    got, want = _serial_error(sc, kappa, tol)
    message = "injected failure" if how == "newton" else "non-finite state"
    assert message in str(want)
    assert str(got) == str(want)
    assert (got.step_index, got.iterations) == (want.step_index,
                                                want.iterations)
    assert np.array_equal(got.residual, want.residual, equal_nan=True)
    assert want.row == 0
    assert got.row == 3 % (rows or fixedpoint._SWEEP_ROWS)


# ------------------------------------------------------------- exit times


def test_first_exit_time_cases():
    basis = build_basis(1, "periodic", 16, 15)
    sc_params = CutoffParams(kappa=1.0, gamma=2.0, m=4.0, m0=2.5, p0_star=8.0,
                             nu=1.0)
    solver = SolverConfig(dt=0.01, t_final=1.0)
    model = ModelConfig(r_u=0.0, r_v=0.0, chi=0.0, sigma1=0.0, sigma2=0.0)
    zeros = np.zeros(basis.grid_shape)
    zero_traj = simulate_path(basis, zeros, zeros, model, solver, None,
                              cutoff=sc_params)
    assert first_exit_time(zero_traj, 1.0) is None

    ones = np.ones(basis.grid_shape)
    const_traj = simulate_path(basis, ones, zeros, model, solver, None,
                               cutoff=sc_params)
    # h(t) = t for eta=1, nu=1: crossing kappa=0.5 at t=0.5
    t_star = first_exit_time(const_traj, 0.5)
    assert abs(t_star - 0.5) <= solver.dt + 1e-12
    # kappa -> 0+: first positive grid time
    assert first_exit_time(const_traj, 1e-12) == pytest.approx(
        solver.dt
    )


def test_first_exit_requires_h_records():
    basis = build_basis(1, "periodic", 16, 15)
    solver = SolverConfig(dt=0.01, t_final=0.1)
    model = ModelConfig(sigma1=0.0, sigma2=0.0)
    traj = simulate_path(
        basis, np.zeros(basis.grid_shape), np.zeros(basis.grid_shape),
        model, solver, None,
    )
    with pytest.raises(ValueError):
        first_exit_time(traj, 1.0)


@pytest.fixture(scope="module")
def exit_h():
    """The exit scenario and the h column simulate_path records for its
    path 0, rung 0."""
    sc = exit_scenario(seed=0, n=32, t_final=0.2)
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    return sc, simulate_path(sc.basis, sc.u0, sc.v0, sc.model, sc.solver,
                             path, cutoff=sc.cutoff).norms["h"]


@pytest.mark.parametrize("j", [13, 15, 33])
def test_sampler_crosses_where_the_recorded_h_reaches_the_level(exit_h, j):
    """A level one ulp above the recorded h(t_j) is first reached by the
    recorded column at j + 1, and the exit sampler crosses there too: it
    raises its running sums to nu as the recorder does.  Raised on scalars
    they crossed at j for these j."""
    sc, h = exit_h
    level = np.nextafter(h[j], np.inf)
    assert h[j + 1] >= level
    crossings, _ = _exit_steps(sc, [level], 1)
    assert crossings[0, 0] == j + 1


# ----------------------------------------------------------------- gluing


def test_glue_single_segment_when_budget_holds(small):
    sc = small
    result = glue_simulate(
        sc.u0, sc.v0, [4.0, 8.0], sc.model, sc.solver, sc.basis, sc.noise,
        sc.cutoff, tol=1e-8,
    )
    assert len(result.rungs) == 1
    assert result.rungs[0].exit_time is None
    assert not result.used_decoupled_tail
    direct = picard_solve(
        sc.u0, sc.v0, 4.0,
        generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps,
                      rung=0),
        sc.model, sc.solver, sc.basis, sc.cutoff.with_kappa(4.0), tol=1e-8,
    )
    assert np.array_equal(
        result.trajectory.u_snapshots, direct.trajectory.u_snapshots
    )


def test_glue_forced_exit_runs_decoupled_tail():
    sc = exit_scenario(seed=2, t_final=0.4)
    ladder = [0.05]
    result = glue_simulate(
        sc.u0, sc.v0, ladder, sc.model, sc.solver, sc.basis, sc.noise,
        sc.cutoff, tol=1e-7,
    )
    assert result.used_decoupled_tail
    assert result.rungs[0].exit_time is not None
    traj = result.trajectory
    assert traj.times[-1] == pytest.approx(0.4, abs=1e-12)
    # junction continuity is exact by construction: times strictly increase
    assert np.all(np.diff(traj.times) > 0)
    assert traj.u_snapshots.shape[0] == traj.times.size


def test_glue_junction_handoff_exact():
    """The glued prefix equals an independent rung-0 solve, and the state at
    the junction is the exact exit state of that solve."""
    sc = exit_scenario(seed=2, t_final=0.4)
    ladder = [0.05]
    result = glue_simulate(
        sc.u0, sc.v0, ladder, sc.model, sc.solver, sc.basis, sc.noise,
        sc.cutoff, tol=1e-7,
    )
    import dataclasses

    path0 = generate_path(
        sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps, rung=0
    )
    rung0 = picard_solve(
        sc.u0, sc.v0, ladder[0], path0, sc.model,
        dataclasses.replace(sc.solver, snapshot_stride=1),
        sc.basis, sc.cutoff.with_kappa(ladder[0]), tol=1e-7,
    )
    exit_t = first_exit_time(rung0.trajectory, ladder[0])
    exit_idx = int(round(exit_t / sc.solver.dt))
    assert np.array_equal(
        result.trajectory.u_snapshots[: exit_idx + 1],
        rung0.trajectory.u_snapshots[: exit_idx + 1],
    )
    assert np.array_equal(
        result.trajectory.u_snapshots[exit_idx],
        rung0.trajectory.u_snapshots[exit_idx],
    )


_EXIT_PHYSICS = [
    "solver.dt=0.002", "solver.snapshot_stride=1", "model.r_v=0.1",
    "model.chi=0.5", "model.sigma1=0.25", "model.sigma2=0.25", "noise.c1=0.6",
    "noise.c2=0.6", "initial.u_base=0.9", "initial.u_amp=0.5",
    "initial.v_base=0.8", "initial.v_amp=0.4", "initial.v_center=0.35",
]


@pytest.mark.parametrize("overrides, want", [
    # the glue_ladder benchmark run
    (["grid.n=64", "solver.t_final=0.25", "run.kappa_ladder=0.4,0.7,1.0",
      "model.sigma1=0.05", "model.sigma2=0.05", "noise.c1=0.1",
      "noise.c2=0.1", "run.seed=808"], [5, 39, 117]),
    # the golden `glue` run
    (["grid.n=32", "solver.t_final=0.05", "solver.snapshot_stride=3",
      "run.seed=17", "run.kappa_ladder=0.2,0.4"], [1, 6]),
    # a ladder whose second rung holds to the horizon
    (["grid.n=64", "solver.t_final=0.25", "run.seed=3",
      "run.kappa_ladder=0.5,1,2,4"], [11, -1, -1, -1]),
])
def test_glue_rung_exits_are_the_sampler_crossings(overrides, want):
    """Glue's rung exit steps are path 0's crossings in the exit sampler,
    exactly: before its exit a rung's fixed point is the plain coupled
    dynamics on the same (path, rung) noise, and both read the exit off
    the one h by the same >= rule."""
    cfg = default_config()
    apply_overrides(cfg, _EXIT_PHYSICS + overrides)
    sc = build_scenario(cfg)
    ladder = [float(x) for x in cfg.get("run", "kappa_ladder").split(",")]
    result = glue_simulate(sc.u0, sc.v0, ladder, sc.model, sc.solver,
                           sc.basis, sc.noise, sc.cutoff,
                           tol=cfg.get("run", "picard_tol"),
                           max_iter=cfg.get("run", "picard_max_iter"))
    exits = [-1 if r.exit_time is None else round(r.exit_time / sc.solver.dt)
             for r in result.rungs]
    exits += [-1] * (len(ladder) - len(exits))
    crossings, _ = _exit_steps(sc, ladder, 1)
    assert exits == crossings[0].tolist() == want


def test_glue_zero_horizon():
    sc = small_data_scenario(seed=1)
    import dataclasses

    solver = dataclasses.replace(sc.solver, t_final=0.0)
    result = glue_simulate(
        sc.u0, sc.v0, [1.0], sc.model, solver, sc.basis, sc.noise, sc.cutoff
    )
    assert result.rungs == []
    assert result.trajectory.n_records == 1


def test_glue_rejects_bad_ladder(small):
    sc = small
    with pytest.raises(ValueError):
        glue_simulate(sc.u0, sc.v0, [2.0, 1.0], sc.model, sc.solver, sc.basis,
                      sc.noise, sc.cutoff)


# -------------------------------------------------------- exit probability


def test_exit_prob_extremes():
    sc = exit_scenario(seed=5, t_final=0.2)
    # a million rungs in 100 steps: no path can exit, and nothing is sized
    # by the ladder
    tracemalloc.start()
    try:
        huge = exit_prob_estimate(sc, 1e6, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge.p_hat == 0.0
    assert peak < 50e6
    tiny = exit_prob_estimate(sc, 1e-9, 100)
    assert tiny.p_hat == 1.0


@pytest.mark.parametrize("kappa", [math.inf, math.nan, -1.0, 0.0])
def test_exit_tail_rejects_kappa_outside_domain(kappa):
    sc = exit_scenario(seed=5, t_final=0.2)
    with pytest.raises(ValueError, match="kappa"):
        exit_tail(sc, [kappa], 100)


def test_exit_tail_at_the_horizon_matches_full_ladders():
    """Over 5 steps every path crosses one level per step, so levels 1-4
    count and a fifth level, crossed at the horizon step, does not.  Ladders
    of 5 or more levels are not stepped and count what stepping each whole
    ladder counts."""
    sc = exit_scenario(seed=808, n=16, t_final=0.01)
    sc = dataclasses.replace(sc, u0=3.0 * sc.u0, v0=3.0 * sc.v0)
    n_total = sc.solver.n_steps
    kappas = [2, 3, 4, 4.5, 5, 7]
    full = []
    for k in kappas:
        crossings, _ = _exit_steps(sc, _exit_ladder(k), 100)
        at = crossings[:, -1]
        full.append(int(np.count_nonzero((at > 0) & (at < n_total))))
    assert [r.exit_counts for r in exit_tail(sc, kappas, 100)] == full
    assert full == [100, 100, 100, 0, 0, 0]


def test_exit_prob_monotone_in_kappa():
    sc = exit_scenario(seed=6, t_final=0.5)
    kappas = [1.0, 2.0, 4.0]
    probs = [exit_prob_estimate(sc, k, 100).p_hat for k in kappas]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    c = fit_tail_constant(kappas, probs)
    assert all(c / k >= p - 1e-12 for k, p in zip(kappas, probs))
    # frozen after the first verified run (substreams are deterministic)
    assert probs == pytest.approx([1.0, 0.28, 0.0], abs=0.05)


def test_exit_tail_matches_one_estimate_per_kappa():
    """exit_tail steps kappa 1, 2 and 4 in one pass over the ladder 1, 2, 3,
    4; 0.75 and 2.5 head their own passes.  Every estimate equals that of a
    separate exit_prob_estimate pass over its own ladder."""
    sc = exit_scenario(seed=808, n=16, t_final=0.5)
    sc = dataclasses.replace(sc, v0=1.2 * sc.v0)
    kappas = [0.75, 1, 2, 2.5, 4]
    tail = exit_tail(sc, kappas, 100)
    assert tail == [exit_prob_estimate(sc, k, 100) for k in kappas]
    assert [r.exit_counts for r in tail] == [100, 100, 99, 72, 16]


def test_exit_prob_rejects_small_sample():
    sc = exit_scenario(seed=6)
    with pytest.raises(ValueError):
        exit_prob_estimate(sc, 1.0, 10)
