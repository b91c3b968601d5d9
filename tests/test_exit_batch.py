"""The path-batched exit-time sampler against a serial oracle.

`serial_exits` steps one path at a time through the public `step_coupled`
and `sample_increments` with the exit rule the sampler had before its paths
were batched, raising h through `_h_budget` as every h is raised: h
restarts at each rung, a rung that does not exit before the horizon ends
the path, and an exit at the horizon step ends it uncounted.
The batch must reproduce every path's crossing steps and the rung it
stopped on exactly, and its end state to 1e-9 relative to the largest entry
of each field: a batch of at least `_PCG_ROWS` rows solves its Newton
systems by PCG, whose updates agree with the lone LU ones to rounding.
"""

import dataclasses

import numpy as np
import pytest

from klausim.basis import build_basis
from klausim.dynamics import (
    _DENSE_LIMIT,
    CoupledState,
    NewtonError,
    simulate_path,
    step_coupled,
    _h_budget,
)
from klausim.fields import lp_norm
from klausim.fixedpoint import _exit_ladder, _exit_steps, exit_prob_estimate
from klausim.noise import generate_path, sample_increments
from klausim.scenarios import bump_field, exit_scenario


def serial_exits(sc, levels, paths):
    """(crossings, end u, end v, points clipped) of each path stepped alone;
    crossings[j, r] is the global step at which path paths[j]'s h reached
    levels[r], else -1.  A Newton failure carries its global step."""
    assert sc.model.calculus == "ito"  # no drift fields to pass
    basis, solver, cutoff = sc.basis, sc.solver, sc.cutoff
    g1 = cutoff.gamma + 1.0
    n_total = solver.n_steps
    crossings = np.full((len(paths), len(levels)), -1)
    end_u, end_v = [], []
    clipped = 0
    for j, i in enumerate(paths):
        state = CoupledState(sc.u0.copy(), sc.v0.copy(), 0.0)
        steps_done = 0
        for r, level in enumerate(levels):
            sum_eta = sum_xi = 0.0
            exit_step = None
            for n in range(n_total - steps_done):
                dw1, dw2 = sample_increments(sc.noise, basis, solver.dt, n,
                                             path_index=i, rung=r)
                sum_eta += lp_norm(state.u, g1) ** g1
                sum_xi += lp_norm(state.v, cutoff.m) ** cutoff.m0
                try:
                    state = step_coupled(basis, state, sc.model, solver,
                                         dw1, dw2)
                except NewtonError as exc:
                    exc.step_index = steps_done + n
                    raise
                if solver.nonneg_policy == "project":
                    clipped += int((state.u < 0.0).sum() + (state.v < 0.0).sum())
                    state.u[state.u < 0.0] = 0.0
                    state.v[state.v < 0.0] = 0.0
                # raised on one-element arrays, as the sampler raises them
                h = _h_budget(np.array([sum_eta]), np.array([sum_xi]),
                              solver.dt, cutoff.nu)[0]
                if h >= level:
                    exit_step = n + 1
                    break
            if exit_step is None:
                break
            steps_done += exit_step
            crossings[j, r] = steps_done
            if steps_done >= n_total:
                break
        end_u.append(state.u)
        end_v.append(state.v)
    return crossings, np.array(end_u), np.array(end_v), clipped


def counted(crossings, n_total):
    last = crossings[:, -1]
    return int(np.count_nonzero((last > 0) & (last < n_total)))


# largest deviation of a batch row from its lone run, relative to the
# largest entry of the lone field
ROW_RTOL = 1e-9


def assert_rows_close(got, want):
    for j, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= ROW_RTOL * np.max(np.abs(w)), f"row {j}"


def assert_batch_matches_serial(sc, levels, n_paths):
    crossings, end = _exit_steps(sc, levels, n_paths)
    want, want_u, want_v, clipped = serial_exits(sc, levels, range(n_paths))
    assert np.array_equal(crossings, want)
    assert end.u.shape == want_u.shape and end.v.shape == want_v.shape
    assert_rows_close(end.u, want_u)
    assert_rows_close(end.v, want_v)
    return crossings, clipped


def _strong_noise(sc, sigma):
    model = dataclasses.replace(sc.model, sigma1=sigma, sigma2=sigma)
    solver = dataclasses.replace(sc.solver, nonneg_policy="project")
    return dataclasses.replace(sc, model=model, solver=solver)


def test_one_rung_matches_serial_and_skips_horizon_exits():
    """mc_exit's case: kappa 0.75, d=1 N=32, a batch on PCG.  Some paths exit
    exactly at the horizon step and are not counted."""
    sc = exit_scenario(seed=808, n=32, t_final=0.08)
    n_total = sc.solver.n_steps
    crossings, _ = assert_batch_matches_serial(sc, _exit_ladder(0.75), 100)
    at_horizon = crossings[:, 0] == n_total
    assert at_horizon.any() and (crossings[:, 0] > 0).sum() > at_horizon.sum()
    res = exit_prob_estimate(sc, 0.75, 100)
    assert res.exit_counts == counted(crossings, n_total)
    assert res.exit_counts == (crossings[:, 0] > 0).sum() - at_horizon.sum()


@pytest.mark.parametrize("j", [13, 15, 33])
def test_level_an_ulp_above_a_recorded_h_matches_serial(j):
    """A level one ulp above the recorded h(t_j) of path 0 is first reached
    at j + 1 by the recorded column, by the sampler and by the serial
    oracle, which raises its sums to nu on arrays as the sampler does."""
    sc = exit_scenario(seed=0, n=32, t_final=0.2)
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    h = simulate_path(sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path,
                      cutoff=sc.cutoff).norms["h"]
    level = np.nextafter(h[j], np.inf)
    crossings, _ = assert_batch_matches_serial(sc, [level], 1)
    assert crossings[0, 0] == j + 1


def test_multi_rung_ladder_matches_serial():
    """kappa 2.5: the ladder 1, 2, 2.5, with paths stopping on every rung."""
    sc = exit_scenario(seed=808, n=16, t_final=0.08)
    sc = dataclasses.replace(sc, v0=1.8 * sc.v0)
    levels = _exit_ladder(2.5)
    assert levels == [1.0, 2.0, 2.5]
    crossings, _ = assert_batch_matches_serial(sc, levels, 24)
    reached = (crossings > 0).sum(axis=0)
    assert reached[-1] > 0 and reached[-1] < reached[0]


def test_horizon_crossing_on_last_rung_not_counted():
    """A horizon cut at one path's last crossing: that path still records
    its crossing but is not counted."""
    sc = exit_scenario(seed=808, n=16, t_final=0.08)
    sc = dataclasses.replace(sc, v0=1.8 * sc.v0)
    levels = _exit_ladder(2.5)
    long_run, _ = _exit_steps(sc, levels, 24)
    cut = int(long_run[long_run[:, -1] > 0, -1].min())
    short = dataclasses.replace(
        sc, solver=dataclasses.replace(sc.solver, t_final=cut * sc.solver.dt))
    crossings, _ = assert_batch_matches_serial(short, levels, 24)
    assert (crossings[:, -1] == cut).any()
    assert counted(crossings, cut) == 0


def test_project_policy_matches_serial():
    """Noise strong enough that nonneg_policy=project clips points."""
    sc = _strong_noise(exit_scenario(seed=808, n=16, t_final=0.04), 15.0)
    crossings, clipped = assert_batch_matches_serial(sc, [0.5, 1.0], 16)
    assert clipped > 0
    assert (crossings[:, -1] > 0).any()


def test_krylov_grid_matches_serial():
    """d=1 N=512 solves by GMRES, one path at a time inside the batch."""
    sc = exit_scenario(seed=808, n=512, t_final=0.012)
    assert sc.basis.grid_size > _DENSE_LIMIT
    crossings, _ = assert_batch_matches_serial(sc, [0.35, 0.45], 3)
    assert (crossings[:, 0] > 0).all()


def test_two_dimensional_truncated_band_matches_serial():
    """d=2 Neumann N=8 with 30 of 64 modes: the batch transforms each field
    on its own there."""
    sc = exit_scenario(seed=5, n=8, t_final=0.04)
    basis = build_basis(2, "neumann", 8, 30)
    sc = dataclasses.replace(
        sc, basis=basis, u0=bump_field(basis, 0.9, 0.5),
        v0=bump_field(basis, 0.8, 0.4, center=0.35))
    crossings, _ = assert_batch_matches_serial(sc, [0.5, 0.8], 6)
    assert (crossings[:, 0] > 0).all()


def test_newton_failure_in_batch_carries_step_and_path():
    """The first failing step of the batch is the earliest failure of any
    path alone, and the error names that path."""
    sc = _strong_noise(exit_scenario(seed=808, n=16, t_final=0.04), 40.0)
    levels = [1e6]  # no path exits, every path runs to the horizon
    with pytest.raises(NewtonError) as batch:
        _exit_steps(sc, levels, 16)
    alone = {}
    for i in range(16):
        try:
            serial_exits(sc, levels, [i])
        except NewtonError as exc:
            alone[i] = exc.step_index
    first = min(alone.values())
    assert batch.value.step_index == first
    named = int(str(batch.value).split("path ")[1].split(":")[0])
    assert alone.get(named) == first
