"""Functions only the tests call: the serial basis construction, a
quadrature, a band residual, a fitted Weyl constant, a trace normalisation,
a deterministic pattern scenario, the end state of a recorded run, and the
serial Picard loop."""

import dataclasses
import itertools

import numpy as np

from klausim.basis import (
    SpectralBasis,
    _axis_eigenvalue,
    _axis_grid,
    _axis_indices,
    _axis_mode,
    analyze,
    build_basis,
    synthesize,
    weyl_count,
)
from klausim.dynamics import (
    CoupledState,
    ModelConfig,
    SolverConfig,
    Trajectory,
    step_frozen,
    _mult_drifts,
    _path_increments,
    _record_run,
)
from klausim.fields import lp_norm
from klausim.fixedpoint import (
    FrozenPair,
    PicardError,
    PicardResult,
    cutoff_phi,
    pair_distance,
)
from klausim.noise import NoiseSpec
from klausim.scenarios import (
    Scenario,
    default_cutoff,
    default_hypothesis,
    perturbed_homogeneous_fields,
)


def basis_serial(d: int, boundary: str, n: int, n_modes: int) -> SpectralBasis:
    """The first `n_modes` eigenpairs built one multi-index at a time: every
    tuple (eigenvalue, multi-index) of the r^d is sorted, each eigenvalue a
    Python sum of scalar axis eigenvalues.  The oracle for `build_basis`."""
    axis = _axis_indices(n, boundary)
    spectrum = sorted(
        (sum(_axis_eigenvalue(i, boundary) for i in idx), idx)
        for idx in itertools.product(axis, repeat=d)
    )
    eigenvalues = np.array([lam for lam, _ in spectrum[:n_modes]])
    multi = [idx for _, idx in spectrum[:n_modes]]

    used = {i for idx in multi for i in idx}
    row_of = {i: row for row, i in enumerate(i for i in axis if i in used)}
    x = _axis_grid(n, boundary)
    axis_table = np.array([_axis_mode(i, x, boundary) for i in row_of])
    rows = np.array([[row_of[i] for i in idx] for idx in multi]).T
    band_positions = np.ravel_multi_index(tuple(rows), (len(row_of),) * d)
    axis_table.flags.writeable = False
    band_positions.flags.writeable = False

    return SpectralBasis(
        dimension=d,
        boundary=boundary,
        grid_points=n,
        n_modes=n_modes,
        eigenvalues=eigenvalues,
        mode_indices=tuple(multi),
        axis_table=axis_table,
        band_positions=band_positions,
    )


def inner_product(f: np.ndarray, g: np.ndarray) -> float:
    """Rectangle-rule L^2 inner product."""
    return float(np.mean(np.asarray(f) * np.asarray(g)))


def projection_residual(basis: SpectralBasis, values: np.ndarray) -> float:
    """L^2 norm of the part of the field outside the retained band."""
    recon = synthesize(basis, analyze(basis, values))
    return lp_norm(np.asarray(values) - recon, 2.0)


def weyl_bound_constant(basis: SpectralBasis) -> float:
    """Fitted C with #{nu_j <= lam} <= C lam^{d/2} over the retained range.

    Reported, never asserted against a literature constant.
    """
    lams = basis.eigenvalues[basis.eigenvalues > 0]
    if lams.size == 0:
        return float("nan")
    counts = np.array([weyl_count(basis, lam) for lam in lams], dtype=float)
    return float(np.max(counts / lams ** (basis.dimension / 2.0)))


def unit_trace_spec(spec: NoiseSpec, basis: SpectralBasis) -> NoiseSpec:
    """Rescale both channels so that sum_k lambda_k^2 = 1.

    The moment-ratio self-check is scale-covariant (the ratio picks up a
    factor trace^(p/2)); normalizing makes the reported number comparable
    across parameter choices.  Degenerate channels are left untouched.
    """
    tr1, tr2 = spec.trace(basis, 1), spec.trace(basis, 2)
    return dataclasses.replace(
        spec,
        c1=spec.c1 / np.sqrt(tr1) if tr1 > 0 else spec.c1,
        c2=spec.c2 / np.sqrt(tr2) if tr2 > 0 else spec.c2,
        lambdas1=None if spec.lambdas1 is None else spec.lambdas1 / np.sqrt(tr1),
        lambdas2=None if spec.lambdas2 is None else spec.lambdas2 / np.sqrt(tr2),
    )


def pattern_scenario(seed: int = 0, n: int = 128) -> Scenario:
    """Deterministic vegetation run: perturbed equilibrium with rain terms."""
    basis = build_basis(1, "periodic", n, n - 1)
    model = ModelConfig(
        r_u=1.0, r_v=0.01, chi=1.0, gamma=2.5, k=2.0, f=1.0, g=0.45,
        sigma1=0.0, sigma2=0.0,
    )
    solver = SolverConfig(dt=1e-3, t_final=2.0, snapshot_stride=200)
    noise = NoiseSpec(c1=0.0, c2=0.0, seed=seed)
    u0, v0 = perturbed_homogeneous_fields(basis, model)
    hp = default_hypothesis(gamma=model.gamma)
    return Scenario(
        basis, model, solver, noise, default_cutoff(gamma=model.gamma), hp,
        u0, v0,
    )


def final_state(traj: Trajectory) -> CoupledState:
    """The last recorded state of a run, as a copy."""
    return CoupledState(traj.u_snapshots[-1].copy(),
                        traj.v_snapshots[-1].copy(), float(traj.times[-1]))


def sweep_serial(pair, u0, v0, kappa, noise_path, model, solver, basis,
                 params) -> Trajectory:
    """One sweep of the frozen operator stepped alone, a batch of one, with
    phi taken from the pair's whole h column, computed by h_values before
    the sweep starts."""
    increments = _path_increments(noise_path, solver)
    drift1, drift2 = _mult_drifts(basis, model, noise_path.spec, None)
    phi = cutoff_phi(pair.h_values(params), kappa)

    def step(state, n, dw1, dw2):
        return step_frozen(basis, state, pair.eta[n], pair.xi[n], phi[n],
                           model, solver, dw1, dw2, drift1, drift2)

    return _record_run(basis, u0, v0, model, solver, step, increments, params,
                       1)[0]


def picard_serial(u0, v0, kappa, noise_path, model, solver, basis, params,
                  tol=1e-8, max_iter=60, initial_pair=None) -> PicardResult:
    """The Picard loop with one whole-horizon sweep after another: the oracle
    for the lockstep batches of `picard_solve`."""
    args = (u0, v0, kappa, noise_path, model, solver, basis, params)
    if initial_pair is None:
        zero = FrozenPair.zero(basis, solver.dt, solver.n_steps)
        pair = FrozenPair.from_trajectory(sweep_serial(zero, *args))
    else:
        pair = initial_pair
    residuals = []
    for iteration in range(1, max_iter + 1):
        traj = sweep_serial(pair, *args)
        new_pair = FrozenPair.from_trajectory(traj)
        residuals.append(pair_distance(new_pair, pair, params))
        pair = new_pair
        if residuals[-1] <= tol:
            return PicardResult(trajectory=traj, residuals=residuals,
                                iterations=iteration, converged=True)
    raise PicardError(f"no fixed point after {max_iter} sweeps "
                      f"(last residual {residuals[-1]:.3e})", residuals)
