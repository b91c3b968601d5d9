"""Time stepping for the coupled water/biomass system.

Every run advances through one Lie-splitting step kernel: reaction terms
are evaluated explicitly at the step start, the porous-medium diffusion of
the water field is advanced implicitly (damped Newton), and the biomass
heat flow is advanced by a spectral exponential integrator.  Noise enters
as an Euler-Maruyama pointwise product sigma * state * dW at the step start
(Ito convention); Stratonovich runs add the conversion drift field and
reuse the identical code path.  The public steps differ only in the
reaction field they pass to the kernel: u v^2 (coupled), phi * eta * xi^2
with frozen fields (frozen), or none -- the decoupled post-stopping
extension dynamics, which also drop k, f, g and give v unit extra decay.

One time driver repeats a step with noise increments from a per-step
source (a stored path, or Philox draws per step) and applies the per-step
policy: step index on Newton failures, nonneg_policy=project, the
finiteness check.  Direct runs, the frozen sweeps of the Picard iteration
and the exit-time sampler all consume its states; the first two record the
norm ledger and the budget h through one recorder.

The step kernel also takes a batch of paths: fields shaped (P,) + grid.
Every row then advances exactly as it would alone, bit for bit (each path
runs its own Newton iteration and line search); the exit-time sampler
steps all of its live paths this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .basis import SpectralBasis, analyze, apply_laplacian, synthesize
from .fields import lp_norm, power_gamma, sobolev_norm
from .noise import NoisePath, stratonovich_correction

ITO = "ito"
STRATONOVICH = "stratonovich"

# grids up to this many cells use a dense LU for the Newton updates: the
# measured crossover, past which preconditioned GMRES solves faster
_DENSE_LIMIT = 256
# a batch of paths solves its dense Newton systems as stacks of at most
# this many bytes of Jacobians (32 of them at the limit, 2048 at d=1 N=32)
_LU_STACK_BYTES = 1 << 24


class NewtonError(RuntimeError):
    """Implicit porous-medium solve failed to converge."""

    def __init__(self, message: str, residual: float, iterations: int,
                 step_index: Optional[int] = None, row: Optional[int] = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index
        self.row = row  # the failing row of a batch of paths


@dataclass(frozen=True)
class ModelConfig:
    """PDE constants.  k, f, g default to zero, which is the reduced system
    the noise analysis studies; nonzero values restore the full vegetation
    model (rain / evaporation / mortality)."""

    r_u: float = 1.0
    r_v: float = 0.05
    chi: float = 1.0
    gamma: float = 3.0
    k: float = 0.0
    f: float = 0.0
    g: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    calculus: str = ITO

    def __post_init__(self):
        for name in ("r_u", "r_v", "chi", "k", "f", "g"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.calculus not in (ITO, STRATONOVICH):
            raise ValueError(f"unknown calculus {self.calculus!r}")

    def hypothesis_flags(self) -> list[str]:
        """Parameter choices outside the regime the moment bounds assume."""
        flags = []
        if self.gamma <= 2.0:
            flags.append(f"gamma={self.gamma} <= 2 (linear-diffusion testing regime)")
        for name in ("r_u", "r_v", "chi"):
            if getattr(self, name) == 0.0:
                flags.append(f"{name}=0 (degenerate rate, testing only)")
        return flags


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_final: float = 1.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    nonneg_policy: str = "monitor"
    snapshot_stride: int = 1
    record_rho: float = 0.4

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0 or (self.t_final > 0 and self.dt > self.t_final):
            raise ValueError("need 0 <= dt <= t_final")
        if self.newton_tol <= 0 or self.newton_max_iter < 1:
            raise ValueError("Newton controls must be positive")
        if self.nonneg_policy not in ("monitor", "project"):
            raise ValueError(f"unknown nonneg policy {self.nonneg_policy!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt)) if self.t_final > 0 else 0


@dataclass
class CoupledState:
    u: np.ndarray
    v: np.ndarray
    t: float


@dataclass
class Trajectory:
    """Recorded run: per-step norm ledger plus strided full snapshots."""

    times: np.ndarray
    norms: dict[str, np.ndarray]
    snapshot_times: np.ndarray
    u_snapshots: np.ndarray
    v_snapshots: np.ndarray
    flags: dict

    NORM_COLUMNS = ("u_l2", "u_lgamma1", "v_hrho", "min_u", "min_v", "h")

    @property
    def n_records(self) -> int:
        return self.times.size

    def final_state(self) -> CoupledState:
        return CoupledState(
            self.u_snapshots[-1].copy(), self.v_snapshots[-1].copy(),
            float(self.times[-1]),
        )

    def norm_table(self) -> np.ndarray:
        cols = [self.times] + [self.norms[c] for c in self.NORM_COLUMNS]
        return np.column_stack(cols)


def _decay_factors(basis: SpectralBasis, r_v: float, extra_decay: float,
                   dt: float) -> tuple[np.ndarray, float]:
    key = ("heat_decay", r_v, extra_decay, dt)
    cached = basis._cache.get(key)
    if cached is None:
        factors = np.exp(-(r_v * basis.eigenvalues + extra_decay) * dt)
        cached = (factors, float(factors[-1]))
        basis._cache[key] = cached
    return cached


def heat_step(
    basis: SpectralBasis,
    v: np.ndarray,
    source: np.ndarray,
    dw2: Optional[np.ndarray],
    model: ModelConfig,
    dt: float,
    extra_decay: float = 0.0,
) -> np.ndarray:
    """Exponential-integrator step for dv = (r_v Lap v - extra_decay v) dt.

    Retained modes decay exactly by exp(-(r_v nu_k + extra_decay) dt); grid
    content outside the band decays at the fastest retained rate (it has no
    eigenvalue of its own, and leaving it frozen would let collocation
    aliasing accumulate).  Source and noise are added explicitly afterwards,
    so r_v = extra_decay = 0 reduces to v + dt * source + noise exactly.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if extra_decay < 0:
        raise ValueError("extra_decay must be nonnegative")
    factors, tail_factor = _decay_factors(basis, model.r_v, extra_decay, dt)
    coeffs = analyze(basis, v)
    out = v * tail_factor + synthesize(basis, (factors - tail_factor) * coeffs)
    out = out + dt * source
    if dw2 is not None and model.sigma2 != 0.0:
        out = out + model.sigma2 * v * dw2
    return out


def _lp_rows(z: np.ndarray, p: float) -> list[float]:
    """lp_norm of each row of a batch, bit for bit: a row's mean reduces as a
    lone field's does, and each root is taken on a scalar as in lp_norm (an
    array power rounds differently)."""
    means = np.mean(np.abs(z.reshape(len(z), -1)) ** p, axis=-1)
    return [float(m ** (1.0 / p)) for m in means]


def _newton(basis, rhs, coef, gamma, tol_abs, max_iter):
    """Damped Newton with Armijo backtracking for w - coef Lap(w^[gamma]) = rhs,
    started from w = rhs; returns (w, final residual norm).

    Grids up to _DENSE_LIMIT cells solve each Newton system by dense LU;
    larger grids use matrix-free GMRES with a spectral preconditioner.

    A batch, rhs shaped (P,) + grid with one tol_abs per path, iterates the
    paths not yet converged together, each with its own line search, so
    every path takes the iterates, step lengths and iteration count it
    takes alone.  The Jacobian is block diagonal: LU solves the per-path
    systems as a stack (at most _LU_STACK_BYTES at a time), GMRES one path
    at a time.  The norms are then per path, and a failure names its row.
    """
    n = basis.grid_size
    shape = rhs.shape
    batch = rhs.ndim > basis.dimension
    rhs = rhs.reshape(len(rhs), -1) if batch else rhs.reshape(-1)
    if n <= _DENSE_LIMIT:
        lap = basis.laplacian_matrix()
        block = max(1, _LU_STACK_BYTES // (8 * n * n))

        def apply_lap(z):
            if z.ndim == 1:
                return lap @ z
            return np.matmul(lap, z[..., None])[..., 0]  # lap @ each row

        def solve(deriv, res):
            if deriv.ndim == 1:
                return np.linalg.solve(np.eye(n) - coef * lap * deriv, -res)
            jac = coef * lap * deriv[:, None, :]
            np.subtract(np.eye(n), jac, out=jac)
            return np.linalg.solve(jac, -res[..., None])[..., 0]
    else:
        block = 1

        def apply_lap(z):
            grid = z.reshape(z.shape[:-1] + basis.grid_shape)
            return apply_laplacian(basis, grid).reshape(z.shape)

        def solve(deriv, res):
            if deriv.ndim == 2:
                return np.array([solve(d, r) for d, r in zip(deriv, res)])
            # the Jacobian with deriv frozen at its mean, inverted on the
            # band; the identity off it
            scale = 1.0 / (1.0 + coef * float(np.mean(deriv)) * basis.eigenvalues)

            def pmv(z):
                coeffs = analyze(basis, z.reshape(basis.grid_shape))
                return z + synthesize(basis, coeffs * (scale - 1.0)).reshape(-1)

            jac = LinearOperator(
                (n, n), matvec=lambda z: z - coef * apply_lap(deriv * z)
            )
            precond = LinearOperator((n, n), matvec=pmv)
            delta, info = gmres(jac, -res, rtol=1e-10, atol=0.0, M=precond,
                                maxiter=200)
            if info != 0:
                raise np.linalg.LinAlgError(f"inner GMRES failed (info={info})")
            return delta

    def residual(z, b):
        return z - coef * apply_lap(power_gamma(z, gamma)) - b

    if batch:
        w = rhs.copy()
        res = residual(w, rhs)
        res_norm = np.array(_lp_rows(res, 2.0))
        rows = np.arange(len(rhs))  # the paths still iterating
        for iteration in range(max_iter):
            rows = rows[~(res_norm[rows] <= tol_abs[rows])]
            if rows.size == 0:
                return w.reshape(shape), res_norm
            deriv = gamma * np.abs(w[rows]) ** (gamma - 1.0) + 1e-12
            delta = np.empty((rows.size, n))
            for lo in range(0, rows.size, block):
                part = slice(lo, lo + block)
                try:
                    delta[part] = solve(deriv[part], res[rows[part]])
                except np.linalg.LinAlgError:
                    for j in range(lo, min(lo + block, rows.size)):
                        try:  # find the path whose system failed
                            solve(deriv[j], res[rows[j]])
                        except np.linalg.LinAlgError as exc:
                            raise NewtonError(
                                f"Newton system not solved: {exc}",
                                float(res_norm[rows[j]]), iteration,
                                row=int(rows[j]),
                            ) from exc
                    raise
            # one alpha serves all paths still searching: each halved from 1
            alpha = 1.0
            search = np.arange(rows.size)
            while search.size and alpha > 2.0**-30:
                idx = rows[search]
                trial = w[idx] + alpha * delta[search]
                trial_res = residual(trial, rhs[idx])
                trial_norm = np.array(_lp_rows(trial_res, 2.0))
                ok = np.isfinite(trial_norm) & (
                    trial_norm <= (1 - 1e-4 * alpha) * res_norm[idx])
                w[idx[ok]] = trial[ok]
                res[idx[ok]] = trial_res[ok]
                res_norm[idx[ok]] = trial_norm[ok]
                search = search[~ok]
                alpha *= 0.5
            if search.size:
                row = int(rows[search[0]])
                raise NewtonError("Newton line search stalled",
                                  float(res_norm[row]), iteration, row=row)
        row = int(rows[0])
        raise NewtonError(
            f"Newton did not reach tolerance {tol_abs[row]:.3e} "
            f"(final residual {res_norm[row]:.3e})",
            float(res_norm[row]), max_iter, row=row,
        )

    w = rhs.copy()
    res = residual(w, rhs)
    res_norm = lp_norm(res, 2.0)
    for iteration in range(max_iter):
        if res_norm <= tol_abs:
            return w.reshape(shape), res_norm
        deriv = gamma * np.abs(w) ** (gamma - 1.0) + 1e-12
        try:
            delta = solve(deriv, res)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(
                f"Newton system not solved: {exc}", res_norm, iteration
            ) from exc
        alpha = 1.0
        while alpha > 2.0**-30:
            trial = w + alpha * delta
            trial_res = residual(trial, rhs)
            trial_norm = lp_norm(trial_res, 2.0)
            if np.isfinite(trial_norm) and trial_norm <= (1 - 1e-4 * alpha) * res_norm:
                w, res, res_norm = trial, trial_res, trial_norm
                break
            alpha *= 0.5
        else:
            raise NewtonError("Newton line search stalled", res_norm, iteration)
    raise NewtonError(
        f"Newton did not reach tolerance {tol_abs:.3e} "
        f"(final residual {res_norm:.3e})",
        res_norm,
        max_iter,
    )


def pm_implicit_step(
    basis: SpectralBasis,
    u: np.ndarray,
    source: np.ndarray,
    dw1: Optional[np.ndarray],
    model: ModelConfig,
    solver: SolverConfig,
    dt: float,
) -> np.ndarray:
    """Implicit Euler step for du = r_u Lap(u^[gamma]) dt + explicit terms.

    Solves  w - dt r_u Lap(w^[gamma]) = u + dt source + sigma1 u dW1  by
    damped Newton.  The porous-medium flux is mean-free, so the mean of the
    solution is pinned to the mean of the right-hand side afterwards; this
    keeps the Newton tolerance from leaking mass over long runs.  Fields
    shaped (P,) + grid are a batch of paths, each solved as alone.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite entries in the water field")
    rhs = u + dt * source
    if dw1 is not None and model.sigma1 != 0.0:
        rhs = rhs + model.sigma1 * u * dw1
    coef = dt * model.r_u
    if coef == 0.0:
        return rhs
    batch = u.ndim > basis.dimension
    u_norm = np.array(_lp_rows(u, 2.0)) if batch else lp_norm(u, 2.0)
    tol_abs = solver.newton_tol * (1.0 + u_norm)
    w, res_norm = _newton(
        basis, rhs, coef, model.gamma, tol_abs, solver.newton_max_iter
    )
    if batch:
        finite = np.isfinite(w.reshape(len(w), -1)).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise NewtonError("non-finite Newton iterate",
                              float(res_norm[row]), -1, row=row)
        means = [np.mean(f.reshape(len(f), -1), axis=-1) for f in (rhs, w)]
        return w + (means[0] - means[1]).reshape((-1,) + (1,) * basis.dimension)
    if not np.all(np.isfinite(w)):
        raise NewtonError("non-finite Newton iterate", res_norm, -1)
    return w + (np.mean(rhs) - np.mean(w))


def _mult_drifts(basis, model, noise_spec, override):
    """Multiplicative drift fields (c1, c2) added as state * c_j.

    Stratonovich runs get the conversion drift automatically; Ito runs get
    whatever the caller supplies (used to demonstrate the definitional
    equality of the two discretizations).
    """
    if override is not None:
        return override
    if model.calculus == STRATONOVICH:
        if noise_spec is None:
            raise ValueError("stratonovich stepping needs the noise spectrum")
        return (
            stratonovich_correction(noise_spec, basis, 1, model.sigma1),
            stratonovich_correction(noise_spec, basis, 2, model.sigma2),
        )
    return (None, None)


def _lie_step(basis, state, model, solver, dw1, dw2, drift1, drift2, react):
    """The step kernel behind every public step.  `react` is the quadratic
    reaction field; None selects the decoupled extension dynamics."""
    u, v = state.u, state.v
    if react is None:
        source_u = source_v = np.zeros_like(u)
    else:
        source_u = -model.chi * react + model.k - model.f * u
        source_v = react - model.g * v
    if drift1 is not None:
        source_u = source_u + u * drift1
    if drift2 is not None:
        source_v = source_v + v * drift2
    dt = solver.dt
    extra_decay = 1.0 if react is None else 0.0
    u_new = pm_implicit_step(basis, u, source_u, dw1, model, solver, dt)
    v_new = heat_step(basis, v, source_v, dw2, model, dt, extra_decay)
    return CoupledState(u_new, v_new, state.t + dt)


def step_coupled(
    basis: SpectralBasis,
    state: CoupledState,
    model: ModelConfig,
    solver: SolverConfig,
    dw1: Optional[np.ndarray],
    dw2: Optional[np.ndarray],
    drift1: Optional[np.ndarray] = None,
    drift2: Optional[np.ndarray] = None,
) -> CoupledState:
    """One Lie-splitting step of the full coupled system."""
    react = state.u * state.v * state.v
    return _lie_step(basis, state, model, solver, dw1, dw2, drift1, drift2,
                     react)


def step_frozen(
    basis: SpectralBasis,
    state: CoupledState,
    eta: np.ndarray,
    xi: np.ndarray,
    phi_value: float,
    model: ModelConfig,
    solver: SolverConfig,
    dw1: Optional[np.ndarray],
    dw2: Optional[np.ndarray],
    drift1: Optional[np.ndarray] = None,
    drift2: Optional[np.ndarray] = None,
) -> CoupledState:
    """Coupled step with the quadratic reaction frozen at phi * eta * xi^2."""
    if not 0.0 <= phi_value <= 1.0:
        raise ValueError(f"cutoff value {phi_value} outside [0, 1]")
    react = phi_value * eta * xi * xi
    return _lie_step(basis, state, model, solver, dw1, dw2, drift1, drift2,
                     react)


def step_decoupled(
    basis: SpectralBasis,
    state: CoupledState,
    model: ModelConfig,
    solver: SolverConfig,
    dw1: Optional[np.ndarray],
    dw2: Optional[np.ndarray],
    drift1: Optional[np.ndarray] = None,
    drift2: Optional[np.ndarray] = None,
) -> CoupledState:
    """Post-stopping extension: noisy porous medium for u, damped heat for v."""
    return _lie_step(basis, state, model, solver, dw1, dw2, drift1, drift2,
                     None)


def _drive(state, solver, n_steps, step, increments):
    """Apply `step` n_steps times from `state`, yielding (new state, points
    clipped to zero) after each; step(state, n, dw1, dw2) takes the noise
    increments(n) returns.  The per-step policy for every caller: a Newton
    failure gets the step index, nonneg_policy=project clips negative values
    to zero, and a non-finite state aborts the run.  A state holding a batch
    of paths gets the same policy on every row."""
    project = solver.nonneg_policy == "project"
    for n in range(n_steps):
        dw1, dw2 = increments(n)
        try:
            new = step(state, n, dw1, dw2)
        except NewtonError as exc:
            raise NewtonError(
                f"step {n} (t={state.t:.6g}): {exc}",
                exc.residual,
                exc.iterations,
                step_index=n,
            ) from exc
        clipped = 0
        if project:
            below_u = new.u < 0.0
            below_v = new.v < 0.0
            clipped = int(below_u.sum() + below_v.sum())
            new.u[below_u] = 0.0
            new.v[below_v] = 0.0
        if not (np.isfinite(new.u).all() and np.isfinite(new.v).all()):
            raise NewtonError(
                f"non-finite state after step {n}", float("nan"), -1, step_index=n
            )
        state = new
        yield state, clipped


def _path_increments(noise_path: Optional[NoisePath], solver: SolverConfig):
    """Per-step noise source reading a stored path (no noise without one)."""
    if noise_path is None:
        return lambda n: (None, None)
    if abs(noise_path.dt - solver.dt) > 1e-15 * solver.dt:
        raise ValueError("noise path dt differs from solver dt")
    if noise_path.n_steps < solver.n_steps:
        raise ValueError("noise path shorter than the run")
    return lambda n: (
        noise_path.field_increment(1, n), noise_path.field_increment(2, n)
    )


def _h_rates(u, v, cutoff) -> tuple[float, float]:
    """Integrands |u|_{L^(g+1)}^(g+1) and |v|_{L^m}^(m0) of the budget h."""
    g1 = cutoff.gamma + 1.0
    return lp_norm(u, g1) ** g1, lp_norm(v, cutoff.m) ** cutoff.m0


def _h_rate_rows(u, v, cutoff) -> tuple[list[float], list[float]]:
    """_h_rates of each row of a batch of paths, bit for bit."""
    g1 = cutoff.gamma + 1.0
    return ([x ** g1 for x in _lp_rows(u, g1)],
            [x ** cutoff.m0 for x in _lp_rows(v, cutoff.m)])


def _h_budget(sum_eta, sum_xi, dt: float, nu: float):
    """h = (dt sum eta-rates)^nu + (dt sum xi-rates)^nu from running sums."""
    return (dt * sum_eta) ** nu + (dt * sum_xi) ** nu


def _h_column(rates, dt: float, nu: float) -> np.ndarray:
    """h at every grid time by left-endpoint quadrature of `rates`; h(0) = 0.
    np.cumsum adds left to right, as a running scalar sum does."""
    sums = np.cumsum(np.array(rates, dtype=float).reshape(-1, 2), axis=0)
    h = np.zeros(sums.shape[0] + 1)
    h[1:] = _h_budget(sums[:, 0], sums[:, 1], dt, nu)
    return h


def _norm_row(basis, u, v, model, solver) -> tuple:
    """One ledger row: Trajectory.NORM_COLUMNS without h."""
    return (
        lp_norm(u, 2.0),
        lp_norm(u, model.gamma + 1.0),
        sobolev_norm(basis, v, solver.record_rho),
        u.min(),
        v.min(),
    )


def _record_run(basis, u0, v0, model, solver, step, increments, cutoff,
                stride) -> Trajectory:
    """Drive `step` over solver.n_steps and record the norm ledger, the h
    column (NaN without `cutoff`) and every stride-th state plus the last."""
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    if u.shape != basis.grid_shape or v.shape != basis.grid_shape:
        raise ValueError(
            f"initial fields {u.shape}/{v.shape} do not match grid "
            f"{basis.grid_shape}"
        )
    n_steps = solver.n_steps
    state = CoupledState(u, v, 0.0)
    rows = [_norm_row(basis, u, v, model, solver)]
    rates = []
    snap_idx = [0]
    snapshots_u = [u.copy()]
    snapshots_v = [v.copy()]
    projected = 0
    for n, (new, clipped) in enumerate(
        _drive(state, solver, n_steps, step, increments)
    ):
        if cutoff is not None:
            rates.append(_h_rates(state.u, state.v, cutoff))
        state = new
        projected += clipped
        rows.append(_norm_row(basis, state.u, state.v, model, solver))
        if (n + 1) % stride == 0 or n + 1 == n_steps:
            snap_idx.append(n + 1)
            snapshots_u.append(state.u.copy())
            snapshots_v.append(state.v.copy())

    columns = dict(zip(Trajectory.NORM_COLUMNS[:-1], np.array(rows).T))
    columns["h"] = (
        np.full(n_steps + 1, np.nan) if cutoff is None
        else _h_column(rates, solver.dt, cutoff.nu)
    )
    times = np.arange(n_steps + 1) * solver.dt
    flags = {
        "completed": True,
        "projected_points": projected,
        "worst_min_u": float(columns["min_u"].min()),
        "worst_min_v": float(columns["min_v"].min()),
        "model_flags": model.hypothesis_flags(),
    }
    return Trajectory(
        times=times,
        norms=columns,
        snapshot_times=times[np.array(snap_idx, dtype=int)],
        u_snapshots=np.array(snapshots_u),
        v_snapshots=np.array(snapshots_v),
        flags=flags,
    )


def simulate_path(
    basis: SpectralBasis,
    u0: np.ndarray,
    v0: np.ndarray,
    model: ModelConfig,
    solver: SolverConfig,
    noise_path: Optional[NoisePath],
    mode: str = "coupled",
    cutoff=None,
    mult_drift_override=None,
) -> Trajectory:
    """Advance the system over [0, t_final], recording the norm ledger.

    Deterministic given the noise path.  `cutoff` (CutoffParams) enables the
    running h-functional record computed from the solution itself; without
    it the h column is NaN.  A Newton failure aborts with the step index.
    """
    if mode not in ("coupled", "decoupled"):
        raise ValueError(f"unknown mode {mode!r}")
    increments = _path_increments(noise_path, solver)
    noise_spec = None if noise_path is None else noise_path.spec
    drift1, drift2 = _mult_drifts(basis, model, noise_spec, mult_drift_override)
    step_fn = step_coupled if mode == "coupled" else step_decoupled

    def step(state, n, dw1, dw2):
        return step_fn(basis, state, model, solver, dw1, dw2, drift1, drift2)

    return _record_run(
        basis, u0, v0, model, solver, step, increments, cutoff,
        solver.snapshot_stride,
    )
