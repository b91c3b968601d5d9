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
policy: step index and failing path on Newton failures,
nonneg_policy=project, the finiteness check.  Direct runs and the frozen
sweeps of the Picard iteration record one path's norm ledger, budget h and
snapshots through one recorder; the moment ensemble and the exit-time
sampler observe one path-batch runner and stream their statistics.

The Newton driver and the row norms compute on one shape, a batch of paths
(P,) + grid; a lone field is a batch of one.  Each path runs its own Newton
iteration and line search, and each norm reduces its row as a lone field's
and takes its roots and powers on scalars.  The batch contract: a lone
field, and a batch solved by LU or GMRES, advances bit for bit as each row
would alone; a batch of at least _PCG_ROWS rows on a dense grid solves its
Newton systems by one batched PCG, so each row stays within 1e-9 of its
lone run, relative to the largest entry of each field, and a row's bits
depend on the batch it is stepped in.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import SpectralBasis, analyze, apply_laplacian, synthesize
from .fields import _lp_rows, power_gamma, sobolev_norm
from .noise import NoisePath, stratonovich_correction, _increment_rows, _path_keys

ITO = "ito"
STRATONOVICH = "stratonovich"

# grids up to this many cells solve the Newton updates directly: the
# measured crossover, past which preconditioned GMRES solves faster
_DENSE_LIMIT = 256
# on those grids, this many rows iterating at once solve by one batched PCG
# rather than by LU row by row: the measured crossover at d=1 N=32 and 64
_PCG_ROWS = 16
# each PCG row stops at this residual relative to its right-hand side
_PCG_RTOL = 1e-10


def __getattr__(name):
    """Bind scipy's gmres and LinearOperator here on first use: only the
    Krylov branch of _newton needs them, and loading scipy costs a d=1 run a
    third of its memory.  A binding already present (a wrapped or patched
    gmres) is kept."""
    if name not in ("gmres", "LinearOperator"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.sparse import linalg

    for attr in ("gmres", "LinearOperator"):
        globals().setdefault(attr, getattr(linalg, attr))
    return globals()[name]


class NewtonError(RuntimeError):
    """Implicit porous-medium solve failed to converge."""

    def __init__(self, message: str, residual: float, iterations: int,
                 step_index: Optional[int] = None, row: Optional[int] = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index
        self.row = row  # the failing row of a batch of paths
        self.path = None  # its global path index, set by the time driver

    def __reduce__(self):  # pickled whole, so a pool worker's error arrives
        return (type(self), (str(self), self.residual, self.iterations,
                             self.step_index, self.row), {"path": self.path})


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
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not math.isfinite(self.sigma1 + self.sigma2):
            raise ValueError("sigma1 and sigma2 must be finite")
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
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        # a whole number up to rounding (0.07 / 0.01 is 7.000000000000001)
        steps = self.t_final / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(f"t_final={self.t_final} is not a nonnegative "
                             f"whole number of dt={self.dt} steps")
        if not (self.newton_tol > 0 and self.newton_max_iter >= 1):
            raise ValueError("Newton controls must be positive")
        if self.nonneg_policy not in ("monitor", "project"):
            raise ValueError(f"unknown nonneg policy {self.nonneg_policy!r}")
        if not self.snapshot_stride >= 1:
            raise ValueError("snapshot stride must be >= 1")
        if not abs(self.record_rho) <= 2.0:  # sobolev_norm's orders
            raise ValueError(f"record_rho={self.record_rho} outside [-2, 2]")

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


class _Unsolved(Exception):
    """The Newton system of one row of a batch was not solved."""

    def __init__(self, row: int, why: str):
        super().__init__(why)
        self.row = row  # its position in the batch


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _pcg(lap, modes, cell_volume, eigenvalues, coef, deriv, res):
    """Newton updates of a batch of rows by one masked preconditioned CG.

    J d = -res with J = I - coef lap D, D = diag(deriv) > 0, becomes
    A x = -S res with A = I - coef S lap S, S = D^(1/2) and x = S d: A is
    symmetric positive definite, since lap is symmetric negative
    semidefinite.

    The preconditioner is T P T.  P is the spectral inverse of A with D
    frozen at the row's mean m, the identity off the band.  T is diagonal,
    T^2 = (1 + coef m k) / (1 + coef D k) with k = -diag(lap): it carries
    the diagonal of the frozen operator to that of A, so rows whose D
    varies by decades still converge in tens of iterations.  The iteration
    runs on T A T y = T b, x = T y, preconditioned by P, which takes the
    same steps with fewer products; each product with lap or the modes is
    one GEMM over the rows still iterating.

    Each row stops once its residual is within _PCG_RTOL of its right-hand
    side and leaves the iteration; d = -res + coef lap (S x) then needs no
    division by S.  A zero-curvature breakdown, or a row still iterating
    after 2 n iterations, raises _Unsolved naming the row.
    """
    k, n = deriv.shape
    mean = deriv.mean(axis=1)[:, None]
    weight = cell_volume * (1.0 / (1.0 + coef * mean * eigenvalues) - 1.0)
    diag = -coef * np.diagonal(lap)
    t2 = (1.0 + mean * diag) / (1.0 + deriv * diag)
    u = st = np.sqrt(deriv * t2)  # S T
    cu = coef * u
    analysis = np.ascontiguousarray(modes.T)  # r @ analysis: the band
    r = -u * res  # T b
    y = np.zeros_like(deriv)
    out = np.empty_like(deriv)
    left = np.arange(k)  # the rows still iterating, by position
    rr = _rowdot(r, r)
    stop = _PCG_RTOL**2 * rr
    p = rz = None
    for it in range(2 * n + 1):
        done = rr <= stop
        if done.any():
            out[left[done]] = y[done]
            keep = ~done
            if not keep.any():
                break
            left, y, r, u, cu, t2, weight, rr, stop = (
                a[keep] for a in (left, y, r, u, cu, t2, weight, rr, stop))
            if p is not None:
                p, rz = p[keep], rz[keep]
        if it == 2 * n:
            raise _Unsolved(int(left[0]), f"PCG did not converge in {it} "
                            "iterations")
        z = r @ analysis
        z *= weight
        z = z @ modes
        z += r
        rz_new = _rowdot(r, z)
        if p is not None:
            z += (rz_new / rz)[:, None] * p
        p, rz = z, rz_new
        q = t2 * p - cu * ((u * p) @ lap)  # lap is symmetric
        pq = _rowdot(p, q)
        if not (pq > 0.0).all():
            bad = np.argmin(pq > 0.0)
            raise _Unsolved(int(left[bad]),
                            f"PCG breakdown (curvature {pq[bad]:.3e})")
        alpha = (rz / pq)[:, None]
        y += alpha * p
        r -= alpha * q
        rr = _rowdot(r, r)
    return coef * ((st * out) @ lap) - res


def _newton(basis, rhs, coef, gamma, tol_abs, max_iter):
    """Damped Newton with Armijo backtracking for w - coef Lap(w^[gamma]) = rhs
    on each row of rhs (P, grid_size), started from w = rhs, with one
    tol_abs per row; returns (w, final residual norm of each row).

    The rows not yet converged iterate together, each with its own line
    search and stopping test.  Grids up to _DENSE_LIMIT cells solve the
    Newton systems directly: by dense LU, one row at a time, while fewer
    than _PCG_ROWS rows iterate, so a lone row and a small batch take the
    bits of each row alone; by one masked, batched PCG (`_pcg`) for more,
    and then a residual of the rows is one GEMM too.  A PCG update agrees
    with the LU one to about _PCG_RTOL, so each row of a large batch ends
    within 1e-9 relative of its lone run, not bit for bit.
    Larger grids use matrix-free GMRES with a spectral preconditioner, one
    row at a time.  A failure names its row.
    """
    n = basis.grid_size
    lap = None
    if n <= _DENSE_LIMIT:
        lap = basis.laplacian_matrix()
        neg_lap = -coef * lap

        def apply_lap(z):
            if len(z) >= _PCG_ROWS:  # a PCG batch: one GEMM, lap symmetric
                return z @ lap
            return np.matmul(lap, z[..., None])[..., 0]  # lap @ each row

        def solve_row(d, r):
            # I - coef lap d, rounded as np.eye(n) - coef * lap * d
            jac = neg_lap * d
            jac.flat[:: n + 1] += 1.0
            return np.linalg.solve(jac, -r)
    else:
        krylov = sys.modules[__name__]  # looked up per call: see __getattr__

        def apply_lap(z):
            grid = z.reshape(z.shape[:-1] + basis.grid_shape)
            return apply_laplacian(basis, grid).reshape(z.shape)

        def solve_row(d, r):
            # the Jacobian with d frozen at its mean, inverted on the band;
            # the identity off it
            scale = 1.0 / (1.0 + coef * float(np.mean(d)) * basis.eigenvalues)

            def pmv(z):
                coeffs = analyze(basis, z.reshape(basis.grid_shape))
                return z + synthesize(basis, coeffs * (scale - 1.0)).reshape(-1)

            jac = krylov.LinearOperator(
                (n, n), matvec=lambda z: z - coef * apply_lap(d * z)
            )
            precond = krylov.LinearOperator((n, n), matvec=pmv)
            delta, info = krylov.gmres(jac, -r, rtol=1e-10, atol=0.0,
                                       M=precond, maxiter=200)
            if info != 0:
                raise np.linalg.LinAlgError(f"inner GMRES failed (info={info})")
            return delta

    def solve(deriv, res):
        if lap is not None and len(deriv) >= _PCG_ROWS:
            return _pcg(lap, basis.mode_matrix(), basis.cell_volume,
                        basis.eigenvalues, coef, deriv, res)
        delta = np.empty_like(deriv)
        for j, (d, r) in enumerate(zip(deriv, res)):
            try:
                delta[j] = solve_row(d, r)
            except np.linalg.LinAlgError as exc:
                raise _Unsolved(j, str(exc)) from exc
        return delta

    def residual(z, b):
        return z - coef * apply_lap(power_gamma(z, gamma)) - b

    # per-row scalars live in lists: a row's tests are then the scalar
    # comparisons a lone field makes, at scalar cost
    w = rhs.copy()
    res = residual(w, rhs)
    res_norm = _lp_rows(res, 2.0)
    for iteration in range(max_iter):
        ids = [i for i, (r, t) in enumerate(zip(res_norm, tol_abs))
               if not r <= t]  # the rows still iterating
        if not ids:
            return w, res_norm
        rows = slice(None) if len(ids) == len(w) else ids  # a view if all
        deriv = gamma * np.abs(w[rows]) ** (gamma - 1.0) + 1e-12
        try:
            delta = solve(deriv, res[rows])
        except _Unsolved as exc:
            row = ids[exc.row]
            raise NewtonError(f"Newton system not solved: {exc}",
                              res_norm[row], iteration, row=row) from exc
        # one alpha serves all rows still searching: each halved from 1
        alpha = 1.0
        search = ids
        while search:
            if not alpha > 2.0**-30:
                raise NewtonError("Newton line search stalled",
                                  res_norm[search[0]], iteration, row=search[0])
            trial = w[rows] + alpha * delta
            trial_res = residual(trial, rhs[rows])
            trial_norm = _lp_rows(trial_res, 2.0)
            ok = [math.isfinite(t) and t <= (1 - 1e-4 * alpha) * res_norm[i]
                  for i, t in zip(search, trial_norm)]
            if all(ok) and isinstance(rows, slice):  # every row took alpha
                w, res, res_norm = trial, trial_res, trial_norm
                break
            took = [j for j, o in enumerate(ok) if o]
            w[[search[j] for j in took]] = trial[took]
            res[[search[j] for j in took]] = trial_res[took]
            for j in took:
                res_norm[search[j]] = trial_norm[j]
            left = [j for j, o in enumerate(ok) if not o]
            search = rows = [search[j] for j in left]
            delta = delta[left]
            alpha *= 0.5
    row = ids[0]
    raise NewtonError(
        f"Newton did not reach tolerance {tol_abs[row]:.3e} "
        f"(final residual {res_norm[row]:.3e})",
        res_norm[row], max_iter, row=row,
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
    shaped (P,) + grid are a batch of paths, each solved as alone; a lone
    field is solved as a batch of one.
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
    rows = rhs.reshape(-1, basis.grid_size)  # a lone field is a batch of one
    tol_abs = [solver.newton_tol * (1.0 + x)
               for x in _lp_rows(u.reshape(rows.shape), 2.0)]
    w, res_norm = _newton(
        basis, rows, coef, model.gamma, tol_abs, solver.newton_max_iter
    )
    if not np.isfinite(w).all():
        row = int(np.argmin(np.isfinite(w).all(axis=1)))
        raise NewtonError("non-finite Newton iterate", res_norm[row], -1,
                          row=row)
    # each row's mean, as np.mean takes it, at a third of its overhead
    n = basis.grid_size
    shift = np.add.reduce(rows, axis=-1) / n - np.add.reduce(w, axis=-1) / n
    return (w + shift[:, None]).reshape(rhs.shape)


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
    phi,
    model: ModelConfig,
    solver: SolverConfig,
    dw1: Optional[np.ndarray],
    dw2: Optional[np.ndarray],
    drift1: Optional[np.ndarray] = None,
    drift2: Optional[np.ndarray] = None,
) -> CoupledState:
    """Coupled step with the quadratic reaction frozen at phi * eta * xi^2.

    A batch state (P,) + grid takes frozen fields of the same shape and a
    cutoff value per row, phi of shape (P,); a scalar phi serves every row.
    Each row's product rounds as the scalar product of its lone step."""
    phi = np.asarray(phi, dtype=float)
    bad = np.extract(~((phi >= 0.0) & (phi <= 1.0)), phi)
    if bad.size:
        raise ValueError(f"cutoff value {bad[0]} outside [0, 1]")
    react = phi.reshape(phi.shape + (1,) * (eta.ndim - phi.ndim)) * eta * xi * xi
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


def _drive(state, solver, n_steps, step, increments, paths=None):
    """Apply `step` n_steps times from `state`, yielding (state, points
    clipped to zero) at the start and after each step; step(state, n, dw1,
    dw2) takes the noise increments(n) returns.  The per-step policy for
    every caller: a Newton failure gets the step index, nonneg_policy=project
    clips negative values to zero, and a non-finite state aborts the run.  A
    batch of paths gets the same policy on every row: clipped points are
    counted per row, and a failing row keeps its index.  `paths()`, if
    given, returns the global path index of each row the step is given, and
    a Newton error carries its row's as `path`; without it a non-finite
    state names its row of the state, which then indexes the same rows."""
    project = solver.nonneg_policy == "project"
    yield state, 0
    for n in range(n_steps):
        dw1, dw2 = increments(n)
        try:
            new = step(state, n, dw1, dw2)
        except NewtonError as exc:
            path = None
            if paths is not None and exc.row is not None:
                path = int(paths()[exc.row])
            where = "" if path is None else f"path {path}: "
            err = NewtonError(
                f"step {n} (t={state.t:.6g}): {where}{exc}",
                exc.residual,
                exc.iterations,
                step_index=n,
                row=exc.row,
            )
            err.path = path
            raise err from exc
        clipped = 0
        if project:
            below_u = new.u < 0.0
            below_v = new.v < 0.0
            clipped = (np.count_nonzero(below_u.reshape(len(new.u), -1), axis=1)
                       + np.count_nonzero(below_v.reshape(len(new.v), -1),
                                          axis=1))
            new.u[below_u] = 0.0
            new.v[below_v] = 0.0
        if not (np.isfinite(new.u).all() and np.isfinite(new.v).all()):
            row = None
            if paths is None:
                finite = [np.isfinite(f).reshape(len(f), -1).all(axis=1)
                          for f in (new.u, new.v)]
                row = int(np.argmin(finite[0] & finite[1]))
            raise NewtonError(
                f"non-finite state after step {n}", float("nan"), -1,
                step_index=n, row=row,
            )
        state = new
        yield state, clipped


def _run_paths(scenario, paths, observe) -> CoupledState:
    """Step paths `paths` (an int array of path indices) of `scenario` from
    its initial fields as one batch of coupled steps.  Each row draws its
    path's noise of its rung at the rung's local step and ends as that path
    stepped alone, within the batch contract of `_newton`; a Newton failure
    names its path.

    observe(n, u, v, live, rung) sees the batch after n steps, n = 0 to
    solver.n_steps, in arrays later steps overwrite; `live` are the rows
    that step next.  It returns the rows that go on and those of them that
    start their next rung at step n, on fresh (path, rung) streams.  No row
    going on ends the run; the returned state keeps each stopped row's."""
    basis, model, solver, spec = (scenario.basis, scenario.model,
                                  scenario.solver, scenario.noise)
    drift1, drift2 = _mult_drifts(basis, model, spec, None)
    rung = np.zeros(len(paths), dtype=int)
    start = np.zeros(len(paths), dtype=int)  # the step each rung began at
    keys = _path_keys(spec, paths, rung)
    live = np.arange(len(paths))

    def increments(n):
        return _increment_rows(spec, basis, solver.dt, keys[live],
                               n - start[live])

    def step(state, n, dw1, dw2):  # the live rows move, in place
        rows = CoupledState(state.u[live], state.v[live], state.t)
        moved = step_coupled(basis, rows, model, solver, dw1, dw2,
                             drift1, drift2)
        state.u[live], state.v[live] = moved.u, moved.v
        return CoupledState(state.u, state.v, moved.t)

    state = CoupledState(*(np.repeat(f[None], len(paths), axis=0)
                           for f in (scenario.u0, scenario.v0)), 0.0)
    for n, (state, _) in enumerate(_drive(state, solver, solver.n_steps, step,
                                          increments, lambda: paths[live])):
        live, climb = observe(n, state.u, state.v, live, rung)
        if len(climb):
            rung[climb] += 1
            start[climb] = n
            keys[climb] = _path_keys(spec, paths[climb], rung[climb])
        if not len(live):
            break
    return state


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


def _h_rate_rows(u, v, cutoff) -> tuple[list[float], list[float]]:
    """Integrands |u|_{L^(g+1)}^(g+1) and |v|_{L^m}^(m0) of the budget h for
    each field of the stacks u, v (P,) + grid; powers on scalars."""
    g1 = cutoff.gamma + 1.0
    return ([x ** g1 for x in _lp_rows(u, g1)],
            [x ** cutoff.m0 for x in _lp_rows(v, cutoff.m)])


def _h_budget(sum_eta, sum_xi, dt: float, nu: float):
    """h = (dt sum eta-rates)^nu + (dt sum xi-rates)^nu from running sums,
    on arrays: every h the package computes is raised here."""
    return (dt * sum_eta) ** nu + (dt * sum_xi) ** nu


def _norm_rows(basis, u, v, model, solver) -> tuple:
    """Ledger columns Trajectory.NORM_COLUMNS without h, one entry per path
    of the batch u, v (P,) + grid, each bit for bit its lone field's."""
    flat_u = u.reshape(len(u), -1)
    return (
        _lp_rows(flat_u, 2.0),
        _lp_rows(flat_u, model.gamma + 1.0),
        sobolev_norm(basis, v, solver.record_rho),
        flat_u.min(axis=1),
        v.reshape(len(v), -1).min(axis=1),
    )


def _record_run(basis, u0, v0, model, solver, step, increments, cutoff,
                stride, h=None) -> list[Trajectory]:
    """Drive `step` over solver.n_steps from P copies of one path's fields
    u0, v0, stepped as one batch, and record each row's norm ledger, h
    column (NaN without `cutoff`) and every stride-th state plus the last:
    one Trajectory per row, each holding snapshot arrays of its own.

    h, if given, is a (P, n_steps + 1) array that receives the h columns as
    the run goes, so a step can read each row's h up to its own time; else
    P = 1.  Each row's h comes from running sums of its rates, added in step
    order as FrozenPair.h_values' cumsum adds them, and raised to nu on
    arrays by _h_budget."""
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if u0.shape != basis.grid_shape or v0.shape != u0.shape:
        raise ValueError(
            f"initial fields {u0.shape}/{v0.shape} do not match grid "
            f"{basis.grid_shape}"
        )
    n_steps = solver.n_steps
    if h is None:
        h = np.empty((1, n_steps + 1))
    rows = len(h)
    h[:] = np.nan
    snap_idx = list(range(0, n_steps + 1, stride))
    if snap_idx[-1] != n_steps:
        snap_idx.append(n_steps)
    snap_shape = (len(snap_idx),) + u0.shape
    snaps = [(np.empty(snap_shape), np.empty(snap_shape)) for _ in range(rows)]
    ledger = np.empty((len(Trajectory.NORM_COLUMNS) - 1, rows, n_steps + 1))
    sums = np.zeros((2, rows))  # running sums of the two h integrands
    projected = np.zeros(rows, dtype=int)
    state = CoupledState(np.repeat(u0[None], rows, axis=0),
                         np.repeat(v0[None], rows, axis=0), 0.0)
    snap = 0
    for n, (state, clipped) in enumerate(_drive(
        state, solver, n_steps, step, increments
    )):
        projected += clipped
        ledger[:, :, n] = _norm_rows(basis, state.u, state.v, model, solver)
        if cutoff is not None:  # h(0) = 0 from sums of zero
            h[:, n] = _h_budget(sums[0], sums[1], solver.dt, cutoff.nu)
            if n < n_steps:
                sums += _h_rate_rows(state.u, state.v, cutoff)
        if n == snap_idx[snap]:
            for (snap_u, snap_v), u, v in zip(snaps, state.u, state.v):
                snap_u[snap], snap_v[snap] = u, v
            snap += 1

    times = np.arange(n_steps + 1) * solver.dt
    trajectories = []
    for row, (snap_u, snap_v) in enumerate(snaps):
        columns = dict(zip(Trajectory.NORM_COLUMNS[:-1], ledger[:, row]))
        columns["h"] = h[row]
        flags = {
            "completed": True,
            "projected_points": int(projected[row]),
            "worst_min_u": float(columns["min_u"].min()),
            "worst_min_v": float(columns["min_v"].min()),
            "model_flags": model.hypothesis_flags(),
        }
        trajectories.append(Trajectory(
            times=times,
            norms=columns,
            snapshot_times=times[snap_idx],
            u_snapshots=snap_u,
            v_snapshots=snap_v,
            flags=flags,
        ))
    return trajectories


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
    )[0]
