"""Truncation and fixed-point machinery for the coupled system.

The quadratic coupling is tamed by a smooth cutoff phi_kappa evaluated on a
running norm budget

    h(eta, xi, t) = (int_0^t |eta|_{L^(g+1)}^(g+1))^nu
                  + (int_0^t |xi|_{L^m}^(m0))^nu.

Freezing the pair (eta, xi) turns the coupled system into two one-way
problems; iterating the solve (Picard) drives the pair to a fixed point,
which solves the truncated system.  While h stays below kappa the cutoff is
identically one, so the fixed point follows the untruncated dynamics up to
the first exit time; restarting at a higher truncation level with a fresh
noise substream extends the solution past exits, and once the ladder is
exhausted the decoupled extension dynamics take over.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import SpectralBasis
from .dynamics import (
    CoupledState,
    ModelConfig,
    SolverConfig,
    Trajectory,
    simulate_path,
    step_coupled,
    step_frozen,
    _drive,
    _h_budget,
    _h_column,
    _h_rate_rows,
    _mult_drifts,
    _path_increments,
    _record_run,
)
from .noise import (
    NoisePath,
    NoiseSpec,
    generate_path,
    _increment_rows,
    _path_keys,
)


class PicardError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals


def default_nu(gamma: float, m0: float, p0_star: float) -> float:
    """Largest admissible h-exponent for the given integrability indices."""
    cap = 1.0 - 1.0 / p0_star
    return min(1.0, cap * (gamma + 1.0) / m0, cap * m0)


@dataclass(frozen=True)
class CutoffParams:
    """Truncation level kappa plus the exponents entering h.

    nu must satisfy 1/p0* + nu m0/(gamma+1) <= 1 and 1/p0* + nu/m0 <= 1.
    """

    kappa: float
    gamma: float
    m: float
    m0: float
    p0_star: float
    nu: Optional[float] = None

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.nu is None:
            object.__setattr__(
                self, "nu", default_nu(self.gamma, self.m0, self.p0_star)
            )
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu={self.nu} outside (0, 1]")
        tol = 1e-12
        if 1.0 / self.p0_star + self.nu * self.m0 / (self.gamma + 1.0) > 1.0 + tol:
            raise ValueError("nu violates 1/p0* + nu m0/(gamma+1) <= 1")
        if 1.0 / self.p0_star + self.nu / self.m0 > 1.0 + tol:
            raise ValueError("nu violates 1/p0* + nu/m0 <= 1")

    def with_kappa(self, kappa: float) -> "CutoffParams":
        return dataclasses.replace(self, kappa=kappa)


def _mollifier(y):
    out = np.zeros_like(y)
    pos = y > 0
    out[pos] = np.exp(-1.0 / y[pos])
    return out


def cutoff_phi(x, kappa: float):
    """Smooth bump: 1 on |x| <= kappa, 0 on |x| >= 2 kappa.

    The transition band uses the exp(-1/s) mollifier quotient, which is
    C-infinity with Lipschitz constant exactly 2/kappa (attained at the band
    midpoint).
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    t = np.abs(np.asarray(x, dtype=float)) / kappa
    s = np.clip(t - 1.0, 0.0, 1.0)
    upper = _mollifier(1.0 - s)
    lower = _mollifier(s)
    with np.errstate(invalid="ignore"):
        val = np.where(t <= 1.0, 1.0, np.where(t >= 2.0, 0.0, upper / (upper + lower)))
    return val if val.ndim else float(val)


@dataclass
class FrozenPair:
    """Time-indexed (eta, xi) fields on the solver grid, eta[n] at t = n dt."""

    eta: np.ndarray  # (n_times, *grid)
    xi: np.ndarray
    dt: float

    @property
    def n_times(self) -> int:
        return self.eta.shape[0]

    @classmethod
    def zero(cls, basis: SpectralBasis, dt: float, n_steps: int) -> "FrozenPair":
        shape = (n_steps + 1,) + basis.grid_shape
        return cls(eta=np.zeros(shape), xi=np.zeros(shape), dt=dt)

    @classmethod
    def from_trajectory(cls, traj: Trajectory) -> "FrozenPair":
        dt = float(traj.times[1] - traj.times[0]) if traj.times.size > 1 else 0.0
        return cls(eta=traj.u_snapshots, xi=traj.v_snapshots, dt=dt)

    def h_values(self, params: CutoffParams) -> np.ndarray:
        """h at every grid time by left-endpoint quadrature; h(0) = 0."""
        rates = _h_rate_rows(self.eta[:-1], self.xi[:-1], params)
        return _h_column(*rates, self.dt, params.nu)


def h_functional(pair: FrozenPair, t: float, params: CutoffParams) -> float:
    """Running norm budget at a grid time."""
    idx = t / pair.dt if pair.dt > 0 else 0.0
    n = int(round(idx))
    if abs(idx - n) > 1e-9 or not 0 <= n < pair.n_times:
        raise ValueError(f"t={t} is not on the trajectory time grid")
    return float(pair.h_values(params)[n])


def apply_V(
    pair: FrozenPair,
    u0: np.ndarray,
    v0: np.ndarray,
    kappa: float,
    noise_path: NoisePath,
    model: ModelConfig,
    solver: SolverConfig,
    basis: SpectralBasis,
    params: CutoffParams,
) -> Trajectory:
    """Solve the frozen system driven by (eta, xi): one sweep of the operator.

    The reaction at step n uses phi_kappa(h(eta, xi, t_n)) * eta_n * xi_n^2;
    the output never feeds back into the reaction during the sweep.  The
    returned trajectory records h of the *output* fields (at a fixed point
    the two agree within the iteration tolerance).
    """
    n_steps = solver.n_steps
    if pair.n_times != n_steps + 1:
        raise ValueError(
            f"frozen pair has {pair.n_times} time slices for {n_steps} steps"
        )
    increments = _path_increments(noise_path, solver)
    drift1, drift2 = _mult_drifts(basis, model, noise_path.spec, None)
    phi = cutoff_phi(pair.h_values(params), kappa)

    def step(state, n, dw1, dw2):
        return step_frozen(
            basis, state, pair.eta[n], pair.xi[n], phi[n],
            model, solver, dw1, dw2, drift1, drift2,
        )

    return _record_run(basis, u0, v0, model, solver, step, increments, params, 1)


def pair_distance(a: FrozenPair, b: FrozenPair, params: CutoffParams) -> float:
    """Discrete Bochner-norm distance used as the Picard residual:
    |du|_{L^(g+1)(0,T;L^(g+1))} + |dv|_{L^(m0)(0,T;L^m)}."""
    rate_eta, rate_xi = _h_rate_rows(a.eta[:-1] - b.eta[:-1],
                                     a.xi[:-1] - b.xi[:-1], params)
    eta_part = a.dt * sum(rate_eta)
    xi_part = a.dt * sum(rate_xi)
    return eta_part ** (1.0 / (params.gamma + 1.0)) + xi_part ** (1.0 / params.m0)


@dataclass
class PicardResult:
    trajectory: Trajectory
    residuals: list[float]
    iterations: int
    converged: bool

    @property
    def pair(self) -> FrozenPair:
        return FrozenPair.from_trajectory(self.trajectory)


def picard_solve(
    u0: np.ndarray,
    v0: np.ndarray,
    kappa: float,
    noise_path: NoisePath,
    model: ModelConfig,
    solver: SolverConfig,
    basis: SpectralBasis,
    params: CutoffParams,
    tol: float = 1e-8,
    max_iter: int = 60,
    initial_pair: Optional[FrozenPair] = None,
) -> PicardResult:
    """Iterate the frozen-system operator to a fixed point.

    The default initial iterate is the reaction-free sweep (the operator
    applied to the zero pair), which is cheap and stays in the nonnegative
    cone for nonnegative data.  Stops when successive sweeps differ by at
    most `tol` in the discrete Bochner distance; the convergence criterion
    is a numerical surrogate -- nothing guarantees contraction in general,
    so non-convergence raises with the residual history attached.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n_steps = solver.n_steps
    if initial_pair is None:
        zero = FrozenPair.zero(basis, solver.dt, n_steps)
        first = apply_V(zero, u0, v0, kappa, noise_path, model, solver, basis, params)
        pair = FrozenPair.from_trajectory(first)
    else:
        pair = initial_pair
    residuals: list[float] = []
    for iteration in range(1, max_iter + 1):
        traj = apply_V(pair, u0, v0, kappa, noise_path, model, solver, basis, params)
        new_pair = FrozenPair.from_trajectory(traj)
        r = pair_distance(new_pair, pair, params)
        residuals.append(r)
        pair = new_pair
        if r <= tol:
            return PicardResult(
                trajectory=traj,
                residuals=residuals,
                iterations=iteration,
                converged=True,
            )
    raise PicardError(
        f"no fixed point after {max_iter} sweeps "
        f"(last residual {residuals[-1]:.3e})",
        residuals,
    )


def first_exit_time(
    traj: Trajectory, kappa: float, params: CutoffParams
) -> Optional[float]:
    """First grid time with h >= kappa, or None if h stays below on [0, T]."""
    h = traj.norms.get("h")
    if h is None or np.any(np.isnan(h)):
        raise ValueError("trajectory carries no h records")
    above = np.nonzero(h >= kappa)[0]
    if above.size == 0:
        return None
    return float(traj.times[above[0]])


@dataclass
class RungReport:
    rung: int
    kappa: float
    exit_time: Optional[float]  # global time of the h-crossing
    picard_iterations: int
    final_residual: float

    def row(self) -> str:
        exit_s = "none" if self.exit_time is None else f"{self.exit_time:.10g}"
        return (
            f"{self.rung}\t{self.kappa:.10g}\t{exit_s}"
            f"\t{self.picard_iterations}\t{self.final_residual:.3e}"
        )


@dataclass
class GlueResult:
    trajectory: Trajectory
    rungs: list[RungReport]
    used_decoupled_tail: bool


def _concat_trajectories(parts: list[tuple[Trajectory, int]]) -> Trajectory:
    """Join the first `stop` records of each (segment, stop); each junction
    state appears once (exact handoff)."""
    times, us, vs = [], [], []
    norms = {k: [] for k in parts[0][0].norms}
    offset = 0.0
    for i, (seg, stop) in enumerate(parts):
        start = 1 if i else 0
        times.append(seg.times[start:stop] + offset)
        for k in norms:
            norms[k].append(seg.norms[k][start:stop])
        us.append(seg.u_snapshots[start:stop])
        vs.append(seg.v_snapshots[start:stop])
        offset += seg.times[stop - 1]
    all_times = np.concatenate(times)
    merged = {k: np.concatenate(v) for k, v in norms.items()}
    u_all = np.concatenate(us)
    v_all = np.concatenate(vs)
    flags = {
        "completed": all(p.flags.get("completed", True) for p, _ in parts),
        "projected_points": sum(p.flags["projected_points"] for p, _ in parts),
        "worst_min_u": float(merged["min_u"].min()),
        "worst_min_v": float(merged["min_v"].min()),
        "segments": len(parts),
    }
    return Trajectory(
        times=all_times,
        norms=merged,
        snapshot_times=all_times,
        u_snapshots=u_all,
        v_snapshots=v_all,
        flags=flags,
    )


def glue_simulate(
    u0: np.ndarray,
    v0: np.ndarray,
    kappa_ladder: Sequence[float],
    model: ModelConfig,
    solver: SolverConfig,
    basis: SpectralBasis,
    noise_spec: NoiseSpec,
    params: CutoffParams,
    tol: float = 1e-8,
    max_iter: int = 60,
    path_index: int = 0,
) -> GlueResult:
    """Stopping-time ladder:
    solve at the lowest truncation level, restart from the exit state at the
    next level with a fresh noise substream, concatenate, and fall back to
    the decoupled extension dynamics when every rung has exited.

    Within each rung the budget h restarts from zero (each restart solves a
    fresh truncated problem from its own time origin).
    """
    ladder = list(kappa_ladder)
    if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("kappa ladder must be nonempty and strictly increasing")
    n_total = solver.n_steps
    if n_total == 0:
        empty = simulate_path(basis, u0, v0, model, solver, None, cutoff=params)
        return GlueResult(trajectory=empty, rungs=[], used_decoupled_tail=False)

    parts: list[tuple[Trajectory, int]] = []  # (segment, records kept)
    rungs: list[RungReport] = []
    u_cur, v_cur = np.array(u0, dtype=float), np.array(v0, dtype=float)
    steps_done = 0
    used_tail = False
    for rung_index in range(len(ladder) + 1):
        n_rem = n_total - steps_done
        seg_solver = dataclasses.replace(
            solver, t_final=n_rem * solver.dt, snapshot_stride=1
        )
        path = generate_path(
            noise_spec, basis, solver.dt, n_rem,
            path_index=path_index, rung=rung_index,
        )
        if rung_index == len(ladder):
            # ladder exhausted: extension dynamics on one more fresh substream
            used_tail = True
            tail = simulate_path(
                basis, u_cur, v_cur, model, seg_solver, path,
                mode="decoupled", cutoff=params,
            )
            parts.append((tail, n_rem + 1))
            break
        kappa = ladder[rung_index]
        result = picard_solve(
            u_cur, v_cur, kappa, path, model, seg_solver, basis,
            params.with_kappa(kappa), tol=tol, max_iter=max_iter,
        )
        traj = result.trajectory
        exit_local = first_exit_time(traj, kappa, params.with_kappa(kappa))
        if exit_local is None:
            exit_idx = n_rem
        else:  # a rung always consumes at least a step
            exit_idx = max(int(round(exit_local / solver.dt)), 1)
        rungs.append(RungReport(
            rung_index + 1, kappa,
            None if exit_local is None else (steps_done + exit_idx) * solver.dt,
            result.iterations, result.residuals[-1],
        ))
        parts.append((traj, exit_idx + 1))
        steps_done += exit_idx
        if steps_done >= n_total:
            break
        u_cur = traj.u_snapshots[exit_idx].copy()
        v_cur = traj.v_snapshots[exit_idx].copy()
    glued = _concat_trajectories(parts)
    return GlueResult(trajectory=glued, rungs=rungs, used_decoupled_tail=used_tail)


@dataclass
class ExitProbeResult:
    kappa: float
    n_paths: int
    p_hat: float
    stderr: float
    exit_counts: int


def _exit_ladder(kappa: float) -> list[float]:
    """Thresholds 1, 2, ..., capped at kappa (a single rung when kappa < 1)."""
    levels = []
    j = 1.0
    while j < kappa:
        levels.append(j)
        j += 1.0
    levels.append(float(kappa))
    return levels


def _exit_steps(scenario, levels: Sequence[float], n_paths: int):
    """Step paths 0..n_paths-1 up the threshold ladder `levels` as one batch.

    Each path climbs by direct coupled stepping: on [0, tau) the truncated
    fixed point equals the plain coupled dynamics (phi = 1 below the
    threshold).  h restarts from zero at each rung, and rung r of path i
    draws its noise from the (seed, channel, i, r) substreams at its own
    local step.  A path stops at its first rung that does not exit before
    the horizon, when it exits at the horizon step, or after its last rung.
    Every live path advances through one call of the step kernel per step,
    and each ends bit for bit as it would stepped alone.

    Returns (crossings, end): crossings[i, r] is the global step at which
    path i's h reached levels[r] (-1 if it did not), and end is the batch
    state holding each path as it stopped.
    """
    sc = scenario
    basis, model, solver, spec = sc.basis, sc.model, sc.solver, sc.noise
    n_total = solver.n_steps
    drift1, drift2 = _mult_drifts(basis, model, spec, None)
    thresholds = np.asarray(levels, dtype=float)
    crossings = np.full((n_paths, len(levels)), -1)
    rung = np.zeros(n_paths, dtype=int)
    rung_start = np.zeros(n_paths, dtype=int)  # global step the rung began at
    sums = np.zeros((2, n_paths))  # running sums of the two h integrands
    keys = _path_keys(spec, range(n_paths), rung)
    live = np.arange(n_paths)
    state = CoupledState(np.repeat(sc.u0[None], n_paths, axis=0),
                         np.repeat(sc.v0[None], n_paths, axis=0), 0.0)

    def increments(n):
        return _increment_rows(spec, basis, solver.dt, keys[live],
                               n - rung_start[live])

    def step(state, n, dw1, dw2):
        rows = CoupledState(state.u[live], state.v[live], state.t)
        moved = step_coupled(basis, rows, model, solver, dw1, dw2,
                             drift1, drift2)
        u, v = state.u.copy(), state.v.copy()
        u[live], v[live] = moved.u, moved.v
        return CoupledState(u, v, moved.t)

    for n, (new, _) in enumerate(_drive(state, solver, n_total, step,
                                        increments, lambda: live)):
        rate_eta, rate_xi = _h_rate_rows(state.u[live], state.v[live],
                                         sc.cutoff)
        sums[0, live] += rate_eta
        sums[1, live] += rate_xi
        state = new
        h = np.array([_h_budget(a, b, solver.dt, sc.cutoff.nu) for a, b in
                      zip(sums[0, live].tolist(), sums[1, live].tolist())])
        crossed = live[h >= thresholds[rung[live]]]
        crossings[crossed, rung[crossed]] = n + 1
        # a crossing before the horizon climbs to the next rung, if any
        climbs = (rung[crossed] + 1 < len(levels)) & (n + 1 < n_total)
        climb = crossed[climbs]
        rung[climb] += 1
        rung_start[climb] = n + 1
        sums[:, climb] = 0.0
        if climb.size:
            keys[climb] = _path_keys(spec, climb, rung[climb])
        live = live[~np.isin(live, crossed[~climbs])]
        if live.size == 0:
            break
    return crossings, state


def exit_prob_estimate(scenario, kappa: float, n_paths: int) -> ExitProbeResult:
    """Monte-Carlo estimate of P(tau_bar_kappa < T).

    tau_bar is the sum of the per-rung exit times over the threshold ladder
    1, 2, ..., kappa; below each threshold the truncated dynamics equal the
    plain coupled dynamics (phi = 1), so each rung is sampled by direct
    stepping, all paths at once.  Rung substreams are keyed by (path, rung),
    making estimates for nested ladders pathwise coupled; the tail
    probability is then monotone in kappa by construction, as the Markov
    bound requires.  A path that exits its last rung at the horizon step is
    not counted.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    crossings, _ = _exit_steps(scenario, _exit_ladder(kappa), n_paths)
    last = crossings[:, -1]
    exits = int(np.count_nonzero((last > 0) & (last < scenario.solver.n_steps)))
    p_hat = exits / n_paths
    stderr = float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_paths))
    return ExitProbeResult(
        kappa=float(kappa), n_paths=n_paths, p_hat=p_hat,
        stderr=stderr, exit_counts=exits,
    )


def fit_tail_constant(kappas: Sequence[float], p_hats: Sequence[float]) -> float:
    """Smallest c with c/kappa >= p_hat for every estimate (reported fit)."""
    return float(max(k * p for k, p in zip(kappas, p_hats)))
