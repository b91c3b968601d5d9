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
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import SpectralBasis
from .dynamics import (
    ModelConfig,
    NewtonError,
    SolverConfig,
    Trajectory,
    simulate_path,
    step_coupled,
    step_frozen,
    _h_budget,
    _h_rate_rows,
    _HSums,
    _recorder,
    _run,
    _stepper,
)
from .noise import NoisePath, NoiseSpec, generate_path

# the most Picard sweeps one lockstep batch runs: fewer than
# dynamics._PCG_ROWS, so each row solves by LU and keeps its lone bits
_SWEEP_ROWS = 8


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
        for name in ("kappa", "gamma", "m", "m0", "p0_star"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.nu is None:
            object.__setattr__(
                self, "nu", default_nu(self.gamma, self.m0, self.p0_star)
            )
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu={self.nu} outside (0, 1]")
        tol = 1e-12
        if not 1.0 / self.p0_star + self.nu * self.m0 / (self.gamma + 1.0) <= 1.0 + tol:
            raise ValueError("nu violates 1/p0* + nu m0/(gamma+1) <= 1")
        if not 1.0 / self.p0_star + self.nu / self.m0 <= 1.0 + tol:
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
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    t = np.abs(np.asarray(x, dtype=float)) / kappa
    s = np.clip(t - 1.0, 0.0, 1.0)
    upper = _mollifier(1.0 - s)
    lower = _mollifier(s)
    with np.errstate(invalid="ignore"):
        val = np.where(t <= 1.0, 1.0, np.where(t >= 2.0, 0.0, upper / (upper + lower)))
    return val if val.ndim else float(val)


@dataclass
class FrozenPair:
    """Time-indexed (eta, xi) fields on the solver grid, eta[n] at t = n dt;
    the h column a run records equals `h_values` of its pair bit for bit."""

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
        """The pair of a run's snapshots, on the run's time grid."""
        dt = float(traj.times[1] - traj.times[0]) if traj.times.size > 1 else 0.0
        return cls(eta=traj.u_snapshots, xi=traj.v_snapshots, dt=dt)

    def h_values(self, params: CutoffParams) -> np.ndarray:
        """h at every grid time by left-endpoint quadrature, h(0) = 0; cumsum
        adds the rates left to right, as the recorder's running sums do."""
        rates = _h_rate_rows(self.eta[:-1], self.xi[:-1], params)
        return np.append(0.0, _h_budget(np.cumsum(rates, axis=1), self.dt,
                                        params.nu))


def h_functional(pair: FrozenPair, t: float, params: CutoffParams) -> float:
    """Running norm budget at a grid time."""
    idx = t / pair.dt if pair.dt > 0 else 0.0
    n = int(round(idx))
    if abs(idx - n) > 1e-9 or not 0 <= n < pair.n_times:
        raise ValueError(f"t={t} is not on the trajectory time grid")
    return float(pair.h_values(params)[n])


def _sweep(pair, rows, u0, v0, kappa, noise_path, model, solver, basis,
           params, pair_h) -> list[Trajectory]:
    """`rows` sweeps of the operator as the rows of one batch, in lockstep
    (see `picard_solve`): sweep 0 is frozen on `pair` and its h column
    `pair_h`, and sweep j at step n on row j - 1 of the batch and its h."""
    n_steps = solver.n_steps
    if pair.n_times != n_steps + 1 or (
            n_steps and abs(pair.dt - solver.dt) > 1e-15 * solver.dt):
        raise ValueError(
            f"frozen pair of {pair.n_times} time slices at dt {pair.dt!r} is "
            f"not on the grid of {n_steps} steps at solver dt {solver.dt!r}"
        )
    h = np.empty((rows + 1, n_steps + 1))  # row 0 the pair's, j + 1 sweep j's
    h[0] = pair_h

    def frozen(state, n):  # every row goes on: state is the batch
        return (np.concatenate((pair.eta[n][None], state.u[:rows - 1])),
                np.concatenate((pair.xi[n][None], state.v[:rows - 1])),
                cutoff_phi(h[:rows, n], kappa))

    step = _stepper(step_frozen, basis, model, solver, noise_path.spec, None,
                    frozen)
    observe, trajectories = _recorder(basis, model, solver, params, 1, h[1:])
    _run(basis, solver, u0, v0, [None] * rows, step, noise_path, observe)
    return trajectories()


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
    the two agree within the iteration tolerance).  This is the one-row case
    of the lockstep sweeps `picard_solve` runs.
    """
    return _sweep(pair, 1, u0, v0, kappa, noise_path, model, solver, basis,
                  params, pair.h_values(params))[0]


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

    The sweeps run in batches, in lockstep.  Step n of a sweep reads its
    frozen pair only at t_n (the reaction at t_n and h(t_n), whose
    quadrature stops at t_(n-1)), so sweep k can take step n as soon as
    sweep k - 1 has taken n steps: the rows of a batch advance together,
    row k frozen on row k - 1 and row 0 on the carried pair (the zero pair,
    `initial_pair`, or the last row of the previous batch).  Every row
    keeps the bits of its sweep run alone, so the iterates, residuals and
    result are those of running the sweeps one after another.  h_values
    runs once, for the first pair; a carried row hands on its recorded h.
    A batch shares the per-step overhead among its rows, but each row still
    does its own solves, so the rows after the first converged one are work
    thrown away: `_batch_rows` sizes each batch from the residuals so far.

    A failing row that names itself (a NewtonError, or a non-finite state)
    reruns the batch without it and the rows after it; its error is raised
    only if no earlier row converges, as the serial loop would.  Any other
    failure reruns the batch's first sweep alone, so an error is raised
    only by a sweep the serial loop runs.
    """
    if not (tol > 0 and max_iter >= 1):
        raise ValueError("need tol > 0 and max_iter >= 1")
    # the first sweep from the zero pair is the start, not an iterate
    start = initial_pair is None
    if start:
        pair = FrozenPair.zero(basis, solver.dt, solver.n_steps)
    else:
        pair = initial_pair
    pair_h = pair.h_values(params)
    residuals: list[float] = []
    while True:
        rows = min(_batch_rows(residuals, tol, start),
                   max_iter - len(residuals) + start)
        failed = None
        while True:
            try:
                trajs = _sweep(pair, rows, u0, v0, kappa, noise_path, model,
                               solver, basis, params, pair_h)
                break
            except Exception as exc:
                row = exc.row if isinstance(exc, NewtonError) else None
                if row is None and rows > 1:
                    failed, rows = None, 1
                elif row:  # a row after the batch's first
                    failed, rows = exc, row
                else:
                    raise
        for traj in trajs:
            new_pair = FrozenPair.from_trajectory(traj)
            if start:
                start = False
            else:
                residuals.append(pair_distance(new_pair, pair, params))
                if residuals[-1] <= tol:
                    return PicardResult(
                        trajectory=traj,
                        residuals=residuals,
                        iterations=len(residuals),
                        converged=True,
                    )
            pair, pair_h = new_pair, traj.norms["h"]
        if failed is not None:
            raise failed
        if len(residuals) == max_iter:
            raise PicardError(
                f"no fixed point after {max_iter} sweeps "
                f"(last residual {residuals[-1]:.3e})",
                residuals,
            )


def _batch_rows(residuals: list[float], tol: float, start: bool) -> int:
    """Rows of the next lockstep batch, at most _SWEEP_ROWS: enough for two
    residuals at first (one more for the start sweep), then the sweeps the
    last contraction ratio says are left to reach tol, or _SWEEP_ROWS
    without contraction.  Picard residuals on a finite horizon tend to fall
    faster than geometrically (like C^k T^k / k! for a Volterra operator),
    so the estimate rarely falls short; when it does, one more batch runs."""
    if len(residuals) < 2:
        return min(_SWEEP_ROWS, 2 - len(residuals) + start)
    ratio = residuals[-1] / residuals[-2]
    if not ratio < 1.0:
        return _SWEEP_ROWS
    left = math.log(tol / residuals[-1]) / math.log(ratio)
    return max(1, min(_SWEEP_ROWS, math.ceil(left)))


def _first_crossing(h: np.ndarray, kappa: float) -> Optional[int]:
    """First index with h >= kappa, the exit sampler's rule, or None."""
    above = np.flatnonzero(h >= kappa)
    return int(above[0]) if above.size else None


def first_exit_time(traj: Trajectory, kappa: float) -> Optional[float]:
    """First grid time with h >= kappa, or None if h stays below on [0, T]."""
    h = traj.norms.get("h")
    if h is None or np.any(np.isnan(h)):
        raise ValueError("trajectory carries no h records")
    n = _first_crossing(h, kappa)
    return None if n is None else float(traj.times[n])


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
        # h(0) = 0 < kappa, so a crossing is a step after the rung's start
        crossing = _first_crossing(traj.norms["h"], kappa)
        exit_idx = n_rem if crossing is None else crossing
        rungs.append(RungReport(
            rung_index + 1, kappa,
            None if crossing is None else (steps_done + exit_idx) * solver.dt,
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
    return [float(j) for j in range(1, math.ceil(kappa))] + [float(kappa)]


def _exit_steps(scenario, levels: Sequence[float], n_paths: int):
    """Step paths 0..n_paths-1 up the threshold ladder `levels` as one batch.

    Each path climbs by direct coupled stepping: on [0, tau) the truncated
    fixed point equals the plain coupled dynamics (phi = 1 below the
    threshold).  h restarts from zero at each rung, and rung r of path i
    draws its noise from the (seed, channel, i, r) substreams at its own
    local step.  A path stops at its first rung that does not exit before
    the horizon, when it exits at the horizon step, or after its last rung.
    The paths step as one batch of `dynamics._run`; each ends within the
    batch contract of `dynamics._newton` of its lone end state and crosses
    where its lone run's recorded h column reaches the level
    (`_first_crossing`).

    Returns (crossings, end): crossings[i, r] is the global step at which
    path i's h reached levels[r] (-1 if it did not), and end is the batch
    state holding each path as it stopped.
    """
    solver, cutoff = scenario.solver, scenario.cutoff
    thresholds = np.asarray(levels, dtype=float)
    crossings = np.full((n_paths, len(levels)), -1)
    sums = _HSums(cutoff, solver.dt, n_paths)

    def observe(n, u, v, live, rung, clipped):  # h(0) = 0 is below every level
        crossed = live[sums.h(live) >= thresholds[rung[live]]]
        crossings[crossed, rung[crossed]] = n
        # a crossing before the horizon climbs to the next rung, if any
        climbs = (rung[crossed] + 1 < len(levels)) & (n < solver.n_steps)
        sums.total[:, crossed[climbs]] = 0.0
        live = live[~np.isin(live, crossed[~climbs])]
        if n < solver.n_steps:  # the left-endpoint rates of the next step
            sums.add(u[live], v[live], live)
        return live, crossed[climbs]

    basis, spec = scenario.basis, scenario.noise
    step = _stepper(step_coupled, basis, scenario.model, solver, spec, None,
                    None)
    return crossings, _run(basis, solver, scenario.u0, scenario.v0,
                           np.arange(n_paths), step, spec, observe)


def exit_tail(scenario, kappas: Sequence[float],
              n_paths: int) -> list[ExitProbeResult]:
    """Monte-Carlo estimates of P(tau_bar_kappa < T), one for each kappa.

    tau_bar is the sum of the per-rung exit times over the threshold ladder
    1, 2, ..., kappa; below each threshold the truncated dynamics equal the
    plain coupled dynamics (phi = 1), so each rung is sampled by direct
    stepping, all paths at once.  Rung substreams are keyed by (path, rung),
    so a path crosses a level at the same step in every ladder holding it,
    and one `_exit_steps` pass serves every ladder that is a prefix of the
    pass's (a non-integer kappa heads its own); the tail probability is
    monotone in kappa by construction, as the Markov bound requires.  A path
    that exits its last rung at the horizon step is not counted, and a
    ladder too long to exit inside the horizon counts none unstepped.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    for k in kappas:
        if not (k > 0 and math.isfinite(k)):
            raise ValueError(f"kappa must be positive and finite, got {k}")
    n_total = scenario.solver.n_steps
    # a path crosses at most one level per step and none at step 0, so the
    # last of n_total or more levels is never crossed inside (0, T)
    ladders = [tuple(_exit_ladder(k)) if math.ceil(k) < n_total else None
               for k in kappas]
    exits = {None: 0}  # ladder -> paths crossing its last level inside (0, T)
    for top in sorted(set(ladders) - {None}, key=len, reverse=True):
        if top not in exits:  # one pass serves every prefix of `top`
            crossings, _ = _exit_steps(scenario, top, n_paths)
            for lad in (lad for lad in ladders
                        if lad is not None and top[:len(lad)] == lad):
                at = crossings[:, len(lad) - 1]
                exits[lad] = int(np.count_nonzero((at > 0) & (at < n_total)))
    results = []
    for kappa, ladder in zip(kappas, ladders):
        p_hat = exits[ladder] / n_paths
        stderr = float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_paths))
        results.append(ExitProbeResult(kappa=float(kappa), n_paths=n_paths,
                                       p_hat=p_hat, stderr=stderr,
                                       exit_counts=exits[ladder]))
    return results


def exit_prob_estimate(scenario, kappa: float, n_paths: int) -> ExitProbeResult:
    """Monte-Carlo estimate of P(tau_bar_kappa < T); see `exit_tail`."""
    return exit_tail(scenario, [kappa], n_paths)[0]


def fit_tail_constant(kappas: Sequence[float], p_hats: Sequence[float]) -> float:
    """Smallest c with c/kappa >= p_hat for every estimate (reported fit)."""
    return float(max(k * p for k, p in zip(kappas, p_hats)))
