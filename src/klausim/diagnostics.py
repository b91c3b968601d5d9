"""Hypothesis validation and statistical monitors for simulation runs.

The parameter inequalities gate which (d, gamma, integrability) combinations
the moment bounds and the uniqueness metric are proved for; they are checked
clause by clause with slack values so a perturbed parameter names exactly
the inequality it breaks.  The Monte-Carlo monitors estimate the moment
quantities whose finiteness the theory guarantees and report the empirical
constants; no literature constant is ever asserted.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .basis import SpectralBasis
from .dynamics import ModelConfig, Trajectory, _run_paths
from .fields import _lp_rows, gradient_squared, lp_norm, sobolev_norm
from .fixedpoint import FrozenPair, picard_solve
from .noise import generate_path


@dataclass(frozen=True)
class HypothesisParams:
    """Index set of the existence and uniqueness parameter hypotheses."""

    d: int = 1
    gamma: float = 3.0
    m: float = 6.0
    m0: float = 12.0
    p_star: float = 8.0
    p0_star: float = 8.0
    rho: float = 0.4
    l: float = 12.0
    delta0: float = 0.05


@dataclass
class Clause:
    name: str
    ok: bool
    slack: float
    detail: str

    def row(self) -> str:
        return (
            f"{self.name}\t{'pass' if self.ok else 'FAIL'}"
            f"\t{self.slack:+.6g}\t{self.detail}"
        )


@dataclass
class HypothesisReport:
    params: HypothesisParams
    existence: list[Clause]
    uniqueness: list[Clause]
    uniqueness_dimension_feasible: bool

    @property
    def existence_ok(self) -> bool:
        return all(c.ok for c in self.existence)

    @property
    def uniqueness_ok(self) -> bool:
        return self.existence_ok and all(c.ok for c in self.uniqueness)

    def failing(self) -> list[str]:
        return [c.name for c in self.existence + self.uniqueness if not c.ok]

    def __str__(self) -> str:
        lines = ["clause\tstatus\tslack\tdetail"]
        lines += [c.row() for c in self.existence]
        lines += [c.row() for c in self.uniqueness]
        lines.append(f"existence_ok: {self.existence_ok}")
        lines.append(f"uniqueness_ok: {self.uniqueness_ok}")
        lines.append(
            "uniqueness_dimension_feasible: "
            f"{self.uniqueness_dimension_feasible}"
        )
        return "\n".join(lines)


def validate_hypotheses(hp: HypothesisParams) -> HypothesisReport:
    """Evaluate every parameter inequality with its slack.

    The l-clause threshold 1 + 1/(1 - d/2 - rho) is evaluated with signed
    arithmetic so that an out-of-range rho fails only its own clause.
    For d in {2, 3} the uniqueness requirement rho >= d/2 - 1/2 contradicts
    the existence window rho < 1 - d/2; the report carries that verdict.
    """
    e = []
    e.append(Clause(
        "dimension", hp.d in (1, 2, 3), 0.0, f"d={hp.d} in {{1,2,3}}"
    ))
    e.append(Clause(
        "gamma_gt_2", hp.gamma > 2.0, hp.gamma - 2.0, f"gamma={hp.gamma} > 2"
    ))
    e.append(Clause("m_gt_2", hp.m > 2.0, hp.m - 2.0, f"m={hp.m} > 2"))
    m0_floor = 2.0 * (hp.gamma + 1.0) / hp.gamma
    e.append(Clause(
        "m0_lower", hp.m0 > m0_floor, hp.m0 - m0_floor,
        f"m0={hp.m0} > 2(gamma+1)/gamma={m0_floor:.6g}",
    ))
    lhs = hp.d / 2.0 - hp.rho
    rhs = 2.0 / hp.m + hp.d / hp.m0
    e.append(Clause(
        "regularity_window", lhs <= rhs, rhs - lhs,
        f"d/2-rho={lhs:.6g} <= 2/m+d/m0={rhs:.6g}",
    ))
    rho_cap = 1.0 - hp.d / 2.0
    e.append(Clause(
        "rho_upper", hp.rho < rho_cap, rho_cap - hp.rho,
        f"rho={hp.rho} < 1-d/2={rho_cap:.6g}",
    ))
    e.append(Clause(
        "p_star_min", hp.p_star >= 2.0, hp.p_star - 2.0, f"p*={hp.p_star} >= 2"
    ))
    e.append(Clause(
        "p0_star_min", hp.p0_star >= 2.0, hp.p0_star - 2.0,
        f"p0*={hp.p0_star} >= 2",
    ))
    s = 1.0 / hp.p_star + 2.0 / hp.m
    e.append(Clause(
        "time_int_u", s < 1.0, 1.0 - s, f"1/p*+2/m={s:.6g} < 1"
    ))
    s = 2.0 / hp.m0 + 1.0 / hp.p0_star
    cap = hp.gamma / (hp.gamma + 1.0)
    e.append(Clause(
        "time_int_v", s < cap, cap - s,
        f"2/m0+1/p0*={s:.6g} < gamma/(gamma+1)={cap:.6g}",
    ))
    gap = 1.0 - hp.d / 2.0 - hp.rho
    l_floor = 1.0 + (1.0 / gap if gap != 0.0 else math.inf)
    e.append(Clause(
        "l_lower", hp.l > l_floor, hp.l - l_floor,
        f"l={hp.l} > 1+(1-d/2-rho)^-1={l_floor:.6g}",
    ))
    e.append(Clause(
        "delta0_upper", hp.delta0 < 1.0 / hp.m0, 1.0 / hp.m0 - hp.delta0,
        f"delta0={hp.delta0} < 1/m0={1.0 / hp.m0:.6g}",
    ))

    u = []
    u.append(Clause(
        "uniq_delta0",
        0.0 < hp.delta0 < 1.0 / hp.gamma,
        min(hp.delta0, 1.0 / hp.gamma - hp.delta0),
        f"delta0={hp.delta0} in (0, 1/gamma={1.0 / hp.gamma:.6g})",
    ))
    rho_floor = hp.d / 2.0 - 0.5
    u.append(Clause(
        "uniq_rho", hp.rho >= rho_floor, hp.rho - rho_floor,
        f"rho={hp.rho} >= d/2-1/2={rho_floor:.6g}",
    ))
    # rho >= d/2-1/2 and rho < 1-d/2 admit a common rho only for d = 1
    feasible = rho_floor < 1.0 - hp.d / 2.0
    return HypothesisReport(
        params=hp, existence=e, uniqueness=u,
        uniqueness_dimension_feasible=feasible,
    )


# ------------------------------------------------------------ energy ledger


@dataclass
class EnergyLedger:
    """Accumulated quantities behind the water-field moment bound."""

    times: np.ndarray
    sup_term: np.ndarray      # running sup of |u|_{L^(p+1)}^(p+1)
    dissipation: np.ndarray   # int int |u|^(p+gamma-2) |grad u|^2
    coupling: np.ndarray      # chi int int |u|^(p+1) v^2

    def combined_statistic(self, model: ModelConfig, p: float) -> float:
        """Left-hand side of the moment bound with its standard weights."""
        return float(_moment_lhs(model, p, self.sup_term[-1],
                                 self.dissipation[-1], self.coupling[-1]))


def _moment_lhs(model: ModelConfig, p: float, sup_term, dissipation, coupling):
    """sup |u|^(p+1) + gamma p (p+1) r_u dissipation + (p+1) coupling."""
    return (
        sup_term
        + model.gamma * p * (p + 1.0) * model.r_u * dissipation
        + (p + 1.0) * coupling
    )


def _energy_rates(basis: SpectralBasis, u, v, p: float, model: ModelConfig):
    """The moment-bound integrands of each row of the stacks u, v (rows,) +
    grid: |u|_{L^(p+1)}^(p+1) (a list), and the means of
    |u|^(p+gamma-2) |grad u|^2 and of |u|^(p+1) v^2 (arrays).  Each entry is
    bit for bit its lone field's: rows reduce as lone fields do and the
    power of the norm is taken on a scalar."""
    n = basis.grid_size
    sup = [x ** (p + 1.0) for x in _lp_rows(u, p + 1.0)]
    diss = np.abs(u) ** (p + model.gamma - 2.0) * gradient_squared(basis, u)
    coup = np.abs(u) ** (p + 1.0) * v**2
    return (sup, np.add.reduce(diss.reshape(len(u), n), axis=-1) / n,
            np.add.reduce(coup.reshape(len(u), n), axis=-1) / n)


def energy_monitor(
    traj: Trajectory, p: float, model: ModelConfig, basis: SpectralBasis
) -> EnergyLedger:
    """Per-record ledger of the three moment-bound accumulators.

    Requires full snapshots (snapshot stride 1); integrals use left-endpoint
    quadrature in time and the rectangle rule in space.  The recorded times
    are the rows of `_energy_rates`; the accumulators add left to right.
    """
    if p < 1.0:
        raise ValueError(f"p must be at least 1, got {p}")
    if traj.u_snapshots.shape[0] != traj.times.size:
        raise ValueError("energy monitor needs full snapshots (stride 1)")
    n = traj.times.size
    dt = float(traj.times[1] - traj.times[0]) if n > 1 else 0.0
    sup, diss, coup = _energy_rates(basis, traj.u_snapshots, traj.v_snapshots,
                                    p, model)
    dissipation = np.zeros(n)
    coupling = np.zeros(n)
    np.cumsum(dt * diss[:-1], out=dissipation[1:])
    np.cumsum(dt * model.chi * coup[:-1], out=coupling[1:])
    return EnergyLedger(
        times=traj.times.copy(), sup_term=np.maximum.accumulate(sup),
        dissipation=dissipation, coupling=coupling,
    )


# --------------------------------------------------------- ensemble moments


@dataclass
class Statistic:
    mean: float
    stderr: float
    n: int


@dataclass
class EnsembleReport:
    p: float
    n_paths: int
    stats: dict[str, Statistic]
    c0_ratio: float
    c2_ratio: float

    def __str__(self) -> str:
        lines = [f"paths: {self.n_paths}", f"p: {self.p}"]
        for name, s in self.stats.items():
            lines.append(f"{name}: {s.mean:.8g} (s.e. {s.stderr:.3g}, n={s.n})")
        lines.append(f"empirical_C0: {self.c0_ratio:.8g}")
        lines.append(f"empirical_C2: {self.c2_ratio:.8g}")
        return "\n".join(lines)


_STAT_NAMES = (
    "sup_u_lp", "dissipation", "coupling", "sup_v_hrho", "v_smoothing"
)


def _chunk_statistics(scenario, p: float, indices: np.ndarray) -> np.ndarray:
    """The _STAT_NAMES of paths `indices` (an int array), one row each in
    that order.

    The paths observe one `_run_paths` batch, so every row stays within the
    batch contract of `dynamics._newton` of the path run alone.  The
    statistics stream: each record adds its per-row rates, and no snapshot
    is kept.
    """
    basis, model, rho, m0 = (scenario.basis, scenario.model,
                             scenario.hypothesis.rho, scenario.hypothesis.m0)
    dt, n_steps = scenario.solver.dt, scenario.solver.n_steps
    # the _STAT_NAMES rows; the smoothing sum before its power
    acc = np.zeros((len(_STAT_NAMES), len(indices)))

    def record(n, u, v, live, rung):
        sup, diss, coup = _energy_rates(basis, u, v, p, model)
        np.maximum(acc[0], sup, out=acc[0])
        np.maximum(acc[3], [x ** m0 for x in
                            sobolev_norm(basis, v, rho).tolist()], out=acc[3])
        if n < n_steps:
            acc[1] += dt * diss
            acc[2] += dt * model.chi * coup
            acc[4] += [dt * x ** 2
                       for x in sobolev_norm(basis, v, rho + 1.0).tolist()]
        return live, ()

    _run_paths(scenario, indices, record)
    bad = ~np.isfinite(acc).all(axis=0)
    if bad.any():
        raise FloatingPointError(
            f"non-finite path statistic for path {indices[bad][0]} "
            f"(seed {scenario.noise.seed})"
        )
    acc[4] = [x ** (m0 / 2.0) for x in acc[4].tolist()]
    return acc.T.copy()  # C order: the report's means add rows in order


# an ensemble steps its paths in contiguous chunks of this many, so a row
# depends on the index count and not on the worker count
_CHUNK_PATHS = 50


def _ensemble_rows(scenario, p: float, indices, workers: int) -> np.ndarray:
    """_STAT_NAMES of each path of `indices`, row j for path indices[j].
    The paths split into contiguous chunks of _CHUNK_PATHS, each stepped as
    one batch, serially or on up to `workers` processes: a row depends on
    its chunk, within the batch contract of `dynamics._newton`, but not on
    the workers, so a pooled run equals a serial one bit for bit."""
    chunk_stats = partial(_chunk_statistics, scenario, p)
    indices = np.asarray(indices, dtype=int)
    chunks = [indices[i:i + _CHUNK_PATHS]
              for i in range(0, len(indices), _CHUNK_PATHS)] or [indices]
    workers = max(1, min(workers, len(chunks)))
    if workers == 1:
        return np.concatenate([chunk_stats(c) for c in chunks])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(chunk_stats, chunks)))


def ensemble_moments(scenario, p: float, n_paths: int,
                     workers: int = 1) -> EnsembleReport:
    """Monte-Carlo moment estimates over independent noise substreams.

    Per-path statistics are keyed by path index, so the estimate is
    invariant under reordering and under how paths are distributed across
    workers.  Reported C0/C2 are the bound statistics divided by their
    initial-data scalings: empirical constants, not assertions.
    """
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    return _ensemble_report(
        scenario, p, _ensemble_rows(scenario, p, range(n_paths), workers))


def _ensemble_report(scenario, p: float, rows: np.ndarray) -> EnsembleReport:
    """The report of `rows`, the _STAT_NAMES rows of its paths, C order."""
    hp = scenario.hypothesis
    means = rows.mean(axis=0)
    stderrs = rows.std(axis=0, ddof=1) / np.sqrt(len(rows))
    stats = {
        name: Statistic(float(means[i]), float(stderrs[i]), len(rows))
        for i, name in enumerate(_STAT_NAMES)
    }
    lhs_u = _moment_lhs(scenario.model, p, means[0], means[1], means[2])
    u0_scale = lp_norm(scenario.u0, p + 1.0) ** (p + 1.0) + 1.0
    c0 = float(lhs_u / u0_scale)
    lhs_v = means[3] + means[4]
    v0_scale = (
        1.0
        + sobolev_norm(scenario.basis, scenario.v0, hp.rho) ** hp.m0
        + lp_norm(scenario.u0, 2.0) ** hp.l
    )
    c2 = float(lhs_v / v0_scale)
    return EnsembleReport(
        p=p, n_paths=len(rows), stats=stats, c0_ratio=c0, c2_ratio=c2
    )


# ------------------------------------------------------------- uniqueness


@dataclass
class UniquenessReport:
    distance: float
    negative_control: Optional[float]
    tol: float
    iterations: tuple[int, int]

    @property
    def indistinguishable(self) -> bool:
        return self.distance <= self.tol

    def __str__(self) -> str:
        lines = [
            f"D: {self.distance:.6e}",
            f"tolerance: {self.tol:.1e}",
            f"indistinguishable: {self.indistinguishable}",
            f"picard_iterations: {self.iterations[0]}, {self.iterations[1]}",
        ]
        if self.negative_control is not None:
            lines.append(f"negative_control_D: {self.negative_control:.6e}")
        return "\n".join(lines)


def weak_norm_distance(
    basis: SpectralBasis, traj_a: Trajectory, traj_b: Trajectory, delta0: float
) -> float:
    """sup_t |u1-u2|_{H^-1} + sup_t |v1-v2|_{H^-delta0} on the shared grid."""
    du = sobolev_norm(basis, traj_a.u_snapshots - traj_b.u_snapshots, -1.0)
    dv = sobolev_norm(basis, traj_a.v_snapshots - traj_b.v_snapshots, -delta0)
    return float(du.max() + dv.max())


def uniqueness_experiment(
    scenario, tol: float = 1e-6, picard_tol: float = 1e-9,
    control_seed: Optional[int] = None,
) -> UniquenessReport:
    """Same data, same noise, two different fixed-point starting iterates.

    Run A starts from the default reaction-free sweep, run B from the pair
    frozen at the initial data (eta_n = u0, xi_n = v0 at every step); both
    converge to the truncated-system solution, and the weak-norm distance D
    between the results is the pathwise-uniqueness surrogate.  (The zero
    pair is no second start: its first sweep is run A's start, so run B
    would retrace run A's orbit one sweep behind.)
    A control run with a different noise seed reports how far apart two
    genuinely different paths sit in the same metric.
    """
    sc = scenario
    hp = sc.hypothesis
    if sc.basis.dimension != 1:
        raise ValueError("the uniqueness experiment is a d=1 construction")
    report = validate_hypotheses(hp)
    if not report.uniqueness_ok:
        raise ValueError(
            "parameters violate the uniqueness hypotheses: "
            + ", ".join(report.failing())
        )
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    kappa = sc.cutoff.kappa
    run_a = picard_solve(
        sc.u0, sc.v0, kappa, path, sc.model, sc.solver, sc.basis, sc.cutoff,
        tol=picard_tol,
    )
    n_times = sc.solver.n_steps + 1
    data_pair = FrozenPair(eta=np.repeat(sc.u0[None], n_times, axis=0),
                           xi=np.repeat(sc.v0[None], n_times, axis=0),
                           dt=sc.solver.dt)
    run_b = picard_solve(
        sc.u0, sc.v0, kappa, path, sc.model, sc.solver, sc.basis, sc.cutoff,
        tol=picard_tol, initial_pair=data_pair,
    )
    distance = weak_norm_distance(
        sc.basis, run_a.trajectory, run_b.trajectory, hp.delta0
    )
    control = None
    if control_seed is not None:
        other = sc.with_seed(control_seed)
        path_c = generate_path(
            other.noise, sc.basis, sc.solver.dt, sc.solver.n_steps
        )
        run_c = picard_solve(
            sc.u0, sc.v0, kappa, path_c, sc.model, sc.solver, sc.basis,
            sc.cutoff, tol=picard_tol,
        )
        control = weak_norm_distance(
            sc.basis, run_a.trajectory, run_c.trajectory, hp.delta0
        )
    return UniquenessReport(
        distance=distance,
        negative_control=control,
        tol=tol,
        iterations=(run_a.iterations, run_b.iterations),
    )


# ------------------------------------------------------------ nonnegativity


@dataclass
class NonnegReport:
    worst_min_u: float
    worst_min_v: float
    points_below_u: int
    points_below_v: int
    threshold: float = -1e-6

    @property
    def ok(self) -> bool:
        return (
            self.worst_min_u >= self.threshold
            and self.worst_min_v >= self.threshold
        )

    def __str__(self) -> str:
        return (
            f"worst_min_u: {self.worst_min_u:.3e}\n"
            f"worst_min_v: {self.worst_min_v:.3e}\n"
            f"points_below_threshold_u: {self.points_below_u}\n"
            f"points_below_threshold_v: {self.points_below_v}\n"
            f"nonneg_ok: {self.ok}"
        )


def nonneg_monitor(traj: Trajectory, threshold: float = -1e-6) -> NonnegReport:
    """Positivity audit from the per-step minima and recorded snapshots."""
    return NonnegReport(
        worst_min_u=float(traj.norms["min_u"].min()),
        worst_min_v=float(traj.norms["min_v"].min()),
        points_below_u=int((traj.u_snapshots < threshold).sum()),
        points_below_v=int((traj.v_snapshots < threshold).sum()),
        threshold=threshold,
    )
