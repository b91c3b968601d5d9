"""The four benchmark workloads, their output checks and their work units.

Each workload is a list of ``--override`` items on ``cli.default_config()``;
``run.seed`` comes from the benchmark seed.  ``cli.build_scenario`` builds
the inputs and one public entry point runs.  Every call goes through a
module attribute (``fixedpoint.exit_prob_estimate``, not a bound name), so
the tracer's rebinding sees it.

Why these four (also recorded in BENCHMARK.json):

* ``mc_exit`` -- many short d=1 paths with ragged exit times; cost is
  interpreter overhead per step, a 32x32 dense LU per Newton iteration and a
  SeedSequence + Philox rebuilt on every ``sample_increments`` call.
* ``field_2d`` -- a five-step d=2 Neumann N=64 path with 1024 modes: the
  dense mode table (34 MB) dominates through analyze/synthesize inside
  GMRES-Newton.  The only workload on the Neumann boundary and on GMRES.
* ``glue_ladder`` -- Picard sweeps of the frozen operator along a kappa
  ladder, stored-noise re-synthesis on every sweep, a decoupled tail and
  the two output writers.
* ``ensemble_pool`` -- a moment ensemble on a two-process pool, the only
  workload on worker processes and on ``energy_monitor``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from klausim import cli, diagnostics, dynamics, fixedpoint, noise

# criterion-08 physics (klausim.scenarios.exit_scenario), as config overrides
EXIT_PHYSICS = [
    "grid.d=1", "grid.boundary=periodic", "grid.modes=0",
    "solver.dt=0.002", "solver.snapshot_stride=1",
    "model.r_v=0.1", "model.chi=0.5",
    "model.sigma1=0.25", "model.sigma2=0.25",
    "noise.c1=0.6", "noise.c2=0.6",
    "initial.preset=bump",
    "initial.u_base=0.9", "initial.u_amp=0.5",
    "initial.v_base=0.8", "initial.v_amp=0.4", "initial.v_center=0.35",
]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


class Workload:
    """One named workload: config, entry call, checks and work units."""

    name = ""
    default_seed = 0
    overrides: list[str] = []
    toy_overrides: list[str] = []
    pooled = False          # runs on worker processes
    # reference key -> relative tolerance (0 means exact)
    reference_tol: dict[str, float] = {}

    def config(self, seed: int, toy: bool):
        cfg = cli.default_config()
        items = self.overrides + (self.toy_overrides if toy else [])
        cli.apply_overrides(cfg, items + [f"run.seed={seed}"])
        return cfg

    def run(self, sc, cfg, workers: int, workdir: Path):
        raise NotImplementedError

    def units(self, sc, result) -> tuple[int, int]:
        """(paths, time steps) one call advances."""
        raise NotImplementedError

    def digest(self, result) -> str:
        raise NotImplementedError

    def invariants(self, sc, cfg, result) -> list[str]:
        raise NotImplementedError

    def reference_values(self, result) -> dict:
        raise NotImplementedError

    def compare_reference(self, got: dict, want: dict) -> list[str]:
        errors = []
        for key, rtol in self.reference_tol.items():
            g, w = got[key], want[key]
            if isinstance(w, list):
                ok = len(g) == len(w) and all(
                    (x is None and y is None)
                    or (x is not None and y is not None and _rel_close(x, y, rtol))
                    for x, y in zip(g, w)
                )
            else:
                ok = g == w if rtol == 0 else _rel_close(g, w, rtol)
            if not ok:
                errors.append(f"reference {key}: got {g!r}, recorded {w!r}")
        return errors

    def output_bytes(self, result) -> dict:
        """Bytes each output writer produced in one call."""
        return {}

    def extra_checks(self, workers: int) -> list[str]:
        """Checks that need their own runs (the pool against a serial run)."""
        return []


def _final_norms(traj) -> dict:
    return {
        f"final_{k}": float(traj.norms[k][-1])
        for k in ("u_l2", "u_lgamma1", "v_hrho", "min_u", "min_v")
    }


class McExit(Workload):
    name = "mc_exit"
    default_seed = 808
    # a single rung below 1: about a third of the paths exit, at ragged
    # times, and each call stays near a second so a run holds many calls
    kappa = 0.75
    n_paths = 100
    overrides = EXIT_PHYSICS + ["grid.n=32", "solver.t_final=0.08"]
    toy_overrides = ["solver.t_final=0.01"]
    reference_tol = {"exit_counts": 0, "p_hat": 0}

    def run(self, sc, cfg, workers, workdir):
        return fixedpoint.exit_prob_estimate(sc, self.kappa, self.n_paths)

    def units(self, sc, result):
        # horizon steps: a path that exits stops early
        return result.n_paths, result.n_paths * sc.solver.n_steps

    def digest(self, result):
        return f"{result.exit_counts}:{result.p_hat!r}:{result.stderr!r}"

    def invariants(self, sc, cfg, result):
        errors = []
        if not 0.0 <= result.p_hat <= 1.0:
            errors.append(f"p_hat={result.p_hat} outside [0, 1]")
        if result.n_paths != self.n_paths:
            errors.append(f"n_paths={result.n_paths}, asked {self.n_paths}")
        if result.p_hat != result.exit_counts / result.n_paths:
            errors.append("p_hat is not exit_counts / n_paths")
        if not (np.isfinite(result.stderr) and result.stderr >= 0.0):
            errors.append(f"stderr={result.stderr} not finite and >= 0")
        return errors

    def reference_values(self, result):
        return {"exit_counts": int(result.exit_counts),
                "p_hat": float(result.p_hat)}


class Field2D(Workload):
    name = "field_2d"
    default_seed = 202
    # 1024 of the 4096 modes: the 34 MB table stays in the host's shared
    # cache.  The full 134 MB table streams from memory, whose speed on a
    # shared host moved a run's median call time by 20 to 30 %.
    overrides = [
        "grid.d=2", "grid.boundary=neumann", "grid.n=64", "grid.modes=1024",
        "solver.dt=0.001", "solver.t_final=0.005", "solver.snapshot_stride=1",
    ]
    toy_overrides = ["solver.t_final=0.002"]
    reference_tol = {"final_u_l2": 1e-9, "final_u_lgamma1": 1e-9,
                     "final_v_hrho": 1e-9, "final_min_u": 1e-9,
                     "final_min_v": 1e-9, "mean_u": 1e-12}

    def run(self, sc, cfg, workers, workdir):
        path = noise.generate_path(
            sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps
        )
        traj = dynamics.simulate_path(
            sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path,
            mode="coupled", cutoff=sc.cutoff,
        )
        return path, traj

    def units(self, sc, result):
        return 1, sc.solver.n_steps

    def digest(self, result):
        _, traj = result
        return _sha(traj.norm_table(), traj.u_snapshots, traj.v_snapshots)

    def invariants(self, sc, cfg, result):
        """Porous-medium diffusion is mean-free: each step moves mean(u) by
        exactly the mean of its explicit terms (reaction and noise)."""
        path, traj = result
        m, dt = sc.model, sc.solver.dt
        errors = []
        if traj.u_snapshots.shape[0] != sc.solver.n_steps + 1:
            return ["field_2d needs a snapshot per step"]
        for n in range(sc.solver.n_steps):
            u, v = traj.u_snapshots[n], traj.v_snapshots[n]
            rhs = u + dt * (-m.chi * u * v * v + m.k - m.f * u)
            if m.sigma1 != 0.0:
                rhs = rhs + m.sigma1 * u * path.field_increment(1, n)
            drift = abs(np.mean(traj.u_snapshots[n + 1]) - np.mean(rhs))
            if drift > 1e-13 * (1.0 + np.abs(u).max()):
                errors.append(f"step {n}: mean(u) off its balance by {drift:.3e}")
        if not (np.isfinite(traj.u_snapshots).all()
                and np.isfinite(traj.v_snapshots).all()):
            errors.append("non-finite field")
        return errors

    def reference_values(self, result):
        _, traj = result
        vals = _final_norms(traj)
        vals["mean_u"] = float(np.mean(traj.u_snapshots[-1]))
        return vals


class GlueLadder(Workload):
    name = "glue_ladder"
    default_seed = 808
    # weak default noise: every seed exits all three rungs near the same
    # times, so the work per call hardly depends on the seed
    overrides = EXIT_PHYSICS + [
        "grid.n=64", "solver.t_final=0.25", "run.kappa_ladder=0.4,0.7,1.0",
        "model.sigma1=0.05", "model.sigma2=0.05",
        "noise.c1=0.1", "noise.c2=0.1",
    ]
    toy_overrides = ["grid.n=16", "solver.t_final=0.1",
                     "run.kappa_ladder=0.5,1"]
    # Picard stops at picard_tol, so a rounding change may shift the final
    # iterate by up to about that much
    reference_tol = {"exit_times": 1e-9, "iterations": 0,
                     "used_decoupled_tail": 0, "final_u_l2": 1e-6,
                     "final_u_lgamma1": 1e-6, "final_v_hrho": 1e-6,
                     "final_min_u": 1e-6, "final_min_v": 1e-6}

    def run(self, sc, cfg, workers, workdir):
        ladder = [float(x) for x in cfg.get("run", "kappa_ladder").split(",")]
        result = fixedpoint.glue_simulate(
            sc.u0, sc.v0, ladder, sc.model, sc.solver, sc.basis, sc.noise,
            sc.cutoff, tol=cfg.get("run", "picard_tol"),
            max_iter=cfg.get("run", "picard_max_iter"),
        )
        header = f"# klausim glue benchmark seed={cfg.get('run', 'seed')}\n"
        cli.write_norm_series(workdir / "norms.tsv", result.trajectory, header)
        cli.write_snapshots(workdir / "snapshots.bin", result.trajectory,
                            sc.basis)
        return result, workdir

    def units(self, sc, result):
        return 1, sc.solver.n_steps

    def digest(self, result):
        res, workdir = result
        traj = res.trajectory
        rungs = ";".join(r.row() for r in res.rungs)
        files = hashlib.sha256(
            (workdir / "snapshots.bin").read_bytes()
            + (workdir / "norms.tsv").read_bytes()
        ).hexdigest()
        return _sha(traj.norm_table(), traj.u_snapshots) + rungs + files

    def output_bytes(self, result):
        _, workdir = result
        return {"write_norm_series": (workdir / "norms.tsv").stat().st_size,
                "write_snapshots": (workdir / "snapshots.bin").stat().st_size}

    def invariants(self, sc, cfg, result):
        res, workdir = result
        traj = res.trajectory
        tol = cfg.get("run", "picard_tol")
        dt = sc.solver.dt
        n_total = sc.solver.n_steps
        errors = []
        for r in res.rungs:
            if not r.final_residual <= tol:
                errors.append(f"rung {r.rung}: residual {r.final_residual:.3e}"
                              f" > picard_tol {tol:.1e}")
        # one record per step: each junction state appears exactly once
        if traj.times.size != n_total + 1:
            errors.append(f"{traj.times.size} records for {n_total} steps")
        elif not np.allclose(np.diff(traj.times), dt, rtol=1e-9, atol=0.0):
            errors.append("glued time grid is not uniform")
        h = traj.norms["h"]
        start = 0
        for r in res.rungs:
            if r.exit_time is None:
                break
            j = int(round(r.exit_time / dt))
            # the rung hands off at its first crossing; the next rung restarts h
            if not h[j] >= r.kappa or np.any(h[start + 1:j] >= r.kappa):
                errors.append(f"rung {r.rung}: junction {j} is not the first "
                              f"crossing of kappa={r.kappa}")
            if j < n_total and not h[j + 1] < h[j]:
                errors.append(f"rung {r.rung}: h does not restart after {j}")
            start = j
        # the written files round-trip the trajectory exactly
        _, times, u, v = cli.read_snapshots(workdir / "snapshots.bin")
        if not (np.array_equal(times, traj.snapshot_times)
                and np.array_equal(u, traj.u_snapshots)
                and np.array_equal(v, traj.v_snapshots)):
            errors.append("snapshots.bin does not round-trip the trajectory")
        table = np.loadtxt(workdir / "norms.tsv", comments="#", ndmin=2)
        if not np.array_equal(table, traj.norm_table()):
            errors.append("norms.tsv does not round-trip the norm table")
        return errors

    def reference_values(self, result):
        res, _ = result
        vals = _final_norms(res.trajectory)
        vals["exit_times"] = [r.exit_time for r in res.rungs]
        vals["iterations"] = [r.picard_iterations for r in res.rungs]
        vals["used_decoupled_tail"] = bool(res.used_decoupled_tail)
        return vals


class EnsemblePool(Workload):
    name = "ensemble_pool"
    default_seed = 111
    pooled = True
    n_paths = 100
    overrides = [
        "grid.d=1", "grid.boundary=periodic", "grid.n=64", "grid.modes=0",
        "solver.dt=0.001", "solver.t_final=0.02", "solver.snapshot_stride=1",
        "model.r_v=0.1", "model.sigma1=0.2", "model.sigma2=0.2",
        "noise.c1=0.2", "noise.c2=0.2",
        "initial.preset=bump",
        "initial.u_base=0.2", "initial.u_amp=0.2",
        "initial.v_base=0.15", "initial.v_amp=0.15", "initial.v_center=0.3",
    ]
    toy_overrides = ["grid.n=16", "solver.t_final=0.003"]
    reference_tol = {"c0_ratio": 1e-9, "c2_ratio": 1e-9,
                     "sup_u_lp": 1e-9, "dissipation": 1e-9,
                     "coupling": 1e-9, "sup_v_hrho": 1e-9,
                     "v_smoothing": 1e-9}

    def run(self, sc, cfg, workers, workdir):
        return diagnostics.ensemble_moments(
            sc, p=1.0, n_paths=self.n_paths, workers=workers
        )

    def units(self, sc, result):
        return result.n_paths, result.n_paths * sc.solver.n_steps

    def digest(self, result):
        vals = [result.c0_ratio, result.c2_ratio]
        for s in result.stats.values():
            vals += [s.mean, s.stderr]
        return _sha(vals)

    def invariants(self, sc, cfg, result):
        errors = []
        for name, s in result.stats.items():
            if not (np.isfinite(s.mean) and np.isfinite(s.stderr)):
                errors.append(f"statistic {name} not finite")
        for name in ("c0_ratio", "c2_ratio"):
            val = getattr(result, name)
            if not (np.isfinite(val) and val > 0.0):
                errors.append(f"{name}={val} not finite and positive")
        if result.n_paths != self.n_paths:
            errors.append(f"n_paths={result.n_paths}, asked {self.n_paths}")
        return errors

    def reference_values(self, result):
        vals = {"c0_ratio": result.c0_ratio, "c2_ratio": result.c2_ratio}
        vals.update({k: s.mean for k, s in result.stats.items()})
        return vals

    def extra_checks(self, workers):
        """At toy size the pooled report equals the serial one bit for bit."""
        cfg = self.config(self.default_seed, toy=True)
        sc = cli.build_scenario(cfg)
        serial = self.run(sc, cfg, 1, None)
        pooled = self.run(sc, cfg, max(workers, 2), None)
        if self.digest(serial) != self.digest(pooled):
            return ["pooled ensemble report differs from the serial one"]
        return []


WORKLOADS = {w.name: w for w in (McExit(), Field2D(), GlueLadder(),
                                   EnsemblePool())}

