"""Configuration ingestion and run orchestration.

Configs are INI-style text with nested sections; every key is schema-checked
(unknown keys are rejected, not ignored) and defaults are filled in, so the
emitted echo of a parsed config documents the complete run.  Seed precedence
is flag > config > KLAUSIM_SEED environment variable > 0, and both the seed
and its source are recorded in every output header.

Output conventions: norm time series and reports are text with a commented
metadata header sufficient to re-run the experiment; snapshots are binary
records [time f64][u N^d f64][v N^d f64], little-endian, after a one-line
text header naming d, N, boundary, and field order.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics, fixedpoint, noise as noise_mod
from .basis import build_basis, resolvable_modes
from .diagnostics import HypothesisParams, validate_hypotheses
from .dynamics import ModelConfig, NewtonError, SolverConfig, simulate_path
from .fixedpoint import CutoffParams, PicardError
from .noise import NoiseSpec, generate_path
from .scenarios import (
    Scenario,
    bump_field,
    constant_fields,
    perturbed_homogeneous_fields,
)

SEED_ENV_VAR = "KLAUSIM_SEED"

SUBCOMMANDS = (
    "simulate", "picard", "glue", "ensemble", "uniqueness", "validate",
    "noise-selftest", "pattern-demo",
)


class ConfigError(ValueError):
    pass


# schema: section -> key -> (python type, default, allowed values or None)
_SCHEMA = {
    "run": {
        "experiment": (str, "simulate", SUBCOMMANDS),
        "seed": (int, 0, None),
        "out": (str, "runs/out", None),
        "workers": (int, 1, None),
        "mode": (str, "coupled", ("coupled", "decoupled")),
        "paths": (int, 200, None),
        "p": (float, 1.0, None),
        "kappa_ladder": (str, "1,2,4,8", None),
        "picard_tol": (float, 1e-8, None),
        "picard_max_iter": (int, 60, None),
    },
    "grid": {
        "d": (int, 1, (1, 2, 3)),
        "boundary": (str, "periodic", ("periodic", "neumann")),
        "n": (int, 64, None),
        "modes": (int, 0, None),  # 0: every resolvable mode
    },
    "model": {
        "r_u": (float, 1.0, None),
        "r_v": (float, 0.05, None),
        "chi": (float, 1.0, None),
        "gamma": (float, 3.0, None),
        "k": (float, 0.0, None),
        "f": (float, 0.0, None),
        "g": (float, 0.0, None),
        "sigma1": (float, 0.05, None),
        "sigma2": (float, 0.05, None),
        "calculus": (str, "ito", ("ito", "stratonovich")),
    },
    "solver": {
        "dt": (float, 1e-3, None),
        "t_final": (float, 1.0, None),
        "newton_tol": (float, 1e-10, None),
        "newton_max_iter": (int, 50, None),
        "nonneg_policy": (str, "monitor", ("monitor", "project")),
        "snapshot_stride": (int, 10, None),
    },
    "noise": {
        "delta1": (float, 1.0, None),
        "delta2": (float, 1.0, None),
        "c1": (float, 0.1, None),
        "c2": (float, 0.1, None),
    },
    "hypothesis": {
        "m": (float, 6.0, None),
        "m0": (float, 12.0, None),
        "p_star": (float, 8.0, None),
        "p0_star": (float, 8.0, None),
        "rho": (float, 0.4, None),
        "l": (float, 12.0, None),
        "delta0": (float, 0.05, None),
    },
    "cutoff": {
        "kappa": (float, 1.0, None),
        "nu": (float, 0.0, None),  # 0: largest admissible
    },
    "initial": {
        "preset": (str, "bump",
                   ("constant", "bump", "perturbed-homogeneous", "file")),
        "u_value": (float, 0.5, None),
        "v_value": (float, 0.3, None),
        "u_base": (float, 0.1, None),
        "u_amp": (float, 0.15, None),
        "u_center": (float, 0.5, None),
        "u_width": (float, 0.15, None),
        "v_base": (float, 0.05, None),
        "v_amp": (float, 0.1, None),
        "v_center": (float, 0.4, None),
        "v_width": (float, 0.15, None),
        "perturb_amp": (float, 1e-3, None),
        "u_file": (str, "", None),
        "v_file": (str, "", None),
    },
}


@dataclass
class RunConfig:
    values: dict
    explicit: set = field(default_factory=set, compare=False)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, raw: str):
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        typ, _, allowed = _SCHEMA[section][key]
        try:
            value = typ(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {section}.{key}: {raw!r} ({exc})"
            ) from exc
        if allowed is not None and value not in allowed:
            raise ConfigError(
                f"{section}.{key} must be one of {allowed}, got {value!r}"
            )
        self.values[section][key] = value
        self.explicit.add((section, key))


def default_config() -> RunConfig:
    values = {
        section: {key: spec[1] for key, spec in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    return RunConfig(values=values)


def parse_config(text: str) -> RunConfig:
    """Parse structured config text; unknown keys are rejected by name."""
    parser = configparser.ConfigParser(
        interpolation=None, strict=True, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    cfg = default_config()
    for section in parser.sections():
        for key, raw in parser.items(section):
            cfg.set(section, key, raw)
    return cfg


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(emit(cfg)) reproduces cfg exactly."""
    out = io.StringIO()
    for section in _SCHEMA:
        out.write(f"[{section}]\n")
        for key in _SCHEMA[section]:
            out.write(f"{key} = {_format_value(cfg.values[section][key])}\n")
        out.write("\n")
    return out.getvalue()


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override {item!r} must look like section.key=value"
            )
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        cfg.set(section.strip(), key.strip(), raw.strip())


# ----------------------------------------------------------- construction


def _kappa_ladder(cfg: RunConfig) -> list[float]:
    """run.kappa_ladder as its truncation levels, strictly increasing and
    positive."""
    raw = cfg.get("run", "kappa_ladder")
    try:
        ladder = [float(x) for x in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(
            f"run.kappa_ladder={raw!r} is not a comma-separated list of "
            f"numbers ({exc})"
        ) from exc
    increasing = all(a < b for a, b in zip(ladder, ladder[1:]))
    if not (increasing and 0.0 < ladder[0] and ladder[-1] < np.inf):
        raise ConfigError(
            f"run.kappa_ladder={raw!r} must be strictly increasing finite "
            f"positive levels"
        )
    return ladder


def build_scenario(cfg: RunConfig) -> Scenario:
    _kappa_ladder(cfg)
    g = cfg.values["grid"]
    resolvable = resolvable_modes(g["d"], g["boundary"], g["n"])
    n_modes = g["modes"] or resolvable
    if not 0 < n_modes <= resolvable:
        raise ConfigError(
            f"grid.modes={g['modes']} is outside 0..{resolvable}, the modes "
            f"resolvable for grid.n={g['n']}, grid.d={g['d']}, {g['boundary']}"
        )
    basis = build_basis(g["d"], g["boundary"], g["n"], n_modes)
    m = cfg.values["model"]
    model = ModelConfig(
        r_u=m["r_u"], r_v=m["r_v"], chi=m["chi"], gamma=m["gamma"],
        k=m["k"], f=m["f"], g=m["g"],
        sigma1=m["sigma1"], sigma2=m["sigma2"], calculus=m["calculus"],
    )
    hp_raw = cfg.values["hypothesis"]
    hypothesis = HypothesisParams(
        d=g["d"], gamma=m["gamma"], m=hp_raw["m"], m0=hp_raw["m0"],
        p_star=hp_raw["p_star"], p0_star=hp_raw["p0_star"],
        rho=hp_raw["rho"], l=hp_raw["l"], delta0=hp_raw["delta0"],
    )
    s = cfg.values["solver"]
    if not 0.0 < s["dt"] or (s["t_final"] > 0.0 and s["dt"] > s["t_final"]):
        raise ConfigError(
            f"solver.dt={s['dt']!r} must be positive and at most "
            f"solver.t_final={s['t_final']!r}"
        )
    n_steps = s["t_final"] / s["dt"]
    if abs(n_steps - round(n_steps)) > 1e-9 * abs(n_steps):
        raise ConfigError(f"solver.t_final={s['t_final']!r} is not a whole "
                          f"number of solver.dt={s['dt']!r} steps")
    for key, value in (("run.paths", cfg.get("run", "paths")),
                       ("solver.snapshot_stride", s["snapshot_stride"])):
        if value < 1:
            raise ConfigError(f"{key}={value} must be at least 1")
    solver = SolverConfig(
        dt=s["dt"], t_final=s["t_final"], newton_tol=s["newton_tol"],
        newton_max_iter=s["newton_max_iter"],
        nonneg_policy=s["nonneg_policy"],
        snapshot_stride=s["snapshot_stride"], record_rho=hypothesis.rho,
    )
    nz = cfg.values["noise"]
    spec = NoiseSpec(
        delta1=nz["delta1"], delta2=nz["delta2"], c1=nz["c1"], c2=nz["c2"],
        seed=cfg.get("run", "seed"),
    )
    c = cfg.values["cutoff"]
    cutoff = CutoffParams(
        kappa=c["kappa"], gamma=m["gamma"], m=hypothesis.m, m0=hypothesis.m0,
        p0_star=hypothesis.p0_star, nu=c["nu"] if c["nu"] > 0 else None,
    )
    u0, v0 = _initial_fields(cfg, basis, model)
    return Scenario(basis, model, solver, spec, cutoff, hypothesis, u0, v0)


def _initial_fields(cfg: RunConfig, basis, model):
    ic = cfg.values["initial"]
    preset = ic["preset"]
    if preset == "constant":
        return constant_fields(basis, ic["u_value"], ic["v_value"])
    if preset == "bump":
        u0 = bump_field(basis, ic["u_base"], ic["u_amp"], ic["u_center"],
                        ic["u_width"])
        v0 = bump_field(basis, ic["v_base"], ic["v_amp"], ic["v_center"],
                        ic["v_width"])
        return u0, v0
    if preset == "perturbed-homogeneous":
        return perturbed_homogeneous_fields(basis, model, ic["perturb_amp"])
    fields = []
    for key in ("u_file", "v_file"):
        if not ic[key]:
            raise ConfigError(f"file preset needs initial.{key}")
        try:
            arr = np.load(ic[key])
        except (OSError, ValueError, EOFError) as exc:
            raise ConfigError(
                f"cannot read initial.{key} {ic[key]!r}: {exc}"
            ) from exc
        shape = getattr(arr, "shape", None)
        if shape != basis.grid_shape:
            raise ConfigError(
                f"initial.{key} holds shape {shape}, grid is {basis.grid_shape}"
            )
        fields.append(arr.astype(float))
    return fields[0], fields[1]


# ----------------------------------------------------------------- output


def _metadata_header(cfg: RunConfig, subcommand: str, seed_source: str,
                     extra: Optional[list[str]] = None) -> str:
    lines = [
        f"# klausim {subcommand}",
        f"# seed: {cfg.get('run', 'seed')} (source: {seed_source})",
    ]
    for note in extra or []:
        lines.append(f"# {note}")
    lines.append("# config (re-run with this file):")
    for raw in emit_config(cfg).rstrip("\n").split("\n"):
        lines.append(f"#   {raw}")
    return "\n".join(lines) + "\n"


def write_norm_series(path: Path, traj, header: str) -> None:
    with open(path, "w") as fh:
        fh.write(header)
        fh.write("# columns: " + "\t".join(("time",) + traj.NORM_COLUMNS) + "\n")
        for row in traj.norm_table():
            fh.write("\t".join(f"{x:.17g}" for x in row) + "\n")


def write_snapshots(path: Path, traj, basis) -> None:
    header = (
        f"klausim-snapshots d={basis.dimension} N={basis.grid_points} "
        f"boundary={basis.boundary} fields=u,v dtype=float64 order=C\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for t, u, v in zip(traj.snapshot_times, traj.u_snapshots,
                           traj.v_snapshots):
            fh.write(np.float64(t).astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def read_snapshots(path: Path):
    """Inverse of write_snapshots; returns (header, times, u, v)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        fields = dict(
            item.split("=") for item in header.split() if "=" in item
        )
        d, n = int(fields["d"]), int(fields["N"])
        cells = n**d
        record = np.dtype([
            ("time", "<f8"), ("u", "<f8", (cells,)), ("v", "<f8", (cells,))
        ])
        raw = np.frombuffer(fh.read(), dtype=record)
    shape = (n,) * d
    return (
        header,
        raw["time"].copy(),
        raw["u"].reshape((-1,) + shape).copy(),
        raw["v"].reshape((-1,) + shape).copy(),
    )


def _write_failure(out_dir: Path, subcommand: str, reason: str, details: dict):
    payload = {"subcommand": subcommand, "reason": reason, "details": details}
    with open(out_dir / "failure.json", "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


# ------------------------------------------------------------ subcommands


def _cmd_validate(cfg, sc, out_dir, header, workers):
    report = validate_hypotheses(sc.hypothesis)
    if sc.basis.n_modes >= 2:
        half = max(sc.basis.n_modes // 2, 1)
        coarse_basis = build_basis(
            sc.basis.dimension, sc.basis.boundary, sc.basis.grid_points, half
        )
        noise_report = noise_mod.validate_noise(
            sc.noise, coarse_basis, refined_basis=sc.basis
        )
    else:
        noise_report = noise_mod.validate_noise(sc.noise, sc.basis)
    text = str(report) + "\n\n" + str(noise_report) + "\n"
    text += f"cutoff_nu: {sc.cutoff.nu!r}\n"
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(header + text)
    ok = report.existence_ok and noise_report.ok
    if not ok:
        _write_failure(out_dir, "validate", "hypothesis or noise validation",
                       {"failing": report.failing(),
                        "noise": noise_report.failures})
    return 0 if ok else 1


def _simulate_common(cfg, sc, out_dir, header, mode):
    path = generate_path(
        sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps
    )
    traj = simulate_path(
        sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path, mode=mode,
        cutoff=sc.cutoff,
    )
    write_norm_series(out_dir / "norms.tsv", traj, header)
    write_snapshots(out_dir / "snapshots.bin", traj, sc.basis)
    return traj


def _cmd_simulate(cfg, sc, out_dir, header, workers):
    mode = cfg.get("run", "mode")
    traj = _simulate_common(cfg, sc, out_dir, header, mode)
    report = diagnostics.nonneg_monitor(traj)
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(header + str(report) + "\n")
        fh.write(f"snapshots: {traj.snapshot_times.size}\n")
        for flag, value in traj.flags.items():
            fh.write(f"{flag}: {value}\n")
    data_nonneg = sc.u0.min() >= 0.0 and sc.v0.min() >= 0.0
    if data_nonneg and not report.ok:
        _write_failure(out_dir, "simulate", "nonnegativity breach", {
            "worst_min_u": report.worst_min_u,
            "worst_min_v": report.worst_min_v,
        })
        return 1
    return 0


def _cmd_picard(cfg, sc, out_dir, header, workers):
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
    result = fixedpoint.picard_solve(
        sc.u0, sc.v0, sc.cutoff.kappa, path, sc.model, sc.solver, sc.basis,
        sc.cutoff, tol=cfg.get("run", "picard_tol"),
        max_iter=cfg.get("run", "picard_max_iter"),
    )
    write_norm_series(out_dir / "norms.tsv", result.trajectory, header)
    write_snapshots(out_dir / "snapshots.bin", result.trajectory, sc.basis)
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(header)
        fh.write(f"iterations: {result.iterations}\n")
        fh.write("residuals:\n")
        for i, r in enumerate(result.residuals, start=1):
            fh.write(f"  {i}\t{r:.6e}\n")
    return 0


def _cmd_glue(cfg, sc, out_dir, header, workers):
    ladder = _kappa_ladder(cfg)
    result = fixedpoint.glue_simulate(
        sc.u0, sc.v0, ladder, sc.model, sc.solver, sc.basis, sc.noise,
        sc.cutoff, tol=cfg.get("run", "picard_tol"),
        max_iter=cfg.get("run", "picard_max_iter"),
    )
    write_norm_series(out_dir / "norms.tsv", result.trajectory, header)
    write_snapshots(out_dir / "snapshots.bin", result.trajectory, sc.basis)
    with open(out_dir / "ladder.tsv", "w") as fh:
        fh.write(header)
        fh.write("# columns: rung\tkappa\texit_time\titerations\tresidual\n")
        for rung in result.rungs:
            fh.write(rung.row() + "\n")
        fh.write(f"# decoupled_tail: {result.used_decoupled_tail}\n")
    return 0


def _cmd_ensemble(cfg, sc, out_dir, header, workers):
    report = diagnostics.ensemble_moments(
        sc, p=cfg.get("run", "p"), n_paths=cfg.get("run", "paths"),
        workers=workers,
    )
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(header + str(report) + "\n")
    return 0


def _cmd_uniqueness(cfg, sc, out_dir, header, workers):
    hp_report = validate_hypotheses(sc.hypothesis)
    if sc.basis.dimension != 1 or not hp_report.uniqueness_ok:
        _write_failure(
            out_dir, "uniqueness", "uniqueness hypotheses infeasible",
            {"d": sc.basis.dimension, "failing": hp_report.failing(),
             "dimension_feasible": hp_report.uniqueness_dimension_feasible},
        )
        return 1
    report = diagnostics.uniqueness_experiment(
        sc, control_seed=cfg.get("run", "seed") + 99991
    )
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(header + str(report) + "\n")
    return 0 if report.indistinguishable else 1


def _cmd_noise_selftest(cfg, sc, out_dir, header, workers):
    basis, spec = sc.basis, sc.noise
    lines = []
    ok = True

    report = noise_mod.validate_noise(spec, basis)
    lines.append(str(report))
    ok &= report.ok

    n = max(cfg.get("run", "paths") * 20, 2000)
    k_max = min(8, basis.n_modes)
    lam = spec.spectrum(basis, 1)[:k_max]
    dt = sc.solver.dt
    draws = np.empty((n, k_max))
    for i in range(n):
        draws[i] = lam * np.sqrt(dt) * noise_mod.mode_normals(spec, 1, i, k_max)
    sample_var = np.var(draws, axis=0, ddof=1)
    expected = lam**2 * dt
    stderr = expected * np.sqrt(2.0 / (n - 1))
    var_ok = bool(np.all(np.abs(sample_var - expected) <= 4.0 * stderr))
    lines.append(f"mode_variance_ok: {var_ok} (n={n}, modes<{k_max})")
    ok &= var_ok

    xi1 = np.empty((n, 2))
    xi2 = np.empty((n, 2))
    for i in range(n):
        xi1[i] = noise_mod.mode_normals(spec, 1, i, 2)
        xi2[i] = noise_mod.mode_normals(spec, 2, i, 2)
    max_corr = max(
        abs(float(np.mean(xi1[:, a] * xi2[:, b])))
        for a in range(2) for b in range(2)
    )
    corr_ok = max_corr <= 4.0 / np.sqrt(n)
    lines.append(f"channel_correlation_ok: {corr_ok} (max {max_corr:.4g})")
    ok &= corr_ok

    bdg = noise_mod.bdg_selfcheck(spec, basis, p=2.0, n_paths=2000, n_steps=1)
    iso_ok = (
        abs(bdg.isometry_estimate - bdg.isometry_expected)
        <= 4.0 * bdg.isometry_stderr
    )
    lines.append(str(bdg))
    lines.append(f"isometry_ok: {iso_ok}")
    ok &= iso_ok

    fine = generate_path(spec, basis, dt / 2.0, 64)
    pooled = fine.coarsen(2)
    pair_sums = fine.increments[:, 0::2] + fine.increments[:, 1::2]
    coarsen_ok = bool(
        np.array_equal(pooled.increments, pair_sums) and pooled.dt == dt
    )
    lines.append(f"coarsening_reuses_fine_path: {coarsen_ok}")
    ok &= coarsen_ok

    with open(out_dir / "report.txt", "w") as fh:
        fh.write(header + "\n".join(lines) + "\n")
    if not ok:
        _write_failure(out_dir, "noise-selftest", "statistical check failed",
                       {"lines": lines})
    return 0 if ok else 1


def _cmd_pattern_demo(cfg, sc, out_dir, header, workers):
    if min(sc.model.k, sc.model.f, sc.model.g) <= 0:
        _write_failure(out_dir, "pattern-demo",
                       "demo needs k, f, g > 0 (rain/evaporation/mortality)",
                       {"k": sc.model.k, "f": sc.model.f, "g": sc.model.g})
        return 1
    traj = _simulate_common(cfg, sc, out_dir, header, "coupled")
    max_v = float(np.max(np.abs(traj.v_snapshots)))
    bounded = np.isfinite(max_v)
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(header)
        fh.write(f"max_abs_v: {max_v:.8g}\n")
        fh.write(f"bounded: {bounded}\n")
    return 0 if bounded else 1


_DISPATCH = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "picard": _cmd_picard,
    "glue": _cmd_glue,
    "ensemble": _cmd_ensemble,
    "uniqueness": _cmd_uniqueness,
    "noise-selftest": _cmd_noise_selftest,
    "pattern-demo": _cmd_pattern_demo,
}


def run(subcommand: str, cfg: RunConfig, out_dir, workers: Optional[int] = None,
        seed_source: str = "config",
        metadata_extra: Optional[list[str]] = None) -> int:
    """Execute one experiment; returns the process exit status."""
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers is None:
        workers = cfg.get("run", "workers")
    if workers < 1:
        workers = os.cpu_count() or 1
    header = _metadata_header(cfg, subcommand, seed_source, metadata_extra)
    with open(out_dir / "config_echo.cfg", "w") as fh:
        fh.write(emit_config(cfg))
    try:
        sc = build_scenario(cfg)
        status = _DISPATCH[subcommand](cfg, sc, out_dir, header, workers)
    except (NewtonError, PicardError) as exc:
        details = {"error": str(exc)}
        for name in ("residual", "iterations", "step_index", "residuals",
                     "path"):
            if getattr(exc, name, None) is not None:
                details[name] = getattr(exc, name)
        _write_failure(out_dir, subcommand, "solver failure", details)
        status = 1
    except FloatingPointError as exc:
        _write_failure(out_dir, subcommand, "non-finite statistic",
                       {"error": str(exc)})
        status = 1
    except BrokenProcessPool as exc:
        _write_failure(out_dir, subcommand, "worker crashed",
                       {"error": str(exc)})
        status = 1
    except (ConfigError, ValueError) as exc:
        _write_failure(out_dir, subcommand, "invalid configuration",
                       {"error": str(exc)})
        status = 2
    seed = cfg.get("run", "seed")
    print(f"klausim {subcommand}: status={status} seed={seed} out={out_dir}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="klausim",
        description="Spectral simulator for the stochastic Klausmeier "
                    "system with porous-medium diffusion",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="config file (INI sections; defaults if omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides config and environment)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides run.out)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="config override, repeatable")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for ensemble subcommands")
    args = parser.parse_args(argv)

    cfg = default_config()
    try:
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text())
        apply_overrides(cfg, args.override)
        seed_source = "default"
        metadata_extra = []
        if ("run", "seed") in cfg.explicit:
            seed_source = "config"
        if os.environ.get(SEED_ENV_VAR) and seed_source == "default":
            try:
                cfg.values["run"]["seed"] = int(os.environ[SEED_ENV_VAR])
            except ValueError as exc:
                raise ConfigError(f"bad value for {SEED_ENV_VAR}: {exc}") from exc
            seed_source = "environment"
        if args.seed is not None:
            if seed_source == "config":
                metadata_extra.append(
                    f"config_seed_overridden_by_flag: {cfg.get('run', 'seed')}"
                )
            cfg.values["run"]["seed"] = args.seed
            seed_source = "flag"
    except ConfigError as exc:
        print(f"klausim: {exc}", file=sys.stderr)
        # --out, else run.out as far as the config was read
        out_dir = Path(args.out or cfg.get("run", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_failure(out_dir, args.subcommand, "invalid configuration",
                       {"error": str(exc)})
        return 2
    out_dir = args.out if args.out is not None else cfg.get("run", "out")
    return run(args.subcommand, cfg, out_dir, workers=args.workers,
               seed_source=seed_source, metadata_extra=metadata_extra)


if __name__ == "__main__":
    sys.exit(main())
