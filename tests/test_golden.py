"""Golden outputs of small fixed-seed runs, recorded before the stepping core
(one step kernel, one time driver, one Newton driver) replaced the separate
loops of simulate, Picard and the exit estimate.

`tests/golden_outputs.json` holds what the code wrote before that change:
sha256 digests of `snapshots.bin`, of `norms.tsv` without its h column, of
the whole `norms.tsv` where h must not move, of `report.txt` for the
ensemble and uniqueness experiments, the h columns themselves, and the exit
counts of two Monte-Carlo exit estimates.  The refactor must reproduce the
bytes; h may move in its last bits where the old running sum of dt * rate
became dt * (sum of rates).

The one d=2 run, `simulate_krylov`, is checked by value against
`tests/golden_krylov.npz` (recorded with the dense mode table) rather than by
bytes: the separable transforms that replaced the table sum in another order
in d >= 2.  The `ensemble` report is checked by value against
`tests/golden_ensemble.json` (recorded while every batch row still equalled
its lone run bit for bit), to 1e-9 relative: its paths run as batches, whose
rows stay within that bound of their lone runs.  Every other d=1 run keeps
its byte hashes.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from klausim.cli import (
    apply_overrides,
    build_scenario,
    default_config,
    read_snapshots,
    run,
)
from klausim.diagnostics import ensemble_moments
from klausim.fixedpoint import exit_prob_estimate
from klausim.scenarios import exit_scenario

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_outputs.json")).read_text()
)
# the arrays `simulate_krylov` wrote, for a check by value rather than bytes
KRYLOV_NPZ = Path(__file__).with_name("golden_krylov.npz")
# the statistics of the `ensemble` report at full precision
ENSEMBLE_JSON = Path(__file__).with_name("golden_ensemble.json")

BASE = ["grid.n=32", "solver.dt=0.002", "solver.t_final=0.02",
        "solver.snapshot_stride=3", "run.seed=17"]
EXIT_PHYSICS = [
    "model.r_v=0.1", "model.chi=0.5", "model.sigma1=0.25", "model.sigma2=0.25",
    "noise.c1=0.6", "noise.c2=0.6", "initial.u_base=0.9", "initial.u_amp=0.5",
    "initial.v_base=0.8", "initial.v_amp=0.4", "initial.v_center=0.35",
]
SMALL_DATA = ["initial.u_base=0.05", "initial.u_amp=0.05",
              "initial.v_base=0.04", "initial.v_amp=0.04"]

# name -> (subcommand, overrides)
RUNS = {
    "simulate_coupled": ("simulate", BASE),
    "simulate_decoupled": ("simulate", BASE + [
        "run.mode=decoupled", "model.calculus=stratonovich"]),
    "simulate_krylov": ("simulate", [
        "grid.d=2", "grid.n=64", "grid.modes=200", "solver.dt=0.001",
        "solver.t_final=0.002", "solver.snapshot_stride=1", "run.seed=5"]),
    "picard": ("picard", BASE + SMALL_DATA),
    "glue": ("glue", BASE + EXIT_PHYSICS + [
        "solver.t_final=0.05", "run.kappa_ladder=0.2,0.4"]),
    "pattern_demo": ("pattern-demo", BASE + [
        "model.k=2.0", "model.f=1.0", "model.g=0.45", "model.gamma=2.5",
        "model.sigma1=0.0", "model.sigma2=0.0", "model.r_v=0.01",
        "initial.preset=perturbed-homogeneous"]),
    "ensemble": ("ensemble", BASE + [
        "grid.n=16", "solver.t_final=0.01", "run.paths=100"]),
    "uniqueness": ("uniqueness", BASE + [
        "model.sigma1=0.5", "model.sigma2=0.5", "noise.c1=0.4",
        "noise.c2=0.4"]),
}
# (seed, grid points, horizon, biomass scale, kappa): one single-rung and
# one two-rung threshold ladder, each with some but not all paths exiting
EXITS = [(808, 32, 0.08, 1.0, 0.75), (808, 16, 0.03, 1.8, 2.0)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _split_norms(text: str) -> tuple[str, list[float]]:
    """norms.tsv without its last (h) column, and that column."""
    kept, h = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            kept.append(line)
            continue
        fields = line.split("\t")
        kept.append("\t".join(fields[:-1]))
        h.append(float(fields[-1]))
    return "\n".join(kept), h


def run_outputs(name: str, out: Path) -> dict:
    subcommand, overrides = RUNS[name]
    cfg = default_config()
    apply_overrides(cfg, overrides)
    status = run(subcommand, cfg, out)
    rec = {"status": status}
    if (out / "snapshots.bin").exists():
        rec["snapshots"] = _sha((out / "snapshots.bin").read_bytes())
        text = (out / "norms.tsv").read_text()
        rest, h = _split_norms(text)
        rec["norms_without_h"] = _sha(rest.encode())
        rec["norms"] = _sha(text.encode())
        rec["h"] = h
    else:
        rec["report"] = _sha((out / "report.txt").read_bytes())
    return rec


def krylov_arrays(out: Path) -> dict:
    """Snapshot times and fields and the norm table of `simulate_krylov`."""
    assert run_outputs("simulate_krylov", out)["status"] == 0
    _, times, u, v = read_snapshots(out / "snapshots.bin")
    norms = np.loadtxt(out / "norms.tsv", comments="#", ndmin=2)
    return {"times": times, "u": u, "v": v, "norms": norms}


def ensemble_values() -> dict:
    """The report of the `ensemble` run, computed as `run` computes it:
    {statistic: [mean, stderr]} plus n_paths and the two C ratios."""
    _, overrides = RUNS["ensemble"]
    cfg = default_config()
    apply_overrides(cfg, overrides)
    report = ensemble_moments(build_scenario(cfg), p=cfg.get("run", "p"),
                              n_paths=cfg.get("run", "paths"),
                              workers=cfg.get("run", "workers"))
    vals = {name: [s.mean, s.stderr] for name, s in report.stats.items()}
    vals.update(n_paths=report.n_paths, c0_ratio=report.c0_ratio,
                c2_ratio=report.c2_ratio)
    return vals


def exit_outputs(seed, n, t_final, v_scale, kappa) -> dict:
    sc = exit_scenario(seed=seed, n=n, t_final=t_final)
    res = exit_prob_estimate(dataclasses.replace(sc, v0=v_scale * sc.v0),
                             kappa, 100)
    return {"exit_counts": res.exit_counts, "p_hat": res.p_hat}


# h is recomputed as dt * (sum of rates) in these runs; elsewhere it is
# the same expression as before
H_MAY_MOVE = {"simulate_coupled", "simulate_decoupled", "simulate_krylov",
              "glue", "pattern_demo"}


# checked by value in test_golden_krylov_values and
# test_golden_ensemble_values, not by bytes
BY_VALUE = {"simulate_krylov", "ensemble"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run(name, tmp_path):
    got = run_outputs(name, tmp_path)
    want = GOLDEN["runs"][name]
    assert got["status"] == want["status"] == 0
    if "report" in want:
        assert name in BY_VALUE or got["report"] == want["report"]
        return
    if name not in BY_VALUE:
        assert got["snapshots"] == want["snapshots"]
        assert got["norms_without_h"] == want["norms_without_h"]
    if name not in H_MAY_MOVE:
        assert got["norms"] == want["norms"]
    h_got, h_want = np.array(got["h"]), np.array(want["h"])
    assert h_got.shape == h_want.shape
    assert np.all(np.abs(h_got - h_want) <= 1e-14 * np.abs(h_want))


@pytest.mark.parametrize("case", EXITS)
def test_golden_exit_estimate(case):
    key = ":".join(map(str, case))
    assert exit_outputs(*case) == GOLDEN["exits"][key]


def test_golden_krylov_values(tmp_path):
    """The d=2 GMRES run matches its recorded arrays to 1e-12 relative to the
    largest entry of each field and each norm column."""
    got = krylov_arrays(tmp_path)
    want = np.load(KRYLOV_NPZ)
    assert np.array_equal(got["times"], want["times"])
    for key in ("u", "v"):
        assert got[key].shape == want[key].shape
        scale = np.max(np.abs(want[key]))
        assert np.max(np.abs(got[key] - want[key])) <= 1e-12 * scale
    assert got["norms"].shape == want["norms"].shape
    scale = np.max(np.abs(want["norms"]), axis=0)
    assert np.all(np.abs(got["norms"] - want["norms"]) <= 1e-12 * scale)



def test_golden_ensemble_values():
    """The ensemble report matches its recorded statistics to 1e-9 relative
    (the tolerance bench/reference.json gives the ensemble means), scaled by
    the largest entry of each statistic: a stderr, which can be rounding
    noise where every path has the same sup, is measured against its mean."""
    got = ensemble_values()
    want = json.loads(ENSEMBLE_JSON.read_text())
    assert got.keys() == want.keys()
    assert got["n_paths"] == want["n_paths"]
    for key in want.keys() - {"n_paths"}:
        g, w = np.atleast_1d(got[key]), np.atleast_1d(want[key])
        assert np.all(np.abs(g - w) <= 1e-9 * np.max(np.abs(w))), key
