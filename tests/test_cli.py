"""Config round-trips, seeding precedence, and the run orchestrator."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klausim import diagnostics
from klausim.cli import (
    ConfigError,
    SEED_ENV_VAR,
    _SCHEMA,
    _write_failure,
    apply_overrides,
    build_scenario,
    default_config,
    emit_config,
    main,
    parse_config,
    read_snapshots,
    run,
)

MINIMAL = """
[grid]
d = 1

[model]
gamma = 3.0

[solver]
t_final = 0.01
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.get("model", "gamma") == 3.0
    assert cfg.get("solver", "dt") == 1e-3  # defaulted
    assert cfg.get("noise", "c1") == 0.1
    echo = emit_config(cfg)
    assert "dt = 0.001" in echo  # defaults documented in the echo


def test_misspelled_key_rejected_by_name():
    with pytest.raises(ConfigError, match="gama"):
        parse_config("[model]\ngama = 2.0\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="modle"):
        parse_config("[modle]\ngamma = 2.0\n")


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("[model\ngamma = 2.0\n")


def test_bad_choice_rejected():
    with pytest.raises(ConfigError, match="calculus"):
        parse_config("[model]\ncalculus = heun\n")


def test_round_trip_fixed_point():
    cfg = parse_config(MINIMAL)
    text = emit_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert emit_config(again) == text


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(2.1, 4.0),
    dt=st.floats(1e-5, 1e-2),
    sigma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**63 - 1),
    stride=st.integers(1, 50),
)
def test_round_trip_randomized(gamma, dt, sigma, seed, stride):
    cfg = default_config()
    apply_overrides(cfg, [
        f"model.gamma={gamma!r}",
        f"solver.dt={dt!r}",
        f"model.sigma1={sigma!r}",
        f"run.seed={seed}",
        f"solver.snapshot_stride={stride}",
    ])
    assert parse_config(emit_config(cfg)) == cfg


def test_override_validation():
    cfg = default_config()
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["no_dots"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["model.gama=2.0"])
    apply_overrides(cfg, ["model.gamma=2.5"])
    assert cfg.get("model", "gamma") == 2.5


def test_build_scenario_consistency():
    cfg = parse_config(MINIMAL)
    sc = build_scenario(cfg)
    assert sc.basis.grid_points == 64
    assert sc.basis.n_modes == 63
    assert sc.hypothesis.gamma == sc.model.gamma
    assert sc.solver.record_rho == sc.hypothesis.rho
    assert sc.u0.shape == sc.basis.grid_shape


def make_cfg(**over):
    cfg = default_config()
    apply_overrides(cfg, [
        "solver.t_final=0.02",
        "solver.dt=0.002",
        "solver.snapshot_stride=2",
        "grid.n=32",
    ] + [f"{k}={v}" for k, v in over.items()])
    return cfg


def test_run_simulate_writes_artifacts(tmp_path):
    cfg = make_cfg()
    status = run("simulate", cfg, tmp_path / "out")
    assert status == 0
    out = tmp_path / "out"
    assert (out / "norms.tsv").exists()
    assert (out / "snapshots.bin").exists()
    assert (out / "report.txt").exists()
    assert (out / "config_echo.cfg").exists()
    header, times, u, v = read_snapshots(out / "snapshots.bin")
    assert "d=1" in header and "N=32" in header and "boundary=periodic" in header
    assert u.shape[1:] == (32,)
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.02)
    norms_text = (out / "norms.tsv").read_text()
    assert norms_text.startswith("# klausim simulate")
    assert "# seed: 0" in norms_text


def test_run_simulate_zero_horizon(tmp_path):
    cfg = make_cfg(**{"solver.t_final": "0.0"})
    status = run("simulate", cfg, tmp_path)
    assert status == 0
    _, times, u, _ = read_snapshots(tmp_path / "snapshots.bin")
    assert times.size == 1 and u.shape[0] == 1


def test_reproducibility_byte_identical(tmp_path):
    cfg = make_cfg(**{"run.seed": "42"})
    run("simulate", cfg, tmp_path / "a")
    run("simulate", cfg, tmp_path / "b")
    a = (tmp_path / "a" / "norms.tsv").read_bytes()
    b = (tmp_path / "b" / "norms.tsv").read_bytes()
    assert a == b
    sa = (tmp_path / "a" / "snapshots.bin").read_bytes()
    sb = (tmp_path / "b" / "snapshots.bin").read_bytes()
    assert sa == sb


def test_different_seed_different_output(tmp_path):
    run("simulate", make_cfg(**{"run.seed": "1"}), tmp_path / "a")
    run("simulate", make_cfg(**{"run.seed": "2"}), tmp_path / "b")
    assert (tmp_path / "a" / "norms.tsv").read_text() != (
        tmp_path / "b" / "norms.tsv"
    ).read_text()


def test_run_validate_feasible_preset(tmp_path):
    status = run("validate", default_config(), tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "existence_ok: True" in report
    assert "uniqueness_ok: True" in report


def test_run_validate_detects_bad_noise(tmp_path):
    cfg = default_config()
    apply_overrides(cfg, ["noise.delta1=0.3"])
    status = run("validate", cfg, tmp_path)
    assert status == 1
    assert (tmp_path / "failure.json").exists()


def test_run_uniqueness_refuses_d2(tmp_path):
    cfg = make_cfg(**{"grid.d": "2", "grid.n": "16"})
    status = run("uniqueness", cfg, tmp_path)
    assert status == 1
    failure = (tmp_path / "failure.json").read_text()
    assert "infeasible" in failure
    # refused before any compute: no norm series was produced
    assert not (tmp_path / "norms.tsv").exists()


def test_run_picard_small_data(tmp_path):
    cfg = make_cfg(**{
        "initial.u_base": "0.05", "initial.u_amp": "0.05",
        "initial.v_base": "0.04", "initial.v_amp": "0.04",
        "solver.t_final": "0.05", "solver.dt": "0.001",
    })
    status = run("picard", cfg, tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "iterations:" in report


def test_run_glue_writes_ladder(tmp_path):
    cfg = make_cfg(**{
        "run.kappa_ladder": "2,4",
        "initial.u_base": "0.05", "initial.u_amp": "0.05",
        "initial.v_base": "0.04", "initial.v_amp": "0.04",
        "solver.t_final": "0.05", "solver.dt": "0.001",
    })
    status = run("glue", cfg, tmp_path)
    assert status == 0
    ladder = (tmp_path / "ladder.tsv").read_text()
    assert "# columns: rung" in ladder


def test_run_pattern_demo_requires_positive_constants(tmp_path):
    status = run("pattern-demo", make_cfg(), tmp_path)
    assert status == 1
    assert (tmp_path / "failure.json").exists()


def test_run_pattern_demo_bounded(tmp_path):
    cfg = make_cfg(**{
        "model.k": "2.0", "model.f": "1.0", "model.g": "0.45",
        "model.gamma": "2.5", "model.sigma1": "0.0", "model.sigma2": "0.0",
        "model.r_v": "0.01",
        "initial.preset": "perturbed-homogeneous",
        "solver.t_final": "0.1", "solver.dt": "0.001",
    })
    status = run("pattern-demo", cfg, tmp_path)
    assert status == 0
    assert "bounded: True" in (tmp_path / "report.txt").read_text()


def test_main_seed_precedence(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL + "\n[run]\nseed = 7\n")
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    status = main([
        "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o1"),
        "--override", "grid.n=32", "--override", "solver.snapshot_stride=5",
    ])
    assert status == 0
    assert "seed=7" in capsys.readouterr().out  # config beats environment

    status = main([
        "simulate", "--config", str(cfg_file), "--seed", "123",
        "--out", str(tmp_path / "o2"), "--override", "grid.n=32",
    ])
    assert status == 0
    assert "seed=123" in capsys.readouterr().out  # flag beats config

    plain = tmp_path / "plain.cfg"
    plain.write_text(MINIMAL)
    status = main([
        "simulate", "--config", str(plain), "--out", str(tmp_path / "o3"),
        "--override", "grid.n=32",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "seed=99" in out  # environment used when nothing else given


def test_flag_override_records_both_seeds(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MINIMAL + "\n[run]\nseed = 7\n")
    main([
        "simulate", "--config", str(cfg_file), "--seed", "55",
        "--out", str(tmp_path / "o"), "--override", "grid.n=32",
    ])
    header = (tmp_path / "o" / "norms.tsv").read_text()
    assert "# seed: 55 (source: flag)" in header
    assert "config_seed_overridden_by_flag: 7" in header


def test_main_rejects_non_integer_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    assert main(["simulate", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert SEED_ENV_VAR in err and "'abc'" in err


def test_main_rejects_bad_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the failure lands in the default run.out
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\ngama = 3\n")
    assert main(["simulate", "--config", str(bad)]) == 2


def test_run_constant_preset(tmp_path):
    cfg = make_cfg(**{
        "initial.preset": "constant",
        "initial.u_value": "1.0",
        "initial.v_value": "0.0",
        "model.sigma1": "0.0", "model.sigma2": "0.0",
    })
    status = run("simulate", cfg, tmp_path)
    assert status == 0
    _, _, u, v = read_snapshots(tmp_path / "snapshots.bin")
    assert np.allclose(u[-1], 1.0, atol=1e-10)  # constant is an equilibrium
    assert np.all(v[-1] == 0.0)


def test_run_file_preset(tmp_path):
    u0 = np.linspace(0.5, 1.0, 32)
    v0 = np.linspace(0.1, 0.2, 32)
    np.save(tmp_path / "u0.npy", u0)
    np.save(tmp_path / "v0.npy", v0)
    cfg = make_cfg(**{
        "initial.preset": "file",
        "initial.u_file": str(tmp_path / "u0.npy"),
        "initial.v_file": str(tmp_path / "v0.npy"),
    })
    status = run("simulate", cfg, tmp_path / "out")
    assert status == 0
    _, _, u, _ = read_snapshots(tmp_path / "out" / "snapshots.bin")
    assert np.allclose(u[0], u0)


def test_run_ensemble_report(tmp_path):
    cfg = make_cfg(**{"run.paths": "100", "run.p": "1.0"})
    status = run("ensemble", cfg, tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "empirical_C0:" in report and "sup_u_lp:" in report


def test_run_uniqueness_feasible(tmp_path):
    cfg = make_cfg(**{
        "model.sigma1": "0.5", "model.sigma2": "0.5",
        "noise.c1": "0.4", "noise.c2": "0.4",
        "solver.t_final": "0.05", "solver.dt": "0.001", "grid.n": "64",
    })
    status = run("uniqueness", cfg, tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "indistinguishable: True" in report


def test_run_noise_selftest(tmp_path):
    cfg = make_cfg(**{"run.paths": "150"})
    status = run("noise-selftest", cfg, tmp_path)
    assert status == 0
    report = (tmp_path / "report.txt").read_text()
    assert "mode_variance_ok: True" in report
    assert "isometry_ok: True" in report


def _failure(out):
    return json.loads((out / "failure.json").read_text())


def test_unreadable_initial_file_fails_by_key(tmp_path):
    np.save(tmp_path / "v0.npy", np.zeros(32))
    (tmp_path / "garbage.npy").write_text("not an array")
    for key, other, path in (
        ("u_file", "v_file", tmp_path / "missing.npy"),
        ("v_file", "u_file", tmp_path / "garbage.npy"),
    ):
        cfg = make_cfg(**{
            "initial.preset": "file",
            f"initial.{key}": str(path),
            f"initial.{other}": str(tmp_path / "v0.npy"),
        })
        out = tmp_path / key
        assert run("simulate", cfg, out) == 2
        failure = _failure(out)
        assert failure["reason"] == "invalid configuration"
        assert f"initial.{key}" in failure["details"]["error"]


def test_ensemble_non_finite_statistic_writes_failure(tmp_path):
    # r_u = 0 keeps the huge constant water field, whose energy overflows
    cfg = make_cfg(**{
        "run.paths": "100", "grid.n": "16", "solver.t_final": "0.004",
        "model.r_u": "0.0", "initial.preset": "constant",
        "initial.u_value": "1e200", "initial.v_value": "0.0",
    })
    with np.errstate(all="ignore"):
        assert run("ensemble", cfg, tmp_path) == 1
    failure = _failure(tmp_path)
    assert failure["reason"] == "non-finite statistic"
    assert "path 0" in failure["details"]["error"]


def test_solver_failure_records_newton_numbers(tmp_path):
    cfg = make_cfg(**{"solver.newton_max_iter": "1",
                      "solver.newton_tol": "1e-300"})
    assert run("simulate", cfg, tmp_path) == 1
    details = _failure(tmp_path)["details"]
    assert details["step_index"] == 0
    assert details["iterations"] == 1
    assert 0.0 < details["residual"] < 1.0


def test_solver_failure_records_picard_residuals(tmp_path):
    cfg = make_cfg(**{"run.picard_max_iter": "2",
                      "run.picard_tol": "1e-300"})
    assert run("picard", cfg, tmp_path) == 1
    failure = _failure(tmp_path)
    assert failure["reason"] == "solver failure"
    residuals = failure["details"]["residuals"]
    assert len(residuals) == 2 and all(r > 0.0 for r in residuals)


@pytest.mark.parametrize("modes", ["32", "-1"])
def test_unresolvable_modes_fail_by_key(tmp_path, modes):
    # N=32 periodic in d=1 resolves 31 modes
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out), "--override", "grid.n=32",
                   "--override", f"grid.modes={modes}"])
    assert status == 2
    failure = _failure(out)
    assert failure["reason"] == "invalid configuration"
    assert "grid.modes" in failure["details"]["error"]


def _crash_worker(*args):
    os._exit(1)


def test_ensemble_worker_crash_writes_failure(tmp_path, monkeypatch):
    # forked workers inherit the patched module
    monkeypatch.setattr(diagnostics, "_chunk_statistics", _crash_worker)
    cfg = make_cfg(**{"run.paths": "100", "grid.n": "16",
                      "solver.t_final": "0.004"})
    assert run("ensemble", cfg, tmp_path, workers=2) == 1
    failure = _failure(tmp_path)
    assert failure["reason"] == "worker crashed"
    assert failure["details"]["error"]


@pytest.mark.parametrize("ladder", ["abc", "1,x", "", "2,1", "1,1", "0,1",
                                    "1,inf"])
def test_bad_kappa_ladder_fails_by_key(tmp_path, ladder):
    out = tmp_path / "out"
    status = main(["glue", "--out", str(out),
                   "--override", f"run.kappa_ladder={ladder}"])
    assert status == 2
    failure = _failure(out)
    assert failure["reason"] == "invalid configuration"
    assert "run.kappa_ladder" in failure["details"]["error"]


@pytest.mark.parametrize("dt", ["0.1", "0", "-0.001"])
def test_bad_time_step_fails_by_key(tmp_path, dt):
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out),
                   "--override", "solver.t_final=0.05",
                   "--override", f"solver.dt={dt}"])
    assert status == 2
    failure = _failure(out)
    assert failure["reason"] == "invalid configuration"
    assert "solver.dt" in failure["details"]["error"]


def test_fractional_step_count_fails_by_key(tmp_path):
    """t_final = 0.0051 is 2.55 steps of 0.002; the run would end at 0.006."""
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out),
                   "--override", "solver.dt=0.002",
                   "--override", "solver.t_final=0.0051"])
    assert status == 2
    failure = _failure(out)
    assert failure["reason"] == "invalid configuration"
    assert "solver.t_final" in failure["details"]["error"]
    # a whole number of steps, up to rounding (0.07 / 0.01 is
    # 7.000000000000001), and no steps at all still run
    for dt, t_final in (("0.002", "0.006"), ("0.01", "0.07"), ("0.002", "0")):
        assert main(["simulate", "--out", str(tmp_path / t_final),
                     "--override", "grid.n=16", "--override", f"solver.dt={dt}",
                     "--override", f"solver.t_final={t_final}"]) == 0


@pytest.mark.parametrize("override, key", [
    ("model.calculus=heun", "model.calculus"),
    ("model.gamma=abc", "model.gamma"),
    ("grid.nn=32", "'nn'"),
])
def test_config_read_error_writes_failure(tmp_path, override, key):
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out), "--override", override])
    assert status == 2
    failure = _failure(out)
    assert failure["subcommand"] == "simulate"
    assert failure["reason"] == "invalid configuration"
    assert key in failure["details"]["error"]


def test_config_read_error_without_out_uses_run_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--override", "model.calculus=heun"]) == 2
    assert _failure(tmp_path / "runs" / "out")["reason"] == (
        "invalid configuration")
    # an override read before the bad one has moved run.out
    assert main(["simulate", "--override", "run.out=elsewhere",
                 "--override", "model.calculus=heun"]) == 2
    assert "model.calculus" in _failure(tmp_path / "elsewhere")["details"]["error"]


@pytest.mark.parametrize("key, value", [("run.paths", "-5"),
                                        ("solver.snapshot_stride", "0")])
def test_nonpositive_counts_fail_by_key(tmp_path, key, value):
    out = tmp_path / "out"
    status = main(["ensemble", "--out", str(out), "--override", f"{key}={value}"])
    assert status == 2
    failure = _failure(out)
    assert failure["reason"] == "invalid configuration"
    assert key in failure["details"]["error"]


@pytest.mark.parametrize("override, key", [
    ("grid.n=48", "grid.n"),  # not a power of two
    ("grid.n=4", "grid.n"),  # too coarse
    ("solver.newton_tol=0", "solver.newton_tol"),
    ("solver.newton_tol=nan", "solver.newton_tol"),
    ("solver.newton_max_iter=0", "solver.newton_max_iter"),
])
def test_bad_grid_and_newton_controls_fail_by_key(tmp_path, override, key):
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out), "--override", override])
    assert status == 2
    failure = _failure(out)
    assert failure["reason"] == "invalid configuration"
    assert key in failure["details"]["error"]


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_newton_failure_names_its_path(tmp_path, workers):
    """With this noise only path 51 stalls, at step 8, when each path runs
    alone; the batched ensemble names it whichever chunk holds it."""
    cfg = make_cfg(**{
        "run.paths": "100", "grid.n": "16", "solver.nonneg_policy": "project",
        "model.sigma1": "60", "model.sigma2": "60",
        "noise.c1": "0.6", "noise.c2": "0.6",
        "initial.u_base": "0.9", "initial.u_amp": "0.5",
        "initial.v_base": "0.8", "initial.v_amp": "0.4",
    })
    with np.errstate(all="ignore"):
        assert run("ensemble", cfg, tmp_path, workers=workers) == 1
    failure = _failure(tmp_path)
    assert failure["reason"] == "solver failure"
    assert failure["details"]["path"] == 51
    assert failure["details"]["step_index"] == 8
    assert "path 51" in failure["details"]["error"]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_schema_defaults_lie_in_their_domains():
    cfg = default_config()
    for section, keys in _SCHEMA.items():
        for key, (_, default, _) in keys.items():
            raw = repr(default) if isinstance(default, float) else str(default)
            cfg.set(section, key, raw)  # raises outside the key's domain
            assert cfg.get(section, key) == default


FLOAT_KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items()
              for key, spec in keys.items() if spec[0] is float]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_fails_by_key(tmp_path, key, value):
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out), "--override",
                   f"{key}={value}"])
    assert status == 2
    failure = _strict_json((out / "failure.json").read_text())
    assert failure["reason"] == "invalid configuration"
    assert key in failure["details"]["error"]


@pytest.mark.parametrize("subcommand, override", [
    ("simulate", "run.picard_tol=0"),
    ("simulate", "hypothesis.m0=0"),
    ("simulate", "hypothesis.p0_star=0"),
    ("simulate", "initial.u_width=0"),
    ("simulate", "cutoff.kappa=0"),
    ("simulate", "cutoff.nu=2"),
    ("simulate", "hypothesis.rho=3"),
    ("simulate", "run.seed=-1"),
    ("picard", "run.picard_max_iter=0"),
    ("simulate", "cutoff.nu=1"),
    ("simulate", "hypothesis.p0_star=1"),
    ("simulate", "initial.preset=perturbed-homogeneous"),
    ("ensemble", "run.paths=50"),
])
def test_value_outside_domain_fails_by_key(tmp_path, subcommand, override):
    out = tmp_path / "out"
    status = main([subcommand, "--out", str(out), "--override",
                   "solver.t_final=0.01", "--override", override])
    assert status == 2
    failure = _failure(out)
    assert failure["reason"] == "invalid configuration"
    assert override.split("=")[0] in failure["details"]["error"]


@pytest.mark.parametrize("override", ["initial.u_width=1e200",
                                      "initial.v_width=1e300"])
def test_width_whose_square_overflows_runs_flat(tmp_path, override):
    """A finite width inside its domain runs: its bump is the flat limit."""
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out), "--override",
                   "solver.t_final=0.01", "--override", override])
    assert status == 0
    assert not (out / "failure.json").exists()
    assert (out / "norms.tsv").stat().st_size > 0
    cfg = default_config()
    apply_overrides(cfg, [override])
    sc = build_scenario(cfg)
    flat = sc.u0 if override.startswith("initial.u") else sc.v0
    assert np.all(flat == flat.flat[0])


@pytest.mark.parametrize("argv, env, source", [
    (["--seed", "-1"], None, "--seed"),
    (["--seed", "abc"], None, "--seed"),
    ([], "-1", SEED_ENV_VAR),
])
def test_seed_flag_and_environment_fail_by_key(tmp_path, monkeypatch, argv,
                                               env, source):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)] + argv) == 2
    error = _failure(out)["details"]["error"]
    assert "run.seed" in error and source in error


def test_unreadable_config_file_writes_failure(tmp_path):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path / "missing.cfg", binary):
        out = tmp_path / path.stem
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        failure = _failure(out)
        assert failure["reason"] == "invalid configuration"
        assert "--config" in failure["details"]["error"]


def test_failure_json_writes_non_finite_numbers_as_null(tmp_path):
    details = {"residual": float("nan"), "bounds": [float("inf"), -np.inf],
               "step_index": 3, "nested": {"r": np.float64("nan")}}
    _write_failure(tmp_path, "simulate", "solver failure", details)
    failure = _strict_json((tmp_path / "failure.json").read_text())
    assert failure["details"] == {"residual": None, "bounds": [None, None],
                                  "step_index": 3, "nested": {"r": None}}
