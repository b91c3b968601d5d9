"""No run loads scipy.

Checked in fresh interpreters, since this test process has scipy loaded
already: a d=1 run and a d=2 Neumann N=32 step (1024 cells, the transform
PCG) leave scipy out of sys.modules.  The name `dynamics.gmres` still
resolves, to scipy's own gmres, loading scipy only then.
"""

import os
import subprocess
import sys
from pathlib import Path

import klausim

SRC = str(Path(klausim.__file__).resolve().parents[1])

SCIPY_LOADED = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
)


def run_fresh(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_d1_run_does_not_load_scipy():
    out = run_fresh(f"""
import sys
import klausim.cli
from klausim.dynamics import simulate_path
from klausim.noise import generate_path
from klausim.scenarios import exit_scenario
sc = exit_scenario(seed=1, t_final=0.02)
path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps)
traj = simulate_path(sc.basis, sc.u0, sc.v0, sc.model, sc.solver, path)
print(traj.n_records)
print({SCIPY_LOADED})
""")
    assert out == ["11", "[]"]


def test_d2_step_loads_no_scipy():
    out = run_fresh(f"""
import sys
from klausim import dynamics
from klausim.basis import build_basis
from klausim.dynamics import CoupledState, ModelConfig, SolverConfig, step_coupled
from klausim.scenarios import bump_field
basis = build_basis(2, "neumann", 32, 120)
print(basis.grid_size > dynamics._DENSE_LIMIT)
state = CoupledState(bump_field(basis, 0.5, 0.4), bump_field(basis, 0.3, 0.2), 0.0)
step_coupled(basis, state, ModelConfig(), SolverConfig(dt=1e-3, t_final=1e-3),
             None, None)
print({SCIPY_LOADED})
import scipy.sparse.linalg
print(dynamics.gmres is scipy.sparse.linalg.gmres)
""")
    assert out == ["True", "[]", "True"]
