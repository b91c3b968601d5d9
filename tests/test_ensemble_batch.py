"""The batched moment ensemble against a serial oracle.

`serial_statistics` is the per-path arithmetic the ensemble had before its
paths ran as batches: one stored noise path, one `simulate_path` run with a
snapshot per step, the energy ledger accumulated record by record from
lone-field norms (`serial_energy`), and the sup and smoothing sums of
`sobolev_norm` on lone fields.  Every row of the batched statistics must
stay within 1e-9 of it, relative to the largest entry of each statistic,
whatever the worker count or the order of the path indices: a chunk of at
least `_PCG_ROWS` paths solves its Newton systems by PCG, whose updates
agree with the lone LU ones to rounding.  The chunks depend on the index
count alone, so the rows are bit for bit the same for every worker count.
"""

import dataclasses

import numpy as np
import pytest

from klausim.basis import build_basis
from klausim import diagnostics
from klausim.diagnostics import HypothesisParams, _ensemble_rows, energy_monitor
from klausim.dynamics import _PCG_ROWS, ModelConfig, SolverConfig, simulate_path
from klausim.fields import gradient_squared, lp_norm, sobolev_norm
from klausim.fixedpoint import CutoffParams
from klausim.noise import NoiseSpec, generate_path
from klausim.scenarios import Scenario, bump_field


def serial_energy(traj, p, model, basis):
    """(sup_term, dissipation, coupling) per record, one lone field at a
    time, with running scalar sums."""
    n = traj.times.size
    dt = float(traj.times[1] - traj.times[0]) if n > 1 else 0.0
    sup_term, dissipation, coupling = np.empty(n), np.empty(n), np.empty(n)
    running_sup = acc_diss = acc_coup = 0.0
    for i in range(n):
        u = traj.u_snapshots[i]
        v = traj.v_snapshots[i]
        running_sup = max(running_sup, lp_norm(u, p + 1.0) ** (p + 1.0))
        sup_term[i] = running_sup
        dissipation[i] = acc_diss
        coupling[i] = acc_coup
        if i < n - 1:
            gsq = gradient_squared(basis, u)
            acc_diss += dt * float(
                np.mean(np.abs(u) ** (p + model.gamma - 2.0) * gsq)
            )
            acc_coup += dt * model.chi * float(
                np.mean(np.abs(u) ** (p + 1.0) * v**2)
            )
    return sup_term, dissipation, coupling


def serial_statistics(sc, p, path_index):
    """The five ensemble statistics of one path run alone."""
    rho, m0 = sc.hypothesis.rho, sc.hypothesis.m0
    path = generate_path(sc.noise, sc.basis, sc.solver.dt, sc.solver.n_steps,
                         path_index=path_index)
    solver = dataclasses.replace(sc.solver, snapshot_stride=1, record_rho=rho)
    traj = simulate_path(sc.basis, sc.u0, sc.v0, sc.model, solver, path)
    sup_term, dissipation, coupling = serial_energy(traj, p, sc.model, sc.basis)
    dt = sc.solver.dt
    sup_v = 0.0
    smooth = 0.0
    for i in range(traj.times.size):
        v = traj.v_snapshots[i]
        sup_v = max(sup_v, sobolev_norm(sc.basis, v, rho) ** m0)
        if i < traj.times.size - 1:
            smooth += dt * sobolev_norm(sc.basis, v, rho + 1.0) ** 2
    return np.array([sup_term[-1], dissipation[-1], coupling[-1], sup_v,
                     smooth ** (m0 / 2.0)])


def scenario(d=1, boundary="periodic", n=32, modes=31, t_final=0.05):
    basis = build_basis(d, boundary, n, modes)
    model = ModelConfig(r_u=1.0, r_v=0.1, chi=1.0, gamma=3.0,
                        sigma1=0.3, sigma2=0.3)
    solver = SolverConfig(dt=2.5e-3, t_final=t_final, snapshot_stride=7)
    hp = HypothesisParams()
    cutoff = CutoffParams(kappa=1.0, gamma=3.0, m=hp.m, m0=hp.m0,
                          p0_star=hp.p0_star)
    return Scenario(
        basis, model, solver, NoiseSpec(c1=0.3, c2=0.3, seed=909), cutoff, hp,
        bump_field(basis, 0.2, 0.3), bump_field(basis, 0.15, 0.2, center=0.3),
    )


@pytest.fixture(scope="module")
def sc():
    return scenario()


@pytest.fixture(scope="module")
def oracle(sc):
    return {i: serial_statistics(sc, 1.0, i) for i in range(13)}


def _assert_rows(rows, oracle, indices):
    assert rows.shape == (len(indices), 5)
    scale = np.max(np.abs([oracle[i] for i in indices]), axis=0)
    for row, i in zip(rows, indices):
        assert np.all(np.abs(row - oracle[i]) <= 1e-9 * scale), f"path {i}"


@pytest.mark.parametrize("workers", [1, 2])
def test_batched_statistics_match_serial(sc, oracle, workers):
    """13 paths: one chunk, on one process whatever the worker count."""
    indices = list(range(13))
    _assert_rows(_ensemble_rows(sc, 1.0, indices, workers), oracle, indices)


@pytest.mark.parametrize("workers", [1, 2])
def test_reversed_indices_match_serial(sc, oracle, workers):
    indices = list(reversed(range(13)))
    _assert_rows(_ensemble_rows(sc, 1.0, indices, workers), oracle, indices)


class _InProcessPool:
    """ProcessPoolExecutor's interface, mapping in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, list(items))


def test_chunks_do_not_depend_on_workers(monkeypatch):
    """120 paths split into the chunks 0-49, 50-99 and 100-119 for 1, 2 and
    5 workers, and the rows are bit for bit the same; each chunk is large
    enough to solve by PCG, and every row stays close to its serial run."""
    sc = scenario(t_final=0.01)
    indices = [(7 * i) % 120 for i in range(120)]
    assert diagnostics._CHUNK_PATHS >= _PCG_ROWS
    chunk_stats = diagnostics._chunk_statistics
    seen = []

    def spy(scenario, p, chunk):
        seen.append(chunk.tolist())
        return chunk_stats(scenario, p, chunk)

    monkeypatch.setattr(diagnostics, "_chunk_statistics", spy)
    monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", _InProcessPool)
    chunks, rows = {}, {}
    for workers in (1, 2, 5):
        seen.clear()
        rows[workers] = _ensemble_rows(sc, 1.0, indices, workers)
        chunks[workers] = sorted(seen)
    assert chunks[1] == sorted([indices[:50], indices[50:100], indices[100:]])
    assert chunks[2] == chunks[5] == chunks[1]
    assert np.array_equal(rows[2], rows[1]) and np.array_equal(rows[5], rows[1])
    monkeypatch.undo()
    assert np.array_equal(_ensemble_rows(sc, 1.0, indices, 2), rows[1])
    oracle = {i: serial_statistics(sc, 1.0, i) for i in indices}
    _assert_rows(rows[1], oracle, indices)


def test_other_moment_order_matches_serial():
    """p = 2.5 powers the norms off numpy's square fast path."""
    sc = scenario(t_final=0.02)
    indices = [4, 1, 3]
    oracle = {i: serial_statistics(sc, 2.5, i) for i in indices}
    _assert_rows(_ensemble_rows(sc, 2.5, indices, 1), oracle, indices)


def test_two_dimensional_neumann_matches_serial():
    sc = scenario(d=2, boundary="neumann", n=8, modes=30, t_final=0.01)
    indices = [2, 0]
    oracle = {i: serial_statistics(sc, 1.0, i) for i in indices}
    _assert_rows(_ensemble_rows(sc, 1.0, indices, 1), oracle, indices)


@pytest.mark.parametrize("d, boundary", [(1, "periodic"), (1, "neumann"),
                                         (2, "neumann")])
@pytest.mark.parametrize("p", [1.0, 2.5])
def test_energy_monitor_matches_lone_fields(d, boundary, p):
    """energy_monitor takes the recorded times as rows of one call; every
    entry equals the record-by-record lone-field ledger bit for bit."""
    basis = build_basis(d, boundary, 16 if d == 1 else 8, 12)
    sc = scenario(t_final=0.02)
    solver = dataclasses.replace(sc.solver, snapshot_stride=1)
    path = generate_path(sc.noise, basis, solver.dt, solver.n_steps)
    traj = simulate_path(basis, bump_field(basis, 0.3, 0.4),
                         bump_field(basis, 0.2, 0.3, center=0.3), sc.model,
                         solver, path)
    ledger = energy_monitor(traj, p, sc.model, basis)
    sup_term, dissipation, coupling = serial_energy(traj, p, sc.model, basis)
    assert np.array_equal(ledger.sup_term, sup_term)
    assert np.array_equal(ledger.dissipation, dissipation)
    assert np.array_equal(ledger.coupling, coupling)
    assert dissipation[-1] > 0.0 and coupling[-1] > 0.0
