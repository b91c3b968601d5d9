"""The batched implicit porous-medium step against a serial Newton oracle.

`serial_newton` is the single-field damped Newton driver the stepping core
had before every solve ran on a batch of rows: one field, a scalar residual
norm, its own Armijo line search, dense LU on small grids and preconditioned
GMRES on large ones.  `serial_pm_step` wraps it with the same right-hand
side, tolerance and mean pinning as `pm_implicit_step`.  Every row of a
batched `pm_implicit_step` on a dense grid below `_PCG_ROWS` rows must equal
the oracle on that row alone, bit for bit.  The rows that solve by PCG -
a dense batch of at least `_PCG_ROWS` rows, and every row count on a grid
above `_DENSE_LIMIT` cells - must stay within 1e-9 of the oracle, relative
to the largest entry of the row; the GMRES oracle is independent of the
PCG it checks.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, gmres

from klausim.basis import analyze, apply_laplacian, build_basis, synthesize
from klausim.dynamics import (
    _DENSE_LIMIT,
    _PCG_ROWS,
    ModelConfig,
    NewtonError,
    SolverConfig,
    pm_implicit_step,
)
from klausim.fields import lp_norm, power_gamma


def serial_newton(basis, rhs, coef, gamma, tol_abs, max_iter):
    """Damped Newton with Armijo backtracking for one field; (w, residual)."""
    n = basis.grid_size
    shape = rhs.shape
    rhs = rhs.reshape(-1)
    if n <= _DENSE_LIMIT:
        lap = basis.laplacian_matrix()

        def apply_lap(z):
            return lap @ z

        def solve(deriv, res):
            return np.linalg.solve(np.eye(n) - coef * lap * deriv, -res)
    else:
        def apply_lap(z):
            return apply_laplacian(basis, z.reshape(basis.grid_shape)).reshape(-1)

        def solve(deriv, res):
            scale = 1.0 / (1.0 + coef * float(np.mean(deriv)) * basis.eigenvalues)

            def pmv(z):
                coeffs = analyze(basis, z.reshape(basis.grid_shape))
                return z + synthesize(basis, coeffs * (scale - 1.0)).reshape(-1)

            jac = LinearOperator(
                (n, n), matvec=lambda z: z - coef * apply_lap(deriv * z)
            )
            precond = LinearOperator((n, n), matvec=pmv)
            delta, info = gmres(jac, -res, rtol=1e-10, atol=0.0, M=precond,
                                maxiter=200)
            if info != 0:
                raise np.linalg.LinAlgError(f"inner GMRES failed (info={info})")
            return delta

    def residual(z, b):
        return z - coef * apply_lap(power_gamma(z, gamma)) - b

    w = rhs.copy()
    res = residual(w, rhs)
    res_norm = lp_norm(res, 2.0)
    for iteration in range(max_iter):
        if res_norm <= tol_abs:
            return w.reshape(shape), res_norm
        deriv = gamma * np.abs(w) ** (gamma - 1.0) + 1e-12
        try:
            delta = solve(deriv, res)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(
                f"Newton system not solved: {exc}", res_norm, iteration
            ) from exc
        alpha = 1.0
        while alpha > 2.0**-30:
            trial = w + alpha * delta
            trial_res = residual(trial, rhs)
            trial_norm = lp_norm(trial_res, 2.0)
            if np.isfinite(trial_norm) and trial_norm <= (1 - 1e-4 * alpha) * res_norm:
                w, res, res_norm = trial, trial_res, trial_norm
                break
            alpha *= 0.5
        else:
            raise NewtonError("Newton line search stalled", res_norm, iteration)
    raise NewtonError(
        f"Newton did not reach tolerance {tol_abs:.3e} "
        f"(final residual {res_norm:.3e})",
        res_norm,
        max_iter,
    )


def serial_pm_step(basis, u, source, dw1, model, solver, dt):
    """pm_implicit_step of one lone field through `serial_newton`."""
    rhs = u + dt * source
    if dw1 is not None and model.sigma1 != 0.0:
        rhs = rhs + model.sigma1 * u * dw1
    tol_abs = solver.newton_tol * (1.0 + lp_norm(u, 2.0))
    w, _ = serial_newton(basis, rhs, dt * model.r_u, model.gamma, tol_abs,
                         solver.newton_max_iter)
    return w + (np.mean(rhs) - np.mean(w))


def _batch(basis, rows, seed):
    """Positive rough fields of amplitudes spread over two decades, so rows
    converge after different iteration counts and some backtrack."""
    rng = np.random.default_rng(seed)
    shape = (rows,) + basis.grid_shape
    amp = np.geomspace(0.05, 6.0, rows).reshape((rows,) + (1,) * basis.dimension)
    u = amp * (1.0 + 0.8 * rng.standard_normal(shape) ** 2)
    source = rng.standard_normal(shape)
    dw1 = 0.03 * rng.standard_normal(shape)
    return u, source, dw1


GRIDS = {
    # d=1 N=64: dense LU, or PCG from _PCG_ROWS rows on; the grid of the
    # Picard and ensemble workloads
    "lu": lambda: build_basis(1, "periodic", 64, 63),
    # d=2 N=32 with a truncated band: the transform PCG, against the
    # oracle's preconditioned GMRES
    "gmres": lambda: build_basis(2, "neumann", 32, 120),
}


@pytest.mark.parametrize("rows", [1, 3, 100])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_batched_pm_step_matches_serial_newton(grid, rows):
    basis = GRIDS[grid]()
    assert (basis.grid_size <= _DENSE_LIMIT) == (grid == "lu")
    model = ModelConfig(r_u=1.0, gamma=3.0, sigma1=0.4)
    solver = SolverConfig(dt=4e-3, t_final=1.0)
    u, source, dw1 = _batch(basis, rows, seed=rows)
    batch = pm_implicit_step(basis, u, source, dw1, model, solver, solver.dt)
    assert batch.shape == u.shape
    pcg = grid == "gmres" or rows >= _PCG_ROWS
    for j in range(rows):
        alone = serial_pm_step(basis, u[j], source[j], dw1[j], model, solver,
                               solver.dt)
        if pcg:
            scale = np.max(np.abs(alone))
            assert np.max(np.abs(batch[j] - alone)) <= 1e-9 * scale, f"row {j}"
        else:
            assert np.array_equal(batch[j], alone), f"row {j}"


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_lone_pm_step_matches_serial_newton(grid):
    """A lone field is a batch of one: by LU the same bits as the serial
    oracle, by the transform PCG within 1e-9 of its largest entry."""
    basis = GRIDS[grid]()
    model = ModelConfig(r_u=1.0, gamma=3.0, sigma1=0.4)
    solver = SolverConfig(dt=4e-3, t_final=1.0)
    u, source, dw1 = _batch(basis, 2, seed=7)
    got = pm_implicit_step(basis, u[1], source[1], dw1[1], model, solver,
                           solver.dt)
    want = serial_pm_step(basis, u[1], source[1], dw1[1], model, solver,
                          solver.dt)
    assert got.shape == basis.grid_shape
    if grid == "gmres":
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    else:
        assert np.array_equal(got, want)


def test_rough_rows_of_a_large_d1_grid_match_serial_newton():
    """d=1 N=512, where coef L D reaches 1e7: each PCG update must be a
    descent direction for its row's residual, so the line search of the
    roughest rows does not stall, and every row ends within 1e-9 of the
    GMRES oracle."""
    basis = build_basis(1, "periodic", 512, 511)
    assert basis.grid_size > _DENSE_LIMIT
    model = ModelConfig(r_u=1.0, gamma=3.0, sigma1=0.4)
    solver = SolverConfig(dt=4e-3, t_final=1.0)
    u, source, dw1 = _batch(basis, 20, seed=3)
    batch = pm_implicit_step(basis, u, source, dw1, model, solver, solver.dt)
    for j in range(len(u)):
        alone = serial_pm_step(basis, u[j], source[j], dw1[j], model, solver,
                               solver.dt)
        scale = np.max(np.abs(alone))
        assert np.max(np.abs(batch[j] - alone)) <= 1e-9 * scale, f"row {j}"
