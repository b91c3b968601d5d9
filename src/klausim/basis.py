"""Laplacian eigenbasis on [0,1]^d and the spectral transform machinery.

The basis diagonalizes -Laplace on the unit box with either periodic or
Neumann boundary conditions.  In one dimension the periodic modes are

    psi_0 = 1,   psi = sqrt(2) sin(2 pi k x),  sqrt(2) cos(2 pi k x)

with eigenvalue 4 pi^2 k^2 for frequency k, and the Neumann modes are
sqrt(2) cos(pi k x) with eigenvalue pi^2 k^2.  Higher dimensions are tensor
products of the 1-d modes; the eigenvalue of a multi-index is the sum of the
per-axis eigenvalues.  Modes are sorted by eigenvalue with lexicographic
tie-breaking on the multi-index so that the ordering (and hence every noise
realization built on top of it) is reproducible.

Grids are uniform with spacing h = 1/N per axis.  Periodic bases sample at
x_i = i/N, Neumann bases at the cell midpoints x_i = (i + 1/2)/N; on those
grids the rectangle rule integrates products of retained modes exactly, so
discrete orthonormality holds to rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

PERIODIC = "periodic"
NEUMANN = "neumann"

_TWO_PI = 2.0 * np.pi


def _axis_grid(n: int, boundary: str) -> np.ndarray:
    if boundary == PERIODIC:
        return np.arange(n) / n
    return (np.arange(n) + 0.5) / n


def _axis_mode(index: int, x: np.ndarray, boundary: str) -> np.ndarray:
    """Sample one 1-d mode on the axis grid.

    For the periodic basis the signed index follows the sin/cos convention:
    positive -> sin, negative -> cos, zero -> constant.  The argument is
    reduced modulo one period before evaluating so that grid symmetries
    (e.g. the exact maximum of sin at a grid point) survive in floating
    point.
    """
    if boundary == PERIODIC:
        if index == 0:
            return np.ones_like(x)
        k = abs(index)
        frac = np.mod(k * x, 1.0)
        if index > 0:
            return math.sqrt(2.0) * np.sin(_TWO_PI * frac)
        return math.sqrt(2.0) * np.cos(_TWO_PI * frac)
    if index == 0:
        return np.ones_like(x)
    frac = np.mod(0.5 * index * x, 1.0)
    return math.sqrt(2.0) * np.cos(_TWO_PI * frac)


def _axis_eigenvalue(index: int, boundary: str) -> float:
    if boundary == PERIODIC:
        return 4.0 * np.pi**2 * index * index
    return np.pi**2 * index * index


def resolvable_modes(d: int, boundary: str, n: int) -> int:
    """Modes an N^d grid resolves.  Periodic axes drop the Nyquist frequency
    n/2 (its sine vanishes on the grid), keeping 1 + 2*(n/2 - 1) = n - 1
    modes each; Neumann axes keep all n."""
    return (n - 1 if boundary == PERIODIC else n) ** d


def _axis_indices(n: int, boundary: str) -> list[int]:
    if boundary == PERIODIC:
        return [0] + [s * k for k in range(1, n // 2) for s in (-1, 1)]
    return list(range(n))


@dataclass(frozen=True)
class SpectralBasis:
    """Retained eigenpairs of -Laplace on [0,1]^d plus the per-axis table.

    Every retained mode is a tensor product of 1-d modes.  `axis_table`
    holds the r 1-d modes the band uses, in `_axis_indices` order, and
    `band_positions[k]` is the flat position of mode k in the (r,)*d tensor
    of per-axis products.  The transforms contract one axis at a time with
    `axis_table`, so a call costs d r N^d and the basis stores r N numbers.
    In d = 1 the band is the first r axis modes in order (r = n_modes), so
    `axis_table` is the mode table itself and no gather is needed.

    Immutable after construction; safe to share across workers.
    """

    dimension: int
    boundary: str
    grid_points: int
    n_modes: int
    eigenvalues: np.ndarray          # (n_modes,), nondecreasing
    mode_indices: tuple[tuple[int, ...], ...]
    axis_table: np.ndarray           # (r, N) grid samples of 1-d modes
    band_positions: np.ndarray       # (n_modes,) flat indices into (r,)*d
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.grid_points,) * self.dimension

    @property
    def grid_size(self) -> int:
        return self.grid_points**self.dimension

    @property
    def cell_volume(self) -> float:
        return 1.0 / self.grid_size

    def axis_coordinates(self) -> np.ndarray:
        return _axis_grid(self.grid_points, self.boundary)

    def mode_field(self, k: int) -> np.ndarray:
        """Grid samples of psi_k, shaped (N,)*d: an outer product of axis rows."""
        rows = np.unravel_index(
            self.band_positions[k], (self.axis_table.shape[0],) * self.dimension
        )
        mode = self.axis_table[rows[0]].copy()
        for row in rows[1:]:
            mode = np.multiply.outer(mode, self.axis_table[row])
        return mode

    def laplacian_matrix(self) -> np.ndarray:
        """Dense grid-space matrix of the band-limited Laplacian.

        L[i, j] = -sum_k nu_k psi_k(x_i) psi_k(x_j) h^d.  Cached; used by the
        implicit porous-medium solver when the grid is small enough for
        direct linear algebra.  Holds the (r^d x N^d) per-axis products
        while it is built; row band_positions[k] is psi_k.
        """
        lap = self._cache.get("laplacian_matrix")
        if lap is None:
            products = functools.reduce(np.kron, [self.axis_table] * self.dimension)
            modes = products[self.band_positions]
            weighted = (-self.eigenvalues[:, None]) * modes
            lap = modes.T @ weighted * self.cell_volume
            self._cache["laplacian_matrix"] = lap
        return lap


def build_basis(d: int, boundary: str, n: int, n_modes: int) -> SpectralBasis:
    """Construct the first `n_modes` eigenpairs on an N-per-axis grid.

    Eigenvalues are derived from the sampled eigenfunctions (4 pi^2 |k|^2
    periodic, pi^2 |k|^2 Neumann, |k|^2 the squared Euclidean norm of the
    multi-index); ordering is by eigenvalue, ties broken lexicographically.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}; expected 1, 2 or 3")
    if boundary not in (PERIODIC, NEUMANN):
        raise ValueError(f"unknown boundary {boundary!r}")
    if n < 8:
        raise ValueError(f"grid too coarse: N={n} < 8")
    if n & (n - 1):
        raise ValueError(f"N={n} is not a power of two")

    resolvable = resolvable_modes(d, boundary, n)
    if n_modes < 1 or n_modes > resolvable:
        raise ValueError(
            f"requested {n_modes} modes; resolvable range is 1..{resolvable} "
            f"for N={n}, d={d}, {boundary}"
        )
    axis = _axis_indices(n, boundary)
    spectrum = sorted(
        (sum(_axis_eigenvalue(i, boundary) for i in idx), idx)
        for idx in itertools.product(axis, repeat=d)
    )
    eigenvalues = np.array([lam for lam, _ in spectrum[:n_modes]])
    multi = [idx for _, idx in spectrum[:n_modes]]

    used = {i for idx in multi for i in idx}
    row_of = {i: row for row, i in enumerate(i for i in axis if i in used)}
    x = _axis_grid(n, boundary)
    axis_table = np.array([_axis_mode(i, x, boundary) for i in row_of])
    rows = np.array([[row_of[i] for i in idx] for idx in multi]).T
    band_positions = np.ravel_multi_index(tuple(rows), (len(row_of),) * d)
    axis_table.flags.writeable = False
    band_positions.flags.writeable = False

    return SpectralBasis(
        dimension=d,
        boundary=boundary,
        grid_points=n,
        n_modes=n_modes,
        eigenvalues=eigenvalues,
        mode_indices=tuple(multi),
        axis_table=axis_table,
        band_positions=band_positions,
    )


def _contract(values: np.ndarray, mat: np.ndarray, d: int) -> np.ndarray:
    """Apply `mat` (m, n) along every axis of an (n,)*d tensor, flattened.

    Last axis first, then the middle ones as a stack of products, then the
    first: each step is one `@` on a reshaped array, with no transposes.
    Needs d >= 2; the d = 1 transforms are a single `@` of their own.
    """
    assert d >= 2
    n = mat.shape[1]
    out = values.reshape(-1, n) @ mat.T
    for axis in range(d - 2, 0, -1):
        out = mat @ out.reshape(n**axis, n, -1)
    return (mat @ out.reshape(n, -1)).reshape(-1)


def expand(basis: SpectralBasis, coefficients: np.ndarray,
           axis_rows: np.ndarray) -> np.ndarray:
    """Grid samples of sum_k c_k prod_a axis_rows[row_a(k)](x_a), (N,)*d.

    `coefficients` is a prefix of the band; `axis_rows` is `axis_table` or
    an elementwise function of it (its square gives sum_k c_k psi_k^2).
    """
    if basis.dimension == 1:
        return coefficients @ axis_rows[: coefficients.size]
    dense = np.zeros(axis_rows.shape[0] ** basis.dimension)
    dense[basis.band_positions[: coefficients.size]] = coefficients
    return _contract(dense, axis_rows.T, basis.dimension).reshape(basis.grid_shape)


def analyze(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """Coefficients <f, psi_k> for k < n_modes (rectangle-rule inner product).

    A stack of fields shaped (P,) + grid_shape gives (P, n_modes); row p is
    bit for bit the coefficient vector of field p analyzed alone.
    """
    values = np.asarray(values)
    if values.ndim == basis.dimension + 1 and values.shape[1:] == basis.grid_shape:
        if basis.dimension == 1:
            # one matrix-vector product per row, as below
            return (np.matmul(basis.axis_table, values[..., None])[..., 0]
                    * basis.cell_volume)
        return np.array([analyze(basis, row) for row in values])
    flat = values.reshape(-1)
    if flat.size != basis.grid_size:
        raise ValueError(
            f"field has {flat.size} entries, basis grid has {basis.grid_size}"
        )
    if basis.dimension == 1:
        return basis.axis_table @ flat * basis.cell_volume
    full = _contract(flat, basis.axis_table, basis.dimension)
    return full[basis.band_positions] * basis.cell_volume


def synthesize(basis: SpectralBasis, coefficients: np.ndarray) -> np.ndarray:
    """Grid samples of sum_k c_k psi_k, shaped (N,)*d.

    A (P, m) stack of coefficient vectors gives (P,) + grid_shape; row p is
    bit for bit the field of vector p synthesized alone.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim == 2 and coeffs.shape[1] <= basis.n_modes:
        if basis.dimension == 1:
            # one vector-matrix product per row, as in `expand`
            rows = basis.axis_table[: coeffs.shape[1]]
            return np.matmul(coeffs[:, None, :], rows)[:, 0]
        return np.array([synthesize(basis, row) for row in coeffs])
    if coeffs.ndim != 1 or coeffs.size > basis.n_modes:
        raise ValueError(
            f"coefficient vector of length {coeffs.size} exceeds the "
            f"{basis.n_modes} retained modes"
        )
    return expand(basis, coeffs, basis.axis_table)


def apply_laplacian(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """Band-limited Laplacian: mode k is scaled by -nu_k."""
    coeffs = analyze(basis, values)
    return synthesize(basis, -basis.eigenvalues * coeffs)


def weyl_count(basis: SpectralBasis, lam: float) -> int:
    """#{j < n_modes : nu_j <= lam}."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return int(np.searchsorted(basis.eigenvalues, lam, side="right"))


def weyl_bound_constant(basis: SpectralBasis) -> float:
    """Fitted C with #{nu_j <= lam} <= C lam^{d/2} over the retained range.

    Reported, never asserted against a literature constant.
    """
    lams = basis.eigenvalues[basis.eigenvalues > 0]
    if lams.size == 0:
        return float("nan")
    counts = np.array([weyl_count(basis, lam) for lam in lams], dtype=float)
    return float(np.max(counts / lams ** (basis.dimension / 2.0)))
