"""Laplacian eigenbasis on [0,1]^d and the spectral transform machinery.

The basis diagonalizes -Laplace on the unit box with either periodic or
Neumann boundary conditions.  In one dimension the periodic modes are

    psi_0 = 1,   psi = sqrt(2) sin(2 pi k x),  sqrt(2) cos(2 pi k x)

with eigenvalue 4 pi^2 k^2 for frequency k, and the Neumann modes are
sqrt(2) cos(pi k x) with eigenvalue pi^2 k^2.  Higher dimensions are tensor
products of the 1-d modes; the eigenvalue of a multi-index is the sum of the
per-axis eigenvalues.  Modes are sorted by eigenvalue with lexicographic
tie-breaking on the multi-index so that the ordering (and hence every noise
realization built on top of it) is reproducible.  `build_basis` finds that
order with array operations over all r^d multi-indices, sorting only those
at or below the n_modes-th eigenvalue, in time and memory linear in r^d.

Grids are uniform with spacing h = 1/N per axis.  Periodic bases sample at
x_i = i/N, Neumann bases at the cell midpoints x_i = (i + 1/2)/N; on those
grids the rectangle rule integrates products of retained modes exactly, so
discrete orthonormality holds to rounding.

`analyze` and `synthesize` take a field or a stack of fields along a leading
axis; a lone field is a stack of one, so a row is bit for bit its lone call.
"""

from __future__ import annotations

import functools
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


def _axis_eigenvalue(index, boundary: str):
    """Eigenvalue of the 1-d mode `index`, an int or an integer array."""
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
    `axis_table` is the mode table itself and `band_positions` is 0..r-1.

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
        direct linear algebra.
        """
        lap = self._cache.get("laplacian_matrix")
        if lap is None:
            modes = self.mode_matrix()
            weighted = (-self.eigenvalues[:, None]) * modes
            lap = modes.T @ weighted * self.cell_volume
            self._cache["laplacian_matrix"] = lap
        return lap

    def laplacian_diagonal(self) -> np.ndarray:
        """Diagonal of `laplacian_matrix`, flattened, from one expansion on
        the squared axis table: no dense matrix.  Cached."""
        diag = self._cache.get("laplacian_diagonal")
        if diag is None:
            squares = expand(self, self.eigenvalues, self.axis_table**2)
            diag = -squares.reshape(-1) * self.cell_volume
            self._cache["laplacian_diagonal"] = diag
        return diag

    def mode_matrix(self) -> np.ndarray:
        """Dense (n_modes x N^d) grid samples of the retained modes; row k is
        psi_k.  Cached; built from the (r^d x N^d) per-axis products, for
        grids small enough for direct linear algebra."""
        modes = self._cache.get("mode_matrix")
        if modes is None:
            products = functools.reduce(np.kron, [self.axis_table] * self.dimension)
            modes = products[self.band_positions]
            self._cache["mode_matrix"] = modes
        return modes


def build_basis(d: int, boundary: str, n: int, n_modes: int) -> SpectralBasis:
    """Construct the first `n_modes` eigenpairs on an N-per-axis grid.

    Eigenvalues are derived from the sampled eigenfunctions (4 pi^2 |k|^2
    periodic, pi^2 |k|^2 Neumann, |k|^2 the squared Euclidean norm of the
    multi-index); ordering is by eigenvalue, ties broken lexicographically.

    One array pass over the r^d multi-indices of the r axis modes: each
    eigenvalue sums its axis eigenvalues left to right, `partition` finds the
    n_modes-th smallest, and `lexsort` orders only the modes at or below it.
    Time and memory grow as r^d numbers, not Python objects (d=3 Neumann
    N=128, 20000 modes: 0.04 s and 70 MB peak RSS, 37 MB of it the import).
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
    axis = np.array(_axis_indices(n, boundary))
    r = len(axis)
    # one outer sum per axis, left to right, as a Python sum over the axes
    lams = functools.reduce(np.add.outer, [_axis_eigenvalue(axis, boundary)] * d)
    lams = lams.reshape(-1)
    kept = np.flatnonzero(lams <= np.partition(lams, n_modes - 1)[n_modes - 1])
    positions = np.array(np.unravel_index(kept, (r,) * d))
    order = np.lexsort((*axis[positions[::-1]], lams[kept]))[:n_modes]
    kept, positions = kept[order], positions[:, order]

    used = np.zeros(r, dtype=bool)  # the axis rows the band uses
    used[positions] = True
    rows = np.cumsum(used) - 1  # each used row's place in the axis table
    x = _axis_grid(n, boundary)
    axis_table = np.array([_axis_mode(i, x, boundary) for i in axis[used].tolist()])
    band_positions = np.ravel_multi_index(tuple(rows[positions]),
                                          (int(used.sum()),) * d)
    axis_table.flags.writeable = False
    band_positions.flags.writeable = False

    return SpectralBasis(
        dimension=d,
        boundary=boundary,
        grid_points=n,
        n_modes=n_modes,
        eigenvalues=lams[kept],
        mode_indices=tuple(map(tuple, axis[positions].T.tolist())),
        axis_table=axis_table,
        band_positions=band_positions,
    )


def _contract(rows: np.ndarray, mat: np.ndarray, d: int) -> np.ndarray:
    """Apply `mat` (m, n) along every axis of each (n,)*d tensor in `rows`.

    `rows` is (P, n^d), one flattened tensor per row, and gives (P, m^d).
    Last axis first, then axes d-2 ... 0, each one `@` on a reshaped array
    with no transposes, multiplying the slices a lone tensor would: row p is
    bit for bit tensor p alone.  Explicit sizes keep an empty stack's shape.
    """
    m, n = mat.shape
    p = len(rows)
    out = rows.reshape(p, n ** (d - 1), n) @ mat.T
    for axis in range(d - 2, -1, -1):
        out = mat @ out.reshape(p * n**axis, n, m ** (d - 1 - axis))
    return out.reshape(p, m**d)


def expand(basis: SpectralBasis, coefficients: np.ndarray,
           axis_rows: np.ndarray) -> np.ndarray:
    """Grid samples of sum_k c_k prod_a axis_rows[row_a(k)](x_a), (N,)*d.

    `coefficients` is a prefix of the band, one vector or a (P, m) stack of
    them, which gives (P,) + grid_shape.  `axis_rows` is `axis_table` or an
    elementwise function of it (its square gives sum_k c_k psi_k^2).
    """
    rows = coefficients if coefficients.ndim == 2 else coefficients[None]
    p, m = rows.shape
    if basis.dimension == 1:  # the band is the first m axis modes
        dense, axis_rows = rows, axis_rows[:m]
    else:
        dense = np.zeros((p, axis_rows.shape[0] ** basis.dimension))
        dense[:, basis.band_positions[:m]] = rows
    fields = _contract(dense, axis_rows.T, basis.dimension)
    fields = fields.reshape((p,) + basis.grid_shape)
    return fields if coefficients.ndim == 2 else fields[0]


def analyze(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """Coefficients <f, psi_k> for k < n_modes (rectangle-rule inner product).

    A stack of fields shaped (P,) + grid_shape gives (P, n_modes); row p is
    bit for bit the coefficient vector of field p analyzed alone.
    """
    values = np.asarray(values)
    stacked = values.shape[1:] == basis.grid_shape
    if not stacked and values.size != basis.grid_size:
        raise ValueError(
            f"field has {values.size} entries, basis grid has {basis.grid_size}"
        )
    rows = values.reshape(len(values) if stacked else 1, basis.grid_size)
    full = _contract(rows, basis.axis_table, basis.dimension)
    # `take` keeps the rows C-contiguous, so row sums add as a lone row's do
    coeffs = full.take(basis.band_positions, axis=1) * basis.cell_volume
    return coeffs if stacked else coeffs[0]


def synthesize(basis: SpectralBasis, coefficients: np.ndarray) -> np.ndarray:
    """Grid samples of sum_k c_k psi_k, shaped (N,)*d.

    A (P, m) stack of coefficient vectors gives (P,) + grid_shape; row p is
    bit for bit the field of vector p synthesized alone.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] > basis.n_modes:
        raise ValueError(
            f"coefficients shaped {coeffs.shape}; need (m,) or (P, m) with "
            f"m at most {basis.n_modes} retained modes"
        )
    return expand(basis, coeffs, basis.axis_table)


def apply_laplacian(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """Band-limited Laplacian: mode k is scaled by -nu_k."""
    coeffs = analyze(basis, values)
    return synthesize(basis, -basis.eigenvalues * coeffs)


def weyl_count(basis: SpectralBasis, lam: float) -> int:
    """#{j < n_modes : nu_j <= lam}."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    return int(np.searchsorted(basis.eigenvalues, lam, side="right"))

