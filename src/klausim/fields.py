"""Grid-field arithmetic: the porous-medium power, Lebesgue and Sobolev norms.

Fields are plain numpy arrays shaped (N,)*d on the unit box with mesh
spacing h = 1/N per axis, so the rectangle rule for integrals reduces to a
mean over entries.  Negative-order Sobolev norms are computed spectrally on
the retained band; the projection residual is available separately because
the retained modes may not capture all grid content.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import SpectralBasis, analyze, synthesize


def power_gamma(values, gamma: float):
    """Signed power |z|^(gamma-1) z, the porous-medium nonlinearity.

    Odd and strictly monotone in z; requires gamma > 1.
    """
    if gamma <= 1.0:
        raise ValueError(f"porous-medium exponent must exceed 1, got {gamma}")
    z = np.asarray(values, dtype=float)
    out = np.sign(z) * np.abs(z) ** gamma
    return out if out.ndim else float(out)


def lp_norm(values: np.ndarray, p: float) -> float:
    """Discrete L^p norm (h^d sum |z_i|^p)^(1/p) on the unit box."""
    if p < 1.0:
        raise ValueError(f"L^p norm needs p >= 1, got {p}")
    z = np.asarray(values, dtype=float)
    return float(np.mean(np.abs(z) ** p) ** (1.0 / p))


def _lp_rows(rows: np.ndarray, p: float) -> list[float]:
    """lp_norm of each row of a stack (P, ...), bit for bit: a row's mean
    reduces as a lone field's does, and each root is taken on a scalar as in
    lp_norm (an array power rounds differently)."""
    flat = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    means = (np.add.reduce(np.abs(flat) ** p, axis=-1) / flat.shape[-1]).tolist()
    return [m ** (1.0 / p) for m in means]


def inner_product(f: np.ndarray, g: np.ndarray) -> float:
    """Rectangle-rule L^2 inner product."""
    return float(np.mean(np.asarray(f) * np.asarray(g)))


def sobolev_norm(basis: SpectralBasis, values: np.ndarray, s: float) -> float:
    """Spectral H^s norm (sum_k (1+nu_k)^s |c_k|^2)^(1/2), s in [-2, 2].

    The (1 + nu_k) weight shifts the zero mode so that negative orders stay
    finite on fields with mean.  The field is first projected onto the
    retained band; use `projection_residual` to inspect what was dropped.
    A stack of fields (P,) + grid gives an array of P norms, each bit for bit
    the norm of its field alone.
    """
    if abs(s) > 2.0:
        raise ValueError(f"order s={s} outside the validated range [-2, 2]")
    coeffs = analyze(basis, values)
    weights = (1.0 + basis.eigenvalues) ** s
    norms = np.sqrt(np.sum(weights * coeffs**2, axis=-1))
    return norms if norms.ndim else float(norms)


def projection_residual(basis: SpectralBasis, values: np.ndarray) -> float:
    """L^2 norm of the part of the field outside the retained band."""
    recon = synthesize(basis, analyze(basis, values))
    return lp_norm(np.asarray(values) - recon, 2.0)


def pm_inequality_gap(x, y, gamma: float):
    """Slack of (x^[g] - y^[g])(x - y) >= 2^(1-g) |x - y|^(g+1).

    Nonnegative for every real x, y and gamma > 1 (up to rounding); the
    degenerate-diffusion coercivity estimate used by the implicit solver
    rests on it.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 1.0):
        raise ValueError("porous-medium exponent must exceed 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    signed_pow = lambda z: np.sign(z) * np.abs(z) ** gamma
    lhs = (signed_pow(x) - signed_pow(y)) * (x - y)
    rhs = 2.0 ** (1.0 - gamma) * np.abs(x - y) ** (gamma + 1.0)
    gap = lhs - rhs
    return gap if gap.ndim else float(gap)


def gradient_squared(basis: SpectralBasis, values: np.ndarray) -> np.ndarray:
    """|grad f|^2 by centered differences (one-sided at Neumann boundaries).

    Only the basis.dimension grid axes, the trailing ones, are differenced,
    so a stack of fields (P,) + grid gives each field's own |grad f|^2.
    """
    f = np.asarray(values, dtype=float)
    h = 1.0 / basis.grid_points
    total = np.zeros_like(f)
    for axis in range(f.ndim - basis.dimension, f.ndim):
        if basis.boundary == "periodic":
            df = (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
        else:
            df = np.gradient(f, h, axis=axis)
        total += df**2
    return total
