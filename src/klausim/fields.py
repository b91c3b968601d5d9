"""Grid-field arithmetic: the porous-medium power, Lebesgue and Sobolev norms.

Fields are plain numpy arrays shaped (N,)*d on the unit box with mesh
spacing h = 1/N per axis, so the rectangle rule for integrals reduces to a
mean over entries.  Sobolev norms are computed spectrally on the retained
band, so grid content outside the retained modes does not enter them.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import SpectralBasis, analyze


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
    return _lp_rows(np.asarray(values, dtype=float)[None], p)[0]


def _lp_rows(rows: np.ndarray, p: float) -> list[float]:
    """Discrete L^p norm of each row of a stack (P, ...); a lone field is a
    stack of one.  Each root is taken on a scalar, since an array power
    rounds differently."""
    flat = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    means = (np.add.reduce(np.abs(flat) ** p, axis=-1) / flat.shape[-1]).tolist()
    return [m ** (1.0 / p) for m in means]


def sobolev_norm(basis: SpectralBasis, values: np.ndarray, s: float) -> float:
    """Spectral H^s norm (sum_k (1+nu_k)^s |c_k|^2)^(1/2), s in [-2, 2].

    The (1 + nu_k) weight shifts the zero mode so that negative orders stay
    finite on fields with mean.  The field is first projected onto the
    retained band, so content outside the retained modes does not count.
    A stack of fields (P,) + grid gives an array of P norms, each bit for bit
    the norm of its field alone.
    """
    if abs(s) > 2.0:
        raise ValueError(f"order s={s} outside the validated range [-2, 2]")
    coeffs = analyze(basis, values)
    weights = (1.0 + basis.eigenvalues) ** s
    norms = np.sqrt(np.sum(weights * coeffs**2, axis=-1))
    return norms if norms.ndim else float(norms)


def pm_inequality_gap(x, y, gamma: float):
    """Slack of (x^[g] - y^[g])(x - y) >= 2^(1-g) |x - y|^(g+1).

    Nonnegative for every real x, y and gamma > 1, up to rounding relative
    to the gap itself; the degenerate-diffusion coercivity estimate used by
    the implicit solver rests on it.  With opposite signs the two sides meet
    at x = -y and their difference would cancel to rounding noise of their
    size, so there the gap is taken as s (s/2)^g ((1+t)^g + (1-t)^g - 2),
    s = |x - y|, t = (|x| - |y|) / s, the bracket through expm1 and log1p.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 1.0):
        raise ValueError("porous-medium exponent must exceed 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    signed_pow = lambda z: np.sign(z) * np.abs(z) ** gamma
    s = np.abs(x - y)
    lhs = (signed_pow(x) - signed_pow(y)) * (x - y)
    gap = lhs - 2.0 ** (1.0 - gamma) * s ** (gamma + 1.0)
    # t = 0/0 at x = y goes unused; log1p(-1) = -inf, when t rounds to +-1,
    # gives expm1's exact -1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (np.abs(x) - np.abs(y)) / s
        bracket = np.expm1(gamma * np.log1p(t)) + np.expm1(gamma * np.log1p(-t))
    gap = np.where(x * y < 0, s * (s / 2.0) ** gamma * bracket, gap)
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
