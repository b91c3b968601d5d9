"""Ready-to-run experiment bundles: grid, model, noise, cutoff, initial data.

The initial-condition presets are all smooth (spectrally tiny truncation
error), so positivity monitoring measures the scheme rather than Gibbs
artifacts of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import SpectralBasis, build_basis
from .diagnostics import HypothesisParams
from .dynamics import ModelConfig, SolverConfig
from .fixedpoint import CutoffParams
from .noise import NoiseSpec


@dataclass
class Scenario:
    basis: SpectralBasis
    model: ModelConfig
    solver: SolverConfig
    noise: NoiseSpec
    cutoff: CutoffParams
    hypothesis: HypothesisParams
    u0: np.ndarray
    v0: np.ndarray

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, noise=replace(self.noise, seed=seed))


def constant_fields(basis: SpectralBasis, u_value: float, v_value: float):
    return (
        np.full(basis.grid_shape, float(u_value)),
        np.full(basis.grid_shape, float(v_value)),
    )


def bump_field(
    basis: SpectralBasis,
    base: float,
    amplitude: float,
    center: float = 0.5,
    width: float = 0.15,
) -> np.ndarray:
    """base + amplitude * periodic Gaussian bump (product over axes).

    exp(-sin^2(pi (x - c)) / w^2) is C-infinity and 1-periodic with vanishing
    derivative at the box faces, so it is friendly to both boundary types.
    A width whose square overflows to inf (width**2 would raise) gives the
    flat limit, profile 1.
    """
    x = basis.axis_coordinates()
    profile = np.exp(-np.sin(np.pi * (x - center)) ** 2 / (width * width))
    field = profile
    for _ in range(basis.dimension - 1):
        field = np.multiply.outer(field, profile)
    return base + amplitude * field


def homogeneous_equilibrium(model: ModelConfig) -> tuple[float, float]:
    """Vegetated steady state of the reaction system (needs k^2 >= 4 f chi g^2).

    Solves k - f u - chi u v^2 = 0 and u v^2 = g v; the root with the larger
    biomass is returned.  Porous-medium diffusion does not shift homogeneous
    equilibria.
    """
    disc = model.k**2 - 4.0 * model.f * model.chi * model.g**2
    if model.f <= 0 or model.g <= 0 or disc < 0:
        raise ValueError(
            "no vegetated equilibrium: need f, g > 0 and k^2 >= 4 f chi g^2"
        )
    u_star = (model.k - np.sqrt(disc)) / (2.0 * model.f)
    return float(u_star), float(model.g / u_star)


def perturbed_homogeneous_fields(
    basis: SpectralBasis, model: ModelConfig, amplitude: float = 1e-3
):
    u_star, v_star = homogeneous_equilibrium(model)
    wave = basis.mode_field(1)
    return u_star + amplitude * wave, v_star + amplitude * wave


def default_hypothesis(**overrides) -> HypothesisParams:
    """The documented d=1 parameter set satisfying both hypothesis groups."""
    return HypothesisParams(**overrides)


def default_cutoff(kappa: float = 1.0, gamma: float = 3.0) -> CutoffParams:
    hp = HypothesisParams()
    return CutoffParams(
        kappa=kappa, gamma=gamma, m=hp.m, m0=hp.m0, p0_star=hp.p0_star
    )


def small_data_scenario(
    seed: int = 0,
    n: int = 64,
    t_final: float = 0.1,
    dt: float = 1e-3,
    sigma: float = 0.05,
) -> Scenario:
    """Small fields on a short horizon: the Picard sweep contracts fast."""
    basis = build_basis(1, "periodic", n, n - 1)
    model = ModelConfig(
        r_u=1.0, r_v=0.1, chi=1.0, gamma=3.0, sigma1=sigma, sigma2=sigma
    )
    solver = SolverConfig(dt=dt, t_final=t_final, snapshot_stride=1)
    noise = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.1, c2=0.1, seed=seed)
    u0 = bump_field(basis, 0.05, 0.05)
    v0 = bump_field(basis, 0.04, 0.04, center=0.3)
    return Scenario(basis, model, solver, noise, default_cutoff(),
                    default_hypothesis(), u0, v0)


def nonneg_scenario(seed: int = 0, n: int = 128, dt: float = 1e-3) -> Scenario:
    """Nonnegative bump data on [0, 1] used by the positivity audit."""
    basis = build_basis(1, "periodic", n, n - 1)
    model = ModelConfig(
        r_u=1.0, r_v=0.05, chi=1.0, gamma=3.0, sigma1=0.05, sigma2=0.05
    )
    solver = SolverConfig(dt=dt, t_final=1.0, snapshot_stride=100)
    noise = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.1, c2=0.1, seed=seed)
    u0 = bump_field(basis, 0.1, 0.15)
    v0 = bump_field(basis, 0.05, 0.1, center=0.4)
    return Scenario(basis, model, solver, noise, default_cutoff(),
                    default_hypothesis(), u0, v0)


def exit_scenario(seed: int = 0, n: int = 32, t_final: float = 1.0) -> Scenario:
    """Sized so the norm budget h crosses the low rungs within the horizon."""
    basis = build_basis(1, "periodic", n, n - 1)
    model = ModelConfig(
        r_u=1.0, r_v=0.1, chi=0.5, gamma=3.0, sigma1=0.25, sigma2=0.25
    )
    solver = SolverConfig(dt=2e-3, t_final=t_final, snapshot_stride=1)
    noise = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.6, c2=0.6, seed=seed)
    u0 = bump_field(basis, 0.9, 0.5)
    v0 = bump_field(basis, 0.8, 0.4, center=0.35)
    return Scenario(basis, model, solver, noise, default_cutoff(),
                    default_hypothesis(), u0, v0)


def uniqueness_scenario(seed: int = 0, n: int = 64) -> Scenario:
    """Noise strong enough that distinct Brownian paths separate visibly in
    the weak norms, while the data stay small enough for fast contraction."""
    basis = build_basis(1, "periodic", n, n - 1)
    model = ModelConfig(
        r_u=1.0, r_v=0.1, chi=1.0, gamma=3.0, sigma1=0.8, sigma2=0.8
    )
    solver = SolverConfig(dt=1e-3, t_final=0.25, snapshot_stride=1)
    noise = NoiseSpec(delta1=1.0, delta2=1.0, c1=0.5, c2=0.5, seed=seed)
    u0 = bump_field(basis, 0.2, 0.2)
    v0 = bump_field(basis, 0.15, 0.15, center=0.35)
    return Scenario(basis, model, solver, noise, default_cutoff(),
                    default_hypothesis(), u0, v0)

