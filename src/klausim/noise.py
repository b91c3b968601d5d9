"""Two-channel spectral Gaussian noise with trace-class covariance.

Each channel j carries a Wiener field

    W_j(t, x) = sum_k lambda_k^(j) psi_k(x) beta_k^(j)(t)

with nonnegative amplitudes lambda_k = C_j (1 + nu_k)^(-delta_j) decaying
fast enough (delta_j > 1/2) that the covariance is trace class.  The (1+nu)
regularization keeps the zero mode finite; it is dominated by the bare
nu^(-delta) decay requirement for k >= 1.

Brownian increments come from counter-based Philox streams keyed by
(seed, channel, path, rung) with the block counter keyed by the step index,
so any (channel, mode, step, path) coordinate can be sampled independently,
in any order, on any number of workers, and always reproduces bit-identical
values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import SpectralBasis, expand, synthesize
from .fields import _lp_rows, lp_norm


@dataclass(frozen=True)
class NoiseSpec:
    """Covariance spectrum parameters for the two channels plus master seed.

    `lambdas1`/`lambdas2` override the default (1+nu)^(-delta) spectrum;
    overrides are accepted as-is and only validated against the decay bound.
    """

    delta1: float = 1.0
    delta2: float = 1.0
    c1: float = 0.1
    c2: float = 0.1
    seed: int = 0
    lambdas1: Optional[np.ndarray] = None
    lambdas2: Optional[np.ndarray] = None

    def spectrum(self, basis: SpectralBasis, channel: int) -> np.ndarray:
        """Amplitudes lambda_k for channel 1 or 2 on the retained modes."""
        if channel not in (1, 2):
            raise ValueError(f"channel must be 1 or 2, got {channel}")
        override = self.lambdas1 if channel == 1 else self.lambdas2
        if override is not None:
            lam = np.asarray(override, dtype=float)
            if lam.size != basis.n_modes:
                raise ValueError(
                    f"explicit spectrum has {lam.size} entries for "
                    f"{basis.n_modes} modes"
                )
            return lam
        c = self.c1 if channel == 1 else self.c2
        delta = self.delta1 if channel == 1 else self.delta2
        return c * (1.0 + basis.eigenvalues) ** (-delta)

    def trace(self, basis: SpectralBasis, channel: int) -> float:
        """sum_k lambda_k^2, the L^2 energy rate of the channel."""
        return float(np.sum(self.spectrum(basis, channel) ** 2))


@dataclass
class NoiseValidationReport:
    ok: bool
    traces: tuple[float, float]
    trace_rel_change: Optional[tuple[float, float]]
    failures: list[str]

    def __str__(self) -> str:
        lines = [f"noise_ok: {self.ok}"]
        for j, tr in enumerate(self.traces, start=1):
            lines.append(f"trace_channel_{j}: {tr:.12g}")
        if self.trace_rel_change is not None:
            for j, rel in enumerate(self.trace_rel_change, start=1):
                lines.append(f"trace_rel_change_channel_{j}: {rel:.3e}")
        for msg in self.failures:
            lines.append(f"failure: {msg}")
        return "\n".join(lines)


def validate_noise(
    spec: NoiseSpec,
    basis: SpectralBasis,
    refined_basis: Optional[SpectralBasis] = None,
) -> NoiseValidationReport:
    """Check the trace-class hypothesis: decay exponents, bound, finite trace.

    A channel with zero amplitude is accepted as a degenerate noise-free
    channel.  Passing a basis with more retained modes reports the relative
    trace change (truncation adequacy).
    """
    failures = []
    for j, (delta, c) in enumerate(
        [(spec.delta1, spec.c1), (spec.delta2, spec.c2)], start=1
    ):
        if c < 0:
            failures.append(f"channel {j}: amplitude C={c} is negative")
        if c > 0 and delta <= 0.5:
            failures.append(
                f"channel {j}: decay exponent delta={delta} must exceed 1/2"
            )
    traces = []
    for j in (1, 2):
        lam = spec.spectrum(basis, j)
        c = spec.c1 if j == 1 else spec.c2
        delta = spec.delta1 if j == 1 else spec.delta2
        if np.any(lam < 0):
            failures.append(f"channel {j}: negative spectrum entry")
        nu = basis.eigenvalues[1:]
        bound = c * nu ** (-delta) if c > 0 else np.zeros_like(nu)
        if np.any(lam[1:] > bound * (1.0 + 1e-12)):
            failures.append(f"channel {j}: spectrum violates C nu^-delta bound")
        tr = float(np.sum(lam**2))
        if not np.isfinite(tr):
            failures.append(f"channel {j}: trace not finite")
        traces.append(tr)
    rel = None
    if refined_basis is not None:
        rel = tuple(
            abs(spec.trace(refined_basis, j) - traces[j - 1])
            / max(traces[j - 1], 1e-300)
            for j in (1, 2)
        )
    return NoiseValidationReport(
        ok=not failures,
        traces=(traces[0], traces[1]),
        trace_rel_change=rel,
        failures=failures,
    )


# `generate_path` derives each key once per channel and `_path_keys` once
# per (channel, path, rung) of a batch; the per-step callers
# (`sample_increments`, `mode_normals`) hit this cache for the path they step
@functools.lru_cache(maxsize=2)
def _stream_key(seed: int, channel: int, path: int, rung: int) -> np.ndarray:
    """Read-only Philox key of the (seed, channel, path, rung) substream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(channel, path, rung))
    key = ss.generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


def _path_keys(spec: NoiseSpec, paths, rungs) -> np.ndarray:
    """Stream keys (P, channel, key word) of path paths[p] at rung rungs[p]."""
    return np.array([[_stream_key(spec.seed, channel, int(i), int(r))
                      for channel in (1, 2)] for i, r in zip(paths, rungs)])


# One Philox serves every draw.  Each draw sets its whole state (counter, key
# and an empty output buffer), so it never depends on an earlier draw, and
# gets the bits a fresh Philox(counter=..., key=...) would at a third of the
# cost.  The package runs no threads; pool workers are processes, each with
# its own copy.  The seed never shows; a ready SeedSequence spares the OS
# entropy one Philox() would read.
_PHILOX = np.random.Philox(np.random.SeedSequence(0))
_GENERATOR = np.random.Generator(_PHILOX)


def _normals(key: np.ndarray, step_index: int, n: int) -> np.ndarray:
    """n standard normals of stream `key` at a step: the Philox block at the
    256-bit counter step_index * 2^128, whose little-endian words are
    (0, 0, step_index mod 2^64, step_index >> 64)."""
    step = int(step_index)
    _PHILOX.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, step & 0xFFFFFFFFFFFFFFFF, step >> 64),
                  "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return _GENERATOR.standard_normal(n)


def mode_normals(
    spec: NoiseSpec,
    channel: int,
    step_index: int,
    n_modes: int,
    path_index: int = 0,
    rung: int = 0,
) -> np.ndarray:
    """Standard normals xi_k for (channel, step); slot k is a pure function
    of (seed, channel, k, step, path, rung) regardless of how many modes are
    requested."""
    return _normals(_stream_key(spec.seed, channel, path_index, rung),
                    step_index, n_modes)


def sample_increments(
    spec: NoiseSpec,
    basis: SpectralBasis,
    dt: float,
    step_index: int,
    path_index: int = 0,
    rung: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One pair of Wiener field increments (dW1, dW2) for a single step."""
    keys = _path_keys(spec, [path_index], [rung])
    dw1, dw2 = _increment_rows(spec, basis, dt, keys, [step_index])
    return dw1[0], dw2[0]


def _increment_rows(
    spec: NoiseSpec,
    basis: SpectralBasis,
    dt: float,
    keys: np.ndarray,
    step_indices,
) -> tuple[np.ndarray, np.ndarray]:
    """Field increments (dW1, dW2) for a batch of paths, shaped (P,) + grid.

    Row p draws step step_indices[p] of its streams keys[p] from
    `_path_keys`, and rounds lam * (xi sqrt(dt)) as a stored path does: it
    equals NoisePath.field_increment of generate_path's table for that
    (path, rung, step) bit for bit, at any dt.
    """
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    root_dt = np.sqrt(dt)
    out = []
    for channel in (1, 2):
        xi = np.array([_normals(key[channel - 1], step, basis.n_modes)
                       for key, step in zip(keys, step_indices)])
        out.append(synthesize(basis,
                              spec.spectrum(basis, channel) * (xi * root_dt)))
    return out[0], out[1]


@dataclass
class NoisePath:
    """Realized Brownian mode increments on a uniform time grid.

    `increments[j-1, n, k]` holds dbeta_k^(j) over [t_n, t_n + dt] with
    variance dt.  The whole object is a pure function of
    (spec.seed, spec spectrum, basis, dt, n_steps, path_index, rung).
    """

    basis: SpectralBasis
    spec: NoiseSpec
    dt: float
    increments: np.ndarray  # (2, n_steps, n_modes)
    path_index: int = 0
    rung: int = 0

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    def field_increment(self, channel: int, step_index: int) -> np.ndarray:
        """dW_j(t_n) as a grid field: sum_k lambda_k dbeta_k psi_k."""
        lam = self.spec.spectrum(self.basis, channel)
        return synthesize(self.basis, lam * self.increments[channel - 1, step_index])

    def coarsen(self, factor: int) -> "NoisePath":
        """Sum consecutive increments so a coarser run sees the same path."""
        if factor < 1 or self.n_steps % factor:
            raise ValueError(f"cannot coarsen {self.n_steps} steps by {factor}")
        pooled = self.increments.reshape(
            2, self.n_steps // factor, factor, -1
        ).sum(axis=2)
        return NoisePath(
            basis=self.basis,
            spec=self.spec,
            dt=self.dt * factor,
            increments=pooled,
            path_index=self.path_index,
            rung=self.rung,
        )


def generate_path(
    spec: NoiseSpec,
    basis: SpectralBasis,
    dt: float,
    n_steps: int,
    path_index: int = 0,
    rung: int = 0,
) -> NoisePath:
    """Draw the full increment table for one path."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    inc = np.empty((2, n_steps, basis.n_modes))
    root_dt = np.sqrt(dt)
    for channel in (1, 2):
        key = _stream_key(spec.seed, channel, path_index, rung)
        for n in range(n_steps):
            inc[channel - 1, n] = _normals(key, n, basis.n_modes) * root_dt
    return NoisePath(
        basis=basis,
        spec=spec,
        dt=dt,
        increments=inc,
        path_index=path_index,
        rung=rung,
    )


def stratonovich_correction(
    spec: NoiseSpec, basis: SpectralBasis, channel: int, sigma: float = 1.0
) -> np.ndarray:
    """Conversion drift field c(x) = sigma^2/2 sum_k lambda_k^2 psi_k(x)^2.

    Integrating the Stratonovich system with Ito stepping requires the extra
    drift state * c; for full sin/cos pairs the field is spatially constant.
    """
    lam = spec.spectrum(basis, channel)
    return 0.5 * sigma**2 * expand(basis, lam**2, basis.axis_table**2)


def unit_trace_spec(spec: NoiseSpec, basis: SpectralBasis) -> NoiseSpec:
    """Rescale both channels so that sum_k lambda_k^2 = 1.

    The moment-ratio self-check is scale-covariant (the ratio picks up a
    factor trace^(p/2)); normalizing makes the reported number comparable
    across parameter choices.  Degenerate channels are left untouched.
    """
    import dataclasses

    tr1, tr2 = spec.trace(basis, 1), spec.trace(basis, 2)
    return dataclasses.replace(
        spec,
        c1=spec.c1 / np.sqrt(tr1) if tr1 > 0 else spec.c1,
        c2=spec.c2 / np.sqrt(tr2) if tr2 > 0 else spec.c2,
        lambdas1=None if spec.lambdas1 is None else spec.lambdas1 / np.sqrt(tr1),
        lambdas2=None if spec.lambdas2 is None else spec.lambdas2 / np.sqrt(tr2),
    )


@dataclass
class BdgReport:
    p: float
    n_paths: int
    ratio: float
    sup_moment: float
    denominator: float
    isometry_estimate: float
    isometry_expected: float
    isometry_stderr: float
    degenerate: bool

    def __str__(self) -> str:
        if self.degenerate:
            return "bdg: degenerate (zero integrand), ratio 0/0"
        return (
            f"bdg p={self.p}: ratio={self.ratio:.6g} "
            f"(sup moment {self.sup_moment:.6g} / denom {self.denominator:.6g}); "
            f"isometry E|Y(T)|^2 = {self.isometry_estimate:.6g} "
            f"vs {self.isometry_expected:.6g} "
            f"(s.e. {self.isometry_stderr:.3g})"
        )


def bdg_selfcheck(
    spec: NoiseSpec,
    basis: SpectralBasis,
    p: float,
    n_paths: int,
    channel: int = 1,
    xi: Optional[np.ndarray] = None,
    t_final: float = 1.0,
    n_steps: int = 16,
) -> BdgReport:
    """Monte-Carlo moment ratio for Y(t) = int_0^t xi dW, xi deterministic.

    Reports E[sup_t |Y|_L2^p] / (int_0^T |xi|_L2^2 dt)^(p/2) together with
    the Ito isometry estimate E|Y(T)|_L2^2 (expected T * trace for xi = 1).
    The stochastic integrand is the multiplication operator f -> xi * f.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if n_paths < 1000:
        raise ValueError(f"need at least 1000 paths, got {n_paths}")
    if xi is None:
        xi = np.ones(basis.grid_shape)
    dt = t_final / n_steps
    denom = (t_final * lp_norm(xi, 2.0) ** 2) ** (p / 2.0)
    keys = _path_keys(spec, range(n_paths), [0] * n_paths)
    y = np.zeros((n_paths,) + basis.grid_shape)
    sup_norm = [0.0] * n_paths
    for n in range(n_steps):
        dw = _increment_rows(spec, basis, dt, keys, [n] * n_paths)
        y = y + xi * dw[channel - 1]
        sup_norm = [max(s, r) for s, r in zip(sup_norm, _lp_rows(y, 2.0))]
    # powers on scalars, as each path alone would take them
    sup_p = np.array([s**p for s in sup_norm])
    end_sq = np.array([r**2 for r in _lp_rows(y, 2.0)])
    degenerate = denom == 0.0
    ratio = float("nan") if degenerate else float(np.mean(sup_p) / denom)
    return BdgReport(
        p=p,
        n_paths=n_paths,
        ratio=ratio,
        sup_moment=float(np.mean(sup_p)),
        denominator=denom,
        isometry_estimate=float(np.mean(end_sq)),
        isometry_expected=t_final * spec.trace(basis, channel),
        isometry_stderr=float(np.std(end_sq, ddof=1) / np.sqrt(n_paths)),
        degenerate=degenerate,
    )
