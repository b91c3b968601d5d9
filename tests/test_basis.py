"""Eigenbasis construction, transforms, and the Weyl-count bookkeeping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klausim.basis import (
    _axis_mode,
    analyze,
    apply_laplacian,
    build_basis,
    resolvable_modes,
    synthesize,
    weyl_count,
)

from helpers import basis_serial, weyl_bound_constant

PI2 = np.pi**2


def _dense_table(basis):
    """Oracle: the (n_modes, N^d) table of every retained mode on the grid,
    each row the outer product of its 1-d modes along `mode_indices`."""
    x = basis.axis_coordinates()
    rows = []
    for idx in basis.mode_indices:
        mode = _axis_mode(idx[0], x, basis.boundary)
        for i in idx[1:]:
            mode = np.multiply.outer(mode, _axis_mode(i, x, basis.boundary))
        rows.append(mode.ravel())
    return np.array(rows)


@pytest.fixture(scope="module")
def per1d():
    return build_basis(1, "periodic", 64, 9)


@pytest.fixture(scope="module")
def neu1d():
    return build_basis(1, "neumann", 64, 8)


def second_difference_laplacian(f, boundary):
    """Independent O(h^2) stencil oracle for the Laplacian."""
    n = f.shape[0]
    h = 1.0 / n
    if boundary == "periodic":
        return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / h**2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    # midpoint grid + zero-flux ghost cells: mirror the boundary values
    out[0] = (f[1] - f[0]) / h**2
    out[-1] = (f[-2] - f[-1]) / h**2
    return out


def test_periodic_eigenvalues_match_analytic_derivatives():
    basis = build_basis(1, "periodic", 64, 5)
    expected = np.array([0.0, 4 * PI2, 4 * PI2, 16 * PI2, 16 * PI2])
    assert np.allclose(basis.eigenvalues, expected, rtol=0, atol=1e-12)


def test_constant_mode_is_first(per1d, neu1d):
    for basis in (per1d, neu1d):
        assert basis.eigenvalues[0] == 0.0
        assert np.all(basis.mode_field(0) == 1.0)


def test_neumann_first_eigenvalue():
    basis = build_basis(1, "neumann", 64, 2)
    # -(cos pi x)'' = pi^2 cos pi x
    assert np.isclose(basis.eigenvalues[1], PI2, rtol=0, atol=1e-12)


def test_discrete_orthonormality(per1d, neu1d):
    for basis in (per1d, neu1d):
        table = _dense_table(basis)
        gram = table @ table.T * basis.cell_volume
        assert np.max(np.abs(gram - np.eye(basis.n_modes))) <= 1e-10


def test_periodic_supnorm_is_sqrt2_exactly():
    basis = build_basis(1, "periodic", 64, 63)
    table = _dense_table(basis)
    for k in range(1, basis.n_modes):
        assert np.max(np.abs(table[k])) == np.sqrt(2.0)


def test_analyze_unit_vectors(per1d):
    for k in (0, 3, 7):
        coeffs = analyze(per1d, per1d.mode_field(k))
        expected = np.zeros(per1d.n_modes)
        expected[k] = 1.0
        assert np.max(np.abs(coeffs - expected)) <= 1e-10


def test_analyze_zero_and_linearity(per1d):
    zero = np.zeros(per1d.grid_shape)
    assert np.all(analyze(per1d, zero) == 0.0)
    f = 2.0 * per1d.mode_field(1) + 3.0 * per1d.mode_field(2)
    coeffs = analyze(per1d, f)
    expected = np.zeros(per1d.n_modes)
    expected[1], expected[2] = 2.0, 3.0
    assert np.max(np.abs(coeffs - expected)) <= 1e-10


def test_synthesize_basics(per1d):
    const = synthesize(per1d, np.array([1.0]))
    assert np.allclose(const, 1.0, atol=1e-14)
    zero = synthesize(per1d, np.zeros(4))
    assert np.all(zero == 0.0)


def test_round_trip_band_limited(per1d):
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=per1d.n_modes)
    f = synthesize(per1d, coeffs)
    assert np.max(np.abs(analyze(per1d, f) - coeffs)) <= 1e-10
    g = synthesize(per1d, analyze(per1d, f))
    assert np.max(np.abs(g - f)) <= 1e-10


def test_laplacian_eigenrelation(per1d, neu1d):
    for basis in (per1d, neu1d):
        for k in range(basis.n_modes):
            psi = basis.mode_field(k)
            err = apply_laplacian(basis, psi) + basis.eigenvalues[k] * psi
            assert np.max(np.abs(err)) <= 1e-9


def test_laplacian_of_constant_vanishes(per1d):
    out = apply_laplacian(per1d, np.ones(per1d.grid_shape))
    assert np.max(np.abs(out)) <= 1e-12


def test_laplacian_matches_analytic_second_derivative(per1d):
    x = per1d.axis_coordinates()
    f = np.sin(2 * np.pi * x)
    out = apply_laplacian(per1d, f)
    assert np.max(np.abs(out + 4 * PI2 * f)) <= 1e-10


def test_laplacian_close_to_stencil_on_smooth_field():
    basis = build_basis(1, "periodic", 128, 9)
    x = basis.axis_coordinates()
    f = np.exp(np.sin(2 * np.pi * x))
    f_band = synthesize(basis, analyze(basis, f))
    spectral = apply_laplacian(basis, f_band)
    stencil = second_difference_laplacian(f_band, "periodic")
    h = 1.0 / basis.grid_points
    scale = np.max(np.abs(spectral))
    assert np.max(np.abs(spectral - stencil)) <= 20.0 * h**2 * scale


def test_weyl_count_examples():
    basis = build_basis(1, "periodic", 64, 5)
    assert weyl_count(basis, 0.0) == 1
    assert weyl_count(basis, 4 * PI2) == 3
    assert weyl_count(basis, 1e12) == basis.n_modes


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, -1e-300])
def test_weyl_count_refuses_bad_lambda(per1d, lam):
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        weyl_count(per1d, lam)


def test_weyl_ratio_bounded(per1d):
    c = weyl_bound_constant(per1d)
    assert np.isfinite(c) and c > 0
    lams = per1d.eigenvalues[1:]
    counts = np.array([weyl_count(per1d, lam) for lam in lams])
    assert np.all(counts <= c * lams**0.5 + 1e-12)


def test_supnorm_growth_bound_2d():
    basis = build_basis(2, "periodic", 16, 40)
    sups = np.max(np.abs(_dense_table(basis)), axis=1)
    nu = basis.eigenvalues
    # sup |psi_k| <= C nu_k^((d-1)/2) with a fitted C, reported not pinned
    ratios = sups[1:] / nu[1:] ** 0.5
    assert np.all(ratios <= ratios.max())
    assert ratios.max() <= 2.1  # d=2 tensor modes peak at 2


def test_mode_ordering_deterministic():
    a = build_basis(2, "periodic", 16, 30)
    b = build_basis(2, "periodic", 16, 30)
    assert a.mode_indices == b.mode_indices
    assert np.all(np.diff(a.eigenvalues) >= 0)


def assert_same_basis(got, want):
    """Every field bit for bit, dtypes and write flags included, and the
    multi-indices tuples of Python ints."""
    for name in ("eigenvalues", "axis_table", "band_positions"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.flags.writeable) \
            == (b.dtype, b.shape, b.flags.writeable), name
        assert a.tobytes() == b.tobytes(), name
    assert got.mode_indices == want.mode_indices
    assert {type(i) for idx in got.mode_indices for i in idx} == {int}
    assert all(type(idx) is tuple for idx in got.mode_indices)


@pytest.mark.parametrize("d, boundary, n, n_modes", [
    # full bands and a lone mode, every d on both boundaries
    (1, "periodic", 64, 63), (1, "neumann", 64, 64),
    (1, "periodic", 16, 1), (1, "neumann", 16, 1),
    (2, "periodic", 16, 225), (2, "neumann", 16, 256),
    (2, "periodic", 16, 1), (2, "neumann", 16, 1),
    (3, "periodic", 8, 343), (3, "neumann", 8, 512),
    (3, "periodic", 8, 1), (3, "neumann", 8, 1),
    # cuts inside a degenerate shell: the 4 periodic modes at 4 pi^2 in
    # d=2, 3 of the 6 at 4 pi^2 and 2 of the 3 Neumann modes at pi^2 in d=3
    (2, "periodic", 16, 2), (2, "periodic", 16, 3),
    (2, "periodic", 16, 4), (2, "periodic", 16, 5),
    (3, "periodic", 8, 4), (3, "neumann", 8, 3),
    # field_2d's basis and a large d=3 band
    (2, "neumann", 64, 1024), (3, "neumann", 64, 5000),
])
def test_build_basis_matches_serial_construction(d, boundary, n, n_modes):
    assert_same_basis(build_basis(d, boundary, n, n_modes),
                      basis_serial(d, boundary, n, n_modes))


def test_every_cut_of_a_3d_band_matches_serial_construction():
    """At d=3 the permutations of a multi-index can sum to different floats
    ((1, 1, 2) and (2, 1, 1) do), so only a left-to-right sum keeps the
    serial order; every truncation of the band is checked."""
    for n_modes in range(1, 8**3 + 1):
        assert_same_basis(build_basis(3, "neumann", 8, n_modes),
                          basis_serial(3, "neumann", 8, n_modes))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_build_basis_matches_serial_construction_hypothesis(data):
    d = data.draw(st.sampled_from([1, 2, 3]))
    boundary = data.draw(st.sampled_from(["periodic", "neumann"]))
    n = data.draw(st.sampled_from({1: [8, 16, 32], 2: [8, 16], 3: [8]}[d]))
    n_modes = data.draw(st.integers(1, resolvable_modes(d, boundary, n)))
    assert_same_basis(build_basis(d, boundary, n, n_modes),
                      basis_serial(d, boundary, n, n_modes))


def test_three_dimensional_tensor_basis():
    basis = build_basis(3, "periodic", 8, 20)
    assert basis.grid_shape == (8, 8, 8)
    table = _dense_table(basis)
    gram = table @ table.T * basis.cell_volume
    assert np.max(np.abs(gram - np.eye(20))) <= 1e-10
    # first excited shell: one frequency-1 factor on some axis
    assert np.isclose(basis.eigenvalues[1], 4 * PI2)
    for k in range(basis.n_modes):
        psi = basis.mode_field(k)
        err = apply_laplacian(basis, psi) + basis.eigenvalues[k] * psi
        assert np.max(np.abs(err)) <= 1e-9


def test_build_errors():
    with pytest.raises(ValueError):
        build_basis(4, "periodic", 64, 5)
    with pytest.raises(ValueError):
        build_basis(1, "periodic", 4, 2)
    with pytest.raises(ValueError):
        build_basis(1, "periodic", 48, 2)  # not a power of two
    with pytest.raises(ValueError):
        build_basis(1, "periodic", 64, 64)  # only 63 resolvable
    with pytest.raises(ValueError):
        build_basis(1, "dirichlet", 64, 4)


def test_shape_mismatch_errors(per1d):
    with pytest.raises(ValueError):
        analyze(per1d, np.zeros(33))
    with pytest.raises(ValueError):
        synthesize(per1d, np.zeros(per1d.n_modes + 1))


def _resolvable(d, boundary, n):
    return (n - 1 if boundary == "periodic" else n) ** d


@st.composite
def bases_and_seeds(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    boundary = draw(st.sampled_from(["periodic", "neumann"]))
    n = draw(st.sampled_from({1: [8, 16, 64], 2: [8, 16, 32], 3: [8]}[d]))
    full = _resolvable(d, boundary, n)
    n_modes = draw(st.one_of(st.just(full), st.integers(1, full)))
    return d, boundary, n, n_modes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(bases_and_seeds())
# truncations that split a tie (2 of the 4 periodic modes at 4 pi^2, 2 of
# the 3 Neumann modes at 2 pi^2) and the full bands of the largest grids
@example((2, "periodic", 8, 3, 1))
@example((3, "neumann", 8, 6, 2))
@example((2, "periodic", 32, 31**2, 3))
@example((3, "neumann", 8, 8**3, 4))
def test_separable_transforms_match_dense_oracle(case):
    d, boundary, n, n_modes, seed = case
    basis = build_basis(d, boundary, n, n_modes)
    table = _dense_table(basis)
    for k in (0, basis.n_modes // 2, basis.n_modes - 1):
        assert np.array_equal(basis.mode_field(k).ravel(), table[k])
    rng = np.random.default_rng(seed)
    f = rng.normal(size=basis.grid_shape)
    coeffs = rng.normal(size=basis.n_modes)
    cases = (
        (analyze(basis, f), table @ f.ravel() * basis.cell_volume),
        (synthesize(basis, coeffs).ravel(), coeffs @ table),
        (synthesize(basis, coeffs[:1]).ravel(), coeffs[:1] @ table[:1]),
        (apply_laplacian(basis, f).ravel(),
         (-basis.eigenvalues * (table @ f.ravel() * basis.cell_volume))
         @ table),
    )
    for got, want in cases:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # stacks: each row is its lone call bit for bit, full band and prefix
    fs = rng.normal(size=(3,) + basis.grid_shape)
    cs = rng.normal(size=(3, basis.n_modes))
    prefix = cs[:, : max(1, basis.n_modes // 2)]
    for stack, lone in ((analyze(basis, fs), [analyze(basis, f) for f in fs]),
                        (synthesize(basis, cs), [synthesize(basis, c) for c in cs]),
                        (synthesize(basis, prefix),
                         [synthesize(basis, c) for c in prefix])):
        assert stack.flags.c_contiguous
        assert np.array_equal(stack, lone)


@pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 8)])
def test_empty_stacks_keep_their_shape(d, n):
    basis = build_basis(d, "periodic", n, 5)
    assert analyze(basis, np.zeros((0,) + basis.grid_shape)).shape == (0, 5)
    for m in (5, 2):
        fields = synthesize(basis, np.zeros((0, m)))
        assert fields.shape == (0,) + basis.grid_shape


def test_laplacian_matrix_matches_dense_oracle():
    for basis in (build_basis(1, "periodic", 32, 31),
                  build_basis(2, "neumann", 16, 200)):
        table = _dense_table(basis)
        want = table.T @ ((-basis.eigenvalues[:, None]) * table) \
            * basis.cell_volume
        assert np.array_equal(basis.laplacian_matrix(), want)


def test_apply_laplacian_ignores_cached_matrix():
    """The spectral Laplacian gives the same bits whether or not the dense
    matrix of the implicit solver has been built on the same basis."""
    basis = build_basis(2, "periodic", 16, 225)
    f = np.random.default_rng(11).normal(size=basis.grid_shape)
    before = apply_laplacian(basis, f)
    basis.laplacian_matrix()
    assert np.array_equal(apply_laplacian(basis, f), before)


def test_resolvable_modes_is_the_full_band():
    for d, boundary, n in ((1, "periodic", 64), (1, "neumann", 16),
                           (2, "periodic", 8), (3, "neumann", 8)):
        count = resolvable_modes(d, boundary, n)
        assert count == _resolvable(d, boundary, n)
        basis = build_basis(d, boundary, n, count)
        assert len(set(basis.mode_indices)) == count
        with pytest.raises(ValueError):
            build_basis(d, boundary, n, count + 1)


def test_full_band_3d_n32_is_small_and_round_trips():
    basis = build_basis(3, "neumann", 32, 32**3)
    stored = (basis.eigenvalues.nbytes + basis.axis_table.nbytes
              + basis.band_positions.nbytes)
    assert stored < 1_000_000
    assert basis.axis_table.shape == (32, 32)
    f = np.random.default_rng(3).normal(size=basis.grid_shape)
    coeffs = analyze(basis, f)
    back = synthesize(basis, coeffs)
    assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))
    assert np.max(np.abs(analyze(basis, back) - coeffs)) \
        <= 1e-12 * np.max(np.abs(coeffs))
