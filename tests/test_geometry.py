from dataclasses import fields

import numpy as np
import pytest

from evosq.errors import GeometryError
from evosq.geometry import (
    build_warped_geometry,
    conformal_potential,
    derivative_matrix,
    fd_weights,
    fourier_matrix,
    make_profile,
)


# -- profiles ---------------------------------------------------------------


def test_disk_profile():
    p = make_profile("disk")
    assert p.T == 1.0
    assert p.cap == "center"
    assert p.r(0.0) == 1.0
    assert np.isclose(p.r(0.4), 0.6)
    assert np.isclose(p.rp(0.2), -1.0)


def test_annulus_profile():
    p = make_profile("annulus", rho=0.25)
    assert np.isclose(p.T, 0.75)
    assert p.cap == "dirichlet"
    assert np.isclose(p.r(p.T), 0.25)
    assert make_profile("annulus") == p  # the default the CLI uses too


def test_flat_cylinder_profile():
    p = make_profile("flat-cylinder", T=0.8)
    assert p.cap == "dirichlet"
    ts = np.linspace(0, 0.8, 9)
    assert np.allclose(p.r(ts), 1.0)
    assert np.allclose(p.rp(ts), 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "annulus", "rho": 0.0},
        {"name": "annulus", "rho": 1.0},
        {"name": "annulus", "rho": -0.5},
        {"name": "flat-cylinder", "T": 0.0},
        {"name": "nosuch"},
        # a parameter its profile does not take, and a name that is not a string
        {"name": "disk", "rho": 0.25},
        {"name": "annulus", "T": 1.0},
        {"name": "flat-cylinder", "rho": 0.25},
        {"name": ["disk"]},
        {"name": "flat-cylinder", "T": float("nan")},
    ],
)
def test_invalid_profiles(kwargs):
    name = kwargs.pop("name")
    with pytest.raises(GeometryError, match="invalid profile"):
        make_profile(name, **kwargs)


def test_profiles_are_bitwise_linear_warps():
    ts = np.linspace(0.0, 0.7, 29)
    for p, r, rp in (
        (make_profile("disk"), 1.0 - ts, -1.0),
        (make_profile("annulus", rho=0.25), 1.0 - ts, -1.0),
        (make_profile("flat-cylinder", T=0.8), 1.0, 0.0),
    ):
        assert np.array_equal(p.r(ts), np.broadcast_to(r, ts.shape))
        assert np.array_equal(p.rp(ts), np.full_like(ts, rp))
        assert not any(callable(getattr(p, f.name)) for f in fields(p))  # plain data


# -- finite difference weights ----------------------------------------------


def test_fd_weights_polynomial_exactness():
    # stencil weights must differentiate polynomials exactly up to degree n-1
    x = np.array([0.0, 0.31, 0.74, 1.2])
    x0 = 0.5
    for m in (1, 2):
        w = fd_weights(x, x0, m)
        for deg in range(4):
            exact = 0.0
            if m == 1 and deg >= 1:
                exact = deg * x0 ** (deg - 1)
            if m == 2 and deg >= 2:
                exact = deg * (deg - 1) * x0 ** (deg - 2)
            assert abs(w @ x**deg - exact) < 1e-12


def _fd_weights_of_one_stencil(x, x0, m):
    """Reference: Fornberg's recursion for one stencil, on Python floats."""
    n = len(x)
    c = [[0.0] * (m + 1) for _ in range(n)]
    c[0][0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [row[m] for row in c]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_stacked_fd_weights_are_the_one_stencil_recursion_bit_for_bit(n, m):
    rng = np.random.default_rng(10 * n + m)
    x = np.sort(rng.uniform(-1.0, 2.0, (50, n)), axis=1)
    x0 = np.where(rng.random(50) < 0.5, x[:, n // 2], rng.uniform(-1.0, 2.0, 50))
    expected = [_fd_weights_of_one_stencil(xs.tolist(), float(x0s), m) for xs, x0s in zip(x, x0)]
    assert np.array_equal(fd_weights(x, x0, m), np.array(expected))
    assert np.array_equal(fd_weights(x[7], x0[7], m), np.array(expected[7]))


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 9, 40])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_matrix_rows_are_their_stencils_weights(K, order):
    ts = np.sort(np.random.default_rng(K).uniform(0.0, 1.0, K))
    expected = np.zeros((K, K))
    for j in range(K):
        if 0 < j < K - 1:
            idx = [j - 1, j, j + 1]
        else:  # the end rows widen to 3 points for first derivatives, 4 for second
            w = min(order + 2, K)
            idx = list(range(w)) if j == 0 else list(range(K - w, K))
        expected[j, idx] = _fd_weights_of_one_stencil(ts[idx].tolist(), float(ts[j]), order)
    assert np.array_equal(derivative_matrix(ts, order), expected)


def test_derivative_matrix_on_smooth_function():
    ts = np.linspace(0.0, 1.0, 201)
    f = np.exp(ts)
    D1 = derivative_matrix(ts, 1)
    D2 = derivative_matrix(ts, 2)
    assert np.max(np.abs(D1 @ f - f)) < 5e-5
    assert np.max(np.abs(D2 @ f - f)) < 5e-3


# -- grid assembly ----------------------------------------------------------


def test_collar_grid_nodes(annulus_geometry):
    g = annulus_geometry
    assert np.allclose(g.collar_ts, np.linspace(0.0, 0.3, g.M + 1))
    # tail continues to the cap with a near-matching step
    assert np.isclose(g.ts[-1], g.profile.T)
    assert np.all(np.diff(g.ts) > 0)


def test_center_cap_stops_short():
    g = build_warped_geometry("disk", N=16, M=16, eps=0.3)
    assert g.cap == "center"
    assert g.ts[-1] < g.profile.T
    assert g.rs[-2] > g.rs[-1] > 0


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"N": 7, "M": 16, "eps": 0.3}, "even"),
        ({"N": 4, "M": 16, "eps": 0.3}, "even"),
        ({"N": 16, "M": 4, "eps": 0.3}, "M must be"),
        ({"N": 16, "M": 16, "eps": 0.9}, "depth exceeds"),
        ({"N": 16, "M": 16, "eps": -0.1}, "depth exceeds"),
        ({"N": 16, "M": 16, "eps": 0.0}, "depth exceeds"),
    ],
)
def test_grid_validation(kwargs, match):
    with pytest.raises(GeometryError, match=match):
        build_warped_geometry(make_profile("annulus", rho=0.25), **kwargs)


def test_no_room_before_center_cap():
    # eps so close to the cap that the tail cannot hold the decay cell
    with pytest.raises(GeometryError, match="no room"):
        build_warped_geometry("disk", N=16, M=64, eps=0.99)


def test_dimension_tag_validation():
    with pytest.raises(GeometryError, match="dimension_tag"):
        build_warped_geometry("disk", N=16, M=16, eps=0.3, dim=3)


def test_hash_distinguishes_geometries(annulus_geometry):
    g2 = build_warped_geometry(make_profile("annulus", rho=0.25), N=32, M=64, eps=0.3)
    assert annulus_geometry.hash() == g2.hash()
    g3 = build_warped_geometry(make_profile("annulus", rho=0.25), N=64, M=64, eps=0.3)
    assert annulus_geometry.hash() != g3.hash()


def test_fourier_matrix_scales_pure_modes():
    N = 16
    theta = 2 * np.pi * np.arange(N) / N
    k = np.abs(np.fft.fftfreq(N, d=1.0 / N))
    symbol = 0.7**k + 0.1 * k**2
    D = fourier_matrix(symbol)
    for kk in range(N // 2 + 1):
        u = np.cos(kk * theta)
        assert np.allclose(D @ u, symbol[kk] * u, atol=1e-12)
    assert np.array_equal(D, D.T)


def test_torus_has_no_dense_slice_operator():
    g = build_warped_geometry("flat-cylinder", N=8, M=8, eps=0.3, dim=2)
    with pytest.raises(GeometryError, match="circle-only"):
        g.d2_unit()


# -- slice operator ----------------------------------------------------------


def test_slice_operator_diagonalizes_modes(annulus_geometry):
    g = annulus_geometry
    L = g.laplacian_matrix(0.0)
    for k in (1, 3, 5):
        u = np.cos(k * g.theta)
        assert np.allclose(L @ u, k**2 * u, atol=1e-9)
    assert np.allclose(L, L.T)


# -- conformal reduction ----------------------------------------------------


def test_conformal_potential_closed_form():
    # gamma = e^{2t} with ambient dim 3 on a flat cylinder: sigma^{1/2} = e^{t/2},
    # so the potential is the constant 1/4 and the boundary correction is -1/2
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.9), N=16, M=64, eps=0.3)
    pot, corr = conformal_potential(g, lambda t: np.exp(2.0 * t), 3)
    qs = pot.on_slice(g.theta, 0.15)
    assert np.max(np.abs(qs - 0.25)) < 1e-6
    assert np.max(np.abs(corr + 0.5)) < 1e-6


@pytest.mark.parametrize("dim", [1, 2], ids=["circle", "torus"])
def test_conformal_potential_takes_its_exact_nodes_only(dim):
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.9), N=8, M=16, eps=0.3, dim=dim)
    pot, _ = conformal_potential(g, lambda t: np.exp(2.0 * t), 3)
    t = g.ts[5]
    assert np.array_equal(pot.on_slice(g.theta, t), pot.values[:, 5])
    for off in (1e-12, 1e-6):
        with pytest.raises(GeometryError, match="theta nodes"):
            pot.on_slice(g.theta + off, t)


def test_conformal_validation():
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.9), N=16, M=16, eps=0.3)
    with pytest.raises(GeometryError, match="ambient dim"):
        conformal_potential(g, lambda t: np.exp(t), 2)
    with pytest.raises(GeometryError, match="positive"):
        conformal_potential(g, lambda t: t - 1.0, 3)
    for bad in (np.inf, np.nan):  # an overflowing or undefined factor
        with pytest.raises(GeometryError, match="positive and finite"):
            conformal_potential(g, lambda t: np.where(t > 0.5, bad, 1.0), 3)


def test_conformal_constant_factor_is_inert():
    # constant gamma: zero potential, zero correction
    g = build_warped_geometry(make_profile("annulus", rho=0.3), N=16, M=16, eps=0.3)
    pot, corr = conformal_potential(g, lambda t: 2.0 + 0.0 * t, 4)
    assert np.max(np.abs(pot.on_slice(g.theta, g.ts[5]))) < 1e-10
    assert np.max(np.abs(corr)) < 1e-12
