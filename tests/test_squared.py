import tracemalloc

import numpy as np
import pytest

from evosq.dnmap import compute_dn_family, dn_mode_symbol
from evosq.errors import GeometryError
from evosq.evolution import PairOperator, evolved_rank_one
from evosq.geometry import build_warped_geometry, make_profile
from evosq.squared import (
    VARIANTS,
    apply_variant,
    kernel_residual,
    sbp_derivative,
    scalar_factorized_apply,
    second_derivative,
)


def _trapezoid_norm(ts):
    h = ts[1] - ts[0]
    omega = np.full(ts.size, h)
    omega[0] = omega[-1] = 0.5 * h
    return omega


def test_sbp_identity_exact():
    ts = np.linspace(0.0, 0.3, 17)
    D = sbp_derivative(np.eye(17), ts)
    omega = _trapezoid_norm(ts)
    B = np.zeros((17, 17))
    B[0, 0], B[-1, -1] = -1.0, 1.0
    lhs = np.diag(omega) @ D + D.T @ np.diag(omega)
    assert np.array_equal(lhs, B)


def test_sbp_derivative_orders():
    ts = np.linspace(0.0, 0.3, 33)
    # exact on affine functions everywhere, including the end rows
    f = 2.0 - 3.0 * ts
    assert np.max(np.abs(sbp_derivative(f, ts) + 3.0)) < 1e-12
    g = ts**2
    assert np.max(np.abs((sbp_derivative(g, ts) - 2 * ts)[1:-1])) < 1e-12


def test_second_derivative_orders():
    ts = np.linspace(0.0, 0.3, 33)
    f = 1.0 + ts + 0.5 * ts**2
    assert np.max(np.abs(second_derivative(f, ts) - 1.0)) < 1e-9
    cube = ts**3
    # interior is exact on cubics too; end rows are one order lower
    assert np.max(np.abs((second_derivative(cube, ts) - 6 * ts)[1:-1])) < 1e-9


def test_stencils_equal_their_dense_matrices():
    ts = np.linspace(0.0, 0.5, 6)
    h = 0.1
    D = np.array([
        [-1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
        [0.0, -0.5, 0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, -0.5, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.0, -0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
    ]) / h
    D2 = np.array([
        [2.0, -5.0, 4.0, -1.0, 0.0, 0.0],
        [1.0, -2.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, -2.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -2.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, -2.0, 1.0],
        [0.0, 0.0, -1.0, 4.0, -5.0, 2.0],
    ]) / h**2
    # the stencils act on the first axis of an array of any rank
    u = np.random.default_rng(4).standard_normal((6, 3, 2))
    for stencil, dense in ((sbp_derivative, D), (second_derivative, D2)):
        want = np.tensordot(dense, u, axes=(1, 0))
        atol = 1e-12 * np.max(np.abs(want))
        assert np.allclose(stencil(u, ts), want, rtol=0.0, atol=atol)
        assert np.allclose(stencil(u[:, 0, 0], ts), want[:, 0, 0], rtol=0.0, atol=atol)


def test_weighted_adjoint_summation_identity(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    ts = g.collar_ts
    omega = _trapezoid_norm(ts)
    V = np.exp(2.0 * g.mu(ts))
    rng = np.random.default_rng(2)
    u = rng.standard_normal(V.size)
    v = rng.standard_normal(V.size)
    # D* = -V^-1 D V, as the factorized variant applies it
    lhs = np.sum(omega * V * sbp_derivative(u, ts) * v)
    rhs = np.sum(omega * V * u * (-sbp_derivative(V * v, ts) / V))
    boundary = V[-1] * u[-1] * v[-1] - V[0] * u[0] * v[0]
    assert abs(lhs - rhs - boundary) < 1e-12 * max(abs(lhs), abs(boundary), 1.0)


def _variant_residuals(M, variant):
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=M, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g, -0.5)
    op = PairOperator(fam1, fam2)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.sin(2 * g.theta) + 0.4)
    return kernel_residual(op, field)[variant]


@pytest.mark.parametrize("variant", ["factorized", "expanded-double"])
def test_true_variants_annihilate_evolved_fields(variant):
    res = {M: _variant_residuals(M, variant) for M in (32, 64)}
    assert res[64] < 0.05
    assert np.log2(res[32] / res[64]) > 1.5


def test_single_cross_variant_does_not_annihilate():
    # the deliberately broken expansion misses Lam1 W Lam2 and must stall
    res = {M: _variant_residuals(M, "expanded-single") for M in (32, 64)}
    assert res[32] > 0.1 and res[64] > 0.1
    assert res[32] / res[64] < 1.5


def test_variant_difference_is_cross_product(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    op = PairOperator(fam1, fam2)
    rng = np.random.default_rng(9)
    field = rng.standard_normal((g.M + 1, g.N, g.N))
    double = apply_variant(op, field, "expanded-double")
    single = apply_variant(op, field, "expanded-single")
    for j in (0, g.M // 2, g.M):
        cross = fam1.lams[j] @ field[j] @ fam2.lams[j].T
        diff = double[j] - single[j]
        assert np.max(np.abs(diff - cross)) < 1e-10 * max(np.max(np.abs(cross)), 1.0)


def test_scalar_mirror_matches_structured_apply():
    # flat cylinder, radial potentials: pure modes stay pure, so the dense
    # apply restricted to one mode pair must match the scalar profile mirror
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.9), N=16, M=32, eps=0.3)
    fam1 = compute_dn_family(g, 1.5)
    fam2 = compute_dn_family(g, 0.5)
    op = PairOperator(fam1, fam2)
    k, l = 2, 3
    e1, e2 = np.cos(k * g.theta), np.cos(l * g.theta)
    field = evolved_rank_one(fam1, fam2, e1, e2)
    applied = apply_variant(op, field, "factorized")

    p = field[:, 0, 0] / (e1[0] * e2[0])
    lam1 = dn_mode_symbol(g, 1.5, float(k * k))
    lam2 = dn_mode_symbol(g, 0.5, float(l * l))
    m = np.zeros(g.M + 1)
    mirror = scalar_factorized_apply(g.collar_ts, lam1, lam2, m, p)

    got = np.einsum("jik,i,k->j", applied, e1, e2) / (e1 @ e1) / (e2 @ e2)
    scale = np.max(np.abs(mirror)) + np.max(np.abs(p))
    assert np.max(np.abs(got - mirror)) < 1e-6 * scale


def test_variant_validation(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    op = PairOperator(fam1, fam2)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.cos(g.theta))
    with pytest.raises(GeometryError, match="unknown variant"):
        apply_variant(op, field, "fancy")
    bad = np.zeros((g.ts.size, g.N, g.N))  # full grid, not the collar
    with pytest.raises(GeometryError, match="collar grid"):
        apply_variant(op, bad, "factorized")
    assert set(VARIANTS) == {"factorized", "expanded-double", "expanded-single"}


def test_nonuniform_grid_rejected():
    ts = np.array([0.0, 0.1, 0.25, 0.3])
    for stencil in (sbp_derivative, second_derivative):
        with pytest.raises(GeometryError, match="uniform"):
            stencil(np.ones(4), ts)


def _residual_setup():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=32, M=64, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g, -0.5)
    op = PairOperator(fam1, fam2)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.sin(2 * g.theta) + 0.4)
    return op, field


def _peak_fields(run, field):
    run()  # warm any per-geometry cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / field.nbytes


@pytest.mark.parametrize("variant", VARIANTS)
def test_residual_allocates_at_most_two_and_a_half_fields(variant):
    # the depth derivatives are stencils: no (M+1)^2 matrix and no spare field
    op, field = _residual_setup()
    assert _peak_fields(lambda: apply_variant(op, field, variant), field) <= 2.5


def test_residual_frees_each_variant_before_the_next():
    # each variant's applied field is freed before the next is applied: a kept one reads about 3
    op, field = _residual_setup()
    assert _peak_fields(lambda: kernel_residual(op, field), field) <= 2.5
