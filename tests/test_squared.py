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
    sbp_first_derivative,
    sbp_pair,
    scalar_factorized_apply,
    second_derivative_matrix,
)


def test_sbp_identity_exact():
    ts = np.linspace(0.0, 0.3, 17)
    D, omega = sbp_first_derivative(ts)
    B = np.zeros((17, 17))
    B[0, 0], B[-1, -1] = -1.0, 1.0
    lhs = np.diag(omega) @ D + D.T @ np.diag(omega)
    assert np.array_equal(lhs, B)


def test_sbp_derivative_orders():
    ts = np.linspace(0.0, 0.3, 33)
    D, _ = sbp_first_derivative(ts)
    # exact on affine functions everywhere, including the end rows
    f = 2.0 - 3.0 * ts
    assert np.max(np.abs(D @ f + 3.0)) < 1e-12
    g = ts**2
    assert np.max(np.abs((D @ g - 2 * ts)[1:-1])) < 1e-12


def test_second_derivative_matrix_orders():
    ts = np.linspace(0.0, 0.3, 33)
    D2 = second_derivative_matrix(ts)
    f = 1.0 + ts + 0.5 * ts**2
    assert np.max(np.abs(D2 @ f - 1.0)) < 1e-9
    cube = ts**3
    # interior is exact on cubics too; end rows are one order lower
    assert np.max(np.abs((D2 @ cube - 6 * ts)[1:-1])) < 1e-9


def test_weighted_adjoint_summation_identity(annulus_families):
    fam1, fam2 = annulus_families
    op = PairOperator(fam1, fam2)
    D, Dstar, omega, V = sbp_pair(op)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(V.size)
    v = rng.standard_normal(V.size)
    lhs = np.sum(omega * V * (D @ u) * v)
    rhs = np.sum(omega * V * u * (Dstar @ v))
    boundary = V[-1] * u[-1] * v[-1] - V[0] * u[0] * v[0]
    assert abs(lhs - rhs - boundary) < 1e-12 * max(abs(lhs), abs(boundary), 1.0)


def _variant_residuals(M, variant):
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=M, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g, -0.5)
    op = PairOperator(fam1, fam2)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.sin(2 * g.theta) + 0.4)
    return kernel_residual(op, field, variant)["max_rel"]


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
    with pytest.raises(GeometryError, match="uniform"):
        sbp_first_derivative(np.array([0.0, 0.1, 0.25, 0.3]))


def test_short_collar_rejected():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=8, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g)
    op = PairOperator(fam1, fam2)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.cos(g.theta))
    with pytest.raises(GeometryError, match="too short"):
        kernel_residual(op, field, margin=4)
