import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosq.dnmap import _norm, compute_dn_family, dn_mode_symbol
from evosq.errors import GeometryError
from evosq.evolution import LowRank, PairOperator, evolve_trace, evolved_rank_one
from evosq.geometry import build_warped_geometry, make_profile
from evosq.squared import VARIANTS, apply_variant, kernel_residual
from tests.conftest import Q1_SPEC, Q2_SPEC
from tests.oracles import sbp_derivative, scalar_factorized_apply, second_derivative


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
    lam1 = dn_mode_symbol(g, 1.5, float(k * k), range(g.M + 1))
    lam2 = dn_mode_symbol(g, 0.5, float(l * l), range(g.M + 1))
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


def _residual_setup(M=64):
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=32, M=M, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g, -0.5)
    op = PairOperator(fam1, fam2)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.sin(2 * g.theta) + 0.4)
    return op, field


def _peak_slices(run, field):
    run()  # warm any per-geometry cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / field[0].nbytes


# the walk holds the Y and A W slices around its node plus one slice's temporaries
# (measured: 16 slices for the residual, 16 beside the output field for any variant)
_FEW_SLICES = 24


@pytest.mark.parametrize("variant", VARIANTS)
def test_apply_variant_allocates_one_field_and_a_few_slices(variant):
    # the depth derivatives are row stencils: no (M+1)^2 matrix and no whole-field temporary
    op, field = _residual_setup()
    assert _peak_slices(lambda: apply_variant(op, field, variant), field) <= len(field) + _FEW_SLICES


def test_residual_frees_each_variant_before_the_next():
    # one walk keeps norms only: the same few slices at any depth resolution
    for M in (64, 256):
        op, field = _residual_setup(M)
        assert _peak_slices(lambda: kernel_residual(op, field), field) <= _FEW_SLICES


# the factored walk materializes one variant at a time, beside the slice Laplacian and the
# factors of the terms around its node: measured 8.9 slices at M=64 and 9.3 at M=256. At N=32 the
# factors weigh (ranks reach 16 of 32 columns); at N=128 the same walk peaks at 3.3 slices.
_RANK_ONE_SLICES = 12


def test_residual_of_a_rank_one_field_forms_a_window_of_slices():
    for M in (64, 256):
        op, field = _residual_setup(M)
        g = op.geometry
        u1 = evolve_trace(op.family1, np.cos(g.theta))
        u2 = evolve_trace(op.family2, np.sin(2 * g.theta) + 0.4)
        streamed = LowRank(u1[..., None], u2[..., None])
        assert _peak_slices(lambda: kernel_residual(op, streamed), field) <= _RANK_ONE_SLICES


# -- the whole-field assembly the per-slice walk replaced, kept as a bit-for-bit reference


def _reference_d1(u, h):
    out = np.empty(u.shape)
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] *= 0.5 / h
    out[0] = (u[1] - u[0]) / h
    out[-1] = (u[-1] - u[-2]) / h
    return out


def _reference_d2(u, h):
    out = np.empty(u.shape)
    np.add(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] -= u[1:-1]
    out[1:-1] -= u[1:-1]
    out[0] = 2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]
    out[-1] = 2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]
    out /= h * h
    return out


def _reference_apply(pair_op, W, variant):
    g = pair_op.geometry
    ts = g.collar_ts
    h = float(ts[1] - ts[0])
    if variant == "factorized":
        Y = _reference_d1(W, h)
        for j in range(ts.size):
            Y[j] += pair_op.apply(j, W[j])
        V = np.exp(2.0 * g.mu(ts))
        Y *= V[:, None, None]
        Z = _reference_d1(Y, h)
        for j in range(ts.size):
            Z[j] = (pair_op.apply(j, Y[j]) - Z[j]) / V[j]
        return Z
    Z = _reference_base(pair_op, W)
    f1, f2 = pair_op.family1, pair_op.family2
    for j, mu in enumerate(g.mu_dot(ts)):
        # the shifts of Bi = Lam_i - s cancel: one cross product, less mu' A W
        Z[j] -= float(mu) * pair_op.apply(j, W[j])
        cross = f1.lams[j] @ W[j] @ f2.lams[j].T
        Z[j] += 2.0 * cross if variant == "expanded-double" else cross
    return Z


def _reference_base(pair_op, W):
    """The expanded variants' depth and per-node terms, ``-W'' - 2 mu' W' + L W + W L + Q1 W + W Q2``."""
    g = pair_op.geometry
    ts = g.collar_ts
    h = float(ts[1] - ts[0])
    mu_dot = g.mu_dot(ts)
    Z = _reference_d1(W, h)
    Z *= -2.0 * mu_dot[:, None, None]
    Z -= _reference_d2(W, h)
    f1, f2 = pair_op.family1, pair_op.family2
    for j in range(ts.size):
        L = g.laplacian_matrix(float(ts[j]))
        Z[j] += L @ W[j] + W[j] @ L.T
        Z[j] += f1.q[j][:, None] * W[j] + W[j] * f2.q[j][None, :]
    return Z


def _reference_residual(pair_op, W):
    interior = range(2, pair_op.geometry.M - 1)
    scale = max(max(float(_norm(pair_op.apply(j, W[j]))) for j in interior), 1e-30)

    def worst(applied):
        return max(float(_norm(applied[j]) / scale) for j in interior)

    return {variant: worst(_reference_apply(pair_op, W, variant)) for variant in VARIANTS}


_GEOMETRIES = {"annulus": {"rho": 0.25}, "disk": {}, "flat-cylinder": {"T": 0.9}}


def _pair(geometry, N, M, q1, q2):
    g = build_warped_geometry(make_profile(geometry, **_GEOMETRIES[geometry]), N=N, M=M, eps=0.3)
    return PairOperator(compute_dn_family(g, q1), compute_dn_family(g, q2))


def _assert_bit_for_bit(op, field):
    ts = op.geometry.collar_ts
    h = float(ts[1] - ts[0])
    assert np.array_equal(sbp_derivative(field, ts), _reference_d1(field, h))
    assert np.array_equal(second_derivative(field, ts), _reference_d2(field, h))
    for variant in VARIANTS:
        got, want = apply_variant(op, field, variant), _reference_apply(op, field, variant)
        for j in range(len(want)):
            assert np.array_equal(got[j], want[j]), (variant, j)
    got, want = kernel_residual(op, field), _reference_residual(op, field)
    assert all(got[variant] == want[variant] for variant in VARIANTS), (got, want)


@pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
def test_walk_equals_the_whole_field_assembly_bit_for_bit(geometry):
    op = _pair(geometry, 32, 64, Q1_SPEC, Q2_SPEC)
    g = op.geometry
    evolved = evolved_rank_one(op.family1, op.family2, np.cos(g.theta) + 0.3, np.sin(2 * g.theta))
    _assert_bit_for_bit(op, evolved)
    _assert_bit_for_bit(op, np.random.default_rng(1).standard_normal(evolved.shape))


def _shifted_products_apply(pair_op, W, variant):
    """The expanded variants as first assembled: ``base + c B1 W B2^T - s mu'^2 W``, ``Bi = Lam_i - s mu'``."""
    g = pair_op.geometry
    eye = np.eye(g.N)
    half, cross = (0.5, 2.0) if variant == "expanded-double" else (1.0, 1.0)
    Z = _reference_base(pair_op, W)
    for j, mu in enumerate(g.mu_dot(g.collar_ts)):
        B1 = pair_op.family1.lams[j] - half * mu * eye
        B2 = pair_op.family2.lams[j] - half * mu * eye
        Z[j] += cross * (B1 @ W[j] @ B2.T) - half * mu * mu * W[j]
    return Z


def _skewed(family, rng):
    # the expansion is algebra: it must hold for maps that are not symmetric too
    lams = family.lams + 0.1 * np.max(np.abs(family.lams)) * rng.standard_normal(family.lams.shape)
    return SimpleNamespace(geometry=family.geometry, lams=lams, q=family.q)


@pytest.mark.parametrize("field", ["evolved", "random", "random-skewed-maps"])
@pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
def test_one_cross_product_equals_the_shifted_products_to_round_off(geometry, field):
    op = _pair(geometry, 32, 64, Q1_SPEC, Q2_SPEC)
    g, rng = op.geometry, np.random.default_rng(5)
    if field == "evolved":
        W = evolved_rank_one(op.family1, op.family2, np.cos(g.theta) + 0.3, np.sin(2 * g.theta))
    else:
        W = rng.standard_normal((g.M + 1, g.N, g.N))
    if field == "random-skewed-maps":
        op = PairOperator(_skewed(op.family1, rng), _skewed(op.family2, rng))
    base = _reference_base(op, W)
    for variant in ("expanded-double", "expanded-single"):
        got, want = apply_variant(op, W, variant), _shifted_products_apply(op, W, variant)
        for j, mu in enumerate(g.mu_dot(g.collar_ts)):
            # the slice's scale: the size of every term the two assemblies sum
            cross = op.family1.lams[j] @ W[j] @ op.family2.lams[j].T
            scale = (_norm(base[j]) + _norm(cross) + abs(mu) * _norm(op.apply(j, W[j]))
                     + mu * mu * _norm(W[j]))
            assert _norm(got[j] - want[j]) <= 1e-12 * scale, (variant, j)


_bumps = st.fixed_dictionaries({
    "kind": st.just("bump"),
    "amplitude": st.floats(-2.0, 3.0),
    "theta0": st.floats(0.0, 6.3),
    "t0": st.floats(0.0, 0.3),
    "width": st.floats(0.1, 0.5),
})


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    geometry=st.sampled_from(sorted(_GEOMETRIES)),
    N=st.sampled_from([8, 12]),
    M=st.sampled_from([8, 9, 16]),
    q1=_bumps,
    q2=_bumps,
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_equals_the_whole_field_assembly_on_random_fields(geometry, N, M, q1, q2, seed):
    op = _pair(geometry, N, M, q1, q2)
    _assert_bit_for_bit(op, np.random.default_rng(seed).standard_normal((M + 1, N, N)))


def _window_scale(op, array, j):
    """Size of the squared operator's terms on slice ``j``: ``(1/h + |Lam1_j| + |Lam2_j|)^2``
    times the largest slice the stencils reach (nodes ``j-3 .. j+3``)."""
    ts = op.geometry.collar_ts
    size = 1.0 / float(ts[1] - ts[0]) + _norm(op.family1.lams[j]) + _norm(op.family2.lams[j])
    return size**2 * max(_norm(array[k]) for k in range(max(j - 3, 0), min(j + 4, len(array))))


_UNDERFLOW = 1e-290  # drawn data may hold subnormals, whose products lose relative precision


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    geometry=st.sampled_from(sorted(_GEOMETRIES)),
    N=st.sampled_from([8, 12]),
    M=st.sampled_from([8, 9, 16]),
    q1=_bumps,
    q2=_bumps,
    data=st.lists(st.floats(-2.0, 2.0), min_size=24, max_size=24),
)
def test_a_rank_one_field_walks_as_its_materialized_array(geometry, N, M, q1, q2, data):
    op = _pair(geometry, N, M, q1, q2)
    f1, f2 = np.asarray(data[:N]), np.asarray(data[12 : 12 + N])
    array = evolved_rank_one(op.family1, op.family2, f1, f2)
    u1, u2 = evolve_trace(op.family1, f1), evolve_trace(op.family2, f2)
    field = LowRank(u1[..., None], u2[..., None])
    assert field.shape == array.shape and np.ndim(field) == array.ndim == 3
    assert np.array_equal(np.asarray(field), array)
    assert all(np.array_equal(np.asarray(field[k]), array[k]) for k in range(M + 1))
    # the factored walk sums the same terms in another order: each applied slice agrees to
    # round-off of the terms' size (measured: under 3e-16 of it on the three geometries at
    # N=12, M=16 and N=32, M=64)
    bounds = [1e-12 * _window_scale(op, array, j) + _UNDERFLOW for j in range(M + 1)]
    for variant in VARIANTS:
        got, want = apply_variant(op, field, variant), apply_variant(op, array, variant)
        assert all(_norm(got[j] - want[j]) <= bounds[j] for j in range(M + 1)), variant
    # a residual is a slice norm over the largest |A_j W_j|, and both move within the slice bounds
    got, want = kernel_residual(op, field), kernel_residual(op, array)
    scale = max(max(_norm(op.apply(j, array[j])) for j in range(2, M - 1)), 1e-30)
    for variant in VARIANTS:
        assert abs(got[variant] - want[variant]) <= max(bounds) / scale * (1.0 + want[variant])


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(n=st.integers(1, 6), m=st.integers(1, 6), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_slice_algebra_equals_the_dense_algebra(n, m, r, seed):
    # entries in [-1, 1]: an entry of a result sums at most 18 terms of size at most 2
    rng = np.random.default_rng(seed)
    U, V, U2, V2 = (rng.uniform(-1.0, 1.0, shape) for shape in ((n, r), (m, r), (n, r), (m, r)))
    S, T, dS, dT = LowRank(U, V), LowRank(U2, V2), U @ V.T, U2 @ V2.T
    # not symmetric, unlike the maps, so a missing transpose shows
    left, right = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, (m, m))
    col, row = rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(-1.0, 1.0, (1, m))
    c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    cases = [
        (left @ S, left @ dS), (S @ right, dS @ right), (S @ right.T, dS @ right.T),
        (S + T, dS + dT), (S - T, dS - dT), (S * c, dS * c), (c * S, c * dS),
        (np.float64(c) * S, c * dS), (S / c, dS / c), (S / np.float64(c), dS / c),
        (col * S, col * dS), (S * col, dS * col), (row * S, row * dS), (S * row, dS * row),
    ]
    for got, want in cases:
        assert isinstance(got, LowRank) and got.shape == want.shape
        assert np.allclose(np.asarray(got), want, rtol=0.0, atol=1e-12)
    assert np.array_equal(np.asarray(LowRank(U[:, :1], V[:, :1])), np.multiply.outer(U[:, 0], V[:, 0]))


def test_slice_algebra_refuses_what_would_make_a_slice_dense():
    rng = np.random.default_rng(3)
    S = LowRank(rng.standard_normal((4, 1)), rng.standard_normal((5, 1)))
    for refused in (
        lambda: np.multiply(S, 2.0), lambda: np.exp(S), lambda: S * np.ones((4, 5)),
        lambda: S * np.ones(5), lambda: S * np.ones((5, 1)), lambda: S * np.ones((1, 4)),
        lambda: S / np.ones((4, 1)), lambda: S + np.ones((4, 5)), lambda: np.ones((4, 5)) - S,
        lambda: S * S, lambda: S @ S, lambda: S @ [[1.0]],
    ):
        with pytest.raises(TypeError):
            refused()
