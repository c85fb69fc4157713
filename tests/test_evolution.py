import numpy as np
import pytest

from evosq.dnmap import DNFamily, compute_dn_family, solve_interior
from evosq.errors import GeometryError, StepFailureError
from evosq.evolution import (
    PairOperator,
    evolve_tensor_backward,
    evolve_tensor_forward,
    evolve_trace,
    evolved_rank_one,
    kron_generator,
)
from evosq.geometry import build_warped_geometry, make_profile
from evosq.potentials import ZeroPotential


def _trace_error(M):
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=M, eps=0.3)
    fam = compute_dn_family(g, 1.0, keep_chain=True)
    f = np.cos(2 * g.theta) + 0.5 * np.sin(3 * g.theta)
    u = evolve_trace(fam, f)
    ref = solve_interior(fam, f)
    return np.max(np.abs(u - ref)) / np.max(np.abs(ref))


def test_trace_evolution_matches_interior_solution():
    errs = {M: _trace_error(M) for M in (32, 64)}
    assert errs[64] < 1e-2
    assert np.log2(errs[32] / errs[64]) > 1.8


def test_kron_generator_consistency():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=8, M=8, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g, -0.5)
    op = PairOperator(fam1, fam2)
    rng = np.random.default_rng(3)
    W = rng.standard_normal((8, 8))
    for j in (0, 4, 8):
        big = kron_generator(fam1.lams[j], fam2.lams[j])
        direct = op.apply(j, W)
        via_kron = (big @ W.ravel()).reshape(8, 8)
        assert np.max(np.abs(direct - via_kron)) < 1e-12 * np.max(np.abs(direct))


def test_pair_operator_grid_mismatch():
    g1 = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=16, eps=0.3)
    g2 = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=32, eps=0.3)
    with pytest.raises(GeometryError, match="one geometry"):
        PairOperator(compute_dn_family(g1), compute_dn_family(g2))


def test_rank_one_field_solves_forward_flow(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    f1 = np.cos(g.theta)
    f2 = np.sin(2 * g.theta) + 0.3
    field = evolved_rank_one(fam1, fam2, f1, f2)
    op = PairOperator(fam1, fam2)
    direct = evolve_tensor_forward(op, np.outer(f1, f2))
    scale = np.max(np.abs(field))
    assert np.max(np.abs(field - direct)) < 1e-2 * scale


def test_forward_flow_second_order():
    errs = {}
    for M in (32, 64):
        g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=M, eps=0.3)
        fam1 = compute_dn_family(g, 1.0)
        fam2 = compute_dn_family(g, -0.5)
        f1 = np.cos(g.theta)
        f2 = np.sin(2 * g.theta) + 0.3
        op = PairOperator(fam1, fam2)
        direct = evolve_tensor_forward(op, np.outer(f1, f2))
        ref = evolved_rank_one(fam1, fam2, f1, f2)
        errs[M] = np.max(np.abs(direct - ref)) / np.max(np.abs(ref))
    assert np.log2(errs[32] / errs[64]) > 1.8


def test_backward_flow_duality(annulus_families):
    # forward and backward homogeneous flows keep the volume-weighted
    # Frobenius pairing constant (the backward flow is the formal adjoint)
    fam1, fam2 = annulus_families
    g = fam1.geometry
    op = PairOperator(fam1, fam2)
    rng = np.random.default_rng(11)
    phi = evolve_tensor_forward(op, rng.standard_normal((g.N, g.N)))
    psi = evolve_tensor_backward(op, rng.standard_normal((g.N, g.N)))
    vals = np.empty(g.M + 1)
    for j in range(g.M + 1):
        t = g.collar_ts[j]
        w = g.node_weight(t) * fam2.geometry.node_weight(t)
        vals[j] = w * np.sum(phi[j] * psi[j])
    drift = np.max(np.abs(vals - vals[0])) / np.abs(vals[0])
    assert drift < 1e-2


def test_backward_zero_data_is_zero(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    op = PairOperator(fam1, fam2)
    psi = evolve_tensor_backward(op, np.zeros((g.N, g.N)))
    assert np.all(psi == 0.0)


def test_implicit_step_failure_reports():
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.9), N=32, M=8, eps=0.3)
    # symmetric slice maps with condition number ~1e16: conjugate gradients
    # cannot reach the step tolerance and must fail loudly
    lams = np.tile(np.diag(np.logspace(0, 16, 32)), (g.M + 1, 1, 1))
    fam = DNFamily(g, ZeroPotential(), lams, np.zeros((g.M + 1, g.N)))
    op = PairOperator(fam, fam)
    with pytest.raises(StepFailureError, match="implicit step") as exc:
        evolve_tensor_forward(op, np.ones((32, 32)))
    assert exc.value.iterations == 500

