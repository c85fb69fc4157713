from types import SimpleNamespace

import numpy as np
import pytest

from evosq import evolution
from evosq.dnmap import DNFamily, compute_dn_family, solve_interior
from evosq.errors import GeometryError, StepFailureError
from evosq.evolution import (
    PairOperator,
    evolve_tensor_backward,
    evolve_tensor_forward,
    evolve_trace,
    evolved_rank_one,
)
from evosq.geometry import build_warped_geometry, make_profile
from evosq.potentials import ZeroPotential
from evosq.source_bvp import diagonal_source
from tests.conftest import Q1_SPEC, Q2_SPEC
from tests.oracles import kron_generator


_GEOMETRIES = [("annulus", {"rho": 0.25}), ("disk", {}), ("flat-cylinder", {"T": 0.9})]


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


def _lu_trace(family, f):
    """The trapezoid trace steps by dense LU solves: an independent reference."""
    g = family.geometry
    ts, eye = g.collar_ts, np.eye(g.N)
    u = np.empty((g.M + 1, g.N))
    u[0] = f
    for j in range(g.M):
        h = ts[j + 1] - ts[j]
        rhs = (eye - 0.5 * h * family.lams[j]) @ u[j]
        u[j + 1] = np.linalg.solve(eye + 0.5 * h * family.lams[j + 1], rhs)
    return u


def _assert_lu_trace(family):
    g = family.geometry
    for f in (np.cos(g.theta) + 0.3, np.random.default_rng(0).standard_normal(g.N)):
        got, want = evolve_trace(family, f), _lu_trace(family, f)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("geometry_name, kw", _GEOMETRIES)
def test_trace_steps_equal_the_lu_trapezoid_steps(geometry_name, kw):
    # the certified inverse moves only round-off: measured 4.4e-15 here, 1.1e-14 at N=128, M=256
    g = build_warped_geometry(make_profile(geometry_name, **kw), N=32, M=64, eps=0.3)
    _assert_lu_trace(compute_dn_family(g, Q1_SPEC))


def test_an_uncertified_trace_step_takes_the_lu_fallback():
    # every step matrix I + (h/2) Lam has eigenvalues in [-2, -1] and [1, 2], so no leaf
    # Cholesky certifies it (measured gap 3.8e-15)
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=32, M=64, eps=0.3)
    Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((g.N, g.N)))
    d = np.where(np.arange(g.N) % 2, np.linspace(-3.0, -2.0, g.N), np.linspace(0.0, 1.0, g.N))
    lam = (Q * (2.0 / (g.collar_ts[1] - g.collar_ts[0]) * d)) @ Q.T
    _assert_lu_trace(SimpleNamespace(geometry=g, lams=np.broadcast_to(lam, (g.M + 1, g.N, g.N))))


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


def test_cg_stops_at_a_direction_of_non_positive_curvature():
    # an indefinite operator: the first direction has p.Ap = 1, the second -72
    A = np.diag([2.0, -1.0])
    with pytest.raises(StepFailureError, match=r"not positive definite \(x\): p.Ap = -72$") as exc:
        evolution._cg(lambda X: A @ X, np.ones((2, 1)), np.zeros((2, 1)), context=" (x)")
    assert exc.value.iterations == 1
    A[1, 1] = np.nan  # NaN fails the same test at once instead of running to the last iteration
    with pytest.raises(StepFailureError, match=r"p.Ap = nan$") as exc:
        evolution._cg(lambda X: A @ X, np.ones((2, 1)), np.zeros((2, 1)))
    assert exc.value.iterations == 0


# -- the recycled stepper against a reference that recomputes everything ------


def _reference_cg(op, B, x, tol):
    x = x.copy()
    r = B - op(x)
    p = r.copy()
    rr = np.vdot(r, r)
    for _ in range(500):
        if np.sqrt(rr) <= tol * np.linalg.norm(B):
            return x
        Ap = op(p)
        alpha = rr / np.vdot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        rr, rr_old = np.vdot(r, r), rr
        p = r + (rr / rr_old) * p
    raise AssertionError("the reference solve did not converge")


def _reference_transport(pair_op, W_start, nodes, rate, source, tol):
    """Trapezoid steps with an explicit apply each and CG started from ``W``."""
    ts = pair_op.geometry.collar_ts
    W = np.array(W_start, dtype=float)
    out = {nodes[0]: W}
    for i, k in zip(nodes[:-1], nodes[1:]):
        h = abs(ts[k] - ts[i])
        B = W - 0.5 * h * (pair_op.apply(i, W) - rate(i) * W) + 0.5 * h * (source(i) + source(k))

        def op(X, k=k, h=h):
            return X + 0.5 * h * (pair_op.apply(k, X) - rate(k) * X)

        W = _reference_cg(op, B, W, tol)
        out[k] = W
    return np.array([out[j] for j in sorted(out)])


def _source_pair(geometry_name, **kw):
    g = build_warped_geometry(make_profile(geometry_name, **kw), N=16, M=32, eps=0.3)
    fam1, fam2 = compute_dn_family(g, Q1_SPEC), compute_dn_family(g, Q2_SPEC)
    return g, PairOperator(fam1, fam2), diagonal_source(fam1, fam2)


@pytest.mark.parametrize(
    "geometry_name, kw", [("annulus", {"rho": 0.25}), ("flat-cylinder", {"T": 0.9})]
)
def test_recycled_sweeps_match_the_reference_stepper(geometry_name, kw):
    g, op, src = _source_pair(geometry_name, **kw)
    W0 = np.random.default_rng(7).standard_normal((g.N, g.N))
    forward = evolve_tensor_forward(op, W0, source=src)
    ref = _reference_transport(op, W0, range(g.M + 1), lambda j: 0.0, src, 1e-14)
    assert np.max(np.abs(forward - ref)) <= 1e-9 * np.max(np.abs(ref))
    backward = evolve_tensor_backward(op, W0, source=src)
    ref = _reference_transport(op, W0, range(g.M, -1, -1), op.volume_rate, src, 1e-14)
    assert np.max(np.abs(backward - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_backward_sweep_applies_only_its_first_explicit_half(monkeypatch):
    # every apply outside the implicit solves is an explicit half: only node M's
    g, op, src = _source_pair("annulus", rho=0.25)
    W0 = np.random.default_rng(8).standard_normal((g.N, g.N))
    calls, solving = [], []
    apply, cg = PairOperator.apply, evolution._cg

    def spy(self, j, W):
        calls.append((j, bool(solving)))
        return apply(self, j, W)

    def solve(*args, **kwargs):
        solving.append(True)
        try:
            return cg(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(PairOperator, "apply", spy)
    monkeypatch.setattr(evolution, "_cg", solve)
    evolve_tensor_backward(op, W0, source=src)
    assert [j for j, inside in calls if not inside] == [g.M]
    assert [j for j, _ in calls].count(g.M) == 1
    recycled = len(calls)
    calls.clear()
    _reference_transport(op, W0, range(g.M, -1, -1), op.volume_rate, src, 1e-10)
    assert recycled < len(calls)


def test_forward_zero_data_is_zero(annulus_families):
    op = PairOperator(*annulus_families)
    N = op.geometry.N
    phi = evolve_tensor_forward(op, np.zeros((N, N)), source=lambda j: np.zeros((N, N)))
    assert np.all(phi == 0.0)
