import numpy as np
import pytest
from scipy.integrate import solve_ivp

from evosq.dnmap import compute_dn_family, solve_interior
from evosq.errors import GeometryError
from evosq import source_bvp
from evosq.evolution import PairOperator, evolve_tensor_backward
from evosq.geometry import build_warped_geometry, make_profile
from evosq.source_bvp import (
    boundary_time_derivative,
    difference_kernel,
    diagonal_source,
    dn_recovery_check,
    layer_strip_check,
    solve_source_bvp,
)
from tests.conftest import Q1_SPEC, Q2_SPEC


def _pair_mode_component(values, k):
    n = values.shape[0]
    F = np.fft.fft(np.eye(n), axis=0)
    X = F @ values @ F.T / n**2
    return X[k, (n - k) % n].real


# -- headline recovery --------------------------------------------------------


def test_recovery_error_decreases_with_stable_sign():
    errs, signs = {}, {}
    for M in (32, 64):
        g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=M, eps=0.3)
        fam1 = compute_dn_family(g, Q1_SPEC)
        fam2 = compute_dn_family(g, Q2_SPEC)
        res = dn_recovery_check(fam1, fam2)
        errs[M], signs[M] = res["rel_error"], res["sign"]
    assert errs[64] < 5e-2
    assert errs[64] < errs[32]
    assert signs[32] == signs[64] == 1


def test_recovery_prefers_positive_orientation(annulus_families):
    fam1, fam2 = annulus_families
    res = dn_recovery_check(fam1, fam2)
    assert res["sign"] == 1
    assert res["rel_error_plus"] < res["rel_error_minus"]
    assert res["rel_error"] < 5e-2
    assert res["recovered"].shape == res["target"].shape


# -- per-mode oracle on the flat cylinder --------------------------------------


class _CylinderPair:
    T, eps, N, M = 0.9, 0.3, 16, 64
    c1, c2 = 2.0, 0.5
    k = 2

    def __init__(self):
        self.g = build_warped_geometry(
            make_profile("flat-cylinder", T=self.T), N=self.N, M=self.M, eps=self.eps
        )
        self.fam1 = compute_dn_family(self.g, self.c1)
        self.fam2 = compute_dn_family(self.g, self.c2)
        self.kap1 = np.sqrt(self.k**2 + self.c1)
        self.kap2 = np.sqrt(self.k**2 + self.c2)
        self.w = self.g.node_weight(0.0)

    def lam1(self, t):
        return self.kap1 / np.tanh(self.kap1 * (self.T - t))

    def lam2(self, t):
        return self.kap2 / np.tanh(self.kap2 * (self.T - t))


@pytest.fixture(scope="module")
def cylinder_pair():
    return _CylinderPair()


def test_homogeneous_stage_closed_form(cylinder_pair):
    # on the flat cylinder the backward homogeneous sweep for one mode pair is
    # psi(t) = psi(eps) * prod_i sinh(kap_i (T - eps)) / sinh(kap_i (T - t))
    cp = cylinder_pair
    K_eps = difference_kernel(cp.fam1, cp.fam2, cp.M)
    psi_h = evolve_tensor_backward(PairOperator(cp.fam1, cp.fam2), K_eps)
    ts = cp.g.collar_ts
    psi_hat = np.array([_pair_mode_component(psi_h[j], cp.k) for j in range(cp.M + 1)])
    pe = _pair_mode_component(K_eps, cp.k)
    closed = (
        pe
        * np.sinh(cp.kap1 * (cp.T - cp.eps))
        * np.sinh(cp.kap2 * (cp.T - cp.eps))
        / (np.sinh(cp.kap1 * (cp.T - ts)) * np.sinh(cp.kap2 * (cp.T - ts)))
    )
    assert np.max(np.abs(psi_hat - closed)) < 1e-4 * np.max(np.abs(closed))


def test_psi_is_the_exact_difference_kernel(cylinder_pair):
    # psi is U transported up from the collar depth, so its mode-pair component
    # is the exact symbol difference (lam1(t) - lam2(t)) / (w N) at every node,
    # with a second-order error in the depth step
    cp = cylinder_pair
    profile = make_profile("flat-cylinder", T=cp.T)
    errs = []
    for M in (32, 64, 128):
        g = build_warped_geometry(profile, N=cp.N, M=M, eps=cp.eps)
        psi = solve_source_bvp(compute_dn_family(g, cp.c1), compute_dn_family(g, cp.c2))["psi"]
        psi_hat = np.array([_pair_mode_component(psi[j], cp.k) for j in range(M + 1)])
        ts = g.collar_ts
        exact = (cp.lam1(ts) - cp.lam2(ts)) / (cp.w * cp.N)
        errs.append(np.max(np.abs(psi_hat - exact)) / np.max(np.abs(exact)))
    assert errs[0] < 1e-3
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_all_stages_against_ode_oracle(cylinder_pair):
    # scalar mode-pair reduction of the two-sweep solve, integrated by an
    # unrelated adaptive ODE method from exact terminal data; the backward
    # field is split into a homogeneous part y0 and a particular part y1
    cp = cylinder_pair
    q = cp.c1 - cp.c2
    scale = cp.w * cp.N
    S = lambda t: cp.lam1(t) + cp.lam2(t)
    k_eps = (cp.lam1(cp.eps) - cp.lam2(cp.eps)) / scale
    back = solve_ivp(
        lambda t, y: [S(t) * y[0], S(t) * y[1] - q / scale],
        (cp.eps, 0.0),
        [k_eps, 0.0],
        rtol=1e-10,
        atol=1e-14,
        dense_output=True,
    )
    fwd = solve_ivp(
        lambda t, y: [-S(t) * y[0] + back.sol(t)[0], -S(t) * y[1] + back.sol(t)[1]],
        (0.0, cp.eps),
        [0.0, 0.0],
        rtol=1e-10,
        atol=1e-14,
        dense_output=True,
    )

    stages = solve_source_bvp(cp.fam1, cp.fam2)
    ts = cp.g.collar_ts
    psi_hat = np.array([_pair_mode_component(stages["psi"][j], cp.k) for j in range(cp.M + 1)])
    psi_oracle = np.array([back.sol(t)[0] + back.sol(t)[1] for t in ts])
    assert np.max(np.abs(psi_hat - psi_oracle)) < 1e-3 * np.max(np.abs(psi_oracle))

    phi_hat = np.array(
        [_pair_mode_component(stages["phi"][j], cp.k) for j in range(cp.M + 1)]
    )
    phi_oracle = np.array([fwd.sol(t)[0] + fwd.sol(t)[1] for t in ts])
    assert np.max(np.abs(phi_hat - phi_oracle)) < 5e-4 * np.max(np.abs(phi_oracle))

    # mode component of the recovered map difference against the exact symbol
    h = cp.eps / cp.M
    rec = (4.0 * phi_hat[1] - phi_hat[2]) / (2.0 * h)
    target = (cp.lam1(0.0) - cp.lam2(0.0)) / scale
    assert abs(rec - target) < 2e-3 * abs(target)


# -- exact null case ------------------------------------------------------------


def test_matching_potentials_give_exact_zero(annulus_families):
    fam1, _ = annulus_families
    stages = solve_source_bvp(fam1, fam1)
    for name in ("phi", "psi"):
        assert np.all(stages[name] == 0.0), name


# -- two-sweep structure ---------------------------------------------------------


def test_solve_makes_one_backward_and_one_forward_sweep(annulus_families, monkeypatch):
    calls = []
    for name in ("evolve_tensor_backward", "evolve_tensor_forward"):
        sweep = getattr(source_bvp, name)
        monkeypatch.setattr(
            source_bvp, name, lambda *a, _n=name, _f=sweep, **kw: calls.append(_n) or _f(*a, **kw)
        )
    stages = solve_source_bvp(*annulus_families)
    assert set(stages) == {"phi", "psi"}
    assert sorted(calls) == ["evolve_tensor_backward", "evolve_tensor_forward"]


def test_kept_rows_are_the_full_solve_rows(annulus_families, monkeypatch):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    full = solve_source_bvp(fam1, fam2)
    kept = solve_source_bvp(fam1, fam2, rows=4)
    for name in ("phi", "psi"):
        assert kept[name].shape == (4, g.N, g.N)
        assert np.array_equal(kept[name], full[name][:4]), name
    # the recovery check keeps four rows and recovers the full solve's slope
    forward_nodes, in_forward = set(), []
    apply = PairOperator.apply
    forward = source_bvp.evolve_tensor_forward

    def counted_apply(self, j, W):
        if in_forward:
            forward_nodes.add(j)
        return apply(self, j, W)

    def flagged_forward(*args, **kwargs):
        in_forward.append(True)
        try:
            return forward(*args, **kwargs)
        finally:
            in_forward.pop()

    monkeypatch.setattr(PairOperator, "apply", counted_apply)
    monkeypatch.setattr(source_bvp, "evolve_tensor_forward", flagged_forward)
    res = dn_recovery_check(fam1, fam2)
    assert forward_nodes == {0, 1, 2, 3}  # three forward steps, not M
    assert res["stages"]["phi"].shape[0] == 4
    recovered = boundary_time_derivative(g, full["phi"]) * g.node_weight(0.0)
    assert np.array_equal(res["recovered"], recovered)


@pytest.mark.parametrize("rows", [-1, 0, 66])
def test_rows_outside_the_collar_are_rejected(annulus_families, rows):
    assert annulus_families[0].geometry.M + 1 == 65
    with pytest.raises(GeometryError, match="rows"):
        solve_source_bvp(*annulus_families, rows=rows)


def test_backward_sweep_is_linear_in_its_data(annulus_families):
    # the solver's one sweep from (U(eps), R) equals the homogeneous sweep from
    # U(eps) plus the particular sweep from zero, to the CG tolerance
    fam1, fam2 = annulus_families
    pair = PairOperator(fam1, fam2)
    K_eps = difference_kernel(fam1, fam2, pair.geometry.M)
    R = diagonal_source(fam1, fam2)
    psi = solve_source_bvp(fam1, fam2)["psi"]
    split = evolve_tensor_backward(pair, K_eps) + evolve_tensor_backward(pair, 0.0, source=R)
    assert np.linalg.norm(psi - split) <= 1e-9 * np.linalg.norm(split)


# -- strip decomposition ---------------------------------------------------------


def test_layer_strip_identity(annulus_geometry):
    g = annulus_geometry
    f1 = np.cos(g.theta) + 0.2
    f2 = np.sin(2 * g.theta) - 0.1
    res = layer_strip_check(g, Q1_SPEC, Q2_SPEC, f1, f2)
    assert res["rel_gap"] < 1e-3
    assert abs(res["lhs"] - res["volume_term"] - res["deep_term"]) <= abs(
        res["lhs"] - res["rhs"]
    ) + 1e-15


def _two_family_layer_strip(family1, family2, f1, f2):
    """The check as it ran on two families held at once, kept as a bit-for-bit reference."""
    g = family1.geometry
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    u1 = solve_interior(family1, f1)
    u2 = solve_interior(family2, f2)
    lhs = g.node_weight(0.0) * float(np.dot((family1.lams[0] - family2.lams[0]) @ f1, f2))
    ts = g.collar_ts
    slab_vals = np.empty(g.M + 1)
    for j in range(g.M + 1):
        slab_vals[j] = g.node_weight(float(ts[j])) * float(
            np.sum((family1.q[j] - family2.q[j]) * u1[j] * u2[j])
        )
    volume = float(np.trapezoid(slab_vals, ts))
    w_eps = g.node_weight(float(ts[-1]))
    deep = w_eps * float(
        np.dot((family1.lams[g.M] - family2.lams[g.M]) @ u1[g.M], u2[g.M])
    )
    rhs = volume + deep
    denom = max(abs(lhs), abs(rhs), 1e-30)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "volume_term": volume,
        "deep_term": deep,
        "rel_gap": abs(lhs - rhs) / denom,
    }


_STRIP_PROFILES = {"annulus": {"rho": 0.25}, "disk": {}, "flat-cylinder": {"T": 0.9}}


@pytest.mark.parametrize("geometry", sorted(_STRIP_PROFILES))
@pytest.mark.parametrize(
    "q1, q2",
    [(Q1_SPEC, Q2_SPEC), ({"kind": "constant", "value": 1.5}, {"kind": "zero"}),
     (Q2_SPEC, {"kind": "constant", "value": -0.5}), (Q1_SPEC, Q1_SPEC)],
    ids=["bumps", "constants", "bump-constant", "matched"],
)
def test_layer_strip_one_family_at_a_time_equals_two_held_at_once(geometry, q1, q2):
    g = build_warped_geometry(
        make_profile(geometry, **_STRIP_PROFILES[geometry]), N=16, M=32, eps=0.3
    )
    f1, f2 = np.cos(g.theta) + 0.3, np.sin(2.0 * g.theta) - 0.1
    want = _two_family_layer_strip(compute_dn_family(g, q1), compute_dn_family(g, q2), f1, f2)
    assert layer_strip_check(g, q1, q2, f1, f2) == want


@pytest.mark.parametrize("other", ["flat-cylinder", "disk"])
def test_family_pair_on_two_geometries_is_rejected(other):
    # equal N, M, eps and potentials: only the warping differs
    g1 = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=16, eps=0.3)
    g2 = build_warped_geometry(make_profile(other), N=16, M=16, eps=0.3)
    fam1, fam2 = compute_dn_family(g1, Q1_SPEC), compute_dn_family(g2, Q1_SPEC)
    for check in (PairOperator, dn_recovery_check):
        with pytest.raises(GeometryError, match="one geometry"):
            check(fam1, fam2)


# -- plumbing ---------------------------------------------------------------------


def test_difference_kernel_symmetry(annulus_families):
    fam1, fam2 = annulus_families
    K = difference_kernel(fam1, fam2, 0)
    # bounded by the symmetry defect of either map, on the kernel's scale
    scale = np.linalg.norm(fam1.lams[0]) / fam1.geometry.node_weight(0.0)
    assert np.linalg.norm(K - K.T) <= 1e-14 * scale


def test_diagonal_source_values(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    src = diagonal_source(fam1, fam2)(0)
    q1 = fam1.potential.on_slice(g.theta, 0.0)
    q2 = fam2.potential.on_slice(g.theta, 0.0)
    assert np.allclose(np.diag(src), (q1 - q2) / g.node_weight(0.0))
    assert np.all(src[~np.eye(g.N, dtype=bool)] == 0.0)


def test_boundary_derivative_needs_pinned_slice():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=8, M=8, eps=0.3)
    vals = np.ones((9, 8, 8))
    with pytest.raises(GeometryError, match="pinned"):
        boundary_time_derivative(g, vals)
