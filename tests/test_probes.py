import numpy as np
import pytest

from evosq.dnmap import DNFamily, compute_dn_family
from evosq.errors import GeometryError
from evosq.evolution import evolved_rank_one
from evosq.exhaustion import smooth_min
from evosq.geometry import build_warped_geometry, make_profile
from evosq.probes import (
    FAR_DISTANCE,
    _circular_distance,
    gradient_blowup_probe,
    null_test,
    offdiagonal_flag,
    resolvable_shells,
    shell_decomposition,
    zeta_pairing,
)
from evosq.source_bvp import dn_recovery_check, solve_source_bvp


def test_null_test_exact(annulus_families):
    fam1, _ = annulus_families
    res = null_test(fam1, fam1)
    assert res["passed"]
    assert res["max_abs"] == 0.0
    assert res["scale"] == pytest.approx(np.linalg.norm(fam1.lams[0]), rel=1e-15)


def test_null_test_scale_does_not_overflow(annulus_families):
    # a map near 1e156 has a finite norm, though its unscaled sum of squares overflows
    fam1, _ = annulus_families
    big = DNFamily(fam1.geometry, fam1.potential, fam1.lams * 1e155, fam1.q)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(big.lams[0] ** 2))
    res = null_test(big, big)
    assert res["passed"] and res["scale"] == pytest.approx(1e155 * null_test(fam1, fam1)["scale"])


def test_resolvable_shells_scaling():
    assert resolvable_shells(8) == 1
    assert resolvable_shells(16) == 2
    assert resolvable_shells(32) == 3
    assert resolvable_shells(64) == 4


def test_shell_partition(annulus_geometry):
    g = annulus_geometry
    rng = np.random.default_rng(4)
    kernel = rng.standard_normal((g.N, g.N))
    prof = shell_decomposition(g, kernel)
    assert prof["n_shells"] == 3
    assert prof["partition_defect"] < 1e-12 * prof["total"]
    assert prof["masses"].shape == (3,)
    # dyadic edges nest downward from pi
    assert prof["edges"][0] == (np.pi / 2, np.pi)
    assert prof["edges"][1] == (np.pi / 4, np.pi / 2)


def test_shell_mass_localization(annulus_geometry):
    g = annulus_geometry
    # kernel supported near the diagonal only: far shells stay empty
    d = np.abs(g.theta[:, None] - g.theta[None, :])
    d = np.minimum(d, 2 * np.pi - d)
    near = np.where(d < np.pi / 16, 1.0, 0.0)
    prof = shell_decomposition(g, near)
    assert prof["masses"][0] == 0.0
    assert prof["masses"][1] == 0.0
    assert prof["catchall"] > 0.0


def test_insufficient_shells_error():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=8, M=16, eps=0.3)
    with pytest.raises(GeometryError, match="insufficient shells"):
        shell_decomposition(g, np.ones((8, 8)))


def test_kernel_shape_check(annulus_geometry):
    with pytest.raises(GeometryError, match="kernel shape"):
        shell_decomposition(annulus_geometry, np.ones((4, 4)))


def test_offdiagonal_flag_fires_on_far_mass(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    res = dn_recovery_check(fam1, fam2)
    flag = offdiagonal_flag(g, res["recovered"])
    assert flag["flag"]
    assert flag["far_mass"] > 1e-6 * flag["total"]


def test_offdiagonal_flag_quiet_on_near_kernel(annulus_geometry):
    g = annulus_geometry
    d = np.abs(g.theta[:, None] - g.theta[None, :])
    d = np.minimum(d, 2 * np.pi - d)
    near = np.where(d < np.pi / 16, 1.0, 0.0)
    assert not offdiagonal_flag(g, near)["flag"]


def test_gradient_probe_runs_on_fine_grid():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=64, M=16, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g, -0.5)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.sin(g.theta))
    res = gradient_blowup_probe(g, field)
    assert res["p"] == pytest.approx(1.5)
    assert np.isfinite(res["slope"])
    assert res["shell_masses"].size == 4


def test_gradient_probe_needs_four_shells(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry  # N = 32 resolves only 3 shells
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.sin(g.theta))
    with pytest.raises(GeometryError, match="4 shells"):
        gradient_blowup_probe(g, field)


def test_gradient_probe_slice_bounds():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=64, M=16, eps=0.3)
    fam1 = compute_dn_family(g, 1.0)
    fam2 = compute_dn_family(g)
    field = evolved_rank_one(fam1, fam2, np.cos(g.theta), np.sin(g.theta))
    # slice 2 needs row 3 below it
    with pytest.raises(GeometryError, match="interior collar slice"):
        gradient_blowup_probe(g, field[:3])


def test_gradient_probe_reads_kept_rows():
    # a solve that keeps four rows serves slice 2; three rows leave it no row below
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=64, M=16, eps=0.3)
    fam1, fam2 = compute_dn_family(g, 1.0), compute_dn_family(g, -0.5)
    full = solve_source_bvp(fam1, fam2)["phi"]
    kept = solve_source_bvp(fam1, fam2, rows=4)["phi"]
    assert gradient_blowup_probe(g, kept)["slope"] == gradient_blowup_probe(g, full)["slope"]
    with pytest.raises(GeometryError, match="interior collar slice"):
        gradient_blowup_probe(g, solve_source_bvp(fam1, fam2, rows=3)["phi"])


def test_zeta_pairing_finite_and_keyed(annulus_families):
    fam1, fam2 = annulus_families
    g = fam1.geometry
    res = dn_recovery_check(fam1, fam2)
    scores = zeta_pairing(g, res["recovered"])
    assert set(scores) == {1, 2, 4, 8}
    assert all(np.isfinite(v) for v in scores.values())
    # windowed away from the diagonal: a near-diagonal kernel scores zero
    d = np.abs(g.theta[:, None] - g.theta[None, :])
    d = np.minimum(d, 2 * np.pi - d)
    near = np.where(d < np.pi / 16, 1.0, 0.0)
    assert all(v == 0.0 for v in zeta_pairing(g, near).values())


def test_zeta_pairing_matches_a_per_entry_damping(annulus_families):
    # the damping is one elementwise smooth_min call; the reference applies it per entry
    fam1, fam2 = annulus_families
    g = fam1.geometry
    kernel = dn_recovery_check(fam1, fam2)["recovered"] / g.node_weight(0.0)
    d = _circular_distance(g.theta)
    with np.errstate(divide="ignore"):
        ll = np.log1p(np.maximum(np.log(np.maximum(1.0 / np.maximum(d, 1e-300), 1.0)), 0.0))
    window = (d > FAR_DISTANCE).astype(float)
    w = g.node_weight(0.0)
    x = g.theta
    scores = zeta_pairing(g, kernel)
    for k in (1, 2, 4, 8):
        damp = np.vectorize(lambda v, _k=float(k): smooth_min(_k, v, 0.25))(ll)
        osc = np.cos(k * (x[:, None] - x[None, :]))
        assert scores[k] == float(np.sum(kernel * osc * damp * window) * w * w)
