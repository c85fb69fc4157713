"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured figure next to
its pinned tolerance, so the suite output doubles as a scorecard. Rates
are fitted on refinement triples; tolerances follow the module docs.
"""

import json
import time

import numpy as np

from evosq.cli import main
from evosq.dnmap import (
    coercivity_probe,
    compute_dn_family,
    conformal_identity_check,
    riccati_integrate,
    solve_interior,
)
from evosq.evolution import PairOperator, evolve_trace, evolved_rank_one
from evosq.exhaustion import (
    collar_map_samples,
    exhaustion_order,
    smooth_min,
)
from evosq.geometry import build_warped_geometry, make_profile
from evosq.meshes import annulus_mesh, disk_mesh
from evosq.probes import null_test, offdiagonal_flag, shell_decomposition
from evosq.rng import SplitMix64
from evosq.source_bvp import (
    boundary_time_derivative,
    dn_recovery_check,
    layer_strip_check,
)
from evosq.squared import apply_variant, kernel_residual
from tests.conftest import Q1_SPEC, Q2_SPEC
from tests.oracles import kron_generator


def _report(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _rate(errs):
    return float(np.log2(errs[0] / errs[-1]) / (len(errs) - 1))


def test_criterion_01_annulus_dn_oracle():
    rho = 0.2
    g = build_warped_geometry(make_profile("annulus", rho=rho), N=64, M=256, eps=0.3)
    fam = compute_dn_family(g, {"kind": "zero"})
    eig = np.sort(np.linalg.eigvalsh(fam.lams[0]))
    exact = [1.0 / np.log(1.0 / rho)]
    for k in range(1, 9):
        lam = k * (1 + rho ** (2 * k)) / (1 - rho ** (2 * k))
        exact += [lam, lam]
    exact = np.sort(np.array(exact))
    rel = float(np.max(np.abs(eig[: exact.size] - exact) / exact))
    _report(1, "separated-annulus boundary spectrum", rel < 1e-3, f"max rel {rel:.2e} vs 1e-3")


def _mode_symbols(family):
    g = family.geometry
    F = np.exp(-2j * np.pi * np.outer(np.arange(g.N), np.arange(g.N)) / g.N)
    return np.array(
        [np.real(np.diag(F @ family.lams[j] @ F.conj().T) / g.N) for j in range(g.M + 1)]
    )


def _windowed_riccati_residual(family, kmax, q_value):
    # residual of the map equation on the modes every level resolves;
    # the Nyquist band carries O(h^2 k^4) extraction noise and is excluded
    g = family.geometry
    ts = g.collar_ts
    sym = _mode_symbols(family)
    cols = np.array([k % g.N for k in range(-kmax, kmax + 1)])
    ksq = np.array([float(k * k) for k in range(-kmax, kmax + 1)])
    worst = 0.0
    for j in range(1, g.M):
        dldt = (sym[j + 1, cols] - sym[j - 1, cols]) / (ts[j + 1] - ts[j - 1])
        rhs = sym[j, cols] ** 2 - (ksq + q_value)
        worst = max(worst, float(np.linalg.norm(dldt - rhs) / np.linalg.norm(rhs)))
    return worst


def test_criterion_02_riccati_cross_validation():
    prof = make_profile("flat-cylinder", T=1.0)
    q = {"kind": "constant", "value": 1.0}

    g = build_warped_geometry(prof, N=32, M=128, eps=0.3)
    fam = compute_dn_family(g, q)
    road = riccati_integrate(g, fam.potential, fam.lams[g.M])
    cross = max(
        float(np.linalg.norm(road[j] - fam.lams[j]) / np.linalg.norm(fam.lams[j]))
        for j in range(g.M + 1)
    )

    res = []
    for n, m in ((16, 64), (32, 128), (64, 256)):
        gl = build_warped_geometry(prof, N=n, M=m, eps=0.3)
        res.append(_windowed_riccati_residual(compute_dn_family(gl, q), 8, 1.0))
    rate = _rate(res)
    ok = cross < 1e-2 and res[0] > res[1] > res[2] and rate >= 1.8
    _report(
        2,
        "riccati cross-validation",
        ok,
        f"cross {cross:.2e} vs 1e-2, residual rate {rate:.2f} vs 1.8",
    )


def test_criterion_03_trace_evolution():
    errs = []
    for m in (32, 64, 128):
        g = build_warped_geometry(make_profile("annulus", rho=0.25), N=32, M=m, eps=0.3)
        fam = compute_dn_family(g, Q1_SPEC, keep_chain=True)
        f = np.cos(g.theta) + 0.3
        u_flow = evolve_trace(fam, f)
        u_int = solve_interior(fam, f)
        errs.append(float(np.linalg.norm(u_flow - u_int) / np.linalg.norm(u_int)))
    rate = _rate(errs)
    ok = errs[-1] < 1e-2 and rate >= 1.8
    _report(3, "trace evolution vs interior", ok, f"err {errs[-1]:.2e} vs 1e-2, rate {rate:.2f}")


def test_criterion_04_kronecker_oracle():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=8, M=16, eps=0.3)
    f1 = compute_dn_family(g, Q1_SPEC)
    f2 = compute_dn_family(g, Q2_SPEC)
    pair = PairOperator(f1, f2)
    rng = SplitMix64(17)
    W = np.asarray(rng.normals(64)).reshape(8, 8)
    worst = 0.0
    for j in (0, g.M // 2, g.M):
        dense = kron_generator(f1.lams[j], f2.lams[j])
        oracle = (dense @ W.ravel()).reshape(8, 8)
        worst = max(worst, float(np.max(np.abs(pair.apply(j, W) - oracle))))
    _report(4, "structured pair apply vs dense kron", worst <= 1e-12, f"max abs {worst:.2e} vs 1e-12")


def _smooth_random_field(g):
    rng = SplitMix64(23)
    th, ts = g.theta, g.collar_ts
    vals = np.zeros((ts.size, g.N, g.N))
    for k1 in range(-2, 3):
        for k2 in range(-2, 3):
            c = rng.next_float() - 0.5
            d = rng.next_float() - 0.5
            prof = np.cos(2.0 * ts) + d * ts
            ang = np.cos(k1 * th)[:, None] * np.cos(k2 * th)[None, :] + np.sin(k1 * th)[
                :, None
            ] * np.sin(k2 * th)[None, :]
            vals += c * prof[:, None, None] * ang[None, :, :]
    return vals


def test_criterion_05_factorization_variants():
    res = {"factorized": [], "expanded-double": [], "expanded-single": [], "agree": []}
    for m in (32, 64, 128):
        g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=m, eps=0.3)
        f1 = compute_dn_family(g, Q1_SPEC)
        f2 = compute_dn_family(g, Q2_SPEC)
        pair = PairOperator(f1, f2)
        rng = SplitMix64(11)
        b1 = np.asarray(rng.normals(16))
        b2 = np.asarray(rng.normals(16))
        fld = evolved_rank_one(f1, f2, b1, b2)
        for v, r in kernel_residual(pair, fld).items():
            res[v].append(r)
        sm = _smooth_random_field(g)
        a_f = apply_variant(pair, sm, "factorized")
        a_d = apply_variant(pair, sm, "expanded-double")
        interior = range(2, g.M - 1)
        scale = max(np.linalg.norm(a_d[j]) for j in interior)
        res["agree"].append(
            float(max(np.linalg.norm(a_f[j] - a_d[j]) for j in interior) / scale)
        )
    rate_d = _rate(res["expanded-double"])
    rate_f = _rate(res["factorized"])
    rate_a = _rate(res["agree"])
    stall = min(res["expanded-single"])
    drift = abs(_rate(res["expanded-single"]))
    ok = (
        rate_d >= 1.5
        and rate_f >= 1.5
        and rate_a >= 1.5
        and stall > 0.5
        and drift < 0.2
    )
    _report(
        5,
        "squared-operator variants",
        ok,
        f"kernel rates {rate_f:.2f}/{rate_d:.2f} vs 1.5, agree rate {rate_a:.2f}, "
        f"single-cross floor {stall:.2f} (must not converge)",
    )


def test_criterion_06_headline_recovery():
    prof = make_profile("flat-cylinder", T=1.0)
    errs, signs = [], []
    for m in (32, 64, 128):
        g = build_warped_geometry(prof, N=32, M=m, eps=0.3)
        f1 = compute_dn_family(g, {"kind": "constant", "value": 1.0})
        f2 = compute_dn_family(g, {"kind": "zero"})
        out = dn_recovery_check(f1, f2)
        errs.append(out["rel_error"])
        signs.append(out["sign"])
    gb = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=64, eps=0.3)
    bump = dn_recovery_check(compute_dn_family(gb, Q1_SPEC), compute_dn_family(gb, Q2_SPEC))
    ok = (
        errs[-1] < 5e-2
        and errs[0] > errs[1] > errs[2]
        and len(set(signs)) == 1
        and bump["sign"] == signs[0]
    )
    _report(
        6,
        "headline difference recovery",
        ok,
        f"err {errs[-1]:.2e} vs 5e-2 decreasing, sign {signs[0]:+d} stable across scenarios",
    )


def test_criterion_07_layer_stripping():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=64, M=256, eps=0.3)
    rng = SplitMix64(5)
    b1 = np.asarray(rng.normals(64))
    b2 = np.asarray(rng.normals(64))
    out = layer_strip_check(g, Q1_SPEC, Q2_SPEC, b1, b2)
    zero = layer_strip_check(g, Q1_SPEC, Q1_SPEC, b1, b2)
    ok = out["rel_gap"] < 1e-3 and abs(zero["lhs"]) <= 1e-12 and zero["rel_gap"] <= 1e-12
    _report(
        7,
        "layer-strip identity",
        ok,
        f"rel gap {out['rel_gap']:.2e} vs 1e-3, matched-potential gap {zero['rel_gap']:.1e}",
    )


def test_criterion_08_null_source():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=32, eps=0.3)
    f1 = compute_dn_family(g, Q1_SPEC)
    f2 = compute_dn_family(g, Q1_SPEC)
    out = null_test(f1, f2)
    # null stages are pinned at the boundary, so the derivative is defined
    from evosq.source_bvp import solve_source_bvp

    phi = solve_source_bvp(f1, f2)["phi"]
    dphi = float(np.max(np.abs(boundary_time_derivative(g, phi))))
    ok = out["max_abs"] <= 1e-10 * out["scale"] and dphi <= 1e-10 * out["scale"]
    _report(
        8,
        "matched-data null source",
        ok,
        f"field max {out['max_abs']:.1e}, boundary slope {dphi:.1e} vs 1e-10*scale",
    )


def test_criterion_09_offdiagonal_mass():
    g = build_warped_geometry(make_profile("annulus", rho=0.25), N=32, M=64, eps=0.3)
    f1 = compute_dn_family(g, Q1_SPEC)
    f2 = compute_dn_family(g, Q2_SPEC)
    kernel = dn_recovery_check(f1, f2)["recovered"]
    sh = shell_decomposition(g, kernel)
    far = sum(m for (lo, _), m in zip(sh["edges"], sh["masses"]) if lo >= np.pi / 8 - 1e-12)
    flag = offdiagonal_flag(g, kernel)["flag"]
    ok = (
        far > 1e-6 * sh["total"]
        and sh["partition_defect"] <= 1e-12 * sh["total"]
        and bool(flag)
    )
    _report(
        9,
        "off-diagonal shell mass",
        ok,
        f"far mass {far:.2e} vs 1e-6*total {1e-6 * sh['total']:.2e}, "
        f"partition defect {sh['partition_defect']:.1e}",
    )


def test_criterion_10_exhaustion_and_smooth_min():
    t0 = time.time()
    worst_pair = np.inf
    collisions = 0
    for mesh in (disk_mesh(50, 100), annulus_mesh(50, 100)):
        order = exhaustion_order(mesh)
        assert sorted(order) == list(range(len(mesh.triangles)))
        stats = collar_map_samples(mesh, order)
        collisions += stats["collisions"]
        worst_pair = min(worst_pair, stats["min_pair_distance"])
    elapsed = time.time() - t0

    rng = np.random.default_rng(2024)
    x = rng.uniform(-10.0, 10.0, 1_000_000)
    y = rng.uniform(-10.0, 10.0, 1_000_000)
    eps = 0.25
    m = smooth_min(x, y, eps)
    lo = np.minimum(x, y)
    envelope = bool(np.all(m >= lo - 1e-12) and np.all(m <= lo + eps / 2 + 1e-12))

    ok = elapsed < 5.0 and collisions == 0 and worst_pair > 1e-9 and envelope
    _report(
        10,
        "mesh exhaustion and smooth min",
        ok,
        f"19.9k triangles in {elapsed:.2f}s vs 5s, min sample gap {worst_pair:.1e}, "
        f"1e6-point envelope {'holds' if envelope else 'broken'}",
    )


def test_criterion_11_conformal_reduction():
    g = build_warped_geometry(
        make_profile("flat-cylinder", T=1.0), N=16, M=128, eps=0.3, dim=2
    )
    modes = [
        (k1, k2) for k1 in range(-8, 9) for k2 in range(-8, 9) if k1 * k1 + k2 * k2 <= 64
    ]
    out = conformal_identity_check(g, lambda t: np.exp(2.0 * t), 3, modes)
    ok = out["max_rel_error"] < 1e-3
    _report(
        11,
        "conformal factor reduction",
        ok,
        f"{len(modes)} torus modes, max rel {out['max_rel_error']:.2e} vs 1e-3",
    )


def test_criterion_12_coercivity():
    worst = np.inf
    for prof in (make_profile("disk"), make_profile("annulus", rho=0.25)):
        g = build_warped_geometry(prof, N=32, M=64, eps=0.3)
        fam = compute_dn_family(g, {"kind": "zero"})
        out = coercivity_probe(fam)
        worst = min(worst, min(r["C1"] for r in out.values()))
    _report(12, "smoothed-pairing coercivity", worst > 0.0, f"min C1 {worst:.3f} > 0")


def test_criterion_13_determinism(tmp_path):
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(
            ["oducp-probe", "--out", str(out), "--override", "N=32", "--override", "M=16"]
        )
        assert code == 0
        payloads.append((out / "summary.json").read_bytes())
        payloads.append((out / "shells.csv").read_bytes())
    ok = payloads[0] == payloads[2] and payloads[1] == payloads[3]
    _report(13, "byte-identical reruns", ok, "summary.json and shells.csv match across runs")
