import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosq.dnmap import (
    _LEAF,
    _eliminate,
    _extract_dn,
    _mode_q_values,
    _spd_inverse,
    _weights,
    compute_dn_family,
    conductivity_mode_dn,
    conformal_identity_check,
    dn_mode_symbol,
    lambda_min,
    propagation_chain,
    riccati_integrate,
    riccati_residual,
    solve_interior,
)
from evosq.errors import (
    DNComputationError,
    GeometryError,
    RiccatiEscapeError,
)
from evosq.geometry import build_warped_geometry, fourier_matrix, make_profile
from evosq.potentials import SampledPotential, make_potential
from evosq.rng import SplitMix64
from evosq.source_bvp import layer_strip_check
from tests.conftest import Q1_SPEC, Q2_SPEC
from tests.oracles import coercivity_probe


def _mode_eigenvalue(geometry, lam, k):
    u = np.cos(k * geometry.theta) if k else np.ones(geometry.N)
    v = lam @ u
    return float(np.dot(v, u) / np.dot(u, u))


def annulus_exact(k, rho):
    if k == 0:
        return 1.0 / np.log(1.0 / rho)
    return k * (1.0 + rho ** (2 * k)) / (1.0 - rho ** (2 * k))


# -- boundary map oracles -----------------------------------------------------


def test_annulus_eigenvalues(annulus_geometry):
    fam = compute_dn_family(annulus_geometry)
    lam0 = fam.lams[0]
    for k in range(0, 9):
        exact = annulus_exact(k, 0.25)
        got = _mode_eigenvalue(annulus_geometry, lam0, k)
        assert abs(got - exact) / exact < 1e-3, f"mode {k}"


def test_disk_eigenvalues():
    g = build_warped_geometry("disk", N=16, M=128, eps=0.3)
    lam0 = compute_dn_family(g).lams[0]
    for k in range(0, 7):
        got = _mode_eigenvalue(g, lam0, k)
        assert abs(got - k) / max(k, 1) < 2e-3, f"mode {k}"


def test_flat_cylinder_mode_symbol_matches_coth():
    T, q = 0.8, 2.0
    g = build_warped_geometry(make_profile("flat-cylinder", T=T), N=16, M=64, eps=0.3)
    vals = dn_mode_symbol(g, q, 4.0, range(g.M + 1))  # k = 2
    kappa = np.sqrt(4.0 + q)
    exact = kappa / np.tanh(kappa * (T - g.collar_ts))
    assert np.max(np.abs(vals - exact) / exact) < 1e-3


def test_torus_mode_symbol():
    T, q = 0.8, 1.0
    g = build_warped_geometry(make_profile("flat-cylinder", T=T), N=8, M=32, eps=0.3, dim=2)
    ksq = 5.0  # mode (1, 2)
    val = float(dn_mode_symbol(g, q, ksq, depths=[0])[0])
    kappa = np.sqrt(ksq + q)
    exact = kappa / np.tanh(kappa * T)
    assert abs(val - exact) / exact < 1e-3


def test_dense_and_mode_paths_agree(annulus_geometry):
    fam = compute_dn_family(annulus_geometry, 1.5)
    for k in (0, 1, 4):
        dense = _mode_eigenvalue(annulus_geometry, fam.lams[0], k)
        mode = float(dn_mode_symbol(annulus_geometry, 1.5, float(k) ** 2, depths=[0])[0])
        assert abs(dense - mode) < 1e-8 * max(abs(dense), 1.0)


@pytest.mark.parametrize("profile", ["annulus", "disk", "flat-cylinder"])
def test_dense_and_mode_paths_agree_on_every_cap(profile):
    # Dirichlet cap, center cap and a flat collar; theta-independent constants
    g = build_warped_geometry(make_profile(profile), N=16, M=32, eps=0.3)
    F = np.fft.fft(np.eye(g.N), axis=0)
    ksq = g.wavenumbers() ** 2
    rng = SplitMix64(11)
    for q in 4.0 * np.array([rng.next_float(), rng.next_float()]) - 1.0:
        lams = compute_dn_family(g, q).lams
        for j in (0, g.M):
            dense = np.real(np.diag(F @ lams[j] @ np.conj(F.T))) / g.N
            mode = dn_mode_symbol(g, q, ksq, depths=[j])[0]
            assert np.max(np.abs(dense - mode) / np.abs(mode)) < 1e-10


@pytest.mark.parametrize("profile", ["annulus", "disk", "flat-cylinder"])
def test_chain_matches_whole_grid_dense_elimination(profile):
    # the theta-constant run below the bump (all of the grid for a constant)
    # is eliminated per mode; every kept block must equal the dense sweep's,
    # also when the run starts below the kept collar rows (the deep bump)
    g = build_warped_geometry(make_profile(profile), N=16, M=32, eps=0.3)
    k = g.wavenumbers()
    if g.cap == "center":
        cap = fourier_matrix((g.rs[-1] / g.rs[-2]) ** np.abs(k))
    else:
        cap = np.zeros((g.N, g.N))
    bump = {"kind": "bump", "amplitude": 2.0, "theta0": 0.0, "t0": 0.1, "width": 0.2}
    deep = {"kind": "bump", "amplitude": 2.0, "theta0": 0.0, "t0": 0.4, "width": 0.06}
    cases = [(bump, 0.3), (deep, 0.46), (1.5, 0.0)]
    for spec, t_end in cases:
        top = max(int(np.searchsorted(g.ts, t_end, side="right")), 1)
        potential = make_potential(spec)
        Q = potential.on_grid(g.theta, g.ts)
        dense, _ = _eliminate(g, g.d2_unit(), Q.__getitem__, _weights(g), cap)
        chain = propagation_chain(g, potential)
        assert chain.shape == (g.M + 2, g.N, g.N)
        for S, D in zip(chain[1:], dense[1:]):
            assert np.linalg.norm(S - D) <= 1e-12 * np.linalg.norm(D)
        for S in chain[top:]:
            assert np.array_equal(S, S.T)
            assert np.array_equal(S, np.roll(S, (1, 1), axis=(0, 1)))


def _maps_with_gauss_jordan_spy(monkeypatch, g, potential):
    """The maps of ``potential`` and the number of dense pivots that took Gauss-Jordan."""
    from evosq import dnmap

    inverted = []
    gauss_jordan = dnmap._gauss_jordan
    monkeypatch.setattr(dnmap, "_gauss_jordan", lambda a, out: inverted.append(a) or gauss_jordan(a, out))
    lams = compute_dn_family(g, potential).lams
    monkeypatch.setattr(dnmap, "_gauss_jordan", gauss_jordan)
    return lams, len(inverted)


@pytest.mark.parametrize("profile", ["annulus", "disk", "flat-cylinder"])
def test_dense_sweep_matches_the_mode_symbols(profile, monkeypatch):
    # a 1e-12 cos ripple on every row sends the whole grid through the dense
    # sweep (N = 96 halves 48 / 24); every pivot is positive definite here
    g = build_warped_geometry(make_profile(profile), N=96, M=32, eps=0.3)
    ksq = g.wavenumbers() ** 2
    for q in (-0.7, 1.5):
        rippled = SampledPotential(g.theta, g.ts, q + 1e-12 * np.cos(g.theta)[:, None] * np.ones(g.ts.size))
        lams, fallback_rows = _maps_with_gauss_jordan_spy(monkeypatch, g, rippled)
        assert fallback_rows == 0
        for j in (0, g.M // 2, g.M):
            mode = np.sort(dn_mode_symbol(g, q, ksq, depths=[j])[0])
            assert np.max(np.abs(np.linalg.eigvalsh(lams[j]) - mode)) <= 1e-11 * np.abs(mode).max()


@pytest.mark.parametrize("n", [8, 32, 33, 96, 128])
def test_spd_inverse_matches_inv(n):
    # 33 and 96 halve into blocks of unequal size or below the leaf size
    G = np.random.default_rng(n).standard_normal((n, n))
    A = G @ G.T + 0.1 * n * np.eye(n)
    ref = np.linalg.inv(A)
    out = np.empty_like(A)
    assert _spd_inverse(A, out, {}) is out
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


def test_spd_inverse_refuses_an_indefinite_schur_complement():
    # the leading leaf is positive definite; the Schur complement is not
    n = 4 * _LEAF
    rng = np.random.default_rng(3)
    G = rng.standard_normal((n, n))
    A = G @ G.T + n * np.eye(n)
    A[n // 2 :, n // 2 :] -= 4 * n * np.eye(n // 2)
    assert np.linalg.eigvalsh(A).min() < 0
    np.linalg.cholesky(A[:_LEAF, :_LEAF])
    with pytest.raises(np.linalg.LinAlgError):
        _spd_inverse(A, np.empty_like(A), {})


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 130),
    log_kappa=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=33, log_kappa=8.0, seed=0)  # halves 16 / 17
@example(n=130, log_kappa=8.0, seed=1)  # halves 65 / 65, then 32 / 33
@example(n=1, log_kappa=0.0, seed=2)
def test_spd_inverse_is_accurate_to_its_condition_number(n, log_kappa, seed):
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = 10.0 ** rng.uniform(0.0, log_kappa, n)
    eig[[0, -1]] = 1.0, 10.0**log_kappa
    eig *= 10.0 ** rng.uniform(-3.0, 3.0)  # the bound must not depend on the scale
    A = (V * eig) @ V.T
    kappa = eig.max() / eig.min()
    ref = np.linalg.inv(A)
    out = _spd_inverse(A, np.empty_like(A), {})
    assert np.linalg.norm(out - ref) <= 30 * n * kappa * np.finfo(float).eps * np.linalg.norm(ref)


def test_an_indefinite_leaf_is_refused():
    A = np.diag(np.linspace(1.0, 2.0, _LEAF))
    A[-1, -1] = -1e-3
    with pytest.raises(np.linalg.LinAlgError):
        _spd_inverse(A, np.empty_like(A), {})


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 80),
    kind=st.sampled_from(["indefinite", "negative", "graded"]),
    log_scale=st.floats(-60.0, 60.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=_LEAF, kind="indefinite", log_scale=0.0, seed=0)
@example(n=_LEAF + 1, kind="negative", log_scale=40.0, seed=1)  # one Schur halving
@example(n=80, kind="graded", log_scale=-40.0, seed=2)
def test_lambda_min_brackets_the_smallest_eigenvalue(n, kind, log_scale, seed):
    # the bisection stops at width n eps max|A|; the bracket it leaves, widened by
    # that width on each side for the two backward errors, holds eigvalsh's value
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G + G.T
    if kind == "negative":
        A = -(G @ G.T) - 1e-2 * np.eye(n)
    elif kind == "graded":  # entries spread over eight decades
        d = 10.0 ** rng.uniform(-4.0, 4.0, n)
        A = d[:, None] * A * d[None, :]
    A *= 10.0**log_scale
    width = n * np.finfo(float).eps * np.abs(A).max()
    low = lambda_min(A)
    assert low - width <= np.linalg.eigvalsh(A)[0] <= low + 2 * width


def test_lambda_min_refuses_a_non_finite_matrix():
    A = np.eye(4)
    A[1, 2] = A[2, 1] = np.nan
    with pytest.raises(DNComputationError, match="non-finite"):
        lambda_min(A)


def test_a_pivot_below_the_leaf_border_takes_the_gauss_jordan_fallback(monkeypatch):
    # positive definite and well conditioned, but every eigenvalue is below
    # 1 / _BORDER: the bordered leaf Cholesky fails and Gauss-Jordan inverts it
    from evosq import dnmap

    n = 2 * _LEAF
    G = np.random.default_rng(5).standard_normal((n, n))
    neg = 1e-160 * (G @ G.T + n * np.eye(n))
    assert 0.0 < np.linalg.eigvalsh(neg).max() < 1.0 / dnmap._BORDER
    inverted = []
    gauss_jordan = dnmap._gauss_jordan
    monkeypatch.setattr(dnmap, "_gauss_jordan", lambda a, out: inverted.append(a) or gauss_jordan(a, out))
    out = dnmap._dense_inverse(neg, 3.0, np.empty_like(neg), {})
    assert len(inverted) == 1
    ref = 3.0 * np.linalg.inv(neg)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))  # a 2-norm would overflow


def test_gauss_jordan_inverts_an_indefinite_matrix_and_refuses_a_singular_one():
    # eigenvalues from -16 to 17, condition 4e2: measured 8e-15 from LAPACK's inverse
    from evosq import dnmap

    G = np.random.default_rng(9).standard_normal((40, 40))
    A = G + G.T
    ref = np.linalg.inv(A)
    assert np.linalg.norm(dnmap._gauss_jordan(A, np.empty_like(A)) - ref) <= 1e-13 * np.linalg.norm(ref)
    A[:, 7] = 0.0  # row operations keep the column exactly zero: a zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        dnmap._gauss_jordan(A, np.empty_like(A))


@pytest.mark.parametrize("N", [16, 40])
def test_in_place_rows_and_maps_are_the_formulas_bit_for_bit(N):
    # the sweep and the extraction write in place; out of place, in the same
    # floating-point order, they are the formulas of the _eliminate and
    # compute_dn_family docstrings. A ripple makes every row dense, so the
    # rows below the collar pass through the spare blocks
    g = build_warped_geometry(make_profile("disk"), N=N, M=16, eps=0.3)
    Q = 1.5 + 1e-3 * np.cos(g.theta)[None, :] * np.ones((g.ts.size, 1))
    potential = SampledPotential(g.theta, g.ts, Q.T)
    (half, node), dt, eye, lap = _weights(g), np.diff(g.ts), np.eye(N), g.d2_unit()
    cap = fourier_matrix((g.rs[-1] / g.rs[-2]) ** np.abs(g.wavenumbers()))
    rows, block = {}, cap
    for j in range(g.ts.size - 2, 0, -1):
        scale = 0.5 * (dt[j - 1] + dt[j]) * node[j]
        ap, cp = half[j - 1] / (dt[j - 1] * scale), half[j] / (dt[j] * scale)
        neg = (ap + cp) * eye + lap / g.rs[j] ** 2 + np.diag(Q[j]) - cp * block
        block = rows[j] = ap * _spd_inverse(neg, np.empty_like(neg), {})
    S, _ = _eliminate(g, lap, Q.__getitem__, _weights(g), cap)
    assert all(np.array_equal(S[j], rows[j]) for j in range(1, g.M + 2))
    assert np.array_equal(propagation_chain(g, potential)[1:], S[1:])
    fam = compute_dn_family(g, potential)
    for j in range(g.M + 1):
        h = g.ts[j + 1] - g.ts[j]
        flux = (half[j] / node[j] / h) * (eye - rows[j + 1])
        assert np.array_equal(fam.lams[j], flux + 0.5 * h * (lap / g.rs[j] ** 2 + np.diag(Q[j])))


def _mode_sweep_formula(g, lap, q, w, cap, top=1, circulant=False):
    """The per-mode sweep row by row: numpy-scalar coefficients, one errstate a row, einsum guard.

    Returns the rows by node and the block at ``top``, or raises as the sweep does.
    """
    (half, node), dt = w, np.diff(g.ts)
    guard = 1e6 * np.sqrt(lap.shape[0] if circulant else lap.shape[-1])
    block = cap
    rows = {g.ts.size - 1: cap}
    for j in range(g.ts.size - 2, top - 1, -1):
        scale = 0.5 * (dt[j - 1] + dt[j]) * node[j]
        ap, cp = half[j - 1] / (dt[j - 1] * scale), half[j] / (dt[j] * scale)
        with np.errstate(divide="ignore"):
            block = rows[j] = ap / ((ap + cp) + lap / g.rs[j] ** 2 + q(j) - cp * block)
        sq = np.einsum("...ij,...ij->...", block, block)
        norm = np.sqrt(np.sum(sq) if circulant else sq)
        bad = norm > guard
        if np.any(bad):
            mode = f" (mode ksq={float(lap[bad][0, 0, 0])})" if norm.ndim else ""
            why = "" if mode else f": propagation norm {norm:.3g}"
            raise DNComputationError(
                f"Dirichlet eigenvalue collision{mode} near depth {g.ts[j]:.6g}{why}"
            )
    return rows, block


def _mode_maps_formula(g, ksq, q, w, depths):
    lap = np.asarray(ksq, dtype=float).reshape(-1, 1, 1)
    ratio = g.rs[-1] / g.rs[-2]
    cap = ratio ** np.sqrt(lap) if g.cap == "center" else np.zeros_like(lap)
    rows, _ = _mode_sweep_formula(g, lap, q, w, cap)
    S = np.empty((g.M + 2,) + cap.shape)
    for j in range(1, g.M + 2):
        S[j] = rows[j]
    lams, work = np.empty((len(depths),) + cap.shape), np.empty_like(cap)
    for i, j in enumerate(depths):
        _extract_dn(g, S, lap, q, w, j, lams[i], work)
    return lams[..., 0, 0]


@pytest.mark.parametrize("profile", ["annulus", "disk", "flat-cylinder"])
def test_mode_sweep_is_the_row_formula_bit_for_bit(profile):
    # _eliminate's per-mode rows take their coefficients from whole-grid vectors and
    # guard by the largest squared symbol: the chain's circulant deep run below a bump
    # and the mode symbols equal the row-by-row formula exactly
    g = build_warped_geometry(make_profile(profile), N=32, M=64, eps=0.3)
    k, w = g.wavenumbers(), _weights(g)
    bump = make_potential({"kind": "bump", "amplitude": 2.0, "theta0": 0.5, "t0": 0.05, "width": 0.15})
    Q = bump.on_grid(g.theta, g.ts)
    top = int(np.flatnonzero(np.any(Q[:-1] != Q[:-1, :1], axis=1))[-1]) + 1
    assert 1 < top < g.M
    lap = (k**2)[:, None, None]
    ratio = g.rs[-1] / g.rs[-2]
    cap = (ratio ** np.abs(k) if g.cap == "center" else np.zeros_like(k))[:, None, None]
    rows, top_block = _mode_sweep_formula(g, lap, lambda j: Q[j, 0], w, cap, top, circulant=True)
    S, block = _eliminate(g, lap, lambda j: Q[j, 0], w, cap, top=top, circulant=True)
    assert np.array_equal(block, top_block)
    assert all(np.array_equal(S[j], rows[j]) for j in range(top, g.M + 2))
    chain = propagation_chain(g, bump)
    assert all(np.array_equal(chain[j], fourier_matrix(rows[j][:, 0, 0])) for j in range(top + 1, g.M + 2))
    for potential in (0.0, 1.5):
        q = _mode_q_values(g, make_potential(potential)).__getitem__
        ksq = np.arange(g.N // 2 + 1) ** 2.0
        expected = _mode_maps_formula(g, ksq, q, w, range(g.M + 1))
        assert np.array_equal(dn_mode_symbol(g, potential, ksq, range(g.M + 1)), expected)


def test_torus_conductivity_sweep_is_the_row_formula_bit_for_bit():
    # conformal-check's conductivity sweep on the flat torus at N=16, M=128, modes_max=16
    g = build_warped_geometry(make_profile("flat-cylinder"), N=16, M=128, eps=0.3, dim=2)
    kmax = 16
    ksq = np.array(
        [a * a + b * b for a in range(kmax + 1) for b in range(a, kmax + 1) if a * a + b * b <= kmax**2],
        dtype=float,
    )
    sigma = np.exp(0.7 * g.ts) ** 0.5
    w = _weights(g, sigma)
    expected = float(sigma[0]) * _mode_maps_formula(g, ksq, lambda j: 0.0, w, [0])[0]
    assert ksq.size == 114
    assert np.array_equal(conductivity_mode_dn(g, lambda t: np.exp(0.7 * t), 3, ksq), expected)


@pytest.mark.parametrize("ksq", [0.0, np.array([4.0, 0.0, 1.0])])
def test_mode_resonance_is_the_row_formula_message(ksq):
    # the largest squared symbol against the guard names the same depth and the same first mode
    g, q_res = _resonant_setup()
    lap = np.reshape(ksq, (-1, 1, 1))
    with pytest.raises(DNComputationError) as expected:
        _mode_sweep_formula(g, lap, lambda j: q_res, _weights(g), np.zeros_like(lap))
    with pytest.raises(DNComputationError) as raised:
        dn_mode_symbol(g, q_res, ksq, range(g.M + 1))
    assert str(raised.value) == str(expected.value)


def test_chain_allocates_only_the_collar_blocks():
    # a chain over the whole grid would hold K = 213 blocks on this disk
    import tracemalloc

    g = build_warped_geometry("disk", N=32, M=64, eps=0.3)
    bump = {"kind": "bump", "amplitude": 2.0, "theta0": 0.0, "t0": 0.1, "width": 0.2}
    assert g.ts.size > 3 * (g.M + 3)
    for spec in (bump, 1.5):
        potential = make_potential(spec)
        tracemalloc.start()
        try:
            propagation_chain(g, potential)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (g.M + 3) * g.N**2 * 8


# -- structural properties ----------------------------------------------------


def test_map_is_symmetric(annulus_families):
    # the maps are Schur complements of a symmetric system: nothing symmetrizes them
    fam1, _ = annulus_families
    for j in (0, fam1.geometry.M // 2, fam1.geometry.M):
        lam = fam1.lams[j]
        assert np.linalg.norm(lam - lam.T) <= 1e-14 * np.linalg.norm(lam)


def test_zero_potential_map_is_psd(annulus_geometry):
    lam0 = compute_dn_family(annulus_geometry).lams[0]
    w = np.linalg.eigvalsh(lam0)
    assert w.min() > -1e-8


def test_fourier_diagonal_when_potential_is_radial(annulus_geometry):
    lam0 = compute_dn_family(annulus_geometry, 0.7).lams[0]
    F = np.fft.fft(np.eye(annulus_geometry.N), axis=0)
    hat = F @ lam0 @ np.conj(F.T) / annulus_geometry.N
    off = hat - np.diag(np.diag(hat))
    assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(hat))


def test_family_indexing(annulus_families):
    fam1, _ = annulus_families
    g = fam1.geometry
    assert fam1.lams.shape == (g.M + 1, g.N, g.N)


def test_family_q_is_the_potential_on_collar_nodes(annulus_families):
    fam1, _ = annulus_families
    g = fam1.geometry
    assert fam1.q.shape == (g.M + 1, g.N)
    for j, t in enumerate(g.collar_ts):
        assert np.array_equal(fam1.q[j], fam1.potential.on_slice(g.theta, t))


def test_mode_path_rejects_angular_potentials(annulus_geometry):
    g = annulus_geometry
    bump = {"kind": "bump", "amplitude": 1.0, "theta0": 0.0, "t0": 0.1, "width": 0.3}
    with pytest.raises(GeometryError, match="theta-independent"):
        dn_mode_symbol(g, bump, 1.0, range(g.M + 1))
    # the chain's exact rule, not a tolerance: a 1e-13 cos ripple is not theta-constant
    rippled = SampledPotential(g.theta, g.ts, 1.5 + 1e-13 * np.cos(g.theta)[:, None] * np.ones(g.ts.size))
    with pytest.raises(GeometryError, match="theta-independent"):
        _mode_q_values(g, rippled)


@pytest.mark.parametrize("profile", ["annulus", "disk", "flat-cylinder"])
def test_mode_batch_is_the_chains_deep_run_bit_for_bit(profile, monkeypatch):
    # for a constant the chain's deep run is the whole grid: dn_mode_symbol's batch of
    # the same modes must read the same row values and cap and eliminate the same rows
    # (at N = 64 the mean of a row of 0.1s is not 0.1)
    from evosq import dnmap

    g = build_warped_geometry(make_profile(profile), N=64, M=32, eps=0.3)
    runs, eliminate = [], dnmap._eliminate

    def spy(geometry, lap, q, w, cap, **kw):
        S, block = eliminate(geometry, lap, q, w, cap, **kw)
        runs.append(([q(j) for j in range(geometry.ts.size - 1)], cap, S))
        return S, block

    monkeypatch.setattr(dnmap, "_eliminate", spy)
    for q in (0.1, -0.7):
        runs.clear()
        propagation_chain(g, make_potential(q))
        dn_mode_symbol(g, q, g.wavenumbers() ** 2, depths=[0])
        deep, _, mode = runs
        assert deep[0] == mode[0] and np.array_equal(deep[1], mode[1])
        assert deep[2].shape == mode[2].shape == (g.M + 2, g.N, 1, 1)
        assert np.array_equal(deep[2][1:], mode[2][1:])


def test_dense_path_is_circle_only():
    g = build_warped_geometry("flat-cylinder", N=8, M=16, eps=0.3, dim=2)
    with pytest.raises(GeometryError, match="circle-only"):
        compute_dn_family(g)


# -- exact discrete identities --------------------------------------------------

_PROFILES = {
    "annulus": make_profile("annulus", rho=0.25),
    "disk": make_profile("disk"),
    "flat-cylinder": make_profile("flat-cylinder"),
}


@pytest.fixture(scope="module", params=sorted(_PROFILES))
def bump_pair(request):
    g = build_warped_geometry(_PROFILES[request.param], N=32, M=64, eps=0.3)
    return compute_dn_family(g, Q1_SPEC, keep_chain=True), compute_dn_family(g, Q2_SPEC)


def test_maps_are_symmetric_without_symmetrizing(bump_pair):
    for fam in bump_pair:
        for lam in fam.lams:
            assert np.linalg.norm(lam - lam.T) <= 1e-14 * np.linalg.norm(lam)


@pytest.mark.parametrize("profile", sorted(_PROFILES))
def test_rotating_or_reflecting_the_bump_permutes_every_map(profile):
    # the slice Laplacian is circulant, so moving theta0 by one node rolls each
    # map by one node in both indices, and theta0 -> -theta0 re-indexes k -> -k
    # mod N; only the pivots' factorization order may differ (2e-14-3e-14 seen)
    g = build_warped_geometry(_PROFILES[profile], N=32, M=64, eps=0.3)
    base = compute_dn_family(g, Q1_SPEC).lams
    turned = compute_dn_family(g, dict(Q1_SPEC, theta0=Q1_SPEC["theta0"] + 2 * np.pi / g.N)).lams
    mirrored = compute_dn_family(g, dict(Q1_SPEC, theta0=-Q1_SPEC["theta0"])).lams
    k = -np.arange(g.N) % g.N
    for lam, expected in ((turned, np.roll(base, 1, axis=(1, 2))), (mirrored, base[:, k][:, :, k])):
        gap = np.linalg.norm(lam - expected, axis=(1, 2)) / np.linalg.norm(expected, axis=(1, 2))
        assert gap.max() <= 1e-11


@pytest.mark.parametrize("profile", sorted(_PROFILES))
def test_maps_are_psd_for_a_nonnegative_potential(profile):
    g = build_warped_geometry(_PROFILES[profile], N=32, M=64, eps=0.3)
    for lam in compute_dn_family(g, 1.0).lams:
        eig = np.linalg.eigvalsh(lam)
        assert eig.min() >= -1e-12 * np.abs(eig).max()


def test_layer_strip_identity_is_exact(bump_pair):
    g = bump_pair[0].geometry
    f1, f2 = np.cos(g.theta) + 0.3, np.cos(2.0 * g.theta) + 0.1
    assert layer_strip_check(g, Q1_SPEC, Q2_SPEC, f1, f2)["rel_gap"] <= 1e-10


def test_maps_follow_the_moebius_recursion(bump_pair):
    # eliminating one cell at a time, up from the collar-depth map, gives every map
    half, node = _weights(bump_pair[0].geometry)
    for fam in bump_pair:
        g, eye = fam.geometry, np.eye(fam.geometry.N)
        lq = [g.laplacian_matrix(t) + np.diag(q) for t, q in zip(g.collar_ts, fam.q)]
        lam = fam.lams[g.M]
        for j in range(g.M - 1, -1, -1):
            h = g.ts[j + 1] - g.ts[j]
            A = half[j] / h
            S = A * np.linalg.inv(A * eye + node[j + 1] * (lam + 0.5 * h * lq[j + 1]))
            lam = 0.5 * h * lq[j] + (A / node[j]) * (eye - S)
            assert np.linalg.norm(lam - fam.lams[j]) <= 1e-12 * np.linalg.norm(fam.lams[j])


# -- interior extension -------------------------------------------------------


def test_interior_solution_matches_separated_form(annulus_geometry):
    # at node M the Dirichlet-cap term moves the solution by 4.9e-2 (k = 1)
    # and 6.3e-4 (k = 3), so a wrong cap fails the 1e-4 bound
    g = annulus_geometry
    fam = compute_dn_family(g)
    rho, r = 0.25, g.rs
    for k in (1, 3):
        f = np.cos(k * g.theta)
        sol = solve_interior(fam, f)
        assert sol.shape == (g.M + 1, g.N)
        assert np.array_equal(sol[0], f)
        radial = (r**k - rho ** (2 * k) * r ** (-k)) / (1.0 - rho ** (2 * k))
        for j in (g.M // 2, g.M):
            assert np.max(np.abs(sol[j] - radial[j] * f)) < 1e-4


def test_interior_solution_reuses_chain(annulus_families):
    # a family with a kept chain and one without give the same extension
    fam1, _ = annulus_families
    g = fam1.geometry
    assert fam1.chain is not None
    f = np.sin(2 * g.theta)
    a = solve_interior(fam1, f)
    b = solve_interior(compute_dn_family(g, fam1.potential), f)
    assert a.shape == (g.M + 1, g.N)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("profile", ["annulus", "disk"])
def test_maps_in_the_chain_buffer_equal_maps_beside_the_chain(profile):
    params = {"rho": 0.25} if profile == "annulus" else {}
    g = build_warped_geometry(make_profile(profile, **params), N=16, M=32, eps=0.3)
    shared = compute_dn_family(g, Q1_SPEC)
    kept = compute_dn_family(g, Q1_SPEC, keep_chain=True)
    assert shared.chain is None
    assert shared.lams.shape == kept.lams.shape == (g.M + 1, g.N, g.N)
    assert np.array_equal(shared.lams, kept.lams)
    # a kept chain is not overwritten: it still extends boundary data as a fresh one does
    assert not np.shares_memory(kept.lams, kept.chain)
    f = np.cos(g.theta) + 0.3 * np.sin(3 * g.theta)
    assert np.array_equal(solve_interior(kept, f), solve_interior(shared, f))


def test_neumann_value_consistent_with_map(annulus_families):
    fam1, _ = annulus_families
    g = fam1.geometry
    f = np.cos(g.theta)
    u = solve_interior(fam1, f)
    # the map is the half-cell flux of the discrete solution at the boundary node
    half, node = _weights(g)
    h = g.ts[1] - g.ts[0]
    flux = -(half[0] / node[0]) * (u[1] - u[0]) / h
    flux += 0.5 * h * (g.laplacian_matrix(0.0) @ f + fam1.q[0] * f)
    assert np.max(np.abs(flux - fam1.lams[0] @ f)) <= 1e-12 * np.max(np.abs(flux))


# -- interior resonance guard -------------------------------------------------


def _resonant_setup(N=16):
    T, eps, M = 0.8, 0.4, 32
    g = build_warped_geometry(make_profile("flat-cylinder", T=T), N=N, M=M, eps=eps)
    h = eps / M
    K = g.ts.size
    # most negative eigenvalue of the discrete Dirichlet problem on the grid:
    # placing Q exactly there makes the elimination pivot singular
    q_res = -(2.0 / h**2) * (1.0 - np.cos(np.pi / (K - 1)))
    return g, q_res


def test_resonance_raises_dense_and_mode():
    g, q_res = _resonant_setup()
    with pytest.raises(DNComputationError, match="Dirichlet eigenvalue collision"):
        compute_dn_family(g, q_res)
    with pytest.raises(DNComputationError, match="Dirichlet eigenvalue collision"):
        dn_mode_symbol(g, q_res, 0.0, range(g.M + 1))
    with pytest.raises(DNComputationError, match=r"mode ksq=0\.0\)"):
        dn_mode_symbol(g, q_res, np.array([4.0, 0.0, 1.0]), range(g.M + 1))


def test_resonance_raises_on_the_mode_run_and_the_dense_sweep(monkeypatch):
    # the constant is eliminated per mode down the whole grid; a 1e-12 cos
    # ripple on every row leaves no theta-constant run, so the dense sweep
    # meets the same collision; both report it as the dense block would
    from evosq import dnmap

    g, q_res = _resonant_setup()
    K = g.ts.size
    rippled = SampledPotential(g.theta, g.ts, q_res + 1e-12 * np.cos(g.theta)[:, None] * np.ones(K))
    tops = []
    eliminate = dnmap._eliminate
    monkeypatch.setattr(
        dnmap, "_eliminate", lambda *a, **kw: tops.append(kw.get("top")) or eliminate(*a, **kw)
    )
    for potential, top in ((q_res, 1), (rippled, K - 1)):
        tops.clear()
        with pytest.raises(
            DNComputationError, match=r"^Dirichlet eigenvalue collision near depth .*: propagation norm"
        ):
            compute_dn_family(g, potential)
        assert tops[0] == top


def test_singular_mode_pivot_names_its_mode():
    # a constant potential that makes the first pivot of the ksq = 4 block exactly zero
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.8), N=8, M=16, eps=0.3)
    ts = g.ts
    b = -2.0 / ((ts[-2] - ts[-3]) * (ts[-1] - ts[-2]))
    with pytest.raises(DNComputationError, match=r"mode ksq=4\.0\)"):
        dn_mode_symbol(g, b - 4.0, np.array([1.0, 4.0, 9.0]), range(g.M + 1))
    # in the dense chain's per-mode run the zero mode pivot is a singular block
    with pytest.raises(DNComputationError, match=r"near depth [\d.]+: propagation norm inf$"):
        compute_dn_family(g, b - 4.0)


def test_mode_resonance_names_the_first_mode_above_the_guard(monkeypatch):
    # two finite modes pass the guard on row 1, the later one nearer the collision and
    # larger: the message names the first of them, not the largest
    from evosq import dnmap

    g, q_res = _resonant_setup()
    ksq = np.array([3.0, 0.0, 1.5e-7])
    with pytest.raises(DNComputationError, match=r"\(mode ksq=0\.0\) near depth 0\.0125$"):
        dn_mode_symbol(g, q_res - 1e-7, ksq, range(g.M + 1))
    monkeypatch.setattr(dnmap, "_SINGULAR_FACTOR", np.inf)
    lap = ksq.reshape(-1, 1, 1)
    S, _ = _eliminate(g, lap, lambda j: q_res - 1e-7, _weights(g), np.zeros_like(lap))
    _, first, later = np.abs(S[1]).ravel()
    assert g.ts[1] == 0.0125 and np.abs(S[2:]).max() < 1e6 < first < later < np.inf


def test_past_the_first_dirichlet_eigenvalue_only_indefinite_pivots_take_gauss_jordan(monkeypatch):
    # beyond the k = 0 collision a few dense pivots are indefinite: their leaf
    # Cholesky fails and only those rows take Gauss-Jordan; the maps still match
    # the mode symbols (Gauss-Jordan on every row also matches them to about
    # 6e-11 only: the 1e-12 ripple, amplified near the collision, sets that)
    g, q_res = _resonant_setup(N=64)
    K = g.ts.size
    rippled = SampledPotential(g.theta, g.ts, 1.37 * q_res + 1e-12 * np.cos(g.theta)[:, None] * np.ones(K))
    lams, fallback_rows = _maps_with_gauss_jordan_spy(monkeypatch, g, rippled)
    assert 0 < fallback_rows < (K - 2) // 4
    ksq = g.wavenumbers() ** 2
    for j in range(0, g.M + 1, 4):
        mode = np.sort(dn_mode_symbol(g, 1.37 * q_res, ksq, depths=[j])[0])
        assert np.max(np.abs(np.linalg.eigvalsh(lams[j]) - mode)) <= 1e-9 * np.abs(mode).max()


def test_off_resonance_passes():
    g, q_res = _resonant_setup()
    fam = compute_dn_family(g, q_res * 1.37)
    assert np.all(np.isfinite(fam.lams))
    vals = dn_mode_symbol(g, q_res * 1.37, 0.0, range(g.M + 1))
    assert np.all(np.isfinite(vals))


# -- map equation cross-validation ---------------------------------------------


def test_riccati_integration_recovers_family(annulus_geometry):
    fam = compute_dn_family(annulus_geometry, 1.0)
    out = riccati_integrate(fam)
    err = np.linalg.norm(out[0] - fam.lams[0]) / np.linalg.norm(fam.lams[0])
    assert err < 1e-2


def test_riccati_residual_second_order():
    res = {}
    for M in (64, 128):
        g = build_warped_geometry(make_profile("annulus", rho=0.25), N=16, M=M, eps=0.3)
        res[M] = riccati_residual(compute_dn_family(g, 1.0))
    assert res[128] < 2e-3
    rate = np.log2(res[64] / res[128])
    assert rate > 1.8


@pytest.mark.parametrize("profile", ["annulus", "flat-cylinder"])
def test_riccati_residual_is_relative_to_the_cancelling_terms(profile):
    # the defect over |L^2| + |L_t + Q|, out of place; over |rhs| alone the flat
    # cylinder, where L^2 nearly balances L_t + Q, read 0.435 at this size
    g = build_warped_geometry(make_profile(profile), N=32, M=64, eps=0.3)
    fam = compute_dn_family(g, Q1_SPEC)
    ts, worst = g.collar_ts, 0.0
    for j in range(1, g.M):
        lam = fam.lams[j]
        static = g.laplacian_matrix(ts[j]) + np.diag(fam.q[j])
        rhs = lam @ lam - static - g.mu_dot(ts[j]) * lam
        dldt = (fam.lams[j + 1] - fam.lams[j - 1]) / (ts[j + 1] - ts[j - 1])
        scale = np.linalg.norm(lam @ lam) + np.linalg.norm(static)
        worst = max(worst, np.linalg.norm(dldt - rhs) / scale)
    assert riccati_residual(fam) == pytest.approx(worst, rel=1e-9)
    assert worst < 1e-3


def test_riccati_escape(annulus_geometry):
    fam = compute_dn_family(annulus_geometry)
    fam.lams[annulus_geometry.M] += 1e3 * np.eye(annulus_geometry.N)  # a bad deepest map
    with pytest.raises(RiccatiEscapeError) as exc:
        riccati_integrate(fam)
    assert 0.0 <= exc.value.depth < annulus_geometry.eps


# -- coercivity ----------------------------------------------------------------


def test_coercivity_probe_zero_potential(annulus_geometry):
    # a theta-independent potential makes the map circulant, diagonal with the
    # J multipliers in Fourier: C1 = min_k (lam_k + 1) / sqrt(1 + k^2 / r0^2) for every s
    g = annulus_geometry
    res = coercivity_probe(compute_dn_family(g))
    k = g.wavenumbers()
    exact = np.min((dn_mode_symbol(g, 0.0, k**2, depths=[0])[0] + 1.0) / np.sqrt(1.0 + k**2))
    for s in (-1.0, -0.5, 0.0):
        assert res[s]["coercive"] and res[s]["C2"] == 1.0
        assert abs(res[s]["C1"] - exact) <= 1e-11 * exact


def test_coercivity_probe_flags_a_negative_constant_potential(annulus_geometry):
    # the negative control of criterion 12: Q = -8 pulls the k = 0 symbol below -1, so the
    # same closed form is attained at k = 0, C1 = lam_0 + 1 < 0 at every s
    g = annulus_geometry
    res = coercivity_probe(compute_dn_family(g, -8.0))
    k = g.wavenumbers()
    lam = dn_mode_symbol(g, -8.0, k**2, depths=[0])[0]
    exact = np.min((lam + 1.0) / np.sqrt(1.0 + k**2))
    assert exact == lam[k == 0][0] + 1.0 and -1.61 < exact < -1.60
    for s in (-1.0, -0.5, 0.0):
        assert not res[s]["coercive"] and res[s]["C2"] == 1.0
        assert abs(res[s]["C1"] - exact) <= 1e-11 * abs(exact)


def test_coercivity_probe_is_attained_and_bounds_every_f(annulus_families):
    # C1 is the least ratio (<A f, f>_s + |f|_s^2) / |f|_{s+1/2}^2 over all f: the
    # extremal eigenvector attains it, and random f stay above it
    fam = annulus_families[0]
    g, lam0 = fam.geometry, fam.lams[0]
    multiplier = 1.0 + g.wavenumbers() ** 2
    res = coercivity_probe(fam)
    rng = np.random.default_rng(3)
    for s in (-1.0, -0.5, 0.0):
        J, J_half = fourier_matrix(multiplier**s), fourier_matrix(multiplier ** (s + 0.5))
        R = fourier_matrix(multiplier ** (-0.5 * (s + 0.5)))
        form = 0.5 * (J @ lam0 + (J @ lam0).T) + J

        def ratio(f):
            return (f @ form @ f) / (f @ J_half @ f)

        C = R @ form @ R
        _, vecs = np.linalg.eigh(0.5 * (C + C.T))
        c1 = res[s]["C1"]
        assert abs(ratio(R @ vecs[:, 0]) - c1) <= 1e-12 * c1
        for f in rng.standard_normal((50, g.N)):
            assert ratio(f) >= c1 * (1.0 - 1e-12)


# -- conformal consistency -------------------------------------------------------


def test_conductivity_mode_closed_form():
    # gamma = e^{2t}, ambient dim 3, flat cylinder: sigma = e^t and the k = 0
    # conductivity solution is a + b e^{-t}, giving lam_0 = 1/(1 - e^{-T})
    T = 0.9
    g = build_warped_geometry(make_profile("flat-cylinder", T=T), N=16, M=64, eps=0.3)
    lam0 = conductivity_mode_dn(g, lambda t: np.exp(2.0 * t), 3, 0.0)
    exact = 1.0 / (1.0 - np.exp(-T))
    assert abs(lam0 - exact) / exact < 1e-4


def test_conductivity_mode_rejects_a_non_finite_factor():
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.9), N=16, M=16, eps=0.3)
    for bad in (np.inf, np.nan, -1.0):
        with pytest.raises(GeometryError, match="positive and finite"):
            conductivity_mode_dn(g, lambda t: np.where(t > 0.5, bad, 1.0), 3, 1.0)


def test_mode_paths_take_an_array_of_modes():
    # the recursion is elementwise in the modes: the array form equals scalar calls
    g = build_warped_geometry(make_profile("disk"), N=16, M=32, eps=0.3)
    ksq = np.array([0.0, 1.0, 4.0, 5.0, 9.0])
    gamma = lambda t: np.exp(2.0 * t)
    sym = dn_mode_symbol(g, 1.5, ksq, range(g.M + 1))
    cond = conductivity_mode_dn(g, gamma, 3, ksq)
    assert sym.shape == (g.M + 1, ksq.size) and cond.shape == ksq.shape
    for i, k in enumerate(ksq):
        assert np.array_equal(sym[:, i], dn_mode_symbol(g, 1.5, k, range(g.M + 1)))
        assert cond[i] == conductivity_mode_dn(g, gamma, 3, k)


def test_mode_symbol_reads_the_listed_depths():
    # one row a listed node, the rows of the whole sweep
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.8), N=8, M=32, eps=0.3)
    depths = [0, g.M, np.int64(3)]
    for ksq in (4.0, np.array([1.0, 4.0])):
        rows = dn_mode_symbol(g, 1.5, ksq, depths=depths)
        assert rows.shape == (3,) + np.shape(ksq)
        assert np.array_equal(rows, dn_mode_symbol(g, 1.5, ksq, range(g.M + 1))[depths])


def test_conformal_identity_flat_cylinder():
    g = build_warped_geometry(make_profile("flat-cylinder", T=0.9), N=16, M=64, eps=0.3)
    res = conformal_identity_check(g, lambda t: np.exp(2.0 * t), 3, modes=range(0, 9))
    assert res["max_rel_error"] < 1e-3


def test_conformal_identity_disk_is_first_order_at_k0():
    # the k = 0 eigenvalue vanishes on the disk: its entry is an absolute error
    # over the floor sigma(0) / (2 r(0)), and the cap makes it first order in h
    res = {}
    for M in (64, 128):
        g = build_warped_geometry("disk", N=32, M=M, eps=0.3)
        res[M] = conformal_identity_check(g, lambda t: np.exp(t), 3, modes=range(0, 9))
    assert np.isfinite(res[64]["max_rel_error"]) and res[64]["max_rel_error"] < 1e-2
    assert 1.8 <= res[64]["per_mode"][(0,)] / res[128]["per_mode"][(0,)] <= 2.2


def test_conformal_identity_annulus(annulus_geometry):
    res = conformal_identity_check(
        annulus_geometry, lambda t: 1.0 + 0.5 * t * (0.75 - t), 4, modes=range(0, 5)
    )
    assert res["max_rel_error"] < 1e-3
