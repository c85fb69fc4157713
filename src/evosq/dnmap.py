"""Depth-indexed Dirichlet-to-Neumann families on a warped collar.

The interior problem at depth ``t`` below a collar slice is

    u_tt + mu'(t) u_t - L_t u - Q u = 0,   u|_slice = f,  cap condition at T,

and the slice map is ``f -> -u_t`` at the slice, a positive semi-definite
dense matrix on the boundary nodes. One backward elimination sweep over the
full depth grid produces the propagation chain ``u_j = S_j u_{j-1}``; every
collar-depth map is then read off the chain with one-sided derivative
stencils, so the whole family costs a single sweep that keeps only the
blocks 1..M+2 extraction reads. The sweep runs over pivot blocks: one dense
N x N block per node, or per mode, a batch of 1 x 1 blocks, one per Fourier
mode; both share the elimination and the extraction. The per-mode path
serves theta-independent potentials, and the dense chain runs it too over
its deep stretch, the nodes below the last row where the potential varies
in theta, where every block is circulant; it materializes the kept ones as
dense circulants and sweeps densely above.

Everything here is second order in the depth step. Maps are symmetrized
after extraction: the true map is symmetric in the slice inner product (a
scalar multiple of the Euclidean one on equispaced nodes), and the one-sided
stencil introduces a pure-noise antisymmetric O(h^2) defect.
"""

from functools import cached_property

import numpy as np

from .errors import DNComputationError, GeometryError, RiccatiEscapeError
from .geometry import fd_weights, fourier_matrix, sobolev_apply
from .potentials import make_potential
from .rng import SplitMix64

_ESCAPE_FACTOR = 50.0
_SINGULAR_FACTOR = 1e6


def _second_order_coeffs(h_minus, h_plus, mu):
    """3-point stencil weights of ``u'' + mu u'`` on spacings (h-, h+)."""
    s = h_minus + h_plus
    a = 2.0 / (h_minus * s)
    b = -2.0 / (h_minus * h_plus)
    c = 2.0 / (h_plus * s)
    al = -h_plus / (h_minus * s)
    be = (h_plus - h_minus) / (h_minus * h_plus)
    ga = h_minus / (h_plus * s)
    return a + mu * al, b + mu * be, c + mu * ga


def _eliminate(geometry, lap, q, mu, cap, top=1, bottom=None, circulant=False):
    """Backward elimination ``S_j = -(B_j + c_j S_{j+1})^-1 a_j`` over pivot blocks.

    ``lap`` is the unit-radius slice Laplacian as ``(..., n, n)`` blocks,
    ``q(j)`` the potential block at node ``j``, ``mu`` the first-order depth
    coefficient per node and ``cap`` the block at node ``bottom`` (default the
    last node). The sweep runs from node ``bottom - 1`` up to ``top``. It
    returns one ``(M + 3, ..., n, n)`` array holding the blocks of rows up to
    M + 2 (other rows unset; one array, so that a dropped chain goes back to
    the operating system whole) and the block at ``top``. A singular pivot
    or a block norm above ``_SINGULAR_FACTOR * sqrt(n)`` is a resonance. With
    ``circulant`` the batch of N 1 x 1 blocks is the spectrum of one circulant
    N x N block and is guarded as that block would be: a zero mode pivot is a
    singular pivot and the norm is the Frobenius one, the root of the summed
    squared symbols, against ``_SINGULAR_FACTOR * sqrt(N)``.
    """
    ts, kept = geometry.ts, geometry.M + 2
    bottom = ts.size - 1 if bottom is None else bottom
    eye = np.eye(lap.shape[-1])
    guard = _SINGULAR_FACTOR * np.sqrt(lap.shape[0] if circulant else lap.shape[-1])
    S = np.empty((kept + 1,) + cap.shape)
    block = cap
    if bottom <= kept:
        S[bottom] = cap
    for j in range(bottom - 1, top - 1, -1):
        ap, bp, cp = _second_order_coeffs(ts[j] - ts[j - 1], ts[j + 1] - ts[j], mu[j])
        P = bp * eye - lap / geometry.rs[j] ** 2 - q(j) + cp * block
        try:
            block = np.linalg.solve(P, -ap * eye)
            sq = np.einsum("...ij,...ij->...", block, block)
        except np.linalg.LinAlgError:
            sq = np.where(np.linalg.det(P) == 0.0, np.inf, 0.0)
        norm = np.sqrt(np.sum(sq) if circulant else sq)
        bad = norm > guard
        if np.any(bad):
            mode = f" (mode ksq={float(lap[bad][0, 0, 0])})" if norm.ndim else ""
            why = "" if mode else f": propagation norm {norm:.3g}"
            raise DNComputationError(
                f"Dirichlet eigenvalue collision{mode} near depth {ts[j]:.6g}{why}"
            )
        if j <= kept:
            S[j] = block
    return S, block


def propagation_chain(geometry, potential):
    """Backward elimination over the full grid, kept on the collar.

    Returns an ``(M + 3, N, N)`` array ``S`` with ``S[j]`` mapping the slice
    value at node ``j - 1`` to node ``j`` for ``j = 1..M+2`` (row 0 is
    unset). Below the last row where the potential varies in theta, and with
    the cap, every block is circulant: that deep run is eliminated per
    Fourier mode, its kept rows are materialized with :func:`fourier_matrix`,
    and the dense sweep continues from its top to node 1. Raises
    :class:`DNComputationError` when an interior resonance makes a pivot
    singular (a Dirichlet eigenvalue collision of the capped region).
    """
    if geometry.dim != 1:
        raise GeometryError("dense propagation is circle-only; use dn_mode_symbol")
    ts, k = geometry.ts, geometry.wavenumbers()
    ratio = geometry.rs[-1] / geometry.rs[-2]  # per-mode decay ratio^|k| across the capped cell
    cap = ratio ** np.abs(k) if geometry.cap == "center" else np.zeros_like(k)
    Q = potential.on_grid(geometry.theta, ts)
    mu = geometry.mu_dot(ts)
    rippled = np.flatnonzero(np.any(Q[:-1] != Q[:-1, :1], axis=1))
    top = int(rippled[-1]) + 1 if rippled.size else 1  # highest node of the theta-constant run
    symbols, top_symbol = _eliminate(
        geometry, (k**2)[:, None, None], lambda j: Q[j, 0], mu, cap[:, None, None], top=top,
        circulant=True,
    )
    S, _ = _eliminate(
        geometry, geometry.d2_unit(), lambda j: np.diag(Q[j]), mu,
        fourier_matrix(top_symbol[:, 0, 0]), bottom=top,
    )
    for j in range(top + 1, geometry.M + 3):
        S[j] = fourier_matrix(symbols[j, :, 0, 0])
    return S


def _extract_dn(geometry, S, j):
    ts = geometry.ts
    w = fd_weights(ts[j : j + 3], ts[j], 1)
    lam = -(w[0] * np.eye(S[j + 1].shape[-1]) + w[1] * S[j + 1] + w[2] * (S[j + 2] @ S[j + 1]))
    return 0.5 * (lam + np.swapaxes(lam, -1, -2))


class DNFamily:
    """Collar family of slice maps, one per collar node.

    ``chain`` is the collar :func:`propagation_chain` the maps were read from
    when computed with ``keep_chain=True``, else None. ``q`` is the potential
    sampled on the collar nodes, row ``j`` at depth ``t_j``.
    """

    def __init__(self, geometry, potential, lams, chain=None):
        self.geometry = geometry
        self.potential = potential
        self.lams = lams
        self.chain = chain

    @cached_property
    def q(self):
        return self.potential.on_grid(self.geometry.theta, self.geometry.collar_ts)


def compute_dn_family(geometry, potential=None, keep_chain=False):
    """Slice maps at every collar node from one elimination sweep."""
    potential = make_potential(potential)
    S = propagation_chain(geometry, potential)
    lams = np.empty((geometry.M + 1, geometry.N, geometry.N))
    for j in range(geometry.M + 1):
        lams[j] = _extract_dn(geometry, S, j)
    return DNFamily(geometry, potential, lams, chain=S if keep_chain else None)


def solve_interior(family, f):
    """Extend boundary data ``f`` over the collar below ``family``'s boundary.

    Forward substitution through the family's kept propagation chain, or
    through one fresh :func:`propagation_chain` when it kept none. Returns the
    ``(M + 1, N)`` collar trace of the solution that satisfies the interior
    equation at every grid node and the cap condition.
    """
    g = family.geometry
    chain = propagation_chain(g, family.potential) if family.chain is None else family.chain
    u = np.empty((g.M + 1, g.N))
    u[0] = np.asarray(f, dtype=float)
    for j in range(1, g.M + 1):
        u[j] = chain[j] @ u[j - 1]
    return u


# ---------------------------------------------------------------------------
# per-mode path (circle symbols; the only dense-free route on the torus)
# ---------------------------------------------------------------------------


def _mode_q_values(geometry, potential):
    Q = potential.on_grid(geometry.theta, geometry.ts)
    if np.any(np.ptp(Q, axis=1) > 1e-11 * (1.0 + np.abs(Q).max(axis=1))):
        raise GeometryError(
            "per-mode path needs theta-independent potentials "
            "(non-separable potential on this boundary)"
        )
    return Q.mean(axis=1)


def _mode_maps(geometry, ksq, q_values, mu, depths):
    """Mode eigenvalues at node indices ``depths``, eliminated as 1 x 1 pivot blocks."""
    lap = np.asarray(ksq, dtype=float).reshape(-1, 1, 1)
    ratio = geometry.rs[-1] / geometry.rs[-2]
    cap = ratio ** np.sqrt(lap) if geometry.cap == "center" else np.zeros_like(lap)
    S, _ = _eliminate(geometry, lap, q_values.__getitem__, mu, cap)
    return np.array([_extract_dn(geometry, S, j)[:, 0, 0].reshape(np.shape(ksq)) for j in depths])


def dn_mode_symbol(geometry, potential, ksq, depths=None):
    """Map eigenvalue of one Fourier mode at collar nodes.

    ``ksq`` is the squared wavenumber (sum over torus axes), or an array of
    them. The potential must be independent of the boundary variables.
    Returns the eigenvalue at every collar node, or at the requested node
    indices; an array ``ksq`` adds a trailing mode axis.
    """
    potential = make_potential(potential)
    q = _mode_q_values(geometry, potential)
    idx = range(geometry.M + 1) if depths is None else np.atleast_1d(depths)
    out = _mode_maps(geometry, ksq, q, geometry.mu_dot(geometry.ts), idx)
    if depths is None or np.ndim(depths):
        return out
    return out[0] if np.ndim(ksq) else float(out[0])


# ---------------------------------------------------------------------------
# Riccati cross-validation
# ---------------------------------------------------------------------------


def riccati_rhs(geometry, q, lam, t):
    """Depth derivative of the slice map: ``L' = L^2 - L_t - Q - mu' L``, ``Q = diag(q)`` at ``t``."""
    Lt = geometry.laplacian_matrix(t)
    return lam @ lam - Lt - np.diag(q) - float(geometry.mu_dot(t)) * lam


def riccati_integrate(geometry, potential, lam_eps):
    """Integrate the map equation backward from the collar depth to 0.

    Heun steps on the collar grid. Values whose norm passes the escape
    threshold abort with :class:`RiccatiEscapeError` (the equation blows up
    through interior Dirichlet eigenvalues; step size cannot fix that).
    """
    ts = geometry.collar_ts
    q = make_potential(potential).on_grid(geometry.theta, ts)
    escape = _ESCAPE_FACTOR * geometry.N
    lam = np.array(lam_eps, dtype=float)
    out = np.empty((geometry.M + 1, geometry.N, geometry.N))
    out[geometry.M] = lam
    for j in range(geometry.M, 0, -1):
        h = ts[j] - ts[j - 1]
        k1 = riccati_rhs(geometry, q[j], lam, ts[j])
        pred = lam - h * k1
        k2 = riccati_rhs(geometry, q[j - 1], pred, ts[j - 1])
        lam = lam - 0.5 * h * (k1 + k2)
        if np.linalg.norm(lam) > escape:
            raise RiccatiEscapeError(
                f"map norm {np.linalg.norm(lam):.3g} escaped at depth {ts[j - 1]:.6g}",
                depth=float(ts[j - 1]),
            )
        out[j - 1] = lam
    return out


def riccati_residual(family):
    """Max relative defect of the family in the map equation.

    Centered differences in depth at interior collar nodes against the
    quadratic right-hand side; second order in the collar step.
    """
    g = family.geometry
    ts = g.collar_ts
    worst = 0.0
    for j in range(1, g.M):
        dldt = (family.lams[j + 1] - family.lams[j - 1]) / (ts[j + 1] - ts[j - 1])
        rhs = riccati_rhs(g, family.q[j], family.lams[j], ts[j])
        denom = max(np.linalg.norm(rhs), 1e-30)
        worst = max(worst, np.linalg.norm(dldt - rhs) / denom)
    return worst


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------


def coercivity_probe(family):
    """Fit lower bounds ``<Af, f>_s >= C1 |f|_{s+1/2}^2 - C2 |f|_s^2`` for s = -1, -1/2, 0.

    Probes are 24 seeded random boundary vectors plus pure modes. The fit is
    least squares followed by clipping ``C2 >= 0`` and tightening ``C1`` to
    the worst probe, so the reported pair is an actual lower bound over the
    probe set. Failure flag: ``C1 <= 0`` for any ``s``.
    """
    g = family.geometry
    lam0 = family.lams[0]
    w0 = g.node_weight(0.0)
    rng = SplitMix64(7)
    probes = [np.asarray(rng.normals(g.N)) for _ in range(24)]
    for k in (0, 1, 2, g.N // 4, g.N // 2 - 1):
        v = np.cos(k * g.theta) + (np.sin(k * g.theta) if k else 0.0)
        probes.append(v / np.linalg.norm(v))

    results = {}
    for s in (-1.0, -0.5, 0.0):
        a = np.empty(len(probes))
        b = np.empty(len(probes))
        cc = np.empty(len(probes))
        for i, f in enumerate(probes):
            a[i] = w0 * np.dot(sobolev_apply(g, s, lam0 @ f), f)
            b[i] = w0 * np.dot(sobolev_apply(g, s + 0.5, f), f)
            cc[i] = w0 * np.dot(sobolev_apply(g, s, f), f)
        A = np.column_stack([b, -cc])
        coef, *_ = np.linalg.lstsq(A, a, rcond=None)
        c2 = max(float(coef[1]), 0.0)
        c1 = float(np.min((a + c2 * cc) / b))
        results[s] = {"C1": c1, "C2": c2, "coercive": c1 > 0.0}
    return results


# ---------------------------------------------------------------------------
# conformal consistency
# ---------------------------------------------------------------------------


def conductivity_mode_dn(geometry, gamma, n_ambient, ksq):
    """Mode eigenvalue of the conductivity-form slice map ``-sigma(0) u'(0)``.

    Solves ``u'' + (mu' + sigma'/sigma) u' - ksq/r^2 u = 0`` with the cap
    condition, where ``sigma = gamma^(n/2 - 1)``. An array ``ksq`` gives an
    array of eigenvalues.
    """
    from .geometry import derivative_matrix

    ts = geometry.ts
    g = np.asarray(gamma(ts), dtype=float)
    if not np.all((g > 0.0) & (g < np.inf)):  # NaN fails both
        raise GeometryError("conformal factor must be positive and finite")
    sigma = g ** (0.5 * n_ambient - 1.0)
    dsigma = derivative_matrix(ts, 1) @ sigma
    mu_eff = np.asarray(geometry.mu_dot(ts), dtype=float) + dsigma / sigma
    return float(sigma[0]) * _mode_maps(geometry, ksq, np.zeros(ts.size), mu_eff, [0])[0]


def conformal_identity_check(geometry, gamma, n_ambient, modes):
    """Compare the conductivity map against the potential-form reduction.

    For each mode: conductivity eigenvalue vs
    ``sigma(0) * lam_Q + sigma(0)^(1/2) * d_t sigma^(1/2)(0)`` where ``Q`` is
    the reduced potential. Returns per-mode relative errors and their max.
    The denominator is floored at ``sigma(0) / (2 r(0))``, below every
    nonvanishing eigenvalue; on the disk the k = 0 eigenvalue vanishes and
    its entry is the absolute error over that floor: second order in the
    depth step for a factor smooth at the disk centre, first order for
    ``gamma = e^t`` (``e^(1 - |x|)``), whose conical point there gives a
    reduced potential like ``-1 / (4 |x|)``.
    """
    from .geometry import conformal_potential

    pot, correction = conformal_potential(geometry, gamma, n_ambient)
    sigma0 = float(np.asarray(gamma(np.array([0.0])), dtype=float).ravel()[0]) ** (
        0.5 * n_ambient - 1.0
    )
    corr0 = float(np.mean(correction))
    ksq = np.array([float(np.dot(k, k)) if np.ndim(k) else float(k) ** 2 for k in modes])
    lam_q = dn_mode_symbol(geometry, pot, ksq, depths=[0])[0]
    lam_gamma = conductivity_mode_dn(geometry, gamma, n_ambient, ksq)
    predicted = sigma0 * lam_q - np.sqrt(sigma0) * corr0
    floor = sigma0 / (2.0 * float(geometry.rs[0]))
    rel = np.abs(lam_gamma - predicted) / np.maximum(np.abs(lam_gamma), floor)
    errors = {tuple(np.atleast_1d(k)): float(e) for k, e in zip(modes, rel)}
    return {"per_mode": errors, "max_rel_error": max(errors.values())}
