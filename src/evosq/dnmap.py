"""Depth-indexed Dirichlet-to-Neumann families on a warped collar.

The interior problem below a collar slice, in divergence form with ``w = r^dim``, is

    (w u_t)_t - w (L_t + Q) u = 0,   u|_slice = f,  cap condition at T,

and the slice map is ``f -> -u_t`` at the slice, a positive semi-definite
dense matrix on the boundary nodes. The depth rows are conservative (weights
``w_{j+1/2}`` on the cells), so the problem below any node is a symmetric
block tridiagonal system. One backward elimination sweep over the full depth
grid gives the propagation chain ``u_j = S_j u_{j-1}``, kept on rows 1..M+1,
and the map at node ``j`` is its Schur complement, the half-cell flux

    Lam_j = (w_{j+1/2} / w_j) (I - S_{j+1}) / h_j + (h_j / 2) (L_j + Q_j),

symmetric to round-off and exact in the discrete Green identities (layer
stripping, the one-cell Moebius step). The sweep runs over pivot blocks: one
dense N x N block per node, or per mode, a batch of 1 x 1 blocks, one per
Fourier mode; both share the elimination, the extraction and the cap. The
per-mode path serves theta-independent potentials, and the dense chain runs
it too over its deep stretch, the nodes below the last row where the
potential varies in theta, where every block is circulant; it materializes
the kept ones as dense circulants and sweeps densely above. One exact rule
decides both: a row is theta-constant when every node equals node 0 bit for
bit, and node 0 gives its value. A dense pivot is
symmetric, and positive definite in the coercive case: it is inverted by
Schur halving down to leaves of at most 32 rows, each inverted by one
Cholesky factorization of the bordered leaf ``[[A, I], [I, 2^512 I]]``,
whose lower-left factor block ``X = L^-T`` gives ``A^-1 = X X^T``; so the
sweep runs on matrix products, and a pivot that is one leaf comes out
exactly symmetric. Only a pivot whose leaf Cholesky fails, an indefinite
one beyond the first Dirichlet eigenvalue, is inverted by Gauss-Jordan
elimination in numpy row operations; a 1 x 1 mode block is a division.
The sweep assembles each pivot, and the extraction each map, in place in
buffers it owns.
"""

import numpy as np

from .errors import DNComputationError, GeometryError, RiccatiEscapeError
from .geometry import conformal_potential, fourier_matrix
from .potentials import make_potential

_ESCAPE_FACTOR = 50.0
_SINGULAR_FACTOR = 1e6
_LEAF = 32  # largest pivot block _spd_inverse inverts directly
_BORDER = 2.0**512  # border of a leaf's Cholesky factorization; its root 2^256 is exact


def _weights(geometry, sigma=None):
    """Half-node weights ``w_{j+1/2}`` and node weights ``w_j`` of the depth rows.

    ``rho = r^dim`` at cell midpoints and nodes; with a conductivity ``sigma``
    per node, ``rho_{j+1/2} s_j s_{j+1}`` and ``rho_j sigma_j``, ``s = sigma^(1/2)``.
    """
    ts = geometry.ts
    sigma = np.ones(ts.size) if sigma is None else sigma
    s = np.sqrt(sigma)
    half = geometry.profile.r(0.5 * (ts[:-1] + ts[1:])) ** geometry.dim
    return half * s[:-1] * s[1:], geometry.rs**geometry.dim * sigma


def _diagonal(blocks):
    """Writable view of the diagonals of ``(..., n, n)`` blocks."""
    return np.einsum("...ii->...i", blocks)


def _spd_inverse(A, out, borders):
    """Write the inverse of a symmetric positive definite ``A`` into ``out``.

    ``A = [[A11, B], [B^T, D]]`` is inverted through ``A11^-1`` and the
    inverse of its Schur complement ``D - B^T A11^-1 B``, halving down to
    leaves of at most ``_LEAF`` rows, and above the leaves the work is
    matrix products. A leaf ``A`` is copied into the bordered matrix
    ``[[A, I], [I, _BORDER I]]`` (one per leaf size in the dict ``borders``,
    built on first use and kept by the caller), whose Cholesky factor is
    ``[[L, 0], [L^-T, M]]`` with ``M M^T = _BORDER I - A^-1``: so one
    factorization certifies the leaf and gives ``A^-1 = L^-T L^-1`` as one
    product, which is exactly symmetric. Only lower triangles are read. A
    leaf that is not positive definite, or whose smallest eigenvalue is
    below ``1 / _BORDER``, raises ``LinAlgError``. Without pivoting this is
    backward stable for positive definite ``A`` (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10 and 13).
    """
    n = A.shape[0]
    if n <= _LEAF:
        bordered = borders.get(n)
        if bordered is None:
            bordered = borders[n] = np.zeros((2 * n, 2 * n))
            bordered[n:, :n] = np.eye(n)
            bordered[n:, n:] = _BORDER * np.eye(n)
        bordered[:n, :n] = A
        X = np.linalg.cholesky(bordered)[n:, :n]
        return np.matmul(X, X.T, out=out)
    k = n // 2
    B = A[:k, k:]
    inv_a = _spd_inverse(A[:k, :k], out[:k, :k], borders)
    X = inv_a @ B
    Y = X @ _spd_inverse(A[k:, k:] - B.T @ X, out[k:, k:], borders)
    inv_a += Y @ X.T
    np.negative(Y, out=out[:k, k:])
    out[k:, :k] = out[:k, k:].T
    return out


def _gauss_jordan(A, out):
    """Write the inverse of ``A`` into ``out`` by Gauss-Jordan elimination with partial pivoting.

    Every step is a numpy row operation, with no BLAS or LAPACK call, so no
    thread count changes a bit of it. An exact zero pivot raises ``LinAlgError``.
    """
    n = len(A)
    work = np.concatenate((A, np.eye(n)), axis=1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        if work[p, k] == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        work[[k, p]] = work[[p, k]]
        work[k] /= work[k, k]
        column = work[:, k].copy()
        column[k] = 0.0
        work -= np.multiply.outer(column, work[k])
    out[...] = work[:, n:]
    return out


def _dense_inverse(neg, ap, out, borders):
    """``ap neg^-1`` written into ``out``, for the negated dense pivot ``neg = -P`` of a sweep row.

    :func:`_spd_inverse` inverts it (or a trace step's ``I + (h/2) Lam``); a
    matrix that is not positive definite (a pivot beyond the first Dirichlet
    eigenvalue) takes :func:`_gauss_jordan`, which raises ``LinAlgError`` if singular.
    """
    try:
        _spd_inverse(neg, out, borders)
    except np.linalg.LinAlgError:
        _gauss_jordan(neg, out)
    out *= ap
    return out


def lambda_min(A):
    """Smallest eigenvalue of a symmetric ``A``, bracketed by inertia to ``n eps max|A|``.

    ``A - sigma I`` is positive definite exactly when :func:`_spd_inverse`
    succeeds on it (Sylvester's law of inertia, and Haynsworth's inertia
    additivity over its Schur halvings). Bisection from the Gershgorin interval
    stops at Cholesky's backward error ``n eps max|A|`` (Higham, ch. 10) and
    returns the largest ``sigma`` that passed, or the interval's lower end; no
    thread count changes it. A non-finite ``A`` raises :class:`DNComputationError`.
    """
    A = np.asarray(A, dtype=float)
    scale = np.max(np.abs(A))
    if not np.isfinite(scale):
        raise DNComputationError("lambda_min of a non-finite matrix")
    center = np.diagonal(A)
    radius = np.sum(np.abs(A), axis=1) - np.abs(center)
    lo, hi = float(np.min(center - radius)), float(np.max(center + radius))
    shifted, out, borders = np.empty_like(A), np.empty_like(A), {}
    while hi - lo > len(A) * np.finfo(float).eps * scale:
        sigma = 0.5 * (lo + hi)
        np.copyto(shifted, A)
        _diagonal(shifted)[...] -= sigma
        try:
            _spd_inverse(shifted, out, borders)
            lo = sigma
        except np.linalg.LinAlgError:
            hi = sigma
    return lo


def _dot(X, Y):
    """Frobenius inner product by numpy's own loop, not a BLAS dot: no thread count changes it."""
    return float(np.einsum("ij,ij->", X, Y))


def _norm(X):
    """Frobenius norm through :func:`_dot`."""
    return np.sqrt(_dot(X, X))


def _eliminate(geometry, lap, q, w, cap, top=1, bottom=None, circulant=False):
    """Backward elimination ``S_j = -(B_j + c_j S_{j+1})^-1 a_j`` over pivot blocks.

    ``lap`` is the unit-radius slice Laplacian as ``(..., n, n)`` blocks,
    ``q(j)`` the potential at node ``j``, added on the block diagonals (the
    ``n`` node values for a dense block, one value for a batch of modes),
    ``w`` the :func:`_weights` pair and ``cap`` the block at node ``bottom``
    (default the last node).
    Row ``j`` is ``w_{j+1/2} (u_{j+1} - u_j) / h+ - w_{j-1/2} (u_j - u_{j-1}) / h-
    - hbar w_j (L_j + Q_j) u_j = 0`` divided by ``hbar w_j``, ``hbar = (h- + h+) / 2``.
    Every row's ``a_j``, ``c_j`` come from one pass over the grid's vectors, as Python
    floats; ``r_j^2`` is squared per node, as an array square may differ in the last bit.
    The sweep runs from node ``bottom - 1`` up to ``top``. It returns one
    ``(M + 2, ..., n, n)`` array holding the blocks of rows up to M + 1 (other rows unset;
    one array, so that a dropped chain goes back to the operating system whole) and the
    block at ``top``. A dense negated pivot ``-P_j = (a_j + c_j) I + L_j + Q_j - c_j S_{j+1}``
    is assembled in place; it is symmetric, and positive definite in the coercive case, so
    :func:`_dense_inverse` inverts it by Cholesky-certified Schur halving and writes each
    kept block straight into its row, and each block below the collar into one of two spare
    blocks, taken in turn. Only a dense pivot whose leaf Cholesky fails takes Gauss-Jordan; a
    batch of 1 x 1 mode blocks is a division, where a zero pivot gives an infinite block. A
    singular pivot or a block norm above ``_SINGULAR_FACTOR * sqrt(n)`` is a resonance. A
    batch of modes is guarded by its largest norm, the root of its largest squared symbol,
    and a resonance names the first mode above the guard. With ``circulant`` the batch of N
    1 x 1 blocks is the spectrum of one circulant N x N block and is guarded as that block
    would be: a zero mode pivot is a singular pivot and the norm is the Frobenius one, the
    root of the summed squared symbols, against ``_SINGULAR_FACTOR * sqrt(N)``.
    """
    ts, rs, kept = geometry.ts, geometry.rs, geometry.M + 1
    (half, node), dt = w, np.diff(ts)
    bottom = ts.size - 1 if bottom is None else bottom
    guard = _SINGULAR_FACTOR * np.sqrt(lap.shape[0] if circulant else lap.shape[-1])
    scale = 0.5 * (dt[:-1] + dt[1:]) * node[1:-1]  # row j at index j - 1
    aps, cps = (half[:-1] / (dt[:-1] * scale)).tolist(), (half[1:] / (dt[1:] * scale)).tolist()
    S = np.empty((kept + 1,) + cap.shape)
    block = cap
    if bottom <= kept:
        S[bottom] = cap

    def resonance(t, norm, mode=""):
        why = "" if mode else f": propagation norm {norm:.3g}"
        return DNComputationError(f"Dirichlet eigenvalue collision{mode} near depth {t:.6g}{why}")

    rows = range(bottom - 1, top - 1, -1)
    if lap.ndim == 2:
        # the pivot and two spare blocks for the rows below the collar, taken in
        # turn: a row is never S_{j+1}, so it holds c_j S_{j+1} until it is inverted into
        neg, *spare = np.empty((3,) + cap.shape)
        pivot_diagonal, borders = _diagonal(neg), {}
        for j in rows:
            ap, cp = aps[j - 1], cps[j - 1]
            out = S[j] if j <= kept else spare[j % 2]
            np.divide(lap, rs[j] ** 2, out=neg)
            pivot_diagonal += ap + cp
            pivot_diagonal += q(j)
            neg -= np.multiply(cp, block, out=out)
            try:
                block = _dense_inverse(neg, ap, out, borders)
                norm = np.sqrt(np.einsum("...ij,...ij->...", block, block))
            except np.linalg.LinAlgError:
                norm = np.inf
            if norm > guard:
                raise resonance(ts[j], norm)
        return S, block
    with np.errstate(divide="ignore"):
        for j in rows:
            ap, cp = aps[j - 1], cps[j - 1]
            block = ap / ((ap + cp) + lap / rs[j] ** 2 + q(j) - cp * block)
            if j <= kept:
                S[j] = block
            sq = block * block
            norm = np.sqrt(np.sum(sq) if circulant else sq.max())
            if norm > guard:
                mode = lap.flat[np.argmax(np.sqrt(sq) > guard)]  # the first mode above the guard
                raise resonance(ts[j], norm, "" if circulant else f" (mode ksq={float(mode)})")
    return S, block


def _extract_dn(geometry, S, lap, q, w, j, out, work):
    """Map at node ``j``, the half-cell flux of the chain's row ``j + 1``, written into ``out``.

    ``out`` may be row ``j`` of ``S`` itself, which the flux does not read;
    ``work`` is one more block. ``q`` is as in :func:`_eliminate`.
    """
    h = geometry.ts[j + 1] - geometry.ts[j]
    np.negative(S[j + 1], out=out)
    _diagonal(out)[...] += 1.0
    out *= w[0][j] / w[1][j] / h
    np.divide(lap, geometry.rs[j] ** 2, out=work)
    _diagonal(work)[...] += q(j)
    work *= 0.5 * h
    out += work
    return out


def _cap_symbol(geometry, ksq):
    """Cap block of each mode: the decay ``ratio^|k|`` across a capped cell, or 0 at a Dirichlet cap."""
    ratio = geometry.rs[-1] / geometry.rs[-2]
    return ratio ** np.sqrt(ksq) if geometry.cap == "center" else np.zeros_like(ksq)


def propagation_chain(geometry, potential):
    """Backward elimination over the full grid, kept on the collar.

    Returns an ``(M + 2, N, N)`` array ``S`` with ``S[j]`` mapping the slice
    value at node ``j - 1`` to node ``j`` for ``j = 1..M+1`` (row 0 is
    unset). Below the last row where the potential varies in theta, and with
    the cap, every block is circulant: that deep run is eliminated per
    Fourier mode, its kept rows are materialized with :func:`fourier_matrix`,
    and the dense sweep continues from its top to node 1. Raises
    :class:`DNComputationError` when an interior resonance makes a pivot
    singular (a Dirichlet eigenvalue collision of the capped region).
    """
    if geometry.dim != 1:
        raise GeometryError("dense propagation is circle-only; use dn_mode_symbol")
    lap, w = (geometry.wavenumbers() ** 2)[:, None, None], _weights(geometry)
    Q = potential.on_grid(geometry.theta, geometry.ts)
    rippled = np.flatnonzero(np.any(Q[:-1] != Q[:-1, :1], axis=1))
    top = int(rippled[-1]) + 1 if rippled.size else 1  # highest node of the theta-constant run
    symbols, top_symbol = _eliminate(
        geometry, lap, lambda j: Q[j, 0], w, _cap_symbol(geometry, lap), top=top, circulant=True
    )
    S, _ = _eliminate(
        geometry, geometry.d2_unit(), Q.__getitem__, w,
        fourier_matrix(top_symbol[:, 0, 0]), bottom=top,
    )
    for j in range(top + 1, geometry.M + 2):
        S[j] = fourier_matrix(symbols[j, :, 0, 0])
    return S


class DNFamily:
    """Collar family of slice maps ``lams``, one per collar node.

    ``q`` is the potential on the collar nodes, row ``j`` at depth ``t_j``;
    ``chain`` the kept :func:`propagation_chain` (``keep_chain=True``) or None.
    Without a kept chain ``lams`` may be a view of the dropped chain's buffer.
    """

    def __init__(self, geometry, potential, lams, q, chain=None):
        self.geometry = geometry
        self.potential = potential
        self.lams = lams
        self.q = q
        self.chain = chain


def compute_dn_family(geometry, potential=None, keep_chain=False):
    """Slice maps at every collar node from one elimination sweep.

    Without ``keep_chain`` the maps are written over the chain: map ``j``
    reads only row ``j + 1``, so row ``j`` is free once it is made, and
    ``lams`` is the view ``S[:M+1]``.
    """
    potential = make_potential(potential)
    S = propagation_chain(geometry, potential)
    q = potential.on_grid(geometry.theta, geometry.collar_ts)
    lap, w = geometry.d2_unit(), _weights(geometry)
    lams = np.empty((geometry.M + 1, geometry.N, geometry.N)) if keep_chain else S[: geometry.M + 1]
    work = np.empty((geometry.N, geometry.N))
    for j in range(geometry.M + 1):
        _extract_dn(geometry, S, lap, q.__getitem__, w, j, lams[j], work)
    return DNFamily(geometry, potential, lams, q, chain=S if keep_chain else None)


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
    """Node 0's value on each depth row, by :func:`propagation_chain`'s exact rule.

    A row the sweep reads (all but the last node's) must hold one value:
    a node that differs from node 0 in any bit is refused.
    """
    Q = potential.on_grid(geometry.theta, geometry.ts)
    if np.any(Q[:-1] != Q[:-1, :1]):
        raise GeometryError(
            "per-mode path needs theta-independent potentials "
            "(non-separable potential on this boundary)"
        )
    return Q[:, 0]


def _mode_maps(geometry, ksq, q, w, depths):
    """Mode eigenvalues at node indices ``depths``, eliminated as 1 x 1 pivot blocks."""
    lap = np.asarray(ksq, dtype=float).reshape(-1, 1, 1)
    cap = _cap_symbol(geometry, lap)
    S, _ = _eliminate(geometry, lap, q, w, cap)
    lams, work = np.empty((len(depths),) + cap.shape), np.empty_like(cap)
    for i, j in enumerate(depths):
        _extract_dn(geometry, S, lap, q, w, j, lams[i], work)
    return lams.reshape((len(depths),) + np.shape(ksq))


def dn_mode_symbol(geometry, potential, ksq, depths):
    """Map eigenvalue of one Fourier mode at the collar node indices ``depths``.

    ``ksq`` is the squared wavenumber (sum over torus axes), or an array of
    them. The potential must be theta-constant by the chain's exact rule on
    every row the sweep reads (:func:`_mode_q_values`).
    Returns one row per listed node; an array ``ksq`` adds a trailing mode axis.
    """
    q = _mode_q_values(geometry, make_potential(potential)).__getitem__
    return _mode_maps(geometry, ksq, q, _weights(geometry), depths)


# ---------------------------------------------------------------------------
# Riccati cross-validation
# ---------------------------------------------------------------------------


def riccati_rhs(geometry, q, lam, t):
    """Depth derivative of the slice map: ``L' = L^2 - L_t - Q - mu' L``, ``Q = diag(q)`` at ``t``."""
    return lam @ lam - geometry.laplacian_matrix(t) - np.diag(q) - float(geometry.mu_dot(t)) * lam


def riccati_integrate(family):
    """Integrate the map equation backward from ``family``'s deepest map to depth 0.

    Heun steps on the collar grid, with the family's potential ``family.q``.
    Values whose norm passes the escape threshold abort with
    :class:`RiccatiEscapeError` (the equation blows up through interior
    Dirichlet eigenvalues; step size cannot fix that).
    """
    geometry, q = family.geometry, family.q
    ts = geometry.collar_ts
    escape = _ESCAPE_FACTOR * geometry.N
    lam = family.lams[geometry.M]
    out = np.empty((geometry.M + 1, geometry.N, geometry.N))
    out[geometry.M] = lam
    for j in range(geometry.M, 0, -1):
        h = ts[j] - ts[j - 1]
        k1 = riccati_rhs(geometry, q[j], lam, ts[j])
        pred = lam - h * k1
        k2 = riccati_rhs(geometry, q[j - 1], pred, ts[j - 1])
        lam = lam - 0.5 * h * (k1 + k2)
        norm = _norm(lam)
        if norm > escape:
            raise RiccatiEscapeError(
                f"map norm {norm:.3g} escaped at depth {ts[j - 1]:.6g}",
                depth=float(ts[j - 1]),
            )
        out[j - 1] = lam
    return out


def riccati_residual(family):
    """Max relative defect of the family in the map equation.

    Centered differences in depth at interior collar nodes against the
    quadratic right-hand side, relative to ``|L^2| + |L_t + Q|``, the two terms
    that nearly cancel where the map is near its static balance (the flat
    cylinder); second order in the collar step.
    """
    g = family.geometry
    ts = g.collar_ts
    worst = 0.0
    for j in range(1, g.M):
        lam = family.lams[j]
        dldt = (family.lams[j + 1] - family.lams[j - 1]) / (ts[j + 1] - ts[j - 1])
        rhs = riccati_rhs(g, family.q[j], lam, ts[j])
        static = g.laplacian_matrix(ts[j])
        _diagonal(static)[...] += family.q[j]
        square = rhs + static + float(g.mu_dot(ts[j])) * lam  # L^2 without a second product
        worst = max(worst, _norm(dldt - rhs) / max(_norm(square) + _norm(static), 1e-30))
    return worst


# ---------------------------------------------------------------------------
# conformal consistency
# ---------------------------------------------------------------------------


def conductivity_mode_dn(geometry, gamma, n_ambient, ksq):
    """Mode eigenvalue of the conductivity-form slice map ``-sigma(0) u'(0)``.

    Solves ``(r^dim sigma u')' - r^dim sigma ksq/r^2 u = 0`` with the cap
    condition, where ``sigma = gamma^(n/2 - 1)``, through the conservative
    sweep with the conductivity weights of :func:`_weights`: ``sigma(0)``
    times the half-cell flux at the boundary node. An array ``ksq`` gives an
    array of eigenvalues.
    """
    g = np.asarray(gamma(geometry.ts), dtype=float)
    if not np.all((g > 0.0) & (g < np.inf)):  # NaN fails both
        raise GeometryError("conformal factor must be positive and finite")
    sigma = g ** (0.5 * n_ambient - 1.0)
    w = _weights(geometry, sigma)
    return float(sigma[0]) * _mode_maps(geometry, ksq, lambda j: 0.0, w, [0])[0]


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
    pot, correction = conformal_potential(geometry, gamma, n_ambient)
    sigma0 = float(np.ravel(gamma(np.array([0.0])))[0]) ** (0.5 * n_ambient - 1.0)
    corr0 = float(np.mean(correction))
    ksq = np.array([float(np.dot(k, k)) if np.ndim(k) else float(k) ** 2 for k in modes])
    lam_q = dn_mode_symbol(geometry, pot, ksq, depths=[0])[0]
    lam_gamma = conductivity_mode_dn(geometry, gamma, n_ambient, ksq)
    predicted = sigma0 * lam_q - np.sqrt(sigma0) * corr0
    floor = sigma0 / (2.0 * float(geometry.rs[0]))
    rel = np.abs(lam_gamma - predicted) / np.maximum(np.abs(lam_gamma), floor)
    errors = {tuple(np.atleast_1d(k)): float(e) for k, e in zip(modes, rel)}
    return {"per_mode": errors, "max_rel_error": max(errors.values())}
