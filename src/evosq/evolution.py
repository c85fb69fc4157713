"""Boundary-trace evolution and tensor-square transport on the collar.

The interior extension of boundary data satisfies the first-order flow
``u' = -Lam(t) u`` in depth, where ``Lam(t)`` is the slice map. On products
of two collars the corresponding generator acts on kernels ``W(x, y)`` as

    A_t W = Lam1 W + W Lam2^T,

which is never materialized as an N^2 x N^2 matrix; both factors act by
dense N x N multiplication. Forward transport solves ``(d/dt + A) phi = g``,
backward transport solves the formally adjoint equation
``(-d/dt - m + A) psi = g`` with the volume-weight rate
``m(t) = 2 mu'(t)``: both families live on one geometry and differ only in
their potentials.

Every field is a plain array indexed by collar node first: a trace is
``(M+1, N)`` and a kernel field ``(M+1, N, N)``, row ``j`` at depth
``geometry.collar_ts[j]``. A transport asked for ``rows`` returns only the
nodes ``0..rows-1``: the forward sweep stops there, the backward sweep runs
the whole collar but keeps no deeper slice than the one it steps from.

All steppers are trapezoidal (second order); both transports are one
stepper run down or up the collar. Its implicit half-step is a symmetric
positive system solved matrix-free by conjugate gradients (Frobenius inner
products) to ``_CG_TOL``. Pin no bound finer than its noise in ``rel_error``:
about 5e-9 relative in the headline at N=32, M=64 (5e-8 at M=128), but 7.5e-7
in a global-march window (N=32, M=64), where ``rel_error`` is only 4e-4 to 3e-3.
"""

import numpy as np

from .errors import GeometryError, StepFailureError

_CG_TOL = 1e-10
_CG_MAXITER = 500


def shared_geometry(family1, family2):
    """The one geometry a family pair lives on: the same object or the same ``hash()``."""
    g1, g2 = family1.geometry, family2.geometry
    if g2 is not g1 and g2.hash() != g1.hash():
        raise GeometryError(f"a family pair needs one geometry, got {g1.hash()} and {g2.hash()}")
    return g1


class PairOperator:
    """Slice-indexed generator ``W -> Lam1(t) W + W Lam2(t)^T`` of two families on one geometry."""

    def __init__(self, family1, family2):
        self.geometry = shared_geometry(family1, family2)
        self.family1 = family1
        self.family2 = family2

    def apply(self, j, W):
        return self.family1.lams[j] @ W + W @ self.family2.lams[j].T

    def volume_rate(self, j):
        return 2.0 * float(self.geometry.mu_dot(float(self.geometry.collar_ts[j])))


# ---------------------------------------------------------------------------
# conjugate gradients on kernels
# ---------------------------------------------------------------------------


def _cg(apply_op, B, x0=None, tol=_CG_TOL, maxiter=_CG_MAXITER, context=""):
    b_norm = np.linalg.norm(B)
    if b_norm == 0.0:
        return np.zeros_like(B)
    x = B.copy() if x0 is None else x0.copy()
    r = B - apply_op(x)
    p = r.copy()
    rr = np.vdot(r, r).real
    for it in range(maxiter):
        if np.sqrt(rr) <= tol * b_norm:
            return x
        Ap = apply_op(p)
        alpha = rr / np.vdot(p, Ap).real
        x += alpha * p
        r -= alpha * Ap
        rr_new = np.vdot(r, r).real
        p = r + (rr_new / rr) * p
        rr = rr_new
    if np.sqrt(rr) <= tol * b_norm:
        return x
    raise StepFailureError(
        f"implicit step failed to converge{context}: residual {np.sqrt(rr) / b_norm:.3g}",
        iterations=maxiter,
    )


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------


def evolve_trace(family, f):
    """Trapezoidal solve of ``u' = -Lam(t) u`` down the collar from ``u(0) = f``."""
    g = family.geometry
    ts = g.collar_ts
    N = g.N
    eye = np.eye(N)
    u = np.empty((g.M + 1, N))
    u[0] = np.asarray(f, dtype=float)
    for j in range(g.M):
        h = ts[j + 1] - ts[j]
        rhs = (eye - 0.5 * h * family.lams[j]) @ u[j]
        u[j + 1] = np.linalg.solve(eye + 0.5 * h * family.lams[j + 1], rhs)
    return u


def _transport(pair_op, W_start, nodes, rate, source, direction, rows):
    """Trapezoid steps of ``(d/ds + A - rate) W = source``, ``s`` running along ``nodes``.

    The stepper carries its current slice and returns the ``(rows, N, N)``
    array of the nodes below ``rows`` (all ``M + 1`` when ``rows`` is None).
    """
    g = pair_op.geometry
    ts = g.collar_ts
    rows = g.M + 1 if rows is None else rows
    if not 1 <= rows <= g.M + 1:
        raise GeometryError(f"a transport keeps 1..{g.M + 1} rows, got {rows}")
    out = np.empty((rows, g.N, g.N))
    W = np.empty((g.N, g.N))
    W[...] = W_start
    if nodes[0] < rows:
        out[nodes[0]] = W
    src_i = None if source is None else np.asarray(source(nodes[0]), dtype=float)
    for i, k in zip(nodes[:-1], nodes[1:]):
        h = abs(ts[k] - ts[i])
        B = W - 0.5 * h * (pair_op.apply(i, W) - rate(i) * W)
        if source is not None:
            src_k = np.asarray(source(k), dtype=float)
            B = B + 0.5 * h * (src_i + src_k)
            src_i = src_k

        def op(X, _k=k, _h=h, _m=rate(k)):
            AX = pair_op.apply(_k, X)
            return X + 0.5 * _h * (AX - _m * X if _m else AX)  # saves two N^2 passes when m = 0

        W = _cg(op, B, x0=W, context=f" ({direction} step to node {k})")
        if k < rows:
            out[k] = W
    return out


def evolve_tensor_forward(pair_op, W0, source=None, rows=None):
    """Solve ``(d/dt + A) phi = source`` down the collar from ``phi(0) = W0``.

    ``source`` is None (homogeneous) or a callable ``source(j) -> kernel``.
    With ``rows`` the sweep stops after node ``rows - 1`` and returns those
    rows alone.
    """
    nodes = range(pair_op.geometry.M + 1)[:rows]
    return _transport(pair_op, W0, nodes, lambda j: 0.0, source, "forward", rows)


def evolve_tensor_backward(pair_op, W_eps, source=None, rows=None):
    """Solve ``psi' = (A - m) psi - source`` upward from ``psi(eps) = W_eps``.

    This is the formal adjoint flow of the forward transport with respect to
    the volume-weighted kernel pairing; ``m`` is the slice volume rate. The
    sweep always runs the whole collar; with ``rows`` it keeps only the nodes
    below ``rows``.
    """
    nodes = range(pair_op.geometry.M, -1, -1)
    return _transport(pair_op, W_eps, nodes, pair_op.volume_rate, source, "backward", rows)


def evolved_rank_one(family1, family2, f1, f2):
    """Outer-product field of two evolved traces; lies in ker(d/dt + A)."""
    u1 = evolve_trace(family1, f1)
    u2 = evolve_trace(family2, f2)
    return np.einsum("ji,jk->jik", u1, u2)


def kron_generator(lam1, lam2):
    """Dense Kronecker form of the pair generator (small-N checks only)."""
    n = lam1.shape[0]
    return np.kron(lam1, np.eye(n)) + np.kron(np.eye(n), lam2)
