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
``geometry.collar_ts[j]``. Where slices are only read, a :class:`LowRank`
field stands in for the kernel field of two traces: its slices stay
factored, so ``M @ S``, ``S @ M``, sums and scalings cost matrix-vector
products. A transport asked for ``rows`` returns only the nodes
``0..rows-1``: the forward sweep stops there, the backward sweep runs the
whole collar but keeps no deeper slice than the one it steps from.

All steppers are trapezoidal (second order); both transports are one
stepper run down or up the collar. Its implicit half-step is a symmetric
system, positive definite unless a potential is near a resonance, solved
matrix-free by conjugate gradients to ``_CG_TOL``, in place with one
scratch slice. CG raises ``StepFailureError`` at the first search direction
whose curvature ``p.Ap`` is not positive, which also stops it on a
non-finite value. Each solve is recycled into the next step:
the step to node ``i`` ends with ``W_i + (h/2)(A_i - m_i) W_i = B - r``, ``r``
being CG's own residual, so the next explicit half costs no operator apply
(a sweep applies it on its first step only), and the last two explicit
halves start CG from an Adams-Bashforth prediction. CG's inner products are
``einsum`` reductions, not BLAS dots; as OpenBLAS splits a GEMM by output
blocks, a transport is then bit-identical under any BLAS thread count. Pin
no bound finer than CG's noise in ``rel_error``: a 1e-15-tolerance rerun
moves the headline by 2e-9 to 9e-9 relative at N=32, M=64 (5e-8 to 1.7e-7
at M=128) on the annulus, disk and flat cylinder, and a global-march window
(N=32, M=64, a row range of one family per potential) by up to 1.4e-7,
where ``rel_error`` is only 1e-3 to 6e-3.
"""

import numpy as np

from .dnmap import _dense_inverse, _diagonal, _dot
from .errors import GeometryError, StepFailureError

_CG_TOL = 1e-10
_CG_MAXITER = 500


class PairOperator:
    """Slice-indexed generator ``W -> Lam1(t) W + W Lam2(t)^T`` of two families on one geometry.

    The families' geometries must be the same object or have the same ``hash()``.
    """

    def __init__(self, family1, family2):
        g1, g2 = family1.geometry, family2.geometry
        if g2 is not g1 and g2.hash() != g1.hash():
            raise GeometryError(f"a family pair needs one geometry, got {g1.hash()} and {g2.hash()}")
        self.geometry = g1
        self.family1 = family1
        self.family2 = family2

    def apply(self, j, W):
        AW = self.family1.lams[j] @ W
        AW += W @ self.family2.lams[j].T
        return AW

    def volume_rate(self, j):
        return 2.0 * float(self.geometry.mu_dot(float(self.geometry.collar_ts[j])))


# ---------------------------------------------------------------------------
# conjugate gradients on kernels
# ---------------------------------------------------------------------------


def _cg(apply_op, B, x, context=""):
    """Conjugate gradients for ``apply_op(x) = B`` from the start ``x``, updated in place.

    Returns ``(x, r)`` with ``r`` CG's own residual ``B - apply_op(x)``;
    zero ``B`` returns exact zeros for both. ``apply_op`` returns a fresh
    array, which the loop uses as its scratch. A direction with ``p.Ap``
    not > 0 (an indefinite operator, or NaN) is a ``StepFailureError``.
    """
    b_norm = np.sqrt(_dot(B, B))
    if b_norm == 0.0:
        x[...] = 0.0
        return x, np.zeros_like(B)
    r = B - apply_op(x)
    p = r.copy()
    rr = _dot(r, r)
    for it in range(_CG_MAXITER):
        if np.sqrt(rr) <= _CG_TOL * b_norm:
            return x, r
        Ap = apply_op(p)
        pAp = _dot(p, Ap)
        if not pAp > 0.0:
            raise StepFailureError(
                f"implicit step is not positive definite{context}: p.Ap = {pAp:.3g}",
                iterations=it,
            )
        alpha = rr / pAp
        Ap *= alpha
        r -= Ap
        x += np.multiply(p, alpha, out=Ap)
        rr_new = _dot(r, r)
        p *= rr_new / rr
        p += r
        rr = rr_new
    if np.sqrt(rr) <= _CG_TOL * b_norm:
        return x, r
    raise StepFailureError(
        f"implicit step failed to converge{context}: residual {np.sqrt(rr) / b_norm:.3g}",
        iterations=_CG_MAXITER,
    )


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------


def evolve_trace(family, f):
    """Trapezoidal solve of ``u' = -Lam(t) u`` down the collar from ``u(0) = f``.

    A step is ``u_{j+1} = (I + (h/2) Lam_{j+1})^-1 (u_j - (h/2) Lam_j u_j)``,
    its inverse the certified SPD inverse of :func:`dnmap._dense_inverse`
    (Gauss-Jordan elimination where that fails), so no BLAS thread count changes it.
    """
    g = family.geometry
    ts = g.collar_ts
    u = np.empty((g.M + 1, g.N))
    u[0] = np.asarray(f, dtype=float)
    step, inverse = np.empty((2, g.N, g.N))
    borders = {}
    for j in range(g.M):
        half = 0.5 * (ts[j + 1] - ts[j])
        rhs = u[j] - half * (family.lams[j] @ u[j])
        np.multiply(family.lams[j + 1], half, out=step)
        _diagonal(step)[...] += 1.0
        np.matmul(_dense_inverse(step, 1.0, inverse, borders), rhs, out=u[j + 1])
    return u


def _transport(pair_op, W_start, nodes, rate, source, direction, rows):
    """Trapezoid steps of ``(d/ds + A - rate) W = source``, ``s`` running along ``nodes``.

    The stepper carries its current slice and returns the ``(rows, N, N)``
    array of the nodes below ``rows`` (all ``M + 1`` when ``rows`` is None).
    ``D`` is the explicit half ``(h/2)(A_i - rate_i) W_i`` of the step from
    node ``i``: applied on the first step, read off the last solve after it.
    CG starts from an Euler, then an Adams-Bashforth (AB2), prediction.
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
    zero = np.zeros_like(W)
    src = (lambda j: zero) if source is None else (lambda j: np.asarray(source(j), dtype=float))
    src_i = src(nodes[0])
    cX = np.empty_like(W)  # the op's one scratch slice
    D = None
    for i, k in zip(nodes[:-1], nodes[1:]):
        h = abs(ts[k] - ts[i])
        src_k = src(k)
        if D is None:
            D = 0.5 * h * (pair_op.apply(i, W) - rate(i) * W)
            B = W - D + 0.5 * h * (src_i + src_k)
            W -= 2.0 * D  # Euler start
            W += h * src_i
        else:  # each update in place: D into the last residual, B into itself, the start into W
            np.subtract(B, r, out=r)
            r -= W
            r *= h / h_prev
            np.subtract(W, r, out=B)
            B += 0.5 * h * (src_i + src_k)
            W -= 3.0 * r
            W += D
            W += h * (1.5 * src_i - 0.5 * src_prev)
            D = r
        src_prev = src_i  # for the next AB2 start; the older source is freed before the solve

        def op(X, _k=k, _half=0.5 * h, _c=1.0 - 0.5 * h * rate(k)):
            AX = pair_op.apply(_k, X)
            AX *= _half
            AX += np.multiply(X, _c, out=cX)
            return AX

        W, r = _cg(op, B, W, context=f" ({direction} step to node {k})")
        if k < rows:
            out[k] = W
        src_i, h_prev = src_k, h
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


class LowRank:
    """The field ``U @ V^T`` of ``(..., N, r)`` factor stacks; ``W[k]`` is the slice ``LowRank(U[k], V[k])``.

    On a slice, ``M @ S`` is ``(M U, V)`` and ``S @ M`` is ``(U, M^T V)``; ``+`` and ``-``
    join factors; ``*`` and ``/`` take a scalar, and ``*`` also an ``(N, 1)`` column
    (scaling rows) or a ``(1, N)`` row (scaling columns). Any other operand raises
    ``TypeError``, and so does any ufunc, so nothing is made dense by accident.
    ``np.asarray`` materializes the field by a batched ``U @ V^T``: at rank one, one
    product per entry, bit for bit as :func:`evolved_rank_one`.
    """

    __array_ufunc__ = None  # ndarray operators defer to this type; ufuncs raise

    def __init__(self, U, V):
        self.U, self.V = U, V
        self.shape = U.shape[:-1] + (V.shape[-2],)
        self.ndim = len(self.shape)  # np.ndim reads this instead of materializing the field

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.U @ np.swapaxes(self.V, -1, -2), dtype=dtype)

    def __getitem__(self, k):
        return LowRank(self.U[k], self.V[k])

    def __matmul__(self, M):
        return LowRank(self.U, M.T @ self.V) if isinstance(M, np.ndarray) else NotImplemented

    def __rmatmul__(self, M):
        return LowRank(M @ self.U, self.V) if isinstance(M, np.ndarray) else NotImplemented

    def __add__(self, S):
        if not isinstance(S, LowRank):
            return NotImplemented
        return LowRank(np.concatenate((self.U, S.U), axis=1), np.concatenate((self.V, S.V), axis=1))

    def __sub__(self, S):
        return self + LowRank(-S.U, S.V) if isinstance(S, LowRank) else NotImplemented

    def __mul__(self, c):
        if np.ndim(c) == 0:
            return LowRank(self.U * c, self.V)
        if isinstance(c, np.ndarray) and c.shape == (self.shape[0], 1):
            return LowRank(c * self.U, self.V)
        if isinstance(c, np.ndarray) and c.shape == (1, self.shape[1]):
            return LowRank(self.U, c.T * self.V)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, c):
        return LowRank(self.U / c, self.V) if np.ndim(c) == 0 else NotImplemented


def evolved_rank_one(family1, family2, f1, f2):
    """Outer-product field of two evolved traces; lies in ker(d/dt + A)."""
    u1 = evolve_trace(family1, f1)
    u2 = evolve_trace(family2, f2)
    return np.einsum("ji,jk->jik", u1, u2)
