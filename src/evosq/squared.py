"""Second-order (squared) transport operators on tensor kernels.

The forward flow ``(d/dt + A) W = 0`` composed with its volume-weighted
adjoint gives a positive second-order operator whose kernel contains every
evolved rank-one field. This module realizes that operator three ways:

``factorized``
    Literal composition ``(D* + A)(D + A)`` with the SBP(2,1) derivative
    stencil ``D`` and its exact discrete weighted adjoint
    ``D* = -V^{-1} D V`` (``V = exp(2 mu)`` holds the slice volume factors).

``expanded-double``
    The algebraically expanded form, assembled from geometry data alone:
    ``base + 2 B1 W B2 - (mu'^2/2) W`` with ``Bi = Lam_i - mu'/2`` and
    ``base = -W'' - 2 mu' W' + L W + W L + Q1 W + W Q2``. Identical to
    ``factorized`` in the continuum; the two assemblies check each other.

``expanded-single``
    ``base + (Lam1 - mu') W (Lam2 - mu') - mu'^2 W``, a single cross product
    in place of the doubled one. It differs from the true square by exactly
    ``Lam1 W Lam2`` and must *not* annihilate evolved fields, which guards
    against the doubling being silently dropped.

The shifts cancel: with the generator apply ``A W = Lam1 W + W Lam2^T`` and
the one cross product ``C = Lam1 W Lam2^T``, the two are ``base - mu' A W + 2 C``
and ``base - mu' A W + C``. An array slice takes 8 GEMMs for all three
variants, two each for ``A_j W_j``, ``A_j Y_j``, ``L W + W L^T`` and ``C_j``.
The same walk runs on the factor pairs of a
:class:`~evosq.evolution.LowRank` field's slices: matrix-vector products,
plus one ``N x r x N`` product for each variant it materializes (``r`` at
most 16).

Depth derivatives are row stencils along the first axis (:func:`_d1`,
:func:`_d2`); no depth matrix is formed. The kernel walks down the collar
holding a few slices: :func:`kernel_residual` applies all three
variants in one pass and keeps only norms, :func:`apply_variant` fills one
field. The field ``W`` need only have ``shape`` and slice indexing, so a
``LowRank`` field is walked without being materialized. End rows of ``D``
are first order, so factorized residuals are meaningful only away from the
collar ends; :func:`kernel_residual` skips a two-node margin on each side.

A residual is a small part of its scale (1e-4 at N=32, M=64; 1e-5 at
N=128, M=256) and holds ``W''``, whose stencil divides by h^2, so round-off
in ``W`` is amplified. Multiplying ``W`` by ``1 + 1e-16 z`` (``z`` standard
normal) moved the factorized and expanded-double residuals by up to 5.6e-10
and 3.1e-9 relative at N=32, M=64 and by up to 2.9e-8 and 1.4e-7 at
N=128, M=256 (five draws each). A round-off change upstream of ``W`` moves
them that far, and a round-off change of the maps further: a change of the
maps by up to 2.1e-14 relative moved these residuals by up to 3.8e-8
relative at N=32, M=64 (expanded-double, disk).
"""

import numpy as np

from .dnmap import _norm
from .errors import GeometryError

VARIANTS = ("factorized", "expanded-double", "expanded-single")
_MARGIN = 2  # collar nodes skipped at each end: the end rows of D are first order


def _uniform_step(ts):
    hs = np.diff(ts)
    if hs.size == 0 or np.ptp(hs) > 1e-12 * hs[0]:
        raise GeometryError("squared operators need the uniform collar grid")
    return float(hs[0])


def _d1(u, k, last, h):
    """Row ``k`` of ``D u``; ``u[i]`` is row ``i`` of ``last + 1`` (a field or a dict of rows).

    ``D`` is the SBP(2,1) first derivative: centered inside, one-sided first
    order at both ends, so ``Omega D + D^T Omega = diag(-1, 0, ..., 0, 1)``
    for the trapezoid norm ``Omega``.
    """
    if 0 < k < last:
        return (u[k + 1] - u[k - 1]) * (0.5 / h)
    return (u[1] - u[0]) / h if k == 0 else (u[last] - u[last - 1]) / h


def _d2(u, k, last, h):
    """Row ``k`` of the centered second derivative, 4-point one-sided at the ends (all O(h^2)).

    Rows are indexed as in :func:`_d1`.
    """
    if 0 < k < last:
        return (u[k + 1] + u[k - 1] - u[k] - u[k]) / (h * h)
    s = 1 if k == 0 else -1
    return (2.0 * u[k] - 5.0 * u[k + s] + 4.0 * u[k + 2 * s] - u[k + 3 * s]) / (h * h)


def _applied_slices(pair_op, W, rows):
    """Walk ``rows`` down the collar, yielding ``(A_j W_j, {variant: applied slice j})``.

    A slice ``W[k]`` is a view of an array or a factor pair of a
    :class:`~evosq.evolution.LowRank` field, read where a stencil needs it;
    the walk keeps ``A_k W_k`` and ``Y_k = V_k (D W + A W)_k`` for
    ``k = j-1 .. j+1`` only.
    """
    g = pair_op.geometry
    ts = g.collar_ts
    if W.shape[0] != ts.size:
        raise GeometryError("field does not live on the collar grid")
    h, last = _uniform_step(ts), ts.size - 1
    f1, f2 = pair_op.family1, pair_op.family2
    V, mu_dot = np.exp(2.0 * g.mu(ts)), g.mu_dot(ts)
    AW, Y = {}, {}
    for j in rows:
        # factorized: (D* + A)(D + A) W with D* = -V^-1 D V, V = exp(2 mu) the slice volume factor
        for k in range(max(j - 1, 0), min(j + 2, last + 1)):
            if k not in Y:
                AW[k] = pair_op.apply(k, W[k])
                Y[k] = (_d1(W, k, last, h) + AW[k]) * V[k]
        factorized = (pair_op.apply(j, Y[j]) - _d1(Y, j, last, h)) / V[j]
        Y.pop(j - 1, None), AW.pop(j - 1, None)
        # expanded: -W'' - 2 mu' W' + the per-node terms - mu' A W + the cross product
        mu = float(mu_dot[j])
        base = _d1(W, j, last, h)
        base *= -2.0 * mu
        base -= _d2(W, j, last, h)
        L = g.laplacian_matrix(float(ts[j]))
        base += L @ W[j] + W[j] @ L.T
        base += f1.q[j][:, None] * W[j] + W[j] * f2.q[j][None, :]
        base -= mu * AW[j]
        cross = f1.lams[j] @ W[j] @ f2.lams[j].T
        yield AW[j], {"factorized": factorized, "expanded-double": base + 2.0 * cross,
                      "expanded-single": base + cross}


def apply_variant(pair_op, W, variant="factorized"):
    """Apply one squared-operator variant to a kernel field on the collar.

    ``W`` is any field of ``shape`` ``(M+1, N, N)`` whose ``W[k]`` is slice
    ``k``: an array or a :class:`~evosq.evolution.LowRank` field. Returns an array.
    """
    if variant not in VARIANTS:
        raise GeometryError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    out = np.empty(W.shape)
    rows = range(pair_op.geometry.M + 1)
    for j, (_, applied) in zip(rows, _applied_slices(pair_op, W, rows)):
        out[j] = applied[variant]
    return out


def kernel_residual(pair_op, W):
    """Relative annihilation defect of a kernel field under each variant, off the collar ends.

    The defect on slice ``j`` is the Frobenius norm of the applied variant,
    normalized by one scale, the largest first-order term ``|A_j W_j|`` over
    the same interior range (so the numbers are comparable across variants
    and resolutions). ``W`` is a field as in :func:`apply_variant`, each
    slice read once; ``np.asarray`` materializes each factored applied
    slice for its norm and leaves an array as it is. Norms are ``einsum`` sums (:func:`dnmap._norm`), so
    no BLAS thread count changes them. Returns ``{variant: max over the interior}``.
    """
    interior = range(_MARGIN, pair_op.geometry.M + 1 - _MARGIN)
    worst = {}  # the largest norm so far, one scalar per variant and for the scale
    for AW, applied in _applied_slices(pair_op, W, interior):
        for variant, Z in (("scale", AW), *applied.items()):
            norm = _norm(np.asarray(Z))
            worst[variant] = max(worst.get(variant, norm), norm)
    # rounding is monotone: max(|Z_j|) / scale is max(|Z_j| / scale)
    scale = max(float(worst["scale"]), 1e-30)
    return {variant: float(worst[variant] / scale) for variant in VARIANTS}
