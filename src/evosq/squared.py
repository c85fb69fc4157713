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
    ``-W'' - m W' + L W + W L + Q1 W + W Q2 + 2 B1 W B2`` with
    ``Bi = Lam_i - mu'/2``. Identical to ``factorized`` in the continuum;
    the two assemblies are independent checks of each other.

``expanded-single``
    Same expansion but with the single cross product
    ``(Lam1 - mu') W (Lam2 - mu')`` in place of the doubled one. It differs
    from the true square by exactly ``Lam1 W Lam2`` and must *not*
    annihilate evolved fields; keeping it separate guards against the
    doubling being silently dropped.

Depth derivatives are stencils applied along the first axis
(:func:`sbp_derivative`, :func:`second_derivative`); no depth matrix is
formed. End rows of ``D`` are first order, so residuals of the factorized
form are meaningful only away from the collar ends; :func:`kernel_residual`
skips a two-node margin on each side.

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

from .errors import GeometryError

VARIANTS = ("factorized", "expanded-double", "expanded-single")
_MARGIN = 2  # collar nodes skipped at each end: the end rows of D are first order


def _uniform_step(ts):
    hs = np.diff(ts)
    if hs.size == 0 or np.ptp(hs) > 1e-12 * hs[0]:
        raise GeometryError("squared operators need the uniform collar grid")
    return float(hs[0])


def sbp_derivative(u, ts):
    """SBP(2,1) first derivative of ``u`` along its first (depth) axis.

    Centered inside, one-sided first order at both ends: the matrix ``D``
    with ``Omega D + D^T Omega = diag(-1, 0, ..., 0, 1)`` for the trapezoid
    norm ``Omega``. Returns one new array.
    """
    h = _uniform_step(ts)
    out = np.empty(u.shape)
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] *= 0.5 / h
    out[0] = (u[1] - u[0]) / h
    out[-1] = (u[-1] - u[-2]) / h
    return out


def second_derivative(u, ts):
    """Centered second derivative along the first axis; 4-point one-sided end rows (all O(h^2))."""
    h = _uniform_step(ts)
    out = np.empty(u.shape)
    np.add(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] -= u[1:-1]
    out[1:-1] -= u[1:-1]
    out[0] = 2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]
    out[-1] = 2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]
    out /= h * h
    return out


def apply_variant(pair_op, W, variant="factorized"):
    """Apply one squared-operator variant to a ``(M+1, N, N)`` kernel field on the collar."""
    if variant not in VARIANTS:
        raise GeometryError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    g = pair_op.geometry
    ts = g.collar_ts
    if W.shape[0] != ts.size:
        raise GeometryError("field does not live on the collar grid")

    if variant == "factorized":
        # (D* + A)(D + A) W with D* = -V^-1 D V, V = exp(2 mu) the slice volume factor
        Y = sbp_derivative(W, ts)
        for j in range(ts.size):
            Y[j] += pair_op.apply(j, W[j])
        V = np.exp(2.0 * g.mu(ts))
        Y *= V[:, None, None]
        Z = sbp_derivative(Y, ts)
        for j in range(ts.size):
            Z[j] = (pair_op.apply(j, Y[j]) - Z[j]) / V[j]
        return Z

    # -W'' - 2 mu' W', then the per-node terms
    mu_dot = g.mu_dot(ts)
    Z = sbp_derivative(W, ts)
    Z *= -2.0 * mu_dot[:, None, None]
    Z -= second_derivative(W, ts)
    f1, f2 = pair_op.family1, pair_op.family2
    eye = np.eye(g.N)
    # Bi = Lam_i - half mu': doubled with half = 1/2, single with the full shift
    half, cross = (0.5, 2.0) if variant == "expanded-double" else (1.0, 1.0)
    for j in range(ts.size):
        mu = float(mu_dot[j])
        L = g.laplacian_matrix(float(ts[j]))
        Zj = Z[j]
        Zj += L @ W[j] + W[j] @ L.T
        Zj += f1.q[j][:, None] * W[j] + W[j] * f2.q[j][None, :]
        B1 = f1.lams[j] - half * mu * eye
        B2 = f2.lams[j] - half * mu * eye
        Zj += cross * (B1 @ W[j] @ B2.T) - half * mu * mu * W[j]
    return Z


def kernel_residual(pair_op, W):
    """Relative annihilation defect of a kernel field under each variant, off the collar ends.

    The defect on slice ``j`` is the Frobenius norm of the applied variant,
    normalized by one scale, the largest first-order term ``|A_j W_j|`` over
    the same interior range (so the numbers are comparable across variants
    and resolutions). Returns ``{variant: max over the interior}``.
    """
    interior = range(_MARGIN, pair_op.geometry.M + 1 - _MARGIN)
    scale = max(max(float(np.linalg.norm(pair_op.apply(j, W[j]))) for j in interior), 1e-30)

    def worst(applied):  # the applied field is freed before the next variant is applied
        return max(float(np.linalg.norm(applied[j]) / scale) for j in interior)

    return {variant: worst(apply_variant(pair_op, W, variant)) for variant in VARIANTS}


def scalar_factorized_apply(ts, lam1, lam2, m, p):
    """Per-mode mirror of the factorized operator on a scalar depth profile.

    ``(-d/dt - m + lam1 + lam2)(d/dt + lam1 + lam2) p`` with the same SBP
    derivative; used to cross-check the structured apply one mode pair at a
    time. All arguments are sampled on the collar nodes.
    """
    lam = np.asarray(lam1, dtype=float) + np.asarray(lam2, dtype=float)
    mu_int = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(ts) * (m[1:] + m[:-1]))])
    V = np.exp(mu_int)
    y = sbp_derivative(p, ts) + lam * p
    return -sbp_derivative(V * y, ts) / V + lam * y
