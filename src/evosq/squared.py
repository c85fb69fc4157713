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

The residuals are small differences of fields that conjugate gradients
solved to ``_CG_TOL`` (see :mod:`evosq.evolution`), so they reproduce only
to about 3e-8 relative: a round-off change upstream moves them that far.
"""

import numpy as np

from .errors import GeometryError

VARIANTS = ("factorized", "expanded-double", "expanded-single")


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


def kernel_residual(pair_op, W, variant="factorized", margin=2):
    """Relative annihilation defect of a kernel field, away from the collar ends.

    The defect on slice ``j`` is the Frobenius norm of the applied variant,
    normalized by the largest first-order term ``|A_j W_j|`` over the same
    interior range (so the number is comparable across variants and
    resolutions). Returns the max, the per-slice profile, and the scale.
    """
    g = pair_op.geometry
    if g.M + 1 <= 2 * margin + 1:
        raise GeometryError("collar too short for an interior residual")
    applied = apply_variant(pair_op, W, variant)
    interior = range(margin, g.M + 1 - margin)
    scale = max(float(np.linalg.norm(pair_op.apply(j, W[j]))) for j in interior)
    scale = max(scale, 1e-30)
    per_slice = np.array([np.linalg.norm(applied[j]) / scale for j in interior])
    return {
        "max_rel": float(per_slice.max()),
        "per_slice": per_slice,
        "scale": scale,
        "interior": (margin, g.M - margin),
        "variant": variant,
    }


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
