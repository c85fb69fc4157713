"""Second-order (squared) transport operators on tensor kernels.

The forward flow ``(d/dt + A) W = 0`` composed with its volume-weighted
adjoint gives a positive second-order operator whose kernel contains every
evolved rank-one field. This module realizes that operator three ways:

``factorized``
    Literal composition ``(D* + A)(D + A)`` with a summation-by-parts
    derivative ``D`` and its exact discrete weighted adjoint
    ``D* = -V^{-1} D V`` (``V`` holds the slice volume factors).

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

End rows of ``D`` are first order, so residuals of the factorized form are
meaningful only away from the collar ends; :func:`kernel_residual` skips a
two-node margin on each side.
"""

import numpy as np

from .errors import GeometryError

VARIANTS = ("factorized", "expanded-double", "expanded-single")


def _uniform_step(ts):
    hs = np.diff(ts)
    if hs.size == 0 or np.ptp(hs) > 1e-12 * hs[0]:
        raise GeometryError("squared operators need the uniform collar grid")
    return float(hs[0])


def sbp_first_derivative(ts):
    """SBP(2,1) derivative and its norm: ``Omega D + D^T Omega = B``."""
    h = _uniform_step(ts)
    K = ts.size
    D = np.zeros((K, K))
    for j in range(1, K - 1):
        D[j, j - 1] = -0.5 / h
        D[j, j + 1] = 0.5 / h
    D[0, 0], D[0, 1] = -1.0 / h, 1.0 / h
    D[K - 1, K - 2], D[K - 1, K - 1] = -1.0 / h, 1.0 / h
    omega = np.full(K, h)
    omega[0] = omega[-1] = 0.5 * h
    return D, omega


def second_derivative_matrix(ts):
    """Centered second derivative; 4-point one-sided end rows (all O(h^2))."""
    h = _uniform_step(ts)
    K = ts.size
    D2 = np.zeros((K, K))
    for j in range(1, K - 1):
        D2[j, j - 1 : j + 2] = (1.0, -2.0, 1.0)
    D2[0, :4] = (2.0, -5.0, 4.0, -1.0)
    D2[K - 1, K - 4 :] = (-1.0, 4.0, -5.0, 2.0)
    return D2 / h**2


def sbp_pair(pair_op):
    """Derivative and exact weighted adjoint for the pair geometry.

    With ``V_j = exp(2 mu)(t_j)`` the pair satisfies
    ``<<D u, v>> = <<u, D* v>> + boundary`` exactly in the volume-weighted
    trapezoid pairing.
    """
    ts = pair_op.geometry.collar_ts
    D, omega = sbp_first_derivative(ts)
    V = np.exp(2.0 * np.asarray(pair_op.geometry.mu(ts), dtype=float))
    Dstar = -np.diag(1.0 / V) @ D @ np.diag(V)
    return D, Dstar, omega, V


def _depth_apply(D, field_values):
    return np.tensordot(D, field_values, axes=(1, 0))


def apply_variant(pair_op, W, variant="factorized"):
    """Apply one squared-operator variant to a ``(M+1, N, N)`` kernel field on the collar."""
    if variant not in VARIANTS:
        raise GeometryError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    g = pair_op.geometry
    ts = g.collar_ts
    if W.shape[0] != ts.size:
        raise GeometryError("field does not live on the collar grid")

    if variant == "factorized":
        D, Dstar, _, _ = sbp_pair(pair_op)
        Y = _depth_apply(D, W)
        for j in range(ts.size):
            Y[j] += pair_op.apply(j, W[j])
        Z = _depth_apply(Dstar, Y)
        for j in range(ts.size):
            Z[j] += pair_op.apply(j, Y[j])
        return Z

    D, _ = sbp_first_derivative(ts)
    D2 = second_derivative_matrix(ts)
    dW = _depth_apply(D, W)
    d2W = _depth_apply(D2, W)
    Z = np.empty_like(W)
    f1, f2 = pair_op.family1, pair_op.family2
    eye = np.eye(g.N)
    # Bi = Lam_i - half mu': doubled with half = 1/2, single with the full shift
    half, cross = (0.5, 2.0) if variant == "expanded-double" else (1.0, 1.0)
    for j in range(ts.size):
        t = float(ts[j])
        mu = float(g.mu_dot(t))
        L = g.laplacian_matrix(t)
        Zj = -d2W[j] - 2.0 * mu * dW[j] + L @ W[j] + W[j] @ L.T
        Zj += f1.q[j][:, None] * W[j] + W[j] * f2.q[j][None, :]
        B1 = f1.lams[j] - half * mu * eye
        B2 = f2.lams[j] - half * mu * eye
        Zj += cross * (B1 @ W[j] @ B2.T) - half * mu * mu * W[j]
        Z[j] = Zj
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
    D, _ = sbp_first_derivative(ts)
    lam = np.asarray(lam1, dtype=float) + np.asarray(lam2, dtype=float)
    mu_int = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(ts) * (m[1:] + m[:-1]))])
    V = np.exp(mu_int)
    y = D @ p + lam * p
    return -(D @ (V * y)) / V + lam * y
