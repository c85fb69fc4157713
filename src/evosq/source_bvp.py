"""Diagonal-source boundary value problem for map-difference recovery.

Let ``U(t)`` be the Schwartz kernel of the difference of two slice-map
families with potentials ``Q1, Q2``. Differentiating the map equation shows
``U`` solves the *backward* transport problem

    (d* + A) U = R,     R(t) = diagonal kernel of (Q1 - Q2) on the slice,

with ``d* = -d/dt - m``. The solver integrates the second-order problem
``(d* + A)(d/dt + A) phi = R`` with ``phi(0) = 0`` and the flux condition
``(d/dt + A) phi = U`` at the collar depth, one sweep per first-order factor.
The depth derivative of ``phi`` at the boundary then *re-derives* the kernel
of the map difference ``Lam1(0) - Lam2(0)`` at ``t = 0``, in that orientation
and no other, which is the quantity the whole pipeline is meant to certify.

Sweeps (both trapezoidal, matrix-free):
  1. ``(d* + A) psi = R`` backward from ``psi(eps) = U(eps)``, so ``psi`` is
     ``U`` transported up from the collar depth;
  2. ``(d/dt + A) phi = psi`` forward from zero.

Both fields are plain ``(rows, N, N)`` arrays, row ``j`` at depth
``geometry.collar_ts[j]``: all ``M+1`` collar nodes by default. The
boundary derivative reads only rows 0-2 of ``phi``, which need only rows
0-2 of ``psi``; since ``phi`` starts from zero, a solve that keeps ``rows``
stops its forward sweep at node ``rows - 1``, and its backward sweep, which
must still run the whole collar, keeps only those rows.

With matching potentials every sweep is identically zero (the null test in
:mod:`evosq.probes` relies on this being exact, not merely small).
"""

import numpy as np

from .dnmap import _norm, compute_dn_family, solve_interior
from .errors import GeometryError
from .evolution import PairOperator, evolve_tensor_backward, evolve_tensor_forward


def difference_kernel(family1, family2, j):
    """Kernel of ``Lam1(t_j) - Lam2(t_j)`` (weight divided out of column index)."""
    g = family1.geometry
    w = g.node_weight(float(g.collar_ts[j]))
    return (family1.lams[j] - family2.lams[j]) / w


def diagonal_source(family1, family2):
    """Slice-indexed diagonal kernel of the potential difference.

    ``R_j = diag(q(t_j)) / w(t_j)`` with ``q = Q1 - Q2``; the weight division
    makes ``R`` the kernel of the distributional source ``q(x) delta(x - y)``
    in the node quadrature.
    """
    g = family1.geometry

    def source(j):
        return np.diag((family1.q[j] - family2.q[j]) / g.node_weight(float(g.collar_ts[j])))

    return source


def solve_source_bvp(family1, family2, rows=None):
    """Two-sweep solve; returns the arrays ``phi`` and ``psi``, the transported ``U``.

    With ``rows`` both arrays hold collar nodes ``0..rows-1`` only; their
    values are those of the full solve. The flux condition at the collar
    depth carries the sign +1, the orientation in which the boundary
    derivative of ``phi`` is ``Lam1(0) - Lam2(0)`` itself.
    """
    pair = PairOperator(family1, family2)
    K_eps = difference_kernel(family1, family2, pair.geometry.M)
    psi = evolve_tensor_backward(pair, K_eps, source=diagonal_source(family1, family2), rows=rows)
    phi = evolve_tensor_forward(pair, 0.0, source=psi.__getitem__, rows=rows)
    return {"phi": phi, "psi": psi}


def boundary_time_derivative(geometry, phi):
    """One-sided depth derivative at the boundary node of a field on ``geometry.collar_ts``.

    Assumes the field vanishes on the boundary slice (the BVP pins it);
    second order on the uniform collar step.
    """
    h = float(geometry.collar_ts[1] - geometry.collar_ts[0])
    if _norm(phi[0]) > 1e-13 * max(_norm(phi[1]), 1.0):
        raise GeometryError("boundary derivative assumes a pinned boundary slice")
    return (4.0 * phi[1] - phi[2]) / (2.0 * h)


def dn_recovery_check(family1, family2):
    """Headline check: rebuild the boundary map difference from the BVP.

    Solves the source problem, converts the boundary depth derivative of
    ``phi`` back to an operator with the slice weight, and reports its
    relative error against ``Lam1(0) - Lam2(0)``. Its ``stages`` keep rows
    0-3 of ``phi`` and ``psi``: rows 0-2 give the boundary derivative, and
    row 3 the depth difference at slice 2 of :func:`gradient_blowup_probe`.
    """
    g = family1.geometry
    stages = solve_source_bvp(family1, family2, rows=4)
    K0 = boundary_time_derivative(g, stages["phi"])
    recovered = K0 * g.node_weight(float(g.collar_ts[0]))
    target = family1.lams[0] - family2.lams[0]
    rel_error = _norm(recovered - target) / max(_norm(target), 1e-30)
    return {"rel_error": float(rel_error), "recovered": recovered, "target": target, "stages": stages}


def _strip_side(geometry, potential, f):
    """``(Lam(0), Lam(eps), q, u)`` of one potential, ``u`` the extension of ``f``; its family
    and the fresh chain of its interior solve are dropped on return."""
    family = compute_dn_family(geometry, potential)
    u = solve_interior(family, f)
    return family.lams[0].copy(), family.lams[geometry.M].copy(), family.q, u


def layer_strip_check(geometry, q1, q2, f1, f2):
    """Strip decomposition of the boundary pairing (independent quadrature).

    ``<(Lam1(0) - Lam2(0)) f1, f2>`` must equal the collar volume integral
    of ``(Q1 - Q2) u1 u2`` plus the same pairing at the collar depth with
    the extended traces. Both sides are computed from scratch: the left
    from the families of ``q1`` and ``q2`` on ``geometry``, the right from
    interior solves and the trapezoid rule. One family is held at a time:
    each is built, extends its data on a fresh chain and is dropped, keeping
    its two end maps, its collar potential and its trace, so the check peaks
    at two chain-sized arrays. Returns both sides and the relative gap.
    """
    g = geometry
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    lam1_0, lam1_eps, q1, u1 = _strip_side(g, q1, f1)
    lam2_0, lam2_eps, q2, u2 = _strip_side(g, q2, f2)

    lhs = g.node_weight(0.0) * float(np.dot((lam1_0 - lam2_0) @ f1, f2))

    ts = g.collar_ts
    slab_vals = np.empty(g.M + 1)
    for j in range(g.M + 1):
        slab_vals[j] = g.node_weight(float(ts[j])) * float(np.sum((q1[j] - q2[j]) * u1[j] * u2[j]))
    volume = float(np.trapezoid(slab_vals, ts))

    w_eps = g.node_weight(float(ts[-1]))
    deep = w_eps * float(np.dot((lam1_eps - lam2_eps) @ u1[g.M], u2[g.M]))
    rhs = volume + deep
    denom = max(abs(lhs), abs(rhs), 1e-30)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "volume_term": volume,
        "deep_term": deep,
        "rel_gap": abs(lhs - rhs) / denom,
    }
