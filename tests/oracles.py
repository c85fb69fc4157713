"""Reference implementations that only the tests use.

Each is a small, literal form of something the library computes another
way: a closed test surface, whole-array depth stencils, a per-mode mirror
of the factorized squared operator, and the dense Kronecker pair
generator. The stencil wrappers call the row formulas
(:func:`evosq.squared._d1`, :func:`evosq.squared._d2`) that
:func:`evosq.squared.kernel_residual` runs, so checking them checks the
stencils the library uses.
"""

import numpy as np

from evosq.exhaustion import SurfaceMesh
from evosq.squared import _d1, _d2, _uniform_step


def sphere_mesh(subdivisions=2):
    """Closed subdivided octahedron (no boundary; exhaustion must refuse it)."""
    verts = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    ]
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    verts = [np.asarray(v, dtype=float) for v in verts]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    return SurfaceMesh(np.array(verts), np.array(faces))


def sbp_derivative(u, ts):
    """SBP(2,1) first derivative of ``u`` along its first (depth) axis.

    Centered inside, one-sided first order at both ends: the matrix ``D``
    with ``Omega D + D^T Omega = diag(-1, 0, ..., 0, 1)`` for the trapezoid
    norm ``Omega``. Returns one new array.
    """
    h = _uniform_step(ts)
    return np.array([_d1(u, k, len(u) - 1, h) for k in range(len(u))], dtype=float)


def second_derivative(u, ts):
    """Centered second derivative along the first axis; 4-point one-sided end rows (all O(h^2))."""
    h = _uniform_step(ts)
    return np.array([_d2(u, k, len(u) - 1, h) for k in range(len(u))], dtype=float)


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


def kron_generator(lam1, lam2):
    """Dense Kronecker form of the pair generator (small-N checks only)."""
    n = lam1.shape[0]
    return np.kron(lam1, np.eye(n)) + np.kron(np.eye(n), lam2)
