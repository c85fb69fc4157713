"""Reference implementations that only the tests use.

Each is a small, literal form of something the library computes another
way: a closed test surface, whole-array depth stencils, a per-mode mirror
of the factorized squared operator, the dense Kronecker pair generator,
an OFF reader that splits every token, and the coercivity constants of a
boundary map (acceptance criterion 12). The stencil wrappers call the
row formulas (:func:`evosq.squared._d1`, :func:`evosq.squared._d2`) that
:func:`evosq.squared.kernel_residual` runs, so checking them checks the
stencils the library uses.
"""

import re

import numpy as np

from evosq.dnmap import lambda_min
from evosq.errors import FormatError
from evosq.exhaustion import SurfaceMesh
from evosq.geometry import fourier_matrix
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


def load_mesh(path):
    """Parse an OFF file (triangles only; comments and blank lines allowed).

    The all-token reference for :func:`evosq.exhaustion.load_mesh`: every
    token is a Python string, and numpy reads each as ``float()`` and
    ``int()`` do.
    """
    try:
        with open(path) as fh:
            tokens = re.sub("#.*", "", fh.read()).split()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: unreadable mesh file ({exc})") from None
    if not tokens or tokens[0] != "OFF":
        raise FormatError(f"{path}: not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 0 or nf < 0:
            raise ValueError(f"negative count in header: {nv} vertices, {nf} faces")
        vend = 4 + 3 * nv  # tokens[3] is the edge count, which is not read
        fend = vend + 4 * nf
        if len(tokens) < fend:
            raise ValueError(f"the header needs {fend} tokens, the file has {len(tokens)}")
        # numpy parses each token as float() and int() do
        verts = np.array(tokens[4:vend], dtype=float)
        faces = np.array(tokens[vend:fend], dtype=int).reshape(nf, 4)
    except (IndexError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed OFF data ({exc})") from None
    polygons = np.flatnonzero(faces[:, 0] != 3)
    if polygons.size:
        arity = faces[polygons[0], 0]
        raise FormatError(f"{path}: only triangle faces supported, found {arity}-gon")
    # an empty vertex block is (0, 3): a file without vertices is a mesh without triangles
    return SurfaceMesh(verts.reshape(nv, 3), faces[:, 1:])


def coercivity_probe(family):
    """Exact ``C1`` of ``<A f, f>_s >= C1 |f|_{s+1/2}^2 - C2 |f|_s^2`` over all f, s = -1, -1/2, 0.

    ``A`` is the boundary map, ``<u, f>_s = f^T J_s u`` and ``|f|_s^2 = <f, f>_s``
    with ``J_s = (1 + L_0)^s``, the Fourier multiplier of symbol
    ``(1 + k^2 / r(0)^2)^s`` (the node weight scales both sides and drops out).
    With ``C2 = 1`` the largest such ``C1`` is :func:`lambda_min` of
    ``J_{s+1/2}^{-1/2} (sym(J_s A) + J_s) J_{s+1/2}^{-1/2}``. Failure flag:
    ``C1 <= 0`` for any ``s``.
    """
    g = family.geometry
    lam0 = family.lams[0]
    ksq = (g.wavenumbers() / float(g.profile.r(0.0))) ** 2
    results = {}
    for s in (-1.0, -0.5, 0.0):
        J = fourier_matrix((1.0 + ksq) ** s)
        R = fourier_matrix((1.0 + ksq) ** (-0.5 * (s + 0.5)))
        C = R @ J @ (lam0 + np.eye(g.N)) @ R  # its symmetric part is the matrix above
        c1 = lambda_min(0.5 * (C + C.T))
        results[s] = {"C1": c1, "C2": 1.0, "coercive": c1 > 0.0}
    return results
