"""Combinatorial exhaustion of triangulated surfaces with checkable certificates.

A surface with boundary is exhausted collar-first: every triangle touching
the boundary is seeded, then the region grows one triangle at a time across
shared edges. Each growth step records a certificate (triangle, shared
edge, donor) that an independent checker can replay against freshly built
adjacency, so the order never has to be trusted.

The push-through maps realize each growth step geometrically: a tube
around the shared edge inside the donor is pressed across the edge into
the new triangle by a C^1 blend that is the identity away from the edge,
lands on the Veronese parameterization at full depth (hence stays inside
the closed new triangle), and is injective. :func:`collar_map_samples`
drives a deterministic sample cloud through every step and reports
coverage and collision diagnostics.
"""

import heapq

import numpy as np

from .errors import FormatError, MeshError


# ---------------------------------------------------------------------------
# smoothed minimum
# ---------------------------------------------------------------------------


def smooth_min(x, y, eps):
    """Smooth approximation of ``min(x, y)`` within ``[min, min + eps/2]``.

    ``(x + y - sqrt(eps^2 + (x - y)^2) + eps) / 2``; exact as ``eps -> 0``
    and C^infinity for ``eps > 0``.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return 0.5 * (x + y - np.sqrt(eps**2 + (x - y) ** 2) + eps)


# ---------------------------------------------------------------------------
# surface meshes
# ---------------------------------------------------------------------------


class SurfaceMesh:
    """Triangle mesh with oriented faces.

    Construction validates edge-manifoldness (at most two triangles per
    edge) and orientation consistency (interior edges traversed in opposite
    directions by their two triangles).
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (2, 3):
            raise MeshError("vertices must be an (V, 2) or (V, 3) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        if self.vertices.shape[1] == 2:
            self.vertices = np.hstack([self.vertices, np.zeros((len(self.vertices), 1))])
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (F, 3) array")
        V = len(self.vertices)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= V):
            raise MeshError("triangle vertex index out of range")
        tris = self.triangles.tolist()  # plain ints, also in the messages
        for tri in tris:
            if len(set(tri)) != 3:
                raise MeshError(f"degenerate triangle {tuple(tri)}")

        directed = {}
        edge_tris = {}
        for f, (a, b, c) in enumerate(tris):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (min(u, v), max(u, v))
                edge_tris.setdefault(key, []).append(f)
                if len(edge_tris[key]) > 2:
                    raise MeshError(f"not edge-manifold: edge {key} borders 3+ triangles")
                if (u, v) in directed:
                    raise MeshError(
                        f"inconsistent orientation: edge ({u}, {v}) traversed twice"
                    )
                directed[(u, v)] = f
        self.edge_triangles = edge_tris
        self.boundary_edges = sorted(k for k, ts in edge_tris.items() if len(ts) == 1)
        self.boundary_vertices = sorted({v for e in self.boundary_edges for v in e})

    @property
    def n_triangles(self):
        return len(self.triangles)

    def is_closed(self):
        return not self.boundary_edges


def load_mesh(path):
    """Parse an OFF file (triangles only; comments and blank lines allowed)."""
    try:
        with open(path) as fh:
            tokens = []
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    tokens.extend(line.split())
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: unreadable mesh file ({exc})") from None
    if not tokens or tokens[0] != "OFF":
        raise FormatError(f"{path}: not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        pos = 4  # skip edge count
        verts = np.array(
            [[float(tokens[pos + 3 * i + k]) for k in range(3)] for i in range(nv)]
        )
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            arity = int(tokens[pos])
            if arity != 3:
                raise FormatError(f"{path}: only triangle faces supported, found {arity}-gon")
            faces.append([int(tokens[pos + 1 + k]) for k in range(3)])
            pos += 4
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: malformed OFF data ({exc})") from None
    return SurfaceMesh(verts, np.array(faces, dtype=int).reshape(nf, 3))


# ---------------------------------------------------------------------------
# exhaustion order
# ---------------------------------------------------------------------------


def exhaustion_order(mesh):
    """Deterministic collar-first exhaustion with per-step certificates.

    Returns ``(order, certificates)``. The collar seeds every triangle
    incident to a boundary vertex in ascending index order; growth steps
    absorb the candidate across the lowest canonical edge key. Raises on
    closed surfaces (no collar to start from) and on meshes whose triangles
    cannot all be reached through shared edges.
    """
    if mesh.is_closed():
        raise MeshError("closed surface: exhaustion needs a boundary collar")
    bset = set(mesh.boundary_vertices)
    collar = [f for f, tri in enumerate(mesh.triangles) if bset.intersection(tri)]
    order = list(collar)
    certs = [{"kind": "collar", "triangle": int(f)} for f in collar]
    done = set(collar)

    heap = []

    def push_frontier(f):
        a, b, c = mesh.triangles[f]
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            for g in mesh.edge_triangles[key]:
                if g not in done:
                    heapq.heappush(heap, (key, g, f))

    for f in collar:
        push_frontier(f)

    while heap:
        key, g, donor = heapq.heappop(heap)
        if g in done:
            continue
        done.add(g)
        order.append(g)
        certs.append(
            {"kind": "growth", "triangle": int(g), "edge": (int(key[0]), int(key[1])), "donor": int(donor)}
        )
        push_frontier(g)

    if len(done) != mesh.n_triangles:
        missing = sorted(set(range(mesh.n_triangles)) - done)
        raise MeshError(
            f"unreachable simplices: {len(missing)} triangles cannot be reached "
            f"from the boundary collar (first few: {missing[:8]})"
        )
    return order, certs


def verify_order(mesh, order, certificates):
    """Independent replay of an exhaustion order.

    Rebuilds adjacency from scratch (sets instead of the mesh's dicts) and
    checks: the order is a permutation of all triangles, collar certificates
    actually touch the boundary, and every growth certificate names a donor
    already absorbed that genuinely shares the claimed edge. Raises
    :class:`MeshError` on the first violation; returns True otherwise.
    """
    if sorted(order) != list(range(mesh.n_triangles)):
        raise MeshError("order is not a permutation of the triangles")
    if len(order) != len(certificates):
        raise MeshError("certificate count does not match the order")

    edge_count = {}
    for tri in mesh.triangles:
        for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            k = frozenset((int(u), int(v)))
            edge_count[k] = edge_count.get(k, 0) + 1
    boundary_verts = set()
    for k, cnt in edge_count.items():
        if cnt == 1:
            boundary_verts.update(k)

    seen = set()
    for step, (f, cert) in enumerate(zip(order, certificates)):
        if cert["triangle"] != f:
            raise MeshError(f"certificate {step} names triangle {cert['triangle']}, order has {f}")
        tri_verts = set(int(v) for v in mesh.triangles[f])
        if cert["kind"] == "collar":
            if not tri_verts & boundary_verts:
                raise MeshError(f"collar certificate for triangle {f} does not touch the boundary")
        elif cert["kind"] == "growth":
            donor = cert["donor"]
            edge = frozenset(cert["edge"])
            if donor not in seen:
                raise MeshError(f"growth certificate for triangle {f} cites unabsorbed donor {donor}")
            if not edge <= tri_verts:
                raise MeshError(f"claimed edge {sorted(edge)} is not an edge of triangle {f}")
            if not edge <= set(int(v) for v in mesh.triangles[donor]):
                raise MeshError(f"claimed edge {sorted(edge)} is not an edge of donor {donor}")
        else:
            raise MeshError(f"unknown certificate kind {cert['kind']!r}")
        seen.add(f)
    return True


# ---------------------------------------------------------------------------
# push-through maps
# ---------------------------------------------------------------------------


def _hermite(s, s0, s1, v0, v1, d0, d1):
    h = s1 - s0
    u = (s - s0) / h
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u**2 * (3 - 2 * u)
    h11 = u**2 * (u - 1)
    return h00 * v0 + h10 * h * d0 + h01 * v1 + h11 * h * d1


def _rho(s):
    """Push depth: 1 at the edge, C^1-flat zero at s = 1/2, linear below 0.45."""
    if s <= 0.45:
        return 1.0 - 2.0 * s
    if s >= 0.5:
        return 0.0
    return _hermite(s, 0.45, 0.5, 0.1, 0.0, -2.0, 0.0)


def _psi(s):
    """Donor-side compression: 0 at s = 1/2 rising to the identity at 0.6."""
    if s <= 0.5:
        return 0.0
    if s >= 0.6:
        return s
    return _hermite(s, 0.5, 0.6, 0.0, 0.6, 0.0, 1.0)


def push_through(bary):
    """Map one donor point across the shared edge.

    ``bary = (b_a, b_b, b_opp)`` are barycentric coordinates in the donor
    with the first two on the shared edge. Returns ``("new", bary')`` for
    points pressed into the neighbor (coordinates with respect to the
    shared edge and the neighbor's opposite vertex) or ``("donor", bary')``
    for points that stay. The tube is ``b_opp < x1 x2`` in normalized edge
    coordinates; outside it the map is the identity.
    """
    b1, b2, bo = (float(v) for v in bary)
    denom = 1.0 - bo
    if denom <= 1e-14:
        return "donor", (b1, b2, bo)
    x1, x2 = b1 / denom, b2 / denom
    eta = x1 * x2
    if eta <= 1e-14:
        return "donor", (b1, b2, bo)
    s = bo / eta
    if s >= 0.6:
        return "donor", (b1, b2, bo)
    if s >= 0.5:
        sp = _psi(s)
        return "donor", ((1.0 - sp * eta) * x1, (1.0 - sp * eta) * x2, sp * eta)
    rho = _rho(s)
    return "new", (x1 - rho * eta, x2 - rho * eta, 2.0 * rho * eta)


def _triangle_lattice(m):
    """Strictly interior barycentric lattice with (m+1)(m+2)/2 points."""
    pts = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            k = m - i - j
            pts.append(((i + 1.0 / 3.0), (j + 1.0 / 3.0), (k + 1.0 / 3.0)))
    return [(a / (m + 1.0), b / (m + 1.0), c / (m + 1.0)) for a, b, c in pts]


def _opposite(mesh, tri_idx, edge):
    """Vertex of triangle ``tri_idx`` that is not on ``edge``."""
    return next(int(v) for v in mesh.triangles[tri_idx] if v not in edge)


def collar_map_samples(mesh, order=None, certificates=None, samples_per_cell=4):
    """Drive a deterministic sample cloud through every push-through step.

    For each growth step, the donor triangle is sampled on an interior
    barycentric lattice and pushed across the shared edge. The push depends
    only on the lattice point, so it is computed once: every pushed point
    must stay inside the closed simplex, and at least one must land strictly
    inside the new triangle (coverage). Checked per step: no two distinct
    samples collide (world distance below 1e-9 flags a pair).
    Returns summary statistics; raises :class:`MeshError` on coverage
    failure or containment violation, and reports collisions as a count.
    """
    if samples_per_cell < 4:
        raise MeshError("push-through sampling needs samples_per_cell >= 4 for coverage")
    if order is None or certificates is None:
        order, certificates = exhaustion_order(mesh)
    lattice = _triangle_lattice(samples_per_cell)
    # lattice points are given on (shared edge, opposite vertex) of the donor
    pushed = [push_through(b) for b in lattice]
    for b, (_, out) in zip(lattice, pushed):
        if min(out) < -1e-12 or abs(sum(out) - 1.0) > 1e-9:
            raise MeshError(f"push-through left the simplex at lattice point {b}: {out}")
    into_new = np.array([region == "new" for region, _ in pushed])
    B = np.array([out for _, out in pushed])
    new_count = int(into_new.sum())
    P = mesh.vertices
    iu = np.triu_indices(len(lattice), k=1)
    min_pair = np.inf
    collisions = 0
    n_growth = 0
    for cert in certificates:
        if cert["kind"] != "growth":
            continue
        n_growth += 1
        tri = cert["triangle"]
        if new_count == 0:
            raise MeshError(f"no sample pushed into triangle {tri}; coverage failed")
        e0, e1 = cert["edge"]
        opp = np.where(
            into_new, _opposite(mesh, tri, (e0, e1)), _opposite(mesh, cert["donor"], (e0, e1))
        )
        pts = B[:, 0, None] * P[e0] + B[:, 1, None] * P[e1] + B[:, 2, None] * P[opp]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        dist = np.sqrt(d2[iu])
        min_pair = min(min_pair, float(dist.min()))
        collisions += int(np.sum(dist < 1e-9))
    return {
        "growth_steps": n_growth,
        "samples_per_step": len(lattice),
        "min_new_samples": None if n_growth == 0 else new_count,
        "min_pair_distance": None if n_growth == 0 else float(min_pair),
        "collisions": collisions,
    }
