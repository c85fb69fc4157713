"""Combinatorial exhaustion of triangulated surfaces by checkable orders.

A surface with boundary is exhausted collar-first: every triangle touching
the boundary is seeded, then the region grows one triangle at a time across
shared edges. The order is the only record. An independent checker replays
it against freshly built adjacency and rederives each growth step (shared
edge, donor) from the mesh, so the order never has to be trusted.

The push-through maps realize each growth step geometrically: a tube
around the shared edge inside the donor is pressed across the edge into
the new triangle by a C^1 blend that is the identity away from the edge,
lands on the Veronese parameterization at full depth (hence stays inside
the closed new triangle), and is injective. :func:`collar_map_samples`
drives a deterministic sample cloud through every replayed step and
reports coverage and collision diagnostics.

Only the growth order is a Python loop, and one loop: a heap of integer
entries built once, before it, from the side tables a mesh keeps as
arrays (each triangle side's edge rank in canonical key order and the
triangle across it), one entry a side. The mesh checks, the OFF parser
and the order replay are whole-array passes that report the first
violation in scan order, and the sample cloud is pushed through blocks
of growth steps sized to a fixed number of sample images, whose pairs
are measured one lattice offset at a time. The OFF parser splits only the
header and the vertex block into tokens and parses the face block in C;
a file whose face block that parse cannot read exactly as ``int()`` does
is split token by token, so its arrays and errors are the same.
"""

import heapq
import re
import warnings

import numpy as np

from .errors import FormatError, MeshError

# Sample images built per block by :func:`collar_map_samples`: 1024 growth
# steps of the 15 samples at samples_per_cell=4. A block holds 369 kB of
# images and about twice that in temporaries at any density, unless one
# step alone has more samples (a block holds one step at least).
_BLOCK_IMAGES = 1024 * 15


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
    directions by their two triangles). It keeps the side tables as
    ``(F, 3)`` int arrays, side ``s`` of triangle ``(a, b, c)`` running
    from its ``s``-th vertex to the next: ``side_keys`` holds the rank of
    that edge among the mesh's edges in canonical key order (``lo * V + hi``,
    ranks ``0, 1, ...``), and ``across`` the other triangle on it, or -1 on
    the boundary.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (V, 3) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (F, 3) array")
        V = len(self.vertices)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= V):
            raise MeshError("triangle vertex index out of range")
        T = self.triangles
        degenerate = np.flatnonzero(
            (T[:, 0] == T[:, 1]) | (T[:, 1] == T[:, 2]) | (T[:, 2] == T[:, 0])
        )
        if degenerate.size:
            raise MeshError(f"degenerate triangle {tuple(T[degenerate[0]].tolist())}")

        # Directed edges (a, b), (b, c), (c, a) of every triangle in scan
        # order; a stable sort by canonical key lists each edge's uses in
        # that order, so rank r is the (r+1)-th use of its edge.
        u, v = T.ravel(), np.roll(T, -1, axis=1).ravel()
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * V + hi
        by_key = np.argsort(keys, kind="stable")
        key = keys[by_key]
        starts = np.ones(len(key), dtype=bool)
        starts[1:] = key[1:] != key[:-1]
        use = np.arange(len(key))
        rank = use - np.maximum.accumulate(np.where(starts, use, 0))
        # the first error in scan order is the earlier of a third use of an
        # edge (its count is checked before its direction) and a second use
        # in the direction of the first; any later use follows a third one
        third = by_key[rank == 2]
        second = np.flatnonzero(rank == 1)
        repeated = by_key[second[u[by_key[second]] == u[by_key[second - 1]]]]
        if third.size or repeated.size:
            p = int(np.concatenate([third, repeated]).min())
            if p in third:
                raise MeshError(
                    f"not edge-manifold: edge {(int(lo[p]), int(hi[p]))} borders 3+ triangles"
                )
            raise MeshError(f"inconsistent orientation: edge ({u[p]}, {v[p]}) traversed twice")

        # with no third use left, the two uses of an interior edge sit at
        # sorted positions second - 1 and second; every other edge is used once
        a, b = by_key[second - 1], by_key[second]
        across = np.full(len(keys), -1)
        across[a], across[b] = b // 3, a // 3
        # each side's edge rank in key order, written over the sorted and the scan-order keys
        np.cumsum(starts, out=key)
        key -= 1
        keys[by_key] = key
        self.side_keys, self.across = keys.reshape(-1, 3), across.reshape(-1, 3)
        alone = starts.copy()
        alone[second - 1] = False
        single = by_key[alone]
        self.boundary_edges = list(zip(lo[single].tolist(), hi[single].tolist()))
        self.boundary_vertices = np.unique(np.concatenate([lo[single], hi[single]])).tolist()

    @property
    def n_triangles(self):
        return len(self.triangles)

    def is_closed(self):
        return not self.boundary_edges


def _face_block(text, count):
    """The first ``count`` integers of the face block ``text``, or None.

    Parsed in C, and kept only where that parse reads every token as
    ``int()`` does. So a text holding a sign is refused (numpy joins a sign
    to digits across whitespace and reads a lone one as 0), as is one where
    the parse stops early (a ValueError, or a DeprecationWarning on older
    numpy) or a kept value reaches 2**62 (an overflow is clamped silently).
    ``count=`` is never passed: past the last token it returns
    uninitialized values.
    """
    if "-" in text or "+" in text:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, dtype=np.int64, sep=" ")[:count]
        except (ValueError, DeprecationWarning):
            return None
    if len(values) < count or values.max(initial=0) >= 2**62:
        return None
    return values


def load_mesh(path):
    """Parse an OFF file (triangles only; comments and blank lines allowed).

    Each array and error is what ``float()`` and ``int()`` make of the
    file's tokens, whether :func:`_face_block` reads the face block or not.
    """
    try:
        with open(path) as fh:
            text = re.sub("#.*", "", fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: unreadable mesh file ({exc})") from None
    tokens = text.split(None, 3)
    if not tokens or tokens[0] != "OFF":
        raise FormatError(f"{path}: not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 0 or nf < 0:
            raise ValueError(f"negative count in header: {nv} vertices, {nf} faces")
        vend = 4 + 3 * nv  # tokens[3] is the edge count, which is not read
        fend = vend + 4 * nf
        # a file with more than vend tokens keeps its face block as one string;
        # it has more than vend characters, so a huge count never reaches split()
        tokens = text.split(None, vend) if vend < len(text) else []
        faces = _face_block(tokens[vend], 4 * nf) if len(tokens) > vend else None
        if faces is None:
            tokens = text.split()
            if len(tokens) < fend:
                raise ValueError(f"the header needs {fend} tokens, the file has {len(tokens)}")
        # numpy parses each token as float() and int() do; strtod would also take hex and nan(...)
        verts = np.array(tokens[4:vend], dtype=float)
        if faces is None:
            faces = np.array(tokens[vend:fend], dtype=int)
        faces = faces.reshape(nf, 4)
    except (IndexError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed OFF data ({exc})") from None
    polygons = np.flatnonzero(faces[:, 0] != 3)
    if polygons.size:
        arity = faces[polygons[0], 0]
        raise FormatError(f"{path}: only triangle faces supported, found {arity}-gon")
    # an empty vertex block is (0, 3): a file without vertices is a mesh without triangles
    return SurfaceMesh(verts.reshape(nv, 3), faces[:, 1:])


# ---------------------------------------------------------------------------
# exhaustion order
# ---------------------------------------------------------------------------


def exhaustion_order(mesh):
    """Deterministic collar-first exhaustion order, a list of triangles.

    The collar seeds every triangle incident to a boundary vertex in
    ascending index order; each growth step absorbs the candidate across
    the lowest canonical edge key it shares with an absorbed triangle.
    Each candidate ``g`` across the side ``(lo, hi)`` of an absorbed
    triangle, read from the mesh's side tables, enters a heap as the one
    integer ``r * F + g``, ``r`` the edge's rank in canonical key order,
    which orders as the tuple ``((lo, hi), g)`` does, since ``g < F``; with
    fewer than ``3 F`` edges it stays below ``3 F^2``. The order is
    its own record: :func:`verify_order` rederives each growth step's
    donor and edge from the mesh. Raises on a mesh without triangles, on
    closed surfaces (no collar to start from) and on meshes whose
    triangles cannot all be reached through shared edges.
    """
    n = mesh.n_triangles
    if n == 0:
        raise MeshError("mesh has no triangles")
    if mesh.is_closed():
        raise MeshError("closed surface: exhaustion needs a boundary collar")
    on_boundary = np.zeros(len(mesh.vertices), dtype=bool)
    on_boundary[mesh.boundary_vertices] = True
    in_collar = on_boundary[mesh.triangles].any(axis=1)
    order = np.flatnonzero(in_collar).tolist()
    # plain ints: cheap heap comparisons; the boundary's -1 across a side
    # reads the trailing sentinel, which counts as absorbed
    done, across = in_collar.tolist() + [True], mesh.across.ravel().tolist()
    # one entry a side; flat lists hold no objects the GC tracks
    entries = (mesh.side_keys * n + mesh.across).ravel().tolist()
    heap, last, heappush, heappop = [], order[-1], heapq.heappush, heapq.heappop
    # the order grows while it is read: after the last triangle's candidates enter the
    # heap, the least entry not yet absorbed is the next growth step
    for f in order:
        s = 3 * f
        if not done[across[s]]:
            heappush(heap, entries[s])
        if not done[across[s + 1]]:
            heappush(heap, entries[s + 1])
        if not done[across[s + 2]]:
            heappush(heap, entries[s + 2])
        if f == last:
            while heap:
                g = heappop(heap) % n
                if not done[g]:
                    done[g] = True
                    order.append(g)
                    last = g
                    break

    if len(order) != n:
        missing = [f for f, absorbed in enumerate(done[:n]) if not absorbed]
        raise MeshError(
            f"unreachable simplices: {len(missing)} triangles cannot be reached "
            f"from the boundary collar (first few: {missing[:8]})"
        )
    return order


def verify_order(mesh, order):
    """Independent replay of an exhaustion order; its growth steps.

    Rebuilds adjacency from the triangles alone (not from the mesh's side
    tables) and checks that the order is a permutation of all triangles. A
    triangle with a boundary vertex is a collar step; every other triangle
    is a growth step and must share an edge with a triangle earlier in the
    order. All steps are tested at once; :class:`MeshError` names the
    first step that fails. Returns the growth steps in order as int arrays
    ``(triangle, donor, edge_lo, edge_hi)``: the shared edge is the least
    canonical key among the triangle's edges with an earlier neighbor (the
    one :func:`exhaustion_order` absorbs it across), the donor that
    neighbor.
    """
    n = mesh.n_triangles
    o = np.asarray(order)
    if o.shape != (n,) or not np.array_equal(np.sort(o), np.arange(n)):
        raise MeshError("order is not a permutation of the triangles")

    T, V = mesh.triangles, len(mesh.vertices)
    u, v = T.ravel(), np.roll(T, -1, axis=1).ravel()
    keys = np.minimum(u, v) * V + np.maximum(u, v)
    # the two uses of an interior edge are adjacent after a sort by key
    by_key = np.argsort(keys, kind="stable")
    twice = np.flatnonzero(keys[by_key[1:]] == keys[by_key[:-1]])
    first, second = by_key[twice], by_key[twice + 1]
    neighbor = np.full(3 * n, -1)
    neighbor[first], neighbor[second] = second // 3, first // 3
    on_boundary = np.zeros(V, dtype=bool)
    on_boundary[u[neighbor < 0]] = True
    on_boundary[v[neighbor < 0]] = True

    o = o.astype(int)
    absorbed_at = np.empty(n, dtype=int)
    absorbed_at[o] = np.arange(n)
    nb = neighbor.reshape(n, 3)[o]
    earlier = (nb >= 0) & (absorbed_at[nb] < np.arange(n)[:, None])
    growth = ~on_boundary[T[o]].any(axis=1)
    failed = growth & ~earlier.any(axis=1)
    if failed.any():
        s = int(np.argmax(failed))
        raise MeshError(
            f"step {s}: triangle {o[s]} touches no boundary vertex and shares "
            "no edge with an earlier triangle"
        )

    steps = np.flatnonzero(growth)
    tri = o[steps]
    edge_keys = np.where(earlier[steps], keys.reshape(n, 3)[tri], V * V)
    side = edge_keys.argmin(axis=1)[:, None]
    key = np.take_along_axis(edge_keys, side, axis=1)[:, 0]
    donor = np.take_along_axis(nb[steps], side, axis=1)[:, 0]
    return tri, donor, key // V, key % V


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
    n = m + 1.0
    return [((i + 1 / 3) / n, (j + 1 / 3) / n, (m - i - j + 1 / 3) / n)
            for i in range(m + 1) for j in range(m + 1 - i)]


def collar_map_samples(mesh, order, samples_per_cell=4):
    """Drive a deterministic sample cloud through every push-through step.

    The order is replayed by :func:`verify_order` first, so only growth
    steps the mesh confirms are sampled. For each growth step, the donor
    triangle is sampled on an interior barycentric lattice and pushed
    across the shared edge. The push depends only on the lattice point, so
    it is computed once: every pushed point must stay inside the closed
    simplex, and at least one must land strictly inside the new triangle
    (coverage). Checked per step: no two distinct samples collide (world
    distance below 1e-9 flags a pair). The images of as many steps as make
    ``_BLOCK_IMAGES`` samples are built together, pressed samples first, as
    a ``(3, samples, steps)`` array with each step's arithmetic unchanged;
    lattice offset ``i`` measures the pairs ``(j, j + i)`` of every step at
    once, so no pair table is gathered and the result does not depend on
    the block. Returns summary statistics; raises :class:`MeshError` on an
    order the replay refuses, coverage failure or containment violation,
    and reports collisions as a count.
    """
    if samples_per_cell < 4:
        raise MeshError("push-through sampling needs samples_per_cell >= 4 for coverage")
    tri, donor, e0, e1 = verify_order(mesh, order)
    lattice = _triangle_lattice(samples_per_cell)
    # lattice points are given on (shared edge, opposite vertex) of the donor
    pushed = [push_through(b) for b in lattice]
    for b, (_, out) in zip(lattice, pushed):
        if min(out) < -1e-12 or abs(sum(out) - 1.0) > 1e-9:
            raise MeshError(f"push-through left the simplex at lattice point {b}: {out}")
    new_count = sum(region == "new" for region, _ in pushed)
    n_growth = len(tri)
    if n_growth and new_count == 0:
        raise MeshError(f"no sample pushed into triangle {tri[0]}; coverage failed")
    # pressed samples first, stably: rows [:new_count] take the new triangle's opposite vertex
    pushed.sort(key=lambda p: p[0] != "new")
    b0, b1, b2 = np.array([out for _, out in pushed]).T[:, :, None]
    # both triangles hold the shared edge, so their third vertex is the rest of their sum
    opp_new, opp_donor = mesh.triangles[np.stack([tri, donor])].sum(axis=-1) - e0 - e1
    Pt = np.ascontiguousarray(mesh.vertices.T)
    min_pair, collisions = np.inf, 0
    steps = max(1, _BLOCK_IMAGES // len(lattice))
    for lo in range(0, n_growth, steps):
        block = slice(lo, lo + steps)
        # (xyz, samples, steps) images with each step's arithmetic
        pts = b0 * Pt[:, None, e0[block]] + b1 * Pt[:, None, e1[block]]
        pts[:, :new_count] += b2[:new_count] * Pt[:, None, opp_new[block]]
        pts[:, new_count:] += b2[new_count:] * Pt[:, None, opp_donor[block]]
        # each unordered pair once; a pair the reordering flips negates d, and
        # the squared distances add x, y, z left to right. sqrt is monotone
        # and correctly rounded, so the root of the least square is the least
        # distance, and only an offset with a collision counts its distances
        for i in range(1, len(lattice)):
            d = pts[:, :-i] - pts[:, i:]
            d *= d
            d2 = d[0] + d[1]
            d2 += d[2]
            low = np.sqrt(d2.min())
            min_pair = min(min_pair, float(low))
            if low < 1e-9:
                collisions += int(np.count_nonzero(np.sqrt(d2) < 1e-9))
    return {
        "growth_steps": n_growth,
        "samples_per_step": len(lattice),
        "min_new_samples": None if n_growth == 0 else new_count,
        "min_pair_distance": None if n_growth == 0 else float(min_pair),
        "collisions": collisions,
    }
