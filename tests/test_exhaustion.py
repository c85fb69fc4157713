import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evosq.errors import FormatError, MeshError
from evosq.exhaustion import (
    _BLOCK_PAIRS,
    SurfaceMesh,
    _triangle_lattice,
    collar_map_samples,
    exhaustion_order,
    load_mesh,
    push_through,
    smooth_min,
    verify_order,
)
from evosq.meshes import annulus_mesh, disk_mesh, save_off, strip_mesh
from evosq.rng import SplitMix64
from tests.oracles import sphere_mesh

# reproducible example sets, no example database written beside the tests
_EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=200)


# -- smoothed minimum ---------------------------------------------------------


def test_smooth_min_bracket_sweep():
    rng = SplitMix64(42)
    eps = 0.3
    worst = 0.0
    for _ in range(5000):
        x = 10.0 * (rng.next_float() - 0.5)
        y = 10.0 * (rng.next_float() - 0.5)
        v = smooth_min(x, y, eps)
        m = min(x, y)
        assert m <= v <= m + 0.5 * eps + 1e-12
        worst = max(worst, v - m)
    # the bound is attained (at x == y) up to sweep granularity
    assert worst > 0.1


def test_smooth_min_exact_at_ties():
    # ties are exact; the excess grows with |x - y| toward (but below) eps/2
    assert smooth_min(1.0, 1.0, 0.3) == 1.0
    near = smooth_min(1.0, 1.1, 0.3) - 1.0
    far = smooth_min(1.0, 9.0, 0.3) - 1.0
    assert 0.0 < near < far < 0.15


def test_smooth_min_symmetric():
    assert smooth_min(1.0, 2.0, 0.2) == smooth_min(2.0, 1.0, 0.2)
    v = smooth_min(-5.0, 7.0, 0.2)
    assert -5.0 <= v <= -5.0 + 0.1


def test_smooth_min_eps_validation():
    with pytest.raises(ValueError, match="positive"):
        smooth_min(1.0, 2.0, 0.0)


# -- mesh construction and parsing ----------------------------------------------


def test_mesh_boundary_detection():
    m = strip_mesh(3, 2)
    assert m.n_triangles == 12
    assert not m.is_closed()
    assert len(m.boundary_vertices) == 10  # all perimeter vertices of a 3x2 grid
    s = sphere_mesh(1)
    assert s.is_closed()
    assert s.boundary_edges == []


def test_mesh_validation_errors():
    tri = np.array([[0, 1, 2]])
    with pytest.raises(MeshError, match="vertices"):
        SurfaceMesh(np.zeros((3,)), tri)
    # (V, 2) coordinates are not padded: every generator and load_mesh give (V, 3)
    with pytest.raises(MeshError, match=r"^vertices must be an \(V, 3\) array$"):
        SurfaceMesh(np.zeros((3, 2)), tri)
    with pytest.raises(MeshError, match="out of range"):
        SurfaceMesh(np.zeros((2, 3)), tri)
    # the messages print plain ints, not numpy scalar reprs
    with pytest.raises(MeshError, match=r"^degenerate triangle \(0, 1, 1\)$"):
        SurfaceMesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]])
    with pytest.raises(MeshError, match=r"not edge-manifold: edge \(0, 1\) borders"):
        SurfaceMesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
    with pytest.raises(MeshError, match=r"inconsistent orientation: edge \(0, 1\) traversed"):
        SurfaceMesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))


def _scan_order_mesh_check(triangles):
    """Reference: the first degenerate, non-manifold or orientation error in
    scan order, or the edge table and boundary lists of a valid mesh."""
    for tri in triangles:
        if len(set(tri)) != 3:
            return f"degenerate triangle {tuple(tri)}"
    directed, edge_tris = set(), {}
    for f, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            edge_tris.setdefault(key, []).append(f)
            if len(edge_tris[key]) > 2:
                return f"not edge-manifold: edge {key} borders 3+ triangles"
            if (u, v) in directed:
                return f"inconsistent orientation: edge ({u}, {v}) traversed twice"
            directed.add((u, v))
    boundary = sorted(k for k, ts in edge_tris.items() if len(ts) == 1)
    return edge_tris, boundary, sorted({v for e in boundary for v in e})


_SOUP_BASE = strip_mesh(2, 2)  # 8 triangles on 9 vertices
_VERTEX = st.integers(0, len(_SOUP_BASE.vertices) - 1)


@st.composite
def _triangle_soups(draw):
    """The strip's faces in any order and rotation, with a few flipped,
    dropped or inserted (possibly degenerate) faces."""
    tris = draw(st.permutations(_SOUP_BASE.triangles.tolist()))
    shifts = draw(st.lists(st.integers(0, 2), min_size=len(tris), max_size=len(tris)))
    tris = [t[r:] + t[:r] for t, r in zip(tris, shifts)]
    edits = st.tuples(
        st.sampled_from(["flip", "drop", "insert"]),
        st.integers(0, len(tris) - 1),
        st.lists(_VERTEX, min_size=3, max_size=3),
    )
    for edit, at, extra in draw(st.lists(edits, max_size=4)):
        at = min(at, len(tris) - 1)
        if edit == "flip" and tris:
            tris[at] = tris[at][::-1]
        elif edit == "drop" and len(tris) > 1:
            del tris[at]
        elif edit == "insert":
            tris.insert(at, extra)
    return tris


@_EXAMPLES
@given(_triangle_soups())
def test_mesh_checks_match_a_scan_order_loop(triangles):
    expected = _scan_order_mesh_check(triangles)
    if isinstance(expected, str):
        with pytest.raises(MeshError) as err:
            SurfaceMesh(_SOUP_BASE.vertices, triangles)
        assert str(err.value) == expected
    else:
        m = SurfaceMesh(_SOUP_BASE.vertices, triangles)
        assert (_edge_triangles(m), m.boundary_edges, m.boundary_vertices) == expected


def _edge_triangles(mesh):
    """Each edge's triangles in scan order, read from the side tables."""
    edges = {}
    for f, (tri, across) in enumerate(zip(mesh.triangles.tolist(), mesh.across.tolist())):
        for s, g in enumerate(across):
            # side s runs from vertex s to the next; the first triangle to reach an
            # edge comes first, the one across it second
            a, b = tri[s], tri[(s + 1) % 3]
            edges.setdefault((min(a, b), max(a, b)), [f] + [g] * (g >= 0))
    return edges


@pytest.mark.parametrize(
    "mesh", [strip_mesh(3, 2), annulus_mesh(3, 7), disk_mesh(4, 12), sphere_mesh(1)],
    ids=["strip", "annulus", "disk", "sphere"],
)
def test_side_keys_are_dense_canonical_ranks(mesh):
    # side s of each triangle gets its edge's rank among the distinct keys lo * V + hi
    T, V = mesh.triangles, len(mesh.vertices)
    u, v = T, np.roll(T, -1, axis=1)
    keys = (np.minimum(u, v) * V + np.maximum(u, v)).ravel()
    ranks = np.unique(keys, return_inverse=True)[1].reshape(T.shape)
    assert np.array_equal(mesh.side_keys, ranks)


def test_off_round_trip(tmp_path):
    m = annulus_mesh(2, 8)
    p = tmp_path / "annulus.off"
    save_off(p, m)
    back = load_mesh(p)
    assert np.array_equal(back.triangles, m.triangles)
    assert np.allclose(back.vertices, m.vertices)


def test_off_accepts_comments(tmp_path):
    p = tmp_path / "tri.off"
    p.write_text("OFF # header\n# a comment line\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    m = load_mesh(p)
    assert m.n_triangles == 1


def test_off_without_vertices_is_a_mesh_without_triangles(tmp_path):
    # the empty vertex block was kept 1-D and refused as a vertex-shape error
    p = tmp_path / "empty.off"
    p.write_text("OFF\n0 0 0\n")
    m = load_mesh(p)
    assert m.vertices.shape == (0, 3) and m.n_triangles == 0
    with pytest.raises(MeshError, match="mesh has no triangles"):
        exhaustion_order(m)
    p.write_text("OFF\n0 1 0\n3 0 1 2\n")  # a face needs vertices to index
    with pytest.raises(MeshError, match="index out of range"):
        load_mesh(p)


def test_off_parse_errors(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("PLY\n3 1 0\n")
    with pytest.raises(FormatError, match="not an OFF file"):
        load_mesh(p)
    p.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n4 0 1 2 3\n")
    with pytest.raises(FormatError, match="4-gon"):
        load_mesh(p)
    p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1 2\n")
    with pytest.raises(FormatError, match="2-gon"):
        load_mesh(p)
    p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(FormatError, match="malformed"):
        load_mesh(p)


_FUZZ_OFF = "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n".split()
_FUZZ_VALUES = [
    "nan", "inf", "-inf", "1e400", "abc", "3.5", "-1", "0", "3", "4", "#",
    "99999999999999999999", "-99999999999999999999", "1000000000000000000",
]


@st.composite
def _damaged_off(draw):
    """The text of a two-triangle OFF file after a few edits: truncation,
    a count, coordinate, face entry or token replaced by a bad, huge or
    non-finite value, or a token dropped or inserted."""
    tokens = list(_FUZZ_OFF)
    value = st.one_of(st.sampled_from(_FUZZ_VALUES), st.integers(-(10**30), 10**30).map(str))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(tokens) - 1, 0)))
        edit = draw(
            st.sampled_from(["truncate", "recount", "vertex", "face", "replace", "drop", "insert"])
        )
        if edit == "truncate":
            del tokens[at:]
        elif edit == "recount" and len(tokens) > 2:
            tokens[draw(st.integers(1, 2))] = draw(value)
        elif edit == "vertex" and len(tokens) > 15:
            tokens[draw(st.integers(4, 15))] = draw(value)
        elif edit == "face" and len(tokens) > 16:
            tokens[draw(st.integers(16, len(tokens) - 1))] = draw(value)
        elif edit == "replace" and tokens:
            tokens[at] = draw(value)
        elif edit == "drop" and tokens:
            del tokens[at]
        elif edit == "insert":
            tokens.insert(at, draw(value))
    return "\n".join(tokens)


@_EXAMPLES
@given(_damaged_off())
def test_off_loader_raises_only_format_or_mesh_errors(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "damaged.off"
    p.write_text(text)
    try:
        load_mesh(p)
    except (FormatError, MeshError):
        pass


# -- exhaustion order and verification --------------------------------------------


def test_exhaustion_deterministic():
    m = annulus_mesh(4, 12)
    o1 = exhaustion_order(m)
    assert o1 == exhaustion_order(m)
    verify_order(m, o1)


def test_exhaustion_covers_all_triangles():
    m = disk_mesh(5, 16)
    order = exhaustion_order(m)
    assert sorted(order) == list(range(m.n_triangles))
    grown = verify_order(m, order)[0]
    assert 0 < len(grown) < m.n_triangles  # both collar and growth steps


def test_exhaustion_refuses_closed_surface():
    with pytest.raises(MeshError, match="closed surface"):
        exhaustion_order(sphere_mesh(1))


def test_exhaustion_reports_unreachable_component():
    # strip with boundary plus a disjoint tetrahedron (closed component)
    strip = strip_mesh(1, 1)
    nv = len(strip.vertices)
    tet_verts = np.array([[3.0, 0, 0], [4, 0, 0], [3.5, 1, 0], [3.5, 0.5, 1]])
    tet_faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]) + nv
    m = SurfaceMesh(
        np.vstack([strip.vertices, tet_verts]),
        np.vstack([strip.triangles, tet_faces]),
    )
    with pytest.raises(MeshError, match="unreachable simplices"):
        exhaustion_order(m)


def test_exhaustion_refuses_a_mesh_without_triangles():
    # no triangle has a boundary edge either; this was reported as a closed surface
    with pytest.raises(MeshError, match="mesh has no triangles"):
        exhaustion_order(SurfaceMesh(np.eye(3), np.zeros((0, 3), dtype=int)))


def _ordered_by_an_edge_dict(triangles):
    """Reference: the growth order from a dict of each edge's triangles and a
    heap of ``((lo, hi), triangle)`` tuples, or the message it raises."""
    edge_triangles, boundary, boundary_vertices = _scan_order_mesh_check(triangles)
    if not boundary:
        return "closed surface: exhaustion needs a boundary collar"
    seeds = set(boundary_vertices)
    done = [bool(seeds & set(t)) for t in triangles]
    order = [f for f, seeded in enumerate(done) if seeded]
    heap = []

    def push_frontier(f):
        a, b, c = triangles[f]
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            for g in edge_triangles[key]:
                if not done[g]:
                    heapq.heappush(heap, (key, g))

    for f in order:
        push_frontier(f)
    while heap:
        _, g = heapq.heappop(heap)
        if not done[g]:
            done[g] = True
            order.append(g)
            push_frontier(g)
    if len(order) != len(triangles):
        missing = [f for f, absorbed in enumerate(done) if not absorbed]
        return (
            f"unreachable simplices: {len(missing)} triangles cannot be reached "
            f"from the boundary collar (first few: {missing[:8]})"
        )
    return order


_TETRAHEDRON = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]


@st.composite
def _relabelled_meshes(draw):
    """Jittered annulus, disk and strip meshes, a closed sphere, or a strip
    beside a closed tetrahedron, with vertices and triangles renumbered; or
    a triangle soup that passes the mesh checks."""
    kind = draw(st.sampled_from(["annulus", "disk", "strip", "sphere", "unreachable", "soup"]))
    if kind == "soup":
        triangles = draw(_triangle_soups())
        assume(not isinstance(_scan_order_mesh_check(triangles), str))
        return SurfaceMesh(_SOUP_BASE.vertices, triangles)
    if kind == "sphere":
        base = sphere_mesh(draw(st.integers(0, 2)))
    else:
        maker = {"annulus": annulus_mesh, "disk": disk_mesh}.get(kind, strip_mesh)
        low = 1 if maker is strip_mesh else 3
        base = maker(draw(st.integers(1, 5)), draw(st.integers(low, 9)))
    vertices, triangles = base.vertices, base.triangles
    if kind == "unreachable":
        triangles = np.vstack([triangles, np.array(_TETRAHEDRON) + len(vertices)])
        vertices = np.vstack([vertices, np.eye(4, 3) + 3.0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jitter = rng.uniform(-1e-3, 1e-3, vertices.shape)
    label = rng.permutation(len(vertices))
    return SurfaceMesh(vertices[np.argsort(label)] + jitter, label[rng.permutation(triangles)])


@_EXAMPLES
@given(_relabelled_meshes())
def test_exhaustion_orders_as_an_edge_dict_and_tuple_heap_do(mesh):
    expected = _ordered_by_an_edge_dict(mesh.triangles.tolist())
    if isinstance(expected, str):
        with pytest.raises(MeshError) as err:
            exhaustion_order(mesh)
        assert str(err.value) == expected
    else:
        assert exhaustion_order(mesh) == expected


def test_verify_rejects_non_permutation():
    m = strip_mesh(2, 2)
    order = exhaustion_order(m)
    with pytest.raises(MeshError, match="permutation"):
        verify_order(m, [order[0]] * len(order))
    with pytest.raises(MeshError, match="permutation"):
        verify_order(m, order[:-1])


def test_verify_rejects_an_interior_triangle_ahead_of_its_neighbours():
    # inner triangles of a large disk touch no boundary vertex
    m = disk_mesh(6, 12)
    order = exhaustion_order(m)
    moved = [order[-1]] + order[:-1]
    with pytest.raises(MeshError, match=f"step 0: triangle {order[-1]} touches no boundary"):
        verify_order(m, moved)


def _replayed_by_a_loop(mesh, order):
    """Reference: replay the order one step at a time; the growth steps as
    lists (triangle, donor, edge_lo, edge_hi), or the first violation's
    message."""
    if sorted(order) != list(range(mesh.n_triangles)):
        return "order is not a permutation of the triangles"
    tris = mesh.triangles.tolist()
    uses = {}
    for f, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            uses.setdefault((min(u, v), max(u, v)), []).append(f)
    boundary = {v for edge, fs in uses.items() if len(fs) == 1 for v in edge}
    seen, steps = set(), []
    for step, f in enumerate(order):
        if not boundary & set(tris[f]):
            a, b, c = tris[f]
            shared = sorted(
                ((min(u, v), max(u, v)), g)
                for u, v in ((a, b), (b, c), (c, a))
                for g in uses[(min(u, v), max(u, v))]
                if g != f and g in seen
            )
            if not shared:
                return (
                    f"step {step}: triangle {f} touches no boundary vertex and shares "
                    "no edge with an earlier triangle"
                )
            (lo, hi), donor = shared[0]
            steps.append((f, donor, lo, hi))
        seen.add(f)
    return [list(column) for column in zip(*steps)] or [[], [], [], []]


_REPLAY_MESH = disk_mesh(3, 8)  # 40 triangles; the center fan touches no boundary vertex
_REPLAY_ORDER = exhaustion_order(_REPLAY_MESH)


@st.composite
def _swapped_orders(draw):
    """The disk's order with up to four pairs of entries swapped."""
    order = list(_REPLAY_ORDER)
    n = len(order)
    for _ in range(draw(st.integers(0, 4))):
        s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        order[s], order[t] = order[t], order[s]
    return order


@_EXAMPLES
@given(_swapped_orders())
def test_verify_reports_the_violation_a_step_loop_finds_first(order):
    expected = _replayed_by_a_loop(_REPLAY_MESH, order)
    if isinstance(expected, str):
        with pytest.raises(MeshError) as err:
            verify_order(_REPLAY_MESH, order)
        assert str(err.value) == expected
    else:
        assert [column.tolist() for column in verify_order(_REPLAY_MESH, order)] == expected


@pytest.mark.parametrize(
    "mesh", [strip_mesh(4, 4), annulus_mesh(3, 10), disk_mesh(6, 12)], ids=["strip", "annulus", "disk"]
)
def test_verify_derives_the_growth_steps_a_step_loop_derives(mesh):
    order = exhaustion_order(mesh)
    expected = _replayed_by_a_loop(mesh, order)
    assert [column.tolist() for column in verify_order(mesh, order)] == expected


def test_collar_map_sampling_refuses_an_order_the_replay_refuses():
    # triangle 0 lies in the center fan; taken first after the collar it
    # has no absorbed neighbor to be pushed from
    order = list(_REPLAY_ORDER)
    collar = len(order) - len(verify_order(_REPLAY_MESH, order)[0])
    order.remove(0)
    order.insert(collar, 0)
    with pytest.raises(MeshError, match=f"step {collar}: triangle 0 touches no boundary"):
        collar_map_samples(_REPLAY_MESH, order)


# -- push-through maps -------------------------------------------------------------


def test_push_through_veronese_on_edge():
    # points on the shared edge press to the Veronese parameterization
    for t in (0.2, 0.5, 0.8):
        region, out = push_through((t, 1.0 - t, 0.0))
        assert region == "new"
        assert np.allclose(out, (t**2, (1 - t) ** 2, 2 * t * (1 - t)))
        assert sum(out) == pytest.approx(1.0)


def test_push_through_identity_outside_tube():
    b = (0.2, 0.2, 0.6)  # s = b_opp / (x1 x2) far above 0.6
    region, out = push_through(b)
    assert region == "donor"
    assert out == b


def test_push_through_simplex_preservation():
    rng = SplitMix64(3)
    for _ in range(2000):
        a, b = rng.next_float(), rng.next_float()
        c = rng.next_float()
        s = a + b + c
        bary = (a / s, b / s, c / s)
        region, out = push_through(bary)
        assert region in ("donor", "new")
        assert min(out) > -1e-12
        assert abs(sum(out) - 1.0) < 1e-9


def test_push_through_depth_monotone_near_edge():
    # deeper donor points press less far into the neighbor
    x1 = x2 = 0.5
    outs = []
    for bo in (0.0, 0.05, 0.1):
        b1, b2 = x1 * (1 - bo), x2 * (1 - bo)
        region, out = push_through((b1, b2, bo))
        assert region == "new"
        outs.append(out[2])
    assert outs[0] > outs[1] > outs[2]


def test_collar_map_sampling_clean():
    m = annulus_mesh(3, 12)
    res = collar_map_samples(m, exhaustion_order(m), samples_per_cell=4)
    assert res["growth_steps"] > 0
    assert res["collisions"] == 0
    assert res["min_new_samples"] >= 1
    assert res["min_pair_distance"] > 1e-9


def _jittered_disk(rings, sectors, seed, amplitude):
    base = disk_mesh(rings, sectors)
    jitter = np.random.default_rng(seed).uniform(-amplitude, amplitude, base.vertices.shape)
    jitter[:, 2] = 0.0
    return SurfaceMesh(base.vertices + jitter, base.triangles)


def _pushed_step_by_step(m, order, samples_per_cell):
    """Reference: push every lattice point again at every growth step of the
    loop replay, as a loop; (min_pair_distance, collisions, min_new_samples)."""
    P = m.vertices
    min_pair, collisions, min_new = np.inf, 0, np.inf
    for f, donor, lo, hi in zip(*_replayed_by_a_loop(m, order)):
        edge = (lo, hi)
        images, new = [], 0
        for b in _triangle_lattice(samples_per_cell):
            region, out = push_through(b)
            new += region == "new"
            tri = f if region == "new" else donor
            opp = next(int(v) for v in m.triangles[tri] if v not in edge)
            images.append(out[0] * P[edge[0]] + out[1] * P[edge[1]] + out[2] * P[opp])
        pts = np.asarray(images)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        dist = np.sqrt(d2[np.triu_indices(len(pts), k=1)])
        min_pair = min(min_pair, float(dist.min()))
        collisions += int(np.sum(dist < 1e-9))
        min_new = min(min_new, new)
    return min_pair, collisions, min_new


def test_collar_map_sampling_matches_a_per_step_push():
    m = _jittered_disk(3, 12, seed=0, amplitude=0.02)
    order = exhaustion_order(m)
    min_pair, collisions, min_new = _pushed_step_by_step(m, order, 4)
    res = collar_map_samples(m, order, samples_per_cell=4)
    assert res["min_pair_distance"] == min_pair
    assert res["collisions"] == collisions
    assert res["min_new_samples"] == min_new


def test_collar_map_sampling_validates_density():
    with pytest.raises(MeshError, match=">= 4"):
        m = strip_mesh(2, 2)
        collar_map_samples(m, exhaustion_order(m), samples_per_cell=2)


@pytest.mark.parametrize(
    "rings, sectors, samples_per_cell, growth_steps",
    [(12, 24, 4, 504), (12, 24, 6, 504), (3, 12, 20, 36)],
)
def test_collar_map_sampling_across_blocks_matches_a_per_step_push(
    rings, sectors, samples_per_cell, growth_steps
):
    # full blocks and a partial one; at density 20 a block is one step
    m = _jittered_disk(rings, sectors, seed=1, amplitude=0.01)
    order = exhaustion_order(m)
    min_pair, collisions, min_new = _pushed_step_by_step(m, order, samples_per_cell)
    res = collar_map_samples(m, order, samples_per_cell=samples_per_cell)
    lattice = res["samples_per_step"]
    steps = max(1, _BLOCK_PAIRS // (lattice * (lattice - 1) // 2))
    assert res["growth_steps"] == growth_steps > steps
    assert growth_steps % steps or steps == 1
    assert res["min_pair_distance"] == min_pair
    assert res["collisions"] == collisions
    assert res["min_new_samples"] == min_new


def test_collar_map_sampling_memory_does_not_grow_with_density():
    # a block holds a fixed number of sample pairs, not a fixed number of steps
    m = _jittered_disk(3, 12, seed=1, amplitude=0.01)
    order = exhaustion_order(m)
    tracemalloc.start()
    try:
        collar_map_samples(m, order, samples_per_cell=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
