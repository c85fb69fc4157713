"""Generators for triangulated test surfaces and OFF serialization.

Small families used by the exhaustion scenario, the demos, and the test
suite: the unit square strip, the unit disk and the annulus of radii 0.5
and 1, all with boundary; only their resolution is a parameter. All
generators emit consistently oriented triangles, with (V, 3) vertices.
"""

import numpy as np

from .exhaustion import SurfaceMesh


def strip_mesh(nx, ny):
    """Unit square strip, ``2 * nx * ny`` triangles."""
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    verts = [(x, y, 0.0) for y in ys for x in xs]

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return SurfaceMesh(np.array(verts), np.array(tris))


def _ring_bands(first, n_bands, n_sectors):
    """Two triangles a sector between consecutive rings of ``n_sectors`` vertices.

    Ring ``i`` holds vertices ``first + i * n_sectors`` onwards, in sector
    order; the bands join rings ``0..n_bands``, inner ring first.
    """

    def vid(i, j):
        return first + i * n_sectors + (j % n_sectors)

    tris = []
    for i in range(n_bands):
        for j in range(n_sectors):
            v00, v01 = vid(i, j), vid(i, j + 1)
            v10, v11 = vid(i + 1, j), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return tris


def annulus_mesh(n_rings, n_sectors):
    """Planar annulus of radii 0.5 and 1, ``2 * n_rings * n_sectors`` triangles, two boundary loops."""
    radii = np.linspace(0.5, 1.0, n_rings + 1)
    angles = 2.0 * np.pi * np.arange(n_sectors) / n_sectors
    verts = [
        (r * np.cos(a), r * np.sin(a), 0.0) for r in radii for a in angles
    ]
    return SurfaceMesh(np.array(verts), np.array(_ring_bands(0, n_rings, n_sectors)))


def disk_mesh(n_rings, n_sectors):
    """Planar disk: a center fan plus annular rings; one boundary loop."""
    verts = [(0.0, 0.0, 0.0)]
    for i in range(1, n_rings + 1):
        r = i / n_rings
        for j in range(n_sectors):
            a = 2.0 * np.pi * j / n_sectors
            verts.append((r * np.cos(a), r * np.sin(a), 0.0))

    tris = [(0, 1 + j, 1 + (j + 1) % n_sectors) for j in range(n_sectors)]
    return SurfaceMesh(np.array(verts), np.array(tris + _ring_bands(1, n_rings - 1, n_sectors)))


def save_off(path, mesh):
    """Write a mesh as a plain OFF file."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
