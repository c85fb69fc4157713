"""Workload definitions and their seeded input generator.

A workload is a fixed list of CLI scenarios; every iteration draws fresh
inputs for each scenario run from a generator seeded by the benchmark seed.
The CLI only ever sees the drawn configs (and the OFF files written here),
never the seed. Because no two scenario runs share an input, a memo kept
across calls cannot pay off, which matches how the CLI is used: one command
per process.

Sizes: ``full`` is the benchmarked size; ``toy`` runs every workload in a
few seconds so that the benchmark's own tests can exercise it.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

SIZES = {
    "full": {"N": 128, "M": 256, "torus_N": 16, "torus_M": 128, "modes_max": 16, "mesh": (50, 100)},
    "toy": {"N": 32, "M": 64, "torus_N": 8, "torus_M": 32, "modes_max": 4, "mesh": (4, 12)},
}

EPS = 0.3
ANNULUS_RHO = 0.25
MESH_JITTER = 0.2  # share of the local radial / angular spacing


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def draw_bump(rng, sign):
    """Mollifier bump with |amplitude| in [1, 4] and the given sign."""
    return {
        "kind": "bump",
        "amplitude": sign * _u(rng, 1.0, 4.0),
        "theta0": _u(rng, 0.0, 2.0 * math.pi),
        "t0": _u(rng, 0.05, 0.2),
        "width": _u(rng, 0.3, 0.45),
    }


def draw_noise_data(rng):
    """White-noise boundary data from the CLI's own seeded generator."""
    return {"kind": "random", "seed": int(rng.integers(0, 2**31))}


def draw_mode_data(rng):
    """Positive data: mode 1 or 2 (the CLI's defaults), random phase, offset in [1.5, 2.5].

    The squared-operator and layer-strip checks need data the collar step
    resolves: with white noise at N=128, M=256, kernel-check misses its
    tolerance by a factor of about 360 and layer-strip misses it on some
    draws, because the noise puts its energy in the highest modes. The
    offset keeps the data positive, so the layer-strip pairing of the
    positive bump minus the negative one cannot cancel to near zero, where
    its relative gap is ill-conditioned (a sign-changing draw missed the
    tolerance twelvefold at N=32).
    """
    return {
        "kind": "mode",
        "k": int(rng.integers(1, 3)),
        "phase": _u(rng, 0.0, 2.0 * math.pi),
        "offset": _u(rng, 1.5, 2.5),
    }


def draw_gamma(rng):
    """Depth-only conformal factor, positive on the whole collar."""
    if rng.random() < 0.5:
        return {"kind": "exp", "rate": _u(rng, 0.5, 2.0)}
    return {"kind": "poly", "coeffs": [_u(rng, 0.5, 2.0), _u(rng, 0.0, 1.0)]}


def jittered_mesh(maker, params, rng):
    """Mesh from ``evosq.meshes`` with every vertex moved in polar coordinates.

    Radii move by up to ``MESH_JITTER`` of the ring spacing and angles by
    the same share of the sector angle, so triangles keep their orientation
    and the connectivity (what exhaustion orders) is unchanged. A vertex at
    the origin stays put.
    """
    n_rings, n_sectors = params
    mesh = maker(n_rings, n_sectors)
    v = mesh.vertices
    r = np.hypot(v[:, 0], v[:, 1])
    a = np.arctan2(v[:, 1], v[:, 0])
    moved = r > 0
    radii = np.unique(np.round(r[moved], 12))
    ring_step = (radii[-1] - radii[0]) / (radii.size - 1)
    r = r + moved * rng.uniform(-MESH_JITTER, MESH_JITTER, r.size) * ring_step
    a = a + rng.uniform(-MESH_JITTER, MESH_JITTER, a.size) * (2.0 * math.pi / n_sectors)
    verts = np.column_stack([r * np.cos(a), r * np.sin(a), np.zeros_like(r)])
    return SimpleNamespace(vertices=verts, triangles=mesh.triangles)


def _annulus(size):
    return {"geometry": "annulus", "rho": ANNULUS_RHO, "N": size["N"], "M": size["M"], "eps": EPS}


def _headline(rng, size, workdir):
    geo = _annulus(size)
    return [
        ("bvp-headline", {**geo, "q1": draw_bump(rng, 1), "q2": draw_bump(rng, -1), "tol": 5e-2}),
        ("oducp-probe", {**geo, "q1": draw_bump(rng, 1), "q2": draw_bump(rng, -1)}),
    ]


def _collar_maps(rng, size, workdir):
    n_m = {"N": size["N"], "M": size["M"], "eps": EPS}
    geo = _annulus(size)
    return [
        ("dn-compute", {"geometry": "disk", **n_m, "q1": draw_bump(rng, 1), "sym_tol": 1e-8}),
        ("riccati-check", {**geo, "q1": draw_bump(rng, 1), "tol": 1e-2}),
        (
            "evolve-check",
            {"geometry": "flat-cylinder", **n_m, "q1": draw_bump(rng, 1),
             "boundary_data": draw_noise_data(rng), "tol": 1e-2},
        ),
        (
            "layer-strip",
            {**geo, "q1": draw_bump(rng, 1), "q2": draw_bump(rng, -1),
             "boundary_data": draw_mode_data(rng),
             "boundary_data2": draw_mode_data(rng), "tol": 1e-3},
        ),
        (
            "kernel-check",
            {**geo, "q1": draw_bump(rng, 1), "q2": draw_bump(rng, -1),
             "boundary_data": draw_mode_data(rng),
             "boundary_data2": draw_mode_data(rng), "tol": 1e-3},
        ),
    ]


def _modes_meshes(rng, size, workdir):
    from evosq import meshes

    runs = [
        (
            "conformal-check",
            {"geometry": "flat-cylinder", "dim": 2, "N": size["torus_N"], "M": size["torus_M"],
             "eps": EPS, "modes_max": size["modes_max"], "n_ambient": 3,
             "gamma": draw_gamma(rng), "tol": 1e-3},
        )
    ]
    for kind, maker in (("disk", meshes.disk_mesh), ("annulus", meshes.annulus_mesh)):
        path = Path(workdir) / f"{kind}.off"
        meshes.save_off(path, jittered_mesh(maker, size["mesh"], rng))
        runs.append(("exhaustion", {"mesh": str(path)}))
    return runs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    isolates: str
    draw: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "headline",
            "the paper's headline pipeline (bvp-headline then oducp-probe on the annulus, "
            "N=128, M=256) at the top of the ROADMAP ladder",
            "tensor transport: evolve_tensor_* (CG implicit steps) dominates, so a transport "
            "change shows here; the propagation chain is the rest",
            _headline,
        ),
        Workload(
            "collar-maps",
            "dense elimination without any tensor CG: dn-compute (disk), riccati-check, "
            "evolve-check (flat cylinder), layer-strip and kernel-check at N=128, M=256",
            "propagation chain, map extraction, Riccati, trace evolution and squared operators; "
            "the chain is also kept and read through solve_interior, so chain storage and its "
            "read path show; a transport change should not move it",
            _collar_maps,
        ),
        Workload(
            "modes-meshes",
            "Python-loop bound work with almost no BLAS: conformal-check on the flat torus "
            "(N=16, M=128, 114 modes) and exhaustion of two jittered 10k-triangle meshes",
            "the per-mode conformal sweep and push-through sampling, absent from the other "
            "workloads",
            _modes_meshes,
        ),
    )
}


class InputGenerator:
    """Fresh scenario inputs per iteration, reproducible from the seed."""

    def __init__(self, workload, seed, size="full"):
        self.workload = WORKLOADS[workload]
        self.size = SIZES[size]
        self.rng = np.random.default_rng(seed)

    def draw(self, workdir):
        """Scenario runs of one iteration as ``[(scenario, config), ...]``.

        OFF meshes are written into ``workdir``; configs refer to them by path.
        """
        Path(workdir).mkdir(parents=True, exist_ok=True)
        return self.workload.draw(self.rng, self.size, workdir)
