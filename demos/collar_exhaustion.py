"""Order a triangulated surface collar-first and replay the order.

Every triangle after the seeded boundary collar enters through a shared
edge with an already-covered donor; the replay rederives that edge and
donor from the mesh alone, and the push-through map then drives a sample
cloud across the edge without collisions. Works on any open
surface in OFF format, or on the built-in generators.
"""

import argparse
import sys
import time

from evosq.exhaustion import collar_map_samples, exhaustion_order, load_mesh
from evosq.meshes import annulus_mesh, disk_mesh, strip_mesh

GENERATORS = {
    "annulus": lambda a, b: annulus_mesh(a, b),
    "disk": lambda a, b: disk_mesh(a, b),
    "strip": lambda a, b: strip_mesh(a, b),
}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mesh", nargs="?", default="annulus",
                    help="OFF file path, or one of: " + ", ".join(sorted(GENERATORS)))
    ap.add_argument("--size", type=int, nargs=2, default=(50, 100), metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.mesh in GENERATORS:
        mesh = GENERATORS[args.mesh](*args.size)
        name = f"{args.mesh}{tuple(args.size)}"
    else:
        mesh = load_mesh(args.mesh)
        name = args.mesh

    t0 = time.time()
    order = exhaustion_order(mesh)
    t1 = time.time()
    stats = collar_map_samples(mesh, order)  # replays the order first
    t2 = time.time()

    n_collar = len(order) - stats["growth_steps"]
    print(f"{name}: {len(mesh.triangles)} triangles, {len(mesh.boundary_vertices)} boundary vertices")
    print(f"  collar seed {n_collar}, growth steps {stats['growth_steps']}")
    print(f"  order {t1 - t0:.3f}s, replay and samples {t2 - t1:.3f}s")
    print(f"  sample collisions {stats['collisions']}, min pair gap {stats['min_pair_distance']:.2e}")
    print(f"  min fresh samples per step {stats['min_new_samples']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
