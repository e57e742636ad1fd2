"""Scan the curvature probe's defect over radius and step size.

The probe transports the point to the origin and takes a 5-point
Laplacian of log lambda, the metric coefficient on the complex line
along the direction, at a fixed chart point; the curvature is
-Laplacian(log lambda) / (2 lambda).  The stencil carries an O(step^2)
bias, and the transport should make the defect independent of the
radius.  This scan prints the worst defect from the constant -2 on a
(radius, step) grid; it is the experiment behind the probe's default
step.

    python3 scripts/curvature_scan.py --dim 4 --trials 20
"""

import argparse

import numpy as np

from hilbertball import geometry


def worst_defect(dim, radius, step, trials, rng):
    worst = 0.0
    for _ in range(trials):
        direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z = geometry.BallPoint(radius * z / np.linalg.norm(z))
        got = geometry.sectional_curvature_probe(z, direction, step=step)
        worst = max(worst, abs(got + 2.0))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--radii", type=float, nargs="+",
                    default=[0.0, 0.2, 0.4, 0.6, 0.8])
    ap.add_argument("--steps", type=float, nargs="+",
                    default=[1e-2, 3e-3, 1e-3, 3e-4])
    args = ap.parse_args()

    print("# worst |K + 2| over %d trials, dim %d" % (args.trials, args.dim))
    header = "radius " + "".join("%12.0e" % s for s in args.steps)
    print(header)
    for r in args.radii:
        rng = np.random.default_rng(args.seed)
        row = "%6.2f" % r
        for s in args.steps:
            row += "%12.2e" % worst_defect(args.dim, r, s, args.trials, rng)
        print(row)


if __name__ == "__main__":
    main()
