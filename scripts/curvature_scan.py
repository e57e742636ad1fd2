"""Scan the curvature probe's defect over dimension and step size.

The probe transports the point to the origin and takes a 5-point
Laplacian of log lambda, the metric coefficient on the complex line
along the direction, at a fixed chart point; the curvature is
-Laplacian(log lambda) / (2 lambda).  The stencil carries an O(step^2)
bias and roundoff grows like 1/step^2, so the defect has a minimum in
the step.  The transport makes the defect independent of the radius, so
the points are drawn at random radii up to --max-radius rather than on
a radius grid.  This scan prints the worst defect from the constant -2
on a (dimension, step) grid and the step whose worst defect over all
dimensions is smallest; that step is the probe's default.

    python3 scripts/curvature_scan.py --trials 20
"""

import argparse

import numpy as np

from hilbertball import geometry


def worst_defect(dim, step, trials, max_radius, rng):
    worst = 0.0
    for _ in range(trials):
        direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        radius = max_radius * rng.uniform()
        z = geometry.BallPoint(radius * z / np.linalg.norm(z))
        got = geometry.sectional_curvature_probe(z, direction, step=step)
        worst = max(worst, abs(got - geometry.CURVATURE))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 4, 16])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-radius", type=float, default=0.8)
    ap.add_argument("--steps", type=float, nargs="+",
                    default=[1e-3, 3e-4, 1e-4, 3e-5])
    args = ap.parse_args()

    print("# worst |K + 2| over %d trials, radius up to %.2f"
          % (args.trials, args.max_radius))
    print("dim   " + "".join("%12.0e" % s for s in args.steps))
    worst = np.zeros(len(args.steps))
    for dim in args.dims:
        rng = np.random.default_rng(args.seed)
        row = [worst_defect(dim, s, args.trials, args.max_radius, rng) for s in args.steps]
        worst = np.maximum(worst, row)
        print("%-6d" % dim + "".join("%12.2e" % d for d in row))
    print("# best step %.0e (worst defect %.2e)"
          % (args.steps[int(np.argmin(worst))], worst.min()))


if __name__ == "__main__":
    main()
