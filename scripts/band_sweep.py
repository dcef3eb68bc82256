"""Cut probabilities across the proportional-band parameter range.

Evaluates the exact deformation factor p_T(c) on the standard witness trees
over a grid of band proportions and prints a CSV ready for plotting.  The
values are computed by exact rational integration; an optional Monte Carlo
column cross-checks the underlying cut volume.

    python scripts/band_sweep.py --points 99
    python scripts/band_sweep.py --points 19 --mc 1000000
"""

import argparse
import sys
from fractions import Fraction

from traffics.independence import witness_graphs
from traffics.limits import cut_integral, cut_probability


def mc_volume(graph, proportions, points, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    xs = rng.random((graph.n_vertices, points))
    ok = np.ones(points, dtype=bool)
    for e in graph.edges:
        if e.src != e.tar:
            ok &= np.abs(xs[e.src] - xs[e.tar]) <= float(proportions[e.label])
    return float(np.mean(ok))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=19,
                    help="grid points on (0, 1]")
    ap.add_argument("--mc", type=int, default=0,
                    help="Monte Carlo points for the volume cross-check")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.points < 1:
        ap.error("--points must be at least 1")
    if args.mc < 0:
        ap.error("--mc must be at least 0")

    w = witness_graphs()
    star, s_graph, path = w["two_pad_star"], w["s_graph"], w["three_pad_path"]
    header = "c,p_star,p_s_half,p_path_half"
    if args.mc:
        header += ",mc_volume_star,mc_gap"
    print(header)
    for i in range(1, args.points + 1):
        c = Fraction(i, args.points)
        p_star = cut_probability(star, c)
        # companion label held at 1/2 to expose both branch regions
        p_s = cut_probability(s_graph, {"x": c, "y": Fraction(1, 2)})
        p_path = cut_probability(path, {"x": c, "y": Fraction(1, 2)})
        row = "%.6f,%.8g,%.8g,%.8g" % (float(c), float(p_star),
                                       float(p_s), float(p_path))
        if args.mc:
            vol = mc_volume(star, {"x": c}, args.mc, args.seed)
            gap = abs(vol - float(cut_integral(star, c)))
            row += ",%.8g,%.2e" % (vol, gap)
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
