#!/usr/bin/env python3
"""Sweep line bundles O(k * D_ray) over a stock fan and tabulate the splitting search.

For each degree the script builds the diagonal transition family, runs the
graded splitting solver on its derivative cocycle, verifies the gauge gluing
law, and prints one row: degree, splitting found, closure depth, number of
graded weights visited, and the first Chern data evaluated at each ray
generator.  A found splitting that fails the gauge law reads BROKEN and
counts as a failure in the exit code, as a degree that did not split does.
With --dressed the transitions are conjugated by random
unitriangular dressings first, which leaves every verdict unchanged but
exercises the solver off the diagonal.

Examples::

    python3 scripts/sweep_line_bundles.py --fan p2 --max-degree 10
    python3 scripts/sweep_line_bundles.py --fan hirzebruch --param 2 --dressed --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from torlog.bundles import chern_pp
from torlog.cocycles import atiyah_cocycle
from torlog.corpus import (
    diagonal_transitions,
    dressed_transitions,
    line_bundle_data,
    random_dressing,
)
from torlog.fans import hirzebruch_fan, product_p1_fan, projective_fan
from torlog.splitting import (
    InconsistentSplittingError,
    WeightCapError,
    connection_from_splitting,
    split_cocycle,
    weight_cap,
)

FANS = {
    "p1": lambda a: projective_fan(1),
    "p2": lambda a: projective_fan(2),
    "p1p1": lambda a: product_p1_fan(),
    "hirzebruch": hirzebruch_fan,
}


def sweep(fan, degrees, ray, dressed, rng, cap):
    rows = []
    for k in degrees:
        data = line_bundle_data(fan, k, ray=ray)
        if dressed:
            td = dressed_transitions(data, random_dressing(fan, 1, rng))
        else:
            td = diagonal_transitions(data)
        start = time.perf_counter()
        result = split_cocycle(atiyah_cocycle(td), td, cap=cap)
        elapsed = time.perf_counter() - start
        gauge = ""
        if result.found:
            try:
                connection_from_splitting(result.cochain, td)
                gauge = "glues"
            except InconsistentSplittingError:
                gauge = "BROKEN"
        (c1, *_), _ = chern_pp(data)
        c1_at_rays = [
            c1.parts[ci].evaluate(fan.rays[r])
            for ci in sorted(c1.parts)
            for r in fan.cones[ci].ray_indices
        ]
        rows.append((k, result.found, result.closure_depth,
                     result.weights_searched, gauge, elapsed, c1_at_rays))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fan", choices=sorted(FANS), default="p1")
    parser.add_argument("--param", type=int, default=1,
                        help="parameter a for the hirzebruch fan (ignored otherwise)")
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--ray", type=int, default=None,
                        help="ray index carrying the divisor (default: last ray)")
    parser.add_argument("--dressed", action="store_true",
                        help="conjugate by random unitriangular dressings")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap", type=int, default=None,
                        help="weight-closure depth cap (default: TORLOG_WEIGHT_CAP or 3)")
    args = parser.parse_args(argv)
    try:
        cap = weight_cap(args.cap)
    except WeightCapError as exc:  # a usage error, not a degree that did not split
        print(f"sweep_line_bundles: {exc}", file=sys.stderr)
        return 2

    fan = FANS[args.fan](args.param)
    rng = random.Random(args.seed)
    degrees = range(-args.max_degree, args.max_degree + 1)
    rows = sweep(fan, degrees, args.ray, args.dressed, rng, cap)

    print(f"# fan={args.fan} rays={len(fan.rays)} "
          f"maximal_cones={len(fan.maximal_cone_indices())} dressed={args.dressed}")
    print(f"{'k':>4}  {'split':<7} {'depth':>5} {'weights':>8} {'gauge':<7} "
          f"{'secs':>7}  c1 at ray generators")
    misses = broken = 0
    for k, found, depth, nweights, gauge, elapsed, c1_vals in rows:
        misses += not found
        broken += gauge == "BROKEN"
        print(f"{k:>4}  {'found' if found else 'none':<7} {depth:>5} "
              f"{nweights:>8} {gauge:<7} {elapsed:>7.3f}  {c1_vals}")
    print(f"# {len(rows) - misses}/{len(rows)} degrees split "
          f"within the search budget")
    if broken:
        print(f"# {broken}/{len(rows) - misses} found splittings fail the gauge law")
    return 1 if misses or broken else 0


if __name__ == "__main__":
    sys.exit(main())
