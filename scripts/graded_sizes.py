#!/usr/bin/env python3
"""Tabulate the graded systems of dressed ladder draws: rows built, rows reached, unknowns.

For each (fan, rank) cell and each seed the script draws a dressed
transition family the way the benchmark ladders do (``random_equivariant_data``
then ``random_dressing``), here from one ``random.Random(seed)`` per draw, builds the
depth-0 graded system of its Atiyah cocycle, the one the verdict solves
first, and counts what the solver eliminates.  One line per cell, summed
over the seeds:

* ``systems``, and ``no_rhs``: the systems where no term of any A_{t s0}
  lies outside chart(t), which the solver answers with no row built;
* ``rows``: the rows a full build makes, and ``reached``: the rows a
  right-hand side reaches through shared unknowns, the only ones
  eliminated;
* ``unknowns`` and ``reached``: the unknowns of g_{s0}, and those that
  occur in a reached row.

Examples::

    python3 scripts/graded_sizes.py                       # the ladder, seeds 0-11
    python3 scripts/graded_sizes.py --fans P2 F1 --ranks 2 --factors 2 --seeds 0 6
"""

from __future__ import annotations

import argparse
import random
import sys

from torlog.cocycles import atiyah_cocycle
from torlog.corpus import dressed_transitions, random_dressing, random_equivariant_data
from torlog.fans import hirzebruch_fan, product_p1_fan, projective_fan
from torlog.splitting import _graded_system, _reached, _right_hand_sides, _seed

FANS = {
    "P1": lambda: projective_fan(1),
    "P2": lambda: projective_fan(2),
    "P1xP1": product_p1_fan,
    "F1": lambda: hirzebruch_fan(1),
    "F2": lambda: hirzebruch_fan(2),
    "P3": lambda: projective_fan(3),
}


def sizes(td) -> tuple[int, int, int, int, int]:
    """(no_rhs, rows, rows reached, unknowns, unknowns reached) of a draw's depth-0 system."""
    cocycle = atiyah_cocycle(td)
    rhs = _right_hand_sides(cocycle, td)
    unknowns, index, entries, columns = _graded_system(
        cocycle, td, sorted(_seed(cocycle, td)), rhs)
    keys = _reached(index, entries, columns, len(rhs))
    reached = {var for key in keys for var in entries[index[key]]}
    return not rhs, len(entries), len(keys), len(unknowns), len(reached)


def share(part: int, whole: int) -> str:
    return f"{100 * part / whole:.0f}%" if whole else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fans", nargs="+", choices=list(FANS), default=list(FANS))
    parser.add_argument("--ranks", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seeds", nargs=2, type=int, default=[0, 12], metavar=("START", "STOP"),
                        help="the seeds START .. STOP - 1 (default: 0 12)")
    parser.add_argument("--factors", type=int, default=1,
                        help="unitriangular factors per chart in a dressing (default: 1)")
    args = parser.parse_args(argv)
    seeds = range(*args.seeds)

    print(f"# depth-0 graded systems, seeds {seeds.start}-{seeds.stop - 1}, "
          f"{args.factors} dressing factor(s)")
    print(f"{'cell':<9} {'systems':>7} {'no_rhs':>6} {'rows':>8} {'reached':>8} {'%':>4} "
          f"{'unknowns':>8} {'reached':>8} {'%':>4}")
    total = [0] * 6
    for name in args.fans:
        fan = FANS[name]()
        for rank in args.ranks:
            cell = [0] * 6
            for seed in seeds:
                rng = random.Random(seed)
                data = random_equivariant_data(fan, rank, rng)
                td = dressed_transitions(data, random_dressing(fan, rank, rng, args.factors))
                for i, x in enumerate((1, *sizes(td))):
                    cell[i] += x
            total = [a + b for a, b in zip(total, cell)]
            print(line(f"{name}/r{rank}", cell))
    print(line("total", total))
    return 0


def line(label: str, counts: list[int]) -> str:
    systems, no_rhs, rows, rows_reached, unknowns, unknowns_reached = counts
    return (f"{label:<9} {systems:>7} {no_rhs:>6} {rows:>8} {rows_reached:>8} "
            f"{share(rows_reached, rows):>4} {unknowns:>8} {unknowns_reached:>8} "
            f"{share(unknowns_reached, unknowns):>4}")


if __name__ == "__main__":
    sys.exit(main())
