#!/usr/bin/env python3
"""Regenerate the bundled model files under models/.

Every model is produced deterministically (fixed seeds), so rerunning this
script must leave the directory byte-identical.  The mix covers the CLI
surface: clean line bundles, a rank-2 diagonal family, dressed transitions
without a bundle block, a deliberately corrupted cocycle, and a
non-complete chart pair.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys

from torlog.corpus import (
    diagonal_transitions,
    dressed_transitions,
    line_bundle_data,
    random_dressing,
    random_equivariant_data,
)
from torlog.fans import build_fan, hirzebruch_fan, product_p1_fan, projective_fan, vec_add
from torlog.laurent import LaurentPoly
from torlog.reports import canonical_bytes, matrix_payload, poly_payload


def fan_block(fan, name):
    return {
        "name": name,
        "rank_n": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c.ray_indices) for c in fan.cones],
        "declared_complete": fan.declared_complete,
    }


def bundle_block(data):
    return {
        "rank": data.rank,
        "weights": {str(ci): [list(m) for m in ws] for ci, ws in sorted(data.weights.items())},
    }


def transitions_block(td, one_sided=True):
    return {f"{s},{t}": matrix_payload(M) for (s, t), M in sorted(td.matrices.items())
            if not (one_sided and s > t)}


def diagonal_model(fan, name, eq):
    """A model with a bundle block and the diagonal transitions of its weights."""
    m = fan_block(fan, name)
    m["bundle"] = bundle_block(eq)
    m["transitions"] = transitions_block(diagonal_transitions(eq))
    return m


def model_p1_o3():
    fan = projective_fan(1)
    return diagonal_model(fan, "p1-o3", line_bundle_data(fan, 3))


def model_p2_o2():
    fan = projective_fan(2)
    return diagonal_model(fan, "p2-o2", line_bundle_data(fan, 2))


def model_p2_rank2():
    fan = projective_fan(2)
    eq = random_equivariant_data(fan, 2, random.Random(11), bound=2)
    return diagonal_model(fan, "p2-rank2", eq)


def model_p1p1_rank2():
    fan = product_p1_fan()
    eq = random_equivariant_data(fan, 2, random.Random(5), bound=2)
    return diagonal_model(fan, "p1p1-rank2", eq)


def model_hirzebruch_dressed():
    fan = hirzebruch_fan(1)
    rng = random.Random(23)
    eq = random_equivariant_data(fan, 2, rng, bound=2)
    td = dressed_transitions(eq, random_dressing(fan, 2, rng, factors=2, bound=2))
    m = fan_block(fan, "hirzebruch1-dressed")
    m["transitions"] = transitions_block(td)
    return m


def model_p2_corrupted():
    """Line bundle on the projective plane with one transition exponent bent.

    The perturbation is orthogonal to the shared ray of one overlap, so
    chart membership and unit determinants still pass while the cocycle
    law on the triple of maximal charts breaks.
    """
    fan = projective_fan(2)
    eq = line_bundle_data(fan, 2)
    td = diagonal_transitions(eq)
    maximal = sorted(eq.weights)
    s, t = maximal[0], maximal[1]
    shared = set(fan.cones[s].ray_indices) & set(fan.cones[t].ray_indices)
    ray = fan.rays[next(iter(shared))]
    # any lattice vector orthogonal to the shared ray works
    w = (-ray[1], ray[0])
    old = td.matrices[(s, t)].entries[0][0]
    (exp, coeff), = old.terms.items()
    block = transitions_block(td)
    block[f"{s},{t}"] = [[poly_payload(LaurentPoly.monomial(vec_add(exp, w), coeff))]]
    m = fan_block(fan, "p2-corrupted")
    m["bundle"] = bundle_block(eq)
    m["transitions"] = block
    return m


def model_half_open():
    rays = [(1, 0), (-1, 0), (0, 1)]
    cones = [(), (0,), (1,), (2,), (0, 2), (1, 2)]
    fan, _ = build_fan(rays, cones, dim=2)
    return diagonal_model(fan, "half-open-surface", random_equivariant_data(fan, 1, random.Random(2)))


MODELS = {
    "p1_o3.json": model_p1_o3,
    "p2_o2.json": model_p2_o2,
    "p2_rank2.json": model_p2_rank2,
    "p1p1_rank2.json": model_p1p1_rank2,
    "hirzebruch_dressed.json": model_hirzebruch_dressed,
    "p2_corrupted.json": model_p2_corrupted,
    "half_open.json": model_half_open,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=str(pathlib.Path(__file__).resolve().parent.parent / "models"))
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, builder in MODELS.items():
        path = out / fname
        path.write_bytes(canonical_bytes(builder()))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
