"""Generators for valid-by-construction test data.

Everything here builds equivariant weight families and transition matrices
whose defining identities hold exactly, so randomized suites can assert
exact equality without reference outputs:

* weight families come from per-ray integer data (one integer a_rho per
  ray), solved cone by cone against the ray generators — restrictions to a
  shared face then agree automatically, line by line.  The inverse ray
  matrix is :func:`torlog.fans.ray_inverse`, one exact elimination against
  the identity, cached there; on a unimodular cone it is integral, and the
  solve stays in int arithmetic; each coordinate is made canonical, and
  one that is not an integer raises;
* transition matrices are dressed diagonals H_s * diag(chi^(m_s - m_t)) * H_t^{-1}
  with unitriangular H's over the chart rings, which satisfies the cocycle
  law on every triple by construction.  The diagonal is applied as a column
  shift of H_s, so each ordered pair costs one matrix product.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from .bundles import EquivariantData
from .cocycles import TransitionData
from .fans import (Cone, Fan, IntVec, hirzebruch_fan, product_p1_fan, projective_fan,
                   ray_inverse, vec_sub)
from .laurent import LaurentMatrix, LaurentPoly, matrix_inverse_unit
from .linalg import exact


def _require_smooth_full(fan: Fan, cone: Cone):
    if cone.dim != fan.dim:
        raise ValueError("corpus generators need full-dimensional maximal cones")


def solve_cone_weight(fan: Fan, cone_index: int, ray_values) -> IntVec:
    """The unique m with <m, v_rho> = -a_rho over the rays of one cone.

    ``ray_values`` maps ray index -> integer a_rho.  Only smooth
    full-dimensional cones give an integral solution, and we insist on one.
    Each coordinate is made canonical (``linalg.exact``); one left a
    Fraction raises.
    """
    cone = fan.cones[cone_index]
    _require_smooth_full(fan, cone)
    inv = ray_inverse(tuple(fan.ray_matrix(cone)))
    values = [ray_values[k] for k in cone.ray_indices]
    m = tuple(exact(-sum(map(mul, row, values))) for row in inv)
    if not all(type(x) is int for x in m):
        raise ValueError(f"non-integral weight on cone {cone_index}: {[Fraction(x) for x in m]}")
    return m


def weights_from_ray_values(fan: Fan, ray_values) -> dict[int, IntVec]:
    return {ci: solve_cone_weight(fan, ci, ray_values) for ci in fan.maximal_cone_indices()}


def random_ray_values(fan: Fan, rng: random.Random, bound: int = 3) -> dict[int, int]:
    return {k: rng.randint(-bound, bound) for k in range(len(fan.rays))}


def random_equivariant_data(fan: Fan, rank: int, rng: random.Random, bound: int = 3) -> EquivariantData:
    """Compatible-by-construction weight family: one per-ray profile per line."""
    families = [weights_from_ray_values(fan, random_ray_values(fan, rng, bound))
                for _ in range(rank)]
    weights = {ci: tuple(fam[ci] for fam in families) for ci in fan.maximal_cone_indices()}
    return EquivariantData(fan, rank, weights)


def line_bundle_data(fan: Fan, k: int, ray: int | None = None) -> EquivariantData:
    """Rank-one weight family of the line bundle with divisor k * D_ray."""
    values = {i: 0 for i in range(len(fan.rays))}
    values[len(fan.rays) - 1 if ray is None else ray] = k
    weights = {ci: (m,) for ci, m in weights_from_ray_values(fan, values).items()}
    return EquivariantData(fan, 1, weights)


def diagonal_transitions(data: EquivariantData) -> TransitionData:
    """Transition matrices diag(chi^(m_i^s - m_i^t)) in the weight eigenframes."""
    maximal = sorted(data.weights)
    mats = {}
    for s in maximal:
        for t in maximal:
            if s == t:
                continue
            diag = [LaurentPoly.monomial(vec_sub(ms, mt))
                    for ms, mt in zip(data.weights[s], data.weights[t])]
            mats[(s, t)] = LaurentMatrix.diagonal(diag)
    return TransitionData(data.fan, data.rank, mats)


def chart_monomial(fan: Fan, cone_index: int, rng: random.Random, bound: int = 3) -> IntVec:
    """A random exponent in the dual semigroup of a smooth full-dimensional cone."""
    cone = fan.cones[cone_index]
    _require_smooth_full(fan, cone)
    inv = ray_inverse(tuple(fan.ray_matrix(cone)))
    if not all(type(x) is int for row in inv for x in row):
        raise ValueError("dual basis is not integral; cone is not smooth")
    # columns of the inverse ray matrix form the dual basis of the generators;
    # one draw per basis vector, in column order
    counts = [rng.randint(0, bound) for _ in range(fan.dim)]
    return tuple(sum(map(mul, row, counts)) for row in inv)


def random_dressing(fan: Fan, rank: int, rng: random.Random,
                    factors: int = 2, bound: int = 2) -> dict[int, LaurentMatrix]:
    """One unitriangular matrix over the chart ring per maximal cone (det = 1).

    Each factor is unitriangular, upper on even steps and lower on odd ones;
    the dressing is their product, starting from the first factor (the
    identity when there are none).
    """
    identity = LaurentMatrix.identity(rank, fan.dim)
    out = {}
    for ci in fan.maximal_cone_indices():
        H = identity
        for step in range(factors):
            rows = [list(row) for row in identity.entries]
            for i in range(rank):
                for j in range(rank):
                    upper = i < j if step % 2 == 0 else i > j
                    if upper and rng.random() < 0.7:
                        c = rng.choice([-2, -1, 1, 2])
                        rows[i][j] = LaurentPoly.monomial(chart_monomial(fan, ci, rng, bound), c)
            factor = LaurentMatrix(rows)
            H = factor if step == 0 else H * factor
        out[ci] = H
    return out


def dressed_transitions(data: EquivariantData,
                        dressing: dict[int, LaurentMatrix]) -> TransitionData:
    """H_s * diag(chi^(m^s - m^t)) * H_t^{-1} over every ordered pair.

    The diagonal factor multiplies column i of H_s by chi^(m_i^s - m_i^t),
    so it is applied as a shift of that column's exponents, and each pair
    costs the one product with H_t^{-1}.
    """
    maximal = sorted(data.weights)
    inverses = {ci: matrix_inverse_unit(H) for ci, H in dressing.items()}
    mats = {}
    for s in maximal:
        for t in maximal:
            if s == t:
                continue
            shifts = map(vec_sub, data.weights[s], data.weights[t])
            mats[(s, t)] = dressing[s].shift_columns(shifts) * inverses[t]
    return TransitionData(data.fan, data.rank, mats)


def random_transition_data(fan: Fan, rank: int, rng: random.Random,
                           bound: int = 3) -> TransitionData:
    data = random_equivariant_data(fan, rank, rng, bound)
    return dressed_transitions(data, random_dressing(fan, rank, rng))


def surface_fans() -> list[Fan]:
    """The smooth complete surfaces the randomized suites draw from."""
    return [projective_fan(2), product_p1_fan(), hirzebruch_fan(1)]
