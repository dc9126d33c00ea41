"""Cech-level connection obstruction calculus on the toric chart cover.

The cover is by the affine charts of the maximal cones.  Transition data
assigns an invertible Laurent matrix C_{st} to every ordered pair of
distinct maximal cones, with entries in the chart ring of the shared face.

Two pipelines turn the transitions into a matrix-valued 1-cocycle that is
linear over the cocharacter lattice:

* :func:`atiyah_cocycle` computes  delta(C) * D,  differentiating the
  transition C = C_{st} before multiplying by its inverse D = C_{ts};
* :func:`obstruction_cocycle` computes  C * delta(D),  differentiating the
  inverse first.

Both products go through the one matrix product of ``laurent``.  Since
C * D = 1, the Leibniz rule gives delta(C) * D = -C * delta(D), so the two
must be exact negatives of each other, which :func:`check_cocycle_pipelines`
verifies on every overlap.

The frame-adjusted triple identity for the cocycle is checked by
:func:`check_triple_identity`; splitting (hence existence of a logarithmic
connection) lives in the companion module ``splitting``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fans import Fan, FanCheck, IntVec
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    chart_member,
    matrix_chart_member,
    matrix_delta,
    matrix_det,
    matrix_inverse_unit,
)


@dataclass
class TransitionData:
    """Transition matrices over all ordered pairs of maximal cones."""

    fan: Fan
    rank: int
    matrices: dict[tuple[int, int], LaurentMatrix]

    def pair(self, s: int, t: int) -> LaurentMatrix:
        return self.matrices[(s, t)]

    def maximal(self) -> list[int]:
        return sorted({i for pair in self.matrices for i in pair})

    def ordered_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.matrices)


def transitions_from_one_sided(fan: Fan, rank: int, one_sided: dict) -> TransitionData:
    """Fill in the reverse direction of every pair by exact inversion."""
    mats = dict(one_sided)
    for (s, t), C in sorted(one_sided.items()):
        if (t, s) not in mats:
            mats[(t, s)] = matrix_inverse_unit(C)
    return TransitionData(fan, rank, mats)


def _basis(n: int) -> list[IntVec]:
    return [tuple(1 if i == b else 0 for i in range(n)) for b in range(n)]


def validate_transitions(data: TransitionData) -> list[FanCheck]:
    """Chart membership, unit determinants, inverse pairing and the cocycle law."""
    fan = data.fan
    n = fan.dim
    checks = []
    maximal = data.maximal()
    expected = {
        (s, t) for s in maximal for t in maximal if s != t
    }
    missing = sorted(expected - set(data.matrices))
    checks.append(
        FanCheck("transitions_present", "fail" if missing else "pass",
                 f"missing ordered pairs {missing}" if missing else "")
    )
    if missing:
        return checks

    member_bad = []
    unit_bad = []
    for s, t in data.ordered_pairs():
        C = data.pair(s, t)
        overlap = fan.cones[fan.overlap_index(s, t)]
        if not matrix_chart_member(C, overlap, fan):
            member_bad.append((s, t))
        det = matrix_det(C)
        if len(det.terms) != 1:
            unit_bad.append((s, t, "determinant is not a monomial"))
        else:
            (exp, _), = det.terms.items()
            inv_exp = tuple(-x for x in exp)
            if not chart_member(LaurentPoly.monomial(exp), overlap, fan) or not chart_member(
                LaurentPoly.monomial(inv_exp), overlap, fan
            ):
                unit_bad.append((s, t, "determinant is not a unit of the overlap ring"))
    checks.append(
        FanCheck("chart_membership", "fail" if member_bad else "pass",
                 f"entries leave the overlap ring on pairs {member_bad}" if member_bad else "")
    )
    checks.append(
        FanCheck("unit_determinants", "fail" if unit_bad else "pass",
                 f"{unit_bad}" if unit_bad else "")
    )

    inverse_bad = []
    for s, t in data.ordered_pairs():
        if s < t:
            I = LaurentMatrix.identity(data.rank, n)
            if data.pair(s, t) * data.pair(t, s) != I:
                inverse_bad.append((s, t))
    checks.append(
        FanCheck("inverse_pairing", "fail" if inverse_bad else "pass",
                 f"C_st * C_ts != identity on pairs {inverse_bad}" if inverse_bad else "")
    )

    triple_bad = []
    for s, t, u in itertools.permutations(maximal, 3):
        if data.pair(s, t) * data.pair(t, u) != data.pair(s, u):
            triple_bad.append((s, t, u))
    checks.append(
        FanCheck("cocycle_law", "fail" if triple_bad else "pass",
                 f"C_st*C_tu != C_su on triples {triple_bad[:6]}" if triple_bad else "")
    )
    return checks


@dataclass
class MatrixCocycle:
    """An N-linear matrix 1-cochain on overlaps: one matrix per basis vector."""

    fan: Fan
    rank: int
    pairs: dict[tuple[int, int], tuple[LaurentMatrix, ...]]

    def evaluate(self, s: int, t: int, v: IntVec) -> LaurentMatrix:
        mats = self.pairs[(s, t)]
        acc = LaurentMatrix.zero(self.rank)
        for c, M in zip(v, mats):
            if c:
                acc = acc + M.scale(c)
        return acc


def atiyah_cocycle(data: TransitionData) -> MatrixCocycle:
    """Derivative-first pipeline: delta(C_st) * C_ts for each basis vector."""
    out = {}
    for s, t in data.ordered_pairs():
        C = data.pair(s, t)
        D = data.pair(t, s)
        out[(s, t)] = tuple(matrix_delta(e, C) * D for e in _basis(data.fan.dim))
    return MatrixCocycle(data.fan, data.rank, out)


def obstruction_cocycle(data: TransitionData) -> MatrixCocycle:
    """Inverse-first pipeline: C_st * delta(C_ts) for each basis vector."""
    out = {}
    for s, t in data.ordered_pairs():
        C = data.pair(s, t)
        D = data.pair(t, s)
        out[(s, t)] = tuple(C * matrix_delta(e, D) for e in _basis(data.fan.dim))
    return MatrixCocycle(data.fan, data.rank, out)


def check_cocycle_pipelines(data: TransitionData) -> list[FanCheck]:
    """The two pipelines must produce exact negatives on every overlap."""
    A = atiyah_cocycle(data)
    B = obstruction_cocycle(data)
    checks = []
    for pair in sorted(A.pairs):
        ok = all(MA == -MB for MA, MB in zip(A.pairs[pair], B.pairs[pair]))
        checks.append(
            FanCheck(
                f"pipelines_opposite[{pair[0]},{pair[1]}]",
                "pass" if ok else "fail",
                "" if ok else f"derivative-first != -(inverse-first) on pair {pair}",
            )
        )
    return checks


def check_frame_antisymmetry(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    """A_ts = -C_ts A_st C_st on every overlap."""
    checks = []
    for s, t in sorted(cocycle.pairs):
        if s > t:
            continue
        Cst = data.pair(s, t)
        Cts = data.pair(t, s)
        ok = all(
            Mts == -(Cts * Mst * Cst)
            for Mst, Mts in zip(cocycle.pairs[(s, t)], cocycle.pairs[(t, s)])
        )
        checks.append(
            FanCheck(f"frame_antisymmetry[{s},{t}]", "pass" if ok else "fail",
                     "" if ok else f"pair ({s},{t})")
        )
    return checks


def check_triple_identity(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    """Frame-adjusted cocycle identity A_su = A_st + C_st A_tu C_ts on all triples."""
    maximal = data.maximal()
    checks = []
    for s, t, u in itertools.permutations(maximal, 3):
        Cst = data.pair(s, t)
        Cts = data.pair(t, s)
        ok = True
        for b in range(data.fan.dim):
            lhs = cocycle.pairs[(s, u)][b]
            rhs = cocycle.pairs[(s, t)][b] + Cst * cocycle.pairs[(t, u)][b] * Cts
            if lhs != rhs:
                ok = False
                break
        checks.append(
            FanCheck(f"triple_identity[{s},{t},{u}]", "pass" if ok else "fail",
                     "" if ok else f"identity fails on triple ({s},{t},{u})")
        )
    return checks
