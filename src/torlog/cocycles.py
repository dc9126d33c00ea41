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

Each pipeline makes one ``laurent.delta_products`` call per overlap,
which returns the product for every basis vector at once.  Since C * D = 1,
the Leibniz rule gives delta(C) * D = -C * delta(D), so the two must be
exact negatives of each other.  :func:`check_cocycle_pipelines` verifies
that on every overlap without building either cocycle: term by term, the
sum of the two pipelines is delta(C * D), so they cancel in every direction
exactly when the raw product C * D is constant, which
``laurent.constant_product`` tests in one pass.

The frame antisymmetry and the frame-adjusted triple identity of the
cocycle are checked by :func:`check_frame_antisymmetry` and
:func:`check_triple_identity`, each through ``laurent.vanishing``, one batch
of zero tests C * X * D + Z - W per overlap that builds no matrix; so are
the inverse pairing and the cocycle law, as products C * X + Z - W.
Splitting (hence existence of a logarithmic connection) lives in the
companion module ``splitting``.

:func:`root_chart_law` proves the inverse pairing C_st C_ts = 1 and the
cocycle law C_st C_tu = C_su on every pair and triple from (m - 1)^2
products through the root chart r = maximal[-1], m being the number of
charts.  Write C_ss = 1 and check only

    C_sr C_rt = C_st        for all s, t != r,

which for t = s is the inverse pairing C_sr C_rs = 1 on the pairs into the
root.  A square matrix with a one-sided inverse over a commutative ring has
it on both sides (take determinants), so C_rs C_sr = 1 too, and the law
holds trivially when s or t is r.  Then for every pair

    C_st C_ts = C_sr C_rt C_tr C_rs = C_sr C_rs = 1,

and for every triple

    C_st C_tu = C_sr C_rt C_tr C_ru = C_sr C_ru = C_su.

The triple identity reduces the same way.  Write X^st for C_st X C_ts
and T(s,t,u) for A_su = A_st + A_tu^st.  :func:`reduction_holds` is the
one predicate of this reduction: the root-chart law, frame antisymmetry
and T(s,t,r) for s < t, both != r, in that order.  By the cocycle law
(X^tu)^st = X^su, and antisymmetry on s < t, A_ts = -A_st^ts, gives
A_st = -A_ts^st by conjugating with st.  Given the three facts, the rest
follow:

* r last, s > t: conjugating T(t,s,r) with st gives
  A_tr^st = A_ts^st + A_sr = -A_st + A_sr, which is T(s,t,r).
* no r: substituting T(t,u,r) into T(s,t,r) gives
  A_sr = A_st + A_tu^st + A_ur^su, and T(s,u,r) says A_sr = A_su + A_ur^su,
  so A_su = A_st + A_tu^st.
* r first: conjugating T(t,u,r) with rt gives A_tr^rt = A_tu^rt + A_ur^ru,
  that is -A_rt = A_tu^rt - A_ru, which is T(r,t,u).
* r in the middle: A_ru^sr = -A_ur^su, so T(s,u,r) reads
  A_su = A_sr + A_ru^sr, which is T(s,r,u).

Every triple through the root is among all triples, so given the law and
antisymmetry, :func:`reduction_holds` is true exactly when every triple
holds.  :func:`check_triple_identity` lists the passes when it is true and
otherwise enumerates every triple, so the failure details name the same
triples as a full check; the solver's gate (``splitting._require_splitting``)
reads it to tell a faulty solve from a broken input.

The reduction needs the root-chart law and antisymmetry, and each is
proved once per object: :func:`validate_transitions` records
the law on the transitions (it always proves it; the gate never reads its
own record) and :func:`check_frame_antisymmetry` records its checks on
the cocycle.  A record is served only while every input it read is the
same object, the fan, the rank, each key and matrix of the transitions
and, for antisymmetry, the transitions object and each basis tuple of
the cocycle, so replacing any of them in place makes the next call prove
it again.  So the ``cocycle`` command and the equivariance verdict's miss
(``splitting`` docstring) run each law once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .fans import Fan, FanCheck
from .laurent import (
    LaurentMatrix,
    constant_product,
    delta_products,
    in_chart,
    matrix_chart_member,
    matrix_det,
    matrix_inverse_unit,
    vanishing,
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
        """The charts: the fan's maximal cones, whether or not a transition names them."""
        return self.fan.maximal_cone_indices()

    def ordered_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.matrices)


def transitions_from_one_sided(fan: Fan, rank: int, one_sided: dict) -> TransitionData:
    """Fill in the reverse direction of every pair by exact inversion."""
    mats = dict(one_sided)
    for (s, t), C in sorted(one_sided.items()):
        if (t, s) not in mats:
            mats[(t, s)] = matrix_inverse_unit(C)
    return TransitionData(fan, rank, mats)


def validate_transitions(data: TransitionData) -> list[FanCheck]:
    """Chart membership, unit determinants, inverse pairing and the cocycle law.

    Both laws are enumerated pair by pair only when :func:`root_chart_law`
    fails; otherwise its (m - 1)^2 products through the root chart prove the
    inverse pairing on every pair and the law on every triple (module
    docstring).

    Determinants are expanded only when chart membership or the root-chart
    law fails, since the two together prove every determinant a unit of its
    overlap ring: C_st C_ts = 1 gives det C_st * det C_ts = 1 in the Laurent
    ring, whose units are the monomials c chi^m, so det C_st = c chi^m and
    det C_ts = c^-1 chi^-m; with both matrices over the overlap ring (a
    ring), both determinants lie in it, so chi^m is a unit there.
    """
    fan = data.fan
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

    overlaps = {(s, t): fan.cones[fan.overlap_index(s, t)] for s, t in data.ordered_pairs()}
    member_bad = [(s, t) for (s, t), overlap in overlaps.items()
                  if not matrix_chart_member(data.pair(s, t), overlap, fan)]
    through_root = recorded_root_chart_law(data, reuse=False)  # the gate always proves
    unit_bad = []
    if member_bad or not through_root:  # else every determinant is a unit (docstring)
        for (s, t), overlap in overlaps.items():
            det = matrix_det(data.pair(s, t))
            if len(det.terms) != 1:
                unit_bad.append((s, t, "determinant is not a monomial"))
                continue
            (exp, _), = det.terms.items()
            rays = fan.ray_matrix(overlap)
            if not in_chart(exp, rays) or not in_chart(tuple(-x for x in exp), rays):
                unit_bad.append((s, t, "determinant is not a unit of the overlap ring"))
    checks.append(
        FanCheck("chart_membership", "fail" if member_bad else "pass",
                 f"entries leave the overlap ring on pairs {member_bad}" if member_bad else "")
    )
    checks.append(
        FanCheck("unit_determinants", "fail" if unit_bad else "pass",
                 f"{unit_bad}" if unit_bad else "")
    )

    inverse_bad, triple_bad = [], []
    if not through_root:
        inverse_bad = _inverse_pairing_fails(data)
        triple_bad = [(s, t, u) for s, t, u in itertools.permutations(maximal, 3)
                      if not vanishing(data.pair(s, t), (data.pair(t, u),),
                                       minus=[(data.pair(s, u),)])[0]]
    checks.append(
        FanCheck("inverse_pairing", "fail" if inverse_bad else "pass",
                 f"C_st * C_ts != identity on pairs {inverse_bad}" if inverse_bad else "")
    )
    checks.append(
        FanCheck("cocycle_law", "fail" if triple_bad else "pass",
                 f"C_st*C_tu != C_su on triples {triple_bad[:6]}" if triple_bad else "")
    )
    return checks


def _inverse_pairing_fails(data: TransitionData) -> list[tuple[int, int]]:
    """The pairs s < t with C_st C_ts != 1, in order."""
    one = (LaurentMatrix.identity(data.rank, data.fan.dim),)
    return [(s, t) for s, t in itertools.combinations(data.maximal(), 2)
            if not vanishing(data.pair(s, t), (data.pair(t, s),), minus=(one,))[0]]


def root_chart_law(data: TransitionData) -> bool:
    """C_sr C_rt = C_st through the root chart r = maximal[-1], with C_ss = 1.

    One batch of zero tests per chart s != r, over every t != r: the
    inverse pairing C_sr C_rs = 1 on the m - 1 pairs into the root (t = s)
    and the law on every ordered pair of other charts, (m - 1)^2 products
    in all.  Together they prove the inverse pairing and the cocycle law on
    every pair and triple (module docstring).
    """
    maximal = data.maximal()
    root, rest = maximal[-1], maximal[:-1]
    one = LaurentMatrix.identity(data.rank, data.fan.dim)
    return all(all(vanishing(data.pair(s, root), [data.pair(root, t) for t in rest],
                             minus=[[one if t == s else data.pair(s, t) for t in rest]]))
               for s in rest)


def _transition_inputs(data: TransitionData) -> list:
    """What a recorded fact of the transitions read: the fan, the rank, each key and matrix."""
    return [data.fan, data.rank, *itertools.chain.from_iterable(data.matrices.items())]


def _kept(owner, inputs: list, prove, reuse: bool = True):
    """prove(), recorded on owner as ``_record`` together with the inputs it read.

    With reuse, the recorded result is served instead while every input is
    still the same object (``is``), so replacing any of them in place makes
    the next call prove again.  Without it the record is only written.
    """
    record = getattr(owner, "_record", None) if reuse else None
    if record is not None and len(record[0]) == len(inputs) and all(
            map(operator.is_, record[0], inputs)):
        return record[1]
    result = prove()
    owner._record = (inputs, result)
    return result


def recorded_root_chart_law(data: TransitionData, reuse: bool = True) -> bool:
    """:func:`root_chart_law`, recorded on the transitions.

    With reuse the record is read back while the transitions are unchanged.
    """
    return _kept(data, _transition_inputs(data), lambda: root_chart_law(data), reuse)


@dataclass
class MatrixCocycle:
    """An N-linear matrix 1-cochain on overlaps: one matrix per basis vector."""

    fan: Fan
    rank: int
    pairs: dict[tuple[int, int], tuple[LaurentMatrix, ...]]


def atiyah_cocycle(data: TransitionData) -> MatrixCocycle:
    """Derivative-first pipeline: delta(C_st) * C_ts for each basis vector."""
    n = data.fan.dim
    out = {(s, t): delta_products(data.pair(s, t), data.pair(t, s), n, left=True)
           for s, t in data.ordered_pairs()}
    return MatrixCocycle(data.fan, data.rank, out)


def obstruction_cocycle(data: TransitionData) -> MatrixCocycle:
    """Inverse-first pipeline: C_st * delta(C_ts) for each basis vector.

    No check builds it: :func:`check_cocycle_pipelines` tests the sum of the
    two pipelines without either.  It stays public as the reference the
    tests build and compare against.
    """
    n = data.fan.dim
    out = {(s, t): delta_products(data.pair(s, t), data.pair(t, s), n, left=False)
           for s, t in data.ordered_pairs()}
    return MatrixCocycle(data.fan, data.rank, out)


def check_cocycle_pipelines(data: TransitionData) -> list[FanCheck]:
    """The two pipelines must produce exact negatives on every overlap.

    Neither cocycle is built.  On the ordered pair (s, t), with C = C_st and
    D = C_ts, a term pair (e1, c1) of C and (e2, c2) of D adds c1 * c2 * e1[b]
    at e = e1 + e2 to the derivative-first A_b = delta_{e_b}(C) * D and
    c1 * c2 * e2[b] to the inverse-first B_b = C * delta_{e_b}(D).  So
    A_b + B_b has e[b] * P[e] at e, P[e] being the coefficient of the raw
    product C * D there, and A_b = -B_b for every b exactly when every
    nonzero coefficient of C * D sits at exponent 0.  That is an identity of
    exact term sums: it does not assume C * D = 1 (C scaled by 3 passes, as
    it does the built comparison), and ``laurent.constant_product`` tests
    it in one pass over the cached flat rows.
    """
    checks = []
    for s, t in data.ordered_pairs():
        ok = constant_product(data.pair(s, t), data.pair(t, s))
        checks.append(
            FanCheck(
                f"pipelines_opposite[{s},{t}]",
                "pass" if ok else "fail",
                "" if ok else f"derivative-first != -(inverse-first) on pair {(s, t)}",
            )
        )
    return checks


def check_frame_antisymmetry(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    """A_ts = -C_ts A_st C_st on every overlap.

    The checks are recorded on the cocycle and served, as a fresh list,
    while it and the transitions are unchanged (module docstring).
    """
    inputs = [*_transition_inputs(data), data,
              *itertools.chain.from_iterable(cocycle.pairs.items())]
    return list(_kept(cocycle, inputs, lambda: tuple(_frame_antisymmetry(cocycle, data))))


def _frame_antisymmetry(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    checks = []
    for s, t in sorted(cocycle.pairs):
        if s > t:
            continue
        ok = all(vanishing(data.pair(t, s), cocycle.pairs[(s, t)], data.pair(s, t),
                           plus=[cocycle.pairs[(t, s)]]))
        checks.append(
            FanCheck(f"frame_antisymmetry[{s},{t}]", "pass" if ok else "fail",
                     "" if ok else f"pair ({s},{t})")
        )
    return checks


def _triple(s: int, t: int, u: int, ok: bool = True) -> FanCheck:
    return FanCheck(f"triple_identity[{s},{t},{u}]", "pass" if ok else "fail",
                    "" if ok else f"identity fails on triple ({s},{t},{u})")


def triple_passes(data: TransitionData) -> list[FanCheck]:
    """The triple identity's checks when it holds, in ``permutations`` order."""
    return [_triple(s, t, u) for s, t, u in itertools.permutations(data.maximal(), 3)]


def triples_through_root(cocycle: MatrixCocycle, data: TransitionData) -> bool:
    """T(s, t, r) for s < t, both charts other than the root r = maximal[-1].

    One batch of zero tests per such pair, (m - 1)(m - 2)/2 in all.  With
    frame antisymmetry on (s, t) and C_ts C_st = 1 it gives T(t, s, r) too
    (module docstring), so callers run it only past both.
    """
    maximal = data.maximal()
    root = maximal[-1]
    A = cocycle.pairs
    return all(all(vanishing(data.pair(s, t), A[(t, root)], data.pair(t, s),
                             plus=[A[(s, t)]], minus=[A[(s, root)]]))
               for s, t in itertools.combinations(maximal[:-1], 2))


def reduction_holds(cocycle: MatrixCocycle, data: TransitionData) -> bool:
    """The root-chart law, frame antisymmetry and T(s, t, r) for s < t, in that order.

    The law and antisymmetry are read from their records while the objects
    are unchanged.  True exactly when the law, antisymmetry and every triple
    hold (module docstring).
    """
    return (recorded_root_chart_law(data)
            and all(c.ok for c in check_frame_antisymmetry(cocycle, data))
            and triples_through_root(cocycle, data))


def check_triple_identity(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    """Frame-adjusted cocycle identity A_su = A_st + C_st A_tu C_ts on all triples.

    Passes when :func:`reduction_holds`, else every triple enumerated; the
    checks come out in ``permutations`` order either way (module docstring).
    Fewer than three charts give no triple.
    """
    if len(data.maximal()) < 3:
        return []
    if reduction_holds(cocycle, data):
        return triple_passes(data)
    return _enumerated_triples(cocycle, data)


def _enumerated_triples(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    """Every triple: one batch of zero tests over the basis per ordered triple."""
    A = cocycle.pairs
    return [_triple(s, t, u, all(vanishing(data.pair(s, t), A[(t, u)], data.pair(t, s),
                                           plus=[A[(s, t)]], minus=[A[(s, u)]])))
            for s, t, u in itertools.permutations(data.maximal(), 3)]
