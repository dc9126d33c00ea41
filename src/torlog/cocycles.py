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

Each pipeline makes one pass per overlap through ``laurent.delta_products``,
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

:func:`root_chart_law` proves the cocycle law C_st C_tu = C_su on every
triple through the root chart r = maximal[-1].  Once the inverse pairing
holds (C_st C_ts = 1 for s < t, hence also C_ts C_st = 1, the Laurent ring
being commutative), write C_rr = 1 and check only

    C_sr C_rt = C_st        for all s != t, both != r.

That holds trivially when s or t is r too, so for every triple

    C_st C_tu = C_sr C_rt C_tr C_ru = C_sr C_ru = C_su.

:func:`check_triple_identity` reduces the same way.  Write X^st for
C_st X C_ts and T(s,t,u) for A_su = A_st + A_tu^st.  By the cocycle law
(X^tu)^st = X^su, and antisymmetry on s < t, A_ts = -A_st^ts, gives
A_st = -A_ts^st by conjugating with st.  Given the root-chart law,
antisymmetry and T(s,t,r) checked for all s, t != r, the rest follow:

* no r: substituting T(t,u,r) into T(s,t,r) gives
  A_sr = A_st + A_tu^st + A_ur^su, and T(s,u,r) says A_sr = A_su + A_ur^su,
  so A_su = A_st + A_tu^st.
* r first: conjugating T(t,u,r) with rt gives A_tr^rt = A_tu^rt + A_ur^ru,
  that is -A_rt = A_tu^rt - A_ru, which is T(r,t,u).
* r in the middle: A_ru^sr = -A_ur^su, so T(s,u,r) reads
  A_su = A_sr + A_ru^sr, which is T(s,r,u).

When any of these facts fails, every triple is enumerated, so the failure
details name the same triples as a full check.

:func:`check_triple_identity` establishes the root-chart law and
antisymmetry itself.  Past the :func:`validate_transitions` gate the law is
already proved, so :func:`gated_triple_identity` takes the caller's
antisymmetry checks and runs only the triples through r; the ``cocycle``
command reports those checks, and the equivariance verdict runs them only
when no splitting is found, since a found one proves both (``splitting``
docstring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fans import DimensionError, Fan, FanCheck, IntVec
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
    """Chart membership, unit determinants, inverse pairing and the cocycle law.

    Both laws are enumerated pair by pair only when :func:`root_chart_law`
    fails, which proves them on every triple otherwise (module docstring).

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
    through_root = root_chart_law(data)
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
        for s, t in itertools.permutations(maximal, 2):
            thirds = [u for u in maximal if u != s and u != t]
            ok = vanishing(data.pair(s, t), [data.pair(t, u) for u in thirds],
                           minus=[[data.pair(s, u) for u in thirds]])
            triple_bad += [(s, t, u) for u, holds in zip(thirds, ok) if not holds]
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
    """The inverse pairing, and C_sr C_rt = C_st through the root chart r = maximal[-1].

    One batch of zero tests per chart s != r, over every t != s, r.
    """
    maximal = data.maximal()
    root, rest = maximal[-1], maximal[:-1]
    if _inverse_pairing_fails(data):
        return False
    for s in rest:
        others = [t for t in rest if t != s]
        if not all(vanishing(data.pair(s, root), [data.pair(root, t) for t in others],
                             minus=[[data.pair(s, t) for t in others]])):
            return False
    return True


def evaluate_linear(mats, v: IntVec, rank: int) -> LaurentMatrix:
    """The value at v of an N-linear matrix family given on the basis: sum v_b * M_b.

    A vector whose length is not the number of basis matrices raises
    DimensionError.
    """
    if len(v) != len(mats):
        raise DimensionError(f"a vector of length {len(v)} for {len(mats)} basis matrices")
    acc = LaurentMatrix.zero(rank)
    for c, M in zip(v, mats):
        if c:
            acc = acc + M.scale(c)
    return acc


@dataclass
class MatrixCocycle:
    """An N-linear matrix 1-cochain on overlaps: one matrix per basis vector."""

    fan: Fan
    rank: int
    pairs: dict[tuple[int, int], tuple[LaurentMatrix, ...]]

    def evaluate(self, s: int, t: int, v: IntVec) -> LaurentMatrix:
        return evaluate_linear(self.pairs[(s, t)], v, self.rank)


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
    """A_ts = -C_ts A_st C_st on every overlap."""
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
    """T(s, t, r) for every ordered pair of charts other than the root r = maximal[-1]."""
    maximal = data.maximal()
    root = maximal[-1]
    A = cocycle.pairs
    return all(all(vanishing(data.pair(s, t), A[(t, root)], data.pair(t, s),
                             plus=[A[(s, t)]], minus=[A[(s, root)]]))
               for s, t in itertools.permutations(maximal[:-1], 2))


def check_triple_identity(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    """Frame-adjusted cocycle identity A_su = A_st + C_st A_tu C_ts on all triples.

    Proved through the root chart when it can be (module docstring), else
    enumerated; the checks come out in ``permutations`` order.
    """
    if len(data.maximal()) < 3:
        return []
    if root_chart_law(data):
        return gated_triple_identity(cocycle, data, check_frame_antisymmetry(cocycle, data))
    return _enumerated_triples(cocycle, data)


def gated_triple_identity(cocycle: MatrixCocycle, data: TransitionData,
                          antisymmetry: list[FanCheck]) -> list[FanCheck]:
    """The triple identity on transitions that pass :func:`validate_transitions`.

    The gate has proved the root-chart law, so with the caller's frame
    antisymmetry checks passing, the triples through the root chart stand
    for all (module docstring); otherwise every triple is enumerated.
    """
    if all(c.ok for c in antisymmetry) and triples_through_root(cocycle, data):
        return triple_passes(data)
    return _enumerated_triples(cocycle, data)


def _enumerated_triples(cocycle: MatrixCocycle, data: TransitionData) -> list[FanCheck]:
    """Every triple: one batch of zero tests per ordered pair (s, t), over every third u."""
    maximal = data.maximal()
    pairs = cocycle.pairs
    checks = []
    for s, t in itertools.permutations(maximal, 2):
        thirds = [u for u in maximal if u != s and u != t]
        # (A_st, A_tu, A_su) for every third chart u and basis vector
        slots = {u: list(zip(pairs[(s, t)], pairs[(t, u)], pairs[(s, u)])) for u in thirds}
        batch = [z for u in thirds for z in slots[u]]
        got = iter(vanishing(data.pair(s, t), [Atu for _, Atu, _ in batch], data.pair(t, s),
                             plus=[[Ast for Ast, _, _ in batch]],
                             minus=[[Asu for _, _, Asu in batch]]))
        for u in thirds:
            ok = all([next(got) for _ in slots[u]])  # a list: consume them all
            checks.append(_triple(s, t, u, ok))
    return checks
