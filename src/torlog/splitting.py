"""Graded coboundary solving: does the obstruction cocycle split?

A splitting is a family g_sigma of matrices over the chart rings with

    C_st * g_t * C_ts - g_s = A_st        (one equation per overlap)

for the cocycle A produced from the transition data.  Existence of such a
family is exactly the existence of a logarithmic connection on the bundle,
which in turn certifies an equivariant structure.

The equation is homogeneous with respect to the character grading, so the
solver works weight by weight: unknown matrix entries are supported on a
finite set of weights seeded by the cocycle and closed under the shifts
induced by conjugation with the transition entries.  The closure depth is
capped (TORLOG_WEIGHT_CAP, default 3) and the search deepens one level at
a time, so easy instances stay tiny.  A returned splitting is always
re-verified against the defining equation with independent matrix
arithmetic; "not found" only means: nothing in the searched graded space.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .bundles import EquivariantData
from .cocycles import (
    MatrixCocycle,
    TransitionData,
    _basis,
    atiyah_cocycle,
    check_frame_antisymmetry,
    check_triple_identity,
)
from .fans import Fan, FanCheck, IntVec, pairing, vec_add, vec_neg
from .laurent import Coeff, LaurentMatrix, LaurentPoly, chart_member, exact, matrix_delta

DEFAULT_WEIGHT_CAP = 3
_MAX_WEIGHTS = 4000


class InconsistentSplittingError(ValueError):
    """A claimed splitting fails the gauge gluing law."""


@dataclass
class MatrixCochain:
    """One matrix per maximal cone per lattice basis vector (an N-linear 0-cochain)."""

    fan: Fan
    rank: int
    cones: dict[int, tuple[LaurentMatrix, ...]]

    def evaluate(self, cone_index: int, v: IntVec) -> LaurentMatrix:
        acc = LaurentMatrix.zero(self.rank)
        for c, M in zip(v, self.cones[cone_index]):
            if c:
                acc = acc + M.scale(c)
        return acc


@dataclass
class SplitResult:
    cochain: MatrixCochain | None
    weight_cap: int
    closure_depth: int
    weights_searched: int

    @property
    def found(self) -> bool:
        return self.cochain is not None


def _weight_cap(cap) -> int:
    if cap is not None:
        return int(cap)
    return int(os.environ.get("TORLOG_WEIGHT_CAP", DEFAULT_WEIGHT_CAP))


def _seed_and_shifts(cocycle: MatrixCocycle, data: TransitionData):
    seed = {(0,) * data.fan.dim}
    for mats in cocycle.pairs.values():
        for M in mats:
            for row in M.entries:
                for f in row:
                    seed.update(f.terms)
    shifts = set()
    for (s, t), C in data.matrices.items():
        if s > t:
            continue
        D = data.matrices[(t, s)]
        exps_c = {e for row in C.entries for f in row for e in f.terms}
        exps_d = {e for row in D.entries for f in row for e in f.terms}
        for e1 in exps_c:
            for e2 in exps_d:
                shifts.add(vec_add(e1, e2))
    shifts |= {vec_neg(d) for d in shifts}
    shifts.discard((0,) * data.fan.dim)
    return seed, shifts


def _close_weights(seed, shifts, depth):
    weights = set(seed)
    frontier = set(seed)
    for _ in range(depth):
        new = set()
        for w in frontier:
            for d in shifts:
                x = vec_add(w, d)
                if x not in weights:
                    new.add(x)
        if not new:
            break
        weights |= new
        frontier = new
        if len(weights) > _MAX_WEIGHTS:
            break
    return weights


def split_cocycle(cocycle: MatrixCocycle, data: TransitionData, cap=None) -> SplitResult:
    """Search for a splitting cochain of the given cocycle.

    Deepens the weight closure one level at a time up to the cap and solves
    the resulting exact linear system; free coordinates are set to zero, so
    the particular solution returned is one representative of a possibly
    larger affine family.
    """
    cap = _weight_cap(cap)
    bad = [c.detail for c in check_frame_antisymmetry(cocycle, data) if not c.ok]
    if bad:
        raise ValueError(f"cocycle is not frame-antisymmetric on {bad[0]}; refusing to split")

    seed, shifts = _seed_and_shifts(cocycle, data)
    last_count = 0
    cochain = None
    depth_used = 0
    for depth in range(cap + 1):
        weights = _close_weights(seed, shifts, depth)
        if depth > 0 and len(weights) == last_count:
            break  # closure is saturated; deeper passes repeat the same system
        last_count = len(weights)
        depth_used = depth
        cochain = _solve_graded(cocycle, data, sorted(weights))
        if cochain is not None:
            break
    if cochain is not None:
        _require_splitting(cochain, cocycle, data)
    return SplitResult(cochain, cap, depth_used, last_count)


def _exact_div(c: Coeff, p: Coeff) -> Coeff:
    """c / p in canonical exact form; ``/`` on two ints would give a float."""
    if type(c) is int and type(p) is int and c % p == 0:
        return c // p
    return exact(Fraction(c, p))


def _solve_graded(cocycle, data, weights):
    fan = data.fan
    n = fan.dim
    r = data.rank
    maximal = data.maximal()
    cone_weights = {}
    for ci in maximal:
        cone = fan.cones[ci]
        cone_weights[ci] = [w for w in weights if chart_member(LaurentPoly.monomial(w), cone, fan)]

    var_of = {}
    for ci in maximal:
        for i in range(r):
            for j in range(r):
                for w in cone_weights[ci]:
                    var_of[(ci, i, j, w)] = len(var_of)

    pairs = sorted(p for p in cocycle.pairs if p[0] < p[1])
    rows: dict[tuple, dict[int, Coeff]] = {}
    rhs: dict[tuple, list[Coeff]] = {}

    def row_at(key):
        if key not in rows:
            rows[key] = {}
            rhs[key] = [0] * n
        return rows[key]

    for pidx, (s, t) in enumerate(pairs):
        C = data.pair(s, t)
        D = data.pair(t, s)
        # unknowns from g_t, conjugated through the pair
        for k in range(r):
            for l in range(r):
                for p in range(r):
                    left = C.entries[p][k]
                    if left.is_zero():
                        continue
                    for q in range(r):
                        prod = left * D.entries[l][q]
                        if prod.is_zero():
                            continue
                        for w in cone_weights[t]:
                            var = var_of[(t, k, l, w)]
                            for mc, c in prod.terms.items():
                                key = (pidx, p, q, vec_add(mc, w))
                                row = row_at(key)
                                nv = row.get(var, 0) + c
                                if nv:
                                    row[var] = nv
                                else:
                                    row.pop(var, None)
        # unknowns from g_s, entering diagonally with a minus sign
        for i in range(r):
            for j in range(r):
                for w in cone_weights[s]:
                    var = var_of[(s, i, j, w)]
                    key = (pidx, i, j, w)
                    row = row_at(key)
                    nv = row.get(var, 0) - 1
                    if nv:
                        row[var] = nv
                    else:
                        row.pop(var, None)
        # right-hand side: the cocycle itself, one column per basis vector
        for b in range(n):
            A = cocycle.pairs[(s, t)][b]
            for p in range(r):
                for q in range(r):
                    for m, c in A.entries[p][q].terms.items():
                        key = (pidx, p, q, m)
                        row_at(key)
                        rhs[key][b] += c

    pivots: dict[int, tuple[dict[int, Coeff], list[Coeff]]] = {}
    for key in sorted(rows):
        row = dict(rows[key])
        vec = list(rhs[key])
        for var in [x for x in row if x in pivots]:
            f = row.pop(var)
            rest, pvec = pivots[var]
            for v2, c2 in rest.items():
                nv = row.get(v2, 0) - f * c2
                if nv:
                    row[v2] = nv
                else:
                    row.pop(v2, None)
            for b in range(n):
                vec[b] -= f * pvec[b]
        if not row:
            if any(vec):
                return None  # inconsistent within the graded space
            continue
        pivot = min(row)
        coeff = row.pop(pivot)
        rest = {v2: _exact_div(c2, coeff) for v2, c2 in row.items()}
        pvec = [_exact_div(x, coeff) for x in vec]
        # keep earlier pivot rows clean of the new pivot variable
        for other, (orest, ovec) in pivots.items():
            if pivot in orest:
                f = orest.pop(pivot)
                for v2, c2 in rest.items():
                    nv = orest.get(v2, 0) - f * c2
                    if nv:
                        orest[v2] = nv
                    else:
                        orest.pop(v2, None)
                for b in range(n):
                    ovec[b] -= f * pvec[b]
        pivots[pivot] = (rest, pvec)

    # free variables are zero, so each pivot value is just its reduced rhs
    values = {var: pvec for var, (_, pvec) in pivots.items()}

    cones = {}
    for ci in maximal:
        per_basis = []
        for b in range(n):
            rows_out = []
            for i in range(r):
                row_out = []
                for j in range(r):
                    terms = {}
                    for w in cone_weights[ci]:
                        var = var_of[(ci, i, j, w)]
                        if var in values and values[var][b] != 0:
                            terms[w] = values[var][b]
                    row_out.append(LaurentPoly(terms))
                rows_out.append(row_out)
            per_basis.append(LaurentMatrix(rows_out))
        cones[ci] = tuple(per_basis)
    return MatrixCochain(fan, r, cones)


def verify_splitting(cochain: MatrixCochain, cocycle: MatrixCocycle, data: TransitionData) -> bool:
    """Independent check of the defining equation on every ordered overlap."""
    for (s, t), mats in sorted(cocycle.pairs.items()):
        C = data.pair(s, t)
        D = data.pair(t, s)
        for b, A in enumerate(mats):
            lhs = C * cochain.cones[t][b] * D - cochain.cones[s][b]
            if lhs != A:
                return False
    return True


def _require_splitting(cochain, cocycle, data):
    if not verify_splitting(cochain, cocycle, data):
        raise RuntimeError("graded solver returned a cochain that fails its own equation")


def equivariant_splitting(data: EquivariantData) -> MatrixCochain:
    """The canonical splitting carried by equivariant weights: diag(-<m_i, .>)."""
    fan = data.fan
    n = fan.dim
    cones = {}
    for ci in sorted(data.weights):
        per_basis = []
        for e in _basis(n):
            diag = [
                LaurentPoly.const(-pairing(m, e), n) if pairing(m, e) else LaurentPoly()
                for m in data.weights[ci]
            ]
            per_basis.append(LaurentMatrix.diagonal(diag))
        cones[ci] = tuple(per_basis)
    return MatrixCochain(fan, data.rank, cones)


def connection_from_splitting(splitting: MatrixCochain, data: TransitionData):
    """Read the splitting as chart connection forms and verify the gauge law.

    The forms are omega_sigma = g_sigma; across an overlap they must glue as

        omega_t = C_ts * omega_s * C_st + C_ts * delta(C_st)

    which is checked exactly on every ordered pair and basis vector.  A
    violation raises InconsistentSplittingError.
    """
    fan = data.fan
    n = fan.dim
    checks = []
    for (s, t) in sorted(data.matrices):
        Cst = data.pair(s, t)
        Cts = data.pair(t, s)
        ok = True
        for b, e in enumerate(_basis(n)):
            lhs = splitting.cones[t][b]
            rhs = Cts * splitting.cones[s][b] * Cst + Cts * matrix_delta(e, Cst)
            if lhs != rhs:
                ok = False
                break
        if not ok:
            raise InconsistentSplittingError(
                f"gauge law fails across pair ({s},{t}); the cochain is not a splitting"
            )
        checks.append(FanCheck(f"gauge_law[{s},{t}]", "pass", ""))
    return splitting.cones, checks


def equivariance_verdict(data: TransitionData, cap=None):
    """Decide equivariance by splitting the obstruction cocycle.

    Returns (checks, split_result).  A found splitting certifies a
    logarithmic connection and with it an equivariant structure; a miss is
    only "nothing within the searched graded space" and is reported as
    undetermined, never as a disproof.
    """
    cocycle = atiyah_cocycle(data)
    checks = [c for c in check_triple_identity(cocycle, data)]
    if not all(c.ok for c in checks):
        checks.append(FanCheck("equivariance", "fail", "cocycle fails the triple identity"))
        return checks, SplitResult(None, _weight_cap(cap), 0, 0)
    result = split_cocycle(cocycle, data, cap=cap)
    if result.found:
        connection_from_splitting(result.cochain, data)
        checks.append(
            FanCheck(
                "equivariance",
                "pass",
                "splitting found: a logarithmic connection exists, "
                "so the bundle admits an equivariant structure",
            )
        )
    else:
        checks.append(
            FanCheck(
                "equivariance",
                "undetermined",
                f"no splitting found within the graded search space "
                f"(closure depth {result.closure_depth}, cap {result.weight_cap}, "
                f"{result.weights_searched} weights); not a proof of non-existence",
            )
        )
    return checks, result
