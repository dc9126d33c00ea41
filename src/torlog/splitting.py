"""Graded coboundary solving: does the obstruction cocycle split?

A splitting is a family g_sigma of matrices over the chart rings with

    C_st * g_t * C_ts - g_s = A_st        (one equation per overlap)

for the cocycle A produced from the transition data.  Existence of such a
family is exactly the existence of a logarithmic connection on the bundle,
which in turn certifies an equivariant structure.

The solver fixes the gauge on one root chart s0 (the last maximal cone).
The equation on the pair (t, s0) gives every other chart's value,

    g_t = C_{t s0} * g_{s0} * C_{s0 t} - A_{t s0},

and the equations on all other pairs then follow from the identities the
cocycle satisfies, so the unknowns are the entries of g_{s0} alone and the
only conditions left are that each g_t lies in its chart ring.

The conditions are homogeneous with respect to the character grading, so
the solver works weight by weight: the entries of g_{s0} are supported on a
finite set of weights seeded by the cocycle and closed under the shifts
induced by conjugation with the transition entries.  The closure depth is
capped (TORLOG_WEIGHT_CAP, default 3).  Depth 0 solves over the seed alone;
each further depth adds one level, the last level's weights moved by every
shift less the weights already held, and solves over the whole set again,
so easy instances stay tiny and cap c builds c levels.  The search stops
early when a level adds nothing (saturated), or before the next level once
one has taken the set past _MAX_WEIGHTS weights; ``SplitResult.truncated``
records that the limit, not the cap or saturation, ended the search, and
the miss reports say so.  A returned splitting is always re-verified
against the defining equation, independently of the solve: one exact zero
test of C_st g_t C_ts - g_s - A_st per ordered pair (``laurent.vanishing``);
"not found" only means: nothing in the searched graded space.

Reach.  Each solve eliminates only the rows a right-hand side reaches: the
rows where an off-chart term of A_{t s0} gives a nonzero right-hand side,
closed under "shares an unknown with".  Gauss-Jordan never mixes two
components of the row-unknown graph: a row is reduced only by pivot rows
whose pivot it holds, and a new pivot is cleared only from rows that hold
it.  Each component is therefore eliminated as if alone, in the same row
order with the same pivot choice (the lowest unknown), so the reached
components give the same pivots and quotients with or without the others.
An unreached component has a zero right-hand side: it is consistent, and
with its free unknowns zero every one of its pivots is zero too.  So
leaving it out leaves the particular solution unchanged (its unknowns stay
zero), and every miss too, since only a reached row can be inconsistent.
When no term of any A_{t s0} lies outside chart(t) nothing is reached, no
row is built and g_{s0} is zero.  A left-kernel certificate of a miss, a y
with y M = 0 and y b != 0 over the reached rows, is one for the whole
system once y is extended by zero.

Past the gate.  :func:`equivariance_verdict` and the ``split`` command
first run :func:`~torlog.cocycles.validate_transitions`, which proves
C_ts C_st = 1 and C_st C_tu = C_su on every pair and triple.  Past it,
four facts hold with no further arithmetic:

* the Leibniz skip: the Atiyah cocycle A_st = delta(C_st) C_ts is
  frame-antisymmetric, since delta(C_ts) C_st = -C_ts delta(C_st), so the
  solver is handed no antisymmetry checks (``antisymmetry=[]``);
* a verified splitting proves antisymmetry: conjugating the equation on
  (s, t) with ts gives  -C_ts A_st C_st = C_ts g_s C_st - g_t = A_ts;
* it proves the triple identity: adding the equation on (t, u),
  conjugated with st, to the one on (s, t) gives
  A_st + C_st A_tu C_ts = C_su g_u C_us - g_s = A_su;
* it proves the gauge law: the law :func:`connection_from_splitting`
  checks on (s, t) is the splitting equation on (t, s), by the same
  Leibniz identity.

So the verdict lists a found splitting's triple checks as passes
(:func:`~torlog.cocycles.triple_passes`) and ``split`` its gauge checks
(:func:`gauge_passes`); only a miss runs antisymmetry and the triple
identity, to tell a broken cocycle from an empty search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

from .bundles import EquivariantData, connection_form
from .cocycles import (
    MatrixCocycle,
    TransitionData,
    atiyah_cocycle,
    check_frame_antisymmetry,
    check_triple_identity,
    evaluate_linear,
    reduction_holds,
    triple_passes,
    validate_transitions,
)
from .fans import Fan, FanCheck, IntVec, vec_add, vec_adder, vec_neg
from .laurent import (
    Coeff,
    LaurentMatrix,
    LaurentPoly,
    _sparse_rows,
    conjugations,
    delta_products,
    in_chart,
    matrix_chart_member,
    vanishing,
)
from .linalg import eliminate

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
        return evaluate_linear(self.cones[cone_index], v, self.rank)


@dataclass
class SplitResult:
    cochain: MatrixCochain | None
    weight_cap: int
    closure_depth: int
    weights_searched: int
    truncated: bool = False  # a level passed _MAX_WEIGHTS and the cap allowed more levels

    @property
    def found(self) -> bool:
        return self.cochain is not None

    def truncation_note(self) -> str:
        """The clause a miss report appends when the closure was truncated, else empty."""
        if not self.truncated:
            return ""
        return (f"; the weight closure stopped at the {_MAX_WEIGHTS}-weight limit "
                f"before reaching depth {self.closure_depth + 1}")


class WeightCapError(ValueError):
    """A weight cap, given or from TORLOG_WEIGHT_CAP, is not an integer."""


def weight_cap(cap=None) -> int:
    """The closure depth cap: ``cap`` if given, else TORLOG_WEIGHT_CAP, else the default.

    A given cap must be an ``int`` (a bool is not one); anything else raises
    WeightCapError rather than being truncated.  A negative cap is allowed
    and searches nothing.
    """
    if cap is not None:
        if type(cap) is not int:
            raise WeightCapError(f"the weight cap must be an integer, got {cap!r}")
        return cap
    raw = os.environ.get("TORLOG_WEIGHT_CAP")
    if raw is None:
        return DEFAULT_WEIGHT_CAP
    try:
        return int(raw)
    except ValueError:
        raise WeightCapError(f"TORLOG_WEIGHT_CAP must be an integer, got {raw!r}") from None


def _exponents(M: LaurentMatrix) -> set:
    """Every exponent of a matrix's entries."""
    return {e for row in M.entries for f in row for e in f.terms}


def _seed(cocycle: MatrixCocycle, data: TransitionData) -> set:
    """The depth-0 weights: zero and every exponent of the cocycle."""
    seed = {(0,) * data.fan.dim}
    for mats in cocycle.pairs.values():
        for M in mats:
            seed |= _exponents(M)
    return seed


def _shifts(data: TransitionData) -> set:
    """The nonzero weight shifts of conjugation: ±(e1 + e2) over the exponents of C_st and C_ts."""
    shifts = set()
    for (s, t), C in data.matrices.items():
        if s < t:
            exps_d = _exponents(data.matrices[(t, s)])
            shifts |= {vec_add(e1, e2) for e1 in _exponents(C) for e2 in exps_d}
    shifts |= {vec_neg(d) for d in shifts}
    shifts.discard((0,) * data.fan.dim)
    return shifts


def split_cocycle(cocycle: MatrixCocycle, data: TransitionData, cap=None,
                  antisymmetry=None) -> SplitResult:
    """Search for a splitting cochain of the given cocycle.

    Deepens the weight closure one level at a time up to the cap and solves
    the resulting exact linear system; free coordinates are set to zero, so
    the particular solution returned is one representative of a possibly
    larger affine family.  A cocycle that is not frame-antisymmetric is
    refused; ``antisymmetry`` hands in its checks if the caller ran them,
    and past the gate ``[]`` (the Leibniz skip, module docstring).
    """
    cap = weight_cap(cap)
    if antisymmetry is None:
        antisymmetry = check_frame_antisymmetry(cocycle, data)
    bad = [c.detail for c in antisymmetry if not c.ok]
    if bad:
        raise ValueError(f"cocycle is not frame-antisymmetric on {bad[0]}; refusing to split")

    vadd = vec_adder(data.fan.dim)
    weights = frontier = _seed(cocycle, data) if cap >= 0 else set()
    cochain = None
    depth_used = 0
    truncated = False
    for depth in range(cap + 1):
        if depth:
            if depth > 1 and len(weights) > _MAX_WEIGHTS:
                truncated = True  # the last level passed the limit with levels left
                break
            if depth == 1:
                shifts = _shifts(data)  # depth 0 is the seed alone
            frontier = {vadd(w, d) for w in frontier for d in shifts} - weights
            if not frontier:
                break  # saturated: deeper levels add nothing
            weights |= frontier
        depth_used = depth
        cochain = _solve_graded(cocycle, data, sorted(weights))
        if cochain is not None:
            cochain = _require_splitting(cochain, cocycle, data)
        if cochain is not None:
            break
    return SplitResult(cochain, cap, depth_used, len(weights), truncated)


def _solve_graded(cocycle, data, weights):
    """Solve for g on the root chart s0 = maximal[-1]; None if the system is inconsistent.

    Five phases: :func:`_right_hand_sides` reads the right-hand sides off
    A_{t s0}, :func:`_graded_system` builds the rows, :func:`_reached` keeps
    those a right-hand side reaches, :func:`~torlog.linalg.eliminate`
    reduces them in sorted key order, and :func:`_assemble` reads g_{s0}
    off the pivots and conjugates it into every other chart.

    The unknowns are the entries of g_{s0} at the weights of W in chart(s0).
    The equation on (t, s0) defines g_t = C_{t s0} g_{s0} C_{s0 t} - A_{t s0},
    and the conditions are its coefficients at exponents outside chart(t),
    one row per (t, entry, exponent).  That this g solves every equation:

    * pair (s0, t): since C_{s0 t} C_{t s0} = 1,
      C_{s0 t} g_t C_{t s0} - g_{s0} = -C_{s0 t} A_{t s0} C_{t s0} = A_{s0 t}
      by frame antisymmetry;
    * pair (s, t) with s, t != s0: by the cocycle law C_st C_{t s0} = C_{s s0}
      the g_{s0} terms cancel and the left side is
      A_{s s0} - C_st A_{t s0} C_ts, which is A_st by the triple identity
      on (s, t, s0).

    Every splitting of the full system (unknowns on every chart, supported
    on W) restricts to a solution here, so this finds whatever that system
    finds.  Its elimination leaves the highest-numbered unknowns, those of
    the last cone, free; with the root last, the same unknowns are free and
    set to zero here, so the particular solution is almost always the same
    too (every bundled model; 139 of 140 seeded ladder draws).

    Only the rows a right-hand side reaches are eliminated (module
    docstring, *Reach*); with no right-hand side at all no row is built.
    An unreached unknown stays zero, as the whole elimination leaves it:
    its component has a zero right-hand side, so its pivots are zero once
    its free unknowns are.  A miss is unchanged: a component with a zero
    right-hand side is never inconsistent.  The reached components reduce
    as they would among the others, so the pivots and quotients are the
    same too.
    """
    rhs = _right_hand_sides(cocycle, data)
    if not rhs:
        return _assemble(cocycle, data, [], {})  # homogeneous: every pivot is zero
    unknowns, index, entries, columns = _graded_system(cocycle, data, weights, rhs)
    zero = [0] * data.fan.dim
    solved = eliminate([(entries[index[key]], rhs.get(key, zero))
                        for key in _reached(index, entries, columns, len(rhs))])
    if solved is None:
        return None  # inconsistent within the graded space
    return _assemble(cocycle, data, unknowns, solved[0])


def _right_hand_sides(cocycle, data):
    """The right-hand side of each row keyed (t, p, q, m), one column per basis vector.

    A row has one when A_{t s0}[p][q] has a term at m outside chart(t); each
    term is nonzero, so every right-hand side listed is nonzero.
    """
    fan = data.fan
    maximal = data.maximal()
    root = maximal[-1]
    rhs: dict[tuple, list[Coeff]] = {}
    for t in maximal[:-1]:
        rays = fan.ray_matrix(fan.cones[t])
        for b, A in enumerate(cocycle.pairs[(t, root)]):
            for p, row in enumerate(A.entries):
                for q, f in enumerate(row):
                    for m, c in f.terms.items():
                        if not in_chart(m, rays):
                            rhs.setdefault((t, p, q, m), [0] * fan.dim)[b] += c
    return rhs


def _graded_system(cocycle, data, weights, rhs):
    """The graded system: unknowns, row numbers by key, each row's entries, each unknown's rows.

    A row is keyed (t, p, q, m), the coefficient of g_t[p][q] at an exponent
    m outside chart(t); the keys of ``rhs`` are rows 0, 1, ... in its order
    and the rest follow as they are met.  ``entries[i]`` maps the unknowns
    of row i to their coefficients.  The unknowns (k, l, w) are in index
    order, number (k r + l) |W0| + (index of w in W0) with W0 the weights in
    chart(s0), and ``columns[var]`` lists the rows that unknown enters.
    """
    fan = data.fan
    vadd = vec_adder(fan.dim)
    r = data.rank
    maximal = data.maximal()
    root = maximal[-1]
    root_rays = fan.ray_matrix(fan.cones[root])
    root_weights = [w for w in weights if in_chart(w, root_rays)]
    unknowns = list(product(range(r), range(r), root_weights))
    columns: list[list[int]] = [[] for _ in unknowns]
    index = {key: i for i, key in enumerate(rhs)}
    entries: list[dict[int, Coeff]] = [{} for _ in rhs]

    for t in maximal[:-1]:
        rays = fan.ray_matrix(fan.cones[t])
        outside: dict[IntVec, bool] = {}
        # g_{s0} conjugated into chart t: C_{t s0}[p][k] C_{s0 t}[l][q] carries unknown
        # (k, l, w) to entry (p, q) at mc + w for each exponent mc of that product,
        # its term pairs summed first, so each unknown enters a row once; only
        # exponents outside chart(t) give rows
        right = _sparse_rows(data.pair(root, t))
        for p, terms in enumerate(_sparse_rows(data.pair(t, root))):
            products: dict[tuple, Coeff] = {}
            for k, e1, c1 in terms:
                for l in range(r):
                    first = (k * r + l) * len(root_weights)
                    for q, e2, c2 in right[l]:
                        key = (q, first, vadd(e1, e2))
                        products[key] = products.get(key, 0) + c1 * c2
            for (q, var, mc), c in products.items():
                if not c:
                    continue
                for w in root_weights:  # var is unknown (k, l, w): first + index of w
                    m = vadd(mc, w)
                    off = outside.get(m)
                    if off is None:
                        off = outside[m] = not in_chart(m, rays)
                    if off:
                        key = (t, p, q, m)
                        i = index.get(key)
                        if i is None:
                            i = index[key] = len(entries)
                            entries.append({var: c})
                        else:
                            entries[i][var] = c
                        columns[var].append(i)
                    var += 1
    return unknowns, index, entries, columns


def _reached(index, entries, columns, sources):
    """The keys of the rows that rows 0 .. sources - 1 reach through shared unknowns, sorted.

    A graph search moving from a row to its unknowns and from an unknown to
    its rows (``columns``); every row it reaches joins the elimination.
    """
    seen = bytearray(len(entries))
    done = bytearray(len(columns))
    todo = list(range(sources))
    seen[:sources] = b"\x01" * sources
    while todo:
        for var in entries[todo.pop()]:
            if not done[var]:
                done[var] = 1
                for i in columns[var]:
                    if not seen[i]:
                        seen[i] = 1
                        todo.append(i)
    return sorted(key for key, i in index.items() if seen[i])


def _assemble(cocycle, data, unknowns, pivots):
    """The cochain whose g_{s0} takes each pivot's value (free unknowns zero) and g_t from it."""
    n, r = data.fan.dim, data.rank
    terms = [[[{} for _ in range(r)] for _ in range(r)] for _ in range(n)]
    for var, (i, j, w) in enumerate(unknowns):
        if var in pivots:
            for b, c in enumerate(pivots[var][1]):
                if c != 0:
                    terms[b][i][j][w] = c
    g_root = tuple(LaurentMatrix([[LaurentPoly(f) for f in row] for row in mat]) for mat in terms)
    maximal = data.maximal()
    root = maximal[-1]
    cones = {t: conjugations(data.pair(t, root), g_root, data.pair(root, t),
                             [-A for A in cocycle.pairs[(t, root)]])
             for t in maximal[:-1]}
    cones[root] = g_root
    return MatrixCochain(data.fan, r, cones)


def _full_length(cochain: MatrixCochain, n: int) -> bool:
    """Does every cone carry one matrix per basis vector?  A short tuple would pass vacuously."""
    return all(len(mats) == n for mats in cochain.cones.values())


def verify_splitting(cochain: MatrixCochain, cocycle: MatrixCocycle, data: TransitionData) -> bool:
    """Independent check of the defining equation on every ordered overlap.

    One batch of zero tests of C_st g_t C_ts - g_s - A_st per pair.
    """
    if not _full_length(cochain, data.fan.dim):
        return False
    for (s, t), mats in sorted(cocycle.pairs.items()):
        if not all(vanishing(data.pair(s, t), cochain.cones[t], data.pair(t, s),
                             minus=[cochain.cones[s], mats])):
            return False
    return True


def _require_splitting(cochain, cocycle, data):
    """The exact gate on a candidate: the cochain if it verifies, else None or a fault.

    A candidate outside its chart rings is a solver fault, which raises
    RuntimeError.  One that fails verification is a miss (None) when the
    input breaks the root-chart reduction
    (:func:`~torlog.cocycles.reduction_holds`); otherwise the solver is at
    fault again.
    """
    if not all(matrix_chart_member(g, data.fan.cones[ci], data.fan)
               for ci, mats in cochain.cones.items() for g in mats):
        raise RuntimeError("graded solver returned a cochain outside its chart rings")
    if verify_splitting(cochain, cocycle, data):
        return cochain
    if not reduction_holds(cocycle, data):
        return None
    raise RuntimeError("graded solver returned a cochain that fails its own equation")


def equivariant_splitting(data: EquivariantData) -> MatrixCochain:
    """The canonical splitting carried by equivariant weights.

    Each chart's cochain is its connection form diag(-<m_i, .>) read at the
    lattice basis vectors (:meth:`~torlog.bundles.ConnectionForm.basis_matrices`).
    """
    return MatrixCochain(data.fan, data.rank, {ci: connection_form(data, ci).basis_matrices()
                                               for ci in sorted(data.weights)})


def connection_from_splitting(splitting: MatrixCochain, data: TransitionData):
    """Read the splitting as chart connection forms and verify the gauge law.

    The forms are omega_sigma = g_sigma; across an overlap they must glue as

        omega_t = C_ts * omega_s * C_st + C_ts * delta(C_st)

    which is checked exactly on every ordered pair and basis vector, the
    derivative terms C_ts * delta(C_st) for all basis vectors in one pass and
    the zero tests with them as addends in one batch.  A cone without one
    form per basis vector, or a violation, raises InconsistentSplittingError.
    """
    n = data.fan.dim
    if not _full_length(splitting, n):
        raise InconsistentSplittingError(
            f"the cochain does not give {n} matrices on every cone; it is not a splitting"
        )
    for (s, t) in sorted(data.matrices):
        Cst = data.pair(s, t)
        Cts = data.pair(t, s)
        dC = delta_products(Cts, Cst, n, left=False)
        if not all(vanishing(Cts, splitting.cones[s], Cst, plus=[dC],
                             minus=[splitting.cones[t]])):
            raise InconsistentSplittingError(
                f"gauge law fails across pair ({s},{t}); the cochain is not a splitting"
            )
    return splitting.cones, gauge_passes(data)


def gauge_passes(data: TransitionData) -> list[FanCheck]:
    """The gauge law's checks when it holds, one per ordered pair in sorted order.

    Past the gate a verified splitting proves the gauge law (module
    docstring), so the ``split`` command lists these rather than running
    :func:`connection_from_splitting`.
    """
    return [FanCheck(f"gauge_law[{s},{t}]", "pass", "") for s, t in sorted(data.matrices)]


def _failed(checks: list[FanCheck], detail: str, cap: int):
    """A failed verdict: the checks with the failing ``equivariance`` check appended."""
    checks.append(FanCheck("equivariance", "fail", detail))
    return checks, SplitResult(None, cap, 0, 0)


def equivariance_verdict(data: TransitionData, cap=None):
    """Decide equivariance by splitting the obstruction cocycle.

    Returns (checks, split_result), each outcome where it is decided:

    * a failing :func:`validate_transitions` gate fails the verdict with
      its failing checks and, when every pair is present, the triple
      identity's checks;
    * past the gate the solver runs first (the Leibniz skip, module
      docstring).  A splitting it finds is re-verified inside
      ``split_cocycle``, the one certificate; it proves the triple identity
      (module docstring), whose checks are listed as passes, and certifies a
      logarithmic connection and with it an equivariant structure;
    * a miss runs antisymmetry, then the triple identity on the gate's
      recorded law and that antisymmetry record (``cocycles`` docstring).  A
      failing triple fails the verdict, and so does failing antisymmetry, as
      on two charts, where there is no triple: a splitting would prove it.
      Else the miss is only "nothing within the searched graded space",
      reported as undetermined, never as a disproof.
    """
    cap = weight_cap(cap)
    checks = [c for c in validate_transitions(data) if not c.ok]
    if checks:
        detail = f"transitions fail validation: {', '.join(c.name for c in checks)}"
        if not any(c.name == "transitions_present" for c in checks):  # else no cocycle to build
            triples = check_triple_identity(atiyah_cocycle(data), data)
            checks += triples
            if not all(c.ok for c in triples):
                detail += "; cocycle fails the triple identity"
        return _failed(checks, detail, cap)
    cocycle = atiyah_cocycle(data)
    result = split_cocycle(cocycle, data, cap=cap, antisymmetry=[])
    if result.found:
        return triple_passes(data) + [FanCheck(
            "equivariance", "pass",
            "splitting found: a logarithmic connection exists, "
            "so the bundle admits an equivariant structure")], result
    antisymmetry = check_frame_antisymmetry(cocycle, data)
    triples = check_triple_identity(cocycle, data)
    if not all(c.ok for c in triples):
        return _failed(triples, "cocycle fails the triple identity", cap)
    broken = [c for c in antisymmetry if not c.ok]
    if broken:
        return _failed(triples + broken, "cocycle fails frame antisymmetry", cap)
    return triples + [FanCheck(
        "equivariance", "undetermined",
        f"no splitting found within the graded search space "
        f"(closure depth {result.closure_depth}, cap {result.weight_cap}, "
        f"{result.weights_searched} weights); not a proof of non-existence"
        f"{result.truncation_note()}")], result
