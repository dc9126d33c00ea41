"""Equivariant bundle data on a toric variety and what it induces.

The bundle is described by one weight multiset per maximal cone (one
character per eigenline of the torus action over that chart).  From this
the module derives:

* the face-compatibility test the multisets must satisfy,
* residue endomorphisms along the boundary divisors,
* recovery of the weights from the residues over smooth full charts,
* the canonical logarithmic connection in the eigenframe and its action
  on sections, and
* the piecewise-polynomial equivariant Chern classes with their
  continuity check across shared faces.

Everything is exact; weights are integer vectors in M and Chern data are
integer polynomials in the coordinates of N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .fans import DimensionError, Fan, FanCheck, IntVec, cone_is_smooth, pairing, ray_inverse
from .laurent import LaurentPoly, chart_member, delta_apply


class UnderdeterminedError(ValueError):
    """Weight recovery asked on a cone whose rays do not pin down M."""


class NoSolutionError(ValueError):
    """Residue data consistent with no lattice weight at all."""


@dataclass(frozen=True)
class EquivariantData:
    """Weight multisets u(sigma), one per maximal cone, for a rank-r bundle.

    ``weights`` maps maximal-cone index -> tuple of r character vectors.
    The stored order of each tuple is preserved: it fixes the eigenframe
    order used by residues, sections and the diagonal transition matrices,
    so that the i-th weight over every chart refers to the same line
    summand.  Multiset-valued reports sort on output instead.
    """

    fan: Fan
    rank: int
    weights: dict[int, tuple[IntVec, ...]]

    def __post_init__(self):
        maximal = set(self.fan.maximal_cone_indices())
        given = set(self.weights)
        if given != maximal:
            raise ValueError(
                f"weights must cover the maximal cones exactly; got {sorted(given)}, "
                f"expected {sorted(maximal)}"
            )
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        for ci, ws in self.weights.items():
            if len(ws) != self.rank:
                raise ValueError(
                    f"cone {ci} carries {len(ws)} weights but the declared rank is {self.rank}"
                )
            for w in ws:
                if len(w) != self.fan.dim:
                    raise ValueError(f"weight {w} on cone {ci} has wrong length")

    def cone_weights(self, cone_index: int) -> tuple[IntVec, ...]:
        return self.weights[cone_index]


def check_compatibility(data: EquivariantData) -> list[FanCheck]:
    """Face condition on weight multisets, pairwise over maximal cones.

    For the shared face tau of two maximal cones, each weight restricts to
    the tuple of its pairings with the ray generators of tau; the two
    multisets of restricted tuples must coincide.  The zero cone restricts
    everything to the empty tuple, so disjoint charts are always fine.
    """
    fan = data.fan
    maximal = sorted(data.weights)
    checks = []
    for a in range(len(maximal)):
        for b in range(a + 1, len(maximal)):
            s, t = maximal[a], maximal[b]
            face_idx = fan.overlap_index(s, t)
            face = fan.cones[face_idx]
            rays = [fan.rays[k] for k in face.ray_indices]
            restr_s = sorted(tuple(pairing(m, u) for u in rays) for m in data.weights[s])
            restr_t = sorted(tuple(pairing(m, u) for u in rays) for m in data.weights[t])
            ok = restr_s == restr_t
            detail = f"cones ({s},{t}), face rays {face.ray_indices}"
            if not ok:
                detail += f": restrictions differ, {restr_s} vs {restr_t}"
            checks.append(FanCheck(f"compatibility[{s},{t}]", "pass" if ok else "fail", detail))
    return checks


def is_compatible(data: EquivariantData) -> bool:
    return all(c.ok for c in check_compatibility(data))


@dataclass(frozen=True)
class ResidueMatrix:
    """Diagonal residue of the canonical connection along one boundary divisor.

    Entry i is -<m_i, v_rho> in the stored eigenframe order of the chart.
    """

    cone_index: int
    ray_index: int
    entries: tuple[int, ...]


def residue(data: EquivariantData, cone_index: int, ray_index: int) -> ResidueMatrix:
    cone = data.fan.cones[cone_index]
    if ray_index not in cone.ray_indices:
        raise ValueError(
            f"ray {ray_index} is not a ray of cone {cone_index}; "
            "the divisor does not meet this chart"
        )
    v = data.fan.rays[ray_index]
    entries = tuple(-pairing(m, v) for m in data.weights[cone_index])
    return ResidueMatrix(cone_index, ray_index, entries)


def recover_weights(fan: Fan, residues: list[ResidueMatrix]) -> tuple[IntVec, ...]:
    """Invert the residue map over one smooth full-dimensional cone.

    Given one diagonal residue per ray of the cone, solves
    <m_i, v_rho> = -(entry i at rho) for each i as m_i = -inv * entries_i,
    with inv the cached inverse ray matrix :func:`torlog.fans.ray_inverse`.
    Raises UnderdeterminedError when the cone is not smooth and
    full-dimensional.  A smooth full-dimensional cone has ray determinant
    +-1, so inv is integral and every integer residue has a lattice
    solution: NoSolutionError is never raised here.
    """
    if not residues:
        raise ValueError("need at least one residue matrix")
    cone_index = residues[0].cone_index
    if any(R.cone_index != cone_index for R in residues):
        raise ValueError("residues mix different chart cones")
    cone = fan.cones[cone_index]
    by_ray = {R.ray_index: R for R in residues}
    if set(by_ray) != set(cone.ray_indices):
        raise ValueError(
            f"need exactly one residue per ray of cone {cone_index}; "
            f"got rays {sorted(by_ray)}"
        )
    if cone.dim != fan.dim or not cone_is_smooth(fan, cone):
        raise UnderdeterminedError(
            f"cone {cone_index} is not smooth and full-dimensional; "
            "weights are not determined by residues here"
        )
    ranks = {len(R.entries) for R in residues}
    if len(ranks) != 1:
        raise ValueError("residue matrices disagree on rank")

    inv = ray_inverse(tuple(fan.ray_matrix(cone)))
    columns = [by_ray[k].entries for k in cone.ray_indices]
    return tuple(tuple(-sum(map(mul, row, line)) for row in inv) for line in zip(*columns))


class ConnectionForm:
    """The canonical connection over one chart: v -> diag(-<m_i, v>)."""

    def __init__(self, data: EquivariantData, cone_index: int):
        self.cone_index = cone_index
        self.weights = data.weights[cone_index]
        self.dim = data.fan.dim

    def diag(self, v: IntVec) -> tuple[int, ...]:
        return tuple(-pairing(m, v) for m in self.weights)

    def basis_matrices(self):
        """Constant diagonal matrices at the lattice basis vectors, as Laurent data."""
        from .laurent import LaurentMatrix

        n = self.dim
        mats = []
        for b in range(n):
            e = tuple(1 if i == b else 0 for i in range(n))
            mats.append(
                LaurentMatrix.diagonal(
                    [LaurentPoly.const(c, n) if c else LaurentPoly() for c in self.diag(e)]
                )
            )
        return tuple(mats)


def connection_form(data: EquivariantData, cone_index: int) -> ConnectionForm:
    return ConnectionForm(data, cone_index)


@dataclass(frozen=True)
class EigenSection:
    """A local section written in the eigenframe of one chart."""

    cone_index: int
    coeffs: tuple[LaurentPoly, ...]


def apply_nabla(data: EquivariantData, section: EigenSection, v: IntVec) -> EigenSection:
    """Covariant derivative along delta_v in the eigenframe.

    Coefficient i of the result is delta_v(f_i) - <m_i, v> f_i; in
    particular the invariant sections chi^{m_i} s_i are annihilated.
    """
    ws = data.weights[section.cone_index]
    out = []
    for m, f in zip(ws, section.coeffs):
        out.append(delta_apply(v, f) + f.scale(-pairing(m, v)))
    return EigenSection(section.cone_index, tuple(out))


def invariant_section(data: EquivariantData, cone_index: int, i: int) -> EigenSection:
    """The i-th invariant section chi^{m_i} s_i over the given chart."""
    coeffs = [LaurentPoly() for _ in range(data.rank)]
    coeffs[i] = LaurentPoly.monomial(data.weights[cone_index][i])
    return EigenSection(cone_index, tuple(coeffs))


def section_in_chart(data: EquivariantData, section: EigenSection) -> bool:
    cone = data.fan.cones[section.cone_index]
    return all(chart_member(f, cone, data.fan) for f in section.coeffs)


# ---------------------------------------------------------------------------
# integer polynomials in the coordinates of N, for the Chern data


class IntPoly(LaurentPoly):
    """Integer polynomial in the coordinates of N, on LaurentPoly's term map.

    Construction (a float raises TypeError), equality and repr are
    LaurentPoly's; ``+`` and ``*`` are too, re-wrapped so results stay
    IntPoly.  This adds only what LaurentPoly lacks, reading ``.terms``.
    """

    __slots__ = ()

    def __add__(self, other: LaurentPoly) -> "IntPoly":
        return _int_poly(LaurentPoly.__add__(self, other).terms)

    def __mul__(self, other: LaurentPoly) -> "IntPoly":
        return _int_poly(LaurentPoly.__mul__(self, other).terms)

    @classmethod
    def constant(cls, c: int, nvars: int) -> "IntPoly":
        return cls({(0,) * nvars: c})

    @classmethod
    def linear_form(cls, m: IntVec) -> "IntPoly":
        n = len(m)
        return cls({tuple(1 if j == i else 0 for j in range(n)): m[i] for i in range(n)})

    def evaluate(self, point: IntVec) -> int:
        """The value at point.

        A point whose length is not the number of variables raises DimensionError.
        """
        total = 0
        for exp, c in self.terms.items():
            if len(point) != len(exp):
                raise DimensionError(f"a point of length {len(point)} for {len(exp)} variables")
            term = c
            for x, e in zip(point, exp):
                term *= x**e
            total += term
        return total

    def substitute_linear(self, vectors: list[IntVec]) -> "IntPoly":
        """Restrict to the span of the given vectors: v = sum_j t_j * vectors[j].

        Returns a polynomial in the formal variables t_j.  With no vectors
        this evaluates at the origin.
        """
        k = len(vectors)
        if not self.terms:
            return IntPoly()
        nvars = len(next(iter(self.terms)))
        # coordinate i of v becomes the linear form sum_j vectors[j][i] t_j
        coord = [
            IntPoly({tuple(1 if q == j else 0 for q in range(k)): vectors[j][i]
                     for j in range(k) if vectors[j][i] != 0})
            for i in range(nvars)
        ]
        total = IntPoly()
        for exp, c in self.terms.items():
            term = IntPoly.constant(c, k)
            for i, e in enumerate(exp):
                for _ in range(e):
                    term = term * coord[i]
            total = total + term
        return total


def _int_poly(terms: dict) -> IntPoly:
    """Wrap a term map that is already canonical."""
    res = IntPoly.__new__(IntPoly)
    res.terms = terms
    return res


def elementary_symmetric(forms: list[IntPoly], upto: int, nvars: int) -> list[IntPoly]:
    """e_0 .. e_upto of the given polynomials, by the product recurrence."""
    es = [IntPoly.constant(1, nvars)] + [IntPoly() for _ in range(upto)]
    for L in forms:
        for i in range(min(upto, len(forms)), 0, -1):
            es[i] = es[i] + es[i - 1] * L
    return es


@dataclass
class PiecewisePoly:
    """Degree-i equivariant Chern datum: one polynomial per maximal cone."""

    degree: int
    parts: dict[int, IntPoly] = field(default_factory=dict)


def chern_pp(data: EquivariantData):
    """Elementary-symmetric Chern data per cone, plus the continuity report.

    Returns (polys, checks) where polys[i-1] holds c_i and the checks
    compare adjacent cones on the span of their shared face by formal
    substitution of the face's ray generators.
    """
    fan = data.fan
    n = fan.dim
    maximal = sorted(data.weights)
    upto = data.rank
    per_cone = {}
    for ci in maximal:
        forms = [IntPoly.linear_form(m) for m in data.weights[ci]]
        per_cone[ci] = elementary_symmetric(forms, upto, n)
    polys = [
        PiecewisePoly(i, {ci: per_cone[ci][i] for ci in maximal}) for i in range(1, upto + 1)
    ]

    checks = []
    for a in range(len(maximal)):
        for b in range(a + 1, len(maximal)):
            s, t = maximal[a], maximal[b]
            face = fan.cones[fan.overlap_index(s, t)]
            rays = [fan.rays[k] for k in face.ray_indices]
            ok = True
            bad = []
            for i in range(1, upto + 1):
                ps = per_cone[s][i].substitute_linear(rays)
                pt = per_cone[t][i].substitute_linear(rays)
                if ps != pt:
                    ok = False
                    bad.append(i)
            detail = f"cones ({s},{t}), face rays {face.ray_indices}"
            if not ok:
                detail += f": degrees {bad} disagree on the shared span"
            checks.append(FanCheck(f"chern_continuity[{s},{t}]", "pass" if ok else "fail", detail))
    return polys, checks


def residue_chern_check(data: EquivariantData, cone_index: int, ray_index: int) -> FanCheck:
    """Residue eigenvalues against the Chern data at the ray generator.

    The eigenvalues of minus the residue along D_rho are <m_j, v_rho>; their
    i-th elementary symmetric value must equal c_i evaluated at v_rho.
    """
    R = residue(data, cone_index, ray_index)
    eigen = [-x for x in R.entries]
    v = data.fan.rays[ray_index]
    n = data.fan.dim
    forms = [IntPoly.linear_form(m) for m in data.weights[cone_index]]
    chern_here = elementary_symmetric(forms, data.rank, n)
    es_sym = _symmetric_values(eigen, data.rank)
    mismatches = []
    for i in range(1, data.rank + 1):
        ci = chern_here[i].evaluate(v)
        if ci != es_sym[i]:
            mismatches.append((i, es_sym[i], ci))
    name = f"residue_chern[{cone_index},{ray_index}]"
    if mismatches:
        return FanCheck(name, "fail", f"mismatched degrees: {mismatches}")
    return FanCheck(name, "pass", f"degrees 1..{data.rank} agree at ray {ray_index}")


def _symmetric_values(values, upto):
    es = [1] + [0] * upto
    for x in values:
        for i in range(upto, 0, -1):
            es[i] = es[i] + es[i - 1] * x
    return es
