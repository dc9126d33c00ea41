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

Both face checks read the weights restricted to the shared face of two
charts, each weight becoming its pairings with the face's ray generators.
The canonical connection d + diag(-<m_i, .>) is evaluated in one place,
:meth:`ConnectionForm.diag`: residues read it at a ray generator, the
covariant derivative at a direction v, and the canonical splitting
(:func:`torlog.splitting.equivariant_splitting`) at the lattice basis.
The Chern data and the residue check share one symmetric-function
recurrence, over LaurentPoly and over int.

Everything is exact; weights are integer vectors in M and Chern data are
integer polynomials in the coordinates of N, held as LaurentPoly (the
exponents are nonnegative, and :meth:`LaurentPoly.evaluate` reads them at a
lattice point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index, mul

from .fans import Fan, FanCheck, IntVec, cone_is_smooth, pairing, ray_inverse
from .laurent import LaurentMatrix, LaurentPoly, delta_apply


class UnderdeterminedError(ValueError):
    """Weight recovery asked on a cone whose rays do not pin down M."""


@dataclass(frozen=True)
class EquivariantData:
    """Weight multisets u(sigma), one per maximal cone, for a rank-r bundle.

    ``weights`` maps maximal-cone index -> tuple of r character vectors,
    whose entries are read with ``operator.index``: a float or a str raises
    TypeError.
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
                for x in w:
                    index(x)  # a float or a str raises TypeError


def _face_restrictions(data: EquivariantData):
    """(s, t, face, restr_s, restr_t) for each pair s < t of maximal cones.

    On the shared face, weight m restricts to the tuple of its pairings with
    the face's ray generators; restr_s and restr_t keep the stored order.
    The zero cone restricts every weight to the empty tuple.
    """
    fan = data.fan
    maximal = sorted(data.weights)
    for a, s in enumerate(maximal):
        for t in maximal[a + 1:]:
            face = fan.cones[fan.overlap_index(s, t)]
            rays = fan.ray_matrix(face)
            restr_s, restr_t = ([tuple(pairing(m, u) for u in rays) for m in data.weights[c]]
                                for c in (s, t))
            yield s, t, face, restr_s, restr_t


def check_compatibility(data: EquivariantData) -> list[FanCheck]:
    """Face condition on weight multisets, pairwise over maximal cones.

    For the shared face tau of two maximal cones, the two multisets of
    weights restricted to tau must coincide, so disjoint charts are always
    fine.
    """
    checks = []
    for s, t, face, restr_s, restr_t in _face_restrictions(data):
        restr_s, restr_t = sorted(restr_s), sorted(restr_t)
        ok = restr_s == restr_t
        detail = f"cones ({s},{t}), face rays {face.ray_indices}"
        if not ok:
            detail += f": restrictions differ, {restr_s} vs {restr_t}"
        checks.append(FanCheck(f"compatibility[{s},{t}]", "pass" if ok else "fail", detail))
    return checks


@dataclass(frozen=True)
class ResidueMatrix:
    """Diagonal residue of the canonical connection along one boundary divisor.

    Entry i is -<m_i, v_rho> in the stored eigenframe order of the chart.
    """

    cone_index: int
    ray_index: int
    entries: tuple[int, ...]


def residue(data: EquivariantData, cone_index: int, ray_index: int) -> ResidueMatrix:
    """The residue along D_rho over one chart: its connection form read at v_rho."""
    cone = data.fan.cones[cone_index]
    if ray_index not in cone.ray_indices:
        raise ValueError(
            f"ray {ray_index} is not a ray of cone {cone_index}; "
            "the divisor does not meet this chart"
        )
    v = data.fan.rays[ray_index]
    return ResidueMatrix(cone_index, ray_index, connection_form(data, cone_index).diag(v))


def recover_weights(fan: Fan, residues: list[ResidueMatrix]) -> tuple[IntVec, ...]:
    """Invert the residue map over one smooth full-dimensional cone.

    Given one diagonal residue per ray of the cone, solves
    <m_i, v_rho> = -(entry i at rho) for each i as m_i = -inv * entries_i,
    with inv the cached inverse ray matrix :func:`torlog.fans.ray_inverse`,
    one exact elimination against the identity.
    Raises UnderdeterminedError when the cone is not smooth and
    full-dimensional.  A smooth full-dimensional cone has ray determinant
    +-1, so inv is integral and every integer residue has a lattice
    solution.
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
        n = self.dim
        mats = []
        for b in range(n):
            e = tuple(1 if i == b else 0 for i in range(n))
            mats.append(
                LaurentMatrix.diagonal(
                    [LaurentPoly.const(c, n) for c in self.diag(e)]
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
    diag = connection_form(data, section.cone_index).diag(v)
    return EigenSection(section.cone_index,
                        tuple(delta_apply(v, f) + f.scale(d) for d, f in zip(diag, section.coeffs)))


def invariant_section(data: EquivariantData, cone_index: int, i: int) -> EigenSection:
    """The i-th invariant section chi^{m_i} s_i over the given chart."""
    coeffs = [LaurentPoly() for _ in range(data.rank)]
    coeffs[i] = LaurentPoly.monomial(data.weights[cone_index][i])
    return EigenSection(cone_index, tuple(coeffs))


# ---------------------------------------------------------------------------
# Chern data: polynomials in the coordinates of N


def _symmetric(values, upto: int, one, zero) -> list:
    """e_0 .. e_upto of values in the ring of the given one and zero, by the product recurrence."""
    es = [one] + [zero] * upto
    for x in values:
        for i in range(upto, 0, -1):
            es[i] = es[i] + es[i - 1] * x
    return es


def elementary_symmetric(forms: list[LaurentPoly], upto: int, nvars: int) -> list[LaurentPoly]:
    """e_0 .. e_upto of the given polynomials, by the product recurrence."""
    return _symmetric(forms, upto, LaurentPoly.const(1, nvars), LaurentPoly())


def _chart_chern(data: EquivariantData, cone_index: int) -> list[LaurentPoly]:
    """c_0 .. c_rank over one chart: e_i of the linear forms <m_j, .> of its weights."""
    forms = [LaurentPoly.linear_form(m) for m in data.weights[cone_index]]
    return elementary_symmetric(forms, data.rank, data.fan.dim)


@dataclass
class PiecewisePoly:
    """Degree-i equivariant Chern datum: one polynomial per maximal cone."""

    degree: int
    parts: dict[int, LaurentPoly] = field(default_factory=dict)


def chern_pp(data: EquivariantData):
    """Elementary-symmetric Chern data per cone, plus the continuity report.

    Returns (polys, checks) where polys[i-1] holds c_i and the checks
    compare adjacent cones on the span of their shared face.  Writing a
    point of that span as sum_k t_k v_k over the face's rays v_k, c_i is
    e_i of the linear forms sum_k <m_j, v_k> t_k, so each check compares
    e_1 .. e_rank of the weights restricted to the face.
    """
    maximal = sorted(data.weights)
    upto = data.rank
    per_cone = {ci: _chart_chern(data, ci) for ci in maximal}
    polys = [
        PiecewisePoly(i, {ci: per_cone[ci][i] for ci in maximal}) for i in range(1, upto + 1)
    ]

    checks = []
    for s, t, face, restr_s, restr_t in _face_restrictions(data):
        k = len(face.ray_indices)
        es_s, es_t = (elementary_symmetric([LaurentPoly.linear_form(r) for r in restr], upto, k)
                      for restr in (restr_s, restr_t))
        bad = [i for i in range(1, upto + 1) if es_s[i] != es_t[i]]
        detail = f"cones ({s},{t}), face rays {face.ray_indices}"
        if bad:
            detail += f": degrees {bad} disagree on the shared span"
        checks.append(FanCheck(f"chern_continuity[{s},{t}]", "fail" if bad else "pass", detail))
    return polys, checks


def residue_chern_check(data: EquivariantData, cone_index: int, ray_index: int) -> FanCheck:
    """Residue eigenvalues against the Chern data at the ray generator.

    The eigenvalues of minus the residue along D_rho are <m_j, v_rho>; their
    i-th elementary symmetric value must equal c_i evaluated at v_rho.
    """
    R = residue(data, cone_index, ray_index)
    v = data.fan.rays[ray_index]
    chern_here = _chart_chern(data, cone_index)
    es_sym = _symmetric([-x for x in R.entries], data.rank, 1, 0)
    mismatches = []
    for i in range(1, data.rank + 1):
        ci = chern_here[i].evaluate(v)
        if ci != es_sym[i]:
            mismatches.append((i, es_sym[i], ci))
    name = f"residue_chern[{cone_index},{ray_index}]"
    if mismatches:
        return FanCheck(name, "fail", f"mismatched degrees: {mismatches}")
    return FanCheck(name, "pass", f"degrees 1..{data.rank} agree at ray {ray_index}")
