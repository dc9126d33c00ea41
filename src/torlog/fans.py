"""Exact lattice and fan combinatorics.

Vectors in the cocharacter lattice N and the character lattice M are plain
integer tuples; the perfect pairing between them is the dot product.  Fans
are simplicial and rational: every cone is described by the indices of its
extremal rays, and all geometry (faces, smoothness, completeness) reduces
to exact integer linear algebra on the ray generators.  That algebra is
the one elimination of :mod:`torlog.linalg`: ranks and determinants come
from :func:`~torlog.linalg.rank_det`, :func:`ray_inverse` is the cached
exact inverse of a square ray matrix, eliminated against the identity, and
a cone that is not full-dimensional is smooth when the gcd of the maximal
minors of its ray matrix is 1.  A fan eliminates each ray matrix once
(:meth:`Fan.ray_elimination`) and reuses its rank and determinant.
:func:`validate_fan` proves the per-cone checks from the maximal cones when
it can, one elimination each, and enumerates every cone only when that
proof fails, taking both checks from the same eliminations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, index, mul, sub

from .linalg import eliminate, exact, minors_gcd, rank_det

IntVec = tuple[int, ...]


class DimensionError(ValueError):
    """Raised when vector lengths do not match the ambient rank."""


def pairing(m: IntVec, v: IntVec) -> int:
    """Perfect pairing <m, v> between character and cocharacter vectors."""
    if len(m) != len(v):
        raise DimensionError(f"pairing needs equal lengths, got {len(m)} and {len(v)}")
    return sum(map(mul, m, v))


def primitivize(v: IntVec) -> IntVec:
    """Divide an integer vector by the gcd of its entries.

    The sign is preserved, so (-3, 6) becomes (-1, 2).  The zero vector has
    no primitive representative and is rejected.
    """
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(a // g for a in v)


def vec_add(a: IntVec, b: IntVec) -> IntVec:
    return tuple(map(add, a, b))


# unrolled exponent sums by lattice dimension: no map object and no iterator per sum
_ADDERS = {
    1: lambda a, b: (a[0] + b[0],),
    2: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    3: lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
}


def vec_adder(dim: int):
    """A function adding two vectors of length dim: unrolled for dims 1-3, else :func:`vec_add`."""
    return _ADDERS.get(dim, vec_add)


def vec_sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(map(sub, a, b))


def vec_neg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class Cone:
    """A simplicial cone, recorded by the sorted indices of its rays."""

    ray_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ray_indices", tuple(sorted(self.ray_indices)))

    @property
    def dim(self) -> int:
        return len(self.ray_indices)


@dataclass(frozen=True)
class Fan:
    """A simplicial fan: primitive ray generators plus cones as ray-index sets.

    ``dim`` is the rank n of the ambient lattices N and M.  The cone list is
    expected to be closed under taking faces (subsets of ray indices); this
    is checked by :func:`validate_fan`, not by the constructor.
    """

    dim: int
    rays: tuple[IntVec, ...]
    cones: tuple[Cone, ...]
    declared_complete: bool = False
    _cone_lookup: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _maximal: tuple = field(init=False, repr=False, compare=False, hash=False, default=None)
    _eliminated: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        lookup = {c.ray_indices: i for i, c in enumerate(self.cones)}
        object.__setattr__(self, "_cone_lookup", lookup)
        sets = [set(c.ray_indices) for c in self.cones]
        maximal = tuple(i for i, s in enumerate(sets)
                        if not any(s < other for other in sets))
        object.__setattr__(self, "_maximal", maximal)
        object.__setattr__(self, "_eliminated", {})

    def cone_index(self, ray_indices) -> int:
        key = tuple(sorted(ray_indices))
        if key not in self._cone_lookup:
            raise ValueError(f"no cone with rays {key} in this fan")
        return self._cone_lookup[key]

    def has_cone(self, ray_indices) -> bool:
        return tuple(sorted(ray_indices)) in self._cone_lookup

    def maximal_cone_indices(self) -> list[int]:
        """Indices of cones not properly contained in another listed cone (a fresh list)."""
        return list(self._maximal)

    def overlap_index(self, i: int, j: int) -> int:
        """Index of the face shared by cones i and j (their ray intersection)."""
        shared = set(self.cones[i].ray_indices) & set(self.cones[j].ray_indices)
        return self.cone_index(shared)

    def ray_matrix(self, cone: Cone) -> list[IntVec]:
        return [self.rays[k] for k in cone.ray_indices]

    def ray_elimination(self, cone: Cone) -> tuple[int, int]:
        """Rank and determinant of the cone's ray matrix: one ``rank_det`` per matrix and fan."""
        rows = self.ray_matrix(cone)
        key = tuple(rows)
        done = self._eliminated.get(key)
        if done is None:
            done = self._eliminated[key] = rank_det(rows)
        return done


def build_fan(rays, cones, dim=None, declared_complete=False):
    """Construct a Fan from raw data, primitivizing rays as needed.

    Returns (fan, warnings); a warning is recorded for every ray generator
    that had to be rescaled.  Ray entries are read with ``operator.index``,
    so a float or a str raises TypeError instead of being truncated.
    """
    rays = [tuple(map(index, r)) for r in rays]
    if dim is None:
        if not rays:
            raise ValueError("cannot infer ambient rank from an empty ray list")
        dim = len(rays[0])
    warnings = []
    fixed = []
    for k, r in enumerate(rays):
        if len(r) != dim:
            raise DimensionError(f"ray {k} has length {len(r)}, expected {dim}")
        p = primitivize(r)
        if p != r:
            warnings.append(f"ray {k} {r} is not primitive; stored as {p}")
        fixed.append(p)
    cone_objs = tuple(Cone(tuple(c)) for c in cones)
    for c in cone_objs:
        for k in c.ray_indices:
            if not 0 <= k < len(fixed):
                raise ValueError(f"cone {c.ray_indices} references missing ray {k}")
    return Fan(dim, tuple(fixed), cone_objs, declared_complete), warnings


def is_face(tau: Cone, sigma: Cone, fan: Fan) -> bool:
    """Face relation for simplicial cones: subset of ray indices."""
    for c in (tau, sigma):
        if not fan.has_cone(c.ray_indices):
            raise ValueError(f"cone {c.ray_indices} does not belong to the fan")
    return set(tau.ray_indices) <= set(sigma.ray_indices)


@lru_cache(maxsize=256)
def ray_inverse(rays: tuple[IntVec, ...]) -> tuple[tuple[int | Fraction, ...], ...]:
    """Exact inverse of a square integer matrix, computed once per matrix.

    One :func:`~torlog.linalg.eliminate` against the identity: row i of the
    matrix times the inverse is e_i, and pivot j's right-hand side is row j
    of the inverse.  Entries are canonical: an int when integral, else a
    Fraction, so a unimodular matrix has an all-int inverse.  Raises
    ValueError on a singular or non-square matrix.
    """
    n = len(rays)
    solved = eliminate(({j: a for j, a in enumerate(row) if a}, [int(i == k) for k in range(n)])
                       for i, row in enumerate(rays))
    if solved is None or len(solved[1]) != n or any(len(row) != n for row in rays):
        raise ValueError("ray matrix is singular")
    return tuple(tuple(exact(x) for x in solved[0][j][1]) for j in range(n))


def cone_is_smooth(fan: Fan, cone: Cone) -> bool:
    """True when the ray generators extend to a basis of the lattice.

    Below full dimension that is the gcd of the k x k minors of the k rays
    being 1: it is the product of the invariant factors, and 0 when the
    generators are dependent, which extend to no basis.
    """
    if not cone.ray_indices:
        return True
    if cone.dim == fan.dim:
        return abs(fan.ray_elimination(cone)[1]) == 1
    return minors_gcd(fan.ray_matrix(cone)) == 1


@dataclass
class FanCheck:
    name: str
    status: str  # pass | fail | undetermined
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _maximal_cones_unimodular(fan: Fan) -> bool:
    """True when every maximal cone is full-dimensional with ray determinant +-1.

    One :func:`~torlog.linalg.rank_det` per maximal cone, whose determinant
    is 0 unless the ray matrix is square.  Then every listed cone with
    distinct rays passes the simplicial and smooth checks: it lies in a
    maximal cone, and part of a lattice basis is linearly independent and
    extends to a basis.
    """
    return all(abs(fan.ray_elimination(fan.cones[i])[1]) == 1 for i in fan._maximal)


def _missing_faces(fan: Fan, indices) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(cone rays, face rays) for each proper face of the given cones that is not listed."""
    missing = []
    for i in indices:
        rays = fan.cones[i].ray_indices
        for size in range(len(rays)):
            missing += [(rays, sub) for sub in itertools.combinations(rays, size)
                        if not fan.has_cone(sub)]
    return missing


def _maximal_faces_listed(fan: Fan) -> bool:
    """True when every proper face of every maximal cone is a listed cone.

    Then every listed cone with distinct rays has its proper faces listed,
    since they are proper faces of a maximal cone containing it.
    """
    return not _missing_faces(fan, fan._maximal)


def validate_fan(fan: Fan) -> list[FanCheck]:
    """Run all structural checks on a fan and report each verdict.

    Nothing is thrown; callers decide which failures they can live with.
    When every cone has distinct rays, :func:`_maximal_cones_unimodular`
    proves the simplicial and smooth checks and :func:`_maximal_faces_listed`
    the face closure; a check whose proof fails enumerates every cone.
    """
    checks = []

    bad_prim = [k for k, r in enumerate(fan.rays) if primitivize(r) != r]
    checks.append(
        FanCheck("rays_primitive", "fail" if bad_prim else "pass",
                 f"non-primitive rays at {bad_prim}" if bad_prim else "")
    )

    seen = {}
    dups = []
    for i, c in enumerate(fan.cones):
        if c.ray_indices in seen:
            dups.append((seen[c.ray_indices], i))
        seen[c.ray_indices] = i
    checks.append(
        FanCheck("distinct_cones", "fail" if dups else "pass",
                 f"duplicate ray sets at cone indices {dups}" if dups else "")
    )

    distinct_rays = all(len(set(c.ray_indices)) == c.dim for c in fan.cones)
    unimodular = distinct_rays and _maximal_cones_unimodular(fan)

    nonsimp = []
    if not unimodular:
        nonsimp = [i for i, c in enumerate(fan.cones)
                   if c.ray_indices and fan.ray_elimination(c)[0] != c.dim]
    checks.append(
        FanCheck("simplicial", "fail" if nonsimp else "pass",
                 f"linearly dependent generators in cones {nonsimp}" if nonsimp else "")
    )

    nonsmooth = []
    if not unimodular:
        nonsmooth = [i for i, c in enumerate(fan.cones) if not cone_is_smooth(fan, c)]
    checks.append(
        FanCheck("smooth", "fail" if nonsmooth else "pass",
                 f"non-smooth cones {nonsmooth}" if nonsmooth else "")
    )

    unclosed = []
    if not (distinct_rays and _maximal_faces_listed(fan)):
        unclosed = _missing_faces(fan, range(len(fan.cones)))
    checks.append(
        FanCheck("face_closure", "fail" if unclosed else "pass",
                 f"missing faces: {unclosed[:4]}" if unclosed else "")
    )

    checks.append(_completeness_check(fan, skip=bool(nonsimp)))
    return checks


def _completeness_check(fan: Fan, skip=False) -> FanCheck:
    """Consistency of the declared_complete flag with the facet-pairing test.

    A full-dimensional simplicial fan is complete exactly when every facet
    of a maximal cone is shared by two maximal cones (no boundary).  The
    check fails only when the declaration contradicts the test; a fan that
    never claimed completeness passes with a note.
    """
    maximal = fan.maximal_cone_indices()
    if skip:
        return FanCheck("complete", "undetermined", "skipped: fan is not simplicial")
    if not all(fan.cones[i].dim == fan.dim for i in maximal):
        return FanCheck(
            "complete", "undetermined",
            f"not all maximal cones are full-dimensional; "
            f"trusting declared_complete={fan.declared_complete}",
        )
    # every facet of a maximal cone must be shared by exactly two of them
    facet_count: dict[tuple[int, ...], int] = {}
    for i in maximal:
        rays = fan.cones[i].ray_indices
        for facet in itertools.combinations(rays, fan.dim - 1):
            facet_count[facet] = facet_count.get(facet, 0) + 1
    odd = sorted(f for f, cnt in facet_count.items() if cnt != 2)
    if not odd:
        return FanCheck("complete", "pass",
                        "" if fan.declared_complete else "fan is complete though not declared so")
    if fan.declared_complete:
        return FanCheck(
            "complete", "fail",
            f"declared complete, but facets not shared by two maximal cones: {odd[:4]}",
        )
    return FanCheck("complete", "pass", "fan is not complete (and does not claim to be)")


# ---------------------------------------------------------------------------
# stock fans used throughout the test corpus and the bundled models


def downward_closure(maximal_sets) -> list[tuple[int, ...]]:
    """All subsets of the given ray-index sets, sorted for reproducibility."""
    out = set()
    for s in maximal_sets:
        s = tuple(sorted(s))
        for size in range(len(s) + 1):
            out.update(itertools.combinations(s, size))
    return sorted(out, key=lambda c: (len(c), c))


def projective_fan(n: int) -> Fan:
    """Fan of n-dimensional projective space: rays e_1..e_n and -(e_1+...+e_n)."""
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    maximal = [tuple(k for k in range(n + 1) if k != drop) for drop in range(n + 1)]
    fan, _ = build_fan(rays, downward_closure(maximal), dim=n, declared_complete=True)
    return fan


def product_p1_fan() -> Fan:
    """Fan of the product of two projective lines; rays ±e1, ±e2."""
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    maximal = [(0, 2), (2, 1), (1, 3), (3, 0)]
    fan, _ = build_fan(rays, downward_closure(maximal), dim=2, declared_complete=True)
    return fan


def hirzebruch_fan(a: int) -> Fan:
    """Fan of the a-th Hirzebruch surface: rays e1, e2, -e1 + a*e2, -e2."""
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    maximal = [(0, 1), (1, 2), (2, 3), (3, 0)]
    fan, _ = build_fan(rays, downward_closure(maximal), dim=2, declared_complete=True)
    return fan
