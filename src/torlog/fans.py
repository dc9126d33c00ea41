"""Exact lattice and fan combinatorics.

Vectors in the cocharacter lattice N and the character lattice M are plain
integer tuples; the perfect pairing between them is the dot product.  Fans
are simplicial and rational: every cone is described by the indices of its
extremal rays, and all geometry (faces, smoothness, completeness) reduces
to exact integer linear algebra on the ray generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import add, mul, sub

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

    def __post_init__(self):
        lookup = {c.ray_indices: i for i, c in enumerate(self.cones)}
        object.__setattr__(self, "_cone_lookup", lookup)

    def cone_index(self, ray_indices) -> int:
        key = tuple(sorted(ray_indices))
        if key not in self._cone_lookup:
            raise ValueError(f"no cone with rays {key} in this fan")
        return self._cone_lookup[key]

    def has_cone(self, ray_indices) -> bool:
        return tuple(sorted(ray_indices)) in self._cone_lookup

    def maximal_cone_indices(self) -> list[int]:
        """Indices of cones not properly contained in another listed cone."""
        out = []
        for i, c in enumerate(self.cones):
            s = set(c.ray_indices)
            if not any(j != i and s < set(d.ray_indices) for j, d in enumerate(self.cones)):
                out.append(i)
        return out

    def overlap_index(self, i: int, j: int) -> int:
        """Index of the face shared by cones i and j (their ray intersection)."""
        shared = set(self.cones[i].ray_indices) & set(self.cones[j].ray_indices)
        return self.cone_index(shared)

    def ray_matrix(self, cone: Cone) -> list[IntVec]:
        return [self.rays[k] for k in cone.ray_indices]


def build_fan(rays, cones, dim=None, declared_complete=False):
    """Construct a Fan from raw data, primitivizing rays as needed.

    Returns (fan, warnings); a warning is recorded for every ray generator
    that had to be rescaled.
    """
    rays = [tuple(int(x) for x in r) for r in rays]
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


def _rank_of_rows(rows) -> int:
    # plain fraction-free Gaussian elimination; rows are integer tuples
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][col] != 0:
                f = work[i][col] / pr[col]
                work[i] = [a - f * b for a, b in zip(work[i], pr)]
        rank += 1
    return rank


def _det_int(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for i in range(col + 1, n):
            if work[i][col] != 0:
                f = work[i][col] / work[col][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    assert det.denominator == 1
    return int(det)


def smith_invariants(rows) -> list[int]:
    """Nonzero invariant factors of an integer matrix (Smith normal form)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    invariants = []
    top = 0
    while top < min(m, n):
        # find a nonzero pivot below/right of (top, top)
        piv = None
        for i in range(top, m):
            for j in range(top, n):
                if mat[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        mat[top], mat[i0] = mat[i0], mat[top]
        for row in mat:
            row[top], row[j0] = row[j0], row[top]
        while True:
            # clear column by euclidean moves
            done = True
            for i in range(top + 1, m):
                if mat[i][top] != 0:
                    q = mat[i][top] // mat[top][top]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][top] != 0:
                        mat[top], mat[i] = mat[i], mat[top]
                        done = False
            for j in range(top + 1, n):
                if mat[top][j] != 0:
                    q = mat[top][j] // mat[top][top]
                    for row in mat:
                        row[j] -= q * row[top]
                    if mat[top][j] != 0:
                        for row in mat:
                            row[top], row[j] = row[j], row[top]
                        done = False
            if done:
                break
        invariants.append(abs(mat[top][top]))
        top += 1
    invariants = [d for d in invariants if d != 0]
    # enforce the divisibility chain d1 | d2 | ... via gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(invariants)):
            for j in range(i + 1, len(invariants)):
                if invariants[j] % invariants[i] != 0:
                    g = gcd(invariants[i], invariants[j])
                    invariants[i], invariants[j] = g, invariants[i] * invariants[j] // g
                    changed = True
    return invariants


def cone_is_smooth(fan: Fan, cone: Cone) -> bool:
    """True when the ray generators extend to a basis of the lattice."""
    if not cone.ray_indices:
        return True
    rows = fan.ray_matrix(cone)
    if len(rows) == fan.dim:
        return abs(_det_int(rows)) == 1
    return all(d == 1 for d in smith_invariants(rows))


@dataclass
class FanCheck:
    name: str
    status: str  # pass | fail | undetermined
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def validate_fan(fan: Fan) -> list[FanCheck]:
    """Run all structural checks on a fan and report each verdict.

    Nothing is thrown; callers decide which failures they can live with.
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

    nonsimp = []
    for i, c in enumerate(fan.cones):
        rows = fan.ray_matrix(c)
        if rows and _rank_of_rows(rows) != len(rows):
            nonsimp.append(i)
    checks.append(
        FanCheck("simplicial", "fail" if nonsimp else "pass",
                 f"linearly dependent generators in cones {nonsimp}" if nonsimp else "")
    )

    nonsmooth = []
    if not nonsimp:
        nonsmooth = [i for i, c in enumerate(fan.cones) if not cone_is_smooth(fan, c)]
    checks.append(
        FanCheck("smooth", "fail" if nonsmooth else "pass",
                 f"non-smooth cones {nonsmooth}" if nonsmooth else "")
    )

    unclosed = []
    for c in fan.cones:
        for size in range(len(c.ray_indices)):
            for sub in itertools.combinations(c.ray_indices, size):
                if not fan.has_cone(sub):
                    unclosed.append((c.ray_indices, sub))
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
