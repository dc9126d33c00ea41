"""Sparse Laurent polynomials over exact rationals, graded by the character lattice.

A polynomial is a finite map  exponent -> nonzero coefficient,  the exponent
being a tuple in M and the coefficient exact: an int when it is integral,
else a Fraction (see :func:`exact`).  Floats are refused.  The chart ring
of a cone sigma is the span of the monomials whose exponents pair
nonnegatively with every ray generator of sigma; the zero cone gives the
full Laurent ring.

The module also carries the logarithmic derivations delta_v (chi^m maps to
<m,v> chi^m), the Lie bracket on polynomial-coefficient vector fields, and
square-matrix calculus over the Laurent ring, including inversion of
matrices whose determinant is a unit (a single monomial term).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .fans import Cone, DimensionError, Fan, IntVec, pairing, vec_add

Coeff = int | Fraction


class NotAUnitError(ValueError):
    """Determinant is not a single monomial, so no inverse over the Laurent ring."""


class SingularMatrixError(ValueError):
    """Determinant vanishes identically."""


def exact(c) -> Coeff:
    """The canonical exact form of a coefficient: int when integral, else Fraction.

    Anything ``Fraction`` accepts is taken, except a float, which would carry
    a binary rounding error into exact arithmetic; that raises TypeError.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"coefficients are exact; got the float {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canonical(acc: dict) -> dict:
    """Drop the zeros of a term map and put every coefficient in canonical form."""
    return {e: c if type(c) is int else exact(c) for e, c in acc.items() if c}


def _product_terms(pairs) -> dict:
    """The term map of  sum(a * b)  over pairs (a, b) of term maps.

    This is the one product kernel: out[e1 + e2] += c1 * c2 over all terms of
    all pairs, with cancelled terms dropped once at the end.
    """
    acc = {}
    get = acc.get
    for a, b in pairs:
        if not b:
            continue
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
    return _canonical(acc)


def _poly(terms: dict) -> "LaurentPoly":
    """Wrap a term map that is already canonical."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = terms
    return res


class LaurentPoly:
    """Sparse exact Laurent polynomial; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = exact(c)
                if c != 0:
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def monomial(cls, exponent: IntVec, coeff=1) -> "LaurentPoly":
        return cls({tuple(exponent): coeff})

    @classmethod
    def const(cls, value, dim: int) -> "LaurentPoly":
        return cls({(0,) * dim: value})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[IntVec]:
        return sorted(self.terms)

    def coeff(self, exponent: IntVec) -> Coeff:
        """The coefficient of chi^exponent: int when integral, else Fraction."""
        return self.terms.get(tuple(exponent), 0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s if type(s) is int else exact(s)
        return _poly(out)

    def __neg__(self) -> "LaurentPoly":
        return _poly({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _poly(_product_terms(((self.terms, other.terms),)))

    def scale(self, c) -> "LaurentPoly":
        c = exact(c)
        if c == 0:
            return LaurentPoly()
        return _poly(_canonical({exp: c * v for exp, v in self.terms.items()}))

    def shift(self, exponent: IntVec) -> "LaurentPoly":
        """Multiply by the monomial chi^exponent."""
        return _poly({vec_add(exp, exponent): c for exp, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in self.support():
            c = self.terms[exp]
            bits.append(f"{c}*x^{list(exp)}")
        return " + ".join(bits)


def chart_member(F: LaurentPoly, sigma: Cone, fan: Fan) -> bool:
    """Does F lie in the chart ring of sigma?

    True iff every exponent of F pairs nonnegatively with each ray generator
    of sigma.  The zero cone accepts everything.
    """
    rays = [fan.rays[k] for k in sigma.ray_indices]
    for exp in F.terms:
        for v in rays:
            if pairing(exp, v) < 0:
                return False
    return True


def delta_apply(v: IntVec, F: LaurentPoly) -> LaurentPoly:
    """Logarithmic derivation: scales the chi^m term by <m, v>."""
    out = {}
    for exp, c in F.terms.items():
        w = pairing(exp, v)
        if w != 0:
            out[exp] = c * w
    return _poly(_canonical(out))


class VField:
    """A polynomial-coefficient vector field: a sum of terms f (x) v.

    Summands are normalized so the lattice vectors v are distinct and
    sorted, and zero coefficients are dropped.
    """

    __slots__ = ("summands",)

    def __init__(self, summands=()):
        acc: dict[IntVec, LaurentPoly] = {}
        for f, v in summands:
            v = tuple(v)
            acc[v] = acc.get(v, LaurentPoly()) + f
        self.summands = tuple(
            (f, v) for v, f in sorted(acc.items(), key=lambda kv: kv[0]) if not f.is_zero()
        )

    def __add__(self, other: "VField") -> "VField":
        return VField(self.summands + other.summands)

    def __neg__(self) -> "VField":
        return VField(tuple((-f, v) for f, v in self.summands))

    def __sub__(self, other: "VField") -> "VField":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.summands

    def __eq__(self, other) -> bool:
        if not isinstance(other, VField):
            return NotImplemented
        return self.summands == other.summands

    def __repr__(self) -> str:
        if not self.summands:
            return "VField(0)"
        return " + ".join(f"({f!r}) (x) {list(v)}" for f, v in self.summands)


def bracket(A: VField, B: VField) -> VField:
    """Lie bracket of vector fields, extended bilinearly from

        [f1 (x) v1, f2 (x) v2] = f1 delta_{v1}(f2) (x) v2 - f2 delta_{v2}(f1) (x) v1
    """
    parts = []
    for f1, v1 in A.summands:
        for f2, v2 in B.summands:
            parts.append((f1 * delta_apply(v1, f2), v2))
            parts.append(((f2 * delta_apply(v2, f1)).scale(-1), v1))
    return VField(parts)


class LaurentMatrix:
    """Square matrix of Laurent polynomials."""

    __slots__ = ("size", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        r = len(rows)
        for row in rows:
            if len(row) != r:
                raise ValueError("matrix must be square")
        self.size = r
        self.entries = rows

    @classmethod
    def _square(cls, rows: tuple) -> "LaurentMatrix":
        """Wrap a tuple of row tuples that is square by construction."""
        res = cls.__new__(cls)
        res.size = len(rows)
        res.entries = rows
        return res

    @classmethod
    def identity(cls, r: int, dim: int) -> "LaurentMatrix":
        one = LaurentPoly.const(1, dim)
        zero = LaurentPoly()
        return cls([[one if i == j else zero for j in range(r)] for i in range(r)])

    @classmethod
    def zero(cls, r: int) -> "LaurentMatrix":
        z = LaurentPoly()
        return cls([[z] * r for _ in range(r)])

    @classmethod
    def diagonal(cls, polys) -> "LaurentMatrix":
        polys = list(polys)
        z = LaurentPoly()
        return cls([[polys[i] if i == j else z for j in range(len(polys))] for i in range(len(polys))])

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_size(other)
        return LaurentMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_size(other)
        return LaurentMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "LaurentMatrix":
        return LaurentMatrix([[-a for a in row] for row in self.entries])

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Entry (p, q) is one term map built over all k by the product kernel."""
        self._check_size(other)
        cols = [[b.terms for b in col] for col in zip(*other.entries)]
        rows = []
        for row in self.entries:
            left = [a.terms for a in row]
            rows.append(tuple(_poly(_product_terms(zip(left, col))) for col in cols))
        return LaurentMatrix._square(tuple(rows))

    def scale(self, c) -> "LaurentMatrix":
        return LaurentMatrix([[a.scale(c) for a in row] for row in self.entries])

    def _check_size(self, other):
        if self.size != other.size:
            raise DimensionError(f"matrix sizes differ: {self.size} vs {other.size}")

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __repr__(self) -> str:
        return "LaurentMatrix([%s])" % "; ".join(
            ", ".join(repr(a) for a in row) for row in self.entries
        )


def matrix_delta(v: IntVec, C: LaurentMatrix) -> LaurentMatrix:
    """Apply the logarithmic derivation delta_v to every entry."""
    return LaurentMatrix._square(
        tuple(tuple(delta_apply(v, a) for a in row) for row in C.entries))


def _det(C: LaurentMatrix) -> LaurentPoly:
    # cofactor expansion along the first row; matrices here are tiny
    r = C.size
    if r == 1:
        return C.entries[0][0]
    acc = LaurentPoly()
    for j in range(r):
        a = C.entries[0][j]
        if a.is_zero():
            continue
        minor = LaurentMatrix(
            [[C.entries[i][k] for k in range(r) if k != j] for i in range(1, r)]
        )
        term = a * _det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def matrix_det(C: LaurentMatrix) -> LaurentPoly:
    return _det(C)


def matrix_inverse_unit(C: LaurentMatrix) -> LaurentMatrix:
    """Invert a matrix whose determinant is a unit of the Laurent ring.

    Units are single monomial terms c*chi^m; anything else is rejected.
    The result satisfies C * C^-1 == identity exactly.
    """
    det = _det(C)
    if det.is_zero():
        raise SingularMatrixError("matrix determinant is zero")
    if len(det.terms) != 1:
        raise NotAUnitError(
            f"determinant has {len(det.terms)} terms; not a unit of the Laurent ring"
        )
    (exp, c), = det.terms.items()
    det_inv = LaurentPoly.monomial(tuple(-x for x in exp), Fraction(1) / c)
    r = C.size
    if r == 1:
        return LaurentMatrix([[det_inv]])
    adj_rows = []
    for i in range(r):
        row = []
        for j in range(r):
            minor = LaurentMatrix(
                [[C.entries[p][q] for q in range(r) if q != i] for p in range(r) if p != j]
            )
            cof = _det(minor)
            row.append(cof if (i + j) % 2 == 0 else -cof)
        adj_rows.append(row)
    return LaurentMatrix([[a * det_inv for a in row] for row in adj_rows])


def matrix_chart_member(C: LaurentMatrix, sigma: Cone, fan: Fan) -> bool:
    return all(chart_member(a, sigma, fan) for row in C.entries for a in row)
