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

Matrix products are fused, row-sparse passes that build each entry as one
term map and make its coefficients canonical once:
:meth:`LaurentMatrix.mul_add` returns A * B + Z without a separate sum (``*``
is the same method without Z), :func:`conjugations` returns C * X_b * D + Z_b
for a whole batch of X_b, with C and D made row-sparse once and the middle
product kept as raw term maps, and :func:`delta_products` returns
delta_{e_b}(C) * D, or C * delta_{e_b}(D), for every basis vector e_b at once.
Determinants expand over raw term maps too.
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


def _accumulate(acc: dict, a: dict, b: dict) -> None:
    """Add the product of the term maps a and b into acc: out[e1 + e2] += c1 * c2.

    This is the one product kernel.  It leaves zeros and non-canonical
    coefficients in acc; the caller runs :func:`_canonical` once at the end.
    """
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2


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
        acc = {}
        _accumulate(acc, self.terms, other.terms)
        return _poly(_canonical(acc))

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


_ZERO = LaurentPoly()  # the shared zero entry of matrix products


def _sparse_rows(M: "LaurentMatrix") -> list:
    """Each row of M as its nonzero entries: a list of (column, term map)."""
    return [[(q, f.terms) for q, f in enumerate(row) if f.terms] for row in M.entries]


def _row_product(accs: dict, row: list, right: list) -> dict:
    """Add one row-sparse left row times a row-sparse right factor into accs.

    ``accs`` maps a column q to the term map of entry q; entry k of the row
    meets only the nonzero entries of right row k.  Returns accs.
    """
    for k, a in row:
        for q, b in right[k]:
            acc = accs.get(q)
            if acc is None:
                acc = accs[q] = {}
            _accumulate(acc, a, b)
    return accs


def _seeds(M: "LaurentMatrix") -> list:
    """Fresh accumulators holding the terms of M, one map of columns per row."""
    return [{q: dict(f.terms) for q, f in enumerate(row) if f.terms} for row in M.entries]


def _entries(accs: dict, size: int) -> tuple:
    """One matrix row from its term maps by column; a missing or cancelled entry is _ZERO."""
    out = [_ZERO] * size
    for q, acc in accs.items():
        terms = _canonical(acc)
        if terms:
            out[q] = _poly(terms)
    return tuple(out)


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
        return cls._square(tuple(tuple(one if i == j else _ZERO for j in range(r))
                                 for i in range(r)))

    @classmethod
    def zero(cls, r: int) -> "LaurentMatrix":
        return cls._square(((_ZERO,) * r,) * r)

    @classmethod
    def diagonal(cls, polys) -> "LaurentMatrix":
        polys = tuple(polys)
        r = len(polys)
        return cls._square(tuple(tuple(polys[i] if i == j else _ZERO for j in range(r))
                                 for i in range(r)))

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_size(other)
        return LaurentMatrix._square(tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_size(other)
        return LaurentMatrix._square(tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> "LaurentMatrix":
        return LaurentMatrix._square(tuple(tuple(-a for a in row) for row in self.entries))

    def mul_add(self, other: "LaurentMatrix", addend: "LaurentMatrix | None" = None
                ) -> "LaurentMatrix":
        """self * other + addend in one row-sparse pass.

        Each nonzero entry k of a left row meets only the nonzero entries of
        right row k, and entry (p, q) is one term map, seeded with the terms
        of addend[p][q] and built by the product kernel.  Zero entries share
        one empty polynomial.  ``*`` is this method without an addend.
        """
        self._check_size(other)
        if addend is None:
            seeds = None
        else:
            self._check_size(addend)
            seeds = _seeds(addend)
        right = _sparse_rows(other)
        rows = []
        for p, row in enumerate(_sparse_rows(self)):
            accs = _row_product({} if seeds is None else seeds[p], row, right)
            rows.append(_entries(accs, self.size))
        return LaurentMatrix._square(tuple(rows))

    __mul__ = mul_add

    def shift_columns(self, exponents) -> "LaurentMatrix":
        """self * diag(chi^e_0, ..., chi^e_{r-1}): column q multiplied by chi^e_q."""
        exponents = tuple(exponents)
        if len(exponents) != self.size:
            raise DimensionError(f"{len(exponents)} shifts for a matrix of size {self.size}")
        return LaurentMatrix._square(tuple(
            tuple(f.shift(e) if f.terms else f for f, e in zip(row, exponents))
            for row in self.entries))

    def scale(self, c) -> "LaurentMatrix":
        return LaurentMatrix._square(tuple(tuple(a.scale(c) for a in row) for row in self.entries))

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


def conjugations(C: LaurentMatrix, Xs, D: LaurentMatrix, addends=None
                 ) -> tuple[LaurentMatrix, ...]:
    """The tuple of C * X_b * D + Z_b over a batch, Z_b from ``addends`` (or zero).

    C and D are made row-sparse once for the whole batch.  Each row of the
    middle product C * X_b stays a raw term map per entry; its cancelled
    zeros are dropped before it meets D, and each result entry, seeded with
    the terms of Z_b, is made canonical once.  A batch and addends of
    different lengths raise ValueError, matrices of different sizes
    DimensionError.
    """
    Xs = tuple(Xs)
    if addends is None:
        addends = (None,) * len(Xs)
    else:
        addends = tuple(addends)
        if len(addends) != len(Xs):
            raise ValueError(f"{len(Xs)} matrices but {len(addends)} addends")
    C._check_size(D)
    for M in Xs + addends:
        if M is not None:
            C._check_size(M)
    left, right = _sparse_rows(C), _sparse_rows(D)
    out = []
    for X, Z in zip(Xs, addends):
        middle = _sparse_rows(X)
        seeds = [{} for _ in left] if Z is None else _seeds(Z)
        rows = []
        for row, accs in zip(left, seeds):
            mid = _row_product({}, row, middle)
            # drop the middle product's cancelled zeros before the second product
            mid = [(k, acc if 0 not in acc.values() else {e: c for e, c in acc.items() if c})
                   for k, acc in mid.items()]
            rows.append(_entries(_row_product(accs, mid, right), C.size))
        out.append(LaurentMatrix._square(tuple(rows)))
    return tuple(out)


def matrix_delta(v: IntVec, C: LaurentMatrix) -> LaurentMatrix:
    """Apply the logarithmic derivation delta_v to every entry."""
    return LaurentMatrix._square(
        tuple(tuple(delta_apply(v, a) for a in row) for row in C.entries))


def _accumulate_delta(accs: list, weighted: list, plain: dict) -> None:
    """The product kernel for delta_products: accs[b][e1 + e2] += c1 * w_b * c2.

    ``weighted`` lists each term (e1, c1) of one factor as (e1, [(b, c1 * w_b)])
    with only the basis directions whose weight w_b is nonzero; ``plain`` is
    the term map of the other factor.  Each exponent sum is formed once for
    every direction.  The caller runs :func:`_canonical` once at the end.
    """
    for e1, parts in weighted:
        for e2, c2 in plain.items():
            e = tuple(map(add, e1, e2))
            for b, c1 in parts:
                acc = accs[b]
                acc[e] = acc.get(e, 0) + c1 * c2


def delta_products(C: LaurentMatrix, D: LaurentMatrix, dim: int, left: bool
                   ) -> tuple[LaurentMatrix, ...]:
    """The products with one factor differentiated, for every basis vector, in one pass.

    Returns the tuple over b = 0..dim-1 of delta_{e_b}(C) * D when ``left``
    is true and of C * delta_{e_b}(D) when it is false, equal entry for entry
    to ``matrix_delta(e_b, C) * D`` and ``C * matrix_delta(e_b, D)``.  A term
    pair (e1, c1), (e2, c2) adds c1 * c2 * w[b] at e1 + e2, w being e1 (left)
    or e2 (right); a direction with w[b] = 0 adds nothing, as delta_apply
    drops those terms.  The pass is row-sparse like :meth:`LaurentMatrix.mul_add`,
    with one term map per entry and b, each made canonical once.
    """
    C._check_size(D)
    basis = range(dim)

    def weighted(f: LaurentPoly) -> list:
        out = []
        for e, c in f.terms.items():
            parts = [(b, c * e[b]) for b in basis if e[b]]
            if parts:
                out.append((e, parts))
        return out

    if left:
        lhs = [[weighted(a) for a in row] for row in C.entries]
        rhs = [[(q, f.terms) for q, f in enumerate(row) if f.terms] for row in D.entries]
    else:
        lhs = [[a.terms for a in row] for row in C.entries]
        rhs = [[(q, w) for q, f in enumerate(row) if (w := weighted(f))] for row in D.entries]
    rows = [[] for _ in basis]
    for row in lhs:
        accs = {}
        for a, nonzero in zip(row, rhs):
            if not a:
                continue
            for q, other in nonzero:
                acc = accs.get(q)
                if acc is None:
                    acc = accs[q] = [{} for _ in basis]
                if left:
                    _accumulate_delta(acc, a, other)
                else:
                    _accumulate_delta(acc, other, a)
        for b in basis:
            rows[b].append(_entries({q: acc[b] for q, acc in accs.items()}, C.size))
    return tuple(LaurentMatrix._square(tuple(r)) for r in rows)


def _det_terms(rows: list) -> dict:
    """The determinant of a square array of term maps, as a raw term map.

    Cofactor expansion along the first row, skipping zero entries; the
    result may hold zeros and non-canonical coefficients, so the caller
    runs :func:`_canonical` once.  Matrices here are tiny.
    """
    if len(rows) == 1:
        return rows[0][0]
    acc = {}
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        if j % 2:
            a = {e: -c for e, c in a.items()}
        _accumulate(acc, a, _det_terms([row[:j] + row[j + 1:] for row in rows[1:]]))
    return acc


def _term_rows(C: LaurentMatrix) -> list:
    return [[f.terms for f in row] for row in C.entries]


def matrix_det(C: LaurentMatrix) -> LaurentPoly:
    return _poly(_canonical(_det_terms(_term_rows(C))))


def _scaled(terms: dict, shift: IntVec, c: Coeff) -> dict:
    """The canonical term map of c * chi^shift times a raw term map.

    Each exponent moves by ``shift`` (skipped when it is zero) and each
    coefficient is multiplied by c (skipped when c is 1); zeros are dropped.
    """
    if any(shift):
        terms = {tuple(map(add, e, shift)): v for e, v in terms.items()}
    if c != 1:
        terms = {e: v * c for e, v in terms.items()}
    return _canonical(terms)


def matrix_inverse_unit(C: LaurentMatrix) -> LaurentMatrix:
    """Invert a matrix whose determinant is a unit of the Laurent ring.

    Units are single monomial terms c*chi^m; anything else is rejected.
    Entry (i, j) of the inverse is the (j, i) cofactor scaled by the
    inverse unit c^-1 chi^-m directly: its exponents shift by -m and its
    coefficients are multiplied by the signed 1/c, an int when c is +-1.
    The result satisfies C * C^-1 == identity exactly.
    """
    rows = _term_rows(C)
    det = _canonical(_det_terms(rows))
    if not det:
        raise SingularMatrixError("matrix determinant is zero")
    if len(det) != 1:
        raise NotAUnitError(
            f"determinant has {len(det)} terms; not a unit of the Laurent ring"
        )
    (exp, c), = det.items()
    inv_exp, inv_c = tuple(-x for x in exp), exact(Fraction(1) / c)
    r = C.size
    if r == 1:
        return LaurentMatrix._square(((_poly({inv_exp: inv_c}),),))
    signed = (inv_c, -inv_c)
    out = []
    for i in range(r):
        entries = []
        for j in range(r):
            minor = [row[:i] + row[i + 1:] for p, row in enumerate(rows) if p != j]
            terms = _scaled(_det_terms(minor), inv_exp, signed[(i + j) % 2])
            entries.append(_poly(terms) if terms else _ZERO)
        out.append(tuple(entries))
    return LaurentMatrix._square(tuple(out))


def matrix_chart_member(C: LaurentMatrix, sigma: Cone, fan: Fan) -> bool:
    return all(chart_member(a, sigma, fan) for row in C.entries for a in row)
