"""Sparse Laurent polynomials over exact rationals, graded by the character lattice.

A polynomial is a finite map  exponent -> nonzero coefficient,  the exponent
being a tuple in M and the coefficient exact: an int when it is integral,
else a Fraction (see :func:`torlog.linalg.exact`).  Floats are refused, and
an exponent entry is read with ``operator.index``, as ``build_fan`` reads a ray.
All exponents of one polynomial have one length, the number of variables;
a term map that mixes lengths, and a sum or product of two nonzero
polynomials in different numbers of variables, raise DimensionError.  The
chart ring of a cone sigma is the span of the monomials whose exponents
pair nonnegatively with every ray generator of sigma; the zero cone gives
the full Laurent ring.  The same type carries the ordinary polynomials on
N of the equivariant Chern data (:meth:`LaurentPoly.linear_form`,
:meth:`LaurentPoly.evaluate`).

The module also carries the logarithmic derivations delta_v (chi^m maps to
<m,v> chi^m), the Lie bracket on polynomial-coefficient vector fields, and
square-matrix calculus over the Laurent ring, including inversion of
matrices whose determinant is a unit (a single monomial term).

Matrix products are fused, row-sparse passes that accumulate each entry as
one raw term map.  They run over flat rows: each row of a matrix as one list
of its terms, (column, exponent, coefficient), built the first time the
matrix is a factor or a seed and cached on it.  The cache relies on
immutability: a matrix never changes once built, and neither does the term
map of any of its polynomials.  One pass serves a batch: each row of
C * X_b (* D) is accumulated into fresh term maps seeded with the terms of
Z_b and minus those of W_b, and the middle product C * X_b stays raw; it is
flattened, its cancelled zeros dropped, before it meets D.  The pass has
three tails:

* the build tail makes every coefficient canonical once and wraps the
  result: ``*`` returns A * B and :func:`conjugations` returns
  C * X_b * D + Z_b;
* the zero-test tail, :func:`vanishing`, returns one bool per X_b, whether
  C * X_b * D + Z_b - W_b (or C * X_b + Z_b - W_b) is zero.  It builds no
  polynomial and stops an element at its first row with a nonzero
  coefficient.  Exact identities are checked this way;
* the constant tail, :func:`constant_product`, is the same test with the
  coefficients at exponent 0 let through: whether C * D is constant, which
  is whether delta(C) * D + C * delta(D) vanishes in every direction.

:func:`delta_products` runs on the build tail too: delta_{e_b}(C) * D (or
C * delta_{e_b}(D)) is the product of the differentiated factor's flat rows,
each coefficient weighted by its exponent's b-th component, with the other
factor's.  The product kernel :func:`_accumulate` is left for
``LaurentPoly * LaurentPoly`` and the determinants, which expand over raw term
maps.  Each kernel call sums exponents with one adder picked from the length
of its first exponent (``fans.vec_adder``).
"""

from __future__ import annotations

from itertools import chain
from operator import index

from .fans import Cone, DimensionError, Fan, IntVec, pairing, vec_add, vec_adder
from .linalg import Coeff, exact, exact_div


class NotAUnitError(ValueError):
    """Determinant is not a single monomial, so no inverse over the Laurent ring."""


class SingularMatrixError(ValueError):
    """Determinant vanishes identically."""


def _canonical(acc: dict) -> dict:
    """Drop the zeros of a term map and put every coefficient in canonical form.

    A map whose coefficients are all nonzero ints is already canonical and
    is returned itself.
    """
    for c in acc.values():
        if not c or type(c) is not int:
            return {e: c if type(c) is int else exact(c) for e, c in acc.items() if c}
    return acc


def _adder(M: "LaurentMatrix"):
    """The exponent adder of a kernel call, from the length of M's first exponent."""
    for row in M.entries:
        for f in row:
            for e in f.terms:
                return vec_adder(len(e))
    return vec_add


def _accumulate(acc: dict, a: dict, b: dict, vadd) -> None:
    """Add the product of the term maps a and b into acc: out[e1 + e2] += c1 * c2.

    This is the one product kernel; ``vadd`` sums two exponents.  It leaves
    zeros and non-canonical coefficients in acc; the caller runs
    :func:`_canonical` once at the end, or tests acc for zero.
    """
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = vadd(e1, e2)
            acc[e] = get(e, 0) + c1 * c2


def _poly(terms: dict) -> "LaurentPoly":
    """Wrap a term map that is already canonical."""
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = terms
    return res


def _check_lengths(f: "LaurentPoly", g: "LaurentPoly") -> None:
    """Raise DimensionError when f and g are nonzero in different numbers of variables."""
    if f.terms and g.terms:
        n, k = len(next(iter(f.terms))), len(next(iter(g.terms)))
        if n != k:
            raise DimensionError(f"polynomials in {n} and {k} variables")


class LaurentPoly:
    """Sparse exact Laurent polynomial; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            lengths = set(map(len, terms))
            if len(lengths) > 1:
                raise DimensionError(f"exponents of lengths {sorted(lengths)} in one polynomial")
            # all-int exponents, the usual case, skip the entry-by-entry index
            if not {int}.issuperset(map(type, chain.from_iterable(terms))):
                terms = {tuple(map(index, exp)): c for exp, c in terms.items()}
            for exp, c in terms.items():
                c = exact(c)
                if c != 0:
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def monomial(cls, exponent: IntVec, coeff=1) -> "LaurentPoly":
        return cls({tuple(exponent): coeff})

    @classmethod
    def const(cls, value, dim: int) -> "LaurentPoly":
        return cls({(0,) * dim: value})

    @classmethod
    def linear_form(cls, m: IntVec) -> "LaurentPoly":
        n = len(m)
        return cls({tuple(1 if j == i else 0 for j in range(n)): m[i] for i in range(n)})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[IntVec]:
        return sorted(self.terms)

    def coeff(self, exponent: IntVec) -> Coeff:
        """The coefficient of chi^exponent: int when integral, else Fraction."""
        return self.terms.get(tuple(exponent), 0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_lengths(self, other)
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
        _check_lengths(self, other)
        acc = {}
        if self.terms:
            vadd = vec_adder(len(next(iter(self.terms))))
            _accumulate(acc, self.terms, other.terms, vadd)
        return _poly(_canonical(acc))

    def scale(self, c) -> "LaurentPoly":
        c = exact(c)
        if c == 0:
            return LaurentPoly()
        return _poly(_canonical({exp: c * v for exp, v in self.terms.items()}))

    def shift(self, exponent: IntVec) -> "LaurentPoly":
        """Times chi^exponent; another length raises DimensionError, a non-int entry TypeError."""
        exponent = tuple(map(index, exponent))
        n = len(next(iter(self.terms), exponent))
        if len(exponent) != n:
            raise DimensionError(f"a shift of length {len(exponent)} for {n} variables")
        return _poly({vec_add(exp, exponent): c for exp, c in self.terms.items()})

    def evaluate(self, point: IntVec) -> Coeff:
        """The exact value at point: an int, or a Fraction where a negative exponent divides.

        A point whose length is not the number of variables raises DimensionError.
        The zero polynomial has no exponent, so no number of variables, and
        takes a point of any length to 0.
        """
        total = 0
        for exp, c in self.terms.items():
            if len(point) != len(exp):
                raise DimensionError(f"a point of length {len(point)} for {len(exp)} variables")
            term = c
            for x, e in zip(point, exp):
                term *= x**e if e >= 0 else exact_div(1, x**-e)
            total += term
        return exact(total)

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


def _sparse_rows(M: "LaurentMatrix") -> tuple:
    """Each row of M as one flat list of its terms: (column, exponent, coefficient).

    Terms are listed by column, then in the order of the entry's term map.
    The list is built the first time M is a factor or a seed of the pass and
    kept in M's ``_flat`` slot; that is sound because neither a matrix nor
    its polynomials change once built.
    """
    rows = M._flat
    if rows is None:
        rows = M._flat = tuple([[(q, e, c) for q, f in enumerate(row) for e, c in f.terms.items()]
                                for row in M.entries])
    return rows


def _row_product(accs: dict, row: list, right: tuple, vadd=vec_add) -> dict:
    """Add one flat left row times a flat right factor into accs; returns accs.

    ``accs`` maps a column q to the raw term map of entry q; a term in
    column k of the row meets only the terms of right row k.
    """
    for k, e1, c1 in row:
        for q, e2, c2 in right[k]:
            acc = accs.get(q)
            if acc is None:
                acc = accs[q] = {}
            e = vadd(e1, e2)
            acc[e] = acc.get(e, 0) + c1 * c2
    return accs


def _seeds(size: int, signed) -> list:
    """Fresh accumulators holding sign * M summed over the pairs (M, sign) in signed.

    One map of columns per row; sign is 1 or -1.  Every term map is new, so
    no accumulator is ever an input's own map.
    """
    seeds = [{} for _ in range(size)]
    for M, sign in signed:
        for accs, row in zip(seeds, _sparse_rows(M)):
            for q, e, c in row:
                acc = accs.get(q)
                if acc is None:
                    acc = accs[q] = {}
                acc[e] = acc.get(e, 0) + (c if sign == 1 else -c)
    return seeds


def _product_row(accs: dict, row: list, middle: tuple, right, vadd) -> dict:
    """One row of L * M (* R) added into accs, its seeded accumulators; returns accs.

    ``row`` is the flat row of L, ``middle`` and ``right`` the flat rows of
    M and R (None for a plain product).  The row of L * M stays raw; it is
    flattened, its cancelled zeros dropped, before it meets R.
    """
    if right is None:
        return _row_product(accs, row, middle, vadd)
    mid = [(k, e, c) for k, acc in _row_product({}, row, middle, vadd).items()
           for e, c in acc.items() if c]
    return _row_product(accs, mid, right, vadd)


def _batch(C: "LaurentMatrix", Xs, D, signed, tail) -> tuple:
    """The one row-sparse pass over a batch: the tail of each C * X_b (* D) + S_b.

    ``signed`` lists pairs (batch, sign), each batch aligned with Xs and
    sign 1 or -1; S_b sums sign * M_b over them and seeds the accumulators.
    Every factor's flat rows come from its cache.  ``tail(left, middle,
    right, seeds, vadd)`` turns one element into its result, computing its
    rows with :func:`_product_row` as it needs them.  A batch of another
    length raises ValueError, a matrix of another size DimensionError.
    """
    Xs = tuple(Xs)
    n, size = len(Xs), C.size
    for Ms, sign in signed:
        if len(Ms) != n:
            raise ValueError(f"{n} matrices but {len(Ms)} "
                             f"{'addends' if sign == 1 else 'subtrahends'}")
    if D is not None:
        C._check_size(D)
    for M in Xs:
        if M.size != size:
            C._check_size(M)
    for Ms, _ in signed:
        for M in Ms:
            if M.size != size:
                C._check_size(M)
    left = _sparse_rows(C)
    right = None if D is None else _sparse_rows(D)
    vadd = _adder(C)
    return tuple([tail(left, _sparse_rows(X), right,
                       _seeds(size, [(Ms[b], sign) for Ms, sign in signed]), vadd)
                  for b, X in enumerate(Xs)])


def _built(left, middle, right, seeds, vadd) -> "LaurentMatrix":
    """The build tail: each entry's term map made canonical once."""
    size = len(seeds)
    return LaurentMatrix._square(tuple([
        _entries(_product_row(accs, row, middle, right, vadd), size)
        for row, accs in zip(left, seeds)]))


def _vanishes(left, middle, right, seeds, vadd) -> bool:
    """The zero-test tail: is every coefficient zero?  Stops at the first row with one that is not."""
    for row, accs in zip(left, seeds):
        for acc in _product_row(accs, row, middle, right, vadd).values():
            if any(acc.values()):
                return False
    return True


def _constant(left, middle, right, seeds, vadd) -> bool:
    """The constant tail: does every nonzero coefficient sit at exponent 0?

    Each raw entry drops its term at exponent 0 and is then tested for zero
    as in :func:`_vanishes`; the term maps are the pass's own, never an
    input's.  Stops at the first row with a nonzero coefficient left.
    """
    zero = None
    for row, accs in zip(left, seeds):
        for acc in _product_row(accs, row, middle, right, vadd).values():
            if zero is None:
                zero = (0,) * len(next(iter(acc)))
            acc.pop(zero, None)
            if any(acc.values()):
                return False
    return True


def _entries(accs: dict, size: int) -> tuple:
    """One matrix row from its term maps by column; a missing or cancelled entry is _ZERO."""
    out = [_ZERO] * size
    for q, acc in accs.items():
        terms = _canonical(acc)
        if terms:
            out[q] = _poly(terms)
    return tuple(out)


def in_chart(exponent: IntVec, rays) -> bool:
    """Does chi^exponent lie in the chart ring of the cone with these ray generators?

    True iff the exponent pairs nonnegatively with every ray; no rays (the
    zero cone) accept everything.  This is the one chart-membership test.
    """
    for v in rays:
        if pairing(exponent, v) < 0:
            return False
    return True


def chart_member(F: LaurentPoly, sigma: Cone, fan: Fan) -> bool:
    """Does F lie in the chart ring of sigma?  True iff every exponent of F does."""
    rays = fan.ray_matrix(sigma)
    return all(in_chart(exp, rays) for exp in F.terms)


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
    """Square matrix of Laurent polynomials; immutable.

    ``entries`` is a tuple of row tuples.  ``_flat`` caches the flat rows of
    the product pass (:func:`_sparse_rows`), None until the matrix is first
    a factor or a seed; it is correct only because neither ``entries`` nor
    the term maps of its polynomials are ever changed.  Equality compares
    ``entries`` alone.
    """

    __slots__ = ("size", "entries", "_flat")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        r = len(rows)
        for row in rows:
            if len(row) != r:
                raise ValueError("matrix must be square")
        self.size = r
        self.entries = rows
        self._flat = None

    @classmethod
    def _square(cls, rows: tuple) -> "LaurentMatrix":
        """Wrap a tuple of row tuples that is square by construction."""
        res = cls.__new__(cls)
        res.size = len(rows)
        res.entries = rows
        res._flat = None
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
        return self + (-other)

    def __neg__(self) -> "LaurentMatrix":
        return LaurentMatrix._square(tuple(tuple(-a for a in row) for row in self.entries))

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """self * other in one row-sparse pass.

        Each term in column k of a left row meets only the terms of right
        row k, and entry (p, q) is one term map.  Zero entries share one
        empty polynomial.
        """
        return _batch(self, (other,), None, (), _built)[0]

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

    The build tail of the one pass (module docstring): the flat rows of C
    and D serve the whole batch, the middle product C * X_b stays raw, and
    each result entry, seeded with the terms of Z_b, is made canonical
    once.  A batch and addends of different lengths raise ValueError,
    matrices of different sizes DimensionError.
    """
    return _batch(C, Xs, D, () if addends is None else ((tuple(addends), 1),), _built)


def vanishing(C: LaurentMatrix, Xs, D: LaurentMatrix | None = None, plus=(), minus=()
              ) -> tuple[bool, ...]:
    """Whether C * X_b * D + Z_b - W_b is zero, for each X_b of a batch.

    Without D the test is on C * X_b + Z_b - W_b.  ``plus`` and ``minus``
    are lists of batches aligned with Xs: Z_b is the sum of the b-th
    matrices of the batches in plus, W_b of those in minus, so
    ``vanishing(C, Xs, D, [Zs], [Ws])[b]`` is
    ``conjugations(C, Xs, D, Zs)[b] == Ws[b]``.  This is the zero-test tail
    of the pass behind :func:`conjugations` (module docstring): no
    coefficient is made canonical and no polynomial is built.  Lengths and
    sizes are checked as there.
    """
    return _batch(C, Xs, D, [(tuple(Zs), 1) for Zs in plus] + [(tuple(Ws), -1) for Ws in minus],
                  _vanishes)


def constant_product(C: LaurentMatrix, D: LaurentMatrix) -> bool:
    """Whether C * D is constant: every nonzero coefficient at exponent 0.

    This is the zero test of delta(C) * D + C * delta(D) in every direction
    at once, built from neither product.  A term pair (e1, c1) of C and
    (e2, c2) of D adds c1 * c2 * e1[b] at e = e1 + e2 to delta_{e_b}(C) * D
    and c1 * c2 * e2[b] to C * delta_{e_b}(D) (see :func:`delta_products`),
    so their sum at e is e[b] * P[e], P[e] being the raw sum of c1 * c2 over
    the pairs that land at e, the coefficient of C * D there.  The sum
    vanishes for every b exactly when P[e] = 0 at every e != 0.  That is an
    identity of exact term sums, the Leibniz rule on them; it assumes
    nothing of C * D, which need not be 1.

    The constant tail of the pass behind :func:`vanishing` (module
    docstring): the raw product, cancelled zeros included, is read
    directly; no coefficient is made canonical and no polynomial is built.
    Matrices of different sizes raise DimensionError.
    """
    return _batch(C, (D,), None, (), _constant)[0]


def matrix_delta(v: IntVec, C: LaurentMatrix) -> LaurentMatrix:
    """Apply the logarithmic derivation delta_v to every entry."""
    return LaurentMatrix._square(
        tuple(tuple(delta_apply(v, a) for a in row) for row in C.entries))


def delta_products(C: LaurentMatrix, D: LaurentMatrix, dim: int, left: bool
                   ) -> tuple[LaurentMatrix, ...]:
    """The products with one factor differentiated, for every basis vector.

    Returns the tuple over b = 0..dim-1 of delta_{e_b}(C) * D when ``left``
    is true and of C * delta_{e_b}(D) when it is false, equal entry for entry
    to ``matrix_delta(e_b, C) * D`` and ``C * matrix_delta(e_b, D)``.  For
    each b the differentiated factor's flat rows are weighted, each term
    (q, e, c) becoming (q, e, c * e[b]) and dropped when e[b] = 0, as
    delta_apply drops it; the build tail of the one pass (module docstring)
    then multiplies them with the other factor's flat rows.  Matrices of
    different sizes raise DimensionError.
    """
    C._check_size(D)
    lhs, rhs = _sparse_rows(C), _sparse_rows(D)
    vadd = _adder(C)
    out = []
    for b in range(dim):
        weighted = [[(q, e, c * e[b]) for q, e, c in row if e[b]]
                    for row in (lhs if left else rhs)]
        factors = (weighted, rhs) if left else (lhs, weighted)
        out.append(_built(*factors, None, [{} for _ in lhs], vadd))
    return tuple(out)


def _det_terms(rows: list, vadd) -> dict:
    """The determinant of a square array of term maps, as a raw term map.

    Cofactor expansion along the first row, skipping zero entries; the
    result may hold zeros and non-canonical coefficients, so the caller
    runs :func:`_canonical` once; ``vadd`` sums two exponents.  Matrices
    here are tiny.
    """
    if len(rows) == 1:
        return rows[0][0]
    acc = {}
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        if j % 2:
            a = {e: -c for e, c in a.items()}
        _accumulate(acc, a, _det_terms([row[:j] + row[j + 1:] for row in rows[1:]], vadd), vadd)
    return acc


def _term_rows(C: LaurentMatrix) -> list:
    return [[f.terms for f in row] for row in C.entries]


def matrix_det(C: LaurentMatrix) -> LaurentPoly:
    return _poly(_canonical(_det_terms(_term_rows(C), _adder(C))))


def _scaled(terms: dict, shift: IntVec, c: Coeff, vadd) -> dict:
    """The canonical term map of c * chi^shift times a raw term map.

    Each exponent moves by ``shift`` (skipped when it is zero) and each
    coefficient is multiplied by c (skipped when c is 1); zeros are dropped.
    With neither, a canonical map is returned itself.
    """
    if any(shift):
        terms = {vadd(e, shift): v for e, v in terms.items()}
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
    vadd = _adder(C)
    det = _canonical(_det_terms(rows, vadd))
    if not det:
        raise SingularMatrixError("matrix determinant is zero")
    if len(det) != 1:
        raise NotAUnitError(
            f"determinant has {len(det)} terms; not a unit of the Laurent ring"
        )
    (exp, c), = det.items()
    inv_exp, inv_c = tuple(-x for x in exp), exact_div(1, c)
    r = C.size
    if r == 1:
        return LaurentMatrix._square(((_poly({inv_exp: inv_c}),),))
    signed = (inv_c, -inv_c)
    out = []
    for i in range(r):
        entries = []
        for j in range(r):
            minor = [row[:i] + row[i + 1:] for p, row in enumerate(rows) if p != j]
            terms = _scaled(_det_terms(minor, vadd), inv_exp, signed[(i + j) % 2], vadd)
            entries.append(_poly(terms) if terms else _ZERO)
        out.append(tuple(entries))
    return LaurentMatrix._square(tuple(out))


def matrix_chart_member(C: LaurentMatrix, sigma: Cone, fan: Fan) -> bool:
    rays = fan.ray_matrix(sigma)
    return all(in_chart(exp, rays) for row in C.entries for a in row for exp in a.terms)
