"""Exact linear algebra over the rationals: one Gauss-Jordan elimination.

:func:`eliminate` is the one elimination over a field in torlog.  The graded
splitting solver runs it on its sparse system, and the fan layer on dense
integer ray matrices: :func:`rank_det` for ranks and determinants, and
against the identity for the exact inverse ``fans.ray_inverse``.

The module also holds the one rule for an exact coefficient, :func:`exact`:
an int when it is integral, else a Fraction.  It takes only an int or a
Fraction; a float, a str or a Decimal raises TypeError.  Every module that
makes a coefficient canonical, from the Laurent polynomials to the CLI's
parser, imports it from here; :func:`exact_div` keeps the elimination's
quotients in that form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

Coeff = int | Fraction


def exact(c) -> Coeff:
    """The canonical exact form of a coefficient: int when integral, else Fraction.

    An int is returned at once and a Fraction read directly.  Nothing else
    is a coefficient: a float would carry a binary rounding error into
    exact arithmetic, and a str or a Decimal would be parsed, so anything
    but an int or a Fraction raises TypeError.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        raise TypeError(f"coefficients are exact, an int or a Fraction; "
                        f"got the {type(c).__name__} {c!r}")
    return c.numerator if c.denominator == 1 else c


def exact_div(c: Coeff, p: Coeff) -> Coeff:
    """c / p in canonical exact form; ``/`` on two ints would give a float."""
    if type(c) is int and type(p) is int and c % p == 0:
        return c // p
    return exact(Fraction(c, p))


def eliminate(system):
    """Gauss-Jordan elimination of (row, rhs) pairs taken in the given order.

    A row maps variable indices to nonzero coefficients; its right-hand
    side is a list of any width, one column per system solved at once.
    Each row is reduced by the pivot rows before it; a row left empty is
    dropped when its right-hand side is zero, and makes the system
    inconsistent otherwise.  A surviving row pivots on its lowest variable,
    is divided by that coefficient and cleared from the earlier pivot rows.
    The inputs are not modified.

    Returns (pivots, coeffs), or None when the system is inconsistent.
    ``pivots`` maps each pivot variable, in row order, to (rest, rhs): the
    pivot equals rhs minus the rest applied to the free variables, so with
    free variables zero it is rhs.  ``coeffs`` lists the coefficient divided
    out of each pivot row, in the same order.
    """
    pivots: dict[int, tuple[dict[int, Coeff], list[Coeff]]] = {}
    coeffs: list[Coeff] = []
    for row, vec in system:
        row = dict(row)
        vec = list(vec)
        width = len(vec)
        for var in [x for x in row if x in pivots]:
            f = row.pop(var)
            rest, pvec = pivots[var]
            for v2, c2 in rest.items():
                nv = row.get(v2, 0) - f * c2
                if nv:
                    row[v2] = nv
                else:
                    row.pop(v2, None)
            for b in range(width):
                vec[b] -= f * pvec[b]
        if not row:
            if any(vec):
                return None
            continue
        pivot = min(row)
        coeff = row.pop(pivot)
        rest = {v2: exact_div(c2, coeff) for v2, c2 in row.items()}
        pvec = [exact_div(x, coeff) for x in vec]
        # keep earlier pivot rows clean of the new pivot variable
        for orest, ovec in pivots.values():
            if pivot in orest:
                f = orest.pop(pivot)
                for v2, c2 in rest.items():
                    nv = orest.get(v2, 0) - f * c2
                    if nv:
                        orest[v2] = nv
                    else:
                        orest.pop(v2, None)
                for b in range(width):
                    ovec[b] -= f * pvec[b]
        pivots[pivot] = (rest, pvec)
        coeffs.append(coeff)
    return pivots, coeffs


def rank_det(rows) -> tuple[int, Coeff]:
    """Rank and determinant of a matrix; the determinant is 0 unless it is square of full rank.

    Row operations leave the determinant alone and each division scales it,
    so with every column a pivot it is the product of the divided-out
    coefficients times the sign of the permutation taking row to pivot.
    """
    pivots, coeffs = eliminate(({j: a for j, a in enumerate(row) if a}, ()) for row in rows)
    rank = len(coeffs)
    if rank != len(rows) or any(len(row) != rank for row in rows):
        return rank, 0
    inversions = sum(a > b for a, b in combinations(pivots, 2))
    return rank, exact((-1) ** inversions * prod(coeffs))


def minors_gcd(rows) -> int:
    """The gcd of the k x k minors of a k x n integer matrix; 0 when the rows are dependent."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, rank_det([[row[j] for j in cols] for row in rows])[1])
    return g
