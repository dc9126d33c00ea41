from __future__ import annotations

import copy
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torlog import laurent
from torlog.cocycles import (
    atiyah_cocycle,
    check_cocycle_pipelines,
    check_frame_antisymmetry,
    check_triple_identity,
    validate_transitions,
)
from torlog.corpus import dressed_transitions, random_dressing, random_equivariant_data
from torlog.fans import Cone, DimensionError, build_fan, hirzebruch_fan, projective_fan
from torlog.laurent import (
    LaurentMatrix,
    LaurentPoly,
    NotAUnitError,
    SingularMatrixError,
    VField,
    bracket,
    chart_member,
    conjugations,
    constant_product,
    delta_apply,
    delta_products,
    in_chart,
    matrix_chart_member,
    matrix_delta,
    matrix_det,
    matrix_inverse_unit,
    vanishing,
)
from torlog.splitting import equivariance_verdict

X = LaurentPoly.monomial


def quadrant_fan():
    fan, _ = build_fan([(1, 0), (0, 1)], [(), (0,), (1,), (0, 1)])
    return fan


exponents2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys2 = st.dictionaries(exponents2, st.integers(-5, 5), max_size=4).map(LaurentPoly)
vectors2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


class TestPolyAlgebra:
    def test_zero_terms_are_dropped(self):
        p = LaurentPoly({(1, 0): 2, (0, 1): 0})
        assert p.support() == [(1, 0)]
        assert (p - p).is_zero()

    def test_mul_collects_terms(self):
        p = X((1, 0)) + X((0, 1))
        q = X((1, 0)) - X((0, 1))
        assert p * q == X((2, 0)) - X((0, 2))

    def test_shift_and_scale(self):
        p = X((1, 0), 3)
        assert p.shift((0, 2)) == X((1, 2), 3)
        assert p.scale(Fraction(1, 3)) == X((1, 0))

    def test_const_and_coeff(self):
        c = LaurentPoly.const(7, 2)
        assert c.coeff((0, 0)) == 7
        assert c.coeff((1, 0)) == 0
        assert type(c.coeff((1, 0))) is int

    def test_coefficients_are_int_when_integral(self):
        half = Fraction(1, 2)
        p = LaurentPoly({(1, 0): Fraction(4, 2), (0, 1): half})
        assert type(p.coeff((1, 0))) is int and p.coeff((0, 1)) == half
        assert type(X((1, 0), Fraction(3, 3)).coeff((1, 0))) is int
        assert type(LaurentPoly.const(Fraction(-6, 3), 2).coeff((0, 0))) is int
        assert type(p.scale(2).coeff((0, 1))) is int
        assert type((p + X((0, 1), half)).coeff((0, 1))) is int
        assert type(delta_apply((0, 2), p).coeff((0, 1))) is int
        assert type((p * X((0, 0), 2)).coeff((0, 1))) is int

    @pytest.mark.parametrize("make", [
        lambda: LaurentPoly({(0, 0): 0.5}),
        lambda: X((1, 0), 0.1),
        lambda: LaurentPoly.const(1.0, 2),
        lambda: X((1, 0)).scale(0.5),
    ])
    def test_float_coefficients_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: LaurentPoly({(1,): "3/6"}),
        lambda: LaurentPoly.const(" 2 ", 1),
        lambda: X((1, 0)).scale("1/2"),
        lambda: LaurentPoly({(0, 0): Decimal("0.5")}),
    ])
    def test_str_and_decimal_coefficients_rejected(self, make):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: LaurentPoly({(0.5, 1): 3}),
        lambda: LaurentPoly({(1.0, 1): 3}),
        lambda: LaurentPoly({(1, 0): 1, (1, "2"): 3}),
        lambda: LaurentPoly({(Fraction(1), 0): 3}),
        lambda: LaurentPoly({(0.5, 1): 0}),
        lambda: X((0.5, 1)),
        lambda: X((1, 0)).shift((0.5, 0)),
        lambda: LaurentPoly().shift(("1",)),
    ])
    def test_exponent_entries_that_are_not_ints_rejected(self, make):
        # refused where the polynomial is made, not later as a coefficient error
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make()

    def test_exponent_entries_are_stored_as_ints(self):
        p = LaurentPoly({(True, 0): 3, (0, 2): 1})
        assert p == LaurentPoly({(1, 0): 3, (0, 2): 1})
        assert all(type(x) is int for e in p.terms for x in e)
        q = X((1, 2)).shift((False, True))
        assert q == X((1, 3)) and all(type(x) is int for e in q.terms for x in e)

    def test_mixed_exponent_lengths_raise(self):
        with pytest.raises(DimensionError):
            LaurentPoly({(1,): 1, (1, 2): 1})
        p, q = X((1,)), X((0, 0))
        for op in (lambda: p * q, lambda: q * p, lambda: p + q, lambda: q - p):
            with pytest.raises(DimensionError):
                op()
        zero = LaurentPoly()  # the zero polynomial has no number of variables
        assert p + zero == zero + p == p and (q * zero).is_zero() and (zero * q).is_zero()

    @given(polys2, polys2, polys2)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p + (q + r) == (p + q) + r


class TestReprsHashAndForeignTypes:
    """The reprs, hashing and == against another type of the three algebra types."""

    F = LaurentPoly({(1, -1): Fraction(1, 2), (0, 2): -3})

    def test_reprs_zero_included(self):
        f, zero = self.F, LaurentPoly()
        assert repr(zero) == "0" and repr(VField()) == "VField(0)"
        assert repr(f) == "-3*x^[0, 2] + 1/2*x^[1, -1]"
        assert repr(VField([(f, (1, 0))])) == "(-3*x^[0, 2] + 1/2*x^[1, -1]) (x) [1, 0]"
        assert repr(LaurentMatrix([[f, zero], [zero, LaurentPoly.const(1, 2)]])) == (
            "LaurentMatrix([-3*x^[0, 2] + 1/2*x^[1, -1], 0; 0, 1*x^[0, 0]])")

    def test_hash_agrees_with_equality(self):
        g = LaurentPoly({(0, 2): Fraction(-6, 2), (1, -1): Fraction(1, 2)})  # another order
        assert g == self.F and hash(g) == hash(self.F)
        assert len({self.F, g, LaurentPoly(), LaurentPoly({(0, 0): 0})}) == 2

    def test_vfield_difference(self):
        a = VField([(self.F, (1, 0)), (X((0, 1)), (0, 1))])
        b = VField([(X((0, 1)), (0, 1))])
        assert a - b == VField([(self.F, (1, 0))])
        assert (a - a).is_zero()

    def test_equality_with_another_type_is_false(self):
        for x in (self.F, VField(), LaurentMatrix.identity(2, 2)):
            assert x.__eq__("x") is NotImplemented
            assert x != "x" and not x == 0


class TestChartMembership:
    def test_first_quadrant(self):
        fan = quadrant_fan()
        sigma = fan.cones[3]
        assert chart_member(X((1, 0)), sigma, fan)
        assert not chart_member(X((-1, 0)), sigma, fan)

    def test_half_plane(self):
        fan = quadrant_fan()
        sigma = fan.cones[1]  # cone of e1 alone
        p = LaurentPoly.const(3, 2) + X((0, 5), 2)
        assert chart_member(p, sigma, fan)
        assert chart_member(X((2, -9)), sigma, fan)
        assert not chart_member(X((-1, 4)), sigma, fan)

    def test_zero_cone_accepts_everything(self):
        fan = quadrant_fan()
        assert chart_member(X((-5, -7)), fan.cones[0], fan)


class TestDelta:
    def test_scales_by_pairing(self):
        assert delta_apply((1, 0), X((2, 3))) == X((2, 3), 2)

    def test_kills_constants(self):
        assert delta_apply((1, 0), LaurentPoly.const(7, 2)).is_zero()

    def test_diagonal_direction(self):
        p = X((1, 0)) + X((0, 1))
        assert delta_apply((1, 1), p) == p

    @given(vectors2, polys2, polys2)
    def test_leibniz(self, v, f, g):
        lhs = delta_apply(v, f * g)
        rhs = delta_apply(v, f) * g + f * delta_apply(v, g)
        assert lhs == rhs

    @given(vectors2, polys2)
    def test_linearity_in_direction(self, v, f):
        v2 = (v[1], -v[0])
        s = (v[0] + v2[0], v[1] + v2[1])
        assert delta_apply(s, f) == delta_apply(v, f) + delta_apply(v2, f)

    @given(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(-3, 3)),
        st.integers(-5, 5), max_size=4).map(LaurentPoly), vectors2)
    def test_preserves_chart(self, f, v):
        # exponents pair >= 0 with e1, and delta never enlarges the support
        fan = quadrant_fan()
        sigma = fan.cones[1]
        assert chart_member(f, sigma, fan)
        assert chart_member(delta_apply(v, f), sigma, fan)


vfields2 = st.lists(st.tuples(polys2, vectors2), max_size=2).map(VField)


class TestBracket:
    def test_crossed_monomials(self):
        a = VField([(X((0, 1)), (1, 0))])
        b = VField([(X((1, 0)), (0, 1))])
        expected = VField([(X((1, 1)), (0, 1)), (-X((1, 1)), (1, 0))])
        assert bracket(a, b) == expected

    def test_constant_fields_commute(self):
        a = VField([(LaurentPoly.const(1, 2), (1, 0))])
        b = VField([(LaurentPoly.const(1, 2), (0, 1))])
        assert bracket(a, b).is_zero()

    def test_normalization_merges_summands(self):
        a = VField([(X((1, 0)), (0, 1)), (X((0, 1)), (0, 1))])
        assert len(a.summands) == 1

    @given(vfields2, vfields2)
    def test_antisymmetric(self, a, b):
        assert bracket(a, b) == -bracket(b, a)

    @settings(max_examples=40)
    @given(vfields2, vfields2, vfields2)
    def test_jacobi(self, a, b, c):
        total = (
            bracket(bracket(a, b), c)
            + bracket(bracket(b, c), a)
            + bracket(bracket(c, a), b)
        )
        assert total.is_zero()


def random_poly(rng, dim=2, span=2, nterms=3):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        exp = tuple(rng.randint(-span, span) for _ in range(dim))
        terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
    return LaurentPoly(terms)


def random_unit_matrix(rng, r=2, dim=2):
    """Product of a diagonal monomial matrix and unitriangular dressings."""
    diag = LaurentMatrix.diagonal(
        [X(tuple(rng.randint(-2, 2) for _ in range(dim))) for _ in range(r)]
    )
    m = diag
    for upper in (True, False):
        rows = [[LaurentPoly.const(1, dim) if i == j else LaurentPoly()
                 for j in range(r)] for i in range(r)]
        for i in range(r):
            for j in range(r):
                if (j > i) == upper and i != j and rng.random() < 0.8:
                    rows[i][j] = random_poly(rng, dim)
        m = m * LaurentMatrix(rows)
    return m


class TestMatrixCalculus:
    def test_delta_on_monomial_matrix(self):
        d = 3
        C = LaurentMatrix([[X((-d,))]])
        assert matrix_delta((1,), C) == LaurentMatrix([[X((-d,), -d)]])

    def test_delta_kills_constant_matrix(self):
        C = LaurentMatrix.identity(3, 2)
        assert matrix_delta((1, 1), C).is_zero()

    def test_unitriangular_inverse(self):
        one = LaurentPoly.const(1, 2)
        x = X((1, 0))
        C = LaurentMatrix([[one, x], [LaurentPoly(), one]])
        Cinv = matrix_inverse_unit(C)
        assert Cinv == LaurentMatrix([[one, -x], [LaurentPoly(), one]])

    def test_monomial_inverse(self):
        d = 4
        C = LaurentMatrix([[X((-d,))]])
        assert matrix_inverse_unit(C) == LaurentMatrix([[X((d,))]])

    def test_det_two_terms_is_not_a_unit(self):
        p = LaurentPoly.const(1, 1) + X((1,))
        with pytest.raises(NotAUnitError):
            matrix_inverse_unit(LaurentMatrix([[p]]))

    def test_singular(self):
        one = LaurentPoly.const(1, 2)
        with pytest.raises(SingularMatrixError):
            matrix_inverse_unit(LaurentMatrix([[one, one], [one, one]]))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            LaurentMatrix.identity(2, 2) * LaurentMatrix.identity(3, 2)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            LaurentMatrix([[LaurentPoly(), LaurentPoly()]])

    def test_inverse_roundtrips(self):
        rng = random.Random(7)
        for _ in range(40):
            r = rng.choice([1, 2, 3])
            C = random_unit_matrix(rng, r)
            I = LaurentMatrix.identity(r, 2)
            Cinv = matrix_inverse_unit(C)
            assert C * Cinv == I
            assert Cinv * C == I
            assert matrix_inverse_unit(Cinv) == C

    def test_matrix_leibniz(self):
        rng = random.Random(21)
        for _ in range(40):
            r = rng.choice([1, 2, 3])
            A = LaurentMatrix([[random_poly(rng) for _ in range(r)] for _ in range(r)])
            B = LaurentMatrix([[random_poly(rng) for _ in range(r)] for _ in range(r)])
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            lhs = matrix_delta(v, A * B)
            rhs = matrix_delta(v, A) * B + A * matrix_delta(v, B)
            assert lhs == rhs

    def test_det_multiplicative(self):
        rng = random.Random(33)
        for _ in range(25):
            A = LaurentMatrix([[random_poly(rng) for _ in range(2)] for _ in range(2)])
            B = LaurentMatrix([[random_poly(rng) for _ in range(2)] for _ in range(2)])
            assert matrix_det(A * B) == matrix_det(A) * matrix_det(B)

    def test_matrix_chart_member(self):
        fan = projective_fan(2)
        sigma = fan.cones[fan.cone_index((0, 1))]
        good = LaurentMatrix.diagonal([X((1, 0)), X((0, 2))])
        bad = LaurentMatrix.diagonal([X((1, 0)), X((0, -1))])
        assert matrix_chart_member(good, sigma, fan)
        assert not matrix_chart_member(bad, sigma, fan)


def reference_product(A: LaurentMatrix, B: LaurentMatrix) -> LaurentMatrix:
    """Entrywise sum of polynomial products, one temporary sum per term of k."""
    r = A.size
    out = []
    for p in range(r):
        row = []
        for q in range(r):
            acc = LaurentPoly()
            for k in range(r):
                acc = acc + A.entries[p][k] * B.entries[k][q]
            row.append(acc)
        out.append(row)
    return LaurentMatrix(out)


def canonical(M: LaurentMatrix) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for row in M.entries for f in row for c in f.terms.values())


class TestFusedProduct:
    """The matrix product builds each entry as one term map over all k."""

    COEFFS = [-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3)]

    def draw(self, rng, r):
        # exponents from a 3x3 box and few coefficient values, so products
        # collide and cancel often; about a third of the entries are zero
        def entry():
            if rng.random() < 0.35:
                return LaurentPoly()
            return LaurentPoly({(rng.randint(-1, 1), rng.randint(-1, 1)): rng.choice(self.COEFFS)
                                for _ in range(rng.randint(1, 3))})
        return LaurentMatrix([[entry() for _ in range(r)] for _ in range(r)])

    def test_matches_reference_on_random_draws(self):
        rng = random.Random(404)
        cancelled = 0
        for _ in range(150):
            r = rng.choice([1, 2, 3])
            A, B = self.draw(rng, r), self.draw(rng, r)
            fused = A * B
            assert fused == reference_product(A, B)
            assert canonical(fused)
            cancelled += sum(
                len((A.entries[p][k] * B.entries[k][q]).terms)
                > len(fused.entries[p][q].terms)
                for p in range(r) for q in range(r) for k in range(r))
        assert cancelled > 0

    def test_full_cancellation_leaves_an_empty_entry(self):
        f, g = X((1, 0), Fraction(1, 2)) + X((0, -1), 3), X((2, 1), -2)
        zero = LaurentPoly()
        A = LaurentMatrix([[f, f], [g, zero]])
        B = LaurentMatrix([[g, zero], [-g, zero]])
        fused = A * B
        assert fused == reference_product(A, B)
        assert fused.entries[0][0].terms == {}
        assert fused.entries[1][0] == g * g

    def test_cancelled_and_unreached_entries_share_the_empty_polynomial(self):
        f, g = X((1, 0), Fraction(1, 2)) + X((0, -1), 3), X((2, 1), -2)
        zero = LaurentPoly()
        A = LaurentMatrix([[f, f], [g, zero]])
        B = LaurentMatrix([[g, zero], [-g, zero]])  # entry (0, 0) cancels, column 1 is unreached
        fused = A * B
        assert [[a is laurent._ZERO for a in row] for row in fused.entries] == [[True, True],
                                                                                 [False, True]]

    def test_integral_fraction_products_are_ints(self):
        half = LaurentMatrix([[X((0, 0), Fraction(1, 2))]])
        two = LaurentMatrix([[X((1, 0), 2)]])
        (prod,), = (half * two).entries
        assert prod == X((1, 0)) and type(prod.coeff((1, 0))) is int


def draw_matrix(rng, r, dim, coeffs, zero_rate=0.35):
    """Entries with exponents in a small box (so many have zero components),
    coefficients from ``coeffs`` and about ``zero_rate`` of them zero."""
    def entry():
        if rng.random() < zero_rate:
            return LaurentPoly()
        return LaurentPoly({tuple(rng.randint(-1, 1) for _ in range(dim)): rng.choice(coeffs)
                            for _ in range(rng.randint(1, 3))})
    return LaurentMatrix([[entry() for _ in range(r)] for _ in range(r)])


def basis(dim):
    return [tuple(int(i == b) for i in range(dim)) for b in range(dim)]


class TestFusedKernels:
    """delta_products against the compositions it replaces."""

    COEFFS = TestFusedProduct.COEFFS

    def test_delta_products_match_composition(self):
        rng = random.Random(505)
        skipped = 0
        for _ in range(150):
            r, dim = rng.choice([1, 2, 3]), rng.choice([1, 2, 3, 4])  # dim 4: vec_add fallback
            C, D = draw_matrix(rng, r, dim, self.COEFFS), draw_matrix(rng, r, dim, self.COEFFS)
            left = delta_products(C, D, dim, left=True)
            right = delta_products(C, D, dim, left=False)
            assert left == tuple(matrix_delta(e, C) * D for e in basis(dim))
            assert right == tuple(C * matrix_delta(e, D) for e in basis(dim))
            assert all(canonical(M) for M in left + right)
            skipped += sum(e[b] == 0 for row in C.entries for f in row
                           for e in f.terms for b in range(dim))
        assert skipped > 0  # exponents with zero components were drawn

    def test_all_zero_products_still_give_dim_matrices(self):
        one = LaurentPoly.const(1, 3)
        constant = LaurentMatrix([[one, X((0, 0, 0), Fraction(1, 2))], [LaurentPoly(), one]])
        monomial = LaurentMatrix.diagonal([X((1, -1, 2)), X((0, 1, 0), 3)])
        zero = LaurentMatrix.zero(2)
        for C, D, left in [(constant, monomial, True), (monomial, constant, False),
                           (zero, monomial, True), (monomial, zero, False)]:
            out = delta_products(C, D, 3, left=left)
            assert len(out) == 3
            assert all(M.size == 2 and M.is_zero() for M in out)

    def test_delta_products_size_mismatch(self):
        with pytest.raises(DimensionError):
            delta_products(LaurentMatrix.identity(2, 2), LaurentMatrix.identity(3, 2), 2, left=True)

    def test_square_constructors_keep_their_results(self):
        rng = random.Random(707)
        A, B = draw_matrix(rng, 3, 2, self.COEFFS), draw_matrix(rng, 3, 2, self.COEFFS)
        for M in (A + B, A - B, -A, A.scale(Fraction(2, 3)), LaurentMatrix.identity(3, 2),
                  LaurentMatrix.zero(3), LaurentMatrix.diagonal([X((1, 0)), X((0, 1)), X((1, 1))])):
            assert M.size == 3 and len(M.entries) == 3
            assert all(type(row) is tuple and len(row) == 3 for row in M.entries)
            assert M == LaurentMatrix(M.entries)
        assert (A - B) + B == A and -(-A) == A


class TestConjugations:
    """conjugations against two products and a sum, C * X * D + Z."""

    COEFFS = TestFusedProduct.COEFFS

    def test_matches_products_then_a_sum(self):
        rng = random.Random(808)
        cancelled = 0
        for _ in range(120):
            r, k = rng.choice([1, 2, 3]), rng.randint(1, 4)
            C, D = draw_matrix(rng, r, 2, self.COEFFS), draw_matrix(rng, r, 2, self.COEFFS)
            Xs = [draw_matrix(rng, r, 2, self.COEFFS) for _ in range(k)]
            Zs = [draw_matrix(rng, r, 2, self.COEFFS) for _ in range(k)]
            got = conjugations(C, Xs, D, Zs)
            assert got == tuple(C * X * D + Z for X, Z in zip(Xs, Zs))
            assert all(canonical(M) for M in got)
            assert conjugations(C, Xs, D) == tuple(C * X * D for X in Xs)
            for M in Xs:
                middle = [laurent._row_product({}, row, laurent._sparse_rows(M))
                          for row in laurent._sparse_rows(C)]
                cancelled += sum(0 in acc.values() for accs in middle for acc in accs.values())
        assert cancelled > 0  # middle products with cancelled terms were drawn

    def test_cancelled_middle_product_leaves_the_addend(self):
        f, g = X((1, 0), Fraction(1, 2)) + X((0, -1), 3), X((2, 1), -2)
        zero = LaurentPoly()
        C = LaurentMatrix([[f, f], [zero, zero]])
        M = LaurentMatrix([[g, g], [-g, -g]])  # C * M is zero
        D = LaurentMatrix([[f, g], [g, f]])
        Z = LaurentMatrix([[zero, f], [g, zero]])
        assert (C * M).is_zero()
        assert conjugations(C, [M], D, [Z]) == (Z,)
        assert conjugations(C, [M], D)[0].is_zero()

    def test_cancelling_addend_leaves_the_shared_empty_entry(self):
        rng = random.Random(809)
        C, M, D = (draw_matrix(rng, 3, 2, self.COEFFS) for _ in range(3))
        Z = -(C * M * D)
        (got,) = conjugations(C, [M], D, [Z])
        assert got.is_zero()
        assert all(a is laurent._ZERO for row in got.entries for a in row)

    def test_empty_batch(self):
        I = LaurentMatrix.identity(2, 2)
        assert conjugations(I, [], I) == ()
        assert conjugations(I, (), I, ()) == ()

    def test_mismatches_raise(self):
        two, three = LaurentMatrix.identity(2, 2), LaurentMatrix.identity(3, 2)
        with pytest.raises(ValueError):
            conjugations(two, [two, two], two, [two])
        with pytest.raises(ValueError):
            conjugations(two, [], two, [two])
        for C, Xs, D, Zs in [(two, [two], three, None), (two, [three], two, None),
                             (three, [two], two, None), (two, [two, two], two, [two, three])]:
            with pytest.raises(DimensionError):
                conjugations(C, Xs, D, Zs)


def reference_det(C: LaurentMatrix) -> LaurentPoly:
    """Cofactor expansion along the first row over validated LaurentMatrix minors."""
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
        term = a * reference_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class TestDeterminantOnTermMaps:
    """matrix_det and matrix_inverse_unit expand over raw term maps."""

    COEFFS = TestFusedProduct.COEFFS

    def test_matches_reference_at_ranks_one_to_four(self):
        rng = random.Random(910)
        zeros = 0
        for _ in range(80):
            r = rng.choice([1, 2, 3, 4])
            M = draw_matrix(rng, r, 2, self.COEFFS, zero_rate=0.3)
            det = matrix_det(M)
            assert det == reference_det(M)
            assert canonical(LaurentMatrix([[det]]))
            zeros += sum(f.is_zero() for row in M.entries for f in row)
        assert zeros > 0

    def test_inverse_roundtrips_with_fraction_coefficients(self):
        rng = random.Random(911)
        for _ in range(40):
            r = rng.choice([1, 2, 3, 4])
            diag = LaurentMatrix.diagonal(
                [X((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(self.COEFFS))
                 for _ in range(r)])
            upper = [[LaurentPoly.const(1, 2) if i == j else LaurentPoly() for j in range(r)]
                     for i in range(r)]
            for i in range(r):
                for j in range(i + 1, r):
                    upper[i][j] = draw_matrix(rng, 1, 2, self.COEFFS).entries[0][0]
            C = diag * LaurentMatrix(upper)
            I = LaurentMatrix.identity(r, 2)
            inv = matrix_inverse_unit(C)
            assert C * inv == I and inv * C == I
            assert matrix_inverse_unit(inv) == C
            assert canonical(inv)


def reference_inverse(C: LaurentMatrix) -> LaurentMatrix:
    """Cofactors times the unit's inverse, by LaurentPoly arithmetic over Fraction."""
    r = C.size
    ((exp, c),) = reference_det(C).terms.items()
    unit = X(tuple(-x for x in exp), Fraction(1) / c)
    cof = [[(reference_det(LaurentMatrix([row[:i] + row[i + 1:] for p, row in enumerate(C.entries)
                                          if p != j])) if r > 1 else LaurentPoly.const(1, 2))
             * unit * LaurentPoly.const((-1) ** (i + j), 2) for j in range(r)] for i in range(r)]
    return LaurentMatrix(cof)


class TestScaledCofactors:
    """matrix_inverse_unit scales each cofactor by the unit's inverse directly."""

    COEFFS = TestFusedProduct.COEFFS

    def test_matches_the_reference_inverse(self):
        rng = random.Random(912)
        units = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
        for _ in range(60):
            r = rng.choice([1, 2, 3, 4])
            upper = draw_matrix(rng, r, 2, self.COEFFS).entries
            unitriangular = LaurentMatrix([[LaurentPoly.const(1, 2) if i == j else
                                            upper[i][j] if i < j else LaurentPoly()
                                            for j in range(r)] for i in range(r)])
            diag = LaurentMatrix.diagonal(
                [X((rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice(units)) for _ in range(r)])
            C = unitriangular * diag if rng.random() < 0.5 else diag * unitriangular
            inv = matrix_inverse_unit(C)
            assert inv == reference_inverse(C)
            assert canonical(inv)

    def test_plus_minus_one_stays_int(self):
        one, x = LaurentPoly.const(1, 2), X((1, 0), 2)
        C = LaurentMatrix([[X((0, 1), -1), x], [LaurentPoly(), one]])
        inv = matrix_inverse_unit(C)
        assert inv == LaurentMatrix([[X((0, -1), -1), X((1, -1), 2)], [LaurentPoly(), one]])
        assert all(type(c) is int for row in inv.entries for f in row for c in f.terms.values())


class TestShiftColumns:
    def test_equals_the_product_with_a_diagonal(self):
        rng = random.Random(913)
        for _ in range(40):
            r = rng.choice([1, 2, 3])
            M = draw_matrix(rng, r, 2, TestFusedProduct.COEFFS)
            shifts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(r)]
            assert M.shift_columns(shifts) == M * LaurentMatrix.diagonal([X(e) for e in shifts])

    def test_one_shift_per_column(self):
        with pytest.raises(DimensionError):
            LaurentMatrix.identity(2, 2).shift_columns([(0, 0)])

    def test_a_shift_of_another_length_raises(self):
        p = X((1, 2), 3)
        for exponent in [(1,), (1, 0, 0), ()]:
            with pytest.raises(DimensionError):
                p.shift(exponent)
        with pytest.raises(DimensionError):
            LaurentMatrix.diagonal([X((1,), 3)]).shift_columns([(5, 0)])
        with pytest.raises(DimensionError):
            LaurentMatrix.diagonal([X((1, 2), 3)]).shift_columns([(5,)])
        assert LaurentPoly().shift((1, 2, 3)) == LaurentPoly()


def perturbed(M: LaurentMatrix, dim: int, rng) -> LaurentMatrix:
    """M with one coefficient of one entry changed (a new term if the entry is zero)."""
    r = M.size
    p, q = rng.randrange(r), rng.randrange(r)
    terms = dict(M.entries[p][q].terms)
    e = rng.choice(sorted(terms)) if terms else (0,) * dim
    terms[e] = terms.get(e, 0) + rng.choice([1, -1, Fraction(1, 3)])
    rows = [list(row) for row in M.entries]
    rows[p][q] = LaurentPoly(terms)
    return LaurentMatrix(rows)


class TestVanishing:
    """The zero-test tail against building the result and comparing it."""

    COEFFS = TestFusedProduct.COEFFS

    def test_parity_with_conjugations_and_sums(self):
        rng = random.Random(1212)
        outcomes = set()
        for _ in range(150):
            dim, r, k = rng.choice([1, 2, 3]), rng.choice([1, 2, 3]), rng.randint(1, 4)
            C, D = (draw_matrix(rng, r, dim, self.COEFFS) for _ in range(2))
            Xs, Zs = ([draw_matrix(rng, r, dim, self.COEFFS) for _ in range(k)] for _ in range(2))
            built = conjugations(C, Xs, D, Zs)
            # about half the targets are the result itself, the rest a random draw
            Ws = [M if rng.random() < 0.5 else draw_matrix(rng, r, dim, self.COEFFS)
                  for M in built]
            got = vanishing(C, Xs, D, [Zs], [Ws])
            assert got == tuple(M == W for M, W in zip(built, Ws))
            assert vanishing(C, Xs, D, minus=[Ws]) == tuple(
                M == W for M, W in zip(conjugations(C, Xs, D), Ws))
            products = [C * X + Z for X, Z in zip(Xs, Zs)]
            assert vanishing(C, Xs, plus=[Zs], minus=[Ws]) == tuple(
                M == W for M, W in zip(products, Ws))
            assert vanishing(C, Xs, plus=[Zs], minus=[products]) == (True,) * k
            outcomes.update(got)
        assert outcomes == {True, False}

    def test_parity_on_transitions_and_cocycles(self):
        rng = random.Random(1213)
        for n in (1, 2, 3):
            fan = projective_fan(n)
            for rank in (1, 2, 3):
                td = dressed_transitions(random_equivariant_data(fan, rank, rng),
                                         random_dressing(fan, rank, rng, factors=1))
                A = atiyah_cocycle(td)
                one = LaurentMatrix.identity(rank, n)
                for (s, t), mats in sorted(A.pairs.items()):
                    C, D = td.pair(s, t), td.pair(t, s)
                    assert vanishing(C, [D], minus=[[one]]) == (True,)
                    assert vanishing(D, mats, C, plus=[A.pairs[(t, s)]]) == (True,) * n
                    Ws = [perturbed(M, n, rng) if rng.random() < 0.5 else M for M in mats]
                    assert vanishing(C, mats, D, minus=[Ws]) == tuple(
                        M == W for M, W in zip(conjugations(C, mats, D), Ws))

    def test_one_coefficient_flips_exactly_its_element(self):
        rng = random.Random(1214)
        for _ in range(60):
            dim, r, k = rng.choice([1, 2, 3]), rng.choice([1, 2, 3]), rng.randint(1, 4)
            C, D = (draw_matrix(rng, r, dim, self.COEFFS, zero_rate=0.2) for _ in range(2))
            Xs, Zs = ([draw_matrix(rng, r, dim, self.COEFFS) for _ in range(k)] for _ in range(2))
            Ws = list(conjugations(C, Xs, D, Zs))
            assert vanishing(C, Xs, D, [Zs], [Ws]) == (True,) * k
            b = rng.randrange(k)
            Ws[b] = perturbed(Ws[b], dim, rng)
            assert vanishing(C, Xs, D, [Zs], [Ws]) == tuple(i != b for i in range(k))

    def test_several_batches_add_and_subtract(self):
        rng = random.Random(1215)
        for _ in range(40):
            r, k = rng.choice([1, 2, 3]), rng.randint(1, 3)
            C, D = (draw_matrix(rng, r, 2, self.COEFFS) for _ in range(2))
            Xs, Z1, Z2, W1 = ([draw_matrix(rng, r, 2, self.COEFFS) for _ in range(k)]
                              for _ in range(4))
            W2 = [M - W for M, W in zip(conjugations(C, Xs, D, [a + b for a, b in zip(Z1, Z2)]),
                                         W1)]
            assert vanishing(C, Xs, D, [Z1, Z2], [W1, W2]) == (True,) * k
            assert vanishing(C, Xs, D, [Z1], [W1, W2]) == tuple(Z.is_zero() for Z in Z2)

    def test_fraction_coefficients_that_sum_to_an_int(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        C = LaurentMatrix([[X((1,), half), X((0,), half)], [LaurentPoly(), X((0,), 3)]])
        M = LaurentMatrix([[X((-1,), 1), LaurentPoly()], [X((0,), 1), X((2,), third)]])
        one = LaurentMatrix.identity(2, 1)
        target = C * M
        assert target.entries[0][0] == X((0,), 1) and type(target.entries[0][0].coeff((0,))) is int
        assert vanishing(C, [M], minus=[[target]]) == (True,)
        assert vanishing(C, [M], one, plus=[[-target]]) == (True,)
        assert vanishing(C, [M], minus=[[target.scale(Fraction(2, 2) + third)]]) == (False,)

    def test_empty_batch(self):
        I = LaurentMatrix.identity(2, 2)
        assert vanishing(I, [], I) == ()
        assert vanishing(I, (), I, [()], [[]]) == ()
        assert vanishing(I, []) == ()

    def test_mismatches_raise_as_conjugations_does(self):
        two, three = LaurentMatrix.identity(2, 2), LaurentMatrix.identity(3, 2)
        for plus, minus in [([[two]], ()), ((), [[two]]), ([[two, two]], [[two]]), ([[]], ())]:
            with pytest.raises(ValueError):
                vanishing(two, [two, two], two, plus, minus)
        with pytest.raises(ValueError):
            vanishing(two, [], two, minus=[[two]])
        for C, Xs, D, Zs, Ws in [(two, [two], three, [two], [two]),
                                 (two, [three], two, [two], [two]),
                                 (three, [two], two, [three], [three]),
                                 (two, [two, two], two, [two, three], [two, two]),
                                 (two, [two, two], two, [two, two], [two, three]),
                                 (two, [three], None, [two], [two])]:
            with pytest.raises(DimensionError):
                vanishing(C, Xs, D, [Zs], [Ws])
            if D is not None and all(W.size == C.size for W in Ws):
                with pytest.raises(DimensionError):
                    conjugations(C, Xs, D, Zs)

    def test_stops_an_element_at_its_first_nonzero_row(self, monkeypatch):
        rng = random.Random(1216)
        C, M, D = (draw_matrix(rng, 3, 2, self.COEFFS, zero_rate=0) for _ in range(3))
        good = conjugations(C, [M], D)[0]
        rows = [list(row) for row in good.entries]
        rows[0][0] = rows[0][0] + X((5, 5))
        calls = []
        real = laurent._product_row
        monkeypatch.setattr(laurent, "_product_row", lambda *a: calls.append(1) or real(*a))
        assert vanishing(C, [M, M], D, minus=[[LaurentMatrix(rows), good]]) == (False, True)
        assert len(calls) == 1 + 3  # one row of the first element, every row of the second


class TestConstantProduct:
    """The constant tail against building both delta products and comparing them."""

    COEFFS = TestFusedProduct.COEFFS

    def test_parity_with_the_built_pipelines(self):
        rng = random.Random(1401)
        outcomes = set()
        for _ in range(300):
            dim, r = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
            C, D = (draw_matrix(rng, r, dim, self.COEFFS) for _ in range(2))
            got = constant_product(C, D)
            assert got == all(L == -R for L, R in zip(delta_products(C, D, dim, left=True),
                                                     delta_products(C, D, dim, left=False)))
            assert got == all(not any(e) for row in (C * D).entries for f in row for e in f.terms)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_inverse_pairs_and_their_multiples_pass(self):
        rng = random.Random(1402)
        for dim in (1, 2, 3):
            for r in (1, 2, 3):
                U = random_unit_matrix(rng, r, dim)
                V = matrix_inverse_unit(U)
                for C, D in [(U, V), (U, V.scale(Fraction(-1, 2))), (U.scale(3), V)]:
                    assert constant_product(C, D)

    def test_cancelled_terms_off_exponent_zero_pass(self):
        x, one = X((1,)), LaurentPoly.const(1, 1)
        C = LaurentMatrix([[one, x], [LaurentPoly(), one]])
        D = LaurentMatrix([[one, -x], [LaurentPoly(), one]])  # entry (0, 1): x - x
        assert C * D == LaurentMatrix.identity(2, 1)
        assert constant_product(C, D)
        assert not constant_product(C, C)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            constant_product(LaurentMatrix.identity(2, 2), LaurentMatrix.identity(3, 2))


class TestPerTermCosts:
    """The canonical-form fast path and the exponent adder of the kernels."""

    def test_canonical_fast_path(self):
        ints = {(0, 1): 2, (1, 0): -3}
        assert laurent._canonical(ints) is ints
        mixed = {(0,): 0, (1,): Fraction(8, 2), (2,): Fraction(1, 2), (3,): 5, (4,): Fraction(0)}
        out = laurent._canonical(mixed)
        assert out == {(1,): 4, (2,): Fraction(1, 2), (3,): 5}
        assert type(out[(1,)]) is int and type(out[(3,)]) is int
        assert laurent._canonical({(0,): 0, (1,): 7}) == {(1,): 7}
        assert laurent._canonical({}) == {}

    def test_kernels_pick_the_adder_of_their_dimension(self):
        rng = random.Random(1217)
        for dim in (1, 2, 3, 4):
            A, B = (draw_matrix(rng, 2, dim, TestFusedProduct.COEFFS, zero_rate=0.2)
                    for _ in range(2))
            assert A * B == reference_product(A, B)
            assert matrix_det(A) == reference_det(A)
            for b, M in enumerate(delta_products(A, B, dim, left=True)):
                assert M == matrix_delta(basis(dim)[b], A) * B

    def test_no_kernel_mutates_its_inputs(self):
        rng = random.Random(1218)
        one, f = LaurentPoly.const(1, 2), X((1, -1), 2) + X((0, 2), Fraction(1, 2))
        U = LaurentMatrix([[one, f], [LaurentPoly(), one]])  # its 1x1 minors are its own entries
        C, M, D, Z, W = (draw_matrix(rng, 2, 2, TestFusedProduct.COEFFS) for _ in range(5))
        inputs = [U, C, M, D, Z, W]
        before = copy.deepcopy([[[dict(g.terms) for g in row] for row in A.entries] for A in inputs])
        inv = matrix_inverse_unit(U)
        assert inv.entries[0][0].terms is U.entries[1][1].terms  # handed through, not copied
        matrix_det(U)
        vanishing(C, [M, U], D, [[Z, W]], [[W, Z]])
        vanishing(U, [inv, M], minus=[[LaurentMatrix.identity(2, 2), W]])
        constant_product(C, U)
        results = [inv, C * M, C * M + Z, *conjugations(C, [M, U], D, [Z, W]),
                   *delta_products(C, U, 2, left=True), *delta_products(U, D, 2, left=False),
                   U.shift_columns([(0, 0), (1, 0)]), U.scale(1)]
        for R in results:  # kernels on the results must not reach back into the inputs
            R * R
            vanishing(R, [U], R, [[R]], [[U]])
        f * f + f.scale(Fraction(1, 2)) + f.shift((1, 1))
        after = [[[dict(g.terms) for g in row] for row in A.entries] for A in inputs]
        assert after == before


def fresh_flat(M: LaurentMatrix) -> list:
    """The flat rows of M made afresh from its entries: (column, exponent, coefficient)."""
    return [[(q, e, c) for q, f in enumerate(row) for e, c in f.terms.items()]
            for row in M.entries]


def term_maps(mats) -> list:
    """A deep copy of every term map of the matrices, to compare before and after."""
    return copy.deepcopy([[[f.terms for f in row] for row in M.entries] for M in mats])


class TestFlatRowCache:
    """Each matrix caches its flat term rows once, and the cache always matches its entries."""

    COEFFS = TestFusedProduct.COEFFS

    def test_every_matrix_operation_caches_the_rows_of_its_entries(self):
        rng = random.Random(1301)
        for _ in range(40):
            r, dim = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
            A, B, C, Z = (draw_matrix(rng, r, dim, self.COEFFS) for _ in range(4))
            U = random_unit_matrix(rng, r, dim)
            for M in (A, B, C, Z, U):  # warm caches on the inputs: no result may inherit one
                laurent._sparse_rows(M)
            shifts = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(r)]
            results = [A + B, A - B, -A, A.scale(Fraction(2, 3)), A.scale(0),
                       A.shift_columns(shifts), A * B, A * B + Z,
                       *conjugations(A, [B, U], C), *conjugations(A, [B, U], C, [Z, A]),
                       *delta_products(A, B, dim, left=True),
                       *delta_products(A, B, dim, left=False), matrix_inverse_unit(U),
                       LaurentMatrix.identity(r, dim), LaurentMatrix.zero(r),
                       LaurentMatrix.diagonal(A.entries[0]), LaurentMatrix(A.entries)]
            for R in results:
                fresh = fresh_flat(R)
                assert R._flat is None or list(R._flat) == fresh  # nothing stale from an input
                rows = laurent._sparse_rows(R)
                assert list(rows) == fresh
                assert laurent._sparse_rows(R) is rows  # built once, then read from the cache

    def test_factors_and_seeds_are_flattened_once(self):
        rng = random.Random(1302)
        C, M, D, Z, W = (draw_matrix(rng, 3, 2, self.COEFFS) for _ in range(5))
        assert all(A._flat is None for A in (C, M, D, Z, W))
        got = vanishing(C, [M], D, [[Z]], [[W]])
        cached = [A._flat for A in (C, M, D, Z, W)]
        assert all(rows is not None for rows in cached)
        assert vanishing(C, [M], D, [[Z]], [[W]]) == got
        conjugations(C, [M], D, [Z])
        delta_products(C, D, 2, left=True)
        assert [A._flat for A in (C, M, D, Z, W)] == cached
        assert all(A._flat is rows for A, rows in zip((C, M, D, Z, W), cached))

    def test_equality_ignores_the_cache(self):
        rng = random.Random(1303)
        A = draw_matrix(rng, 3, 2, self.COEFFS)
        B = LaurentMatrix(A.entries)
        laurent._sparse_rows(A)
        assert A._flat is not None and B._flat is None
        assert A == B and B == A

    def test_seeds_never_alias_an_input_map(self):
        rng = random.Random(1304)
        Z, W = (draw_matrix(rng, 3, 2, self.COEFFS, zero_rate=0) for _ in range(2))
        inputs = {id(f.terms) for M in (Z, W) for row in M.entries for f in row}
        for signed in ([(Z, 1)], [(W, -1)], [(Z, 1), (W, -1)]):
            seeds = laurent._seeds(3, signed)
            assert all(id(acc) not in inputs for accs in seeds for acc in accs.values())

    @pytest.mark.parametrize("fan", [projective_fan(2), hirzebruch_fan(1)], ids=["P2", "F1"])
    def test_checks_and_verdict_leave_every_input_term_map_unchanged(self, fan):
        rng = random.Random(1305)
        for rank in (1, 2, 3):
            td = dressed_transitions(random_equivariant_data(fan, rank, rng),
                                     random_dressing(fan, rank, rng, factors=1))
            inputs = list(td.matrices.values())
            before = term_maps(inputs)
            # a cocycle-ladder item: what the cocycle and theorem-ab commands run
            assert all(c.ok for c in validate_transitions(td))
            A = atiyah_cocycle(td)
            cocycle = [M for mats in A.pairs.values() for M in mats]
            built = term_maps(cocycle)
            for checks in (check_frame_antisymmetry(A, td), check_triple_identity(A, td),
                           check_cocycle_pipelines(td)):
                assert checks and all(c.ok for c in checks)
            assert term_maps(inputs) == before and term_maps(cocycle) == built
            checks, result = equivariance_verdict(td)
            assert checks[-1].status == "pass" and result.found
            assert term_maps(inputs) == before and term_maps(cocycle) == built


class TestChartPredicate:
    """chart_member is the exponent predicate in_chart over every term."""

    def test_in_chart_matches_chart_member_on_monomials(self):
        fan = projective_fan(2)
        for cone in fan.cones:
            rays = fan.ray_matrix(cone)
            for e in [(a, b) for a in range(-2, 3) for b in range(-2, 3)]:
                assert in_chart(e, rays) == chart_member(X(e), cone, fan)
        assert in_chart((-7, 3), [])
        with pytest.raises(DimensionError):
            in_chart((1, 0, 0), [(1, 0)])
