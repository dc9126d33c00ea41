from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torlog.fans import Cone, DimensionError, build_fan, projective_fan
from torlog.laurent import (
    LaurentMatrix,
    LaurentPoly,
    NotAUnitError,
    SingularMatrixError,
    VField,
    bracket,
    chart_member,
    delta_apply,
    matrix_chart_member,
    matrix_delta,
    matrix_det,
    matrix_inverse_unit,
)

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

    @given(polys2, polys2, polys2)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p + (q + r) == (p + q) + r


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

    def test_integral_fraction_products_are_ints(self):
        half = LaurentMatrix([[X((0, 0), Fraction(1, 2))]])
        two = LaurentMatrix([[X((1, 0), 2)]])
        (prod,), = (half * two).entries
        assert prod == X((1, 0)) and type(prod.coeff((1, 0))) is int
