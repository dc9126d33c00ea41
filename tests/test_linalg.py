from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torlog.linalg import eliminate, exact, exact_div


class TestExact:
    def test_an_int_is_returned_as_itself(self):
        big = 10**40 + 1
        assert exact(big) is big and exact(-3) == -3 and type(exact(0)) is int

    def test_an_integral_fraction_becomes_an_int(self):
        two = exact(Fraction(6, 3))
        assert two == 2 and type(two) is int

    def test_a_proper_fraction_is_kept(self):
        half = Fraction(1, 2)
        assert exact(half) is half

    @pytest.mark.parametrize("c", [0.5, 2.0, float("inf")])
    def test_a_float_raises(self, c):
        with pytest.raises(TypeError, match="coefficients are exact"):
            exact(c)

    @pytest.mark.parametrize("c", ["3/6", " 2 ", "1", Decimal("0.5"), Decimal(2)],
                             ids=["str-fraction", "str-padded", "str-int", "decimal", "decimal-int"])
    def test_a_str_or_a_decimal_raises(self, c):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            exact(c)

    @given(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3).filter(bool))
    def test_exact_div_is_the_canonical_quotient(self, a, b):
        q = exact_div(a, b)
        assert q == Fraction(a, b)
        assert type(q) is (int if a % b == 0 else Fraction)


class TestEliminate:
    def test_inconsistent_system_gives_none(self):
        # x + y = 1 and 2x + 2y = 3
        assert eliminate([({0: 1, 1: 1}, [1]), ({0: 2, 1: 2}, [3])]) is None

    def test_zero_row_with_zero_rhs_is_dropped(self):
        system = [({0: 2, 1: 1}, [1, 0]), ({0: 4, 1: 2}, [2, 0]), ({1: 3}, [0, 3])]
        pivots, coeffs = eliminate(system)
        # the second row reduces to zero with a zero rhs and makes no pivot
        assert list(pivots) == [0, 1] and coeffs == [2, 3]
        assert pivots == {0: ({}, [Fraction(1, 2), Fraction(-1, 2)]), 1: ({}, [0, 1])}
        assert system[1] == ({0: 4, 1: 2}, [2, 0])  # the inputs are not modified

    def test_free_variables_stay_in_the_pivot_rows(self):
        pivots, coeffs = eliminate([({1: 2, 3: 4}, [6])])
        assert pivots == {1: ({3: 2}, [3])} and coeffs == [2]
