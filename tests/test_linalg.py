from __future__ import annotations

from fractions import Fraction

from torlog.linalg import eliminate


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
