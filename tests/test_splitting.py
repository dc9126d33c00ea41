from __future__ import annotations

import random
from fractions import Fraction

import pytest

from torlog import splitting as splitting_mod
from torlog.bundles import connection_form
from torlog.cocycles import (
    MatrixCocycle,
    atiyah_cocycle,
    transitions_from_one_sided,
)
from torlog.corpus import (
    diagonal_transitions,
    line_bundle_data,
    random_equivariant_data,
    random_dressing,
    dressed_transitions,
    surface_fans,
)
from torlog.fans import hirzebruch_fan, product_p1_fan, projective_fan
from torlog.laurent import LaurentMatrix, LaurentPoly
from torlog.splitting import (
    InconsistentSplittingError,
    MatrixCochain,
    connection_from_splitting,
    equivariance_verdict,
    equivariant_splitting,
    split_cocycle,
    verify_splitting,
)

X = LaurentPoly.monomial


def p1_setup(d):
    data = line_bundle_data(projective_fan(1), d)
    td = diagonal_transitions(data)
    return data, td, atiyah_cocycle(td)


def unsplittable_cocycle():
    """A frame-antisymmetric cochain on two charts that no graded cochain splits.

    With transitions diag(1, x^2) the off-diagonal slot of g on one chart
    lives in x^{>=0} and contributes x^{<=-2} after conjugation from the
    other, so nothing can produce the x^{-1} term of the target.
    """
    fan = projective_fan(1)
    one, zero = LaurentPoly.const(1, 1), LaurentPoly()
    C12 = LaurentMatrix([[one, zero], [zero, X((2,))]])
    td = transitions_from_one_sided(fan, 2, {(1, 2): C12})
    B12 = LaurentMatrix([[zero, X((-1,))], [zero, zero]])
    B21 = LaurentMatrix([[zero, -X((1,))], [zero, zero]])
    cocycle = MatrixCocycle(fan, 2, {(1, 2): (B12,), (2, 1): (B21,)})
    return cocycle, td


class TestSplitCocycle:
    def test_p1_line_bundle_splits(self):
        d = 3
        _, td, A = p1_setup(d)
        result = split_cocycle(A, td)
        assert result.found
        g = result.cochain
        assert verify_splitting(g, A, td)
        # the two chart values always differ by the constant -d
        diff = g.cones[2][0] - g.cones[1][0]
        assert diff == LaurentMatrix([[LaurentPoly.const(-d, 1)]])

    def test_zero_cocycle_zero_solution(self):
        fan = projective_fan(1)
        C = LaurentMatrix([[LaurentPoly.const(2, 1)]])
        td = transitions_from_one_sided(fan, 1, {(1, 2): C})
        A = atiyah_cocycle(td)
        assert all(M.is_zero() for mats in A.pairs.values() for M in mats)
        result = split_cocycle(A, td)
        assert result.found
        assert all(M.is_zero() for mats in result.cochain.cones.values() for M in mats)

    def test_dressed_rank_two_splits(self):
        rng = random.Random(58)
        for fan in surface_fans():
            data = random_equivariant_data(fan, 2, rng)
            td = dressed_transitions(data, random_dressing(fan, 2, rng))
            A = atiyah_cocycle(td)
            result = split_cocycle(A, td)
            assert result.found
            assert verify_splitting(result.cochain, A, td)

    def test_not_frame_antisymmetric_rejected(self):
        cocycle, td = unsplittable_cocycle()
        broken = MatrixCocycle(
            cocycle.fan, 2,
            {(1, 2): cocycle.pairs[(1, 2)], (2, 1): cocycle.pairs[(1, 2)]})
        with pytest.raises(ValueError, match="frame-antisymmetric"):
            split_cocycle(broken, td)

    @pytest.mark.parametrize("cap", [0, 3, 6])
    def test_unsplittable_at_every_cap(self, cap):
        cocycle, td = unsplittable_cocycle()
        result = split_cocycle(cocycle, td, cap=cap)
        assert not result.found
        assert result.weight_cap == cap
        assert result.weights_searched > 0

    def test_cap_minus_one_skips_search(self):
        _, td, A = p1_setup(2)
        result = split_cocycle(A, td, cap=-1)
        assert not result.found
        assert result.weights_searched == 0

    def test_env_cap_respected(self, monkeypatch):
        monkeypatch.setenv("TORLOG_WEIGHT_CAP", "-1")
        _, td, A = p1_setup(2)
        assert not split_cocycle(A, td).found
        # an explicit argument beats the environment
        assert split_cocycle(A, td, cap=3).found

    def test_solver_output_is_rechecked(self, monkeypatch):
        _, td, A = p1_setup(1)
        bogus = MatrixCochain(
            td.fan, 1,
            {1: (LaurentMatrix([[LaurentPoly.const(7, 1)]]),),
             2: (LaurentMatrix.zero(1),)})
        monkeypatch.setattr(splitting_mod, "_solve_graded", lambda *a: bogus)
        with pytest.raises(RuntimeError):
            split_cocycle(A, td)

    def test_result_counts_weights(self):
        _, td, A = p1_setup(4)
        result = split_cocycle(A, td)
        assert result.weights_searched >= 1
        assert result.closure_depth >= 0


class TestVerifySplitting:
    def test_detects_tampering(self):
        _, td, A = p1_setup(3)
        result = split_cocycle(A, td)
        good = result.cochain
        bad = MatrixCochain(
            good.fan, good.rank,
            {ci: tuple(M + LaurentMatrix.identity(1, 1) if ci == 1 else M for M in mats)
             for ci, mats in good.cones.items()})
        assert verify_splitting(good, A, td)
        assert not verify_splitting(bad, A, td)

    def test_constant_shift_family(self):
        # adding the same scalar matrix on every chart is again a splitting
        _, td, A = p1_setup(5)
        g = split_cocycle(A, td).cochain
        I = LaurentMatrix.identity(1, 1)
        shifted = MatrixCochain(
            g.fan, g.rank,
            {ci: tuple(M + I.scale(4) for M in mats) for ci, mats in g.cones.items()})
        assert verify_splitting(shifted, A, td)


class TestEquivariantSplitting:
    def test_p1_canonical_values(self):
        d = 3
        data, td, A = p1_setup(d)
        g = equivariant_splitting(data)
        assert g.cones[1][0].is_zero()  # weight (0,)
        assert g.cones[2][0] == LaurentMatrix([[LaurentPoly.const(-d, 1)]])
        assert verify_splitting(g, A, td)

    def test_matches_connection_form(self):
        rng = random.Random(61)
        for fan in surface_fans():
            data = random_equivariant_data(fan, 2, rng)
            g = equivariant_splitting(data)
            for ci in fan.maximal_cone_indices():
                assert g.cones[ci] == connection_form(data, ci).basis_matrices()

    def test_splits_diagonal_cocycles_over_corpus(self):
        rng = random.Random(62)
        for fan in surface_fans():
            for rank in (1, 2, 3):
                data = random_equivariant_data(fan, rank, rng)
                td = diagonal_transitions(data)
                A = atiyah_cocycle(td)
                assert verify_splitting(equivariant_splitting(data), A, td)


class TestConnectionFromSplitting:
    def test_gauge_checks_reported(self):
        data, td, A = p1_setup(2)
        forms, checks = connection_from_splitting(equivariant_splitting(data), td)
        assert [c.name for c in checks] == ["gauge_law[1,2]", "gauge_law[2,1]"]
        assert all(c.ok for c in checks)
        assert forms[2][0] == LaurentMatrix([[LaurentPoly.const(-2, 1)]])

    def test_solver_splitting_glues_too(self):
        rng = random.Random(77)
        fan = surface_fans()[1]
        data = random_equivariant_data(fan, 2, rng)
        td = dressed_transitions(data, random_dressing(fan, 2, rng))
        result = split_cocycle(atiyah_cocycle(td), td)
        assert result.found
        _, checks = connection_from_splitting(result.cochain, td)
        assert all(c.ok for c in checks)

    def test_tampered_cochain_raises(self):
        data, td, _ = p1_setup(2)
        g = equivariant_splitting(data)
        bad = MatrixCochain(
            g.fan, 1,
            {1: (g.cones[1][0] + LaurentMatrix.identity(1, 1),), 2: g.cones[2]})
        with pytest.raises(InconsistentSplittingError):
            connection_from_splitting(bad, td)


class TestEquivarianceVerdict:
    def test_diagonal_data_passes(self):
        _, td, _ = p1_setup(4)
        checks, result = equivariance_verdict(td)
        verdict = checks[-1]
        assert verdict.name == "equivariance" and verdict.ok
        assert "equivariant structure" in verdict.detail
        assert result.found

    def test_budgetless_search_is_undetermined(self):
        _, td, _ = p1_setup(4)
        checks, result = equivariance_verdict(td, cap=-1)
        verdict = checks[-1]
        assert verdict.status == "undetermined"
        assert "not a proof" in verdict.detail
        assert not result.found

    def test_broken_triples_fail_fast(self):
        td = diagonal_transitions(line_bundle_data(projective_fan(2), 1))
        # shift one transition by a character orthogonal to the shared ray:
        # chart membership survives but the cocycle law dies
        w = (0, 1)  # shared ray of cones 4,5 is e1
        td.matrices[(4, 5)] = td.matrices[(4, 5)] * LaurentMatrix([[X(w)]])
        td.matrices[(5, 4)] = LaurentMatrix([[X(tuple(-x for x in w))]]) * td.matrices[(5, 4)]
        checks, result = equivariance_verdict(td)
        verdict = checks[-1]
        assert verdict.status == "fail"
        assert not result.found
        assert any(c.name.startswith("triple_identity") and not c.ok for c in checks)


def ladder_fans():
    return [projective_fan(1), projective_fan(2), product_p1_fan(),
            hirzebruch_fan(1), hirzebruch_fan(2), projective_fan(3)]


def dressed_draw(fan, rank, rng):
    data = random_equivariant_data(fan, rank, rng)
    return dressed_transitions(data, random_dressing(fan, rank, rng, factors=1))


def coefficients(matrices):
    return [c for M in matrices for row in M.entries for f in row for c in f.terms.values()]


def is_canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestExactFastPath:
    """Coefficients stay int when integral through the whole pipeline."""

    def test_canonical_coefficients_over_ladder(self):
        rng = random.Random(91)
        for fan in ladder_fans():
            for rank in (1, 2, 3):
                td = dressed_draw(fan, rank, rng)
                A = atiyah_cocycle(td)
                result = split_cocycle(A, td)
                assert result.found
                stages = {
                    "transitions": td.matrices.values(),
                    "cocycle": [M for mats in A.pairs.values() for M in mats],
                    "splitting": [M for mats in result.cochain.cones.values() for M in mats],
                }
                for stage, mats in stages.items():
                    bad = [c for c in coefficients(mats) if not is_canonical(c)]
                    assert not bad, (fan.dim, rank, stage, bad[:3])

    def test_non_unit_pivots_give_a_verified_splitting(self, monkeypatch):
        quotients = []
        exact_div = splitting_mod._exact_div

        def spy(c, p):
            q = exact_div(c, p)
            quotients.append((c, p, q))
            return q

        monkeypatch.setattr(splitting_mod, "_exact_div", spy)
        td = dressed_draw(projective_fan(2), 3, random.Random(5))
        A = atiyah_cocycle(td)
        result = split_cocycle(A, td)
        assert {p for _, p, _ in quotients} - {1, -1}, "draw meets no pivot other than +-1"
        for c, p, q in quotients:
            assert is_canonical(q) and q * p == c
        assert result.found
        assert verify_splitting(result.cochain, A, td)
