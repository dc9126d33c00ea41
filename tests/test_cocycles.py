from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from torlog import cocycles as cocycles_mod
from torlog.cli import load_model
from torlog.cocycles import (
    MatrixCocycle,
    TransitionData,
    atiyah_cocycle,
    check_cocycle_pipelines,
    check_frame_antisymmetry,
    check_triple_identity,
    obstruction_cocycle,
    root_chart_law,
    transitions_from_one_sided,
    triples_through_root,
    validate_transitions,
)
from torlog.corpus import (
    diagonal_transitions,
    dressed_transitions,
    line_bundle_data,
    random_dressing,
    random_equivariant_data,
    random_transition_data,
    surface_fans,
)
from torlog.fans import DimensionError, hirzebruch_fan, product_p1_fan, projective_fan
from torlog.laurent import LaurentMatrix, LaurentPoly, matrix_delta, matrix_inverse_unit

X = LaurentPoly.monomial
MODELS = Path(__file__).resolve().parent.parent / "models"


def p1_line_transitions(d):
    return diagonal_transitions(line_bundle_data(projective_fan(1), d))


def checks_by_name(checks):
    return {c.name: c for c in checks}


def const(c, dim=1):
    return LaurentPoly.const(c, dim)


class TestTransitionData:
    def test_one_sided_fills_exact_inverse(self):
        fan = projective_fan(1)
        C = LaurentMatrix([[X((-3,))]])
        td = transitions_from_one_sided(fan, 1, {(1, 2): C})
        assert td.pair(2, 1) == LaurentMatrix([[X((3,))]])

    def test_one_sided_keeps_given_reverse(self):
        fan = projective_fan(1)
        C = LaurentMatrix([[X((-3,))]])
        wrong = LaurentMatrix([[X((3,), 2)]])
        td = transitions_from_one_sided(fan, 1, {(1, 2): C, (2, 1): wrong})
        assert td.pair(2, 1) == wrong

    def test_maximal_and_pairs(self):
        td = p1_line_transitions(2)
        assert td.maximal() == [1, 2]
        assert td.ordered_pairs() == [(1, 2), (2, 1)]


class TestValidateTransitions:
    def test_p1_line_bundle_passes(self):
        checks = validate_transitions(p1_line_transitions(3))
        assert [c.name for c in checks] == [
            "transitions_present", "chart_membership", "unit_determinants",
            "inverse_pairing", "cocycle_law"]
        assert all(c.ok for c in checks)

    def test_dressed_corpus_passes(self):
        rng = random.Random(6)
        for fan in surface_fans():
            td = random_transition_data(fan, 2, rng)
            assert all(c.ok for c in validate_transitions(td))

    def test_missing_pair_short_circuits(self):
        fan = projective_fan(1)
        C = LaurentMatrix([[X((-1,))]])
        td = TransitionData(fan, 1, {(1, 2): C})
        checks = validate_transitions(td)
        assert len(checks) == 1
        assert checks[0].name == "transitions_present"
        assert not checks[0].ok and "(2, 1)" in checks[0].detail

    def test_chart_violation_located(self):
        fan = projective_fan(2)
        # cones 4 and 5 share ray 0 = e1; a negative e1-exponent is illegal
        mats = {(4, 5): LaurentMatrix([[X((-1, 0))]]),
                (5, 4): LaurentMatrix([[X((1, 0))]])}
        by = checks_by_name(validate_transitions(TransitionData(fan, 1, mats)))
        assert not by["chart_membership"].ok
        assert "(4, 5)" in by["chart_membership"].detail
        assert not by["unit_determinants"].ok  # monomial, but not invertible there

    def test_two_term_determinant_rejected(self):
        fan = projective_fan(1)
        p = const(1) + X((1,))
        td = TransitionData(fan, 1, {(1, 2): LaurentMatrix([[p]]),
                                     (2, 1): LaurentMatrix([[const(1)]])})
        by = checks_by_name(validate_transitions(td))
        assert not by["unit_determinants"].ok
        assert "not a monomial" in by["unit_determinants"].detail
        assert not by["inverse_pairing"].ok

    def test_scaled_pair_breaks_cocycle_law_only(self):
        td = diagonal_transitions(line_bundle_data(projective_fan(2), 1))
        td.matrices[(4, 5)] = td.matrices[(4, 5)].scale(2)
        td.matrices[(5, 4)] = td.matrices[(5, 4)].scale("1/2")
        by = checks_by_name(validate_transitions(td))
        assert by["inverse_pairing"].ok
        assert by["unit_determinants"].ok
        assert not by["cocycle_law"].ok
        assert "(4, 5, 6)" in by["cocycle_law"].detail


class TestAtiyahCocycle:
    def test_p1_degree_d(self):
        d = 3
        A = atiyah_cocycle(p1_line_transitions(d))
        assert A.pairs[(1, 2)][0] == LaurentMatrix([[const(-d)]])
        assert A.pairs[(2, 1)][0] == LaurentMatrix([[const(d)]])

    def test_constant_transitions_give_zero(self):
        fan = projective_fan(1)
        C = LaurentMatrix([[const(2)]])
        td = transitions_from_one_sided(fan, 1, {(1, 2): C})
        A = atiyah_cocycle(td)
        assert all(M.is_zero() for mats in A.pairs.values() for M in mats)

    def test_unitriangular_monomial(self):
        fan = projective_fan(1)
        m = (3,)
        one, zero = const(1), LaurentPoly()
        C = LaurentMatrix([[one, X(m)], [zero, one]])
        td = transitions_from_one_sided(fan, 2, {(1, 2): C})
        A = atiyah_cocycle(td)
        assert A.pairs[(1, 2)][0] == LaurentMatrix([[zero, X(m, 3)], [zero, zero]])

    def test_evaluate_is_linear(self):
        rng = random.Random(14)
        for fan in surface_fans():
            td = random_transition_data(fan, 2, rng)
            A = atiyah_cocycle(td)
            s, t = td.ordered_pairs()[0]
            for _ in range(5):
                v1 = tuple(rng.randint(-3, 3) for _ in range(fan.dim))
                v2 = tuple(rng.randint(-3, 3) for _ in range(fan.dim))
                vs = tuple(a + b for a, b in zip(v1, v2))
                assert A.evaluate(s, t, vs) == A.evaluate(s, t, v1) + A.evaluate(s, t, v2)

    def test_basis_slices_match_evaluate(self):
        td = p1_line_transitions(4)
        A = atiyah_cocycle(td)
        assert A.evaluate(1, 2, (1,)) == A.pairs[(1, 2)][0]


class TestObstructionCocycle:
    def test_p1_degree_d(self):
        d = 3
        B = obstruction_cocycle(p1_line_transitions(d))
        assert B.pairs[(1, 2)][0] == LaurentMatrix([[const(d)]])

    def test_diagonal_weight_differences(self):
        data = line_bundle_data(projective_fan(2), 2)
        td = diagonal_transitions(data)
        B = obstruction_cocycle(td)
        for (s, t), mats in B.pairs.items():
            ms, mt = data.weights[s][0], data.weights[t][0]
            for b in range(2):
                expected = mt[b] - ms[b]
                entry = mats[b].entries[0][0]
                assert entry == (const(expected, 2) if expected else LaurentPoly())


class TestPipelinesOpposite:
    def test_p1_exact_negation(self):
        checks = check_cocycle_pipelines(p1_line_transitions(5))
        assert [c.name for c in checks] == [
            "pipelines_opposite[1,2]", "pipelines_opposite[2,1]"]
        assert all(c.ok for c in checks)

    def test_random_dressed_corpus(self):
        rng = random.Random(27)
        for fan in surface_fans():
            for rank in (1, 2, 3):
                data = random_equivariant_data(fan, rank, rng)
                dressing = random_dressing(fan, rank, rng)
                td = dressed_transitions(data, dressing)
                assert all(c.ok for c in check_cocycle_pipelines(td))


class TestCocycleChecks:
    def test_frame_antisymmetry_over_corpus(self):
        rng = random.Random(31)
        for fan in surface_fans():
            td = random_transition_data(fan, 2, rng)
            A = atiyah_cocycle(td)
            assert all(c.ok for c in check_frame_antisymmetry(A, td))

    def test_triple_identity_p2(self):
        td = diagonal_transitions(line_bundle_data(projective_fan(2), 3))
        A = atiyah_cocycle(td)
        checks = check_triple_identity(A, td)
        assert len(checks) == 6  # ordered triples of three charts
        assert all(c.ok for c in checks)

    def test_p1_has_no_triples(self):
        td = p1_line_transitions(1)
        assert check_triple_identity(atiyah_cocycle(td), td) == []

    def test_corrupted_overlap_is_located(self):
        td = diagonal_transitions(line_bundle_data(projective_fan(2), 1))
        A = atiyah_cocycle(td)
        I = LaurentMatrix.identity(1, 2)
        A.pairs[(4, 5)] = tuple(M + I for M in A.pairs[(4, 5)])
        failing = [c for c in check_triple_identity(A, td) if not c.ok]
        assert failing
        for c in failing:
            triple = tuple(int(x) for x in re.findall(r"\d+", c.name))
            assert {4, 5} <= set(triple)


class TestMatrixCocycle:
    def test_evaluate_zero_vector(self):
        td = p1_line_transitions(2)
        A = atiyah_cocycle(td)
        assert A.evaluate(1, 2, (0,)).is_zero()

    def test_evaluate_rejects_a_vector_of_another_length(self):
        td = diagonal_transitions(line_bundle_data(projective_fan(2), 3))
        A = atiyah_cocycle(td)
        s, t = td.ordered_pairs()[0]
        assert A.evaluate(s, t, (1, 0)) == A.pairs[(s, t)][0]
        for v in [(1, 0, 5), (1,), ()]:
            with pytest.raises(DimensionError):
                A.evaluate(s, t, v)

    def test_handmade_cocycle_roundtrip(self):
        fan = projective_fan(1)
        M = LaurentMatrix([[X((1,), 2)]])
        c = MatrixCocycle(fan, 1, {(1, 2): (M,)})
        assert c.evaluate(1, 2, (3,)) == M.scale(3)

    def test_relabeling_invariance(self):
        # swapping every chart pair label permutes the cocycle accordingly
        rng = random.Random(44)
        fan = surface_fans()[0]
        td = random_transition_data(fan, 2, rng)
        A = atiyah_cocycle(td)
        reverse = TransitionData(
            td.fan, td.rank, {(t, s): C for (s, t), C in td.matrices.items()})
        A_rev = atiyah_cocycle(reverse)
        for (s, t), mats in A_rev.pairs.items():
            for b, M in enumerate(mats):
                assert M == A.pairs[(t, s)][b]


def basis(n):
    return [tuple(int(i == b) for i in range(n)) for b in range(n)]


def reference_atiyah(data):
    """The composition delta_products replaces: one matrix_delta and one product per b."""
    return {(s, t): tuple(matrix_delta(e, data.pair(s, t)) * data.pair(t, s)
                          for e in basis(data.fan.dim))
            for s, t in data.ordered_pairs()}


def reference_obstruction(data):
    return {(s, t): tuple(data.pair(s, t) * matrix_delta(e, data.pair(t, s))
                          for e in basis(data.fan.dim))
            for s, t in data.ordered_pairs()}


def reference_antisymmetry(cocycle, data):
    """Each conjugation as two products and a negation, as before mul_add."""
    return [(s, t, all(Mts == -(data.pair(t, s) * Mst * data.pair(s, t))
                       for Mst, Mts in zip(cocycle.pairs[(s, t)], cocycle.pairs[(t, s)])))
            for s, t in sorted(cocycle.pairs) if s < t]


def reference_triples(cocycle, data):
    return [(s, t, u, all(Asu == Ast + data.pair(s, t) * Atu * data.pair(t, s)
                          for Ast, Atu, Asu in zip(cocycle.pairs[(s, t)], cocycle.pairs[(t, u)],
                                                   cocycle.pairs[(s, u)])))
            for s, t, u in itertools.permutations(data.maximal(), 3)]


def ladder_fans():
    return [projective_fan(1), projective_fan(2), product_p1_fan(),
            hirzebruch_fan(1), hirzebruch_fan(2), projective_fan(3)]


def ladder_draws(seed):
    rng = random.Random(seed)
    for fan in ladder_fans():
        for rank in (1, 2, 3):
            data = random_equivariant_data(fan, rank, rng)
            yield dressed_transitions(data, random_dressing(fan, rank, rng, factors=1))


def verdicts(checks):
    return [(tuple(int(x) for x in re.findall(r"\d+", c.name)), c.ok) for c in checks]


class TestFusedPipelines:
    """The one-pass cocycles and the mul_add checks against the compositions they replace."""

    def test_cocycles_match_reference_over_ladder(self):
        for td in ladder_draws(71):
            A, B = atiyah_cocycle(td), obstruction_cocycle(td)
            assert A.pairs == reference_atiyah(td)
            assert B.pairs == reference_obstruction(td)
            assert all(len(mats) == td.fan.dim for mats in A.pairs.values())

    def test_checks_match_reference_over_ladder(self):
        for td in ladder_draws(72):
            A = atiyah_cocycle(td)
            assert verdicts(check_frame_antisymmetry(A, td)) == [
                ((s, t), ok) for s, t, ok in reference_antisymmetry(A, td)]
            assert verdicts(check_triple_identity(A, td)) == [
                ((s, t, u), ok) for s, t, u, ok in reference_triples(A, td)]
            assert all(c.ok for c in check_cocycle_pipelines(td))

    def test_checks_match_reference_on_a_corrupted_cocycle(self):
        rng = random.Random(73)
        for fan in (projective_fan(2), hirzebruch_fan(1), projective_fan(3)):
            data = random_equivariant_data(fan, 2, rng)
            td = dressed_transitions(data, random_dressing(fan, 2, rng, factors=1))
            A = atiyah_cocycle(td)
            s, t = td.ordered_pairs()[1]
            E = LaurentMatrix([[X((0,) * fan.dim), LaurentPoly()], [LaurentPoly(), LaurentPoly()]])
            A.pairs[(s, t)] = (A.pairs[(s, t)][0] + E,) + A.pairs[(s, t)][1:]
            anti = verdicts(check_frame_antisymmetry(A, td))
            triples = verdicts(check_triple_identity(A, td))
            assert anti == [((a, b), ok) for a, b, ok in reference_antisymmetry(A, td)]
            assert triples == [((a, b, c), ok) for a, b, c, ok in reference_triples(A, td)]
            assert not all(ok for _, ok in anti) and not all(ok for _, ok in triples)

    def test_broken_pipeline_is_still_caught(self):
        # one side plus the identity: the check agrees with the built comparison
        def plus_identity(C):
            return C + LaurentMatrix.identity(C.size, len(first_exponent(C)))

        assert spoiled_pair_failures(88, plus_identity)


def reference_cocycle_law(data):
    """The cocycle_law check by full enumeration of the ordered triples."""
    bad = [(s, t, u) for s, t, u in itertools.permutations(data.maximal(), 3)
           if data.pair(s, t) * data.pair(t, u) != data.pair(s, u)]
    return ("cocycle_law", "fail" if bad else "pass",
            f"C_st*C_tu != C_su on triples {bad[:6]}" if bad else "")


def cocycle_law(data):
    c = checks_by_name(validate_transitions(data))["cocycle_law"]
    return (c.name, c.status, c.detail)


class TestCocycleLawThroughRoot:
    """The root-reduced cocycle law against full enumeration."""

    def fans(self):
        return [projective_fan(2), product_p1_fan(), hirzebruch_fan(1), projective_fan(3)]

    def test_valid_ladder_draws(self):
        for td in ladder_draws(81):
            assert cocycle_law(td) == reference_cocycle_law(td) == ("cocycle_law", "pass", "")

    def test_scaled_pair_with_its_inverse_fixed(self):
        # the inverse pairing passes, so the root check runs, fails and falls back
        rng = random.Random(82)
        for fan in self.fans():
            data = random_equivariant_data(fan, 2, rng)
            base = dressed_transitions(data, random_dressing(fan, 2, rng, factors=1))
            for s, t in base.ordered_pairs():
                td = TransitionData(base.fan, base.rank, dict(base.matrices))
                td.matrices[(s, t)] = base.pair(s, t).scale(3)
                td.matrices[(t, s)] = base.pair(t, s).scale("1/3")
                assert checks_by_name(validate_transitions(td))["inverse_pairing"].ok
                assert cocycle_law(td) == reference_cocycle_law(td)
                assert cocycle_law(td)[1] == "fail"

    def test_one_side_corrupted(self):
        # the inverse pairing fails, so every triple is enumerated
        rng = random.Random(83)
        for fan in self.fans():
            data = random_equivariant_data(fan, 2, rng)
            base = dressed_transitions(data, random_dressing(fan, 2, rng, factors=1))
            for s, t in base.ordered_pairs():
                td = TransitionData(base.fan, base.rank, dict(base.matrices))
                E = LaurentMatrix([[LaurentPoly(), X((0,) * fan.dim)],
                                   [LaurentPoly(), LaurentPoly()]])
                td.matrices[(s, t)] = base.pair(s, t) + E
                assert not checks_by_name(validate_transitions(td))["inverse_pairing"].ok
                assert cocycle_law(td) == reference_cocycle_law(td)
                assert cocycle_law(td)[1] == "fail"


def reference_pipelines(data):
    """check_cocycle_pipelines as it was: MA == -MB with -MB built for every matrix."""
    A, B = atiyah_cocycle(data), obstruction_cocycle(data)
    return [(pair, all(MA == -MB for MA, MB in zip(A.pairs[pair], B.pairs[pair])))
            for pair in sorted(A.pairs)]


class TestNegationFreePipelines:
    """check_cocycle_pipelines builds neither cocycle: C_st * C_ts must be constant."""

    def test_matches_reference_over_ladder(self):
        for td in ladder_draws(84):
            assert pipeline_verdicts(td) == reference_pipelines(td)
            assert all(ok for _, ok in pipeline_verdicts(td))

    def test_same_sign_pipeline_fails(self):
        # one side plus a non-constant monomial in its first entry
        def plus_monomial(C):
            n = len(first_exponent(C))
            rows = [list(row) for row in C.entries]
            rows[0][0] = rows[0][0] + X(tuple(int(i == 0) for i in range(n)))
            return LaurentMatrix(rows)

        assert spoiled_pair_failures(85, plus_monomial)

    def test_one_moved_term_fails(self):
        # the same coefficients on a shifted support, in the first nonzero entry
        def shift(f):
            e = next(iter(f.terms))
            return f.shift(tuple(int(i == 0) for i in range(len(e))))

        assert spoiled_pair_failures(86, lambda C: spoil_first_entry(C, shift))

    def test_one_changed_coefficient_fails(self):
        # one coefficient off by 1/3, in the first nonzero entry
        def bump(f):
            return f + X(next(iter(f.terms)), Fraction(1, 3))

        assert spoiled_pair_failures(87, lambda C: spoil_first_entry(C, bump))

    def test_one_side_scaled_by_3_passes(self):
        # C_st * C_ts = 3: constant, so both paths pass though C_ts is no inverse
        assert spoiled_pair_failures(89, lambda C: C.scale(3)) == 0


def pipeline_verdicts(td):
    return [(tuple(int(x) for x in re.findall(r"\d+", c.name)), c.ok)
            for c in check_cocycle_pipelines(td)]


def first_exponent(M):
    return next(e for row in M.entries for f in row for e in f.terms)


def spoiled_pair_failures(seed, spoil):
    """Spoil one side of every ordered pair in turn, over the ladder draws of seed.

    The check must agree verdict for verdict with the built comparison
    MA == -MB; returns the number of failing checks.
    """
    failed = 0
    for td in ladder_draws(seed):
        for s, t in td.ordered_pairs():
            spoiled = TransitionData(td.fan, td.rank, dict(td.matrices))
            spoiled.matrices[(s, t)] = spoil(td.pair(s, t))
            got = pipeline_verdicts(spoiled)
            assert got == reference_pipelines(spoiled)
            failed += sum(not ok for _, ok in got)
    return failed


def spoil_first_entry(M, change):
    """M with change applied to its first nonzero entry; M itself if it is zero."""
    rows = [list(row) for row in M.entries]
    for row in rows:
        for q, f in enumerate(row):
            if f.terms:
                row[q] = change(f)
                return LaurentMatrix(rows)
    return M


def enumerated(cocycle, data, monkeypatch):
    """check_triple_identity with the root reduction switched off: every triple enumerated."""
    with monkeypatch.context() as m:
        m.setattr(cocycles_mod, "triples_through_root", lambda *a: False)
        return check_triple_identity(cocycle, data)


def reduced_and_enumerated(cocycle, data, monkeypatch):
    """(checks, whether the root reduction decided them, the enumerated checks)."""
    decided = []
    real = cocycles_mod.triple_passes
    with monkeypatch.context() as m:
        m.setattr(cocycles_mod, "triple_passes", lambda d: decided.append(1) or real(d))
        checks = check_triple_identity(cocycle, data)
    return checks, bool(decided), enumerated(cocycle, data, monkeypatch)


def as_tuples(checks):
    return [(c.name, c.status, c.detail) for c in checks]


def with_first_matrix(cocycle, pair, change):
    """A copy of the cocycle whose first basis matrix on ``pair`` is changed."""
    pairs = dict(cocycle.pairs)
    pairs[pair] = (change(pairs[pair][0]),) + pairs[pair][1:]
    return MatrixCocycle(cocycle.fan, cocycle.rank, pairs)


def one_constant(rank, dim):
    """The matrix with a single coefficient, 1 at the zero exponent of entry (0, 0)."""
    rows = [[LaurentPoly() for _ in range(rank)] for _ in range(rank)]
    rows[0][0] = X((0,) * dim)
    return LaurentMatrix(rows)


class TestTripleReduction:
    """The root-reduced triple identity against full enumeration, list for list."""

    def draws(self, seed):
        rng = random.Random(seed)
        for fan in (projective_fan(2), hirzebruch_fan(1), projective_fan(3)):
            data = random_equivariant_data(fan, 2, rng)
            yield dressed_transitions(data, random_dressing(fan, 2, rng, factors=1))

    def test_ladder_draws(self, monkeypatch):
        for td in ladder_draws(91):
            checks, decided, full = reduced_and_enumerated(atiyah_cocycle(td), td, monkeypatch)
            assert as_tuples(checks) == as_tuples(full)
            m = len(td.maximal())
            assert len(checks) == m * (m - 1) * (m - 2) and all(c.ok for c in checks)
            assert decided == (m >= 3)

    def test_changed_coefficient_on_a_non_root_pair(self, monkeypatch):
        for td in self.draws(92):
            s, t = td.maximal()[:2]
            A = with_first_matrix(atiyah_cocycle(td), (s, t),
                                  lambda M: M + one_constant(2, td.fan.dim))
            checks, decided, full = reduced_and_enumerated(A, td, monkeypatch)
            assert as_tuples(checks) == as_tuples(full)
            assert not decided and not all(c.ok for c in checks)

    def test_changed_coefficient_on_a_pair_into_the_root(self, monkeypatch):
        for td in self.draws(93):
            s, r = td.maximal()[0], td.maximal()[-1]
            A = with_first_matrix(atiyah_cocycle(td), (s, r),
                                  lambda M: M + one_constant(2, td.fan.dim))
            assert not triples_through_root(A, td)
            checks, decided, full = reduced_and_enumerated(A, td, monkeypatch)
            assert as_tuples(checks) == as_tuples(full)
            assert not decided and not all(c.ok for c in checks)

    def test_reverse_pair_breaks_antisymmetry_only(self, monkeypatch):
        # A_rs never enters a triple through the root, so only antisymmetry
        # stops the reduction; the triples it breaks must still be named
        for td in self.draws(94):
            s, r = td.maximal()[0], td.maximal()[-1]
            A = with_first_matrix(atiyah_cocycle(td), (r, s),
                                  lambda M: M + one_constant(2, td.fan.dim))
            assert root_chart_law(td) and triples_through_root(A, td)
            assert not all(c.ok for c in check_frame_antisymmetry(A, td))
            checks, decided, full = reduced_and_enumerated(A, td, monkeypatch)
            assert as_tuples(checks) == as_tuples(full)
            assert not decided and not all(c.ok for c in checks)

    def test_coboundary_keeps_every_triple(self, monkeypatch):
        # A_st + C_st g_t C_ts - g_s satisfies every identity A does
        rng = random.Random(95)
        for td in self.draws(96):
            n = td.fan.dim
            g = {ci: [LaurentMatrix([[X(tuple(rng.randint(-2, 2) for _ in range(n)),
                                        rng.choice([-1, 1, 2])) for _ in range(2)]
                                     for _ in range(2)]) for _ in range(n)]
                 for ci in td.maximal()}
            A = atiyah_cocycle(td)
            B = MatrixCocycle(td.fan, 2, {
                (s, t): tuple(M + td.pair(s, t) * gt * td.pair(t, s) - gs
                              for M, gs, gt in zip(mats, g[s], g[t]))
                for (s, t), mats in A.pairs.items()})
            assert B.pairs != A.pairs
            checks, decided, full = reduced_and_enumerated(B, td, monkeypatch)
            assert as_tuples(checks) == as_tuples(full)
            assert decided and all(c.ok for c in checks)

    def test_corrupted_model(self, monkeypatch):
        td = load_model(str(MODELS / "p2_corrupted.json")).transitions
        assert not root_chart_law(td)
        checks, decided, full = reduced_and_enumerated(atiyah_cocycle(td), td, monkeypatch)
        assert as_tuples(checks) == as_tuples(full)
        assert not decided and not all(c.ok for c in checks)

    def test_two_charts_give_no_checks(self, monkeypatch):
        td = diagonal_transitions(line_bundle_data(projective_fan(1), 3))
        assert check_triple_identity(atiyah_cocycle(td), td) == []
        assert enumerated(atiyah_cocycle(td), td, monkeypatch) == []



def forced_validation(data, monkeypatch):
    """validate_transitions with the root-chart law failing: every determinant and law enumerated."""
    with monkeypatch.context() as m:
        m.setattr(cocycles_mod, "root_chart_law", lambda d: False)
        return validate_transitions(data)


def failing_fixtures():
    """The failing transition data of TestValidateTransitions and TestCocycleLawThroughRoot."""
    fan = projective_fan(1)
    yield TransitionData(fan, 1, {(1, 2): LaurentMatrix([[X((-1,))]])})
    fan = projective_fan(2)
    yield TransitionData(fan, 1, {(4, 5): LaurentMatrix([[X((-1, 0))]]),
                                  (5, 4): LaurentMatrix([[X((1, 0))]])})
    yield TransitionData(projective_fan(1), 1, {
        (1, 2): LaurentMatrix([[const(1) + X((1,))]]), (2, 1): LaurentMatrix([[const(1)]])})
    td = diagonal_transitions(line_bundle_data(projective_fan(2), 1))
    td.matrices[(4, 5)] = td.matrices[(4, 5)].scale(2)
    td.matrices[(5, 4)] = td.matrices[(5, 4)].scale("1/2")
    yield td
    rng = random.Random(82)
    for fan in (projective_fan(2), product_p1_fan(), hirzebruch_fan(1), projective_fan(3)):
        data = random_equivariant_data(fan, 2, rng)
        base = dressed_transitions(data, random_dressing(fan, 2, rng, factors=1))
        s, t = base.ordered_pairs()[0]
        scaled = TransitionData(base.fan, base.rank, dict(base.matrices))
        scaled.matrices[(s, t)] = base.pair(s, t).scale(3)
        scaled.matrices[(t, s)] = base.pair(t, s).scale("1/3")
        yield scaled
        one_side = TransitionData(base.fan, base.rank, dict(base.matrices))
        one_side.matrices[(s, t)] = base.pair(s, t) + LaurentMatrix(
            [[LaurentPoly(), X((0,) * fan.dim)], [LaurentPoly(), LaurentPoly()]])
        yield one_side
    yield load_model(str(MODELS / "p2_corrupted.json")).transitions


class TestDeterminantsFromTheGate:
    """Chart membership and the root-chart law prove the unit determinants (docstring)."""

    def test_ladder_draws_match_the_forced_path(self, monkeypatch):
        for td in ladder_draws(97):
            checks = validate_transitions(td)
            assert as_tuples(checks) == as_tuples(forced_validation(td, monkeypatch))
            assert all(c.ok for c in checks)

    def test_failing_fixtures_match_the_forced_path(self, monkeypatch):
        fixtures = list(failing_fixtures())
        for td in fixtures:
            checks = validate_transitions(td)
            assert as_tuples(checks) == as_tuples(forced_validation(td, monkeypatch))
            assert not all(c.ok for c in checks)
        failing = {c.name for td in fixtures for c in validate_transitions(td) if not c.ok}
        assert failing == {"transitions_present", "chart_membership", "unit_determinants",
                           "inverse_pairing", "cocycle_law"}

    def test_no_determinant_past_the_gate(self, monkeypatch):
        expanded = []
        real = cocycles_mod.matrix_det
        monkeypatch.setattr(cocycles_mod, "matrix_det", lambda C: expanded.append(C) or real(C))
        for td in ladder_draws(98):
            assert all(c.ok for c in validate_transitions(td))
        assert expanded == []
        td = load_model(str(MODELS / "p2_corrupted.json")).transitions
        validate_transitions(td)
        assert len(expanded) == len(td.ordered_pairs())
