from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torlog import cocycles as cocycles_mod
from torlog import linalg as linalg_mod
from torlog import splitting as splitting_mod
from torlog.bundles import connection_form
from torlog.cli import load_model
from torlog.cocycles import (
    MatrixCocycle,
    TransitionData,
    atiyah_cocycle,
    check_frame_antisymmetry,
    check_triple_identity,
    transitions_from_one_sided,
    validate_transitions,
)
from torlog.corpus import (
    diagonal_transitions,
    line_bundle_data,
    random_equivariant_data,
    random_dressing,
    random_transition_data,
    dressed_transitions,
    surface_fans,
)
from torlog.fans import DimensionError, hirzebruch_fan, product_p1_fan, projective_fan, vec_add
from torlog.laurent import LaurentMatrix, LaurentPoly, chart_member, in_chart, matrix_chart_member
from torlog.linalg import exact_div
from torlog.splitting import (
    InconsistentSplittingError,
    MatrixCochain,
    SplitResult,
    WeightCapError,
    connection_from_splitting,
    equivariance_verdict,
    equivariant_splitting,
    gauge_passes,
    split_cocycle,
    verify_splitting,
    weight_cap,
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

    @pytest.mark.parametrize("cap", [2.7, 2.0, True, False, "2", Fraction(2)])
    def test_a_cap_that_is_not_an_int_raises(self, cap):
        message = f"the weight cap must be an integer, got {cap!r}"
        with pytest.raises(WeightCapError, match=re.escape(message)):
            weight_cap(cap)
        _, td, A = p1_setup(2)
        with pytest.raises(WeightCapError):
            split_cocycle(A, td, cap=cap)
        with pytest.raises(WeightCapError):
            equivariance_verdict(td, cap=cap)

    @pytest.mark.parametrize("cap", [-1, 0, 3, 7])
    def test_an_int_cap_is_kept_as_given(self, cap):
        assert weight_cap(cap) == cap and type(weight_cap(cap)) is int

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


    def test_evaluate_rejects_a_vector_of_another_length(self):
        _, td, A = p1_setup(3)
        g = split_cocycle(A, td).cochain
        assert g.evaluate(1, (2,)) == g.cones[1][0].scale(2)
        for v in [(), (2, 0)]:
            with pytest.raises(DimensionError):
                g.evaluate(1, v)


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

        def spy(c, p):
            q = exact_div(c, p)
            quotients.append((c, p, q))
            return q

        monkeypatch.setattr(linalg_mod, "exact_div", spy)
        # the draw: the first P2 rank-3 seed from 0 whose eliminated rows, the
        # ones a right-hand side reaches, meet a pivot other than +-1
        for seed in range(20):
            quotients.clear()
            td = dressed_draw(projective_fan(2), 3, random.Random(seed))
            A = atiyah_cocycle(td)
            result = split_cocycle(A, td)
            if {p for _, p, _ in quotients} - {1, -1}:
                break
        assert {p for _, p, _ in quotients} - {1, -1}, "draw meets no pivot other than +-1"
        for c, p, q in quotients:
            assert is_canonical(q) and q * p == c
        assert result.found
        assert verify_splitting(result.cochain, A, td)


MODELS = Path(__file__).resolve().parent.parent / "models"


def reference_solve(cocycle, data, weights):
    """The full-system solver the root-chart reduction replaced.

    Unknowns are the entries of g_sigma on every maximal cone at the weights
    of W in chart(sigma), and every overlap s < t contributes the equation
    C_st g_t C_ts - g_s = A_st, coefficient by coefficient.  Elimination is
    the same as the library's: rows in sorted key order, pivot min(row),
    free variables zero.
    """
    fan = data.fan
    n = fan.dim
    r = data.rank
    maximal = data.maximal()
    cone_weights = {}
    for ci in maximal:
        cone = fan.cones[ci]
        cone_weights[ci] = [w for w in weights if chart_member(LaurentPoly.monomial(w), cone, fan)]

    var_of = {}
    for ci in maximal:
        for i in range(r):
            for j in range(r):
                for w in cone_weights[ci]:
                    var_of[(ci, i, j, w)] = len(var_of)

    pairs = sorted(p for p in cocycle.pairs if p[0] < p[1])
    rows = {}
    rhs = {}

    def row_at(key):
        if key not in rows:
            rows[key] = {}
            rhs[key] = [0] * n
        return rows[key]

    def add_to(row, var, c):
        nv = row.get(var, 0) + c
        if nv:
            row[var] = nv
        else:
            row.pop(var, None)

    for pidx, (s, t) in enumerate(pairs):
        C = data.pair(s, t)
        D = data.pair(t, s)
        for k in range(r):
            for l in range(r):
                for p in range(r):
                    for q in range(r):
                        prod = C.entries[p][k] * D.entries[l][q]
                        for w in cone_weights[t]:
                            for mc, c in prod.terms.items():
                                add_to(row_at((pidx, p, q, vec_add(mc, w))), var_of[(t, k, l, w)], c)
        for i in range(r):
            for j in range(r):
                for w in cone_weights[s]:
                    add_to(row_at((pidx, i, j, w)), var_of[(s, i, j, w)], -1)
        for b in range(n):
            A = cocycle.pairs[(s, t)][b]
            for p in range(r):
                for q in range(r):
                    for m, c in A.entries[p][q].terms.items():
                        key = (pidx, p, q, m)
                        row_at(key)
                        rhs[key][b] += c

    pivots = {}
    for key in sorted(rows):
        row = dict(rows[key])
        vec = list(rhs[key])
        for var in [x for x in row if x in pivots]:
            f = row.pop(var)
            rest, pvec = pivots[var]
            for v2, c2 in rest.items():
                add_to(row, v2, -f * c2)
            vec = [x - f * y for x, y in zip(vec, pvec)]
        if not row:
            if any(vec):
                return None
            continue
        pivot = min(row)
        coeff = row.pop(pivot)
        rest = {v2: exact_div(c2, coeff) for v2, c2 in row.items()}
        pvec = [exact_div(x, coeff) for x in vec]
        for orest, ovec in pivots.values():
            if pivot in orest:
                f = orest.pop(pivot)
                for v2, c2 in rest.items():
                    add_to(orest, v2, -f * c2)
                ovec[:] = [x - f * y for x, y in zip(ovec, pvec)]
        pivots[pivot] = (rest, pvec)

    values = {var: pvec for var, (_, pvec) in pivots.items()}
    cones = {}
    for ci in maximal:
        cones[ci] = tuple(
            LaurentMatrix([[LaurentPoly({w: values[var_of[(ci, i, j, w)]][b]
                                         for w in cone_weights[ci]
                                         if var_of[(ci, i, j, w)] in values})
                            for j in range(r)] for i in range(r)])
            for b in range(n))
    return MatrixCochain(fan, r, cones)


def split_both(cocycle, td, monkeypatch):
    """split_cocycle with the library's solver and with reference_solve."""
    ours = split_cocycle(cocycle, td)
    with monkeypatch.context() as m:
        m.setattr(splitting_mod, "_solve_graded", reference_solve)
        theirs = split_cocycle(cocycle, td)
    return ours, theirs


def same_search(a, b):
    return (a.found, a.closure_depth, a.weights_searched) == (
        b.found, b.closure_depth, b.weights_searched)


class TestRootChartReduction:
    """The gauge-fixed solver against the full-system reference."""

    def test_parity_over_ladder(self, monkeypatch):
        rng = random.Random(404)
        for fan in ladder_fans():
            for rank in (1, 2, 3):
                td = dressed_draw(fan, rank, rng)
                A = atiyah_cocycle(td)
                ours, theirs = split_both(A, td, monkeypatch)
                assert same_search(ours, theirs), (fan.dim, rank)
                assert ours.found
                assert verify_splitting(ours.cochain, A, td)
                assert verify_splitting(theirs.cochain, A, td)

    @pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.json")))
    def test_identical_cochains_on_models(self, name, monkeypatch):
        td = load_model(str(MODELS / f"{name}.json")).transitions
        if td is None:
            pytest.skip("model has no transitions block")
        A = atiyah_cocycle(td)
        if not all(c.ok for c in check_frame_antisymmetry(A, td)):
            with pytest.raises(ValueError, match="frame-antisymmetric"):
                split_cocycle(A, td)
            return
        ours, theirs = split_both(A, td, monkeypatch)
        assert same_search(ours, theirs)
        if ours.found:
            assert ours.cochain.cones == theirs.cochain.cones

    @pytest.mark.parametrize("pair", [(4, 5), (4, 6), (5, 6)])
    def test_broken_triple_identity_is_a_miss(self, pair, monkeypatch):
        # a constant E added to A_st and C_ts E C_st taken from A_ts keeps the
        # cochain frame-antisymmetric but breaks the triple identity, which the
        # reduction rests on: its candidate fails, and that is a miss
        td = diagonal_transitions(line_bundle_data(projective_fan(2), 1))
        A = atiyah_cocycle(td)
        s, t = pair
        E = LaurentMatrix([[LaurentPoly.const(1, 2)]])
        pairs = dict(A.pairs)
        pairs[(s, t)] = (A.pairs[(s, t)][0] + E,) + A.pairs[(s, t)][1:]
        pairs[(t, s)] = (A.pairs[(t, s)][0] - td.pair(t, s) * E * td.pair(s, t),) + A.pairs[(t, s)][1:]
        broken = MatrixCocycle(A.fan, A.rank, pairs)
        assert all(c.ok for c in check_frame_antisymmetry(broken, td))
        assert not all(c.ok for c in check_triple_identity(broken, td))
        candidate = splitting_mod._solve_graded(broken, td, [(0, 0)])
        assert candidate is not None and not verify_splitting(candidate, broken, td)
        ours, theirs = split_both(broken, td, monkeypatch)
        assert not ours.found
        assert (ours.closure_depth, ours.weights_searched) == (0, 1)
        assert same_search(ours, theirs)

    def test_solver_fault_on_sound_input_raises(self, monkeypatch):
        td = dressed_draw(projective_fan(2), 2, random.Random(8))
        A = atiyah_cocycle(td)
        good = split_cocycle(A, td).cochain
        bogus = MatrixCochain(
            td.fan, 2,
            {ci: tuple(M + LaurentMatrix.identity(2, 2) if ci == 4 else M for M in mats)
             for ci, mats in good.cones.items()})
        monkeypatch.setattr(splitting_mod, "_solve_graded", lambda *a: bogus)
        with pytest.raises(RuntimeError):
            split_cocycle(A, td)


class TestTruncatedClosure:
    """A weight closure cut at _MAX_WEIGHTS is reported; the search is unchanged."""

    def test_uncut_search_is_not_truncated(self):
        cocycle, td = unsplittable_cocycle()
        result = split_cocycle(cocycle, td, cap=6)
        assert (result.closure_depth, result.weights_searched, result.truncated) == (6, 27, False)
        assert result.truncation_note() == ""

    def test_cut_closure_is_reported(self, monkeypatch):
        # the closure has 3, 7, 11, ... weights at depth 0, 1, 2, ...; a limit
        # of 6 lets depth 1 finish and cuts depth 2 after its first level
        monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", 6)
        cocycle, td = unsplittable_cocycle()
        result = split_cocycle(cocycle, td, cap=6)
        assert not result.found
        assert (result.closure_depth, result.weights_searched, result.truncated) == (1, 7, True)
        assert "6-weight limit before reaching depth 2" in result.truncation_note()

    def test_limit_reached_on_the_last_level_is_not_a_cut(self, monkeypatch):
        monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", 6)
        cocycle, td = unsplittable_cocycle()
        result = split_cocycle(cocycle, td, cap=1)
        assert (result.closure_depth, result.weights_searched, result.truncated) == (1, 7, False)

    def test_verdict_names_the_cut(self, monkeypatch):
        td = load_model(str(MODELS / "p2_rank2.json")).transitions
        monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", 1)
        monkeypatch.setattr(splitting_mod, "_solve_graded", lambda *a: None)
        checks, result = equivariance_verdict(td)
        assert result.truncated
        verdict = checks[-1]
        assert verdict.status == "undetermined"
        assert verdict.detail.endswith(result.truncation_note())
        assert "1-weight limit" in verdict.detail

    def test_verdict_without_a_cut_is_unchanged(self, monkeypatch):
        td = load_model(str(MODELS / "p2_rank2.json")).transitions
        monkeypatch.setattr(splitting_mod, "_solve_graded", lambda *a: None)
        checks, result = equivariance_verdict(td)
        assert not result.truncated
        assert checks[-1].detail.endswith("not a proof of non-existence")


def gauge_holds(cochain, td):
    try:
        connection_from_splitting(cochain, td)
    except InconsistentSplittingError:
        return False
    return True


class TestShortCochain:
    """A cone tuple shorter than fan.dim must not verify vacuously."""

    def setup(self):
        data = line_bundle_data(projective_fan(2), 1)
        td = diagonal_transitions(data)
        return equivariant_splitting(data), td, atiyah_cocycle(td)

    def test_full_cochain_passes(self):
        g, td, A = self.setup()
        assert verify_splitting(g, A, td) and gauge_holds(g, td)

    def test_empty_cochain_is_rejected(self):
        g, td, A = self.setup()
        empty = MatrixCochain(g.fan, g.rank, {ci: () for ci in g.cones})
        assert not verify_splitting(empty, A, td)
        with pytest.raises(InconsistentSplittingError, match="2 matrices on every cone"):
            connection_from_splitting(empty, td)

    def test_one_matrix_cochain_is_rejected(self):
        # the first basis matrix is right, so a truncating check would pass
        g, td, A = self.setup()
        short = MatrixCochain(g.fan, g.rank, {ci: mats[:1] for ci, mats in g.cones.items()})
        assert not verify_splitting(short, A, td)
        assert not gauge_holds(short, td)


def off_ring_line_bundle():
    """Rank 1 on p2_o2's fan with C_st = chi^(m_s - m_t) for arbitrary per-cone m.

    It obeys the cocycle law, but its entries leave the overlap rings.
    """
    fan = load_model(str(MODELS / "p2_o2.json")).fan
    m = {4: (0, 0), 5: (3, -1), 6: (-2, 5)}
    mats = {(s, t): LaurentMatrix([[X(tuple(a - b for a, b in zip(m[s], m[t])))]])
            for s in m for t in m if s != t}
    return TransitionData(fan, 1, mats)


class TestVerdictGate:
    """validate_transitions gates the verdict; only its failures are reported."""

    def test_off_ring_transitions_fail(self):
        td = off_ring_line_bundle()
        failing = [c.name for c in validate_transitions(td) if not c.ok]
        assert failing == ["chart_membership", "unit_determinants"]
        checks, result = equivariance_verdict(td)
        assert [c.name for c in checks if not c.ok] == failing + ["equivariance"]
        assert all(c.ok for c in checks if c.name.startswith("triple_identity"))
        verdict = checks[-1]
        assert verdict.status == "fail" and not result.found
        assert verdict.detail == (
            "transitions fail validation: chart_membership, unit_determinants")

    def test_missing_pairs_fail_at_once(self):
        td = off_ring_line_bundle()
        del td.matrices[(5, 4)]
        checks, result = equivariance_verdict(td)
        assert [(c.name, c.status) for c in checks] == [
            ("transitions_present", "fail"), ("equivariance", "fail")]
        assert checks[-1].detail == "transitions fail validation: transitions_present"
        assert not result.found

    def test_valid_inputs_report_no_validation_checks(self):
        rng = random.Random(123)
        for fan in ladder_fans():
            td = dressed_draw(fan, 2, rng)
            checks, result = equivariance_verdict(td)
            assert result.found
            assert all(c.name.startswith("triple_identity") for c in checks[:-1])


class TestOneCertificate:
    """The verdict's one certificate agrees with the gauge law it no longer runs."""

    def test_found_splittings_glue(self):
        rng = random.Random(321)
        for fan in ladder_fans():
            for rank in (1, 2, 3):
                td = dressed_draw(fan, rank, rng)
                checks, result = equivariance_verdict(td)
                assert checks[-1].ok and result.found, (fan.dim, rank)
                _, gauge = connection_from_splitting(result.cochain, td)
                assert len(gauge) == len(td.matrices) and all(c.ok for c in gauge)

    def test_listed_gauge_checks_match_the_run_law(self):
        # the split command lists gauge_passes; it must be what the law returns
        rng = random.Random(323)
        draws = [dressed_draw(fan, rank, rng) for fan in ladder_fans() for rank in (1, 2)]
        models = [load_model(str(path)) for path in sorted(MODELS.glob("*.json"))]
        draws += [model.transitions for model in models if model.transitions is not None]
        found = 0
        for td in draws:
            if not all(c.ok for c in validate_transitions(td)):
                continue
            result = split_cocycle(atiyah_cocycle(td), td, antisymmetry=[])
            if result.found:
                found += 1
                _, gauge = connection_from_splitting(result.cochain, td)
                assert as_tuples(gauge_passes(td)) == as_tuples(gauge)
        assert found == len(draws) - 1  # every draw and model but p2_corrupted splits

    def test_perturbed_cochains_agree(self):
        rng = random.Random(322)
        seen = {True: 0, False: 0}
        for fan in ladder_fans():
            td = dressed_draw(fan, 2, rng)
            assert all(c.ok for c in validate_transitions(td))
            A = atiyah_cocycle(td)
            g = split_cocycle(A, td).cochain
            maximal = td.maximal()
            root = maximal[-1]
            E = LaurentMatrix([[X((1,) + (0,) * (fan.dim - 1)), LaurentPoly()],
                               [LaurentPoly.const(2, fan.dim), LaurentPoly()]])

            def moved(change):
                return MatrixCochain(fan, 2, {ci: tuple(change(ci, b, M) for b, M in enumerate(mats))
                                              for ci, mats in g.cones.items()})

            candidates = [
                g,
                # one matrix of one cone off by E
                moved(lambda ci, b, M: M + E if (ci, b) == (maximal[0], 0) else M),
                # E added on every cone: not a splitting unless E commutes with every C
                moved(lambda ci, b, M: M + E),
                # a scalar on every cone commutes with every transition
                moved(lambda ci, b, M: M + LaurentMatrix.identity(2, fan.dim).scale(b + 1)),
                # E conjugated from the root into every chart is again a splitting
                moved(lambda ci, b, M: M + (E if ci == root else td.pair(ci, root) * E * td.pair(root, ci))),
            ]
            for cochain in candidates:
                verified = verify_splitting(cochain, A, td)
                assert verified == gauge_holds(cochain, td)
                seen[verified] += 1
        assert seen[True] and seen[False]


def off_ring_splitting(td, g):
    """g plus C_{sigma r} E C_{r sigma} on every cone, r the root chart.

    It solves the splitting equation whenever g does, but with E = [[chi^e1, 0],
    [2, 0]] its matrices leave their chart rings.
    """
    fan = td.fan
    root = td.maximal()[-1]
    E = LaurentMatrix([[X((1,) + (0,) * (fan.dim - 1)), LaurentPoly()],
                       [LaurentPoly.const(2, fan.dim), LaurentPoly()]])
    return MatrixCochain(fan, 2, {
        ci: tuple(M + (E if ci == root else td.pair(ci, root) * E * td.pair(root, ci)) for M in mats)
        for ci, mats in g.cones.items()})


class TestChartRingCertificate:
    """The certificate requires every g_sigma in its chart ring, beyond the equation."""

    @pytest.mark.parametrize("fan", [projective_fan(1), projective_fan(2)], ids=["P1", "P2"])
    def test_off_ring_candidate_is_a_solver_fault(self, fan, monkeypatch):
        td = dressed_draw(fan, 2, random.Random(606))
        A = atiyah_cocycle(td)
        moved = off_ring_splitting(td, split_cocycle(A, td).cochain)
        assert verify_splitting(moved, A, td)
        assert not any(matrix_chart_member(M, fan.cones[ci], fan)
                       for ci, mats in moved.cones.items() for M in mats)
        monkeypatch.setattr(splitting_mod, "_solve_graded", lambda *a: moved)
        with pytest.raises(RuntimeError, match="outside its chart rings"):
            split_cocycle(A, td)
        with pytest.raises(RuntimeError, match="outside its chart rings"):
            equivariance_verdict(td)


def as_tuples(checks):
    return [(c.name, c.status, c.detail) for c in checks]


def composed_checks(td, monkeypatch):
    """The verdict's checks as the gate and the fully enumerated triple identity give them."""
    checks = [c for c in validate_transitions(td) if not c.ok]
    if any(c.name == "transitions_present" for c in checks):
        return checks
    A = atiyah_cocycle(td)
    with monkeypatch.context() as m:
        m.setattr(cocycles_mod, "triples_through_root", lambda *a: False)
        return checks + check_triple_identity(A, td)


def count_conjugated(monkeypatch):
    """A list that collects the batch size of every conjugations call and conjugation zero test.

    Zero tests of products C * X_b (no D) conjugate nothing and are not counted.
    """
    sizes = []
    real, real_zero = splitting_mod.conjugations, splitting_mod.vanishing

    def spy(C, Xs, D, addends=None):
        Xs = tuple(Xs)
        sizes.append(len(Xs))
        return real(C, Xs, D, addends)

    def zero_spy(C, Xs, D=None, plus=(), minus=()):
        Xs = tuple(Xs)
        if D is not None:
            sizes.append(len(Xs))
        return real_zero(C, Xs, D, plus, minus)

    monkeypatch.setattr(splitting_mod, "conjugations", spy)
    for mod in (cocycles_mod, splitting_mod):
        monkeypatch.setattr(mod, "vanishing", zero_spy)
    return sizes


class TestReducedVerdict:
    """The verdict's root-reduced checks against the composition they replace."""

    def compare(self, td, monkeypatch):
        checks, result = equivariance_verdict(td)
        before = composed_checks(td, monkeypatch)
        assert as_tuples(checks[:-1]) == as_tuples(before)
        if not all(c.ok for c in before):
            assert checks[-1].status == "fail" and not result.found
            return
        reference = split_cocycle(atiyah_cocycle(td), td)
        assert same_search(result, reference)
        assert checks[-1].status == ("pass" if reference.found else "undetermined")
        if result.found:
            assert result.cochain.cones == reference.cochain.cones

    def test_ladder_draws(self, monkeypatch):
        rng = random.Random(505)
        for fan in ladder_fans():
            for rank in (1, 2, 3):
                self.compare(dressed_draw(fan, rank, rng), monkeypatch)

    def test_failing_inputs(self, monkeypatch):
        broken = diagonal_transitions(line_bundle_data(projective_fan(2), 1))
        broken.matrices[(4, 5)] = broken.matrices[(4, 5)] * LaurentMatrix([[X((0, 1))]])
        broken.matrices[(5, 4)] = LaurentMatrix([[X((0, -1))]]) * broken.matrices[(5, 4)]
        corrupted = load_model(str(MODELS / "p2_corrupted.json")).transitions
        for td in (off_ring_line_bundle(), broken, corrupted):
            self.compare(td, monkeypatch)

    @pytest.mark.parametrize("fan, before, after", [
        (projective_fan(2), 34, 16),
        (product_p1_fan(), 90, 30),
        (hirzebruch_fan(1), 90, 30),
        (hirzebruch_fan(2), 90, 30),
        (projective_fan(3), 135, 45),
    ], ids=["P2", "P1xP1", "F1", "F2", "P3"])
    def test_conjugated_matrices_per_verdict(self, fan, before, after, monkeypatch):
        # before: every triple enumerated, then split_cocycle with its own
        # antisymmetry check; both find the splitting at depth 0
        td = dressed_draw(fan, 2, random.Random(707))
        sizes = count_conjugated(monkeypatch)
        checks, result = equivariance_verdict(td)
        assert checks[-1].ok and result.closure_depth == 0
        assert sum(sizes) == after
        sizes.clear()
        A = atiyah_cocycle(td)
        # the verdict's gate recorded the law on td; a copy carries no record,
        # so check_triple_identity runs the patched law and enumerates
        fresh = TransitionData(td.fan, td.rank, dict(td.matrices))
        with monkeypatch.context() as m:
            m.setattr(cocycles_mod, "root_chart_law", lambda data: False)
            assert all(c.ok for c in check_triple_identity(A, fresh))
        assert split_cocycle(A, td).closure_depth == 0
        assert sum(sizes) == before


def perturbed_cocycle(pair, E):
    """atiyah_cocycle with E added to every basis matrix of one ordered pair."""
    def build(td):
        A = atiyah_cocycle(td)
        A.pairs[pair] = tuple(M + E for M in A.pairs[pair])
        return A
    return build


def enumerated_triples(A, td, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cocycles_mod, "triples_through_root", lambda *a: False)
        return check_triple_identity(A, td)


class TestCertificateFirst:
    """A found splitting proves antisymmetry and the triple identity; only a miss checks them."""

    def test_found_verdicts_skip_the_cocycle_checks(self, monkeypatch):
        def refuse(name):
            def spy(*args):
                raise AssertionError(f"{name} ran on a found verdict")
            return spy

        rng = random.Random(808)
        draws = [dressed_draw(fan, rank, rng) for fan in ladder_fans() for rank in (1, 2, 3)]
        found = []
        with monkeypatch.context() as m:
            for mod in (cocycles_mod, splitting_mod):
                for name in ("check_frame_antisymmetry", "triples_through_root"):
                    if hasattr(mod, name):
                        m.setattr(mod, name, refuse(name))
            for td in draws:
                found.append(equivariance_verdict(td))
        for td, (checks, result) in zip(draws, found):
            assert checks[-1].status == "pass" and result.found
            # what the certificate proved, confirmed by full enumeration
            A = atiyah_cocycle(td)
            assert all(c.ok for c in check_frame_antisymmetry(A, td))
            assert as_tuples(checks[:-1]) == as_tuples(enumerated_triples(A, td, monkeypatch))

    @pytest.mark.parametrize("fan", [projective_fan(2), product_p1_fan(), projective_fan(3)],
                             ids=["P2", "P1xP1", "P3"])
    def test_kernel_fault_never_passes(self, fan, monkeypatch):
        td = dressed_draw(fan, 2, random.Random(909))
        maximal = td.maximal()
        root = maximal[-1]
        E = LaurentMatrix([[LaurentPoly(), X((1,) + (0,) * (fan.dim - 1))],
                           [LaurentPoly.const(3, fan.dim), LaurentPoly()]])
        for pair in ((maximal[0], maximal[1]), (maximal[0], root), (root, maximal[1])):
            build = perturbed_cocycle(pair, E)
            monkeypatch.setattr(splitting_mod, "atiyah_cocycle", build)
            checks, result = equivariance_verdict(td)
            reference = enumerated_triples(build(td), td, monkeypatch)
            assert not all(c.ok for c in reference)
            assert as_tuples(checks[:-1]) == as_tuples(reference)
            assert (checks[-1].status, checks[-1].detail) == (
                "fail", "cocycle fails the triple identity")
            assert not result.found and result.weights_searched == 0

    def test_kernel_fault_on_two_charts_never_passes(self, monkeypatch):
        td = dressed_draw(projective_fan(1), 2, random.Random(910))
        E = LaurentMatrix([[LaurentPoly(), LaurentPoly.const(1, 1)],
                           [LaurentPoly.const(3, 1), LaurentPoly()]])
        for pair in ((1, 2), (2, 1)):
            monkeypatch.setattr(splitting_mod, "atiyah_cocycle", perturbed_cocycle(pair, E))
            # no triple to fail; antisymmetry fails, so the solver's failing
            # candidate is a miss, not a solver fault, and the verdict fails
            checks, result = equivariance_verdict(td)
            assert as_tuples(checks) == [
                ("frame_antisymmetry[1,2]", "fail", "pair (1,2)"),
                ("equivariance", "fail", "cocycle fails frame antisymmetry")]
            assert result == SplitResult(None, splitting_mod.weight_cap(), 0, 0)

    def test_no_search_still_lists_the_triples(self):
        td = dressed_draw(projective_fan(2), 2, random.Random(911))
        checks, result = equivariance_verdict(td, cap=-1)
        assert as_tuples(checks[:-1]) == as_tuples(cocycles_mod.triple_passes(td))
        assert len(checks) == 7
        assert checks[-1].status == "undetermined" and "cap -1, 0 weights" in checks[-1].detail
        assert not result.found and result.weight_cap == -1


def reduction_cases():
    """(transitions, cocycle) pairs: ladder draws, ungated scaled transitions, perturbed cocycles.

    A cocycle is perturbed on one ordered pair, which breaks antisymmetry,
    or antisymmetrically, which on three or more charts breaks only triples.
    """
    rng = random.Random(1111)
    for fan in ladder_fans():
        for rank in (1, 2, 3):
            td = dressed_draw(fan, rank, rng)
            yield td, atiyah_cocycle(td)
        # the inverse pairing holds on every pair, the cocycle law fails; the cocycle is unchanged
        for s, t in itertools.combinations(td.maximal(), 2):
            scaled = TransitionData(td.fan, td.rank, dict(td.matrices))
            scaled.matrices[(s, t)] = td.pair(s, t).scale(3)
            scaled.matrices[(t, s)] = td.pair(t, s).scale(Fraction(1, 3))
            yield scaled, atiyah_cocycle(scaled)
    for fan in (projective_fan(1), projective_fan(2), product_p1_fan(), projective_fan(3)):
        td = dressed_draw(fan, 2, random.Random(909))
        maximal = td.maximal()
        E = LaurentMatrix([[LaurentPoly(), X((1,) + (0,) * (fan.dim - 1))],
                           [LaurentPoly.const(3, fan.dim), LaurentPoly()]])
        for pair in sorted({(maximal[0], maximal[1]), (maximal[0], maximal[-1]),
                            (maximal[-1], maximal[1])} & set(td.matrices)):
            yield td, perturbed_cocycle(pair, E)(td)
        yield td, antisymmetric_perturbation(td, E)


class TestReductionPredicate:
    """reduction_holds: the root-chart law, antisymmetry and every triple, decided in that order."""

    def test_matches_law_antisymmetry_and_every_triple(self, monkeypatch):
        seen = set()
        for td, A in reduction_cases():
            facts = (cocycles_mod.root_chart_law(td),
                     all(c.ok for c in check_frame_antisymmetry(A, td)),
                     all(c.ok for c in enumerated_triples(A, td, monkeypatch)))
            seen.add(facts)
            assert cocycles_mod.reduction_holds(A, td) == all(facts), facts
        assert {(True, True, True), (False, True, True), (True, True, False),
                (True, False, False)} <= seen

    def test_a_failing_law_decides_before_the_cocycle_is_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("read past a failing root-chart law")

        td = dressed_draw(projective_fan(2), 2, random.Random(1112))
        s, t = td.maximal()[:2]
        td.matrices[(s, t)] = td.pair(s, t).scale(3)
        td.matrices[(t, s)] = td.pair(t, s).scale(Fraction(1, 3))
        A = atiyah_cocycle(td)
        for name in ("check_frame_antisymmetry", "triples_through_root"):
            monkeypatch.setattr(cocycles_mod, name, refuse)
        assert not cocycles_mod.reduction_holds(A, td)


def count_shift_builds(monkeypatch):
    builds = []
    real = splitting_mod._shifts
    monkeypatch.setattr(splitting_mod, "_shifts", lambda data: builds.append(1) or real(data))
    return builds


class TestShiftsOnlyPastDepthZero:
    """The weight-closure shifts are built only when the search deepens past the seed."""

    def test_no_shifts_for_a_depth_zero_find(self, monkeypatch):
        rng = random.Random(1212)
        draws = [dressed_draw(fan, rank, rng) for fan in ladder_fans() for rank in (1, 2, 3)]
        models = [load_model(str(path)) for path in sorted(MODELS.glob("*.json"))
                  if path.stem != "p2_corrupted"]
        draws += [model.transitions for model in models if model.transitions is not None]
        builds = count_shift_builds(monkeypatch)
        for td in draws:
            result = split_cocycle(atiyah_cocycle(td), td)
            assert result.found and result.closure_depth == 0
            checks, verdict = equivariance_verdict(td)
            assert checks[-1].ok and verdict.closure_depth == 0
        assert builds == []

    def test_a_deeper_search_builds_them_once(self, monkeypatch):
        builds = count_shift_builds(monkeypatch)
        cocycle, td = unsplittable_cocycle()
        result = split_cocycle(cocycle, td, cap=6)
        assert (result.closure_depth, result.weights_searched, result.truncated) == (6, 27, False)
        assert builds == [1]
        builds.clear()
        assert split_cocycle(cocycle, td, cap=0).weights_searched == 3
        assert builds == []


def reference_closure(seed, shifts, depth):
    """The weights within ``depth`` shifts of the seed, rebuilt from the seed, and whether the cap cut them.

    The closure the search used before it grew one level per depth: it stops
    after a level that takes it past _MAX_WEIGHTS, and is truncated when
    levels up to ``depth`` were left unbuilt.
    """
    weights = set(seed)
    frontier = set(seed)
    for level in range(1, depth + 1):
        new = set()
        for w in frontier:
            for d in shifts:
                x = vec_add(w, d)
                if x not in weights:
                    new.add(x)
        if not new:
            break
        weights |= new
        frontier = new
        if len(weights) > splitting_mod._MAX_WEIGHTS:
            return weights, level < depth
    return weights, False


def reference_search(cocycle, td, cap):
    """The search over reference_closure: (found, depth, weights, truncated) and the sets it solved."""
    seed = splitting_mod._seed(cocycle, td)
    shifts = splitting_mod._shifts(td)
    last_count, depth_used, truncated, solved = 0, 0, False, []
    cochain = None
    for depth in range(cap + 1):
        weights, truncated = reference_closure(seed, shifts if depth else (), depth)
        if depth > 0 and len(weights) == last_count:
            break
        last_count, depth_used = len(weights), depth
        solved.append(sorted(weights))
        cochain = splitting_mod._solve_graded(cocycle, td, sorted(weights))
        if cochain is not None:
            cochain = splitting_mod._require_splitting(cochain, cocycle, td)
        if cochain is not None:
            break
    return (cochain is not None, depth_used, last_count, truncated), solved


def outcome(result):
    return result.found, result.closure_depth, result.weights_searched, result.truncated


def antisymmetric_perturbation(td, E):
    """atiyah_cocycle with E added on the first ordered pair (s, t) and C_ts E C_st taken from (t, s)."""
    A = atiyah_cocycle(td)
    s, t = td.ordered_pairs()[0]
    pairs = dict(A.pairs)
    pairs[(s, t)] = tuple(M + E for M in A.pairs[(s, t)])
    pairs[(t, s)] = tuple(M - td.pair(t, s) * E * td.pair(s, t) for M in A.pairs[(t, s)])
    return MatrixCocycle(A.fan, A.rank, pairs)


def closure_cases():
    """Antisymmetric cocycles that no depth-0 solve splits: they grow, saturate or get cut."""
    yield unsplittable_cocycle()
    off = LaurentMatrix([[LaurentPoly(), X((-1,))], [LaurentPoly(), LaurentPoly()]])
    for seed in (101, 111):  # closures of 5, 26, 44, ... and 5, 17, 29, ... weights
        td = dressed_draw(projective_fan(1), 2, random.Random(seed))
        yield antisymmetric_perturbation(td, off), td
    td = dressed_draw(projective_fan(2), 2, random.Random(104))  # 6, 44, 113, ... weights
    yield antisymmetric_perturbation(td, LaurentMatrix(
        [[LaurentPoly(), X((-1, 0))], [LaurentPoly(), LaurentPoly()]])), td
    td = diagonal_transitions(line_bundle_data(projective_fan(2), 1))  # rank 1: no shifts
    yield antisymmetric_perturbation(td, LaurentMatrix([[X((-1, 0))]])), td


class TestOneLevelPerDepth:
    """The closure grown one level per depth against the closure rebuilt from the seed at each depth."""

    LIMITS = (1, 6, 40, 4000)

    def test_outcomes_match_the_rebuilt_closure(self, monkeypatch):
        builds = count_shift_builds(monkeypatch)
        for cocycle, td in closure_cases():
            for limit in self.LIMITS:
                monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", limit)
                for cap in range(7):
                    builds.clear()
                    ours = outcome(split_cocycle(cocycle, td, cap=cap))
                    assert len(builds) <= 1
                    assert ours == reference_search(cocycle, td, cap)[0], (limit, cap)

    def test_every_solve_sees_the_rebuilt_weights(self, monkeypatch):
        # the limits also sit exactly at each level's size, where the search must go on
        solved = []
        monkeypatch.setattr(splitting_mod, "_solve_graded",
                            lambda cocycle, td, weights: solved.append(list(weights)))
        for cocycle, td in closure_cases():
            monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", 4000)
            _, levels = reference_search(cocycle, td, 6)
            for limit in sorted(set(self.LIMITS) | {len(w) for w in levels}):
                monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", limit)
                for cap in range(-1, 7):
                    expected, sets = reference_search(cocycle, td, cap)
                    solved.clear()
                    ours = outcome(split_cocycle(cocycle, td, cap=cap))
                    assert (ours, solved) == (expected, sets), (limit, cap)

    def test_levels_of_the_unsplittable_cocycle(self, monkeypatch):
        # 3, 7, 11, ... weights: the search stops past the limit, saturates never
        cocycle, td = unsplittable_cocycle()
        monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", 7)
        assert outcome(split_cocycle(cocycle, td, cap=6)) == (False, 2, 11, True)
        monkeypatch.setattr(splitting_mod, "_MAX_WEIGHTS", 1)
        assert outcome(split_cocycle(cocycle, td, cap=6)) == (False, 1, 7, True)
        assert outcome(split_cocycle(cocycle, td, cap=1)) == (False, 1, 7, False)
        assert outcome(split_cocycle(cocycle, td, cap=-1)) == (False, 0, 0, False)


def full_build_solve(cocycle, td, weights):
    """_solve_graded without the reach: every row built and eliminated in sorted key order."""
    rhs = splitting_mod._right_hand_sides(cocycle, td)
    unknowns, index, entries, _ = splitting_mod._graded_system(cocycle, td, weights, rhs)
    zero = [0] * td.fan.dim
    solved = linalg_mod.eliminate([(entries[index[key]], rhs.get(key, zero))
                                   for key in sorted(index)])
    if solved is None:
        return None
    return splitting_mod._assemble(cocycle, td, unknowns, solved[0])


@st.composite
def block_systems(draw):
    """A sparse integer system as (key, entries, rhs) rows in key order, in disjoint blocks.

    Each block has its own unknowns and a hidden integer solution, zero in
    about a third of the blocks, which then have a zero right-hand side
    throughout.  Rows may repeat others up to a factor (rank-deficient) or
    be empty, and about one in sixteen of the other blocks' rows has its
    right-hand side moved off the hidden solution (mostly inconsistent).
    """
    rows, first = [], 0
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 4))
        unknowns = range(first, first + size)
        first += size
        homogeneous = draw(st.integers(0, 2)) == 0
        hidden = {var: [0, 0] if homogeneous else [draw(st.integers(-2, 2)) for _ in range(2)]
                  for var in unknowns}
        block = []
        for _ in range(draw(st.integers(1, 6))):
            if block and draw(st.booleans()):
                f = draw(st.sampled_from([-2, -1, 1, 2]))
                entry = {var: f * c for var, c in draw(st.sampled_from(block)).items()}
            else:
                chosen = draw(st.lists(st.sampled_from(unknowns), max_size=3, unique=True))
                entry = {var: draw(st.integers(-3, 3).filter(bool)) for var in chosen}
            block.append(entry)
            vec = [sum(c * hidden[var][b] for var, c in entry.items()) for b in range(2)]
            if not homogeneous and draw(st.integers(0, 15)) == 0:
                vec[draw(st.integers(0, 1))] += draw(st.sampled_from([-1, 1]))
            rows.append((entry, vec))
    keys = draw(st.permutations(range(len(rows))))
    return sorted(zip(keys, (e for e, _ in rows), (v for _, v in rows)), key=lambda row: row[0])


class TestReach:
    """Only the rows a right-hand side reaches are eliminated, with the outputs of the whole system."""

    @given(block_systems())
    @settings(max_examples=300, deadline=None)
    def test_reached_rows_solve_as_the_whole_system(self, system):
        # the sources are numbered first, as _graded_system numbers the rows of rhs
        order = [row for row in system if any(row[2])] + [row for row in system if not any(row[2])]
        index = {key: i for i, (key, _, _) in enumerate(order)}
        entries = [entry for _, entry, _ in order]
        columns = [[] for _ in range(1 + max((v for e in entries for v in e), default=0))]
        for i, entry in enumerate(entries):
            for var in entry:
                columns[var].append(i)
        sources = sum(1 for row in system if any(row[2]))
        keys = splitting_mod._reached(index, entries, columns, sources)
        rhs = {key: vec for key, _, vec in system}
        full = linalg_mod.eliminate([(entry, vec) for _, entry, vec in system])
        part = linalg_mod.eliminate([(entries[index[key]], rhs[key]) for key in keys])
        assert (full is None) == (part is None)
        assert keys == sorted(keys) and {key for key, _, vec in system if any(vec)} <= set(keys)
        if full is None:
            return
        reached = {var for key in keys for var in entries[index[key]]}
        assert part[0] == {var: pivot for var, pivot in full[0].items() if var in reached}
        assert all(not any(pvec) for var, (_, pvec) in full[0].items() if var not in reached)

    def test_parity_with_the_full_build(self):
        surfaces = [projective_fan(2), product_p1_fan(), hirzebruch_fan(1), hirzebruch_fan(2)]
        draws = [dressed_draw(fan, rank, random.Random(seed))
                 for fan in ladder_fans() for rank in (1, 2, 3) for seed in range(3)]
        draws += [random_transition_data(fan, 2, random.Random(seed))
                  for fan in surfaces for seed in range(2)]
        draws += [load_model(str(path)).transitions for path in sorted(MODELS.glob("*.json"))]
        draws = [td for td in draws if td is not None]
        # the draws and models at depth 0, where each is decided; the perturbed
        # cocycles, which miss, at depths 0 and 1
        cases = [(atiyah_cocycle(td), td, 0) for td in draws]
        cases += [(cocycle, td, 1) for cocycle, td in closure_cases()]
        solved = 0
        for cocycle, td, depth in cases:
            seed = splitting_mod._seed(cocycle, td)
            levels = [seed, seed | {vec_add(w, d) for w in seed for d in splitting_mod._shifts(td)}]
            for weights in levels[:depth + 1]:
                weights = sorted(weights)
                ours = splitting_mod._solve_graded(cocycle, td, weights)
                theirs = full_build_solve(cocycle, td, weights)
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert ours.cones == theirs.cones
                    solved += 1
        assert solved >= len(draws)

    @pytest.mark.parametrize("td", [
        diagonal_transitions(line_bundle_data(projective_fan(2), 1)),
        dressed_draw(projective_fan(1), 2, random.Random(0)),
    ], ids=["diagonal-P2", "dressed-P1-seed-0"])
    def test_no_off_chart_term_builds_no_row(self, td, monkeypatch):
        A = atiyah_cocycle(td)
        root = td.maximal()[-1]
        assert all(in_chart(m, td.fan.ray_matrix(td.fan.cones[t]))
                   for t in td.maximal()[:-1] for M in A.pairs[(t, root)]
                   for row in M.entries for f in row for m in f.terms)
        def refuse(name):
            def spy(*args):
                raise AssertionError(f"{name} ran on a system with no right-hand side")
            return spy

        monkeypatch.setattr(splitting_mod, "_graded_system", refuse("_graded_system"))
        monkeypatch.setattr(splitting_mod, "eliminate", refuse("eliminate"))
        result = split_cocycle(A, td)
        assert result.found and result.closure_depth == 0
        assert verify_splitting(result.cochain, A, td)
        assert all(M == LaurentMatrix.zero(td.rank)
                   for M in result.cochain.cones[root])
