from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from torlog import corpus as corpus_mod
from torlog.bundles import is_compatible
from torlog.cocycles import validate_transitions
from torlog.corpus import (
    chart_monomial,
    diagonal_transitions,
    dressed_transitions,
    line_bundle_data,
    random_dressing,
    random_equivariant_data,
    random_ray_values,
    solve_cone_weight,
    surface_fans,
    weights_from_ray_values,
)
from torlog.fans import build_fan, hirzebruch_fan, product_p1_fan, projective_fan, validate_fan
from torlog.laurent import LaurentMatrix, LaurentPoly, chart_member, matrix_det, matrix_inverse_unit


class TestWeightSolving:
    def test_basis_cone(self):
        fan = projective_fan(2)
        assert solve_cone_weight(fan, 4, {0: -1, 1: 0, 2: 0}) == (1, 0)
        assert solve_cone_weight(fan, 4, {0: 0, 1: -2, 2: 0}) == (0, 2)

    def test_all_cones_covered(self):
        fan = projective_fan(2)
        ws = weights_from_ray_values(fan, {0: 1, 1: -1, 2: 2})
        assert sorted(ws) == fan.maximal_cone_indices()

    def test_solution_solves_the_defining_equations(self):
        rng = random.Random(5)
        for fan in surface_fans():
            values = {k: rng.randint(-4, 4) for k in range(len(fan.rays))}
            for ci, m in weights_from_ray_values(fan, values).items():
                for k in fan.cones[ci].ray_indices:
                    assert sum(a * b for a, b in zip(m, fan.rays[k])) == -values[k]

    def test_non_full_dimensional_cone_rejected(self):
        fan, _ = build_fan([(1, 0)], [(), (0,)], dim=2)
        with pytest.raises(ValueError):
            solve_cone_weight(fan, 1, {0: 1})

    def test_non_smooth_cone_rejected(self):
        fan, _ = build_fan([(1, 0), (1, 2)], [(), (0,), (1,), (0, 1)])
        with pytest.raises(ValueError):
            solve_cone_weight(fan, 3, {0: 1, 1: 0})


class TestGenerators:
    def test_random_data_is_compatible(self):
        rng = random.Random(1)
        for fan in surface_fans():
            for rank in (1, 2, 3):
                data = random_equivariant_data(fan, rank, rng)
                assert data.rank == rank
                assert is_compatible(data)

    def test_line_bundle_ray_selection(self):
        fan = projective_fan(1)
        on_last = line_bundle_data(fan, 2)
        on_first = line_bundle_data(fan, 2, ray=0)
        assert on_last.weights == {1: ((0,),), 2: ((2,),)}
        assert on_first.weights == {1: ((-2,),), 2: ((0,),)}

    def test_diagonal_transitions_cover_ordered_pairs(self):
        data = line_bundle_data(projective_fan(2), 1)
        td = diagonal_transitions(data)
        assert sorted(td.matrices) == [
            (4, 5), (4, 6), (5, 4), (5, 6), (6, 4), (6, 5)]
        assert all(c.ok for c in validate_transitions(td))

    def test_chart_monomials_stay_in_chart(self):
        rng = random.Random(2)
        for fan in surface_fans():
            for ci in fan.maximal_cone_indices():
                for _ in range(20):
                    m = chart_monomial(fan, ci, rng)
                    assert chart_member(
                        LaurentPoly.monomial(m), fan.cones[ci], fan)

    def test_dressings_are_unimodular_over_their_chart(self):
        rng = random.Random(3)
        for fan in surface_fans():
            dressing = random_dressing(fan, 3, rng)
            for ci, H in dressing.items():
                det = matrix_det(H)
                assert det == LaurentPoly.const(1, fan.dim)
                assert all(
                    chart_member(f, fan.cones[ci], fan)
                    for row in H.entries for f in row)

    def test_surface_fans_are_smooth_and_complete(self):
        fans = surface_fans()
        assert len(fans) == 3
        for fan in fans:
            assert fan.declared_complete
            assert all(c.ok for c in validate_fan(fan))


def ladder_fans():
    return [projective_fan(1), projective_fan(2), product_p1_fan(),
            hirzebruch_fan(1), hirzebruch_fan(2), projective_fan(3)]


def ladder_digest(seed: int, rank: int = 2, factors: int = 1) -> str:
    """SHA-256 of one seeded ladder draw: weights and dressed transitions of the
    given rank and dressing factors on P1, P2, P1xP1, F1, F2 and P3 from one
    rng, then the rng's next 64 bits."""
    rng = random.Random(seed)
    payload = []
    for fan in ladder_fans():
        data = random_equivariant_data(fan, rank, rng)
        td = dressed_transitions(data, random_dressing(fan, rank, rng, factors=factors))
        payload.append(sorted(data.weights.items()))
        payload.append([[s, t, [[sorted((list(e), str(c)) for e, c in f.terms.items())
                                  for f in row] for row in M.entries]]
                        for (s, t), M in sorted(td.matrices.items())])
    payload.append(rng.getrandbits(64))
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestDrawsArePinned:
    def test_ladder_draw_digest(self):
        # computed before the ray-matrix inverses were memoised: the same
        # seed must keep giving the same draws and the same rng state
        assert ladder_digest(7) == (
            "3b715a6f480324dadf90c4fc447bf367adc5fe03c93dbc728fb6c502f429e5c1")

    # computed at the commit before the weights were solved in int arithmetic
    # and the diagonal applied as a column shift; rank 2 with one factor is
    # the digest above
    @pytest.mark.parametrize("rank, factors, digest", [
        (1, 0, "384c9e1be10704ba97bfe3f4c70fc49e615c5810f13e97c7d7f8f0132e45ba17"),
        (1, 1, "384c9e1be10704ba97bfe3f4c70fc49e615c5810f13e97c7d7f8f0132e45ba17"),
        (1, 2, "384c9e1be10704ba97bfe3f4c70fc49e615c5810f13e97c7d7f8f0132e45ba17"),
        (2, 0, "d0885fccfb081fe217ae3ea35c513c4099085949a50fab0f307a0552fe6f0f58"),
        (2, 2, "385677b947991dd6e546a5c7509a6c30348f8f1a558330a6a2531f4a12340e1f"),
        (3, 0, "1facada34bb12e3a884a8021de43aeb0ec46938c1ee8be563a4b9df0f075b1ae"),
        (3, 1, "16cede8141170a3df29cb97685d33d3c819dbf451f29d6813523097de17bb910"),
        (3, 2, "60c62eb139d8eb88c8df44311dc81fd1de989f4bdfb06bb44c1b8955188ac06e"),
    ])
    def test_draw_digest_by_rank_and_factors(self, rank, factors, digest):
        assert ladder_digest(7, rank, factors) == digest


def fraction_solve(rays, values):
    """The m with <m, v_k> = -a_k by Gauss-Jordan elimination over Fraction."""
    n = len(rays)
    work = [[Fraction(x) for x in row] + [-Fraction(a)] for row, a in zip(rays, values)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col])
        work[col], work[piv] = work[piv], work[col]
        work[col] = [a / work[col][col] for a in work[col]]
        for i in range(n):
            if i != col:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return tuple(row[n] for row in work)


class TestIntegerWeightSolve:
    """On unimodular cones the weights are solved in int arithmetic."""

    def test_matches_the_fraction_solve_on_every_ladder_fan(self):
        rng = random.Random(1010)
        for fan in ladder_fans():
            for _ in range(30):
                values = random_ray_values(fan, rng, bound=9)
                for ci in fan.maximal_cone_indices():
                    m = solve_cone_weight(fan, ci, values)
                    assert m == fraction_solve(fan.ray_matrix(fan.cones[ci]),
                                               [values[k] for k in fan.cones[ci].ray_indices])
                    assert all(type(x) is int for x in m)

    def test_fraction_values_take_the_exact_route(self):
        fan = projective_fan(2)
        m = solve_cone_weight(fan, 4, {0: Fraction(2), 1: Fraction(-3), 2: 0})
        assert m == (-2, 3) and all(type(x) is int for x in m)
        with pytest.raises(ValueError, match="non-integral weight on cone 4"):
            solve_cone_weight(fan, 4, {0: Fraction(1, 2), 1: 0, 2: 0})

    # messages recorded at the commit before the int solve
    @pytest.mark.parametrize("values, message", [
        ({0: 1, 1: 0}, "non-integral weight on cone 3: [Fraction(-1, 1), Fraction(1, 2)]"),
        ({0: 0, 1: 1}, "non-integral weight on cone 3: [Fraction(0, 1), Fraction(-1, 2)]"),
    ])
    def test_non_smooth_cone_keeps_its_error(self, values, message):
        fan, _ = build_fan([(1, 0), (1, 2)], [(), (0,), (1,), (0, 1)])
        with pytest.raises(ValueError) as err:
            solve_cone_weight(fan, 3, values)
        assert str(err.value) == message
        with pytest.raises(ValueError, match="^dual basis is not integral; cone is not smooth$"):
            chart_monomial(fan, 3, random.Random(1))

    def test_non_smooth_cone_with_an_integral_solution(self):
        fan, _ = build_fan([(1, 0), (1, 2)], [(), (0,), (1,), (0, 1)])
        assert solve_cone_weight(fan, 3, {0: 0, 1: 0}) == (0, 0)
        assert solve_cone_weight(fan, 3, {0: 2, 1: 2}) == (-2, 0)

    def test_non_full_dimensional_and_singular_cones_keep_their_errors(self):
        fan, _ = build_fan([(1, 0)], [(), (0,)], dim=2)
        for draw in (lambda: solve_cone_weight(fan, 1, {0: 1}),
                     lambda: chart_monomial(fan, 1, random.Random(1))):
            with pytest.raises(ValueError, match="^corpus generators need full-dimensional"):
                draw()
        fan, _ = build_fan([(1, 0), (2, 1), (1, 0)], [(), (0,), (0, 2)])
        with pytest.raises(ValueError, match="^ray matrix is singular$"):
            solve_cone_weight(fan, 2, {0: 1, 1: 0, 2: 0})


class TestOneProductPerPair:
    def test_matches_the_two_product_formula(self):
        rng = random.Random(1111)
        for fan in ladder_fans():
            for rank in (1, 2, 3):
                data = random_equivariant_data(fan, rank, rng)
                dressing = random_dressing(fan, rank, rng)
                got = dressed_transitions(data, dressing).matrices
                want = {(s, t): dressing[s] * D * matrix_inverse_unit(dressing[t])
                        for (s, t), D in diagonal_transitions(data).matrices.items()}
                assert list(got) == list(want)
                assert got == want

    def test_no_diagonal_and_one_product_per_pair(self, monkeypatch):
        monkeypatch.setattr(corpus_mod, "diagonal_transitions", None)
        products = []
        real = LaurentMatrix.__mul__
        monkeypatch.setattr(LaurentMatrix, "__mul__",
                            lambda A, B: products.append(1) or real(A, B))
        fan = projective_fan(2)
        rng = random.Random(12)
        data = random_equivariant_data(fan, 3, rng)
        dressing = random_dressing(fan, 3, rng, factors=0)
        td = dressed_transitions(data, dressing)
        assert len(products) == len(td.matrices) == 6
