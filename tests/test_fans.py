from __future__ import annotations

import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, strategies as st

from torlog import fans as fans_mod
from torlog.fans import (
    Cone,
    DimensionError,
    build_fan,
    cone_is_smooth,
    downward_closure,
    hirzebruch_fan,
    is_face,
    pairing,
    primitivize,
    product_p1_fan,
    projective_fan,
    ray_inverse,
    validate_fan,
    vec_add,
    vec_adder,
)
from torlog.linalg import rank_det


def checks_by_name(checks):
    return {c.name: c for c in checks}


class TestPairing:
    def test_orthogonal_basis(self):
        assert pairing((1, 0), (0, 1)) == 0

    def test_coordinate_projection(self):
        assert pairing((2, 3), (1, 0)) == 2

    def test_dot_product(self):
        assert pairing((1, 1), (-1, -1)) == -2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pairing((1, 0), (1,))

    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    )
    def test_bilinear(self, m1, m2, v):
        m1, m2, v = tuple(m1), tuple(m2), tuple(v)
        s = tuple(a + b for a, b in zip(m1, m2))
        assert pairing(s, v) == pairing(m1, v) + pairing(m2, v)


class TestPrimitivize:
    def test_gcd_division(self):
        assert primitivize((2, 4)) == (1, 2)

    def test_already_primitive(self):
        assert primitivize((1, 0)) == (1, 0)

    def test_sign_preserved(self):
        assert primitivize((-3, 6)) == (-1, 2)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            primitivize((0, 0))

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=4).filter(lambda v: any(v)))
    def test_idempotent(self, v):
        p = primitivize(tuple(v))
        assert primitivize(p) == p


class TestFaces:
    def setup_method(self):
        self.fan = projective_fan(2)

    def test_zero_cone_is_face_of_all(self):
        zero = self.fan.cones[0]
        for c in self.fan.cones:
            assert is_face(zero, c, self.fan)

    def test_subset(self):
        tau = self.fan.cones[self.fan.cone_index((0,))]
        sigma = self.fan.cones[self.fan.cone_index((0, 1))]
        assert is_face(tau, sigma, self.fan)

    def test_disjoint(self):
        tau = self.fan.cones[self.fan.cone_index((2,))]
        sigma = self.fan.cones[self.fan.cone_index((0, 1))]
        assert not is_face(tau, sigma, self.fan)

    def test_unknown_cone(self):
        with pytest.raises(ValueError):
            is_face(Cone((0, 1, 2)), self.fan.cones[0], self.fan)

    def test_reflexive_and_transitive(self):
        fan = self.fan
        for c in fan.cones:
            assert is_face(c, c, fan)
        for a in fan.cones:
            for b in fan.cones:
                for c in fan.cones:
                    if is_face(a, b, fan) and is_face(b, c, fan):
                        assert is_face(a, c, fan)


class TestValidateFan:
    def test_p1_all_pass(self):
        fan, warnings = build_fan([(1,), (-1,)], [(), (0,), (1,)], declared_complete=True)
        assert warnings == []
        assert all(c.ok for c in validate_fan(fan))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projective_spaces_pass(self, n):
        assert all(c.ok for c in validate_fan(projective_fan(n)))

    def test_stock_surfaces_pass(self):
        for fan in (product_p1_fan(), hirzebruch_fan(1), hirzebruch_fan(3)):
            assert all(c.ok for c in validate_fan(fan))

    def test_non_smooth_cone(self):
        fan, _ = build_fan([(1, 0), (1, 2)], [(), (0,), (1,), (0, 1)])
        by = checks_by_name(validate_fan(fan))
        assert by["smooth"].status == "fail"
        assert by["simplicial"].status == "pass"
        assert not cone_is_smooth(fan, fan.cones[3])

    def test_non_simplicial(self):
        fan, _ = build_fan([(1, 0), (-1, 0)], [(), (0,), (1,), (0, 1)])
        by = checks_by_name(validate_fan(fan))
        assert by["simplicial"].status == "fail"
        assert by["complete"].status == "undetermined"

    def test_non_simplicial_cones_are_not_smooth(self):
        rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]
        cones = [(), (0,), (1,), (2,), (0, 1), (0, 1, 2), (0, 2), (1, 2)]
        by = checks_by_name(validate_fan(build_fan(rays, cones)[0]))
        assert by["simplicial"].detail == "linearly dependent generators in cones [4, 5]"
        assert by["smooth"].status == "fail"
        assert by["smooth"].detail == "non-smooth cones [4, 5]"

    def test_duplicate_cones(self):
        fan, _ = build_fan([(1,), (-1,)], [(), (0,), (1,), (0,)])
        assert checks_by_name(validate_fan(fan))["distinct_cones"].status == "fail"

    def test_face_closure_missing(self):
        fan, _ = build_fan([(1, 0), (0, 1)], [(), (0, 1)])
        by = checks_by_name(validate_fan(fan))
        assert by["face_closure"].status == "fail"

    def test_half_open_fan_passes_without_claim(self):
        rays = [(1, 0), (-1, 0), (0, 1)]
        cones = [(), (0,), (1,), (2,), (0, 2), (1, 2)]
        fan, _ = build_fan(rays, cones)
        by = checks_by_name(validate_fan(fan))
        assert by["complete"].status == "pass"
        assert "not complete" in by["complete"].detail

    def test_half_open_fan_contradicts_declaration(self):
        rays = [(1, 0), (-1, 0), (0, 1)]
        cones = [(), (0,), (1,), (2,), (0, 2), (1, 2)]
        fan, _ = build_fan(rays, cones, declared_complete=True)
        assert checks_by_name(validate_fan(fan))["complete"].status == "fail"

    def test_lower_dimensional_maximal_cone_undetermined(self):
        fan, _ = build_fan([(1, 0)], [(), (0,)], dim=2)
        assert checks_by_name(validate_fan(fan))["complete"].status == "undetermined"


class TestBuildFan:
    def test_normalization_warning(self):
        fan, warnings = build_fan([(2, 4), (0, 1)], [(), (0,), (1,)])
        assert fan.rays[0] == (1, 2)
        assert len(warnings) == 1 and "ray 0" in warnings[0]

    def test_missing_ray_reference(self):
        with pytest.raises(ValueError):
            build_fan([(1, 0)], [(0, 5)])

    def test_ray_length_mismatch(self):
        with pytest.raises(DimensionError):
            build_fan([(1, 0), (1,)], [(0,)])

    def test_no_rays_need_a_declared_dim(self):
        with pytest.raises(ValueError, match="^cannot infer ambient rank from an empty ray list$"):
            build_fan([], [])

    def test_cone_index_of_a_missing_cone_raises(self):
        fan = projective_fan(2)
        with pytest.raises(ValueError, match=r"^no cone with rays \(0, 1, 2\) in this fan$"):
            fan.cone_index((2, 1, 0))

    @pytest.mark.parametrize("ray", [(1.5, 0), (1.0, 0), ("1", 0)])
    def test_a_ray_entry_that_is_not_an_int_raises(self, ray):
        with pytest.raises(TypeError):
            build_fan([ray, (-1, 0)], [(), (0,), (1,)])


class TestLattice:
    def test_smooth_lower_dimensional_cone(self):
        fan, _ = build_fan([(3, 5)], [(), (0,)], dim=2)
        assert cone_is_smooth(fan, fan.cones[1])
        # (1,0,0) and (1,2,0) span a saturated sublattice only of index 2
        fan2, _ = build_fan(
            [(1, 0, 0), (1, 2, 0)], [(), (0,), (1,), (0, 1)], dim=3)
        assert not cone_is_smooth(fan2, fan2.cones[3])
        # (1,0,0) and (-1,0,0) are dependent: invariants [1], yet no basis
        fan3, _ = build_fan(
            [(1, 0, 0), (-1, 0, 0)], [(), (0,), (1,), (0, 1)], dim=3)
        assert not cone_is_smooth(fan3, fan3.cones[3])
        # the 2 x 2 minors of (1,1,0), (0,1,1) are 1, 1 and 1
        fan4, _ = build_fan(
            [(1, 1, 0), (0, 1, 1)], [(), (0,), (1,), (0, 1)], dim=3)
        assert cone_is_smooth(fan4, fan4.cones[3])
        # the 2 x 2 minors of (2,1,0), (0,1,2) are 2, 4 and 2: gcd 2
        fan5, _ = build_fan(
            [(2, 1, 0), (0, 1, 2)], [(), (0,), (1,), (0, 1)], dim=3)
        assert not cone_is_smooth(fan5, fan5.cones[3])
        fan6, _ = build_fan([(2, 3, 0)], [(), (0,)], dim=3)
        assert cone_is_smooth(fan6, fan6.cones[1])

    def test_maximal_and_overlap(self):
        fan = product_p1_fan()
        maximal = fan.maximal_cone_indices()
        assert [fan.cones[i].ray_indices for i in maximal] == [
            (0, 2), (0, 3), (1, 2), (1, 3)]
        shared = fan.cones[fan.overlap_index(maximal[0], maximal[2])]
        assert shared.ray_indices == (2,)
        # opposite charts meet only at the origin
        assert fan.cones[fan.overlap_index(maximal[0], maximal[3])].ray_indices == ()


def test_random_fans_have_consistent_maximal_sets():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        fan = projective_fan(n)
        maximal = fan.maximal_cone_indices()
        assert len(maximal) == n + 1
        for i in maximal:
            assert fan.cones[i].dim == n


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction, the reference for rank_det."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def cofactor_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * a * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def seeded_matrices(seed, count):
    """Integer matrices up to 4x4: dense, low-rank products, and with zero rows."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        kind = rng.choice(["dense", "low_rank", "zero_rows"])
        if kind == "low_rank":
            r = rng.randint(1, min(m, n))
            a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            rows = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)]
                    for i in range(m)]
        else:
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            if kind == "zero_rows":
                for i in rng.sample(range(m), rng.randint(1, m)):
                    rows[i] = [0] * n
        yield rows


class TestBareiss:
    """rank_det, the rank and determinant behind the simplicial and smooth checks."""

    def test_matches_fraction_rank_and_cofactor_determinant(self):
        squares = 0
        for rows in seeded_matrices(1968, 600):
            rank, det = rank_det(rows)
            assert rank == fraction_rank(rows), rows
            if len(rows) == len(rows[0]):
                squares += 1
                assert det == cofactor_det(rows), rows
            else:
                assert det == 0
        assert squares > 100

    @pytest.mark.parametrize("rows, rank, det", [
        ([[0, 1], [1, 0]], 2, -1),                       # one swap
        ([[-2, 1], [1, -2]], 2, 3),                      # negative pivots
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3, -1),
        ([[2, 4], [1, 2]], 1, 0),
        ([[0, 0], [0, 0]], 0, 0),
        ([[0, 0, 0], [0, -3, 1]], 1, 0),                 # a zero row first, a skipped column
        ([[-1, 2, 0], [3, 0, 5], [0, 0, 0]], 2, 0),
        ([[0, 2], [0, 3], [1, 0]], 2, 0),
        ([[-7]], 1, -7),
    ])
    def test_small_cases(self, rows, rank, det):
        assert rank_det(rows) == (rank, det)

    def test_input_is_not_modified(self):
        rows = [[2, 1], [4, 3]]
        assert rank_det(rows) == (2, 2)
        assert rows == [[2, 1], [4, 3]]


class TestMaximalCones:
    def test_matches_the_definition(self):
        fans = [projective_fan(1), projective_fan(2), projective_fan(3), product_p1_fan(),
                hirzebruch_fan(1), build_fan([(1, 0), (0, 1)], [(), (0,), (1,), (0, 1)])[0],
                build_fan([(1, 0), (0, 1), (-1, -1)], [(), (0,), (1,), (2,), (0, 1)])[0]]
        for fan in fans:
            cones = [set(c.ray_indices) for c in fan.cones]
            assert fan.maximal_cone_indices() == [
                i for i, c in enumerate(cones)
                if not any(j != i and c < d for j, d in enumerate(cones))]

    def test_each_call_returns_a_fresh_list(self):
        fan = projective_fan(2)
        first = fan.maximal_cone_indices()
        first.append(99)
        first.sort(reverse=True)
        assert fan.maximal_cone_indices() == [4, 5, 6]
        assert fan.maximal_cone_indices() is not fan.maximal_cone_indices()


def fan_fixtures():
    """Every fan this file builds, passing and failing, plus cones with a repeated ray."""
    fixtures = [projective_fan(1), projective_fan(2), projective_fan(3), product_p1_fan(),
                hirzebruch_fan(1), hirzebruch_fan(2), hirzebruch_fan(3)]
    for rays, cones, kw in [
        ([(1,), (-1,)], [(), (0,), (1,)], {"declared_complete": True}),
        ([(1, 0), (1, 2)], [(), (0,), (1,), (0, 1)], {}),
        ([(1, 0), (-1, 0)], [(), (0,), (1,), (0, 1)], {}),
        ([(1,), (-1,)], [(), (0,), (1,), (0,)], {}),
        ([(1, 0), (0, 1)], [(), (0, 1)], {}),
        ([(1, 0), (0, 1)], [(), (0,), (0, 1)], {}),
        ([(1, 0), (-1, 0), (0, 1)], [(), (0,), (1,), (2,), (0, 2), (1, 2)], {}),
        ([(1, 0), (-1, 0), (0, 1)], [(), (0,), (1,), (2,), (0, 2), (1, 2)],
         {"declared_complete": True}),
        ([(1, 0)], [(), (0,)], {"dim": 2}),
        ([(3, 5)], [(), (0,)], {"dim": 2}),
        ([(1, 0, 0), (1, 2, 0)], [(), (0,), (1,), (0, 1)], {"dim": 3}),
        ([(2, 4), (0, 1)], [(), (0,), (1,)], {}),
        ([(1, 0), (0, 1)], [(), (0,), (1,), (0, 1), (0, 0)], {}),
        ([(1, 0), (0, 1)], [(), (0,), (0, 1), (0, 0)], {}),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], downward_closure([(0, 1, 2)]) + [(0, 0, 1)], {}),
    ]:
        fixtures.append(build_fan(rays, cones, **kw)[0])
    return fixtures


def as_tuples(checks):
    return [(c.name, c.status, c.detail) for c in checks]


class TestChecksFromTheMaximalCones:
    """Unimodular maximal cones prove simplicial and smooth; their faces prove face closure."""

    def test_every_fixture_matches_the_enumeration(self, monkeypatch):
        fixtures = fan_fixtures()
        proved = [as_tuples(validate_fan(fan)) for fan in fixtures]
        monkeypatch.setattr(fans_mod, "_maximal_cones_unimodular", lambda fan: False)
        monkeypatch.setattr(fans_mod, "_maximal_faces_listed", lambda fan: False)
        assert [as_tuples(validate_fan(fan)) for fan in fixtures] == proved
        failing = {name for checks in proved for name, status, _ in checks if status == "fail"}
        assert failing == {"distinct_cones", "simplicial", "smooth", "face_closure", "complete"}

    def test_a_repeated_ray_is_never_proved(self):
        fan = build_fan([(1, 0), (0, 1)], [(), (0,), (1,), (0, 1), (0, 0)])[0]
        by = checks_by_name(validate_fan(fan))
        assert by["simplicial"].detail == "linearly dependent generators in cones [4]"
        fan = build_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                        downward_closure([(0, 1, 2)]) + [(0, 0, 1)])[0]
        assert checks_by_name(validate_fan(fan))["face_closure"].detail == (
            "missing faces: [((0, 0, 1), (0, 0))]")

    @pytest.mark.parametrize("fan", [projective_fan(2), product_p1_fan(), hirzebruch_fan(1),
                                     hirzebruch_fan(2), projective_fan(3)],
                             ids=["P2", "P1xP1", "F1", "F2", "P3"])
    def test_one_elimination_per_maximal_cone(self, fan, monkeypatch):
        calls = []
        real = fans_mod.rank_det
        monkeypatch.setattr(fans_mod, "rank_det", lambda rows: calls.append(rows) or real(rows))
        monkeypatch.setattr(fans_mod, "minors_gcd", lambda rows: calls.append(None))
        assert all(c.ok for c in validate_fan(fan))
        assert calls == [fan.ray_matrix(fan.cones[i]) for i in fan.maximal_cone_indices()]


class TestOneEliminationPerRayMatrix:
    """validate_fan takes rank and determinant from one rank_det per ray matrix, proof or not."""

    def eliminations(self, monkeypatch, forced: bool):
        """(checks, eliminated ray matrices) per fixture, the proofs forced to fail if asked."""
        real = fans_mod.rank_det
        out = []
        with monkeypatch.context() as m:
            if forced:
                m.setattr(fans_mod, "_maximal_cones_unimodular", lambda fan: False)
                m.setattr(fans_mod, "_maximal_faces_listed", lambda fan: False)
            for fan in fan_fixtures():
                calls = []
                m.setattr(fans_mod, "rank_det", lambda rows: calls.append(tuple(rows)) or real(rows))
                out.append((as_tuples(validate_fan(fan)), calls))
        return out

    def test_no_ray_matrix_is_eliminated_twice(self, monkeypatch):
        proved = self.eliminations(monkeypatch, forced=False)
        enumerated = self.eliminations(monkeypatch, forced=True)
        for checks, calls in proved + enumerated:
            assert len(calls) == len(set(calls))
        assert [checks for checks, _ in proved] == [checks for checks, _ in enumerated]
        assert [checks for checks, _ in proved] == [as_tuples(validate_fan(fan))
                                                     for fan in fan_fixtures()]

    def test_the_non_smooth_fixture(self, monkeypatch):
        calls = []
        real = fans_mod.rank_det
        monkeypatch.setattr(fans_mod, "rank_det", lambda rows: calls.append(rows) or real(rows))
        fan = build_fan([(1, 0), (1, 2)], [(), (0,), (1,), (0, 1)])[0]
        by = checks_by_name(validate_fan(fan))
        assert by["simplicial"].ok and by["smooth"].detail == "non-smooth cones [3]"
        assert calls == [[(1, 0), (1, 2)], [(1, 0)], [(1, 2)]]
        assert validate_fan(fan) and len(calls) == 3  # a fan keeps its eliminations


class TestVecAdder:
    def test_matches_map_add(self):
        rng = random.Random(1219)
        for dim in (1, 2, 3, 4):
            adder = vec_adder(dim)
            assert (adder is vec_add) == (dim == 4)
            for _ in range(50):
                a, b = (tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(2))
                assert adder(a, b) == tuple(map(add, a, b))


def fraction_inverse(rows):
    """Inverse by Gauss-Jordan over Fraction, the reference for ray_inverse; None if singular."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        work[col] = [a / work[col][col] for a in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return [row[n:] for row in work]


class TestRayInverse:
    """The one dense exact inverse: one elimination against the identity."""

    def test_matches_fraction_gauss_jordan(self):
        rng = random.Random(1968)
        sizes, singular = set(), 0
        for _ in range(400):
            n = rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            ref = fraction_inverse(rows)
            if ref is None:
                singular += 1
                with pytest.raises(ValueError, match="^ray matrix is singular$"):
                    ray_inverse(rows)
                continue
            sizes.add(n)
            inv = ray_inverse(rows)
            assert inv == tuple(map(tuple, ref)), rows
            for x, r in zip(sum(inv, ()), sum(ref, [])):
                assert type(x) is (int if r.denominator == 1 else Fraction), (rows, x)
        assert sizes == {1, 2, 3, 4} and singular > 0

    def test_unimodular_cones_give_ints(self):
        fans = [projective_fan(1), projective_fan(2), product_p1_fan(),
                hirzebruch_fan(1), hirzebruch_fan(2), projective_fan(3)]
        for fan in fans:
            for ci in fan.maximal_cone_indices():
                rows = tuple(fan.ray_matrix(fan.cones[ci]))
                inv = ray_inverse(rows)
                assert all(type(x) is int for row in inv for x in row), rows
                n = fan.dim
                assert [[sum(inv[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                        for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("rows, inverse", [
        (((-7,),), ((Fraction(-1, 7),),)),
        (((1, 0), (1, 2)), ((1, 0), (Fraction(-1, 2), Fraction(1, 2)))),
        (((0, 1), (1, 0)), ((0, 1), (1, 0))),
    ])
    def test_small_cases(self, rows, inverse):
        assert ray_inverse(rows) == inverse

    @pytest.mark.parametrize("rows", [
        ((1, 0), (1, 0)),
        ((2, 4), (1, 2)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0)),
    ])
    def test_singular_and_non_square_raise(self, rows):
        with pytest.raises(ValueError, match="^ray matrix is singular$"):
            ray_inverse(rows)

    def test_one_elimination_per_uncached_matrix(self, monkeypatch):
        calls = []
        real = fans_mod.eliminate
        monkeypatch.setattr(fans_mod, "eliminate",
                            lambda system: calls.append(None) or real(system))
        ray_inverse.cache_clear()
        rows = ((2, 1, 0), (1, 1, 0), (0, 3, 1))
        inv = ray_inverse(rows)
        assert ray_inverse(rows) is inv
        assert len(calls) == 1
        with pytest.raises(ValueError, match="^ray matrix is singular$"):
            ray_inverse(((1, 2), (2, 4)))
        assert len(calls) == 2

    def test_repeated_call_returns_the_cached_object(self):
        rows = ((1, 0, 0), (0, 1, 0), (-1, -1, -1))
        equal_copy = tuple(tuple(list(r)) for r in rows)
        assert ray_inverse(rows) is ray_inverse(equal_copy)
