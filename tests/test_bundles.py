from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from torlog import bundles as bundles_mod
from torlog.bundles import (
    EigenSection,
    EquivariantData,
    ResidueMatrix,
    UnderdeterminedError,
    apply_nabla,
    check_compatibility,
    chern_pp,
    connection_form,
    elementary_symmetric,
    invariant_section,
    recover_weights,
    residue,
    residue_chern_check,
)
from torlog.corpus import line_bundle_data, random_equivariant_data, surface_fans
from torlog.fans import (DimensionError, FanCheck, build_fan, hirzebruch_fan, product_p1_fan,
                         projective_fan)
from torlog.laurent import LaurentPoly, delta_apply

X = LaurentPoly.monomial


def quadrant_data(weights):
    fan, _ = build_fan([(1, 0), (0, 1)], [(), (0,), (1,), (0, 1)])
    return EquivariantData(fan, len(weights), {3: tuple(weights)})


def p2_line_data(a):
    """Weights of the degree-a line bundle on the projective plane."""
    return line_bundle_data(projective_fan(2), a)


class TestEquivariantData:
    def test_missing_cone_rejected(self):
        fan = projective_fan(1)
        with pytest.raises(ValueError):
            EquivariantData(fan, 1, {1: ((0,),)})

    def test_extra_cone_rejected(self):
        fan = projective_fan(1)
        with pytest.raises(ValueError):
            EquivariantData(fan, 1, {0: ((0,),), 1: ((0,),), 2: ((0,),)})

    def test_rank_mismatch_rejected(self):
        fan = projective_fan(1)
        with pytest.raises(ValueError):
            EquivariantData(fan, 2, {1: ((0,),), 2: ((3,),)})

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="^rank must be at least 1$"):
            EquivariantData(projective_fan(1), 0, {1: (), 2: ()})

    def test_weight_length_rejected(self):
        fan = projective_fan(1)
        with pytest.raises(ValueError):
            EquivariantData(fan, 1, {1: ((0, 0),), 2: ((3, 0),)})

    @pytest.mark.parametrize("weight", [(0.5,), (3.0,), ("3",)])
    def test_a_weight_entry_that_is_not_an_int_raises(self, weight):
        with pytest.raises(TypeError):
            EquivariantData(projective_fan(1), 1, {1: ((0,),), 2: (weight,)})

    def test_order_is_preserved(self):
        data = quadrant_data([(5, 0), (1, 1)])
        assert data.weights[3] == ((5, 0), (1, 1))


class TestCompatibility:
    def test_p1_zero_cone_overlap_is_vacuous(self):
        data = line_bundle_data(projective_fan(1), 3)
        checks = check_compatibility(data)
        assert [c.name for c in checks] == ["compatibility[1,2]"]
        assert checks[0].ok

    def test_p2_line_bundle_passes(self):
        assert all(c.ok for c in check_compatibility(p2_line_data(2)))

    def test_p2_incompatible_pair_is_located(self):
        fan = projective_fan(2)
        data = EquivariantData(
            fan, 1, {4: ((0, 0),), 5: ((0, 0),), 6: ((0, 1),)})
        by = {c.name: c for c in check_compatibility(data)}
        assert by["compatibility[4,5]"].ok
        assert not by["compatibility[4,6]"].ok
        assert "restrictions differ" in by["compatibility[4,6]"].detail

    def test_rank_two_multiset_restriction(self):
        # the comparison is between multisets: swapping the stored order of
        # the two lines on one chart must not break compatibility
        fan = product_p1_fan()
        maximal = fan.maximal_cone_indices()
        swapped = EquivariantData(
            fan, 2,
            {ci: ((1, 1), (0, 0)) if ci == maximal[0] else ((0, 0), (1, 1))
             for ci in maximal},
        )
        assert all(c.ok for c in check_compatibility(swapped))
        # but actually changing a restriction is caught
        bad = EquivariantData(
            fan, 2,
            {ci: ((0, 0), (2, 1)) if ci == maximal[0] else ((0, 0), (1, 1))
             for ci in maximal},
        )
        by = {c.name: c for c in check_compatibility(bad)}
        assert not by[f"compatibility[{maximal[0]},{maximal[1]}]"].ok

    def test_corpus_is_compatible_by_construction(self):
        rng = random.Random(12)
        for fan in surface_fans():
            for _ in range(5):
                data = random_equivariant_data(fan, rng.choice([1, 2, 3]), rng)
                assert all(c.ok for c in check_compatibility(data))


class TestResidue:
    def test_basis_weights(self):
        data = quadrant_data([(1, 0), (0, 1)])
        R = residue(data, 3, 0)
        assert R.entries == (-1, 0)
        assert residue(data, 3, 1).entries == (0, -1)

    def test_zero_weights(self):
        data = quadrant_data([(0, 0), (0, 0)])
        assert residue(data, 3, 0).entries == (0, 0)

    def test_half_plane_chart(self):
        fan, _ = build_fan([(1, 0)], [(), (0,)], dim=2)
        data = EquivariantData(fan, 1, {1: ((3, 5),)})
        assert residue(data, 1, 0).entries == (-3,)

    def test_ray_not_in_cone(self):
        fan = product_p1_fan()
        data = line_bundle_data(fan, 2)
        ci = fan.cone_index((0, 2))
        with pytest.raises(ValueError):
            residue(data, ci, 1)

    def test_matches_connection_form_diagonal(self):
        rng = random.Random(3)
        for fan in surface_fans():
            data = random_equivariant_data(fan, 2, rng)
            for ci in fan.maximal_cone_indices():
                form = connection_form(data, ci)
                for ray in fan.cones[ci].ray_indices:
                    assert residue(data, ci, ray).entries == form.diag(fan.rays[ray])


class TestRecoverWeights:
    def test_basis_residues(self):
        data = quadrant_data([(1, 0), (0, 1)])
        rs = [residue(data, 3, 0), residue(data, 3, 1)]
        assert recover_weights(data.fan, rs) == ((1, 0), (0, 1))

    def test_zero(self):
        data = quadrant_data([(0, 0)])
        rs = [residue(data, 3, 0), residue(data, 3, 1)]
        assert recover_weights(data.fan, rs) == ((0, 0),)

    def test_non_smooth_cone_underdetermined(self):
        fan, _ = build_fan([(1, 0), (1, 2)], [(), (0,), (1,), (0, 1)])
        rs = [ResidueMatrix(3, 0, (-1,)), ResidueMatrix(3, 1, (-1,))]
        with pytest.raises(UnderdeterminedError):
            recover_weights(fan, rs)

    def test_lower_dimensional_cone_underdetermined(self):
        fan, _ = build_fan([(1, 0)], [(), (0,)], dim=2)
        with pytest.raises(UnderdeterminedError):
            recover_weights(fan, [ResidueMatrix(1, 0, (-3,))])

    def test_mixed_cones_rejected(self):
        fan = product_p1_fan()
        with pytest.raises(ValueError):
            recover_weights(fan, [ResidueMatrix(5, 0, (0,)), ResidueMatrix(6, 0, (0,))])

    def test_wrong_ray_set_rejected(self):
        data = quadrant_data([(1, 0)])
        with pytest.raises(ValueError):
            recover_weights(data.fan, [residue(data, 3, 0)])

    def test_no_residues_rejected(self):
        with pytest.raises(ValueError, match="^need at least one residue matrix$"):
            recover_weights(projective_fan(1), [])

    def test_rank_disagreement_rejected(self):
        fan, _ = build_fan([(1, 0), (0, 1)], [(), (0,), (1,), (0, 1)])
        rs = [ResidueMatrix(3, 0, (-1,)), ResidueMatrix(3, 1, (-1, 0))]
        with pytest.raises(ValueError):
            recover_weights(fan, rs)

    def test_roundtrip_over_random_corpus(self):
        rng = random.Random(99)
        for fan in surface_fans():
            for _ in range(8):
                data = random_equivariant_data(fan, rng.choice([1, 2, 3]), rng)
                for ci in fan.maximal_cone_indices():
                    rs = [residue(data, ci, k) for k in fan.cones[ci].ray_indices]
                    assert recover_weights(fan, rs) == data.weights[ci]


class TestConnectionAndSections:
    def test_diagonal_values(self):
        data = quadrant_data([(1, 0), (0, 1)])
        form = connection_form(data, 3)
        assert form.diag((1, 1)) == (-1, -1)
        assert form.diag((0, 0)) == (0, 0)

    def test_basis_matrices_are_constant_diagonals(self):
        data = quadrant_data([(2, 0), (0, -1)])
        m1, m2 = connection_form(data, 3).basis_matrices()
        assert m1.entries[0][0].coeff((0, 0)) == -2
        assert m1.entries[1][1].is_zero()
        assert m2.entries[1][1].coeff((0, 0)) == 1

    def test_invariant_sections_are_flat(self):
        rng = random.Random(17)
        for fan in surface_fans():
            data = random_equivariant_data(fan, 2, rng)
            for ci in fan.maximal_cone_indices():
                for i in range(data.rank):
                    s = invariant_section(data, ci, i)
                    for b in range(fan.dim):
                        v = tuple(1 if q == b else 0 for q in range(fan.dim))
                        out = apply_nabla(data, s, v)
                        assert all(f.is_zero() for f in out.coeffs)

    def test_nabla_twists_by_weight(self):
        data = quadrant_data([(1, 0)])
        s = EigenSection(3, (X((2, 0)),))
        out = apply_nabla(data, s, (1, 0))
        assert out.coeffs == (X((2, 0)),)

    def test_nabla_leibniz_in_scalar(self):
        rng = random.Random(8)
        data = quadrant_data([(1, 2), (-1, 0)])
        for _ in range(30):
            g = LaurentPoly(
                {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                 for _ in range(2)})
            f = tuple(
                LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)})
                for _ in range(2))
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            s = EigenSection(3, f)
            gs = EigenSection(3, tuple(g * fi for fi in f))
            lhs = apply_nabla(data, gs, v)
            rhs_nabla = apply_nabla(data, s, v)
            dg = delta_apply(v, g)
            for i in range(2):
                assert lhs.coeffs[i] == dg * f[i] + g * rhs_nabla.coeffs[i]


class TestChern:
    def test_elementary_symmetric_of_basis_forms(self):
        v1 = LaurentPoly.linear_form((1, 0))
        v2 = LaurentPoly.linear_form((0, 1))
        e0, e1, e2 = elementary_symmetric([v1, v2], 2, 2)
        assert e0 == LaurentPoly.const(1, 2)
        assert e1 == LaurentPoly({(1, 0): 1, (0, 1): 1})
        assert e2 == LaurentPoly({(1, 1): 1})

    def test_evaluate_rejects_a_point_of_another_length(self):
        p = LaurentPoly({(1, 1): 2, (0, 2): -1})  # 2 v1 v2 - v2^2
        assert p.evaluate((3, 5)) == 5
        for point in [(3,), (3, 5, 7), ()]:
            with pytest.raises(DimensionError):
                p.evaluate(point)

    def test_evaluate_is_exact_at_negative_exponents(self):
        for p, point, value in [(LaurentPoly({(-1,): 1}), (2,), Fraction(1, 2)),
                                (LaurentPoly({(0, -2): 3}), (1, 2), Fraction(3, 4)),
                                (LaurentPoly({(-1, 1): 2, (0, 1): 1}), (2, 3), 6),
                                (LaurentPoly({(-1,): 1}), (-4,), Fraction(-1, 4))]:
            assert p.evaluate(point) == value and type(p.evaluate(point)) is type(value)
        value = LaurentPoly({(1, 1): 2, (0, 2): -1}).evaluate((3, 5))
        assert value == 5 and type(value) is int

    def test_sum_of_two_lines_on_p2(self):
        fan = projective_fan(2)
        data = EquivariantData(
            fan, 2,
            {4: ((1, 0), (0, 1)), 5: ((1, -1), (0, 0)), 6: ((0, 0), (-1, 1))},
        )
        assert all(c.ok for c in check_compatibility(data))
        (c1, c2), checks = chern_pp(data)
        assert all(c.ok for c in checks)
        assert c1.degree == 1 and c2.degree == 2
        assert c1.parts[4] == LaurentPoly({(1, 0): 1, (0, 1): 1})
        assert c2.parts[4] == LaurentPoly({(1, 1): 1})
        assert c1.parts[6] == LaurentPoly({(1, 0): -1, (0, 1): 1})

    def test_p1_line_bundle(self):
        d = 5
        data = line_bundle_data(projective_fan(1), d)
        (c1,), checks = chern_pp(data)
        assert all(c.ok for c in checks)
        assert c1.parts[1].is_zero()
        assert c1.parts[2] == LaurentPoly({(1,): d})

    def test_trivial_bundle_has_zero_chern(self):
        fan = product_p1_fan()
        maximal = fan.maximal_cone_indices()
        data = EquivariantData(fan, 1, {ci: ((0, 0),) for ci in maximal})
        (c1,), checks = chern_pp(data)
        assert all(c.ok for c in checks)
        assert all(p.is_zero() for p in c1.parts.values())

    def test_incompatible_data_fails_continuity(self):
        fan = projective_fan(2)
        data = EquivariantData(
            fan, 1, {4: ((0, 0),), 5: ((0, 0),), 6: ((0, 1),)})
        _, checks = chern_pp(data)
        by = {c.name: c for c in checks}
        assert not by["chern_continuity[4,6]"].ok
        assert "degrees [1]" in by["chern_continuity[4,6]"].detail

    def test_residue_chern_consistency(self):
        data = quadrant_data([(1, 0), (0, 1)])
        for ray in (0, 1):
            assert residue_chern_check(data, 3, ray).ok

    def test_residue_chern_check_names_the_mismatched_degrees(self, monkeypatch):
        data = quadrant_data([(1, 0), (0, 1)])
        assert residue(data, 3, 0).entries == (-1, 0)
        # -R has eigenvalues (2, 0): e_1 = 2 against c_1(v_0) = 1, e_2 = 0 = c_2(v_0)
        monkeypatch.setattr(bundles_mod, "residue",
                            lambda data, ci, ray: ResidueMatrix(ci, ray, (-2, 0)))
        check = residue_chern_check(data, 3, 0)
        assert (check.name, check.status, check.detail) == (
            "residue_chern[3,0]", "fail", "mismatched degrees: [(1, 2, 1)]")

    def test_residue_chern_over_corpus(self):
        rng = random.Random(41)
        for fan in surface_fans():
            data = random_equivariant_data(fan, rng.choice([1, 2, 3]), rng)
            for ci in fan.maximal_cone_indices():
                for ray in fan.cones[ci].ray_indices:
                    assert residue_chern_check(data, ci, ray).ok


def substituted(p, vectors):
    """p on the span of the vectors, v = sum_j t_j vectors[j], by formal substitution."""
    k = len(vectors)
    total = LaurentPoly()
    for exp, c in p.terms.items():
        term = LaurentPoly.const(c, k)
        for i, e in enumerate(exp):
            coord = LaurentPoly({tuple(int(q == j) for q in range(k)): vectors[j][i]
                             for j in range(k) if vectors[j][i]})
            for _ in range(e):
                term = term * coord
        total = total + term
    return total


def substitution_continuity(data):
    """The continuity checks by substituting each face's rays into every c_i."""
    fan = data.fan
    polys, _ = chern_pp(data)
    maximal = sorted(data.weights)
    checks = []
    for a, s in enumerate(maximal):
        for t in maximal[a + 1:]:
            face = fan.cones[fan.overlap_index(s, t)]
            rays = [fan.rays[k] for k in face.ray_indices]
            bad = [p.degree for p in polys
                   if substituted(p.parts[s], rays) != substituted(p.parts[t], rays)]
            detail = f"cones ({s},{t}), face rays {face.ray_indices}"
            if bad:
                detail += f": degrees {bad} disagree on the shared span"
            checks.append(FanCheck(f"chern_continuity[{s},{t}]", "fail" if bad else "pass", detail))
    return checks


def weight_families(fan, rank, rng):
    """A compatible family, the same with one weight moved, and random weights."""
    compatible = random_equivariant_data(fan, rank, rng)
    moved = {ci: list(ws) for ci, ws in compatible.weights.items()}
    ci, j, axis = rng.choice(sorted(moved)), rng.randrange(rank), rng.randrange(fan.dim)
    step = rng.choice([-1, 1])
    moved[ci][j] = tuple(x + step * (i == axis) for i, x in enumerate(moved[ci][j]))
    drawn = {ci: tuple(tuple(rng.randint(-2, 2) for _ in range(fan.dim)) for _ in range(rank))
             for ci in fan.maximal_cone_indices()}
    return [compatible] + [EquivariantData(fan, rank, {c: tuple(w) for c, w in ws.items()})
                           for ws in (moved, drawn)]


class TestChernContinuityOnRestrictedWeights:
    FANS = [projective_fan(1), projective_fan(2), product_p1_fan(), hirzebruch_fan(1),
            hirzebruch_fan(2), projective_fan(3)]

    def test_matches_substitution_and_compatibility(self):
        rng = random.Random(19)
        failing = zero_faces = 0
        for fan in self.FANS:
            for rank in range(1, 5):
                for _ in range(3):
                    for data in weight_families(fan, rank, rng):
                        _, checks = chern_pp(data)
                        assert checks == substitution_continuity(data)
                        compat = check_compatibility(data)
                        assert [c.name for c in compat] == [
                            c.name.replace("chern_continuity", "compatibility") for c in checks]
                        assert [c.status for c in compat] == [c.status for c in checks]
                        failing += sum(not c.ok for c in checks)
                        zero_faces += sum("face rays ()" in c.detail for c in checks)
        assert failing > 0 and zero_faces > 0


class TestLineBundleCorpus:
    def test_p1_weights(self):
        data = line_bundle_data(projective_fan(1), 3)
        assert data.weights == {1: ((0,),), 2: ((3,),)}

    def test_p2_weights(self):
        data = line_bundle_data(projective_fan(2), 4)
        assert data.weights == {4: ((0, 0),), 5: ((0, 4),), 6: ((4, 0),)}


class TestIntPolyOnLaurentTerms:
    """Chern data are LaurentPoly polynomials in the coordinates of N."""

    def test_sums_and_products_stay_int_poly(self):
        p = LaurentPoly({(1, 0): 2, (0, 1): -1})
        q = LaurentPoly.linear_form((3, 1))
        assert p * q == LaurentPoly({(2, 0): 6, (1, 1): -1, (0, 2): -1})
        assert (q + (-q)).is_zero()

    @pytest.mark.parametrize("c", [1.5, 2.0])
    def test_a_float_coefficient_raises(self, c):
        with pytest.raises(TypeError, match="coefficients are exact"):
            LaurentPoly({(1,): c})

    def test_chern_parts_evaluate_to_the_residue_values(self):
        rng = random.Random(57)
        fans = surface_fans() + [projective_fan(1)]
        families = [line_bundle_data(fan, 3) for fan in fans]
        families += [random_equivariant_data(fan, rng.choice([1, 2, 3]), rng) for fan in fans]
        for data in families:
            polys, _ = chern_pp(data)
            for ci in data.fan.maximal_cone_indices():
                for ray in data.fan.cones[ci].ray_indices:
                    eigen = [-x for x in residue(data, ci, ray).entries]
                    assert residue_chern_check(data, ci, ray).ok
                    for p in polys:
                        part = p.parts[ci]
                        expected = sum(prod(sub) for sub in itertools.combinations(eigen, p.degree))
                        assert part.evaluate(data.fan.rays[ray]) == expected
