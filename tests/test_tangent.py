"""Tangent bundles from Klyachko's formula: transition data that is not a dressed sum.

On a smooth complete fan, let u^s_1..u^s_n be the dual basis of the ray
generators v^s_1..v^s_n of the maximal cone s.  The tangent bundle has the
transitions

    C_st[i][j] = <u^s_i, v^t_j> chi^(u^s_i - u^t_j)

(Klyachko, *Equivariant bundles on toral varieties*, 1989).  They obey the
cocycle law because sum_j v^t_j (x) u^t_j is the identity.  On P^2 the bundle
is indecomposable, so no dressing of a diagonal family produces it.
"""

from __future__ import annotations

import pytest

from test_cocycles import as_tuples, reduced_and_enumerated

from torlog.cocycles import TransitionData, atiyah_cocycle, validate_transitions
from torlog.fans import pairing, product_p1_fan, projective_fan, ray_inverse, vec_sub
from torlog.laurent import LaurentMatrix, LaurentPoly
from torlog.splitting import equivariance_verdict


def tangent_transitions(fan) -> TransitionData:
    maximal = fan.maximal_cone_indices()
    rays, duals = {}, {}
    for s in maximal:
        rays[s] = fan.ray_matrix(fan.cones[s])
        inv = ray_inverse(tuple(rays[s]))
        # the columns of the inverse ray matrix are the dual basis
        duals[s] = [tuple(int(inv[j][i]) for j in range(fan.dim)) for i in range(fan.dim)]
    mats = {}
    for s in maximal:
        for t in maximal:
            if s != t:
                mats[(s, t)] = LaurentMatrix([
                    [LaurentPoly.monomial(vec_sub(u, w), pairing(u, v)) if pairing(u, v)
                     else LaurentPoly() for v, w in zip(rays[t], duals[t])]
                    for u in duals[s]])
    return TransitionData(fan, fan.dim, mats)


FANS = [projective_fan(2), product_p1_fan()]
IDS = ["P2", "P1xP1"]


@pytest.mark.parametrize("fan", FANS, ids=IDS)
class TestTangentBundle:
    def test_transitions_validate(self, fan):
        checks = validate_transitions(tangent_transitions(fan))
        assert len(checks) == 5 and all(c.ok for c in checks)

    def test_reduced_triple_identity_equals_enumeration(self, fan, monkeypatch):
        td = tangent_transitions(fan)
        checks, decided, full = reduced_and_enumerated(atiyah_cocycle(td), td, monkeypatch)
        assert decided and as_tuples(checks) == as_tuples(full)
        m = len(td.maximal())
        assert len(checks) == m * (m - 1) * (m - 2) and all(c.ok for c in checks)

    def test_verdict_passes(self, fan):
        checks, result = equivariance_verdict(tangent_transitions(fan))
        assert checks[-1].name == "equivariance" and checks[-1].status == "pass"
        assert all(c.ok for c in checks) and result.found


def test_p2_tangent_is_not_diagonal():
    # some transition has two nonzero entries in a row, unlike any diagonal family
    td = tangent_transitions(projective_fan(2))
    assert any(sum(not f.is_zero() for f in row) > 1
               for C in td.matrices.values() for row in C.entries)
