from __future__ import annotations

import json
from fractions import Fraction

import pytest

from torlog.fans import FanCheck
from torlog.laurent import LaurentMatrix, LaurentPoly
from torlog.reports import (
    Report,
    canonical_bytes,
    emit,
    matrix_payload,
    poly_payload,
    render_text,
    report_payload,
)


def parts(c):
    """(num, den) of the one term of c * x^0, as poly_payload writes it."""
    (term,) = poly_payload(LaurentPoly({(0,): c}))
    return term["num"], term["den"]


class TestPayloads:
    def test_rationals_are_normalized(self):
        assert parts(Fraction(2, 4)) == (1, 2)
        assert parts(Fraction(-3, -6)) == (1, 2)
        assert parts(Fraction(1, -2)) == (-1, 2)
        assert parts(Fraction(5)) == (5, 1)

    def test_int_coefficients_build_no_fraction(self, monkeypatch):
        p = LaurentPoly({(1, 0): 3, (0, 0): -1, (2, 1): Fraction(1, 2)})
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
        assert parts(-7) == (-7, 1) and poly_payload(LaurentPoly({(0,): 0})) == []
        assert [(t["num"], t["den"]) for t in poly_payload(p)] == [(-1, 1), (3, 1), (1, 2)]
        # a canonical coefficient is read as it is; not even a Fraction is wrapped again
        assert built == []
        assert Fraction(1, 3) and built == [(1, 3)]  # the spy sees a Fraction being built

    def test_poly_terms_sorted_by_exponent(self):
        p = LaurentPoly({(1, 0): Fraction(1, 2), (-2, 3): 4, (0, 0): -1})
        payload = poly_payload(p)
        assert [t["exponent"] for t in payload] == [[-2, 3], [0, 0], [1, 0]]
        assert payload[0] == {"exponent": [-2, 3], "num": 4, "den": 1}
        assert payload[2] == {"exponent": [1, 0], "num": 1, "den": 2}

    def test_zero_poly_is_empty_list(self):
        assert poly_payload(LaurentPoly()) == []

    def test_matrix_payload_shape(self):
        M = LaurentMatrix.identity(2, 1)
        payload = matrix_payload(M)
        assert len(payload) == 2 and len(payload[0]) == 2
        assert payload[0][0] == [{"exponent": [0], "num": 1, "den": 1}]
        assert payload[0][1] == []

    def test_int_poly_payload(self):
        p = LaurentPoly({(1, 1): 3, (0, 0): -2})
        assert poly_payload(p) == [
            {"exponent": [0, 0], "num": -2, "den": 1},
            {"exponent": [1, 1], "num": 3, "den": 1},
        ]

    def test_int_poly_payload_splits_a_fraction(self):
        p = LaurentPoly({(1,): Fraction(1, 2), (0,): Fraction(6, 3)})
        assert poly_payload(p) == [
            {"exponent": [0], "num": 2, "den": 1},
            {"exponent": [1], "num": 1, "den": 2},
        ]


class TestReport:
    def make(self, statuses):
        r = Report("validate")
        r.extend([FanCheck(f"c{i}", s, "") for i, s in enumerate(statuses)])
        return r

    def test_exit_codes(self):
        assert self.make(["pass", "pass"]).exit_code == 0
        assert self.make(["pass", "fail"]).exit_code == 1
        assert self.make(["pass", "undetermined"]).exit_code == 4
        assert self.make(["undetermined", "fail"]).exit_code == 1
        assert self.make([]).exit_code == 0

    def test_payload_shape(self):
        r = Report("residues", [FanCheck("x", "pass", "fine")], {"k": 1})
        payload = report_payload(r)
        assert payload == {
            "command": "residues",
            "verdicts": [{"check": "x", "status": "pass", "detail": "fine"}],
            "artifacts": {"k": 1},
        }


class TestSerialization:
    def test_canonical_bytes_sorted_and_compact(self):
        b = canonical_bytes({"b": 1, "a": [1, 2]})
        assert b == b'{"a":[1,2],"b":1}\n'

    def test_key_order_independence(self):
        assert canonical_bytes({"x": 1, "y": 2}) == canonical_bytes({"y": 2, "x": 1})

    def test_json_roundtrip(self):
        r = Report("chern", [FanCheck("c", "pass", "")], {"deg": [1, 2]})
        parsed = json.loads(emit(r, "json").decode("utf-8"))
        assert parsed["command"] == "chern"
        assert parsed["artifacts"]["deg"] == [1, 2]

    def test_text_rendering(self):
        r = Report("validate", [
            FanCheck("smooth", "pass", ""),
            FanCheck("complete", "fail", "boundary facets"),
            FanCheck("split", "undetermined", "cap 0"),
        ])
        lines = render_text(r).decode("utf-8").splitlines()
        assert lines == [
            "OK smooth",
            "FAIL complete: boundary facets",
            "UNDET split: cap 0",
        ]

    def test_text_fallback_when_empty(self):
        assert render_text(Report("validate")) == b"OK (no checks to run)\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit(Report("validate"), "yaml")
