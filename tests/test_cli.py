from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torlog import cli, cocycles, splitting
from torlog.cli import COMMANDS, UsageError, load_model, main, run
from torlog.laurent import LaurentPoly

MODELS = Path(__file__).resolve().parent.parent / "models"


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def p1_fan_block():
    return {
        "rank_n": 1,
        "rays": [[1], [-1]],
        "cones": [[], [0], [1]],
        "declared_complete": True,
    }


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_validate_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, ["validate", str(MODELS / "p1_o3.json")])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["command"] == "validate"
        assert all(v["status"] == "pass" for v in payload["verdicts"])
        assert payload["artifacts"]["fan"]["maximal_cones"] == [1, 2]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["validate", str(MODELS / "p1_o3.json"), "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("OK") for line in lines)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_on_full_model(self, capsys, command):
        code, out, err = run_cli(capsys, [command, str(MODELS / "p1_o3.json")])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["command"] == command
        assert all(v["status"] == "pass" for v in payload["verdicts"])

    def test_split_artifacts(self, capsys):
        code, out, _ = run_cli(capsys, ["split", str(MODELS / "p2_rank2.json")])
        assert code == 0
        payload = json.loads(out)
        assert "splitting" in payload["artifacts"]
        assert "weight_cap" in payload["artifacts"]
        names = [v["check"] for v in payload["verdicts"]]
        assert "splitting" in names
        assert any(n.startswith("gauge_law") for n in names)

    def test_equivariance_on_dressed_transitions_only(self, capsys):
        code, out, _ = run_cli(
            capsys, ["equivariance", str(MODELS / "hirzebruch_dressed.json")])
        assert code == 0
        payload = json.loads(out)
        final = payload["verdicts"][-1]
        assert final["check"] == "equivariance" and final["status"] == "pass"
        assert "splitting" in payload["artifacts"]

    def test_residue_tables(self, capsys):
        code, out, _ = run_cli(capsys, ["residues", str(MODELS / "p1_o3.json")])
        assert code == 0
        payload = json.loads(out)
        # on the chart of the ray (-1,) the weight (3,) pairs to -3, so the
        # residue entry -<m, v> is +3
        assert payload["artifacts"]["residues"] == {"1,0": [0], "2,1": [3]}

    def test_chern_artifacts(self, capsys):
        code, out, _ = run_cli(capsys, ["chern", str(MODELS / "p1_o3.json")])
        assert code == 0
        payload = json.loads(out)
        assert payload["artifacts"]["chern"]["1"]["2"] == [
            {"exponent": [1], "num": 3, "den": 1}]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["validate", str(MODELS / "p1_o3.json"), "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["command"] == "validate"


class TestUnwritableReportPath:
    """A report path that cannot be written is a usage error (2), not a failed check (1)."""

    @pytest.mark.parametrize("model", ["p2_o2.json", "p2_corrupted.json"])
    def test_missing_directory_exits_two(self, capsys, tmp_path, model):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, ["validate", str(MODELS / model), "--out", str(target)])
        assert (code, out) == (2, "")
        assert err == f"torlog: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_directory_as_out_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["chern", str(MODELS / "p2_o2.json"), "--out", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"torlog: cannot write {tmp_path}: ") and err.count("\n") == 1

    def test_invalid_model_report_path_exits_two(self, capsys, tmp_path):
        path = write_model(tmp_path, dict(p1_fan_block(), cones=[[], [0], [1], [0]]))
        target = tmp_path / "missing" / "r.json"
        assert run_cli(capsys, ["validate", path])[0] == 3
        code, out, err = run_cli(capsys, ["validate", path, "--out", str(target)])
        assert (code, out) == (2, "")
        assert err == f"torlog: cannot write {target}: No such file or directory\n"


class TestFailureDetection:
    def test_corrupted_cocycle_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", str(MODELS / "p2_corrupted.json")])
        assert code == 1
        payload = json.loads(out)
        bad = [v for v in payload["verdicts"] if v["status"] == "fail"]
        assert [v["check"] for v in bad] == ["cocycle_law"]

    def test_corrupted_cocycle_names_triples(self, capsys):
        code, out, _ = run_cli(
            capsys, ["cocycle", str(MODELS / "p2_corrupted.json"), "--format", "text"])
        assert code == 1
        assert "FAIL cocycle_law" in out
        fail_line = next(l for l in out.splitlines() if l.startswith("FAIL cocycle_law"))
        assert "(4, 5, 6)" in fail_line

    def test_undetermined_residue_roundtrip_exit_four(self, capsys, tmp_path):
        model = {
            "rank_n": 2,
            "rays": [[1, 0], [1, 2]],
            "cones": [[], [0], [1], [0, 1]],
            "declared_complete": False,
            "bundle": {"rank": 1, "weights": {"3": [[0, 0]]}},
        }
        code, out, _ = run_cli(capsys, ["residues", write_model(tmp_path, model)])
        assert code == 4
        payload = json.loads(out)
        final = {v["check"]: v for v in payload["verdicts"]}
        assert final["residue_roundtrip[3]"]["status"] == "undetermined"

    def test_split_inconclusive_exit_four(self, capsys, monkeypatch):
        monkeypatch.setenv("TORLOG_WEIGHT_CAP", "-1")
        code, out, _ = run_cli(capsys, ["split", str(MODELS / "p1_o3.json")])
        assert code == 4
        payload = json.loads(out)
        verdicts = {v["check"]: v for v in payload["verdicts"]}
        assert verdicts["splitting"]["status"] == "undetermined"
        assert "not a proof" in verdicts["splitting"]["detail"]
        assert payload["artifacts"]["weight_cap"] == -1

    def test_equivariance_inconclusive_exit_four(self, capsys, monkeypatch):
        monkeypatch.setenv("TORLOG_WEIGHT_CAP", "-1")
        code, out, _ = run_cli(capsys, ["equivariance", str(MODELS / "p1_o3.json")])
        assert code == 4
        payload = json.loads(out)
        assert payload["verdicts"][-1]["status"] == "undetermined"


class TestParseErrors:
    def test_not_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {", encoding="utf-8")
        code, out, err = run_cli(capsys, ["validate", str(path)])
        assert code == 2 and out == ""
        assert "not valid JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["validate", str(tmp_path / "nope.json")])
        assert code == 2 and "cannot read" in err

    def test_missing_required_key(self, capsys, tmp_path):
        model = p1_fan_block()
        del model["declared_complete"]
        code, _, err = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 2 and "declared_complete" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        model = p1_fan_block()
        model["extra"] = 1
        code, _, err = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 2 and "unknown keys" in err

    def test_boolean_is_not_an_integer(self, capsys, tmp_path):
        model = p1_fan_block()
        model["rank_n"] = True
        code, _, err = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 2 and "integer" in err

    def test_bad_term_shape(self, capsys, tmp_path):
        model = p1_fan_block()
        model["transitions"] = {
            "1,2": [[[{"exponent": [0], "num": 1, "den": 1, "extra": 0}]]]}
        code, _, err = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 2 and "exactly the keys" in err

    def test_zero_denominator(self, capsys, tmp_path):
        model = p1_fan_block()
        model["transitions"] = {"1,2": [[[{"exponent": [0], "num": 1, "den": 0}]]]}
        code, _, err = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 2 and "denominator zero" in err

    def test_missing_block_for_command(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["residues", str(MODELS / "hirzebruch_dressed.json")])
        assert code == 2 and "bundle" in err
        code, _, err = run_cli(capsys, ["split", write_model(tmp_path, p1_fan_block())])
        assert code == 2 and "transitions" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, ["frobnicate", str(MODELS / "p1_o3.json")])
        assert code == 2
        assert "invalid choice" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "validate" in out



class TestUndecodableJson:
    """Inputs the JSON reader refuses with other errors than JSONDecodeError: exit 2, one line."""

    @pytest.mark.parametrize("content", [
        b'{"rank_n": 1, "name": "\xff\xfe"}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"rank_n": ' + b"1" * 4301 + b"}",
    ], ids=["not-utf8", "nested-100000-deep", "integer-of-4301-digits"])
    def test_exits_two_with_one_line(self, capsys, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, ["validate", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"torlog: {path} is not valid JSON: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestRepeatedKeys:
    """Two keys that read as the same cone or ordered pair are refused, naming both (exit 2)."""

    @pytest.mark.parametrize("command", ["validate", "equivariance"])
    @pytest.mark.parametrize("block, key, repeat, message", [
        ("bundle", "4", "04", "bundle.weights keys '4' and '04' both name cone 4"),
        ("bundle", "4", " 4", "bundle.weights keys '4' and ' 4' both name cone 4"),
        ("transitions", "4,5", "04,5", "transitions keys '4,5' and '04,5' both name the pair 4,5"),
        ("transitions", "4,5", "4, +5",
         "transitions keys '4,5' and '4, +5' both name the pair 4,5"),
    ], ids=["weights-leading-zero", "weights-space", "transitions-leading-zero",
            "transitions-sign"])
    def test_exit_code_and_message(self, capsys, tmp_path, command, block, key, repeat, message):
        model = json.loads((MODELS / "p2_rank2.json").read_text(encoding="utf-8"))
        table = model["bundle"]["weights"] if block == "bundle" else model["transitions"]
        table[repeat] = table[key]
        got, out, err = run_cli(capsys, [command, write_model(tmp_path, model)])
        assert (got, out, err) == (2, "", f"torlog: {message}\n")

    def test_both_directions_of_a_pair_are_not_a_repeat(self, capsys, tmp_path):
        model = json.loads((MODELS / "p2_rank2.json").read_text(encoding="utf-8"))
        path = write_model(tmp_path, model)
        reverse = load_model(path).transitions.pair(5, 4)
        model["transitions"]["5,4"] = [
            [[{"exponent": list(e), "num": c.numerator, "den": c.denominator}
              for e, c in sorted(f.terms.items())] for f in row] for row in reverse.entries]
        code, _, err = run_cli(capsys, ["validate", write_model(tmp_path, model, "both.json")])
        assert code == 0 and err == ""


class TestInvalidModels:
    def test_duplicate_cones_exit_three(self, capsys, tmp_path):
        model = p1_fan_block()
        model["cones"] = [[], [0], [1], [0]]
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 3
        payload = json.loads(out)
        bad = {v["check"] for v in payload["verdicts"] if v["status"] == "fail"}
        assert "distinct_cones" in bad

    def test_non_simplicial_exit_three(self, capsys, tmp_path):
        model = {
            "rank_n": 2,
            "rays": [[1, 0], [-1, 0]],
            "cones": [[], [0], [1], [0, 1]],
            "declared_complete": False,
        }
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 3
        payload = json.loads(out)
        assert any(v["check"] == "simplicial" and v["status"] == "fail"
                   for v in payload["verdicts"])

    def test_false_completeness_claim_exit_three(self, capsys, tmp_path):
        model = {
            "rank_n": 2,
            "rays": [[1, 0], [-1, 0], [0, 1]],
            "cones": [[], [0], [1], [2], [0, 2], [1, 2]],
            "declared_complete": True,
        }
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 3

    def test_non_smooth_fan_still_loads(self, capsys, tmp_path):
        model = {
            "rank_n": 2,
            "rays": [[1, 0], [1, 2]],
            "cones": [[], [0], [1], [0, 1]],
            "declared_complete": False,
        }
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 1  # smooth check fails, but the model is usable
        payload = json.loads(out)
        statuses = {v["check"]: v["status"] for v in payload["verdicts"]}
        assert statuses["smooth"] == "fail"
        assert statuses["face_closure"] == "pass"

    def test_bundle_covering_wrong_cones_exit_three(self, capsys, tmp_path):
        model = p1_fan_block()
        model["bundle"] = {"rank": 1, "weights": {"1": [[0]]}}
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 3
        assert "maximal cones" in json.loads(out)["verdicts"][0]["detail"]

    def test_transition_between_non_maximal_cones_exit_three(self, capsys, tmp_path):
        model = p1_fan_block()
        model["transitions"] = {"0,1": [[[{"exponent": [0], "num": 1, "den": 1}]]]}
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 3
        assert "maximal" in json.loads(out)["verdicts"][0]["detail"]

    def test_rank_disagreement_exit_three(self, capsys, tmp_path):
        model = p1_fan_block()
        model["bundle"] = {"rank": 2, "weights": {"1": [[0], [1]], "2": [[0], [1]]}}
        model["transitions"] = {"1,2": [[[{"exponent": [0], "num": 1, "den": 1}]]]}
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 3
        assert "disagree" in json.loads(out)["verdicts"][0]["detail"]

    def test_singular_one_sided_transition_exit_three(self, capsys, tmp_path):
        model = p1_fan_block()
        one = {"exponent": [0], "num": 1, "den": 1}
        model["transitions"] = {"1,2": [[[one], [one]], [[one], [one]]]}
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 3
        assert "invert" in json.loads(out)["verdicts"][0]["detail"]


class TestNormalizationWarning:
    def test_scaled_ray_is_reported_and_passes(self, capsys, tmp_path):
        model = {
            "rank_n": 2,
            "rays": [[2, 4], [0, 1]],
            "cones": [[], [0], [1], [0, 1]],
            "declared_complete": False,
        }
        code, out, _ = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert code == 0
        payload = json.loads(out)
        warn = [v for v in payload["verdicts"] if v["check"] == "ray_normalization"]
        assert len(warn) == 1
        assert warn[0]["status"] == "pass"
        assert "ray 0" in warn[0]["detail"]

    def test_loaded_fan_uses_primitive_ray(self, tmp_path):
        model = {
            "rank_n": 2,
            "rays": [[2, 4], [0, 1]],
            "cones": [[], [0], [1], [0, 1]],
            "declared_complete": False,
        }
        loaded = load_model(write_model(tmp_path, model))
        assert loaded.fan.rays[0] == (1, 2)
        assert loaded.warnings


class TestDeterminism:
    @pytest.mark.parametrize("command", ["validate", "residues", "chern", "cocycle", "split"])
    def test_same_process_reruns_are_identical(self, capsys, tmp_path, command):
        model = str(MODELS / "p2_rank2.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([command, model, "--out", str(a)]) == 0
        assert main([command, model, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_hash_seed_does_not_leak_into_reports(self, tmp_path):
        model = str(MODELS / "p1p1_rank2.json")
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "torlog.cli", "equivariance", model],
                capture_output=True, env=env, check=False)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestCommandTable:
    def test_run_rejects_an_unknown_command(self):
        model = load_model(str(MODELS / "p1_o3.json"))
        with pytest.raises(UsageError, match="unknown command 'frobnicate'"):
            run("frobnicate", model)

    def test_every_command_is_dispatched(self):
        model = load_model(str(MODELS / "p2_rank2.json"))
        for command in COMMANDS:
            assert run(command, model).command == command

    def test_split_names_a_truncated_closure(self, capsys, monkeypatch):
        monkeypatch.setattr(splitting, "_MAX_WEIGHTS", 1)
        monkeypatch.setattr(splitting, "_solve_graded", lambda *a: None)
        for command, check in (("split", "splitting"), ("equivariance", "equivariance")):
            code, out, _ = run_cli(capsys, [command, str(MODELS / "p2_rank2.json")])
            assert code == 4
            verdicts = {v["check"]: v for v in json.loads(out)["verdicts"]}
            assert verdicts[check]["status"] == "undetermined"
            assert "1-weight limit" in verdicts[check]["detail"]


class TestEquivarianceValidates:
    """CLI equivariance validates the transitions before it decides anything."""

    def test_off_ring_line_bundle_exits_one(self, capsys, tmp_path):
        # rank 1 on p2_o2's fan with C_st = chi^(m_s - m_t): the cocycle law
        # holds, but the entries leave the overlap rings
        model = json.loads((MODELS / "p2_o2.json").read_text(encoding="utf-8"))
        m = {4: (0, 0), 5: (3, -1), 6: (-2, 5)}
        model["transitions"] = {
            f"{s},{t}": [[[{"exponent": [a - b for a, b in zip(m[s], m[t])],
                            "num": 1, "den": 1}]]]
            for s, t in ((4, 5), (4, 6), (5, 6))}
        path = write_model(tmp_path, model)
        code, out, _ = run_cli(capsys, ["validate", path])
        assert code == 1
        code, out, _ = run_cli(capsys, ["equivariance", path])
        assert code == 1
        verdicts = json.loads(out)["verdicts"]
        assert [v["check"] for v in verdicts if v["status"] == "fail"] == [
            "chart_membership", "unit_determinants", "equivariance"]
        assert verdicts[-1]["detail"].startswith("transitions fail validation")


class TestChartsComeFromTheFan:
    """A chart that no transitions key names is still a chart: its pairs are missing."""

    @pytest.mark.parametrize("command", ["validate", "cocycle", "split", "theorem-ab",
                                         "equivariance"])
    def test_one_pair_of_three_charts_exits_one(self, capsys, tmp_path, command):
        model = json.loads((MODELS / "p2_o2.json").read_text(encoding="utf-8"))
        del model["bundle"]
        model["transitions"] = {"4,5": model["transitions"]["4,5"]}
        code, out, _ = run_cli(capsys, [command, write_model(tmp_path, model)])
        assert code == 1
        failed = [v for v in json.loads(out)["verdicts"] if v["status"] == "fail"]
        assert (failed[0]["check"], failed[0]["detail"]) == (
            "transitions_present", "missing ordered pairs [(4, 6), (5, 6), (6, 4), (6, 5)]")
        assert all(v["status"] != "pass" for v in json.loads(out)["verdicts"]
                   if v["check"] == "equivariance")


def p1_bundle_model(**changes):
    model = p1_fan_block()
    model["bundle"] = {"rank": 1, "weights": {"1": [[0]], "2": [[1]]}}
    model["transitions"] = {"1,2": [[[{"exponent": [-1], "num": 1, "den": 1}]]]}
    model.update(changes)
    return model


class TestBlockKeyErrors:
    """Malformed keys of the bundle and transitions blocks: the exit code and the message."""

    one = [[[{"exponent": [0], "num": 1, "den": 1}]]]

    @pytest.mark.parametrize("command", ["validate", "equivariance"])
    @pytest.mark.parametrize("change, code, message", [
        ({"bundle": {"rank": 1, "weights": {"x": [[0]]}}}, 2,
         "bundle.weights key 'x' is not a cone id"),
        ({"bundle": {"rank": 1, "weights": {"1": [[0]], "7": [[0]]}}}, 3,
         "bundle.weights references missing cone 7"),
        ({"transitions": {"1,a": one}}, 2, "transitions key '1,a' must name two cone ids"),
        ({"transitions": {"1,9": one}}, 3, "transitions key '1,9' references a missing cone"),
        ({"transitions": {"1,2": one, "2,1": [[[], []], [[], []]]}}, 3,
         "transitions[2,1] has size 2, other blocks use rank 1"),
    ], ids=["weights-key-not-int", "weights-missing-cone", "transitions-key-not-int",
            "transitions-missing-cone", "transitions-size-disagrees"])
    def test_exit_code_and_message(self, capsys, tmp_path, command, change, code, message):
        got, out, err = run_cli(capsys, [command, write_model(tmp_path, p1_bundle_model(**change))])
        assert got == code
        if code == 2:
            assert (out, err) == ("", f"torlog: {message}\n")
        else:
            assert err == ""
            assert json.loads(out) == {"artifacts": {}, "command": command, "verdicts": [
                {"check": "model", "detail": message, "status": "fail"}]}


# (model, command) -> (exit code, sha256 of the report, or None when none is
# written) for every call over models/.  A change meant to alter a report
# updates its line here.
GOLDEN = {
    ('half_open.json', 'chern'): (0, '85765e53116d262b95e79ffd5893f096b0baaa8151c378bb378d9220624aa886'),
    ('half_open.json', 'cocycle'): (0, '82f33157661c27d1507e7b67fbc9f05554a7f1bc23bf083df57f06c43da91ab6'),
    ('half_open.json', 'equivariance'): (0, '646abaf78a158ae292208b895fcf11fb7fe5067a0ee094aa838d3e9c01e034cb'),
    ('half_open.json', 'residues'): (0, '3745c5331bd9765bf831dcdbc6a4070e787d32ec67614cef1ed5512c026ea55d'),
    ('half_open.json', 'split'): (0, '7695f4e853347e9e9d6d368647308c04469ee8eedaad1575b8b50cecf6af0d2d'),
    ('half_open.json', 'theorem-ab'): (0, '3e830ae5131b9589eede9739a906bb59fe7dffdba769d0a21bca8b5f5034b43d'),
    ('half_open.json', 'validate'): (0, 'bc2fb16f7c0e36c0326cfc186454f46e123ca8d4247bed45be7a0538d83aa6f4'),
    ('hirzebruch_dressed.json', 'chern'): (2, None),
    ('hirzebruch_dressed.json', 'cocycle'): (0, '107f6cefc7f8f750d72ed44821dae5cb2678e012983def330e3d1cb3e0988a15'),
    ('hirzebruch_dressed.json', 'equivariance'): (0, '28d653c97d510724e3bc4023729f028b3d640ad6dc284744ff6a21d8d41f7d12'),
    ('hirzebruch_dressed.json', 'residues'): (2, None),
    ('hirzebruch_dressed.json', 'split'): (0, '3cbe82bbced2fe938c80d75ced8c1855ffaf178d8bdd9ec4e9af54354fec3d74'),
    ('hirzebruch_dressed.json', 'theorem-ab'): (0, '0eed91ae4199eb0ab1985351680d14fcd72448b37c666695d8e6a1b70956a152'),
    ('hirzebruch_dressed.json', 'validate'): (0, '2fa691f02e9871e923d3a526e75620dac303ef77e544614ecbf69474856bdffb'),
    ('p1_o3.json', 'chern'): (0, 'c39168a80379ce0391efa473e568554ed332e453e325a7d699c0f99585db7fc9'),
    ('p1_o3.json', 'cocycle'): (0, '21780326cc1c14b8ba9be228b403c6cfddf36a2dd7fe1664d6100e47b22152f5'),
    ('p1_o3.json', 'equivariance'): (0, '6af4048d65b73d535d73574f83c5aef4a46c56209c1ce3520a2755f65175152f'),
    ('p1_o3.json', 'residues'): (0, '6f4d97cc81ba83c28f0ccc1c21c64e3b49c97941bd0255c5e9f4fcec6a33d6c9'),
    ('p1_o3.json', 'split'): (0, '27cdfbefccfe1140fd26e5b5918634baf5370065ade9212deb4a50f131745351'),
    ('p1_o3.json', 'theorem-ab'): (0, '0b03ab58d983ebec419bfc058efabc47c003ce34751ba5425760ca0945a81dbf'),
    ('p1_o3.json', 'validate'): (0, '79019f44504ebc8d5ca75fb7624bcb3102ca15d247e973fb150e6d3252c46579'),
    ('p1p1_rank2.json', 'chern'): (0, '32b5049c351ec3d74048d14d4191ee96377a60e21e6533d647d6c14e1db26ddb'),
    ('p1p1_rank2.json', 'cocycle'): (0, 'a09155cb5e22d7c02df337ee060fc9b3960ef29bcffea2dd6be38261c21684f7'),
    ('p1p1_rank2.json', 'equivariance'): (0, '9309acd1758ca10ab986014386d93ceb9e6b0acb28d88ec3a8c08317696e58b7'),
    ('p1p1_rank2.json', 'residues'): (0, 'fe39cf90648cd38295a57a2a58919ea1000a764057a159329b4830c2785cf0ff'),
    ('p1p1_rank2.json', 'split'): (0, '8b8a01a61f4c86b200d36947e91a91819e1430b06437b5c1ba2cbb643223ec6b'),
    ('p1p1_rank2.json', 'theorem-ab'): (0, '0eed91ae4199eb0ab1985351680d14fcd72448b37c666695d8e6a1b70956a152'),
    ('p1p1_rank2.json', 'validate'): (0, '3b1a616119a9e8281b9daad87be43101c8df12825531c6b56ba9011e3e5956b7'),
    ('p2_corrupted.json', 'chern'): (0, '3bfa7d8b9b66a672685eecfc6559b391aacd16afd6f62c49675c234e54adcd9e'),
    ('p2_corrupted.json', 'cocycle'): (1, '50c2c27741a7b4789921dd908afa659113c4512b8702bf65f785ff9f407e98cc'),
    ('p2_corrupted.json', 'equivariance'): (1, 'c7028f3f6b026187f8da7650111454bc833b46aeceecba17678ee374a7386648'),
    ('p2_corrupted.json', 'residues'): (0, 'c08cb04a99737d14476ac10189f70fd6b866baf567b0c7ac6f32e9be85de4aba'),
    ('p2_corrupted.json', 'split'): (1, '9376c2762b980fed5e4048d9ff0ca677ee6dc1da53c5e1887c60e81c90341ced'),
    ('p2_corrupted.json', 'theorem-ab'): (1, 'fc086902774772970e578895c929b01e32595aeba8b548b0f5bae2a798286b59'),
    ('p2_corrupted.json', 'validate'): (1, 'c4faddd2b667d7a3129b07b1e40ccd1621e0f3f7b2fa06f781cdbc1a46485c62'),
    ('p2_o2.json', 'chern'): (0, '3bfa7d8b9b66a672685eecfc6559b391aacd16afd6f62c49675c234e54adcd9e'),
    ('p2_o2.json', 'cocycle'): (0, 'a352d9ae1cca18780cee1fde3909295e2f01a5adf63a4c588c198eb4e232ea44'),
    ('p2_o2.json', 'equivariance'): (0, '79c4584b3032e6cd464b5a3a1b13451487bd021e49bdf99cd813c784ebdd9701'),
    ('p2_o2.json', 'residues'): (0, 'c08cb04a99737d14476ac10189f70fd6b866baf567b0c7ac6f32e9be85de4aba'),
    ('p2_o2.json', 'split'): (0, '7b0f395ff9b6aae8cc68b6b08fbff02e46bb0029d95920b704001e9632d4b118'),
    ('p2_o2.json', 'theorem-ab'): (0, '518a11315fc0c6b270c56513186abb988ab0c79dda257b26c95ce80f89ee4fc0'),
    ('p2_o2.json', 'validate'): (0, '5febb385d295b719c789be7a6bfebab1a7a0f9bc31148291a88ce4e42ba14c2a'),
    ('p2_rank2.json', 'chern'): (0, 'a5afbbdba876b7fb22f4996a903129fc08d0fc6e021aa82410117c926b79bdeb'),
    ('p2_rank2.json', 'cocycle'): (0, 'c3140f89e36af2533fd7b8a2c8fb26ec2b73b3709186800b653054d5c6cf945f'),
    ('p2_rank2.json', 'equivariance'): (0, '2990e866c72e57713b3a40d5cb35a2c9f62e20957c8883826f2a3cc852c139a7'),
    ('p2_rank2.json', 'residues'): (0, '5a839e35c3bc64c0c951af53973fb1c6b0c89f63b6a3bbd6754d9989094106fb'),
    ('p2_rank2.json', 'split'): (0, 'ce0d7485a892b8df53bdee262989e4c3267bbf04e2a50a7d8eafea1bf6bf0491'),
    ('p2_rank2.json', 'theorem-ab'): (0, '518a11315fc0c6b270c56513186abb988ab0c79dda257b26c95ce80f89ee4fc0'),
    ('p2_rank2.json', 'validate'): (0, 'c26928cf25bb734aa67d03e8dfd80e6a8f256d4f30697c937bd0f6f1fb5e868a'),
}


class TestGoldenReports:
    """Every report over models/ is pinned byte for byte, with its exit code."""

    def test_reports_match_their_digests(self, tmp_path, capsys):
        got = {}
        for model in sorted(MODELS.glob("*.json")):
            for command in COMMANDS:
                out = tmp_path / f"{model.stem}-{command}.json"
                code = main([command, str(model), "--out", str(out)])
                digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
                got[(model.name, command)] = (code, digest)
        capsys.readouterr()
        assert len(got) == 49
        assert got == GOLDEN


class TestWeightCapEnvironment:
    """A TORLOG_WEIGHT_CAP that is not an integer is a usage error, not a failed check."""

    @pytest.mark.parametrize("value", ["1.5", "abc"])
    def test_library_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("TORLOG_WEIGHT_CAP", value)
        with pytest.raises(ValueError, match=f"TORLOG_WEIGHT_CAP must be an integer, got '{value}'"):
            splitting.weight_cap()
        assert splitting.weight_cap(2) == 2  # an explicit cap beats the environment

    @pytest.mark.parametrize("command", ["split", "equivariance"])
    @pytest.mark.parametrize("value", ["1.5", "abc"])
    @pytest.mark.parametrize("model", ["p1_o3", "p2_corrupted"])
    def test_cli_exits_two(self, capsys, monkeypatch, command, value, model):
        monkeypatch.setenv("TORLOG_WEIGHT_CAP", value)
        code, out, err = run_cli(capsys, [command, str(MODELS / f"{model}.json")])
        assert code == 2 and out == ""
        assert err.splitlines() == [f"torlog: TORLOG_WEIGHT_CAP must be an integer, got '{value}'"]

    def test_other_commands_ignore_it(self, capsys, monkeypatch):
        monkeypatch.setenv("TORLOG_WEIGHT_CAP", "abc")
        code, _, err = run_cli(capsys, ["cocycle", str(MODELS / "p2_rank2.json")])
        assert code == 0 and err == ""


class TestCocycleCommandRunsEachLawOnce:
    def test_one_antisymmetry_and_one_root_chart_pass(self, capsys, monkeypatch):
        # a pass is its batches of zero tests, told apart by shape: the
        # root-chart law's C_sr * X - W, antisymmetry's C_ts * X * C_st + Z
        # and the triples' C * X * D + Z - W
        batches = []
        real = cocycles.vanishing

        def spy(C, Xs, D=None, plus=(), minus=()):
            batches.append("root_chart" if D is None else "triples" if minus else "antisymmetry")
            return real(C, Xs, D, plus, minus)
        monkeypatch.setattr(cocycles, "vanishing", spy)
        code, out, _ = run_cli(capsys, ["cocycle", str(MODELS / "p2_rank2.json")])
        assert code == 0
        # three charts: m - 1 = 2 root-chart batches and 3 antisymmetry batches make one pass each
        assert batches.count("root_chart") == 2 and batches.count("antisymmetry") == 3
        triples = [v for v in json.loads(out)["verdicts"] if v["check"].startswith("triple_identity")]
        assert len(triples) == 6 and all(v["status"] == "pass" for v in triples)


class TestSplitCommandRunsNoAntisymmetry:
    def test_gated_split_hands_in_no_antisymmetry(self, capsys, monkeypatch):
        calls = []
        real = cocycles.check_frame_antisymmetry

        def spy(*args):
            calls.append(args)
            return real(*args)
        for mod in (cli, cocycles, splitting):
            monkeypatch.setattr(mod, "check_frame_antisymmetry", spy)
        code, out, _ = run_cli(capsys, ["split", str(MODELS / "p2_rank2.json")])
        assert code == 0
        assert calls == []
        verdicts = json.loads(out)["verdicts"]
        assert any(v["check"] == "splitting" and v["status"] == "pass" for v in verdicts)


class TestSplitCommandRunsNoGaugeLaw:
    def test_split_lists_the_gauge_law_without_running_it(self, capsys, monkeypatch):
        calls = []
        real = splitting.connection_from_splitting

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(splitting, "connection_from_splitting", spy)
        monkeypatch.setattr(cli, "connection_from_splitting", spy, raising=False)
        code, out, _ = run_cli(capsys, ["split", str(MODELS / "p2_rank2.json")])
        assert code == 0
        assert calls == []
        gauge = [v for v in json.loads(out)["verdicts"] if v["check"].startswith("gauge_law")]
        assert len(gauge) == 6 and all(v["status"] == "pass" for v in gauge)


def p1_with_entry(poly):
    model = p1_fan_block()
    model["transitions"] = {"1,2": [[poly]]}
    return model


def term(**changes):
    return {"exponent": [0], "num": 1, "den": 1, **changes}


class TestTermParsing:
    """Each term is read straight into its canonical coefficient, with the old messages."""

    WHERE = "torlog: transitions[1,2][0][0]"

    @pytest.mark.parametrize("poly, message", [
        ({"a": 1}, " must be an array of terms"),
        ([5], ", term 0 must be an object"),
        ([term(extra=0)], ", term 0 must have exactly the keys exponent/num/den"),
        ([{"exponent": [0], "num": 1}], ", term 0 must have exactly the keys exponent/num/den"),
        ([term(exponent=3)], ", term 0 exponent must be an array of integers"),
        ([term(exponent=[1.5])], ", term 0 exponent must be an integer"),
        ([term(exponent=[0, 1])], ", term 0 exponent must have length 1, got 2"),
        ([term(num=True)], ", term 0 num must be an integer"),
        ([term(den="2")], ", term 0 den must be an integer"),
        ([term(den=0)], ", term 0 has denominator zero"),
        ([term(), term(exponent=[True])], ", term 1 exponent must be an integer"),
        ([term(), term(num=1, den=0)], ", term 1 has denominator zero"),
    ], ids=["poly-not-array", "term-not-object", "extra-key", "missing-key",
            "exponent-not-array", "exponent-entry", "exponent-length", "bool-num",
            "non-int-den", "zero-den", "second-term-exponent", "second-term-den"])
    def test_every_error_branch_keeps_its_message(self, capsys, tmp_path, poly, message):
        code, out, err = run_cli(capsys, ["validate", write_model(tmp_path, p1_with_entry(poly))])
        assert (code, out) == (2, "")
        assert err == self.WHERE + message + "\n"

    @pytest.mark.parametrize("poly, terms", [
        ([term(num=2, den=2)], {(0,): 1}),
        ([term(num=-6, den=-3)], {(0,): 2}),
        ([term(num=1, den=-2)], {(0,): Fraction(-1, 2)}),
        ([term(num=4, den=6)], {(0,): Fraction(2, 3)}),
        ([term(exponent=[1]), term(exponent=[1], num=-1), term()], {(0,): 1}),
        ([term(num=1, den=2), term(num=1, den=2)], {(0,): 1}),
        ([term(num=1, den=3), term(num=1, den=6)], {(0,): Fraction(1, 2)}),
        ([term(num=0)], {}),
        ([term(num=0), term(num=3)], {(0,): 3}),
    ])
    def test_exact_coefficients(self, poly, terms):
        got = cli._parse_poly(poly, 1, "p").terms
        assert got == terms
        assert [type(c) for c in got.values()] == [type(c) for c in terms.values()]

    def test_matches_summing_fractions(self):
        rng = random.Random(1109)
        for _ in range(300):
            poly = [term(exponent=[rng.randint(-1, 1), rng.randint(-1, 1)],
                         num=rng.randint(-4, 4), den=rng.choice([-3, -2, -1, 1, 2, 3, 4]))
                    for _ in range(rng.randint(0, 6))]
            sums = {}
            for t in poly:
                e = tuple(t["exponent"])
                sums[e] = sums.get(e, Fraction(0)) + Fraction(t["num"], t["den"])
            got = cli._parse_poly(poly, 2, "p")
            assert got == LaurentPoly(sums)
            assert all(type(c) is (int if c.denominator == 1 else Fraction)
                       for c in got.terms.values())


class TestOneParserPerProcess:
    """main reuses one parser; each call prints what a fresh process prints."""

    CALLS = [
        (["validate", str(MODELS / "p2_rank2.json"), "--format", "text"], 0),
        (["equivariance", str(MODELS / "p1_o3.json"), "--format", "json"], 0),
        (["--help"], 0),
        (["frobnicate", str(MODELS / "p1_o3.json")], 2),
        (["cocycle", str(MODELS / "p2_corrupted.json"), "--format", "text"], 1),
    ]

    def test_in_process_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for argv, want in self.CALLS:
            code, out, err = run_cli(capsys, argv)
            fresh = subprocess.run([sys.executable, "-m", "torlog.cli", *argv],
                                   capture_output=True, text=True, env=env, check=False)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert code == want and (out or err)
        assert cli._parser() is cli._parser()


class TestFanParsing:
    """The fan block is checked inline; every branch prints the message it printed before."""

    # messages recorded at the commit before the inline checks
    @pytest.mark.parametrize("change, message", [
        ({"rank_n": "1"}, "rank_n must be an integer"),
        ({"rank_n": True}, "rank_n must be an integer"),
        ({"rank_n": 0}, "rank_n must be positive"),
        ({"rays": {"a": 1}}, "rays must be a nonempty array"),
        ({"rays": []}, "rays must be a nonempty array"),
        ({"rays": [5, [-1]]}, "ray 0 must be an array of integers"),
        ({"rays": [[1], 5]}, "ray 1 must be an array of integers"),
        ({"rays": [[1], [True]]}, "ray 1 must be an integer"),
        ({"rays": [[1], [1.0]]}, "ray 1 must be an integer"),
        ({"rays": [[1], [-1, 0]]}, "ray 1 must have length 1, got 2"),
        ({"rays": [[1], [0.5, 1]]}, "ray 1 must be an integer"),
        ({"rays": [[1], ["a"]], "cones": "x"}, "ray 1 must be an integer"),
        ({"cones": "x"}, "cones must be an array"),
        ({"cones": [[], 3]}, "cone 1 must be an array of integers"),
        ({"cones": [[], ["0"]]}, "cone 1 must be an integer"),
        ({"cones": [[], [False]]}, "cone 1 must be an integer"),
        ({"cones": [[], [2]]}, "cone 1 references missing ray 2"),
        ({"cones": [[], [-1]]}, "cone 1 references missing ray -1"),
        ({"cones": [[], [5, "a"]]}, "cone 1 must be an integer"),
        ({"cones": [[], [3], ["a"]]}, "cone 1 references missing ray 3"),
        ({"declared_complete": 1}, "declared_complete must be a boolean"),
    ], ids=["rank-str", "rank-bool", "rank-zero", "rays-object", "rays-empty",
            "first-ray-not-array", "ray-not-array", "ray-bool", "ray-float", "ray-length",
            "ray-type-before-length", "ray-before-cones", "cones-not-array", "cone-not-array",
            "cone-str", "cone-bool", "cone-missing-ray", "cone-negative-ray",
            "cone-type-before-range", "missing-ray-before-later-cone", "complete-not-bool"])
    def test_every_error_branch_keeps_its_message(self, capsys, tmp_path, change, message):
        code, out, err = run_cli(capsys, ["validate", write_model(tmp_path, {**p1_fan_block(),
                                                                            **change})])
        assert (code, out, err) == (2, "", f"torlog: {message}\n")

    def test_a_zero_ray_fails_construction(self, capsys, tmp_path):
        model = {**p1_fan_block(), "rays": [[0], [-1]]}
        code, out, err = run_cli(capsys, ["validate", write_model(tmp_path, model)])
        assert (code, err) == (3, "")
        assert out == ('{"artifacts":{},"command":"validate","verdicts":[{"check":"model",'
                       '"detail":"fan construction failed: cannot primitivize the zero vector",'
                       '"status":"fail"}]}\n')
