from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torlog import splitting
from torlog.cli import COMMANDS, UsageError, load_model, main, run

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
