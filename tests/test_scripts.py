"""The scripts under scripts/ run, make_models.py reproduces models/ byte for byte,
and a short benchmark run passes every exact gate of its workloads."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from torlog.splitting import InconsistentSplittingError

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, check=False)


def test_make_models_reproduces_the_bundled_models(tmp_path):
    proc = run_script("make_models.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    bundled = {p.name: p.read_bytes() for p in (ROOT / "models").glob("*.json")}
    made = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(made) == sorted(bundled)
    for name in bundled:
        assert made[name] == bundled[name], name


def test_sweep_line_bundles_on_p2():
    proc = run_script("sweep_line_bundles.py", "--fan", "p2", "--max-degree", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "# 5/5 degrees split within the search budget"


def load_script(name):
    """A script under scripts/ imported as a module, to run its main in this process."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_line_bundles_reports_a_broken_gauge_law(monkeypatch, capsys):
    sweep = load_script("sweep_line_bundles.py")

    def broken(splitting, data):
        raise InconsistentSplittingError("gauge law fails across pair (1,2)")

    monkeypatch.setattr(sweep, "connection_from_splitting", broken)
    assert sweep.main(["--fan", "p1", "--max-degree", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[4] for line in lines[2:5]] == ["BROKEN"] * 3
    assert lines[-2:] == ["# 3/3 degrees split within the search budget",
                          "# 3/3 found splittings fail the gauge law"]


def test_sweep_line_bundles_reports_a_malformed_cap_as_a_usage_error(monkeypatch):
    monkeypatch.setenv("TORLOG_WEIGHT_CAP", "abc")
    proc = run_script("sweep_line_bundles.py", "--fan", "p1", "--max-degree", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "sweep_line_bundles: TORLOG_WEIGHT_CAP must be an integer, got 'abc'"]
    # an explicit --cap beats the environment, as in the library
    proc = run_script("sweep_line_bundles.py", "--fan", "p1", "--max-degree", "1", "--cap", "2")
    assert proc.returncode == 0, proc.stderr


def test_graded_sizes_counts_the_reached_rows():
    proc = run_script("graded_sizes.py", "--fans", "P1", "P2", "--ranks", "1", "3",
                      "--seeds", "0", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "# depth-0 graded systems, seeds 0-2, 1 dressing factor(s)"
    assert [line.split()[0] for line in lines[2:]] == ["P1/r1", "P1/r3", "P2/r1", "P2/r3", "total"]
    counts = [[int(x) for x in line.split()[1:] if not x.endswith(("%", "-"))] for line in lines[2:]]
    assert [sum(col) for col in zip(*counts[:-1])] == counts[-1]
    for systems, no_rhs, rows, rows_reached, unknowns, unknowns_reached in counts:
        assert no_rhs <= systems and rows_reached <= rows and unknowns_reached <= unknowns
    # rank 1: every A_{t s0} is constant, so no system has a right-hand side or a row
    assert counts[0][:4] == counts[2][:4] == [3, 3, 0, 0]
    assert counts[1][3] > 0 and counts[3][3] > 0


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        # a comment-only line
        text = """a string,
not a docstring"""
        return text
''', encoding="utf-8")
    proc = run_script("code_lines.py", str(module))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "15", "mod.py", "6", "15", "total"]


def test_benchmark_gates_pass_on_every_workload():
    """A half-second run of each perfbench workload: every item passes its exact output gate."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
                           "--seed", "1", "--seconds", "0.5", "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0
