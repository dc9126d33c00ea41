"""Tests of the benchmark itself: exact counts, clean seeds, gates that bite.

Run with ``python3 -m pytest perfbench``.  The heavy workloads are tested on
their light items, which exercise the same code paths in seconds.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, Dirs, Outcome

run.check_checkout()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Cheap items that still reach every layer each workload loads.
LIGHT = {
    "cocycle-ladder": lambda items: [it for it in items if it.input_terms < 60],
    "split-ladder": lambda items: [it for it in items if it.cell in ("P2/r2", "P1/r3")][:8],
    "cli-corpus": lambda items: items,
}


def one_pass(name: str, seed: int, out_dir: Path, traced: bool):
    """One closed-loop pass over the light items; returns (tally, every printed value)."""
    wl = WORKLOADS[name]
    tracer = Tracer() if traced else None
    tl, items, _, setup_trace = run.setup(wl, seed, Dirs(str(run.MODELS), str(out_dir)), tracer)
    items = LIGHT[name](items)
    tally = run.Tally()
    reference = run.warm_up(wl, tl, items, tally)
    records = run.measure(wl, tl, items, 0, tally, reference, tracer)
    lines = run.per_layer(records, setup_trace)[1] if traced else []
    return tally, {name: value for name, value, *_ in lines}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(name, tmp_path):
    first_tally, first = one_pass(name, 1, tmp_path, traced=True)
    second_tally, second = one_pass(name, 1, tmp_path, traced=True)
    assert first_tally.failed == second_tally.failed == 0, first_tally.details
    counts = run.COUNTS + ("splitting.calls", "splitting.found_frac")
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["laurent.input_terms"] > 0
    if name in ("split-ladder", "cli-corpus"):
        assert first["splitting.weights_searched"] > 0
        assert first["splitting.found_frac"] == 1.0
    if name == "cli-corpus":
        assert first["reports.bytes"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_runs_clean(name, tmp_path):
    tally, _ = one_pass(name, 2, tmp_path, traced=False)
    assert tally.attempted > 0 and tally.failed == 0, tally.details


def test_seed_fixes_the_inputs(tmp_path):
    build = WORKLOADS["cocycle-ladder"].build
    tl = run.fresh_import()
    dirs = Dirs(str(run.MODELS), str(tmp_path))

    def inputs(seed):
        return [it.payload.matrices for it in build(tl, random.Random(seed), dirs)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def bench_output(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    code, result = bench_output(["--workload", "split-ladder", "--seed", "3",
                                 "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gates_reject_wrong_outputs(tmp_path):
    tl = run.fresh_import()
    dirs = Dirs(str(run.MODELS), str(tmp_path))

    cc = WORKLOADS["cocycle-ladder"]
    item = next(it for it in cc.build(tl, random.Random(1), dirs)
                if it.cell == "P2/r2")
    td = item.payload
    pair = min(td.matrices)
    td.matrices[pair] = tl.laurent.LaurentMatrix.identity(td.rank, td.fan.dim)
    assert not cc.run(tl, item).ok

    cli = WORKLOADS["cli-corpus"]
    item = cli.build(tl, random.Random(1), dirs)[0]
    argv, out, want = item.payload
    item.payload = (argv, out, want + 1)
    assert cli.run(tl, item) == Outcome(False, detail=f"exit code {want}, expected {want + 1}")


def test_set_ups_during_the_loop_keep_its_modules(tmp_path):
    wl = WORKLOADS["split-ladder"]
    dirs = Dirs(str(run.MODELS), str(tmp_path))
    tl, items, first, _ = run.setup(wl, 1, dirs, None)
    loop_modules = run.torlog_modules()
    times = [first]
    run.measure(wl, tl, LIGHT["split-ladder"](items), 0, run.Tally(), {},
                setup_again=lambda: times.append(run.setup_aside(wl, 1, dirs)))
    assert len(times) == run.SETUP_REPEATS and all(t > 0 for t in times)
    assert run.torlog_modules() == loop_modules


def test_tail_keeps_ten_items_above():
    assert run.tail(list(range(1, 43))) == (76, 32, 10)
    p, value, beyond = run.tail([float(x) for x in range(360)])
    assert p == 97 and beyond == sum(x > value for x in range(360)) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_all_runs_each_workload_in_its_own_process():
    code, result = bench_output(["--workload", "all", "--seed", "4", "--seconds", "0.05"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in declared}


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "lacks" in proc.stderr
