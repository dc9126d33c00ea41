"""torlog benchmark: seeded closed-loop workloads, exact output gates, optional spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cocycle-ladder --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload, each in a child process of its own so
that ``peak_rss_mb`` is the workload's own.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it print the environment and
every metric by name with its unit.  Any failed gate makes the exit code 1; a
checkout without the torlog sources makes it 2, before any result is printed.
See ``perfbench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

from tracing import ITEM_SPAN, SETUP_SPAN, Tracer, layer_of
from workloads import WORKLOADS, Dirs, Item, Outcome, clear_report, read_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
OUT = ROOT / ".perfbench_run"  # scratch reports and trace files, inside the checkout

MODULES = ("fans", "laurent", "bundles", "cocycles", "splitting", "corpus", "reports", "cli")
# Set-ups per untraced run: the one before the loop and the rest spread over
# the measuring time.  Set-up takes well under a second, and the machine's
# speed drifts over seconds, so set-ups taken back to back share one spell.
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items above it

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("fans", "laurent", "cocycles", "splitting", "bundles", "corpus", "reports", "cli")
# Spans whose self time per pass is a per-layer metric, as ``<span>_s``.  fans
# is only validate_fan, laurent only LaurentMatrix.__mul__, reports only emit.
# corpus.gen_s is the generators' whole time in a traced set-up, not in the pass.
SPANS = (
    "fans.validate", "laurent.matmul",
    "cocycles.validate", "cocycles.atiyah", "cocycles.antisymmetry",
    "cocycles.triple", "cocycles.pipelines",
    "splitting.verdict", "splitting.split", "splitting.gauge",
    "bundles.compat", "bundles.residue", "bundles.recover", "bundles.chern",
    "bundles.residue_chern",
    "cli.load", "reports.emit",
)
# cli.run_s.<command> is the whole time of one command, the layers it calls included.
COMMANDS = ("validate", "residues", "chern", "cocycle", "theorem-ab", "split", "equivariance")
COUNTS = ("laurent.input_terms", "laurent.cocycle_terms", "laurent.matmul_calls",
          "splitting.weights_searched", "splitting.closure_depth_max", "reports.bytes")

PER_LAYER = {  # name -> unit, in the order they are printed
    "corpus.gen_s": "s",
    **{f"{span}_s": "s" for span in SPANS},
    **{f"cli.run_s.{command}": "s" for command in COMMANDS},
    **{name: "count" for name in COUNTS},
    "trace.overhead_s": "s",
}


# --- loading the library from this checkout -------------------------------------------

def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_checkout() -> None:
    missing = [p for p in (SRC / "torlog" / "__init__.py", MODELS) if not p.exists()]
    if missing:
        die(f"checkout at {ROOT} lacks {', '.join(map(str, missing))}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def torlog_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "torlog" or n.startswith("torlog.")}


def fresh_import() -> types.SimpleNamespace:
    """Import torlog from scratch, as a new process would (the import half of set-up)."""
    for name in torlog_modules():
        del sys.modules[name]
    pkg = importlib.import_module("torlog")
    if Path(pkg.__file__).resolve().parent != SRC / "torlog":
        die(f"imported torlog from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"torlog.{m}") for m in MODULES})


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- measurement ----------------------------------------------------------------------

@dataclass
class Record:
    """Everything measured for one item of the pass."""

    item: Item
    walls: list = field(default_factory=list)  # untraced executions, seconds
    traced: list = field(default_factory=list)  # (wall, Tracer.times()) per traced execution
    counts: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    undetermined: int = 0
    details: list = field(default_factory=list)

    def add(self, item: Item, out: Outcome) -> None:
        self.attempted += 1
        if not out.ok:
            self.failed += 1
            self.undetermined += int(out.undetermined)
            if len(self.details) < 10:
                self.details.append(f"item {item.ident} ({item.cell}): {out.detail}")


def run_guarded(wl, tl, item: Item) -> Outcome:
    try:
        return wl.run(tl, item)
    except Exception as exc:  # an item that raises is a failed item; the run goes on
        traceback.print_exc(file=sys.stderr)
        return Outcome(False, detail=f"raised {type(exc).__name__}: {exc}")


def execute(wl, tl, rec: Record, tally: Tally, reference: dict, tracer: Tracer | None):
    """Run one item once, timed; traced when a tracer is given."""
    item = rec.item
    if wl.writes_reports:
        clear_report(item)
    if tracer is None:
        start = time.perf_counter()
        out = run_guarded(wl, tl, item)
        rec.walls.append(time.perf_counter() - start)
    else:
        tracer.enable()
        first = len(tracer.spans)
        close = tracer.span(ITEM_SPAN, item.ident)
        try:
            out = run_guarded(wl, tl, item)
        finally:
            wall = close()
            tracer.disable()
        rec.traced.append((wall, tracer.times(first)))
        counts = tracer.take_counts(first)
        if item.input_terms:
            counts["laurent.input_terms"] = counts.get("laurent.input_terms", 0) + item.input_terms
        if rec.counts is None:
            rec.counts = counts
        elif counts != rec.counts and out.ok:
            out = Outcome(False, detail="counts differ between two runs of one item")
    if wl.writes_reports and out.ok and read_report(item) != reference.get(item.ident):
        out = Outcome(False, detail="report bytes differ from the warm-up pass")
    tally.add(item, out)


def warm_up(wl, tl, items, tally: Tally) -> dict:
    """For a workload that writes reports: one untimed pass, whose reports every
    later run must repeat byte for byte.  Returns item id -> report bytes."""
    reference = {}
    if wl.writes_reports:
        for item in items:
            clear_report(item)
            tally.add(item, run_guarded(wl, tl, item))
            reference[item.ident] = read_report(item)
    return reference


def measure(wl, tl, items, seconds: float, tally: Tally, reference: dict, tracer=None,
            setup_again=None):
    """Closed loop over the pass until ``seconds`` are up and every item ran once.

    With a tracer every item runs twice back to back, once traced and once not,
    alternating which goes first, so the overhead is measured on the same work.
    ``setup_again``, when given, is called SETUP_REPEATS - 1 times between
    items, at even intervals over the measuring time.
    """
    records = [Record(it) for it in items]
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)] \
        if setup_again else []
    full_pass = False
    turn = 0
    while True:
        for rec in records:
            if tracer is None:
                execute(wl, tl, rec, tally, reference, None)
            else:
                order = (tracer, None) if turn % 2 == 0 else (None, tracer)
                turn += 1
                for t in order:
                    execute(wl, tl, rec, tally, reference, t)
            while due and time.perf_counter() >= due[0]:
                due.pop(0)
                setup_again()
            if full_pass and time.perf_counter() >= deadline:
                return records
        full_pass = True
        if time.perf_counter() >= deadline:
            return records


def timed_setup(wl, seed: int, dirs: Dirs):
    """One set-up, as a user pays it before the first item: a fresh import and
    the generation (or load) of the inputs from the seed.

    Returns (seconds, modules, items).
    """
    gc.collect()  # drop the previous set-up's garbage, which a new process would not have
    start = time.perf_counter()
    tl = fresh_import()
    items = wl.build(tl, random.Random(seed), dirs)
    return time.perf_counter() - start, tl, items


def setup_aside(wl, seed: int, dirs: Dirs) -> float:
    """Time one more set-up while the loop runs; returns its seconds.

    Its modules and items are dropped, and ``sys.modules`` again names the
    modules the loop's items were built with, because the library imports
    some names at call time.
    """
    loop_modules = torlog_modules()
    try:
        return timed_setup(wl, seed, dirs)[0]
    finally:
        for name in torlog_modules():
            del sys.modules[name]
        sys.modules.update(loop_modules)


def setup(wl, seed: int, dirs: Dirs, tracer: Tracer | None):
    """The set-up whose modules and items the run uses.

    Returns (modules, items, seconds, traced set-up or None).  With a tracer,
    one more build runs with the wrappers on, for the per-layer view of
    set-up; its modules and items are the ones used.
    """
    seconds, tl, items = timed_setup(wl, seed, dirs)
    setup_trace = None
    if tracer is not None:
        tl = fresh_import()
        tracer.prepare(tl)
        tracer.enable()
        first = len(tracer.spans)
        close = tracer.span(SETUP_SPAN, "setup")
        items = wl.build(tl, random.Random(seed), dirs)
        wall = close()
        tracer.disable()
        tracer.take_counts()
        setup_trace = (wall, tracer.times(first)[1])
    return tl, items, seconds, setup_trace


# --- statistics -----------------------------------------------------------------------

def tail(values):
    """(percentile, value, count beyond): the highest whole percentile with at
    least TAIL_BEYOND values above its nearest rank.

    With too few values to leave TAIL_BEYOND above any percentile, the maximum
    is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def end_to_end(records, setup_times, tally: Tally) -> tuple[dict, list]:
    """End-to-end metrics from the untraced runs.

    An item's latency is its fastest run.  A shared machine's interference
    only ever adds time, and it comes in spells, so the fastest of an item's
    runs, spread over the whole run, is its steadiest reading.  The rate, the
    median and the tail are all taken over these latencies, one per item.
    """
    latencies = [min(r.walls) for r in records]
    runs = sum(len(r.walls) for r in records)
    p, tail_s, beyond = tail(latencies)
    n = len(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": n / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} imports + builds spread over the run",
        "items_per_s": f"{n} items, each at its fastest of {runs / n:.1f} runs on average",
        "item_p50_ms": f"median over {n} items",
        "item_tail_ms": f"p{p} over {n} items, {beyond} beyond",
        "peak_rss_mb": "this process",
    }
    lines = [(k, v, END_TO_END[k], notes[k]) for k, v in values.items()]
    attempted = max(tally.attempted, 1)
    lines.append(("failed_frac", tally.failed / attempted, "frac",
                  f"{tally.failed} of {tally.attempted} runs failed a gate"))
    lines.append(("undetermined_frac", tally.undetermined / attempted, "frac",
                  f"{tally.undetermined} of {tally.attempted} runs: solver miss"))
    return values, lines


def per_layer(records, setup_trace) -> tuple[dict, list]:
    """Seconds per pass per span, and counts.

    Each item contributes the spans of its fastest traced run, as the
    end-to-end metrics use its fastest untraced run.  A span the workload
    never calls reads 0 s.
    """
    self_s: dict = {}
    total_s: dict = {}
    for rec in records:
        _, (own, whole) = min(rec.traced, key=lambda run: run[0])
        for out, times in ((self_s, own), (total_s, whole)):
            for name, value in times.items():
                out[name] = out.get(name, 0.0) + value
    layer_s: dict = {}
    for name, s in self_s.items():
        layer_s[layer_of(name)] = layer_s.get(layer_of(name), 0.0) + s

    counts: dict = {name: 0 for name in COUNTS}
    calls = found = 0
    for rec in records:
        c = rec.counts or {}
        for name in COUNTS:
            if name == "splitting.closure_depth_max":
                counts[name] = max(counts[name], c.get(name, 0))
            else:
                counts[name] += c.get(name, 0)
        calls += c.get("splitting.calls", 0)
        found += c.get("splitting.found", 0)

    setup_wall, setup_whole = setup_trace
    untraced_pass_s = sum(min(r.walls) for r in records)
    traced_pass_s = sum(min(w for w, _ in rec.traced) for rec in records)
    overhead = traced_pass_s - untraced_pass_s
    values = {"corpus.gen_s": setup_whole.get("corpus.gen", 0.0)}
    values.update({f"{span}_s": self_s.get(span, 0.0) for span in SPANS})
    values.update({f"cli.run_s.{c}": total_s.get(f"cli.run.{c}", 0.0) for c in COMMANDS})
    values.update(counts)
    values["trace.overhead_s"] = overhead

    notes = {"corpus.gen_s": f"whole time of the generators in a traced set-up of {setup_wall:.4f} s",
             "trace.overhead_s": "traced pass minus untraced pass"}
    lines = [(k, v, PER_LAYER[k], notes.get(k, "per pass")) for k, v in values.items()]
    lines += [(f"{name}_s", s, "s", "self time per pass") for name, s in sorted(self_s.items())
              if name not in SPANS]
    lines += [(f"{layer}.self_s", layer_s.get(layer, 0.0), "s", "self time per pass")
              for layer in LAYERS + ("bench",)]
    lines.append(("splitting.calls", calls, "count", "per pass"))
    lines.append(("splitting.found_frac", found / calls if calls else 0.0, "frac",
                  "splittings found / split_cocycle calls"))
    lines.append(("trace.pass_s", traced_pass_s, "s", "traced pass"))
    lines.append(("trace.untraced_pass_s", untraced_pass_s, "s", "same items, twins untraced"))
    lines.append(("trace.overhead_pct", 100 * overhead / untraced_pass_s, "%", ""))
    return values, lines


# --- one workload ---------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, printable lines, tally, tracer or None)."""
    wl = WORKLOADS[name]
    tracer = Tracer() if trace else None
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reports-", dir=OUT)
    try:
        dirs = Dirs(str(MODELS), out_dir)
        tl, items, first_setup_s, setup_trace = setup(wl, seed, dirs, tracer)
        setup_times = [first_setup_s]
        tally = Tally()
        reference = warm_up(wl, tl, items, tally)
        records = measure(wl, tl, items, seconds, tally, reference, tracer,
                          None if trace else
                          lambda: setup_times.append(setup_aside(wl, seed, dirs)))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    values, lines = end_to_end(records, setup_times, tally)
    if trace:
        values, layer_lines = per_layer(records, setup_trace)
        lines = [(k, v, u, "untraced twins, " + note) for k, v, u, note in lines]
        lines += layer_lines
    return values, lines, tally, tracer


def format_line(workload: str, name: str, value, unit: str, note: str) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    text = f"{workload:16} {name:32} {shown:>14} {unit}"
    return f"{text:72}  {note}" if note else text


def run_here(args, env) -> tuple[dict, int, int]:
    """Run one workload in this process; print its lines; return (metrics, attempted, failed)."""
    name = args.workload
    values, lines, tally, tracer = run_workload(name, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(format_line(name, *line), flush=True)
    for detail in tally.details:
        print(f"# FAILED {name} {detail}", flush=True)
    if tracer is not None:
        path = OUT / f"trace-{name}-seed{args.seed}.json"
        tracer.write(str(path), {"env": env, "workload": name, "metrics": values})
        print(f"# spans of {name} written to {path.relative_to(ROOT)}", flush=True)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, tally.attempted, tally.failed


def run_children(args) -> tuple[dict, int, int]:
    """Run every workload in a child process of its own, one after another.

    Returns the merged metrics, each prefixed with its workload's name.
    """
    metrics: dict = {}
    attempted = failed = 0
    for name in sorted(WORKLOADS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            raise SystemExit(proc.returncode or 1) from None
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    if args.workload == "all":
        metrics, attempted, failed = run_children(args)
    else:
        metrics, attempted, failed = run_here(args, env)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
