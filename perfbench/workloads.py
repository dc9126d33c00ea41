"""The three benchmark workloads: seeded inputs, one closed-loop item each, exact gates.

A workload has two steps:

* ``build(tl, rng, dirs)`` is the set-up a user pays: it generates the inputs
  of one pass from ``rng`` with ``torlog.corpus`` (or loads the model files)
  and returns the items.  The same seed gives the same items.
* ``run(tl, item)`` executes one item against the library and checks its
  output exactly.

``tl`` is a namespace holding the freshly imported ``torlog`` modules.  Every
library call goes through a module attribute, so the traced run can wrap it.
``perfbench/README.md`` explains why each workload exists and which layers it
loads.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass


@dataclass
class Item:
    """One unit of closed-loop work: a cell label, an input and its size."""

    ident: int
    cell: str
    payload: object
    input_terms: int = 0


@dataclass
class Outcome:
    ok: bool
    undetermined: bool = False
    detail: str = ""


@dataclass
class Workload:
    name: str
    build: object  # build(tl, rng, dirs) -> list[Item]
    run: object  # run(tl, item) -> Outcome
    writes_reports: bool = False


@dataclass
class Dirs:
    models: str  # the bundled model files
    out: str  # scratch directory for reports, inside the checkout


# The ladder of smooth complete fans from ROADMAP.md.
FAN_NAMES = ("P1", "P2", "P1xP1", "F1", "F2", "P3")

# Unitriangular factors per chart in a dressing.  ``random_transition_data``
# uses two; a rank-3 family on a four-cone surface or P3 then takes 0.2-6.6 s
# through the cocycle checks, so a run could time each such item once or
# twice, and a shared machine's slow spells would set the reading.  With one
# factor every item takes under about 0.2 s, its time varies less than 3x
# within a cell, and the solver finishes rank 3 on every fan of the ladder.
DRESSING_FACTORS = 1


def make_fan(fans, name: str):
    return {
        "P1": lambda: fans.projective_fan(1),
        "P2": lambda: fans.projective_fan(2),
        "P1xP1": fans.product_p1_fan,
        "F1": lambda: fans.hirzebruch_fan(1),
        "F2": lambda: fans.hirzebruch_fan(2),
        "P3": lambda: fans.projective_fan(3),
    }[name]()


def transition_terms(td) -> int:
    """Input size of a dressed family: Laurent terms over all its transition matrices."""
    return sum(len(f.terms) for M in td.matrices.values() for row in M.entries for f in row)


def _draw(tl, fan, rank: int, rng):
    data = tl.corpus.random_equivariant_data(fan, rank, rng)
    dressing = tl.corpus.random_dressing(fan, rank, rng, factors=DRESSING_FACTORS)
    return tl.corpus.dressed_transitions(data, dressing)


def _cell_builder(cells, per_rank: dict):
    """A build step drawing ``per_rank[rank]`` dressed families for each (fan, rank) cell.

    The round-robin order spreads every cell over the pass, so the runs of
    each cell are spread over the whole measuring time.
    """
    def build(tl, rng, dirs) -> list[Item]:
        fans = {name: make_fan(tl.fans, name) for name, _ in cells}
        items = []
        for k in range(max(per_rank.values())):
            for fan_name, rank in cells:
                if k >= per_rank[rank]:
                    continue
                payload = _draw(tl, fans[fan_name], rank, rng)
                items.append(Item(len(items), f"{fan_name}/r{rank}", payload,
                                  transition_terms(payload)))
        return items

    return build


def _n_maximal(fan) -> int:
    return len(fan.maximal_cone_indices())


# --- cocycle-ladder -------------------------------------------------------------

# Every fan at ranks 1-3: four draws per cell at rank 1, eight at ranks 2 and
# 3.  Item times cluster by cell.  These counts put the median inside the
# middle cluster (rank 2 on the four-cone surfaces and P3, rank 3 on P2)
# rather than on the edge between two clusters, where it would jump from seed
# to seed.  The pass takes 1.5-2.5 s on a 2-core box, so each item runs about
# fifteen times or more in a 40 s run.
COCYCLE_CELLS = [(f, r) for f in FAN_NAMES for r in (1, 2, 3)]
build_cocycle_ladder = _cell_builder(COCYCLE_CELLS, {1: 4, 2: 8, 3: 8})


def run_cocycle_ladder(tl, item: Item) -> Outcome:
    """What the ``cocycle`` and ``theorem-ab`` commands run, on one family."""
    cc = tl.cocycles
    td = item.payload
    valid = cc.validate_transitions(td)
    A = cc.atiyah_cocycle(td)
    anti = cc.check_frame_antisymmetry(A, td)
    triple = cc.check_triple_identity(A, td)
    pipes = cc.check_cocycle_pipelines(td)
    m = _n_maximal(td.fan)
    expected = {"validate": (valid, 5), "antisymmetry": (anti, m * (m - 1) // 2),
                "triple": (triple, m * (m - 1) * (m - 2)), "pipelines": (pipes, m * (m - 1))}
    for what, (checks, count) in expected.items():
        if len(checks) != count:
            return Outcome(False, detail=f"{what}: {len(checks)} checks, expected {count}")
        bad = [c.name for c in checks if not c.ok]
        if bad:
            return Outcome(False, detail=f"{what} failed: {bad[:3]}")
    return Outcome(True)


# --- split-ladder ---------------------------------------------------------------

# Rank 2 on the surfaces and P3, rank 3 on P1.  The solver's time spreads
# about 3x within a cell from draw to draw (3-12 ms on P2, 8-37 ms on the
# four-cone surfaces and P3), so the median and the tail move with the seed
# unless a pass holds many draws: 24 per cell keeps the spread of either over
# ten seeds near 0.06.  Rank 3 on P2 (10-65 ms with one factor, 16-28 s with
# two) and on P3 stay out: a dozen such draws would hold most of the tail and
# move it with each seed.
SPLIT_CELLS = [("P2", 2), ("P1xP1", 2), ("F1", 2), ("F2", 2), ("P3", 2), ("P1", 3)]
build_split_ladder = _cell_builder(SPLIT_CELLS, {2: 24, 3: 24})


def run_split_ladder(tl, item: Item) -> Outcome:
    """The headline verdict on a bundle that is equivariant by construction."""
    td = item.payload
    checks, result = tl.splitting.equivariance_verdict(td)
    m = _n_maximal(td.fan)
    if not checks or checks[-1].name != "equivariance":
        return Outcome(False, detail="no equivariance verdict")
    status = checks[-1].status
    if status == "undetermined":
        return Outcome(False, undetermined=True, detail=checks[-1].detail)
    bad = [c.name for c in checks if not c.ok]
    if bad or status != "pass" or not result.found:
        return Outcome(False, detail=f"verdict {status}, failed {bad[:3]}")
    if len(checks) != m * (m - 1) * (m - 2) + 1:
        return Outcome(False, detail=f"{len(checks)} checks for {m} maximal cones")
    return Outcome(True)


# --- cli-corpus -----------------------------------------------------------------

# Exit codes every (model, command) call must return; anything else fails.
# p2_corrupted carries corrupted transitions and a valid bundle block, so the
# transition commands fail (1) and the bundle commands pass (0).
# hirzebruch_dressed has no bundle block: residues and chern are usage errors.
_TRANSITION_COMMANDS = ("validate", "cocycle", "theorem-ab", "split", "equivariance")
MODEL_NAMES = ("half_open", "hirzebruch_dressed", "p1_o3", "p1p1_rank2", "p2_corrupted",
               "p2_o2", "p2_rank2")
# split and equivariance on hirzebruch_dressed take about 1 s each, 90 % of
# the pass, against 1-150 ms for every other call.  Each ran only about
# fifteen times in a 40 s run, so their fastest runs caught the machine's
# short slow spells and alone set items_per_s: it spread by 0.13 and 0.31 over
# two sets of ten runs of identical work, against 0.09 and 0.20 for the median
# of the other calls.  split-ladder carries that solver load; here the CLI's
# own cost and the small calls show.
LEFT_OUT = {("hirzebruch_dressed", "split"), ("hirzebruch_dressed", "equivariance")}


def expected_exit(model: str, command: str) -> int:
    if model == "p2_corrupted" and command in _TRANSITION_COMMANDS:
        return 1
    if model == "hirzebruch_dressed" and command in ("residues", "chern"):
        return 2
    return 0


def build_cli_corpus(tl, rng, dirs: Dirs) -> list[Item]:
    """Every (model, command) pair but LEFT_OUT once; the seed fixes only the order."""
    for model in MODEL_NAMES:  # the model-load half of set-up; items load again, as users do
        tl.cli.load_model(os.path.join(dirs.models, f"{model}.json"))
    calls = [(m, c) for m in MODEL_NAMES for c in tl.cli.COMMANDS if (m, c) not in LEFT_OUT]
    rng.shuffle(calls)
    items = []
    for i, (model, command) in enumerate(calls):
        out = os.path.join(dirs.out, f"{model}.{command}.json")
        argv = [command, os.path.join(dirs.models, f"{model}.json"), "--out", out]
        items.append(Item(i, f"{model}/{command}", (argv, out, expected_exit(model, command))))
    return items


def run_cli(tl, item: Item) -> Outcome:
    argv, _, want = item.payload
    with contextlib.redirect_stderr(io.StringIO()):
        code = tl.cli.main(argv)
    if code == 4:
        return Outcome(False, undetermined=True, detail="exit code 4")
    if code != want:
        return Outcome(False, detail=f"exit code {code}, expected {want}")
    return Outcome(True)


def read_report(item: Item):
    """Bytes of the report an item wrote, or None when the call wrote none."""
    try:
        with open(item.payload[1], "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def clear_report(item: Item) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(item.payload[1])


WORKLOADS = {
    "cocycle-ladder": Workload("cocycle-ladder", build_cocycle_ladder, run_cocycle_ladder),
    "split-ladder": Workload("split-ladder", build_split_ladder, run_split_ladder),
    "cli-corpus": Workload("cli-corpus", build_cli_corpus, run_cli, writes_reports=True),
}
