"""Batch front end: load a model file, run one command, emit one report.

Usage::

    torlog <command> <model.json> [--format json|text] [--out PATH]

Commands: validate | residues | chern | cocycle | theorem-ab | split |
equivariance.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 usage or parse error, 3 the model itself is invalid, 4 only
undetermined outcomes (e.g. the splitting search was inconclusive).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .bundles import (
    EquivariantData,
    UnderdeterminedError,
    check_compatibility,
    chern_pp,
    recover_weights,
    residue,
    residue_chern_check,
)
from .cocycles import (
    TransitionData,
    atiyah_cocycle,
    check_cocycle_pipelines,
    check_frame_antisymmetry,
    check_triple_identity,
    transitions_from_one_sided,
    validate_transitions,
)
from .fans import Fan, FanCheck, build_fan, validate_fan
from .laurent import LaurentMatrix, LaurentPoly, NotAUnitError, SingularMatrixError, _poly
from .linalg import Coeff, exact, exact_div
from .reports import Report, cochain_payload, cocycle_payload, emit, poly_payload
from .splitting import (
    WeightCapError,
    equivariance_verdict,
    gauge_passes,
    split_cocycle,
    weight_cap,
)

# fan-check failures that make a model unusable rather than merely imperfect;
# smoothness is deliberately absent (simplicial non-smooth fans load fine,
# and the operations that need smoothness say so themselves)
_BLOCKING = {"distinct_cones", "simplicial", "face_closure", "complete"}


class ModelParseError(Exception):
    """The file does not parse or does not match the schema (exit 2)."""


class UsageError(Exception):
    """The command cannot run on this model, e.g. a block is missing (exit 2)."""


class ModelInvalidError(Exception):
    """The file parses but describes an invalid model (exit 3)."""

    def __init__(self, message: str, checks=None):
        super().__init__(message)
        self.checks = list(checks) if checks else []


@dataclass
class ModelFile:
    fan: Fan
    name: str | None
    warnings: list[str]
    fan_checks: list[FanCheck]
    bundle: EquivariantData | None
    transitions: TransitionData | None


def _expect(cond: bool, msg: str):
    if not cond:
        raise ModelParseError(msg)


def _as_int(x, what: str) -> int:
    _expect(isinstance(x, int) and not isinstance(x, bool), f"{what} must be an integer")
    return x


def _int_vector(x, what: str, length: int | None = None) -> tuple[int, ...]:
    _expect(isinstance(x, list), f"{what} must be an array of integers")
    vec = tuple(_as_int(a, what) for a in x)
    if length is not None:
        _expect(len(vec) == length, f"{what} must have length {length}, got {len(vec)}")
    return vec


_TERM_KEYS = {"exponent", "num", "den"}


def _parse_poly(obj, n: int, what: str) -> LaurentPoly:
    """One polynomial, each term read straight into its canonical exact coefficient.

    The checks run in schema order, and each message is formatted only when
    its check fails.
    """
    if not isinstance(obj, list):
        raise ModelParseError(f"{what} must be an array of terms")
    terms: dict[tuple[int, ...], Coeff] = {}
    for k, term in enumerate(obj):
        if not isinstance(term, dict):
            raise ModelParseError(f"{what}, term {k} must be an object")
        if term.keys() != _TERM_KEYS:
            raise ModelParseError(f"{what}, term {k} must have exactly the keys exponent/num/den")
        e, num, den = term["exponent"], term["num"], term["den"]
        if type(e) is not list or not all(type(a) is int for a in e) or len(e) != n:
            _int_vector(e, f"{what}, term {k} exponent", n)  # raises the schema message
        if type(num) is not int:
            _as_int(num, f"{what}, term {k} num")
        if type(den) is not int:
            _as_int(den, f"{what}, term {k} den")
        if not den:
            raise ModelParseError(f"{what}, term {k} has denominator zero")
        c = exact_div(num, den)
        e = tuple(e)
        if e in terms:
            c = exact(terms[e] + c)
            if not c:
                del terms[e]
                continue
        elif not c:
            continue
        terms[e] = c
    return _poly(terms)


def _parse_fan(raw: dict):
    """The fan block, each ray and cone checked inline.

    The checks run in schema order, and a ray's or cone's name is formatted
    only when one of its checks fails.
    """
    n = _as_int(raw["rank_n"], "rank_n")
    _expect(n >= 1, "rank_n must be positive")
    rays = raw["rays"]
    _expect(isinstance(rays, list) and rays, "rays must be a nonempty array")
    for i, r in enumerate(rays):
        if type(r) is not list or not all(type(a) is int for a in r) or len(r) != n:
            _int_vector(r, f"ray {i}", n)  # raises the schema message
    cones = raw["cones"]
    _expect(isinstance(cones, list), "cones must be an array")
    count = len(rays)
    for i, c in enumerate(cones):
        if type(c) is not list or not all(type(k) is int for k in c):
            _int_vector(c, f"cone {i}")  # raises the schema message
        for k in c:
            if not 0 <= k < count:
                raise ModelParseError(f"cone {i} references missing ray {k}")
    _expect(isinstance(raw["declared_complete"], bool), "declared_complete must be a boolean")
    try:
        fan, warnings = build_fan(rays, cones, dim=n, declared_complete=raw["declared_complete"])
    except ValueError as exc:
        raise ModelInvalidError(f"fan construction failed: {exc}") from exc
    return fan, warnings


def _parse_bundle(raw, fan: Fan) -> EquivariantData:
    _expect(isinstance(raw, dict), "bundle must be an object")
    _expect(set(raw) == {"rank", "weights"}, "bundle must have exactly the keys rank/weights")
    rank = _as_int(raw["rank"], "bundle.rank")
    _expect(isinstance(raw["weights"], dict), "bundle.weights must be an object")
    weights, keys = {}, {}
    for key, rows in raw["weights"].items():
        try:
            ci = int(key)
        except ValueError:
            raise ModelParseError(f"bundle.weights key {key!r} is not a cone id") from None
        first = keys.setdefault(ci, key)
        _expect(first == key, f"bundle.weights keys {first!r} and {key!r} both name cone {ci}")
        if not 0 <= ci < len(fan.cones):
            raise ModelInvalidError(f"bundle.weights references missing cone {ci}")
        _expect(isinstance(rows, list), f"bundle.weights[{key}] must be an array")
        weights[ci] = tuple(
            _int_vector(m, f"bundle.weights[{key}][{i}]", fan.dim) for i, m in enumerate(rows)
        )
    try:
        return EquivariantData(fan, rank, weights)
    except ValueError as exc:
        raise ModelInvalidError(f"bundle block invalid: {exc}") from exc


def _parse_transitions(raw, fan: Fan, bundle: EquivariantData | None) -> TransitionData:
    _expect(isinstance(raw, dict) and raw, "transitions must be a nonempty object")
    maximal = set(fan.maximal_cone_indices())
    one_sided: dict[tuple[int, int], LaurentMatrix] = {}
    keys: dict[tuple[int, int], str] = {}
    rank = None
    for key, mat in raw.items():
        parts = key.split(",")
        _expect(len(parts) == 2, f"transitions key {key!r} must look like \"s,t\"")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ModelParseError(f"transitions key {key!r} must name two cone ids") from None
        first = keys.setdefault((s, t), key)
        _expect(first == key, f"transitions keys {first!r} and {key!r} both name the pair {s},{t}")
        if not (0 <= s < len(fan.cones) and 0 <= t < len(fan.cones)):
            raise ModelInvalidError(f"transitions key {key!r} references a missing cone")
        if s == t or s not in maximal or t not in maximal:
            raise ModelInvalidError(
                f"transitions key {key!r} must name two distinct maximal cones"
            )
        _expect(isinstance(mat, list) and mat, f"transitions[{key}] must be a nonempty matrix")
        rows = []
        for i, row in enumerate(mat):
            _expect(isinstance(row, list), f"transitions[{key}] row {i} must be an array")
            rows.append([_parse_poly(p, fan.dim, f"transitions[{key}][{i}][{j}]")
                         for j, p in enumerate(row)])
        _expect(all(len(row) == len(rows) for row in rows), f"transitions[{key}] must be square")
        size = len(rows)
        if rank is None:
            rank = size
        elif rank != size:
            raise ModelInvalidError(
                f"transitions[{key}] has size {size}, other blocks use rank {rank}"
            )
        one_sided[(s, t)] = LaurentMatrix(rows)
    if bundle is not None and bundle.rank != rank:
        raise ModelInvalidError(
            f"bundle rank {bundle.rank} and transition size {rank} disagree"
        )
    try:
        return transitions_from_one_sided(fan, rank, one_sided)
    except (NotAUnitError, SingularMatrixError) as exc:
        raise ModelInvalidError(f"cannot invert a one-sided transition: {exc}") from exc


def load_model(path: str) -> ModelFile:
    """Parse and validate a model file; see the module docstring for errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too many digits, deep nesting
        raise ModelParseError(f"{path} is not valid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "model must be a JSON object")
    required = {"rank_n", "rays", "cones", "declared_complete"}
    missing = required - set(raw)
    _expect(not missing, f"model is missing required keys: {sorted(missing)}")
    allowed = required | {"bundle", "transitions", "name"}
    unknown = set(raw) - allowed
    _expect(not unknown, f"model has unknown keys: {sorted(unknown)}")
    name = raw.get("name")
    if name is not None:
        _expect(isinstance(name, str), "name must be a string")

    fan, warnings = _parse_fan(raw)
    fan_checks = validate_fan(fan)
    blocking = [c for c in fan_checks if c.status == "fail" and c.name in _BLOCKING]
    if blocking:
        raise ModelInvalidError(
            "; ".join(f"{c.name}: {c.detail}" for c in blocking), fan_checks
        )

    bundle = _parse_bundle(raw["bundle"], fan) if "bundle" in raw else None
    transitions = _parse_transitions(raw["transitions"], fan, bundle) if "transitions" in raw else None
    return ModelFile(fan, name, warnings, fan_checks, bundle, transitions)


def _warning_checks(model: ModelFile) -> list[FanCheck]:
    return [FanCheck("ray_normalization", "pass", w) for w in model.warnings]


def _need(model: ModelFile, block: str, command: str):
    if getattr(model, block) is None:
        raise UsageError(f"command {command!r} needs a {block} block in the model")


def _run_validate(model: ModelFile, rep: Report) -> None:
    rep.extend(model.fan_checks)
    if model.bundle is not None:
        rep.extend(check_compatibility(model.bundle))
    if model.transitions is not None:
        rep.extend(validate_transitions(model.transitions))
    rep.artifacts["fan"] = {
        "dim": model.fan.dim,
        "rays": len(model.fan.rays),
        "cones": len(model.fan.cones),
        "maximal_cones": sorted(model.fan.maximal_cone_indices()),
    }
    if model.name:
        rep.artifacts["name"] = model.name


def _run_residues(model: ModelFile, rep: Report) -> None:
    _need(model, "bundle", rep.command)
    data = model.bundle
    rep.extend(check_compatibility(data))
    table = {}
    for ci in sorted(data.weights):
        cone = model.fan.cones[ci]
        rs = [residue(data, ci, k) for k in cone.ray_indices]
        for R in rs:
            table[f"{ci},{R.ray_index}"] = list(R.entries)
        try:
            recovered = recover_weights(model.fan, rs)
            ok = sorted(recovered) == sorted(data.weights[ci])
            rep.verdicts.append(
                FanCheck(
                    f"residue_roundtrip[{ci}]",
                    "pass" if ok else "fail",
                    "" if ok else "recovered weights differ from stored weights",
                )
            )
        except UnderdeterminedError as exc:
            rep.verdicts.append(FanCheck(f"residue_roundtrip[{ci}]", "undetermined", str(exc)))
    rep.artifacts["residues"] = table


def _run_chern(model: ModelFile, rep: Report) -> None:
    _need(model, "bundle", rep.command)
    data = model.bundle
    rep.extend(check_compatibility(data))
    polys, continuity = chern_pp(data)
    rep.extend(continuity)
    for ci in sorted(data.weights):
        for k in model.fan.cones[ci].ray_indices:
            rep.verdicts.append(residue_chern_check(data, ci, k))
    rep.artifacts["chern"] = {
        str(p.degree): {str(ci): poly_payload(q) for ci, q in sorted(p.parts.items())}
        for p in polys
    }


def _valid_transitions(model: ModelFile, rep: Report) -> TransitionData | None:
    """The transitions once validate_transitions passes on them, else None; checks go to rep."""
    _need(model, "transitions", rep.command)
    td = model.transitions
    checks = validate_transitions(td)
    rep.extend(checks)
    return td if all(c.ok for c in checks) else None


def _run_cocycle(model: ModelFile, rep: Report) -> None:
    td = _valid_transitions(model, rep)
    if td is None:
        return
    A = atiyah_cocycle(td)
    rep.extend(check_frame_antisymmetry(A, td))
    rep.extend(check_triple_identity(A, td))
    rep.artifacts["cocycle"] = cocycle_payload(A)


def _run_theorem_ab(model: ModelFile, rep: Report) -> None:
    td = _valid_transitions(model, rep)
    if td is not None:
        rep.extend(check_cocycle_pipelines(td))


def _run_split(model: ModelFile, rep: Report) -> None:
    cap = weight_cap()  # a malformed TORLOG_WEIGHT_CAP is a usage error on every input
    td = _valid_transitions(model, rep)
    if td is None:
        return
    A = atiyah_cocycle(td)
    # the Leibniz skip (splitting docstring, past the gate)
    result = split_cocycle(A, td, cap=cap, antisymmetry=[])
    rep.artifacts["weight_cap"] = result.weight_cap
    rep.artifacts["closure_depth"] = result.closure_depth
    if result.found:
        rep.verdicts.append(
            FanCheck("splitting", "pass",
                     f"found within closure depth {result.closure_depth}")
        )
        # a verified splitting proves the gauge law (splitting docstring, past the gate)
        rep.extend(gauge_passes(td))
        rep.artifacts["splitting"] = cochain_payload(result.cochain)
    else:
        rep.verdicts.append(
            FanCheck(
                "splitting", "undetermined",
                f"no splitting within the graded search space "
                f"(closure depth {result.closure_depth}, cap {result.weight_cap}); "
                f"not a proof of non-existence{result.truncation_note()}",
            )
        )


def _run_equivariance(model: ModelFile, rep: Report) -> None:
    _need(model, "transitions", rep.command)
    checks, result = equivariance_verdict(model.transitions)
    rep.extend(checks)
    if result.found:
        rep.artifacts["splitting"] = cochain_payload(result.cochain)
    rep.artifacts["weight_cap"] = result.weight_cap


# command -> handler(model, report), which fills in the report
_HANDLERS = {
    "validate": _run_validate,
    "residues": _run_residues,
    "chern": _run_chern,
    "cocycle": _run_cocycle,
    "theorem-ab": _run_theorem_ab,
    "split": _run_split,
    "equivariance": _run_equivariance,
}
COMMANDS = tuple(_HANDLERS)


def run(command: str, model: ModelFile) -> Report:
    """Dispatch one command against a loaded model."""
    handler = _HANDLERS.get(command)
    if handler is None:
        raise UsageError(f"unknown command {command!r}")
    rep = Report(command)
    rep.extend(_warning_checks(model))
    handler(model, rep)
    return rep


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="torlog",
        description="Logarithmic connections and equivariant structures on toric bundles.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("model", help="path to a model JSON file")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    try:
        model = load_model(args.model)
    except ModelParseError as exc:
        print(f"torlog: {exc}", file=sys.stderr)
        return 2
    except ModelInvalidError as exc:
        checks = exc.checks or [FanCheck("model", "fail", str(exc))]
        return _write(emit(Report(args.command, list(checks)), args.format), args.out, 3)

    try:
        report = run(args.command, model)
    except (UsageError, WeightCapError) as exc:
        print(f"torlog: {exc}", file=sys.stderr)
        return 2

    return _write(emit(report, args.format), args.out, report.exit_code)


def _write(data: bytes, out: str | None, code: int) -> int:
    """Write the report to out, else to stdout, and return code.

    An unwritable report path is a usage error (exit 2), not a failed check.
    """
    if not out:
        sys.stdout.write(data.decode("utf-8"))
        return code
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"torlog: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
