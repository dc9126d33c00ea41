"""Spans around calls into torlog, recorded by wrappers the benchmark installs.

The library is not edited: the traced run replaces selected functions of the
freshly imported ``torlog`` modules (every module attribute bound to the
function, so calls made inside ``cli`` and ``splitting`` are caught too) and
``LaurentMatrix.__mul__`` with wrappers.  Each wrapper records one span
``(name, start, end, parent, item)`` in memory.  Some also take exact counts
from the result, after their clock has stopped, inside a ``bench.count`` span
of their own so that the counting is not charged to the caller's self time.  ``enable`` and
``disable`` switch the wrappers in and out, so the untraced twin of a traced
item runs the original functions.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from workloads import transition_terms


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _matrix_cocycle_terms(counts, cocycle):
    counts["laurent.cocycle_terms"] += sum(
        len(f.terms) for mats in cocycle.pairs.values() for M in mats
        for row in M.entries for f in row)


def _split_counts(counts, result):
    counts["splitting.calls"] += 1
    counts["splitting.found"] += int(result.found)
    counts["splitting.weights_searched"] += result.weights_searched
    counts["splitting.closure_depth_max"] = max(counts["splitting.closure_depth_max"],
                                                result.closure_depth)


def _model_terms(counts, model):
    if model.transitions is not None:
        counts["laurent.input_terms"] += transition_terms(model.transitions)


def _report_bytes(counts, data):
    counts["reports.bytes"] += len(data)


# (module, function, span name, count hook).  The span name of cli.run names
# the command it dispatches.
TRACED = [
    ("corpus", "random_equivariant_data", "corpus.gen", None),
    ("corpus", "random_dressing", "corpus.gen", None),
    ("corpus", "dressed_transitions", "corpus.gen", None),
    ("fans", "validate_fan", "fans.validate", None),
    ("cocycles", "validate_transitions", "cocycles.validate", None),
    ("cocycles", "atiyah_cocycle", "cocycles.atiyah", _matrix_cocycle_terms),
    ("cocycles", "check_frame_antisymmetry", "cocycles.antisymmetry", None),
    ("cocycles", "check_triple_identity", "cocycles.triple", None),
    ("cocycles", "check_cocycle_pipelines", "cocycles.pipelines", None),
    ("splitting", "equivariance_verdict", "splitting.verdict", None),
    ("splitting", "split_cocycle", "splitting.split", _split_counts),
    ("splitting", "connection_from_splitting", "splitting.gauge", None),
    ("bundles", "check_compatibility", "bundles.compat", None),
    ("bundles", "residue", "bundles.residue", None),
    ("bundles", "recover_weights", "bundles.recover", None),
    ("bundles", "chern_pp", "bundles.chern", None),
    ("bundles", "residue_chern_check", "bundles.residue_chern", None),
    ("reports", "emit", "reports.emit", _report_bytes),
    ("cli", "load_model", "cli.load", _model_terms),
    ("cli", "run", lambda args, kwargs: f"cli.run.{args[0]}", None),
    ("cli", "main", "cli.main", None),
]
ITEM_SPAN = "bench.item"
SETUP_SPAN = "bench.setup"
COUNT_SPAN = "bench.count"
MATMUL_SPAN = "laurent.matmul"


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self.item = None
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------------

    def _wrapper(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.item)
            if hook is not None:
                hook(self.counts, result)
                spans.append((COUNT_SPAN, end, clock(), parent, self.item))
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, item):
        """Open a span by hand (the item and set-up roots); returns a closer."""
        self.item = item
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()

        def close():
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, item)
            return end - start

        return close

    def prepare(self, tl) -> None:
        """Build a wrapper for every TRACED function, for each torlog module binding it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "torlog" or key.startswith("torlog."))]
        for mod_name, attr, name, hook in TRACED:
            fn = getattr(getattr(tl, mod_name), attr)
            wrapped = self._wrapper(fn, name, hook)
            self._patches += [(mod, attr, fn, wrapped) for mod in modules
                              if vars(mod).get(attr) is fn]
        cls = tl.laurent.LaurentMatrix
        mul = cls.__mul__
        self._patches.append((cls, "__mul__", mul, self._wrapper(mul, MATMUL_SPAN, None)))

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take_counts(self, first: int = 0) -> dict:
        """Counts taken since the last call, plus the matmul calls in spans[first:]."""
        counts, self.counts = dict(self.counts), defaultdict(int)
        matmuls = sum(1 for span in self.spans[first:] if span[0] == MATMUL_SPAN)
        if matmuls:
            counts["laurent.matmul_calls"] = matmuls
        return counts

    # -- reduction ---------------------------------------------------------------

    def times(self, first: int = 0) -> tuple[dict, dict]:
        """(self time, whole time) per span name over spans[first:].

        Self time is a span's duration minus its child spans; whole time is
        its duration.  No traced function calls another of the same name, so
        whole times do not count anything twice.
        """
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= first:
                child[parent] += end - start
        own, whole = defaultdict(float), defaultdict(float)
        for idx in range(first, len(spans)):
            name, start, end, _, _ = spans[idx]
            own[name] += end - start - child[idx]
            whole[name] += end - start
        return dict(own), dict(whole)

    def write(self, path: str, header: dict) -> None:
        """Write every span, with times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round((start - t0) * 1e6), round((end - t0) * 1e6), parent, item]
                for name, start, end, parent, item in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": ["name", "start_us", "end_us", "parent", "item"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))

