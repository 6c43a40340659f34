"""In-memory span tracer that wraps polarkit's public functions from outside.

A probe replaces a function under every module attribute it is looked up
through (modules import these functions by name, so patching the defining
module alone would miss most calls).  Span probes record
``[name, parent index, start, end, rows]``; count probes, used on the
hottest leaf (``gf2.row_basis``), only count calls.  Self time is busy time
minus the time covered by direct child spans.

While ``active`` is false every probe calls straight through, so output
checks made between timed operations leave no spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []

    def _span_probe(self, name, fn, rows_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, rows_of(args) if rows_of else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return probe

    def _count_probe(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return probe

    def install(self, name: str, lookups: list[str], count_only: bool = False, rows_of=None) -> None:
        """Wrap the object found at each ``module:attr`` (or
        ``module:Class.attr``) lookup.  A lookup that no longer resolves is
        skipped, so a probe of a removed function reads 0."""
        probes: dict[int, object] = {}
        for lookup in lookups:
            module, _, path = lookup.partition(":")
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                continue
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if id(original) not in probes:
                probes[id(original)] = (
                    self._count_probe(name, original)
                    if count_only
                    else self._span_probe(name, original, rows_of)
                )
            setattr(owner, attr, probes[id(original)])

    def summary(self, start: float, end: float) -> dict[str, dict[str, float]]:
        """calls / busy_s / self_s / rows per span name, over the spans that
        started inside [start, end)."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, t0, t1, rows) in enumerate(self.spans):
            if not start <= t0 < end:
                continue
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rows": 0})
            agg["calls"] += 1
            agg["busy_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["rows"] += rows
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, t0, t1, rows) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, t0, t1, rows]) + "\n")


def rows_at(index: int):
    """rows_of extractor: leading dimension of the positional argument."""
    return lambda args: int(args[index].shape[0]) if getattr(args[index], "ndim", 0) > 1 else 1


#: Probes by layer.  Each entry: (span name, lookups, count_only, rows_of).
PROBES = [
    ("gf2.row_basis", ["polarkit.gf2:row_basis", "polarkit.complexity:row_basis"], True, None),
    (
        "gf2.coset_min_distance",
        [
            "polarkit.gf2:coset_min_distance",
            "polarkit.pdp:coset_min_distance",
            "polarkit.search:coset_min_distance",
            "polarkit.zero.env:coset_min_distance",
        ],
        False,
        None,
    ),
    ("pdp.compute_pdp", ["polarkit.pdp:compute_pdp", "polarkit.search:compute_pdp"], False, None),
    ("search.random_trial", ["polarkit.search:random_trial"], False, None),
    ("complexity.total_complexity", ["polarkit.complexity:total_complexity"], False, None),
    (
        "complexity.build_section_tree",
        ["polarkit.complexity:build_section_tree", "polarkit.codec:build_section_tree"],
        False,
        None,
    ),
    ("codec.build_link_tables", ["polarkit.codec:build_link_tables"], False, None),
    ("codec.select_frozen_set", ["polarkit.codec:select_frozen_set"], False, None),
    ("codec.phase_llrs_trellis", ["polarkit.codec:phase_llrs_trellis"], False, rows_at(3)),
    ("codec.sc_decode_batch", ["polarkit.codec:sc_decode_batch"], False, None),
    ("codec.encode", ["polarkit.codec:encode"], False, None),
    ("zero.net.encode_state", ["polarkit.zero.net:encode_state", "polarkit.zero.train:encode_state"], False, None),
    ("zero.net.forward", ["polarkit.zero.net:Network.forward"], False, rows_at(1)),
    ("zero.env.step_env", ["polarkit.zero.env:step_env", "polarkit.zero.train:step_env"], False, None),
    ("zero.env.legal_actions", ["polarkit.zero.env:legal_actions", "polarkit.zero.train:legal_actions"], False, None),
    ("zero.mcts_select", ["polarkit.zero.mcts:mcts_select", "polarkit.zero.train:mcts_select"], False, None),
]


def install_all(tracer: Tracer) -> None:
    for name, lookups, count_only, rows_of in PROBES:
        tracer.install(name, lookups, count_only, rows_of)
