"""Spans and counters for the traced run, recorded from outside the package.

Nothing here edits the package: the traced run wraps the three utility-array
functions under the names ``huspmine.miner`` calls them by, and reads phase
boundaries from the public ``MiningObserver`` hooks.  Spans are kept in
memory and written out when the run ends.  The wrapped utility-array calls
(up to half a million projections on C10) are summed into call counts and
busy time rather than kept as one span per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import huspmine.miner as miner_module
from huspmine import MiningObserver

# name in huspmine.miner -> metric prefix
WRAPPED = {
    "build_database_arrays": "uarray.build",
    "initial_projection": "uarray.initial_projection",
    "project": "uarray.project",
}


class Tracer:
    """Spans (id, name, start, end, parent) plus per-layer call aggregates."""

    def __init__(self):
        self.spans = []
        self.calls = {prefix: 0 for prefix in WRAPPED.values()}
        self.busy = {prefix: 0.0 for prefix in WRAPPED.values()}
        self.project_empty = 0
        self.project_pivots_out = 0
        self.missing = [name for name in WRAPPED if not hasattr(miner_module, name)]

    def span(self, name, start, end, parent=None) -> int:
        self.spans.append((len(self.spans), name, start, end, parent))
        return len(self.spans) - 1

    def snapshot(self) -> tuple:
        return dict(self.calls), dict(self.busy)

    def since(self, snap: tuple) -> dict:
        """Calls and busy time per wrapped layer since ``snapshot()``."""
        calls, busy = snap
        return {
            prefix: (self.calls[prefix] - calls[prefix], self.busy[prefix] - busy[prefix])
            for prefix in self.calls
        }

    def _wrap(self, fn, prefix):
        calls, busy = self.calls, self.busy

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            busy[prefix] += perf_counter() - t0
            calls[prefix] += 1
            return out

        return wrapper

    def _wrap_project(self, fn):
        calls, busy = self.calls, self.busy

        def project(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            busy["uarray.project"] += perf_counter() - t0
            calls["uarray.project"] += 1
            if not out:
                self.project_empty += 1
            elif self.project_pivots_out is not None:
                try:
                    self.project_pivots_out += sum(len(e.pivots) for e in out.entries)
                except AttributeError:  # the projection layout changed
                    self.project_pivots_out = None
            return out

        return project

    @contextmanager
    def installed(self):
        """Wrap the utility-array calls the miner makes, for the duration."""
        saved = {}
        for name, prefix in WRAPPED.items():
            if name in self.missing:
                continue
            fn = saved[name] = getattr(miner_module, name)
            wrapped = self._wrap_project(fn) if name == "project" else self._wrap(fn, prefix)
            setattr(miner_module, name, wrapped)
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(miner_module, name, fn)

    def dump(self) -> list:
        base = self.spans[0][2] if self.spans else 0.0
        return [
            {"id": i, "name": n, "start": s - base, "end": e - base, "parent": p}
            for i, n, s, e, p in self.spans
        ]


class PhaseObserver(MiningObserver):
    """Phase boundaries and search counters from the public observer hooks.

    The search phase runs from ``on_item_extension_bounds`` to the last
    ``on_node``/``on_candidates`` hook; whatever follows until ``mine()``
    returns is the finish phase (the final sort).
    """

    def __init__(self):
        self.first_pass_items = None
        self.bound_items = None
        self.t_bounds = None
        self.t_last = None
        self.candidates = 0
        self.expanded = 0
        self.expanded_children = 0
        self.max_depth = 0
        self.puk_scanned = 0
        self.puk_kept = 0

    def on_one_sequence_stats(self, info):
        self.first_pass_items = len(info)

    def on_item_extension_bounds(self, peu_by_item):
        self.bound_items = len(peu_by_item)
        self.t_bounds = self.t_last = perf_counter()

    def on_candidates(self, prefix, i_items, s_items, kept_i, kept_s):
        self.puk_scanned += len(i_items) + len(s_items)
        self.puk_kept += len(kept_i) + len(kept_s)
        self.t_last = perf_counter()

    def on_node(self, pattern, bounds, expanded):
        self.candidates += 1
        size = pattern.size
        if size > self.max_depth:
            self.max_depth = size
        if expanded:
            self.expanded += 1
            if size > 1:
                self.expanded_children += 1
        self.t_last = perf_counter()


class CountingObserver(MiningObserver):
    """Counts visited candidates only; used for the variant ablation."""

    def __init__(self):
        self.candidates = 0

    def on_node(self, pattern, bounds, expanded):
        self.candidates += 1
