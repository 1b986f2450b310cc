"""In-memory spans around the calls one layer makes into another.

Tracing is installed from outside the package: for the duration of a
``with tracer.installed():`` block, the names a module imported from another
layer (``qindex.transform``, ``container.parse_ust`` and so on) are replaced
by wrappers that record a span per call.  Nothing under ``src/`` changes,
and untraced runs never see a wrapper.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from ustrindex import approx, container, listing, qindex

# (module, attribute it calls through, span name); the span name is the
# layer and function being entered.
BOUNDARIES = [
    (qindex, "transform", "factorize.transform"),
    (qindex, "build_suffix_array", "textcore.suffix_array"),
    (qindex, "TreeView", "textcore.tree_view"),
    (qindex, "rmq_build", "textcore.rmq_build"),
    (qindex, "suffix_range", "textcore.suffix_range"),
    (listing, "transform", "factorize.transform"),
    (listing, "build_suffix_array", "textcore.suffix_array"),
    (listing, "TreeView", "textcore.tree_view"),
    (listing, "rmq_build", "textcore.rmq_build"),
    (listing, "suffix_range", "textcore.suffix_range"),
    (approx, "locus", "textcore.locus"),
    (container, "build", "qindex.build"),
    (container, "build_listing", "listing.build"),
    (container, "build_links", "approx.build_links"),
    (container, "partition_links", "approx.partition"),
    (container, "parse_ust", "ustformat.parse"),
    (container, "build_suffix_array", "textcore.suffix_array"),
    (container, "TreeView", "textcore.tree_view"),
    (container, "rmq_build", "textcore.rmq_build"),
]


def _range_width(rng) -> dict:
    return {"slots": 0 if rng is None else rng[1] - rng[0] + 1}


# Counts attached to a span from the call's result.
RESULT_ATTRS = {"textcore.suffix_range": _range_width}


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent, query_id, attrs]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query_id: int | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        rec = [name, 0, 0, self._open[-1] if self._open else -1, self.query_id, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def end(self, rec: list, attrs: dict | None = None) -> None:
        rec[2] = perf_counter_ns()
        self._open.pop()
        rec[5] = attrs

    def wrap(self, name: str, fn):
        attrs_of = RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            rec = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(rec, attrs_of(result) if attrs_of else None)

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in BOUNDARIES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(BOUNDARIES, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, under: str) -> tuple[dict[str, int], dict[str, int]]:
        """Total and self nanoseconds per span name, over the spans named
        ``under`` and everything inside them."""
        total: dict[str, int] = defaultdict(int)
        own_total: dict[str, int] = defaultdict(int)
        own = self.self_ns()
        inside = [False] * len(self.spans)
        for k, (name, start, end, parent, *_rest) in enumerate(self.spans):
            inside[k] = name == under or (parent >= 0 and inside[parent])
            if inside[k]:
                total[name] += end - start
                own_total[name] += own[k]
        return total, own_total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid, attrs in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "query": qid}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")
