"""Document listing over collections of uncertain strings (Problem 2).

One transform covers the whole collection: the documents' factors follow
one another in one text (separators stay globally unique), and for every
short depth a sparse table (``textcore.SparseDepth``) holds each document's
aggregated score once per locus partition, at the partition's first slot of
that document; queries report it block by block like short substring
queries.  The tables come from ``qindex._group_depth``, the grouping the
substring index uses, keyed by document instead of original position.
Aggregation (``qindex._fold``) visits a document's occurrences in ascending
original position, which is also the order an exhaustive scan visits them,
so scores match such a scan bit for bit.  The rows are the factor-start
windows of ``qindex._factor_rows``, whose values are the documents' own
``cum`` prefixes.  A long query reads the same values at the slot-sorted
factor starts of its whole slot range (``qindex._collect``, the collect the
substring index uses), with no block maxima to prune it as in the substring
index, and groups them the same way, by document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .factorize import TransformedText, transform
from .model import DocumentCollection, UncertainString, occurrence_probability, validate
from .qindex import _FEW, QueryStats, _collect, _factor_rows, _FactorStarts, _fold, _group_depth, _locate
from .textcore import (
    SparseDepth,
    SuffixArrayIndex,
    TreeView,
    build_suffix_array,
    rmq_build,
    suffix_range,  # noqa: F401 - queries reach it via _locate; perfbench/tracer.py wraps this name
)

__all__ = [
    "METRICS",
    "ListingConfig",
    "ListingIndex",
    "build_listing",
    "list_docs",
    "list_items",
    "relevance",
]

METRICS = ("max", "or", "orx")


def relevance(d: UncertainString, p: str, metric: str) -> float:
    """Full-support relevance of one document: every positive occurrence counts.

    Indexed queries use the tau_min-restricted variant instead; the two can
    differ under the additive metrics.
    """
    if not p:
        raise ValueError("pattern is empty")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    values = []
    for i in range(1, d.n - len(p) + 2):
        v = occurrence_probability(d, p, i)
        if v > 0.0:
            values.append(v)
    if not values:
        return 0.0
    return float(_fold(np.array(values), np.zeros(1, dtype=np.intp), metric)[0])


@dataclass(frozen=True)
class ListingConfig:
    m_short: int | None = None
    length_cap: int | None = None


@dataclass(eq=False)
class ListingIndex(_FactorStarts):
    """Listing index over a document collection; its answers never change."""

    collection: DocumentCollection
    metric: str
    tau_min: float
    tt: TransformedText
    doc_of: np.ndarray
    saidx: SuffixArrayIndex
    m_short: int
    short_tables: list[tuple[np.ndarray, SparseDepth]] = field(repr=False)

    @cached_property
    def tree(self) -> TreeView:
        """Suffix-tree view, built on first use; listing queries never read it."""
        return TreeView(self.saidx)


def build_listing(
    collection: DocumentCollection,
    tau_min: float,
    metric: str = "max",
    config: ListingConfig | None = None,
) -> ListingIndex:
    """Construct the listing index for one relevance metric."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if not 0.0 < tau_min <= 1.0:
        raise ValueError(f"tau_min {tau_min!r} not in (0, 1]")
    for d in collection.docs:
        problems = validate(d)
        if problems:
            raise ValueError(f"invalid document {d.name!r}: " + "; ".join(problems))
    cfg = config or ListingConfig()

    tt = transform(collection, tau_min, cfg.length_cap)
    doc_of = tt.doc_of()
    saidx = build_suffix_array(tt.codes)
    n = tt.n
    m_short = cfg.m_short if cfg.m_short is not None else max(1, n.bit_length() - 1)
    if m_short < 1:
        raise ValueError("m_short must be at least 1")

    idx = ListingIndex(collection, metric, tau_min, tt, doc_of, saidx, m_short, [])
    # one occurrence key per (document, original position), ordered by document first
    span = np.int64(max((d.n for d in collection.docs), default=0) + 1)
    for i in range(1, m_short + 1):
        slots, starts, values = _factor_rows(idx, i)
        doc = doc_of[starts]
        occ = doc * span + tt.pos[starts]
        kept_slots, scores, labels = _group_depth(slots, values, saidx.lcp, i, occ, doc, metric)
        idx.short_tables.append((scores, SparseDepth(kept_slots, rmq_build(scores), labels)))
    return idx


def _run(idx: ListingIndex, p: str, tau: float) -> tuple[list[tuple[str, float]], QueryStats]:
    stats = QueryStats()
    rng = _locate(idx.saidx, idx.tau_min, p, tau)
    if rng is None:
        return [], stats
    sp, ep = rng
    m = len(p)

    if m <= idx.m_short:
        values, depth = idx.short_tables[m - 1]
        hits = depth.report(sp, ep, tau, stats)
        if len(hits) > _FEW:
            found = dict(zip(depth.labels[hits].tolist(), values[hits].tolist()))
        else:
            _, vals, labels = depth.views
            found = {labels[k]: vals[k] for k in hits}
    else:
        hits = _collect(idx, [(sp, ep)], m, idx.tau_min, lambda s: (idx.doc_of.item(s), idx.tt.pos.item(s)))
        # ascending (document, position) order, which _fold needs
        occ = sorted(hits)
        starts = [k for k, (d, _) in enumerate(occ) if not k or d != occ[k - 1][0]]
        scores = _fold(np.array([hits[o] for o in occ]), np.array(starts, dtype=np.intp), idx.metric).tolist()
        found = {occ[k][0]: v for k, v in zip(starts, scores) if v >= tau}

    items = [(idx.collection.docs[k].name, found[k]) for k in sorted(found)]
    stats.outputs = len(items)
    return items, stats


def list_items(idx: ListingIndex, p: str, tau: float) -> list[tuple[str, float]]:
    """Qualifying (document name, relevance) pairs in collection order."""
    return _run(idx, p, tau)[0]


def list_docs(idx: ListingIndex, p: str, tau: float) -> list[str]:
    """Names of documents whose relevance for ``p`` reaches ``tau``."""
    return [name for name, _ in _run(idx, p, tau)[0]]


def list_with_stats(idx: ListingIndex, p: str, tau: float) -> tuple[list[str], QueryStats]:
    """Like list_docs, with the work counters of this call."""
    items, stats = _run(idx, p, tau)
    return [name for name, _ in items], stats
