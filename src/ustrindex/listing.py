"""Document listing over collections of uncertain strings (Problem 2).

One transform covers the whole collection: the documents' factors follow
one another in one text (separators stay globally unique), and for every
short depth a sparse table (``textcore.SparseDepth``) holds each document's
aggregated score once per locus partition, at the partition's first rank of
that document in the order of the factor starts that every index keeps;
queries report it block by block like short substring queries.  A depth's
table is built the first time a query of that length reads it, by the one
builder the substring index uses
(``qindex._FactorStarts.short_table``), keyed by document instead of
original position.  Aggregation (``qindex._fold``) visits a document's
occurrences in ascending original position, which is also the order an
exhaustive scan visits them, so scores match such a scan bit for bit.  The
rows are the factor-start windows of ``qindex._factor_rows``, whose values
are the documents' own ``cum`` prefixes.  A long query reads the same values
at the factor starts of its whole rank range
(``qindex._collect``, the collect the substring index uses), with no block
maxima to prune it as in the substring index, and groups them the same way,
by document.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .factorize import TransformedText, transform
from .model import DocumentCollection
from .qindex import _FEW, QueryStats, _collect, _FactorStarts, _fold, _locate
from .textcore import (
    SuffixArrayIndex,
    TreeView,
    build_suffix_array,
    rmq_build,  # noqa: F401 - tables reach it via qindex; perfbench/tracer.py wraps this name
    suffix_range,  # noqa: F401 - queries reach it via _locate; perfbench/tracer.py wraps this name
)

__all__ = [
    "METRICS",
    "ListingIndex",
    "build_listing",
    "list_docs",
    "list_items",
]

METRICS = ("max", "or", "orx")


@dataclass(eq=False)
class ListingIndex(_FactorStarts):
    """Listing index over a document collection; its answers never change.

    Like ``qindex.SubstringIndex``, it builds the short table of a depth and
    the factor starts in rank order on first use, and keeps them.  Queries
    read only the documents' names and lengths from ``tt.documents``.
    """

    metric: str
    tt: TransformedText
    saidx: SuffixArrayIndex

    @cached_property
    def doc_of(self) -> np.ndarray:
        """The document of every text offset, derived from the text on first read."""
        return self.tt.doc_of()

    @cached_property
    def collection(self) -> DocumentCollection:
        """The indexed documents; a loaded index parses them on first read."""
        return DocumentCollection(self.tt.documents.strings)

    @cached_property
    def tree(self) -> TreeView:
        """Suffix-tree view over a full sort of the text, built on first use; listing queries never read it."""
        return TreeView(build_suffix_array(self.tt.codes))

    def _short_keys(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
        """Each row is one (document, original position) occurrence, ordered by document first."""
        doc = self.doc_of[starts]
        span = max(self.tt.documents.lengths, default=0) + 1
        # widened first: document times span passes 2**31 long before either does
        return doc.astype(np.int64) * span + self.tt.pos[starts], doc, self.metric


def build_listing(
    collection: DocumentCollection,
    tau_min: float,
    metric: str = "max",
    *,
    length_cap: int | None = None,
) -> ListingIndex:
    """Construct the listing index for one relevance metric; None picks the default ``length_cap``.

    The transform screens the whole collection at once and raises ValueError
    naming the first invalid document.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    tt = transform(collection, tau_min, length_cap)
    return ListingIndex(metric, tt, build_suffix_array(tt.codes, starts=tt.factor_runs()[0]))


def _run(idx: ListingIndex, p: str, tau: float) -> tuple[list[tuple[str, float]], QueryStats]:
    stats = QueryStats()
    rng = _locate(idx.saidx, idx.tt.tau_min, p, tau)
    if rng is None:
        return [], stats
    sp, ep = rng
    m = len(p)

    if m <= idx.m_short:
        values, depth = idx._short.get(m) or idx.short_table(m)
        hits = depth.report(sp, ep, tau, stats)
        if len(hits) > _FEW:
            found = dict(zip(depth.labels[hits].tolist(), values[hits].tolist()))
        else:
            _, vals, labels = depth.views
            found = {labels[k]: vals[k] for k in hits}
    else:
        hits = _collect(idx, [(sp, ep)], m, idx.tt.tau_min, lambda s: (idx.doc_of.item(s), idx.tt.pos.item(s)))
        # ascending (document, position) order, which _fold needs
        occ = sorted(hits)
        starts = [k for k, (d, _) in enumerate(occ) if not k or d != occ[k - 1][0]]
        scores = _fold(np.array([hits[o] for o in occ]), np.array(starts, dtype=np.intp), idx.metric).tolist()
        found = {occ[k][0]: v for k, v in zip(starts, scores) if v >= tau}

    names = idx.tt.documents.names
    items = [(names[k], found[k]) for k in sorted(found)]
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
