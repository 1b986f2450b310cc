"""Document listing over collections of uncertain strings (Problem 2).

Per-document transforms are concatenated into one text (separators stay
globally unique), and for every short depth a sparse table
(``textcore.SparseDepth``) holds each document's aggregated score once per
locus partition, at the partition's first slot of that document; queries
report it block by block like short substring queries.  Aggregation visits a
document's occurrences in ascending original position, which is also the
order an exhaustive scan visits them, so scores match such a scan bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .factorize import Annotations, TransformedText, build_annotations, depth_values, transform
from .model import DocumentCollection, UncertainString, occurrence_probability, validate
from .qindex import QueryStats, _locate, _window_probability
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


def _combine(values: list[float], metric: str) -> float:
    """Fold per-occurrence probabilities (already in ascending position order)."""
    if not values:
        return 0.0
    if metric == "max":
        return max(values)
    if metric == "or":
        # single occurrence: the OR of one event is the event itself
        if len(values) == 1:
            return values[0]
        s = 0.0
        prod = 1.0
        for v in values:
            s += v
            prod *= v
        return s - prod
    comp = 1.0
    for v in values:
        comp *= 1.0 - v
    return 1.0 - comp


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
    return _combine(values, metric)


@dataclass(frozen=True)
class ListingConfig:
    m_short: int | None = None
    length_cap: int | None = None


@dataclass(eq=False)
class ListingIndex:
    """Immutable listing index over a document collection."""

    collection: DocumentCollection
    metric: str
    tau_min: float
    tt: TransformedText
    ann: Annotations
    doc_of: np.ndarray
    saidx: SuffixArrayIndex
    m_short: int
    short_tables: list[tuple[np.ndarray, SparseDepth]] = field(repr=False)

    @cached_property
    def tree(self) -> TreeView:
        """Suffix-tree view, built on first use; listing queries never read it."""
        return TreeView(self.saidx)


def _concatenate(parts: list[TransformedText], tau_min: float):
    codes: list[np.ndarray] = []
    pos: list[np.ndarray] = []
    cum: list[np.ndarray] = []
    doc_of: list[np.ndarray] = []
    sep_base = 0
    for k, part in enumerate(parts):
        shifted = np.where(part.codes < 0, part.codes - sep_base, part.codes)
        codes.append(shifted)
        pos.append(part.pos)
        cum.append(part.cum)
        doc_of.append(np.full(part.n, k, dtype=np.int64))
        sep_base += int((part.codes < 0).sum())
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0, dtype=np.float64)
    tt = TransformedText(
        codes=np.concatenate(codes) if codes else empty_i,
        pos=np.concatenate(pos) if pos else empty_i,
        cum=np.concatenate(cum) if cum else empty_f,
        tau_min=tau_min,
        source=None,
    )
    merged = np.concatenate(doc_of) if doc_of else empty_i
    return tt, merged


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

    parts = [transform(d, tau_min, cfg.length_cap) for d in collection.docs]
    tt, doc_of = _concatenate(parts, tau_min)
    ann = build_annotations(tt, doc_lookup=lambda o: collection.docs[int(doc_of[o])])
    saidx = build_suffix_array(tt.codes)
    n = tt.n
    m_short = cfg.m_short if cfg.m_short is not None else max(1, n.bit_length() - 1)
    if m_short < 1:
        raise ValueError("m_short must be at least 1")

    short_tables: list[tuple[np.ndarray, SparseDepth]] = []
    if n:
        sa0 = saidx.sa - 1
        orig = tt.pos[sa0]
        slot_doc = doc_of[sa0]
        max_orig = max(d.n for d in collection.docs)

        def window_value(o: int, i: int) -> float:
            d = collection.docs[int(doc_of[o])]
            return occurrence_probability(d, tt.window_text(o, i), int(tt.pos[o]))

        n_docs = len(collection.docs)
        for i, v in zip(range(1, m_short + 1), depth_values(ann, window_value, m_short)):
            c = v[sa0].copy()
            c[c < tau_min] = 0.0
            slots, scores = _aggregate_depth(c, saidx.lcp, slot_doc, orig, i, n_docs, max_orig, metric)
            short_tables.append((scores, SparseDepth(slots, rmq_build(scores))))
    while len(short_tables) < m_short:
        empty = np.zeros(0, dtype=np.float64)
        short_tables.append((empty, SparseDepth(np.zeros(0, dtype=np.int32), rmq_build(empty))))
    return ListingIndex(
        collection, metric, tau_min, tt, ann, doc_of, saidx, m_short, short_tables
    )


def _aggregate_depth(
    c: np.ndarray,
    lcp: np.ndarray,
    slot_doc: np.ndarray,
    orig: np.ndarray,
    depth: int,
    n_docs: int,
    max_orig: int,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Slots and scores of one per-document relevance entry per partition.

    Each entry sits at the first slot of its (partition, document) group.
    """
    pid = np.cumsum(lcp < depth)
    valid = np.flatnonzero(c > 0.0)
    heads: list[int] = []
    scores: list[float] = []
    if valid.size:
        # drop same-occurrence duplicates (same partition, doc, original position)
        keys = (pid[valid] * np.int64(n_docs) + slot_doc[valid]) * np.int64(
            max_orig + 1
        ) + orig[valid]
        _, first = np.unique(keys, return_index=True)
        slots = np.sort(valid[first])
        order = np.lexsort((orig[slots], slot_doc[slots], pid[slots]))
        rows = slots[order]
        k = 0
        while k < len(rows):
            j = k
            group_key = (pid[rows[k]], slot_doc[rows[k]])
            while j < len(rows) and (pid[rows[j]], slot_doc[rows[j]]) == group_key:
                j += 1
            chunk = rows[k:j]
            heads.append(int(chunk.min()))
            scores.append(_combine([float(c[s]) for s in chunk], metric))
            k = j
    order = np.argsort(heads)
    return np.asarray(heads, dtype=np.int32)[order] + 1, np.asarray(scores, dtype=np.float64)[order]


def _run(idx: ListingIndex, p: str, tau: float) -> tuple[list[tuple[str, float]], QueryStats]:
    stats = QueryStats()
    found: dict[int, float] = {}
    rng = _locate(idx.saidx, idx.tau_min, p, tau)
    if rng is None:
        return [], stats
    sp, ep = rng
    m = len(p)
    sa = idx.saidx.sa

    if m <= idx.m_short:
        values, depth = idx.short_tables[m - 1]
        hits = depth.report(sp, ep, tau, stats)
        found = dict(zip(idx.doc_of[sa[depth.slots[hits] - 1] - 1].tolist(), values[hits].tolist()))
    else:
        seen: set[tuple[int, int]] = set()
        per_doc: dict[int, list[tuple[int, float]]] = {}
        for j in range(sp, ep + 1):
            o = sa[j - 1] - 1
            k = int(idx.doc_of[o])
            orig = int(idx.tt.pos[o])
            if (k, orig) in seen:
                continue
            seen.add((k, orig))
            d = idx.collection.docs[k]
            v = _window_probability(idx.tt, idx.ann, d, o, p, idx.tau_min)
            if v >= idx.tau_min:
                per_doc.setdefault(k, []).append((orig, v))
        for k, pairs in per_doc.items():
            pairs.sort()
            score = _combine([v for _, v in pairs], idx.metric)
            if score >= tau:
                found[k] = score

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
