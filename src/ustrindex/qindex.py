"""Threshold substring search over uncertain strings (Problem 1).

Short patterns are answered by one sparse table per length (the nonzero
entries in slot order, see ``textcore.SparseDepth``), reported block by block
with ``textcore.rmq_report``; long patterns by block maxima, reported the
same way, plus elementwise verification.  So reported positions always carry
their exact occurrence probability.  Every stored value is the same
left-to-right product the model computes, which keeps threshold comparisons
bitwise faithful.  A substring index builds its annotations on the first
long query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ThresholdError
from .factorize import Annotations, TransformedText, depth_values, transform
from .model import UncertainString, occurrence_probability, validate
from .textcore import (
    RmqIndex,
    SparseDepth,
    SuffixArrayIndex,
    TreeView,
    build_suffix_array,
    rmq_build,
    rmq_report,
    suffix_range,
)

__all__ = [
    "IndexConfig",
    "QueryStats",
    "SubstringIndex",
    "build",
    "query",
    "query_items",
    "query_with_stats",
]

# Cumulative-product ratios agree with the exact in-order product to a few
# ulps per factor character; candidates within this band are re-verified, so
# the shortcut can only cut windows that are clearly below threshold.
_RATIO_SLACK = 1.0 - 1e-9


@dataclass
class QueryStats:
    """Work counters for a single query; fresh per call."""

    rmq_calls: int = 0
    block_scans: int = 0
    outputs: int = 0
    slots_scanned: int = 0


@dataclass(frozen=True)
class IndexConfig:
    """Build-time overrides; None picks the documented defaults."""

    m_short: int | None = None
    l_max: int | None = None
    length_cap: int | None = None


@dataclass(eq=False)
class SubstringIndex:
    """Immutable search index over one uncertain string."""

    u: UncertainString
    tt: TransformedText
    saidx: SuffixArrayIndex
    tau_min: float
    m_short: int
    l_max: int
    short_tables: list[tuple[np.ndarray, SparseDepth]] = field(repr=False)
    long_tables: dict[int, tuple[np.ndarray, RmqIndex]] = field(repr=False)

    @cached_property
    def tree(self) -> TreeView:
        """Suffix-tree view, built on first use; no query or link build reads it."""
        return TreeView(self.saidx)


def _dedup_depth(
    values: np.ndarray, lcp: np.ndarray, orig: np.ndarray, depth: int, n_orig: int
) -> tuple[np.ndarray, np.ndarray]:
    """Slots and values of the leftmost slot of each original position per depth partition."""
    pid = np.cumsum(lcp < depth)
    valid = np.flatnonzero(values > 0.0)
    _, first = np.unique(pid[valid] * np.int64(n_orig + 1) + orig[valid], return_index=True)
    keep = np.sort(valid[first])
    return (keep + 1).astype(np.int32), values[keep]


def build(u: UncertainString, tau_min: float, config: IndexConfig | None = None) -> SubstringIndex:
    """Construct the substring index; the transform's capacity error propagates."""
    problems = validate(u)
    if problems:
        raise ValueError("invalid uncertain string: " + "; ".join(problems))
    if not 0.0 < tau_min <= 1.0:
        raise ValueError(f"tau_min {tau_min!r} not in (0, 1]")
    cfg = config or IndexConfig()

    tt = transform(u, tau_min, cfg.length_cap)
    saidx = build_suffix_array(tt.codes)
    n = tt.n
    m_short = cfg.m_short if cfg.m_short is not None else max(1, n.bit_length() - 1)
    if m_short < 1:
        raise ValueError("m_short must be at least 1")
    l_max = cfg.l_max if cfg.l_max is not None else tt.longest_factor

    short_tables: list[tuple[np.ndarray, SparseDepth]] = []
    long_tables: dict[int, tuple[np.ndarray, RmqIndex]] = {}
    if n:
        ann = tt.annotations
        sa0 = saidx.sa - 1
        orig = tt.pos[sa0]

        def window_value(o: int, i: int) -> float:
            return occurrence_probability(u, tt.window_text(o, i), int(tt.pos[o]))

        top = max(m_short, min(l_max, tt.longest_factor))
        for i, v in zip(range(1, top + 1), depth_values(ann, window_value, top)):
            c = v[sa0]
            if i <= m_short:
                slots, kept = _dedup_depth(c, saidx.lcp, orig, i, u.n)
                short_tables.append((kept, SparseDepth(slots, rmq_build(kept))))
            else:
                pb = np.maximum.reduceat(c, np.arange(0, n, i))
                long_tables[i] = (pb, rmq_build(pb))
    while len(short_tables) < m_short:
        empty = np.zeros(0, dtype=np.float64)
        short_tables.append((empty, SparseDepth(np.zeros(0, dtype=np.int32), rmq_build(empty))))
    return SubstringIndex(u, tt, saidx, tau_min, m_short, l_max, short_tables, long_tables)


def _window_probability(
    tt: TransformedText, ann: Annotations, u: UncertainString, o: int, p: str, floor: float
) -> float:
    """Exact occurrence probability of ``p`` at text offset ``o``, or 0 below ``floor``.

    Correlation-free factors are pre-screened by a cumulative-product ratio
    with slack before the exact recomputation.
    """
    m = len(p)
    if ann.eff_len[o] < m:
        return 0.0
    if not ann.factor_corr[o]:
        denom = tt.cum[o - 1] if o > ann.fstart[o] else 1.0
        if tt.cum[o + m - 1] < floor * denom * _RATIO_SLACK:
            return 0.0
    return occurrence_probability(u, p, int(tt.pos[o]))


def _locate(saidx: SuffixArrayIndex, tau_min: float, p: str, tau: float) -> tuple[int, int] | None:
    """Reject an empty pattern or a threshold below the floor; else the slot range of ``p`` or None."""
    if not p:
        raise ValueError("pattern is empty")
    if tau < tau_min:
        raise ThresholdError(tau, tau_min)
    return suffix_range(saidx, p)


def _run(idx: SubstringIndex, p: str, tau: float) -> tuple[list[int], list[float], QueryStats]:
    """Ascending qualifying positions, their probabilities, and the work counters."""
    stats = QueryStats()
    rng = _locate(idx.saidx, idx.tau_min, p, tau)
    if rng is None:
        return [], [], stats
    sp, ep = rng
    m = len(p)
    sa = idx.saidx.sa
    tt = idx.tt

    if m <= idx.m_short:
        values, depth = idx.short_tables[m - 1]
        hits = depth.report(sp, ep, tau, stats)
        found = tt.pos[sa[depth.slots[hits] - 1] - 1]
        order = np.argsort(found)
        found = found[order]
        # a partition stores each original position once
        assert np.all(found[1:] > found[:-1])
        positions, probs = found.tolist(), values[hits[order]].tolist()
    else:
        ann = tt.annotations
        items: list[tuple[int, float]] = []
        seen: set[int] = set()

        def scan_slots(lo: int, hi: int) -> None:
            for j in range(lo, hi + 1):
                o = sa[j - 1] - 1
                orig = int(tt.pos[o])
                if orig in seen:
                    continue
                seen.add(orig)
                v = _window_probability(tt, ann, idx.u, o, p, tau)
                if v >= tau:
                    items.append((orig, v))

        table = idx.long_tables.get(m) if m <= idx.l_max else None
        if table is None:
            scan_slots(sp, ep)
        else:
            pb, rmq = table
            bs, be = (sp - 1) // m, (ep - 1) // m
            blo = bs if sp == bs * m + 1 else bs + 1
            bhi = be if ep == (be + 1) * m else be - 1
            if blo > bhi:
                stats.block_scans += 1
                scan_slots(sp, ep)
            else:
                if bs < blo:
                    stats.block_scans += 1
                    scan_slots(sp, blo * m)
                if be > bhi:
                    stats.block_scans += 1
                    scan_slots(bhi * m + m + 1, ep)
                for b in rmq_report(rmq, blo + 1, bhi + 1, tau, stats).tolist():
                    stats.block_scans += 1
                    scan_slots((b - 1) * m + 1, b * m)
        items.sort()
        assert len({i for i, _ in items}) == len(items)
        positions, probs = [i for i, _ in items], [v for _, v in items]

    stats.outputs = len(positions)
    return positions, probs, stats


def query_items(idx: SubstringIndex, p: str, tau: float) -> list[tuple[int, float]]:
    """Qualifying (position, probability) pairs in ascending position order."""
    positions, probs, _ = _run(idx, p, tau)
    return list(zip(positions, probs))


def query(idx: SubstringIndex, p: str, tau: float) -> list[int]:
    """All original positions where ``p`` occurs with probability >= ``tau``, ascending."""
    return _run(idx, p, tau)[0]


def query_with_stats(idx: SubstringIndex, p: str, tau: float) -> tuple[list[int], QueryStats]:
    """Like query, with the work counters of this call."""
    positions, _, stats = _run(idx, p, tau)
    return positions, stats
