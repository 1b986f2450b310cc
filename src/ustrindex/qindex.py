"""Threshold substring search over uncertain strings (Problem 1).

Short patterns are answered by one sparse table per length (the nonzero
entries in slot order, see ``textcore.SparseDepth``), reported block by block
with ``textcore.rmq_report``; long patterns by block maxima, reported the
same way, whose slots ``_factor_hits`` reads at the factor starts.  So
reported positions always carry their exact occurrence probability.  Every
stored or read value is a factor's own ``cum`` prefix, the same left-to-right
product the model computes, which keeps threshold comparisons bitwise
faithful.

``_factor_rows`` lists, per depth, the factor-start windows reaching tau_min,
and ``_group_depth`` builds the short tables of both index kinds from them:
one entry per (locus partition, key) at the first factor-start slot of that
key in the partition, where the key is an original position here and a
document in ``listing``, whose several occurrences ``_fold`` combines into
one score.  A long table keeps the block maxima of the same rows; it is built
for one depth the first time a query of that length covers a whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ThresholdError
from .factorize import TransformedText, transform
from .model import UncertainString, validate
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
    length_cap: int | None = None


@dataclass(eq=False)
class SubstringIndex:
    """Search index over one uncertain string.

    Its answers never change, but it caches what queries build on first use:
    the long table of a depth in ``long_tables``, and the factor starts in
    slot order that such a table is built from.
    """

    u: UncertainString
    tt: TransformedText
    saidx: SuffixArrayIndex
    tau_min: float
    m_short: int
    short_tables: list[tuple[np.ndarray, SparseDepth]] = field(repr=False)
    long_tables: dict[int, tuple[np.ndarray, RmqIndex]] = field(default_factory=dict, repr=False)

    @property
    def l_max(self) -> int:
        """The longest pattern that can occur: the longest factor."""
        return self.tt.longest_factor

    @cached_property
    def sorted_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The factor starts in slot order, as ``_sorted_factors`` gives them."""
        return _sorted_factors(self.tt, self.saidx)

    @cached_property
    def tree(self) -> TreeView:
        """Suffix-tree view, built on first use; no query or link build reads it."""
        return TreeView(self.saidx)

    def long_table(self, m: int) -> tuple[np.ndarray, RmqIndex]:
        """Depth ``m``'s block maxima, one per ``m`` slots, and their RMQ; built on first call."""
        table = self.long_tables.get(m)
        if table is None:
            slots, _, values = _factor_rows(self.sorted_factors, self.tt.cum, self.tau_min, m)
            pb = np.zeros(-(-self.tt.n // m))
            np.maximum.at(pb, slots // m, values)
            table = self.long_tables[m] = (pb, rmq_build(pb))
        return table


def _sorted_factors(tt: TransformedText, saidx: SuffixArrayIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending 0-based slots of the factor starts, the starts at them and their run lengths."""
    starts, ends = tt.factor_runs()
    slots = saidx.inverse_sa[starts] - 1
    order = np.argsort(slots)
    return slots[order], starts[order], (ends - starts)[order]


def _factor_rows(
    factors: tuple[np.ndarray, np.ndarray, np.ndarray], cum: np.ndarray, tau_min: float, i: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factor-start windows of length ``i`` reaching tau_min, from ``_sorted_factors``.

    Gives ascending 0-based slots, the factor starts at them and their ``cum``
    values.  Every (pattern, position) pair at or above tau_min is a prefix of
    a maximal factor aligned there, with ``cum`` its exact probability, so
    these rows hold every such pair and its value, inside the locus partition
    of any other offset that spells it.
    """
    slots, starts, room = factors
    live = room >= i
    values = cum[starts[live] + i - 1]
    keep = values >= tau_min
    return slots[live][keep], starts[live][keep], values[keep]


def _group_depth(
    slots: np.ndarray,
    values: np.ndarray,
    lcp: np.ndarray,
    depth: int,
    occ: np.ndarray,
    group: np.ndarray,
    metric: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slots, folded values and groups of one entry per (depth partition, group), at the group's first slot.

    ``slots`` are the rows' ascending 0-based slots and ``values`` their
    values; ``occ`` names the occurrence a row stands for and ``group`` the key
    it is reported under, and ``occ`` must order by group first and by
    original position within a group.  Repeated occurrences in a partition are
    dropped by one ``np.unique`` over the (partition, occurrence) key, whose
    sorted order already lines each group up in ascending original position
    for ``_fold``.
    """
    # partition ids of the rows only: a row opens a partition when an lcp
    # between it and the row before falls below depth
    pid = np.zeros(slots.size, dtype=np.int64)
    if slots.size > 1:
        pid[1:] = np.cumsum(np.minimum.reduceat(lcp[: slots[-1] + 1], slots[:-1] + 1) < depth)
    span = np.int64(occ.max(initial=0)) + 1
    _, first = np.unique(pid * span + occ, return_index=True)
    p, g = pid[first], group[first]
    head = np.ones(first.size, dtype=bool)
    head[1:] = (p[1:] != p[:-1]) | (g[1:] != g[:-1])
    starts = np.flatnonzero(head)
    first_slot = np.minimum.reduceat(slots[first], starts)
    order = np.argsort(first_slot)
    kept = (first_slot[order] + 1).astype(np.int32)
    return kept, _fold(values[first], starts, metric)[order], g[starts][order].astype(np.int32)


def _fold(values: np.ndarray, starts: np.ndarray, metric: str) -> np.ndarray:
    """Fold each group ``values[starts[k]:starts[k + 1]]`` left to right into one score.

    ``max`` keeps the largest; ``or`` is the sum minus the product (a single
    occurrence keeps its own value); ``orx`` is one minus the product of the
    complements.  The additive folds take one numpy step per occurrence rank,
    across all groups that long, so each score is the same sequence of float
    operations a scalar loop makes.
    """
    if metric == "max":
        return np.maximum.reduceat(values, starts)
    if metric not in ("or", "orx"):
        raise ValueError(f"unknown metric {metric!r}")
    sizes = np.diff(starts, append=values.size)
    by_size = np.argsort(-sizes, kind="stable")
    total = np.zeros(starts.size)
    prod = np.ones(starts.size)
    # live[r]: how many groups hold more than r occurrences, a prefix of by_size
    live = starts.size - np.cumsum(np.bincount(sizes))[:-1]
    for r, k in enumerate(live.tolist()):
        at = by_size[:k]
        v = values[starts[at] + r]
        if metric == "or":
            total[at] += v
            prod[at] *= v
        else:
            prod[at] *= 1.0 - v
    if metric == "orx":
        return 1.0 - prod
    return np.where(sizes == 1, total, total - prod)


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
    m_short = cfg.m_short if cfg.m_short is not None else max(1, tt.n.bit_length() - 1)
    if m_short < 1:
        raise ValueError("m_short must be at least 1")

    idx = SubstringIndex(u, tt, saidx, tau_min, m_short, [])
    for i in range(1, m_short + 1):
        slots, starts, values = _factor_rows(idx.sorted_factors, tt.cum, tau_min, i)
        orig = tt.pos[starts]
        kept_slots, kept, labels = _group_depth(slots, values, saidx.lcp, i, orig, orig, "max")
        idx.short_tables.append((kept, SparseDepth(kept_slots, rmq_build(kept), labels)))
    return idx


def _factor_hits(
    tt: TransformedText, sa: np.ndarray, ranges: list[tuple[int, int]], m: int, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Factor starts in the slot ranges ``[lo, hi]`` of a length-``m`` pattern, and their values.

    Every slot in the ranges spells the pattern, so a factor start there has
    room for it and ``cum`` at its m-th character is the pattern's exact
    probability at that position; by conservation each position reaching
    tau_min has such a start in the pattern's range.  Keeps values >= ``floor``.
    """
    pieces = [sa[lo - 1 : hi] for lo, hi in ranges]
    off = np.concatenate(pieces) - 1 if pieces else np.zeros(0, dtype=np.int64)
    off = off[(off == 0) | (tt.codes[off - 1] < 0)]
    values = tt.cum[off + m - 1]
    keep = values >= floor
    return off[keep], values[keep]


def _locate(saidx: SuffixArrayIndex, tau_min: float, p: str, tau: float) -> tuple[int, int] | None:
    """Reject an empty pattern, a NaN threshold or one below the floor; else ``p``'s slot range or None."""
    if not p:
        raise ValueError("pattern is empty")
    if math.isnan(tau):
        raise ValueError("threshold tau is NaN")
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
        if not hits.size:
            return [], [], stats
        found = depth.labels[hits]
        if hits.size > 1:
            order = np.argsort(found)
            hits, found = hits[order], found[order]
            # a partition stores each original position once
            assert (found[1:] > found[:-1]).all()
        positions, probs = found.tolist(), values[hits].tolist()
    else:
        bs, be = (sp - 1) // m, (ep - 1) // m
        blo = bs if sp == bs * m + 1 else bs + 1
        bhi = be if ep == (be + 1) * m else be - 1
        if blo > bhi:
            ranges = [(sp, ep)]
            stats.block_scans += 1
        else:
            ranges = []
            if bs < blo:
                ranges.append((sp, blo * m))
            if be > bhi:
                ranges.append((bhi * m + m + 1, ep))
            _, rmq = idx.long_table(m)
            blocks = rmq_report(rmq, blo + 1, bhi + 1, tau, stats).tolist()
            ranges += [((b - 1) * m + 1, b * m) for b in blocks]
            stats.block_scans += len(ranges)
        off, values = _factor_hits(tt, sa, ranges, m, tau)
        found, first = np.unique(tt.pos[off], return_index=True)
        positions, probs = found.tolist(), values[first].tolist()

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
