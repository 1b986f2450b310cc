"""Threshold substring search over uncertain strings (Problem 1).

Patterns up to ``m_short = max(1, bit_length(n) - 1)`` codes long (n codes
in the text) are short, which picks a table but never changes an answer.
Every index orders only the factor starts (``textcore.build_suffix_array``
with ``starts``): every qualifying occurrence is a prefix of a factor aligned
at its position, so a pattern's range of ranks in that order holds every
factor start it can report.  They are answered by one sparse table per
length (the nonzero entries in rank order, see ``textcore.SparseDepth``),
reported block by block with ``textcore.rmq_report``; long patterns by block
maxima of m ranks, reported the same way, whose ranges ``_collect`` reads at
the factor starts in rank order.  So reported positions always carry their
exact occurrence probability.  Every table value is a factor's own ``cum``
prefix, the same left-to-right product the model computes, which keeps
threshold comparisons bitwise faithful.

A table is built for one length the first time a query of that length reads
it.  ``_factor_rows`` lists, per depth, the factor-start windows reaching
tau_min, and ``_group_depth`` makes the short tables of both index kinds from
them (``_FactorStarts.short_table``): one entry per (locus partition, key) at
the first rank of that key in the partition, where the key is an original
position here and a document in ``listing``, whose several occurrences
``_fold`` combines into one score.  A long table keeps the block maxima of
the same rows; its first query covers a whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ThresholdError
from .factorize import TransformedText, transform
from .model import UncertainString
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


class _FactorStarts:
    """What an index with ``tt`` and ``saidx`` derives: its short/long cut, and what it builds on first use and keeps.

    Its factor starts in rank order with their run lengths, and each depth's short table in ``_short`` by depth, once read.
    """

    def __post_init__(self) -> None:
        self.m_short = max(1, self.tt.n.bit_length() - 1)
        self._short: dict[int, tuple[np.ndarray, SparseDepth]] = {}

    @property
    def tau_min(self) -> float:
        """The construction floor, which only the transformed text stores."""
        return self.tt.tau_min

    @cached_property
    def sorted_factors(self) -> tuple[np.ndarray, np.ndarray]:
        return _sorted_factors(self.tt, self.saidx)

    def short_table(self, i: int) -> tuple[np.ndarray, SparseDepth]:
        """Depth ``i``'s entry values and their ``SparseDepth``; built on first call."""
        table = self._short.get(i)
        if table is None:
            ranks, starts, values = _factor_rows(self, i)
            occ, group, metric = self._short_keys(starts)
            kept_ranks, kept, labels = _group_depth(self.tt.codes, ranks, starts, values, i, occ, group, metric)
            table = self._short[i] = (kept, SparseDepth(kept_ranks, rmq_build(kept), labels))
        return table

    @property
    def short_tables(self) -> list[tuple[np.ndarray, SparseDepth]]:
        """Every short depth's table in depth order, building those no query has read."""
        return [self.short_table(i) for i in range(1, self.m_short + 1)]


@dataclass(eq=False)
class SubstringIndex(_FactorStarts):
    """Search index over one uncertain string.

    Its answers never change, but it caches what queries build on first use:
    the short and the long table of a depth, and the factor starts in rank
    order that long queries and both kinds of table read.
    """

    tt: TransformedText
    saidx: SuffixArrayIndex
    long_tables: dict[int, tuple[np.ndarray, RmqIndex]] = field(default_factory=dict, repr=False)

    @property
    def u(self) -> UncertainString:
        """The indexed string; no query reads it, and a loaded index parses it on first read."""
        return self.tt.source

    @property
    def l_max(self) -> int:
        """The longest pattern that can occur: the longest factor."""
        return self.tt.longest_factor

    @cached_property
    def tree(self) -> TreeView:
        """Suffix-tree view over a full sort of the text, built on first use; no query or link build reads it."""
        return TreeView(build_suffix_array(self.tt.codes))

    def _short_keys(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
        """Each row is one occurrence, reported under its original position; a partition keeps the largest."""
        orig = self.tt.pos[starts]
        return orig, orig, "max"

    def long_table(self, m: int) -> tuple[np.ndarray, RmqIndex]:
        """Depth ``m``'s block maxima, one per ``m`` ranks, and their RMQ; built on first call."""
        table = self.long_tables.get(m)
        if table is None:
            ranks, _, values = _factor_rows(self, m)
            pb = np.zeros(-(-self.saidx.sa.size // m))
            np.maximum.at(pb, ranks // m, values)
            table = self.long_tables[m] = (pb, rmq_build(pb))
        return table


def _sorted_factors(tt: TransformedText, saidx: SuffixArrayIndex) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based factor starts in rank order, and their run lengths."""
    starts, ends = tt.factor_runs()
    room = np.zeros(tt.n + 1, dtype=np.int32)  # room[b + 1]: the run length of a factor starting at offset b
    room[starts + 1] = ends - starts
    return saidx.sa - 1, room[saidx.sa]


def _factor_rows(idx, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factor-start windows of length ``i`` reaching the index's tau_min, from ``sorted_factors``.

    Gives ascending 0-based ranks, the factor starts at them and their ``cum``
    values.  Every (pattern, position) pair at or above tau_min is a prefix of
    a maximal factor aligned there, with ``cum`` its exact probability, so
    these rows hold every such pair and its value, inside the locus partition
    of any other offset that spells it.
    """
    starts, room = idx.sorted_factors
    live = np.flatnonzero(room >= i)
    values = idx.tt.cum[starts[live] + i - 1]
    keep = values >= idx.tau_min
    return live[keep], starts[live[keep]], values[keep]


def _group_depth(
    codes: np.ndarray, ranks: np.ndarray, starts: np.ndarray, values: np.ndarray, depth: int, occ, group, metric: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-based ranks, folded values and groups of one entry per (depth partition, group), at the group's first rank.

    ``ranks`` are the rows' ascending 0-based ranks, ``starts`` the factor
    starts at them and ``values`` their values; ``occ`` names the occurrence
    a row stands for and ``group`` the key it is reported under, and ``occ``
    must order by group first and by original position within a group.
    Repeated occurrences in a partition are dropped by one ``np.unique`` over
    the (partition, occurrence) key, whose sorted order already lines each
    group up in ascending original position for ``_fold``.
    """
    # a row opens a partition when its first depth codes differ from the row
    # before it; every row has room for depth letters, so no read leaves its factor
    opens = np.zeros(ranks.size, dtype=bool)
    for t in range(depth):
        opens[1:] |= codes[starts[1:] + t] != codes[starts[:-1] + t]
    pid = np.cumsum(opens)
    span = np.int64(occ.max(initial=0)) + 1
    _, first = np.unique(pid * span + occ, return_index=True)
    p, g = pid[first], group[first]
    head = np.ones(first.size, dtype=bool)
    head[1:] = (p[1:] != p[:-1]) | (g[1:] != g[:-1])
    starts = np.flatnonzero(head)
    first_rank = np.minimum.reduceat(ranks[first], starts)
    order = np.argsort(first_rank)
    kept = (first_rank[order] + 1).astype(np.int32)
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


def build(u: UncertainString, tau_min: float, *, length_cap: int | None = None) -> SubstringIndex:
    """Construct the substring index; None picks the default ``length_cap``.

    Only the factor starts are sorted.  The transform's errors propagate:
    ValueError for an invalid string or tau_min, CapacityError for a text
    over its cap.
    """
    tt = transform(u, tau_min, length_cap)
    return SubstringIndex(tt, build_suffix_array(tt.codes, starts=tt.factor_runs()[0]))


def _collect(idx, ranges: list[tuple[int, int]], m: int, floor: float, key) -> dict:
    """The first value >= ``floor`` per ``key(start)`` over the factor starts at the ranks ``[lo, hi]``.

    A plain loop over the few starts of each range, range by range in the
    order given.  A factor start in the ranges has room for the length-``m``
    pattern, and ``cum`` at its m-th character is the pattern's exact
    probability there; by conservation each position reaching tau_min has
    such a start in the range.
    """
    starts, cum = idx.sorted_factors[0], idx.tt.cum
    found: dict = {}
    for lo, hi in ranges:
        for s in starts[lo - 1 : hi].tolist():
            v = cum.item(s + m - 1)
            if v >= floor:
                found.setdefault(key(s), v)
    return found


def _locate(saidx: SuffixArrayIndex, tau_min: float, p: str, tau: float) -> tuple[int, int] | None:
    """Reject an empty pattern, a NaN threshold or one below the floor; else ``p``'s rank range or None."""
    if not p:
        raise ValueError("pattern is empty")
    if math.isnan(tau):
        raise ValueError("threshold tau is NaN")
    if tau < tau_min:
        raise ThresholdError(tau, tau_min)
    return suffix_range(saidx, p)


_FEW = 32  # more hits (or links) are read by numpy, fewer one by one: about where the costs cross


def _run(idx: SubstringIndex, p: str, tau: float) -> tuple[list[int], list[float], QueryStats]:
    """Ascending qualifying positions, their probabilities, and the work counters."""
    stats = QueryStats()
    rng = _locate(idx.saidx, idx.tt.tau_min, p, tau)
    if rng is None:
        return [], [], stats
    sp, ep = rng
    m = len(p)

    if m <= idx.m_short:
        values, depth = idx._short.get(m) or idx.short_table(m)
        hits = depth.report(sp, ep, tau, stats)
        if len(hits) > _FEW:
            found = depth.labels[hits]
            order = np.argsort(found)
            found = found[order]
            # a partition stores each original position once
            assert (found[1:] > found[:-1]).all()
            positions, probs = found.tolist(), values[hits][order].tolist()
        else:
            _, vals, labels = depth.views
            found = dict(sorted([(labels[k], vals[k]) for k in hits]))
            assert len(found) == len(hits)
            positions, probs = list(found), list(found.values())
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
        found = _collect(idx, ranges, m, tau, idx.tt.pos.item)
        positions = sorted(found)
        probs = [found[k] for k in positions]

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
