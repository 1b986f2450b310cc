"""Approximate substring search with an additive probability tolerance.

Every original position d marks its suffix-tree leaves and the LCAs of
d-marked leaf pairs; a link runs from each marked node to its nearest
d-marked proper ancestor (the root stands in for every position).  Nodes are
LCP intervals (Abouelhoda, Kurtz & Ohlebusch 2004), found as nearest smaller
values over the LCPs of consecutive d-leaves, each lifted for its pair from
the ranks of a sort of every suffix that the link build makes.  A link's
origin is the rank, in the index's order of the factor starts, of a factor
start inside its node: every d-leaf of the node spells the node's string,
and so does that start; a node without one stores nothing a query could
report, and gets no link.  Chains are cut over ``cum`` slices so that the
probabilities inside one segment span at most epsilon, and each segment
stores its largest; a query stabs the segments whose depth interval brackets
the pattern length inside the pattern's rank range.
Reported positions match at probability at least tau - epsilon while nothing
at or above tau is missed.  Links and segments are rows of flat arrays, and
their floor is the text's: ``build_links`` takes none, and a query rejects a
tau below ``tt.tau_min`` of the text the links were built over.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .factorize import TransformedText
from .qindex import _FEW, _locate
from .textcore import SuffixArrayIndex, _lift, _prefix_doubling, locus  # noqa: F401 - perfbench/tracer.py wraps locus

__all__ = [
    "LinkIndex",
    "RawLinks",
    "approx_items",
    "approx_query",
    "build_links",
    "partition_links",
]


@dataclass(eq=False)
class RawLinks:
    """Uncut links in flat arrays, plus the structures needed to partition them.

    Link r marks position ``pos_id[r]`` on depths ``t_depth[r] + 1 .. o_depth[r]``, spelled at the 0-based text offset
    ``factor_off[r]`` by a factor start of its node, and is stabbed at that start's 1-based rank ``origin[r]`` in ``saidx``.
    """

    tt: TransformedText
    saidx: SuffixArrayIndex
    pos_id: np.ndarray = field(repr=False)
    o_depth: np.ndarray = field(repr=False)
    t_depth: np.ndarray = field(repr=False)
    factor_off: np.ndarray = field(repr=False)
    origin: np.ndarray = field(repr=False)


@dataclass(eq=False)
class LinkIndex:
    """Chain segments in flat arrays, one row per segment, ordered by origin rank; ``stored`` float64, the rest int32.

    Segment r covers the prefixes of lengths ``t_depth[r] + 1 .. o_depth[r]``
    at position ``pos_id[r]``; ``origin[r]`` is the 1-based rank in
    ``saidx`` of a factor start that spells them, and ``stored[r]`` the
    largest occurrence probability of those prefixes at the position: the
    shallowest one's, unless a longer prefix is the more likely.
    """

    tt: TransformedText
    saidx: SuffixArrayIndex
    eps: float
    origin: np.ndarray = field(repr=False)
    pos_id: np.ndarray = field(repr=False)
    stored: np.ndarray = field(repr=False)
    o_depth: np.ndarray = field(repr=False)
    t_depth: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.origin)

    @cached_property
    def views(self) -> tuple[memoryview, ...]:
        """``memoryview``s of the five arrays, in field order, which queries index one link at a time."""
        return tuple(map(memoryview, (self.origin, self.pos_id, self.stored, self.o_depth, self.t_depth)))


def _nearest_smaller(h: np.ndarray, pair: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Per index in ``pair``, the nearest index left with ``h`` at most ``h[pair]`` (-1: none), and right below it."""
    table = [h.astype(np.int32)]  # a sparse min-table for binary lifting
    for k in range(1, reach.bit_length()):  # both answers lie within reach of their index
        table.append(np.minimum(table[-1][: -(1 << k - 1)], table[-1][1 << k - 1 :]))
    v, left, right = table[0][pair], pair.astype(np.int32), pair.astype(np.int32) + 1
    for k in reversed(range(len(table))):
        w, m = np.int32(1 << k), table[k]
        left -= w * ((left >= w) & (m[np.maximum(left - w, 0)] > v))
        right += w * ((right < m.size) & (m[np.minimum(right, m.size - 1)] >= v))
    return left - 1, right


def build_links(tt: TransformedText, saidx: SuffixArrayIndex) -> RawLinks:
    """Mark nodes per original position and link each mark to its nearest marked ancestor.

    ``saidx`` orders the factor starts of ``tt``; the marks come from the
    order of every suffix, which this build sorts itself, keeping the ranks
    of the sort's rounds.  With ``h_i`` the LCP of the i-th and (i+1)-th
    d-leaf in slot order, a leaf links to depth ``max(h_{i-1}, h_i)``, capped
    at the room before its separator; each ``h_i`` is lifted for its pair
    alone from the ranks.  The internal nodes, the Cartesian tree over ``h``
    (nearest smaller values; Berkman, Schieber & Vishkin 1993), start at
    each pair whose nearest left pair at most as deep is shallower and link
    to the larger nearest smaller depth on either side (0 when none).  Each
    link names the first factor start among its node's d-leaves, whose
    ``cum`` holds its values and whose rank in ``saidx`` is its origin.  A
    node that holds none (possible only on correlated input) gets no link:
    by conservation a prefix reaching tau_min at d lies in a factor aligned
    at d, whose start would share more than the target depth with the
    node's d-leaves and so lie among them; every value of such a link lies
    below tau_min, where no query reads it.
    """
    rounds: list[np.ndarray] = []
    sa = _prefix_doubling(tt.codes, rounds)  # 0-based offsets in the order of every suffix
    del rounds[-1]  # each suffix's own slot: no two suffixes share it, so no lift reads it
    leaves = sa[tt.pos[sa] > 0]
    d_of = tt.pos[leaves]
    # by position, then slot; a stable sort of 16-bit positions is a radix sort
    by_pos = np.argsort(d_of.astype(np.min_scalar_type(d_of.max(initial=0))), kind="stable")
    leaves, d_of = leaves[by_pos], d_of[by_pos]
    # h[j]: LCP of leaves j and j + 1 of one position; -1 after a position's last leaf
    h = np.full(leaves.size, -1, dtype=np.int64)
    same = np.flatnonzero(d_of[1:] == d_of[:-1])
    h[same] = _lift(rounds, leaves[same], leaves[same + 1])
    # h ends in -1, so index -1 reads as no pair: h[j - 1] at j = 0, and h[prev] when nothing is left
    pair = np.flatnonzero(h > 0)
    prev, close = _nearest_smaller(h, pair, int(np.bincount(d_of).max(initial=0)))
    head = h[prev] < h[pair]
    pair, prev, close = pair[head], prev[head], close[head]
    room = tt.room(leaves)
    leaf_t = np.maximum(np.maximum(np.roll(h, 1), h), 0)
    leaf = np.flatnonzero(room > leaf_t)
    # a mark's d-leaves are lo..hi, and its link is emitted when index hi closes it
    mark, lo, hi = (np.concatenate(a) for a in ((leaf, pair), (leaf, prev + 1), (leaf, close)))
    o_depth = np.concatenate((room[leaf], h[pair]))
    t_depth = np.concatenate((leaf_t[leaf], np.maximum(np.maximum(h[prev], h[close]), 0)))
    order = np.lexsort((-o_depth, np.arange(mark.size) >= leaf.size, hi))  # a stack's order: leaf, then deeper
    # the first factor-start d-leaf at or after lo, kept when it lies at or before hi
    starts = np.flatnonzero((leaves == 0) | (tt.codes[leaves - 1] < 0))
    first = np.append(starts, leaves.size)[np.searchsorted(starts, lo[order])]
    kept = np.flatnonzero(first <= hi[order])
    order, factor_off = order[kept], leaves[first[kept]]
    rank_of = np.zeros(tt.n, dtype=np.int32)  # each factor start's 1-based rank in saidx, by 0-based offset
    rank_of[saidx.sa - 1] = np.arange(1, saidx.sa.size + 1, dtype=np.int32)
    return RawLinks(tt, saidx, d_of[mark[order]], o_depth[order], t_depth[order], factor_off, rank_of[factor_off])


def partition_links(raw: RawLinks, eps: float) -> LinkIndex:
    """Cut each raw link into segments whose inside probabilities span at most ``eps``.

    A link reads its values from ``cum`` at its factor start.  The cut runs
    deep to shallow and keeps the largest and smallest value of the open
    segment; a value that would set them more than ``eps`` apart opens the
    next segment.  Each segment stores its largest value, so a pattern at
    or above tau is reported and one below tau - eps is not, also where a
    longer prefix is the more likely; segments are stabbed at their link's
    origin.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"epsilon {eps!r} not in (0, 1]")
    deep, shallow = raw.o_depth, raw.t_depth
    span = deep - shallow
    # probs[ell] of link r, for shallow <= ell < deep, at vals[base[r] + ell - shallow[r]]
    base = np.cumsum(span) - span
    vals = raw.tt.cum[np.repeat(raw.factor_off + shallow - base, span) + np.arange(span.sum())]
    # the cut rule deep to shallow, step k testing ell = deep - 1 - k; longest first, so open links lead
    rows = np.argsort(-span, kind="stable")
    last, top = (base + span - 1)[rows], deep[rows] - 1  # vals index of probs[deep - 1]
    high, low, seg_deep = vals[last], vals[last], top + 1  # the open segments' largest and smallest values
    segs = []  # (link, deep, shallow, stored value)
    for k, n in enumerate(np.searchsorted(-span[rows], -np.arange(2, span.max(initial=1) + 1), "right").tolist()):
        above = vals[last[:n] - 1 - k]  # probs[ell - 1]
        up, down = np.maximum(high[:n], above), np.minimum(low[:n], above)
        cut = np.flatnonzero(up - down > eps)
        segs.append((rows[cut], seg_deep[cut], top[cut] - k, high[cut]))
        high[:n], low[:n] = up, down
        seg_deep[cut], high[cut], low[cut] = top[cut] - k, above[cut], above[cut]
    segs.append((rows, seg_deep, shallow[rows], high))
    link, o_depth, t_depth, stored = (np.concatenate(a) for a in zip(*segs))
    origin = raw.origin[link]
    order = np.lexsort((-o_depth, link, origin))
    origin, pos_id, o_depth, t_depth = (a[order].astype(np.int32) for a in (origin, raw.pos_id[link], o_depth, t_depth))
    return LinkIndex(raw.tt, raw.saidx, eps, origin, pos_id, stored[order], o_depth, t_depth)


def approx_items(idx: LinkIndex, p: str, tau: float) -> list[tuple[int, float]]:
    """Stabbed (position, stored probability) pairs in ascending position order.

    A node holding a factor start of ``p``'s range lies in the locus subtree
    or is an ancestor of the locus, shallower than ``len(p)``; the depth test
    drops it.  ``bisect`` finds the links with an origin in the range; a few
    are tested one by one, many by numpy.
    """
    rng = _locate(idx.saidx, idx.tt.tau_min, p, tau)
    if rng is None:
        return []
    origin, pos_id, stored, o_depth, t_depth = idx.views
    lo, hi = bisect_left(origin, rng[0]), bisect_right(origin, rng[1])
    m = len(p)
    # hits sorted by position, then value, so the dict keeps each position's largest
    if hi - lo <= _FEW:
        hits = [(pos_id[k], stored[k]) for k in range(lo, hi) if t_depth[k] < m <= o_depth[k] and stored[k] >= tau]
        hits.sort()
    else:
        val = idx.stored[lo:hi]
        hit = ((idx.t_depth[lo:hi] < m) & (idx.o_depth[lo:hi] >= m) & (val >= tau)).nonzero()[0]
        pos, val = idx.pos_id[lo:hi][hit], val[hit]
        order = np.lexsort((val, pos))
        hits = zip(pos[order].tolist(), val[order].tolist())
    return list(dict(hits).items())


def approx_query(idx: LinkIndex, p: str, tau: float) -> list[int]:
    """Positions whose match probability is at least tau - eps; none below tau missed."""
    return [d for d, _ in approx_items(idx, p, tau)]
