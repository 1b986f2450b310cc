"""Approximate substring search with an additive probability tolerance.

Every original position d marks its suffix-tree leaves and the LCAs of
d-marked leaf pairs; a link runs from each marked node to its nearest
d-marked proper ancestor (the root stands in for every position).  Nodes are
LCP intervals of the suffix array (Abouelhoda, Kurtz & Ohlebusch 2004), and
a link's origin is the slot of a d-leaf inside its node.  Chains are cut so
that the probabilities inside one segment span at most epsilon, and a query
stabs the segments whose depth interval brackets the pattern length inside
the pattern's slot range.  Reported positions match at probability at least
tau - epsilon while nothing at or above tau is missed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorize import TransformedText, batch_prefix_probabilities
from .qindex import _locate
from .textcore import SuffixArrayIndex, locus  # noqa: F401 - locus is unused here; perfbench/tracer.py wraps this name

__all__ = [
    "Link",
    "LinkIndex",
    "RawLink",
    "RawLinks",
    "approx_items",
    "approx_query",
    "build_links",
    "partition_links",
]


@dataclass(frozen=True)
class RawLink:
    """One uncut link: a position mark, its depth interval, and the witness leaf's 0-based offset."""

    pos_id: int
    origin_depth: int
    target_depth: int
    witness_off: int


@dataclass(eq=False)
class RawLinks:
    """Uncut links plus the structures needed to partition and query them."""

    links: list[RawLink]
    tt: TransformedText
    saidx: SuffixArrayIndex
    tau_min: float


@dataclass(frozen=True)
class Link:
    """A chain segment: prefixes of length target_depth+1 .. origin_depth.

    ``origin`` is the slot of the witness leaf.  ``stored_prob`` is the
    occurrence probability of the shallowest of those prefixes at ``pos_id``,
    the largest value inside the segment.
    """

    origin: int
    pos_id: int
    stored_prob: float
    origin_depth: int
    target_depth: int


@dataclass(eq=False)
class LinkIndex:
    """Chain segments in flat arrays ordered by origin slot."""

    tt: TransformedText
    saidx: SuffixArrayIndex
    tau_min: float
    eps: float
    origin: np.ndarray = field(repr=False)
    pos_id: np.ndarray = field(repr=False)
    stored: np.ndarray = field(repr=False)
    o_depth: np.ndarray = field(repr=False)
    t_depth: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.origin)

    def links(self) -> list[Link]:
        return [
            Link(int(a), int(b), float(c), int(d), int(e))
            for a, b, c, d, e in zip(self.origin, self.pos_id, self.stored, self.o_depth, self.t_depth)
        ]


def build_links(tt: TransformedText, saidx: SuffixArrayIndex, tau_min: float) -> RawLinks:
    """Mark nodes per original position and link each mark to its nearest marked ancestor.

    The LCAs of consecutive d-leaves in slot order realize every marked
    internal node.  With ``h_i`` the LCP of the i-th and (i+1)-th d-leaf, a
    leaf links to depth ``max(h_{i-1}, h_i)``, capped at the window room
    before its separator; the internal nodes form the Cartesian tree over
    ``h``, each linking to the larger nearest smaller depth on either side (0,
    the root, when none) with the left leaf of its leftmost pair as witness.
    """
    sa0 = saidx.sa - 1
    slot_pos = tt.pos[sa0]
    slots = np.flatnonzero(slot_pos) + 1
    slots = slots[np.argsort(slot_pos[slots - 1], kind="stable")]  # by position, then slot
    d_of = slot_pos[slots - 1]
    # h[j]: LCP of leaves j and j + 1 of one position; -1 after a position's last leaf
    h = np.full(slots.size, -1, dtype=np.int64)
    bounds = np.flatnonzero(np.diff(d_of, prepend=-1, append=-1)).tolist()
    for a, b in zip(bounds, bounds[1:]):
        s = slots[a:b]
        h[a : b - 1] = np.minimum.reduceat(saidx.lcp[s[0] : s[-1]], s[:-1] - s[0])
    witness = sa0[slots - 1]
    hl, room_l = h.tolist(), tt.room(witness).tolist()

    # (leaf, origin depth, target depth) of each link; the leaf gives its position and witness
    marks: list[tuple[int, int, int]] = []
    # first pairs of the open nodes, depths strictly increasing; a -1 closes a position's nodes
    stack: list[int] = []
    for j, v in enumerate(hl):
        t = max(hl[j - 1] if j else -1, v, 0)
        if room_l[j] > t:
            marks.append((j, room_l[j], t))
        while stack and hl[stack[-1]] > v:
            top = stack.pop()
            if hl[top] > 0:
                below = hl[stack[-1]] if stack else 0
                marks.append((top, hl[top], max(below, v, 0)))
        if not stack or hl[stack[-1]] < v:
            stack.append(j)
    leaf = np.array([j for j, _, _ in marks], dtype=np.int64)
    links = [
        RawLink(d, origin, target, w)
        for d, w, (_, origin, target) in zip(d_of[leaf].tolist(), witness[leaf].tolist(), marks)
    ]
    return RawLinks(links, tt, saidx, tau_min)


def partition_links(raw: RawLinks, eps: float) -> LinkIndex:
    """Cut each raw link into segments whose inside probabilities span at most ``eps``."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"epsilon {eps!r} not in (0, 1]")
    u = raw.tt.source
    if u is None:
        raise ValueError("partitioning needs the transform's source string")
    witness: list[int] = []
    pos_id: list[int] = []
    stored: list[float] = []
    o_depth: list[int] = []
    t_depth: list[int] = []

    def emit(rl: RawLink, prob: float, deep: int, shallow: int) -> None:
        witness.append(rl.witness_off)
        pos_id.append(rl.pos_id)
        stored.append(prob)
        o_depth.append(deep)
        t_depth.append(shallow)

    # the prefix probabilities of every link's window, back to back, from one frontier
    cols = np.array([(rl.pos_id, rl.witness_off, rl.origin_depth) for rl in raw.links], dtype=np.int64)
    cols = cols.reshape(-1, 3).T
    flat = batch_prefix_probabilities(u, cols[0], raw.tt.codes, cols[1], cols[2])
    base = 0
    for rl in raw.links:
        probs = flat[base : base + rl.origin_depth].tolist()
        base += rl.origin_depth
        seg_deep = rl.origin_depth
        anchor = probs[seg_deep - 1]
        for ell in range(rl.origin_depth - 1, rl.target_depth, -1):
            if probs[ell - 1] - anchor > eps:
                emit(rl, probs[ell], seg_deep, ell)
                seg_deep = ell
                anchor = probs[ell - 1]
        emit(rl, probs[rl.target_depth], seg_deep, rl.target_depth)

    origin = raw.saidx.inverse_sa[np.asarray(witness, dtype=np.int64)]
    order = np.argsort(origin, kind="stable")
    return LinkIndex(
        tt=raw.tt,
        saidx=raw.saidx,
        tau_min=raw.tau_min,
        eps=eps,
        origin=origin[order],
        pos_id=np.asarray(pos_id, dtype=np.int64)[order],
        stored=np.asarray(stored, dtype=np.float64)[order],
        o_depth=np.asarray(o_depth, dtype=np.int64)[order],
        t_depth=np.asarray(t_depth, dtype=np.int64)[order],
    )


def approx_items(idx: LinkIndex, p: str, tau: float) -> list[tuple[int, float]]:
    """Stabbed (position, stored probability) pairs in ascending position order.

    A node holding a slot of ``p``'s range lies in the locus subtree or is an
    ancestor of the locus, shallower than ``len(p)``; the depth test drops it.
    """
    rng = _locate(idx.saidx, idx.tau_min, p, tau)
    if rng is None:
        return []
    lo = idx.origin.searchsorted(rng[0])
    hi = idx.origin.searchsorted(rng[1], side="right")
    if lo == hi:
        return []
    m = len(p)
    stored = idx.stored[lo:hi]
    hit = (idx.t_depth[lo:hi] < m) & (idx.o_depth[lo:hi] >= m) & (stored >= tau)
    pos, val = idx.pos_id[lo:hi][hit], stored[hit]
    order = np.lexsort((val, pos))
    # values ascend within each position, so the dict keeps each position's largest
    return list(dict(zip(pos[order].tolist(), val[order].tolist())).items())


def approx_query(idx: LinkIndex, p: str, tau: float) -> list[int]:
    """Positions whose match probability is at least tau - eps; none below tau missed."""
    return [d for d, _ in approx_items(idx, p, tau)]
