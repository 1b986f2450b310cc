"""Approximate substring search with an additive probability tolerance.

Every original position d marks its suffix-tree leaves and the LCAs of
d-marked leaf pairs; a link runs from each marked node to its nearest
d-marked proper ancestor (the root stands in for every position).  Chains
are cut so that the probabilities inside one segment span at most epsilon,
and a query stabs the segments whose depth interval brackets the pattern
length inside the locus subtree.  Reported positions match at probability
at least tau - epsilon while nothing at or above tau is missed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorize import TransformedText, prefix_probabilities
from .qindex import _check_query
from .textcore import TreeView, locus

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
    """One uncut link: a marked node, its position mark, and the depth interval."""

    origin_pre: int
    pos_id: int
    origin_depth: int
    target_pre: int
    target_depth: int
    witness_off: int


@dataclass(eq=False)
class RawLinks:
    """Uncut links plus the structures needed to partition and query them."""

    links: list[RawLink]
    tt: TransformedText
    tree: TreeView
    tau_min: float


@dataclass(frozen=True)
class Link:
    """A chain segment: prefixes of length target_depth+1 .. origin_depth.

    ``stored_prob`` is the occurrence probability of the shallowest of those
    prefixes at ``pos_id``, the largest value inside the segment.
    """

    origin_pre: int
    pos_id: int
    stored_prob: float
    origin_depth: int
    target_depth: int


@dataclass(eq=False)
class LinkIndex:
    """Chain segments in flat arrays ordered by origin preorder id."""

    tt: TransformedText
    tree: TreeView
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


def _lca(tree: TreeView, a: int, b: int) -> int:
    """Lowest common ancestor of two nodes given in preorder (a <= b)."""
    x = a
    while tree.subtree_end[x] < b:
        x = tree.parent[x]
    return x


def build_links(tt: TransformedText, tree: TreeView, tau_min: float) -> RawLinks:
    """Mark nodes per original position and link each mark to its nearest marked ancestor.

    A leaf is marked with its mapped position; an internal node is marked d
    exactly when it is the LCA of two d-marked leaves (LCAs of consecutive
    d-leaves in slot order realize all of them).  Leaf origins are capped at
    the window room before their separator.
    """
    ann = tt.annotations
    sa = tree.saidx.sa
    n = tt.n
    marks: dict[tuple[int, int], int] = {}
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for k in range(1, n + 1):
        o = int(sa[k - 1]) - 1
        d = int(tt.pos[o])
        if d == 0:
            continue
        leaf = int(tree.leaf_pre[k - 1])
        marks.setdefault((leaf, d), o)
        by_pos.setdefault(d, []).append((leaf, o))
    for d, rows in by_pos.items():
        for (l1, o1), (l2, _) in zip(rows, rows[1:]):
            marks.setdefault((_lca(tree, l1, l2), d), o1)

    links: list[RawLink] = []
    for (node, d), woff in sorted(marks.items()):
        if node == 0:
            continue
        anc = int(tree.parent[node])
        while anc > 0 and (anc, d) not in marks:
            anc = int(tree.parent[anc])
        t_depth = int(tree.depth[anc])
        o_depth = int(tree.depth[node])
        if tree.subtree_end[node] == node:
            o_depth = min(o_depth, int(ann.eff_len[woff]))
        if o_depth <= t_depth:
            # nothing strictly inside; the ancestor's own link covers these depths
            continue
        links.append(RawLink(node, d, o_depth, anc, t_depth, woff))
    return RawLinks(links, tt, tree, tau_min)


def partition_links(raw: RawLinks, eps: float) -> LinkIndex:
    """Cut each raw link into segments whose inside probabilities span at most ``eps``."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"epsilon {eps!r} not in (0, 1]")
    u = raw.tt.source
    if u is None:
        raise ValueError("partitioning needs the transform's source string")
    origin: list[int] = []
    pos_id: list[int] = []
    stored: list[float] = []
    o_depth: list[int] = []
    t_depth: list[int] = []

    def emit(rl: RawLink, prob: float, deep: int, shallow: int) -> None:
        origin.append(rl.origin_pre)
        pos_id.append(rl.pos_id)
        stored.append(prob)
        o_depth.append(deep)
        t_depth.append(shallow)

    for rl in raw.links:
        window = raw.tt.window_text(rl.witness_off, rl.origin_depth)
        probs = prefix_probabilities(u, window, rl.pos_id)
        seg_deep = rl.origin_depth
        anchor = probs[seg_deep - 1]
        for ell in range(rl.origin_depth - 1, rl.target_depth, -1):
            if probs[ell - 1] - anchor > eps:
                emit(rl, probs[ell], seg_deep, ell)
                seg_deep = ell
                anchor = probs[ell - 1]
        emit(rl, probs[rl.target_depth], seg_deep, rl.target_depth)

    order = np.argsort(np.asarray(origin, dtype=np.int64), kind="stable")
    return LinkIndex(
        tt=raw.tt,
        tree=raw.tree,
        tau_min=raw.tau_min,
        eps=eps,
        origin=np.asarray(origin, dtype=np.int64)[order],
        pos_id=np.asarray(pos_id, dtype=np.int64)[order],
        stored=np.asarray(stored, dtype=np.float64)[order],
        o_depth=np.asarray(o_depth, dtype=np.int64)[order],
        t_depth=np.asarray(t_depth, dtype=np.int64)[order],
    )


def approx_items(idx: LinkIndex, p: str, tau: float) -> list[tuple[int, float]]:
    """Stabbed (position, stored probability) pairs in ascending position order."""
    _check_query(p, tau, idx.tau_min)
    node = locus(idx.tree, p)
    if node is None:
        return []
    m = len(p)
    lo = int(np.searchsorted(idx.origin, node, side="left"))
    hi = int(np.searchsorted(idx.origin, int(idx.tree.subtree_end[node]), side="right"))
    best: dict[int, float] = {}
    for t in range(lo, hi):
        if idx.t_depth[t] < m <= idx.o_depth[t] and idx.stored[t] >= tau:
            d = int(idx.pos_id[t])
            v = float(idx.stored[t])
            if d not in best or v > best[d]:
                best[d] = v
    return sorted(best.items())


def approx_query(idx: LinkIndex, p: str, tau: float) -> list[int]:
    """Positions whose match probability is at least tau - eps; none below tau missed."""
    return [d for d, _ in approx_items(idx, p, tau)]
