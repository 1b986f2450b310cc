"""Seeded random instance builders and reference implementations shared across the test modules."""

from __future__ import annotations

import math
import random
import weakref
from typing import Iterator, Sequence

import numpy as np

from ustrindex import (
    CapacityError,
    Correlation,
    IndexContainer,
    QueryStats,
    TransformedText,
    UncertainString,
    occurrence_probability,
)
from ustrindex.factorize import (
    _CODE_BITS,
    MaximalFactor,
    _Alternatives,
    _alternatives,
    _check_tau_min,
    _extend,
    _levels,
    _Trie,
)
from ustrindex.model import SUM_TOLERANCE, Documents, _flatten
from ustrindex.qindex import _fold
from ustrindex.textcore import TreeView, build_suffix_array, rmq_report, suffix_range
from ustrindex.datagen import _inject_correlations


def random_distribution(rng: random.Random, alphabet: str, max_choices: int) -> dict[str, float]:
    k = rng.randint(2, min(max_choices, len(alphabet)))
    syms = rng.sample(alphabet, k)
    weights = [rng.random() + 0.05 for _ in syms]
    total = sum(weights)
    return {s: w / total for s, w in zip(syms, weights)}


def random_ustring(
    rng: random.Random,
    n: int | None = None,
    alphabet: str = "abcd",
    theta: float = 0.5,
    max_choices: int = 3,
    correlation_rate: float = 0.0,
    name: str = "rnd",
) -> UncertainString:
    """A random uncertain string; correlations, when asked for, keep worlds summing to 1."""
    if n is None:
        n = rng.randint(4, 40)
    positions: list[dict[str, float]] = []
    for _ in range(n):
        if rng.random() < theta:
            positions.append(random_distribution(rng, alphabet, max_choices))
        else:
            positions.append({rng.choice(alphabet): 1.0})
    corrs = _inject_correlations(rng, positions, correlation_rate) if correlation_rate > 0 else ()
    return UncertainString(name, tuple(positions), corrs)


def batch_prefix_probabilities(
    u: UncertainString, starts: np.ndarray, codes: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Occurrence probability of every prefix of many windows, in one frontier.

    Window r spells ``codes[offsets[r] : offsets[r] + lengths[r]]`` at
    ``starts[r]``.  Returns the windows' prefix probabilities back to back,
    ``lengths[r]`` values for window r, each equal bit for bit to
    ``occurrence_probability`` of that prefix.
    """
    starts, offsets, lengths = (np.asarray(a, dtype=np.int64) for a in (starts, offsets, lengths))
    ends, live = starts + lengths - 1, lengths > 0
    if np.any(live & ((starts < 1) | (ends > u.n))):
        raise ValueError(f"a window lies outside the string of length {u.n}")
    lo, hi = int(starts[live].min(initial=1)), int(ends[live].max(initial=0))
    alts = _alternatives(u, _flatten(u.positions[lo - 1 : hi], lo))
    out = np.empty(int(lengths.sum()))
    # longest first, so the windows still growing at step k are the first rows
    order = np.argsort(-lengths, kind="stable")
    start, offsets, base = starts[order], offsets[order], (np.cumsum(lengths) - lengths)[order]
    growing = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))
    trie = _Trie()
    prob = bound = np.ones(start.size)
    for k, rows in enumerate(growing.tolist()):
        start, offsets, base = start[:rows], offsets[:rows], base[:rows]
        code = codes[offsets + k].astype(np.int32)
        alt = alts.lookup(start + k, code)
        same = np.arange(rows)
        prob, bound = _extend(u, alts, trie, start, prob[:rows], bound[:rows], same, alt, code)
        out[base + k] = prob
        trie.add(same, code)
    return out


def correlation_chain(rng: random.Random, n: int) -> UncertainString:
    """A valid random string over ``abc`` whose correlations need not keep worlds summing to 1.

    Each position, with probability 0.7, conditions one of its symbols on a
    symbol 1-3 positions to its left or 1-2 to its right, with conditional
    probabilities drawn apart from the base ones: a marginal need not match,
    a longer prefix can be more likely than a shorter one, and one position
    may condition several.
    """
    positions = [random_distribution(rng, "abc", 3) if rng.random() < 0.7 else {rng.choice("abc"): 1.0} for _ in range(n)]
    corrs = []
    for i in range(1, n + 1):
        j = i + rng.choice((-3, -2, -1, 1, 2))
        if rng.random() < 0.7 and 1 <= j <= n:
            src, cond = (rng.choice(sorted(positions[k - 1])) for k in (i, j))
            corrs.append(Correlation(i, src, j, cond, rng.random() ** 0.3, rng.choice((0.0, rng.random()))))
    return UncertainString("chain", tuple(positions), tuple(corrs))


def slot_of(saidx) -> np.ndarray:
    """Each 0-based text offset's 1-based slot: the inverse suffix array."""
    return np.argsort(saidx.sa) + 1


_FULL_ORDERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def full_order(tt):
    """The order of every suffix of ``tt``'s codes, which no index holds: sorted once per text, kept while it lives."""
    full = _FULL_ORDERS.get(tt)
    if full is None:
        full = _FULL_ORDERS[tt] = build_suffix_array(tt.codes)
    return full


def full_slots(idx, ranks) -> np.ndarray:
    """The 1-based slots in the order of every suffix of the factor starts at 1-based ``ranks`` of ``idx.saidx``."""
    return slot_of(full_order(idx.tt))[idx.saidx.sa[np.asarray(ranks) - 1] - 1]


def reference_report(depth, sp: int, ep: int, tau: float, stats) -> np.ndarray:
    """``SparseDepth.report`` by numpy alone: an ``int32`` needle, ``searchsorted`` and ``rmq_report``."""
    # entries before slot sp and before slot ep + 1; an int32 needle spares a cast of slots
    l, r = depth.slots.searchsorted(np.array((sp, ep + 1), dtype=np.int32)).tolist()
    return rmq_report(depth.rmq, l + 1, r, tau, stats) - 1


def reference_suffix_order(codes: list[int]) -> list[int]:
    """0-based suffix starts of ``codes`` in sorted order, by comparing the suffixes as lists."""
    return sorted(range(len(codes)), key=lambda i: codes[i:])


def reference_link_marks(tt) -> list[tuple[int, int, int, int, int]]:
    """Sorted (position, origin depth, target depth, witness, factor start) of every mark's link.

    The marking over an explicit suffix tree of every suffix that ``build_links`` replaces:
    leaves and the LCAs of consecutive d-leaves (found by climbing parent
    pointers) are marked d, and each mark links to its nearest d-marked
    proper ancestor.  The witness of an LCA is the left leaf of its leftmost
    pair.  The factor start is the first d-leaf of the node, in preorder,
    that starts a factor, or -1 for none: ``build_links`` keeps only the
    links that have one.
    """
    saidx = full_order(tt)
    tree = TreeView(saidx)
    room = tt.room(np.arange(tt.n))
    codes = tt.codes.tolist()
    marks: dict[tuple[int, int], int] = {}
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for k in range(1, saidx.n + 1):
        o = int(saidx.sa[k - 1]) - 1
        d = int(tt.pos[o])
        if d:
            leaf = int(tree.leaf_pre[k - 1])
            marks[(leaf, d)] = o
            by_pos.setdefault(d, []).append((leaf, o))
    for d, rows in by_pos.items():
        for (l1, o1), (l2, _) in zip(rows, rows[1:]):
            x = l1
            while tree.subtree_end[x] < l2:
                x = int(tree.parent[x])
            marks.setdefault((x, d), o1)
    out = []
    for (node, d), woff in marks.items():
        if node == 0:
            continue
        anc = int(tree.parent[node])
        while anc > 0 and (anc, d) not in marks:
            anc = int(tree.parent[anc])
        o_depth = int(tree.depth[node])
        if tree.subtree_end[node] == node:
            o_depth = min(o_depth, int(room[woff]))
        inside = (o for leaf, o in by_pos[d] if node <= leaf <= tree.subtree_end[node])
        factor = next((o for o in inside if o == 0 or codes[o - 1] < 0), -1)
        if o_depth > tree.depth[anc]:
            out.append((d, o_depth, int(tree.depth[anc]), woff, factor))
    return sorted(out)


def reference_build_links(tt) -> list[tuple[int, int, int, int]]:
    """(position, origin depth, target depth, factor start) of every raw link, in link order.

    The scalar marking ``build_links`` replaced: one left-to-right stack pass
    over ``h``, the LCPs of consecutive d-leaves (-1 after a position's last
    leaf), emitting a leaf mark before the Cartesian-tree nodes that index
    closes, deepest first.  The factor start of a link is the first d-leaf in
    slot order that starts a factor and spells the link's origin-depth string;
    a mark without one has no link.
    """
    saidx = full_order(tt)
    sa0 = saidx.sa - 1
    slot_pos = tt.pos[sa0]
    slots = np.flatnonzero(slot_pos) + 1
    slots = slots[np.argsort(slot_pos[slots - 1], kind="stable")]
    d_of = slot_pos[slots - 1].tolist()
    lcp = saidx.lcp.tolist()
    slot_l = slots.tolist()
    hl = [-1] * len(slot_l)
    for j in range(len(slot_l) - 1):
        if d_of[j] == d_of[j + 1]:
            hl[j] = min(lcp[slot_l[j] : slot_l[j + 1]])
    witness = sa0[slots - 1].tolist()
    room_l = tt.room(sa0[slots - 1]).tolist()

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

    codes = tt.codes.tolist()
    starts: dict[int, list[int]] = {}
    for b, d in zip(witness, d_of):
        if b == 0 or codes[b - 1] < 0:
            starts.setdefault(d, []).append(b)
    out = []
    for j, origin, target in marks:
        d, w = d_of[j], witness[j]
        spelled = codes[w : w + origin]
        factor = next((b for b in starts.get(d, ()) if codes[b : b + origin] == spelled), None)
        if factor is not None:
            out.append((d, origin, target, factor))
    return out


def link_rows(raw) -> list[tuple[int, int, int, int]]:
    """(position, origin depth, target depth, factor start) of every ``RawLinks`` row, in link order."""
    return list(zip(*(c.tolist() for c in (raw.pos_id, raw.o_depth, raw.t_depth, raw.factor_off))))


def reference_link_origins(raw) -> np.ndarray:
    """Each raw link's origin by brute force: the 1-based rank of its factor start among the factor starts in suffix order."""
    heads = set(raw.tt.factor_runs()[0].tolist())
    factors = [o for o in reference_suffix_order(raw.tt.codes.tolist()) if o in heads]
    rank_of = {o: r for r, o in enumerate(factors, 1)}
    return np.asarray([rank_of[f] for f in raw.factor_off.tolist()], dtype=np.int32)


def _reference_segments(raw, eps: float) -> list[tuple[int, int, int, float, int, int]]:
    """(link, position, factor start, stored value, origin depth, target depth) of every segment, from the scalar cut rule.

    Every link's window comes from the growth rule at its factor start; each
    link is cut in Python, deep to shallow.  A segment keeps its largest and
    smallest value, ends before a value that would set them more than
    ``eps`` apart, and stores its largest.
    """
    u = raw.tt.source
    flat = batch_prefix_probabilities(u, raw.pos_id, raw.tt.codes, raw.factor_off, raw.o_depth)
    segments = []
    base = 0
    for link, (d, origin_depth, target_depth, f) in enumerate(link_rows(raw)):
        probs = flat[base : base + origin_depth].tolist()
        base += origin_depth
        seg_deep = origin_depth
        high = low = probs[seg_deep - 1]
        for ell in range(origin_depth - 1, target_depth, -1):
            v = probs[ell - 1]
            if max(high, v) - min(low, v) > eps:
                segments.append((link, d, f, high, seg_deep, ell))
                seg_deep, high, low = ell, v, v
            else:
                high, low = max(high, v), min(low, v)
        segments.append((link, d, f, high, seg_deep, target_depth))
    return segments


def _link_arrays(origin, rows) -> tuple[np.ndarray, ...]:
    """``LinkIndex`` arrays (origin, pos_id, stored, o_depth, t_depth) of segment ``rows``, ordered by origin stably."""
    origin = np.asarray(origin, dtype=np.int32)
    order = np.argsort(origin, kind="stable")
    columns = [np.asarray([r[k] for r in rows], dtype=t)[order] for k, t in enumerate((np.int32, np.float64, np.int32, np.int32))]
    return (origin[order], *columns)


def reference_partition_links(raw, eps: float) -> tuple[np.ndarray, ...]:
    """``LinkIndex`` arrays (origin, pos_id, stored, o_depth, t_depth) from the scalar cut rule.

    Each segment takes its link's origin from ``reference_link_origins``.
    """
    origin = reference_link_origins(raw).tolist()
    segments = _reference_segments(raw, eps)
    rows = [(d, prob, deep, shallow) for _, d, _, prob, deep, shallow in segments]
    return _link_arrays([origin[s[0]] for s in segments], rows)


def reference_full_order_approx(raw, eps: float):
    """``approx_items`` as a ``LinkIndex`` over the order of every suffix answers: (p, tau) -> items.

    Segments keep their factor start's slot in that order as their origin
    and stab within the pattern's slot range there.
    """
    full = full_order(raw.tt)
    segments = _reference_segments(raw, eps)
    slots = slot_of(full)
    origin = [int(slots[f]) for _, _, f, *_ in segments]
    rows = [(d, prob, deep, shallow) for _, d, _, prob, deep, shallow in segments]
    origin, pos_id, stored, o_depth, t_depth = _link_arrays(origin, rows)

    def items(p: str, tau: float) -> list[tuple[int, float]]:
        rng = suffix_range(full, p)
        if rng is None:
            return []
        m = len(p)
        hit = (origin >= rng[0]) & (origin <= rng[1]) & (t_depth < m) & (m <= o_depth) & (stored >= tau)
        best: dict[int, float] = {}
        for d, v in zip(pos_id[hit].tolist(), stored[hit].tolist()):
            best[d] = max(best.get(d, v), v)
        return sorted(best.items())

    return items


def max_segment_spread(u: UncertainString, idx, ln) -> float:
    """Largest within-segment probability spread of a ``LinkIndex``, recomputed at the origins' factor starts.

    One ``batch_prefix_probabilities`` call, the growth rule, yields every
    segment's window at its position, spelled by the factor start at its
    origin.  Asserts on the way that each such start has room for the
    origin depth, that the depths are ordered, and that each segment stores
    its largest value bit for bit.
    """
    tt, sa = idx.tt, idx.saidx.sa
    start = sa[ln.origin - 1] - 1
    assert np.all(tt.room(start) >= ln.o_depth)
    assert np.all((0 <= ln.t_depth) & (ln.t_depth < ln.o_depth))
    if not len(ln):
        return 0.0
    probs = batch_prefix_probabilities(u, ln.pos_id, tt.codes, start, ln.o_depth)
    # segment r's values are probs[base[r] + t_depth[r] : base[r] + o_depth[r]], at vals[first[r]:] in vals
    base, span = np.cumsum(ln.o_depth) - ln.o_depth, ln.o_depth - ln.t_depth
    first = np.cumsum(span) - span
    vals = probs[np.repeat(base + ln.t_depth - first, span) + np.arange(span.sum())]
    high, low = np.maximum.reduceat(vals, first), np.minimum.reduceat(vals, first)
    assert ln.stored.tobytes() == high.tobytes()
    return float((high - low).max())


def slot_depth_values(tt, saidx, doc_at, depths: int) -> list:
    """Window values of depths 1..depths in suffix-array slot order, by brute force.

    One ``occurrence_probability`` call per window that stays inside its
    factor; a window that reaches a separator or the text's end is 0.
    """
    codes = tt.codes.tolist()
    sa0 = (saidx.sa - 1).tolist()
    out = []
    for i in range(1, depths + 1):
        v = np.zeros(len(sa0))
        for k, o in enumerate(sa0):
            if o + i <= len(codes) and min(codes[o : o + i]) >= 0:
                v[k] = occurrence_probability(doc_at(o), tt.window_text(o, i), int(tt.pos[o]))
        out.append(v)
    return out


def partition_entries(slots, values, lcp, depth: int, key_of_slot) -> list[tuple[int, int, bytes]]:
    """(locus partition, key, value bytes) of each table entry at 1-based ``slots``."""
    pid = np.cumsum(lcp < depth)
    return [(int(pid[s - 1]), int(key_of_slot[s - 1]), v.tobytes()) for s, v in zip(slots.tolist(), values)]


def reference_dedup_depth(values, lcp, orig, depth: int, n_orig: int):
    """Slots and values of the leftmost slot of each original position per depth partition.

    The substring builder's grouping before it shared one with listing.
    """
    pid = np.cumsum(lcp < depth)
    valid = np.flatnonzero(values > 0.0)
    _, first = np.unique(pid[valid] * np.int64(n_orig + 1) + orig[valid], return_index=True)
    keep = np.sort(valid[first])
    return (keep + 1).astype(np.int32), values[keep]


def with_m_short(built, m_short: int | None):
    """``built``, an index or a container, with its index's short/long cut set to ``m_short``; None keeps it.

    The cut is derived from the text length and changes only which table
    answers a pattern, never an answer, so tests move it to send lengths down
    the short or the long path.  A loaded index derives the cut anew.
    """
    idx = built.substring or built.listing if isinstance(built, IndexContainer) else built
    if m_short is not None:
        idx.m_short = m_short
    return built


def _reference_factor_starts(tt) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The factor starts in suffix order, their 0-based slots in the order of every suffix, their run lengths, and its LCP array.

    A factor start's rank in the index's order is its place here, 0-based.
    """
    full = full_order(tt)
    starts, ends = tt.factor_runs()
    slots = slot_of(full)[starts] - 1
    order = np.argsort(slots)
    return starts[order], slots[order], (ends - starts)[order], full.lcp


def reference_long_tables(tt, tau_min: float, m_short: int) -> dict[int, np.ndarray]:
    """Block maxima of every depth m_short < i <= the longest factor, all built at once.

    The eager loop of the substring build before long tables were built on
    first read: per depth, the factor-start windows reaching tau_min, folded
    into one maximum per i ranks by ``np.maximum.at``.
    """
    starts, _, room, _ = _reference_factor_starts(tt)
    ranks = np.arange(starts.size)
    tables = {}
    for i in range(m_short + 1, tt.longest_factor + 1):
        live = room >= i
        values = tt.cum[starts[live] + i - 1]
        keep = values >= tau_min
        pb = np.zeros(-(-starts.size // i))
        np.maximum.at(pb, ranks[live][keep] // i, values[keep])
        tables[i] = pb
    return tables


def reference_short_tables(idx) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Values, ranks and labels of every short depth 1..m_short of either index kind, all built at once.

    The eager loop of both builds before short tables were built on first
    read, over the order of every suffix: per depth, the factor-start windows
    reaching tau_min in slot order; a row opens a partition when an LCP
    between it and the row before falls below the depth; one entry per
    (partition, key) at the key's first slot, its occurrences folded in
    ascending original position, and that slot's rank among the factor
    starts.  The key is the original position (substring, metric ``max``)
    or the document (listing).
    """
    tt = idx.tt
    all_starts, all_slots, room, lcp = _reference_factor_starts(tt)
    listing = hasattr(idx, "doc_of")
    span = np.int64(max((d.n for d in idx.collection.docs), default=0) + 1) if listing else None
    tables = []
    for i in range(1, idx.m_short + 1):
        live = room >= i
        values = tt.cum[all_starts[live] + i - 1]
        keep = values >= idx.tau_min
        slots, starts, values = all_slots[live][keep], all_starts[live][keep], values[keep]
        if listing:
            group = idx.doc_of[starts]
            occ, metric = group * span + tt.pos[starts], idx.metric
        else:
            occ = group = tt.pos[starts]
            metric = "max"
        pid = np.zeros(slots.size, dtype=np.int64)
        if slots.size > 1:
            pid[1:] = np.cumsum(np.minimum.reduceat(lcp[: slots[-1] + 1], slots[:-1] + 1) < i)
        _, first = np.unique(pid * (np.int64(occ.max(initial=0)) + 1) + occ, return_index=True)
        p, g = pid[first], group[first]
        head = np.ones(first.size, dtype=bool)
        head[1:] = (p[1:] != p[:-1]) | (g[1:] != g[:-1])
        heads = np.flatnonzero(head)
        first_slot = np.minimum.reduceat(slots[first], heads)
        order = np.argsort(first_slot)
        kept = (np.searchsorted(all_slots, first_slot[order]) + 1).astype(np.int32)
        tables.append((_fold(values[first], heads, metric)[order], kept, g[heads][order].astype(np.int32)))
    return tables


def check_short_tables(idx) -> None:
    """Every short depth of ``idx`` equals ``reference_short_tables``' bit for bit, values, ranks and labels."""
    want = reference_short_tables(idx)
    assert len(idx.short_tables) == len(want) == idx.m_short
    for (values, depth), (w_values, w_slots, w_labels) in zip(idx.short_tables, want):
        assert values.dtype == np.float64 and values.tobytes() == w_values.tobytes()
        assert depth.slots.dtype == np.int32 and np.array_equal(depth.slots, w_slots)
        assert depth.labels.dtype == np.int32 and np.array_equal(depth.labels, w_labels)
        assert depth.rmq.values is values


def reference_factor_hits(tt, sa, ranges: list[tuple[int, int]], m: int, floor: float):
    """Factor starts in the ranges ``[lo, hi]`` of ``sa`` of a length-``m`` pattern, and their values >= ``floor``.

    The long-query scan before queries read the factor starts alone: every
    slot of the ranges in order, kept where the offset follows a separator
    or opens the text.  ``sa`` orders every suffix, or only factor starts.
    """
    pieces = [sa[lo - 1 : hi] for lo, hi in ranges]
    off = np.concatenate(pieces) - 1 if pieces else np.zeros(0, dtype=np.int64)
    off = off[(off == 0) | (tt.codes[off - 1] < 0)]
    values = tt.cum[off + m - 1]
    keep = values >= floor
    return off[keep], values[keep]


def reference_long_query(idx, p: str, tau: float):
    """A long substring query through ``reference_factor_hits``: items, stats, the rank ranges read and the path.

    The ranges, in ranks of the index's order of the factor starts, are the
    partial end blocks, then the blocks ``rmq_report``
    finds ("blocks+ends", or "blocks" without partial ends), or the whole
    range when no block lies inside it ("scan"); repeated positions keep their
    first value, as ``np.unique(return_index=True)`` does.
    """
    stats = QueryStats()
    rng = suffix_range(idx.saidx, p)
    if rng is None:
        return [], stats, [], None
    sp, ep = rng
    m = len(p)
    assert m > idx.m_short
    bs, be = (sp - 1) // m, (ep - 1) // m
    blo = bs if sp == bs * m + 1 else bs + 1
    bhi = be if ep == (be + 1) * m else be - 1
    if blo > bhi:
        ranges, path = [(sp, ep)], "scan"
    else:
        ranges = []
        if bs < blo:
            ranges.append((sp, blo * m))
        if be > bhi:
            ranges.append((bhi * m + m + 1, ep))
        path = "blocks+ends" if ranges else "blocks"
        _, rmq = idx.long_table(m)
        ranges += [((b - 1) * m + 1, b * m) for b in rmq_report(rmq, blo + 1, bhi + 1, tau, stats).tolist()]
    stats.block_scans += len(ranges)
    off, values = reference_factor_hits(idx.tt, idx.saidx.sa, ranges, m, tau)
    found, first = np.unique(idx.tt.pos[off], return_index=True)
    stats.outputs = found.size
    return list(zip(found.tolist(), values[first].tolist())), stats, ranges, path


def reference_long_listing(idx, p: str, tau: float) -> list[tuple[str, float]]:
    """A long listing query through ``reference_factor_hits`` over the pattern's whole slot range in the full order."""
    full = full_order(idx.tt)
    rng = suffix_range(full, p)
    if rng is None:
        return []
    off, values = reference_factor_hits(idx.tt, full.sa, [rng], len(p), idx.tau_min)
    doc, orig = idx.doc_of[off], idx.tt.pos[off]
    _, first = np.unique(doc * (orig.max(initial=0) + 1) + orig, return_index=True)
    doc = doc[first]
    starts = np.flatnonzero(np.diff(doc, prepend=-1))
    scores = _fold(values[first], starts, idx.metric)
    keep = scores >= tau
    return [(idx.collection.docs[d].name, v) for d, v in zip(doc[starts[keep]].tolist(), scores[keep].tolist())]


def reference_combine(values: list[float], metric: str) -> float:
    """Fold per-occurrence probabilities (already in ascending position order), one at a time."""
    if not values:
        return 0.0
    if metric == "max":
        return max(values)
    if metric == "or":
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


def reference_aggregate_depth(c, lcp, slot_doc, orig, depth: int, n_docs: int, max_orig: int, metric: str):
    """Slots and scores of one per-document relevance entry per partition, group by group in Python.

    The listing builder's grouping before it shared one with the substring
    index; each entry sits at the first slot of its (partition, document) group.
    """
    pid = np.cumsum(lcp < depth)
    valid = np.flatnonzero(c > 0.0)
    heads: list[int] = []
    scores: list[float] = []
    if valid.size:
        # drop same-occurrence duplicates (same partition, doc, original position)
        keys = (pid[valid] * np.int64(n_docs) + slot_doc[valid]) * np.int64(max_orig + 1) + orig[valid]
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
            scores.append(reference_combine([float(c[s]) for s in chunk], metric))
            k = j
    order = np.argsort(heads)
    return np.asarray(heads, dtype=np.int32)[order] + 1, np.asarray(scores, dtype=np.float64)[order]


def _grow(
    u: UncertainString,
    start: int,
    q: int,
    chars: Sequence[str],
    sym: str,
    prob: float,
    bound: float,
    pending: frozenset[int],
) -> tuple[float, float, frozenset[int]]:
    """Grow the window at ``start`` by ``sym`` at position ``q``: the walker's growth rule.

    ``chars[: q - start]`` spells the window so far, ``prob`` is its exact
    product and ``bound`` an optimistic one.  ``pending`` holds the positions
    right of the window that condition a character inside it; when ``sym``
    lands on one, an earlier multiplicand changes and the product restarts in
    ``occurrence_probability``'s left-to-right order.  Returns the three for
    the grown window.
    """
    by_source = u.by_source
    corr = by_source.get((q, sym)) if by_source else None
    if corr is None:
        m = mb = u.positions[q - 1].get(sym, 0.0)
    elif start <= corr.cond_pos < q:
        m = mb = corr.p_plus if chars[corr.cond_pos - start] == corr.cond_sym else corr.p_minus
    else:
        m = corr.marginal(u.pr(corr.cond_pos, corr.cond_sym))
        mb = max(m, corr.p_plus, corr.p_minus)
        if corr.cond_pos > q:
            pending = pending | {corr.cond_pos}
    if q in pending:
        exact = occurrence_probability(u, "".join(chars[: q - start]) + sym, start)
    else:
        exact = prob * m
    return exact, bound * mb, pending


def _windows(u: UncertainString, tau_min: float, start: int) -> Iterator[tuple[str, list[float], bool]]:
    """Every window at ``start`` whose probability reaches tau_min, depth first.

    Yields ``(symbols, chain, maximal)``: ``chain[k]`` is the probability of
    the first k+1 symbols, and ``maximal`` says that no one-character
    extension qualifies.  A branch is cut once its optimistic bound falls
    below tau_min, which on correlation-free strings is just the product;
    maximality is checked against the actual extensions, so it does not assume
    that the product shrinks as the window grows.
    """
    chars: list[str] = []
    chain: list[float] = []
    # frame: [bound, pending, child iterator, saw a qualifying extension]
    frames: list[list] = [[1.0, frozenset(), iter(u.positions[start - 1]), False]]
    while frames:
        fr = frames[-1]
        q = start + len(chars)
        prob = chain[-1] if chain else 1.0
        for sym in fr[2]:
            exact, bound, pending = _grow(u, start, q, chars, sym, prob, fr[0], fr[1])
            if exact >= tau_min:
                fr[3] = True
            if bound >= tau_min:
                chars.append(sym)
                chain.append(exact)
                frames.append([bound, pending, iter(u.positions[q] if q < u.n else ()), False])
                break
        else:
            frames.pop()
            if chars:
                if chain[-1] >= tau_min:
                    yield "".join(chars), chain[:], not fr[3]
                chars.pop()
                chain.pop()


def reference_transform(u: UncertainString, tau_min: float, length_cap: int | None = None) -> TransformedText:
    """The depth-first transform the level-synchronous one replaced, kept as its reference.

    Concatenates all maximal factors of ``u`` into a separator-delimited text.

    Every pattern occurrence with probability >= tau_min survives as a plain
    substring at an offset mapping back to its original position.  The total
    length is guarded by ``length_cap`` (default 64 * n / tau_min^2).
    """
    if not 0.0 < tau_min <= 1.0:
        raise ValueError(f"tau_min {tau_min!r} not in (0, 1]")
    if length_cap is None:
        length_cap = math.ceil(64 * u.n / (tau_min * tau_min))

    codes: list[int] = []
    pos: list[int] = []
    cum: list[float] = []
    sep = 0
    for start in range(1, u.n + 1):
        windows = _windows(u, tau_min, start)
        for symbols, chain in sorted((s, c) for s, c, maximal in windows if maximal):
            if len(codes) + len(symbols) + 1 > length_cap:
                raise CapacityError(
                    f"transformed text would exceed the length cap {length_cap}"
                    " (raise it via --cap / length_cap)",
                    cap=length_cap,
                )
            codes.extend(map(ord, symbols))
            pos.extend(range(start, start + len(symbols)))
            cum.extend(chain)
            sep += 1
            codes.append(-sep)
            pos.append(0)
            cum.append(-1.0)
    return TransformedText(
        codes=np.asarray(codes, dtype=np.int32),
        pos=np.asarray(pos, dtype=np.int32),
        cum=np.asarray(cum, dtype=np.float64),
        tau_min=tau_min,
        documents=Documents.of((u,)),
    )


def reference_validate(u: UncertainString) -> list[str]:
    """``validate`` as one plain loop over every position and correlation.

    The form ``model._issues`` keeps for the positions its screen flags.  It
    assumes well-typed entries: a non-``str`` symbol or a probability that is
    not a number raises TypeError.
    """
    issues: list[str] = []
    if u.n < 1:
        issues.append("string is empty")
    for k, dist in enumerate(u.positions, start=1):
        if not dist:
            issues.append(f"position {k}: no alternatives")
            continue
        total = 0.0
        for sym, p in dist.items():
            if len(sym) != 1:
                issues.append(f"position {k}: symbol {sym!r} is not a single character")
            if not 0.0 < p <= 1.0:
                issues.append(f"position {k}: probability {p!r} of {sym!r} not in (0, 1]")
            total += p
        if abs(total - 1.0) > SUM_TOLERANCE:
            issues.append(f"position {k}: probabilities sum to {total:.12g}")
    seen_src: set[tuple[int, str]] = set()
    for c in u.correlations:
        tag = f"correlation ({c.src_pos},{c.src_sym!r})"
        if not (1 <= c.src_pos <= u.n) or not (1 <= c.cond_pos <= u.n):
            issues.append(f"{tag}: position out of range")
            continue
        if c.src_pos == c.cond_pos:
            issues.append(f"{tag}: conditions on its own position")
        if c.src_sym not in u.positions[c.src_pos - 1]:
            issues.append(f"{tag}: {c.src_sym!r} absent at position {c.src_pos}")
        if u.positions[c.cond_pos - 1].get(c.cond_sym, 0.0) <= 0.0:
            issues.append(f"{tag}: conditioner {c.cond_sym!r} has no probability at position {c.cond_pos}")
        if not (0.0 <= c.p_plus <= 1.0 and 0.0 <= c.p_minus <= 1.0):
            issues.append(f"{tag}: conditional probabilities not in [0, 1]")
        if (c.src_pos, c.src_sym) in seen_src:
            issues.append(f"{tag}: more than one correlation for this (position, symbol)")
        seen_src.add((c.src_pos, c.src_sym))
    return issues


def reference_alternatives(u: UncertainString, lo: int = 1, hi: int | None = None) -> _Alternatives:
    """``factorize._alternatives`` of positions ``lo..hi`` by one row tuple per alternative, walking the dicts."""
    first = [0]
    rows: list[tuple] = []
    fwd: list[tuple[int, int, int]] = []
    for q in range(lo, (u.n if hi is None else hi) + 1):
        dist = u.positions[q - 1]
        for sym in sorted(dist):
            key = q << _CODE_BITS | ord(sym)
            c = u.by_source.get((q, sym))
            if c is None:
                rows.append((key, dist[sym], dist[sym], 0, 0, 0.0, 0.0))
                continue
            marginal = c.marginal(u.pr(c.cond_pos, c.cond_sym))
            bound = max(marginal, c.p_plus, c.p_minus)
            rows.append((key, marginal, bound, c.cond_pos, ord(c.cond_sym), c.p_plus, c.p_minus))
            if c.cond_pos > q:
                fwd.append((c.cond_pos, q, ord(sym)))
        first.append(len(rows))
    rows.append((1 << 62, 0.0, 0.0, 0, 0, 0.0, 0.0))
    key, m, mb, cond, cond_code, p_plus, p_minus = (np.array(col) for col in zip(*rows))
    fwd_cond, fwd_src, fwd_code = np.array(sorted(fwd), dtype=np.int64).reshape(-1, 3).T
    return _Alternatives(
        np.array(first), key, (key & ((1 << _CODE_BITS) - 1)).astype(np.int32), m, mb,
        cond, cond_code, p_plus, p_minus, fwd_cond, fwd_src, fwd_code,
    )


def reference_prefix_doubling(codes: np.ndarray, rounds: list[np.ndarray] | None = None) -> np.ndarray:
    """``textcore._prefix_doubling`` from one ``argsort`` of the codes, doubling from one code.

    Every round, the first ones included, sorts the groups of more than one
    suffix by ``rank * (n + 1) + rank of the suffix 2^j further``; the last
    of the ``rounds`` ranks every suffix apart.
    """
    n = codes.size
    order = np.argsort(codes)
    rank = np.full(n + 1, -1, dtype=np.int32)
    live, sub, key, k = np.arange(n, dtype=np.int32), order.astype(np.int32), codes[order], 1
    while True:
        head = np.append(True, key[1:] != key[:-1])[: key.size]
        rank[sub] = np.maximum.accumulate(np.where(head, live, 0))
        more = ~(head & np.append(head[1:], True))
        live, sub = live[more], sub[more]
        if rounds is not None:
            rounds.append(rank.copy())
        if not live.size:
            return order
        key = rank[sub].astype(np.int64)
        key *= n + 1
        key += rank[np.minimum(sub, n - k) + k] + 1
        by_key = np.argsort(key)
        order[live] = sub = sub[by_key]
        key = key[by_key]
        k *= 2


def readable_text(tt: TransformedText) -> str:
    """Readable rendering; every separator prints as '$'."""
    return "".join(chr(c) if c >= 0 else "$" for c in tt.codes.tolist())


def maximal_factors(u: UncertainString, tau_min: float, start: int) -> set[MaximalFactor]:
    """Every maximal factor aligned at ``start``: the rows ``_levels`` flags maximal."""
    _check_tau_min(tau_min)
    if not 1 <= start <= u.n:
        raise ValueError(f"start {start} outside [1, {u.n}]")
    found = set()
    words = [""]
    for level in _levels(u, _alternatives(u, _flatten(u.positions)), tau_min, np.array([start])):
        words = [words[p] + chr(c) for p, c in zip(level.parent.tolist(), level.code.tolist())]
        found.update(
            MaximalFactor(start, words[r], float(level.prob[r])) for r in np.flatnonzero(level.maximal).tolist()
        )
    return found


def prefix_probabilities(u: UncertainString, symbols: str, start: int) -> list[float]:
    """Occurrence probability of every prefix of ``symbols`` at ``start``.

    Grows the window with ``_extend``, the rule the transform uses, so entry k
    equals ``occurrence_probability(u, symbols[: k + 1], start)`` bit for bit.
    """
    codes = np.fromiter(map(ord, symbols), dtype=np.int64, count=len(symbols))
    return batch_prefix_probabilities(u, [start], codes, [0], [len(symbols)]).tolist()


def conservation_check(
    u: UncertainString, tau_min: float, tt: TransformedText
) -> tuple[str, int] | None:
    """Exhaustively verify the transform's conservation contract on a small string.

    Returns None when every qualifying (pattern, start) is a prefix of a factor
    aligned at that start, with the stored ``cum`` equal to the model's
    ``occurrence_probability`` bit for bit; otherwise a failing pair, shortest first.
    """
    if u.n > 40:
        raise ValueError("exhaustive conservation check is limited to n <= 40")
    codes = tt.codes.tolist()
    cum = tt.cum.tolist()
    heads: dict[int, list[int]] = {}
    for b in tt.factor_runs()[0].tolist():
        heads.setdefault(int(tt.pos[b]), []).append(b)
    words = [""] * u.n
    for level in _levels(u, _alternatives(u, _flatten(u.positions)), tau_min, np.arange(1, u.n + 1)):
        words = [words[p] + chr(c) for p, c in zip(level.parent.tolist(), level.code.tolist())]
        for r in np.flatnonzero(level.prob >= tau_min).tolist():
            p, start = words[r], int(level.start[r])
            want = list(map(ord, p))
            L = len(want)
            o = next((b for b in heads.get(start, ()) if codes[b : b + L] == want), None)
            if o is None or cum[o + L - 1] != occurrence_probability(u, p, start):
                return p, start
    return None
