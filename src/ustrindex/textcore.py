"""Suffix arrays with pattern search, a suffix-tree view, and range-max queries.

Text is a sequence of integer codes.  Alphabet characters map to their code
points; separator sentinels are the negative integers, each occurring at most
once, so they sort below every character and no common prefix ever spans one.
Slots (positions in suffix-array order) and text positions are 1-based in the
public API; ``sa[k - 1]`` is the suffix at slot ``k``.  Patterns are located
by binary search over a byte encoding of the text, so comparisons run in C.
The LCP array is computed on first read, which only index builds do.
``SparseDepth`` is the one format of a sparse short table: the nonzero
entries of a per-length table in slot order, which ``rmq_report`` reports
block by block.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "RmqIndex",
    "SparseDepth",
    "SuffixArrayIndex",
    "TreeView",
    "build_suffix_array",
    "encode_pattern",
    "locus",
    "rmq_build",
    "rmq_query",
    "rmq_report",
    "suffix_range",
]


def _encode_text(text) -> np.ndarray:
    if isinstance(text, str):
        return np.fromiter((ord(c) for c in text), dtype=np.int64, count=len(text))
    return np.asarray(text, dtype=np.int64)


def encode_pattern(p) -> np.ndarray:
    """Pattern characters as code points; separators are not encodable."""
    codes = _encode_text(p)
    if codes.size and codes.min() < 0:
        raise ValueError("patterns cannot contain separator codes")
    return codes


@dataclass(eq=False)
class SuffixArrayIndex:
    """Sorted suffixes of an integer-coded text with LCP information.

    ``sa`` holds 1-based text positions in suffix order, ``inverse_sa`` maps a
    text position to its slot, and ``lcp[k - 1]`` is the common-prefix length
    of the suffixes at slots ``k - 1`` and ``k`` (``lcp[0] == 0``).
    """

    codes: np.ndarray
    sa: np.ndarray
    inverse_sa: np.ndarray

    @property
    def n(self) -> int:
        return len(self.codes)

    @cached_property
    def lcp(self) -> np.ndarray:
        """The LCP array by Kasai's algorithm, built on first read: builds read it, loads never do."""
        n = self.n
        # Kasai over plain lists; numpy scalar indexing is slower here.
        lcp = [0] * n
        text_l = self.codes.tolist()
        sa_l = (self.sa - 1).tolist()
        inv_l = (self.inverse_sa - 1).tolist()
        h = 0
        for i in range(n):
            slot = inv_l[i]
            if slot > 0:
                j = sa_l[slot - 1]
                while i + h < n and j + h < n and text_l[i + h] == text_l[j + h]:
                    h += 1
                lcp[slot] = h
                if h:
                    h -= 1
            else:
                h = 0
        return np.asarray(lcp, dtype=np.int64)

    @cached_property
    def byte_text(self) -> bytes:
        """The codes as order-preserving big-endian 4-byte words, built on first search."""
        return _byte_words(self.codes)

    @cached_property
    def sa_view(self) -> memoryview:
        """0-based suffix starts in slot order, indexable without a list of n ints."""
        return memoryview(self.sa - 1)


# Shifts every code into uint32 so that separators (negative) sort below
# letters (code points); codes must lie in [-_OFFSET, _OFFSET).
_OFFSET = 1 << 31


def _byte_words(codes: np.ndarray) -> bytes:
    return (codes + _OFFSET).astype(">u4").tobytes()


def _pattern_key(p) -> bytes | None:
    """``p`` in the text's byte encoding; None when it holds a code no text holds."""
    if isinstance(p, str):
        # code points stay below 2**24, so adding _OFFSET only sets each word's top bit
        key = bytearray(p.encode("utf-32-be", "surrogatepass"))
        key[::4] = b"\x80" * len(p)
        return bytes(key)
    pattern = encode_pattern(p)
    return None if pattern.max() >= _OFFSET else _byte_words(pattern)


def build_suffix_array(text) -> SuffixArrayIndex:
    """Sort all suffixes of ``text`` by prefix doubling; the LCP array follows on first read."""
    codes = _encode_text(text)
    n = len(codes)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return SuffixArrayIndex(codes, empty.copy(), empty.copy())

    rank = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    order = np.argsort(rank, kind="stable")
    k = 1
    while rank[order[-1]] != n - 1:
        second = np.zeros(n, dtype=np.int64)
        second[: n - k] = rank[k:] + 1
        order = np.lexsort((second, rank))
        changed = (rank[order[1:]] != rank[order[:-1]]) | (second[order[1:]] != second[order[:-1]])
        fresh = np.empty(n, dtype=np.int64)
        fresh[order[0]] = 0
        fresh[order[1:]] = np.cumsum(changed)
        rank = fresh
        k *= 2

    inv0 = np.empty(n, dtype=np.int64)
    inv0[order] = np.arange(n)
    return SuffixArrayIndex(codes, order + 1, inv0 + 1)


def suffix_range(idx: SuffixArrayIndex, p) -> tuple[int, int] | None:
    """Maximal slot range [sp, ep] of suffixes prefixed by ``p``; None when absent.

    Binary search over bytes: a suffix's first ``len(p)`` codes, encoded as
    order-preserving big-endian words, compare against the pattern's encoding
    in C.  A suffix shorter than the pattern is a proper prefix of its key and
    sorts below it.
    """
    if len(p) == 0:
        raise ValueError("pattern is empty")
    key = _pattern_key(p)
    if key is None:
        return None
    width = len(key)
    text = idx.byte_text
    order = idx.sa_view

    def prefix(s: int) -> bytes:
        return text[4 * s : 4 * s + width]

    first = bisect_left(order, key, key=prefix)
    last = bisect_right(order, key, lo=first, key=prefix)
    if first == last:
        return None
    return first + 1, last


class TreeView:
    """Suffix-tree topology derived from the LCP array.

    Nodes are identified by 0-based preorder id.  A node's subtree is the
    contiguous preorder interval [pre, subtree_end[pre]]; leaves carry their
    full suffix length as string depth.  No index reads it: approximate
    links work on LCP intervals of the suffix array instead.
    """

    def __init__(self, saidx: SuffixArrayIndex):
        self.saidx = saidx
        n = saidx.n
        if n == 0:
            self.parent = np.zeros(0, dtype=np.int64)
            self.depth = np.zeros(0, dtype=np.int64)
            self.sp = np.zeros(0, dtype=np.int64)
            self.ep = np.zeros(0, dtype=np.int64)
            self.subtree_end = np.zeros(0, dtype=np.int64)
            self.leaf_pre = np.zeros(0, dtype=np.int64)
            self.range_of = {}
            return

        lcp = saidx.lcp.tolist()
        sa = saidx.sa.tolist()
        # Nodes under construction: [depth, sp, ep, children]; leaves are
        # emitted closed.  Stack holds the open path from the root.
        root = [0, 1, 0, []]
        stack = [root]
        stack.append([n - sa[0] + 1, 1, 1, []])
        for k in range(2, n + 1):
            h = lcp[k - 1]
            last = None
            while stack[-1][0] > h:
                top = stack.pop()
                top[2] = k - 1
                if last is not None:
                    top[3].append(last)
                last = top
            if stack[-1][0] == h:
                if last is not None:
                    stack[-1][3].append(last)
            else:
                mid = [h, last[1], 0, [last]]
                stack.append(mid)
            stack.append([n - sa[k - 1] + 1, k, k, []])
        last = None
        while len(stack) > 1:
            top = stack.pop()
            top[2] = n
            if last is not None:
                top[3].append(last)
            last = top
        root[2] = n
        if last is not None:
            root[3].append(last)

        count = 2 * n  # upper bound on node count, root included
        parent = np.zeros(count, dtype=np.int64)
        depth = np.zeros(count, dtype=np.int64)
        sp = np.zeros(count, dtype=np.int64)
        ep = np.zeros(count, dtype=np.int64)
        subtree_end = np.zeros(count, dtype=np.int64)
        leaf_pre = np.zeros(n, dtype=np.int64)
        range_of: dict[tuple[int, int], int] = {}

        pre = 0
        todo = [(root, -1)]
        while todo:
            node, par = todo.pop()
            if node is None:
                # close marker: par is the preorder id whose subtree just ended
                subtree_end[par] = pre - 1
                continue
            me = pre
            pre += 1
            parent[me] = par
            depth[me] = node[0]
            sp[me] = node[1]
            ep[me] = node[2]
            # deepest node wins for a shared range (only the root chain can share)
            range_of[(node[1], node[2])] = me
            if node[3]:
                todo.append((None, me))
                for ch in reversed(node[3]):
                    todo.append((ch, me))
            else:
                subtree_end[me] = me
                leaf_pre[node[1] - 1] = me

        self.parent = parent[:pre]
        self.depth = depth[:pre]
        self.sp = sp[:pre]
        self.ep = ep[:pre]
        self.subtree_end = subtree_end[:pre]
        self.leaf_pre = leaf_pre
        self.range_of = range_of

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def is_ancestor(self, a: int, b: int) -> bool:
        """Whether node ``a`` is an ancestor of or equal to node ``b`` (preorder ids)."""
        return a <= b <= self.subtree_end[a]


def locus(tree: TreeView, p) -> int | None:
    """Preorder id of the shallowest node whose range is the suffix range of ``p``."""
    rng = suffix_range(tree.saidx, p)
    if rng is None:
        return None
    node = tree.range_of[rng]
    # The stored node is the deepest with this range; walk up while the
    # parent still covers the pattern (only the unary root chain qualifies).
    m = len(p)
    while True:
        par = tree.parent[node]
        if par < 0 or tree.depth[par] < m or (tree.sp[par], tree.ep[par]) != rng:
            return node
        node = par


_BLOCK = 64


@dataclass(eq=False)
class RmqIndex:
    """Argmax-over-range structure: block argmaxes plus a sparse table on blocks.

    Ties resolve to the smallest index at every level.
    """

    values: np.ndarray
    _block_pos: np.ndarray = field(repr=False)
    _table: list[np.ndarray] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.values)


def rmq_build(values) -> RmqIndex:
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n == 0:
        return RmqIndex(v, np.zeros(0, dtype=np.int64), [])
    nb = (n + _BLOCK - 1) // _BLOCK
    padded = np.full(nb * _BLOCK, -np.inf)
    padded[:n] = v
    grid = padded.reshape(nb, _BLOCK)
    block_pos = grid.argmax(axis=1) + np.arange(nb) * _BLOCK

    table = [block_pos]
    span = 1
    while 2 * span <= nb:
        prev = table[-1]
        left = prev[: nb - 2 * span + 1]
        right = prev[span : nb - span + 1]
        # >= keeps the left (smaller-index) argmax on ties
        table.append(np.where(v[left] >= v[right], left, right))
        span *= 2
    return RmqIndex(v, block_pos, table)


def rmq_query(rmq: RmqIndex, l: int, r: int) -> int:
    """1-based index of the maximum of values[l..r], smallest index on ties."""
    if not 1 <= l <= r <= rmq.n:
        raise ValueError(f"range [{l}, {r}] invalid for {rmq.n} values")
    v = rmq.values
    l0, r0 = l - 1, r - 1
    bl, br = l0 // _BLOCK, r0 // _BLOCK
    if bl == br:
        return l0 + int(v[l0 : r0 + 1].argmax()) + 1

    best = l0 + int(v[l0 : (bl + 1) * _BLOCK].argmax())
    if br - bl > 1:
        level = (br - bl - 1).bit_length() - 1
        tab = rmq._table[level]
        a = int(tab[bl + 1])
        b = int(tab[br - (1 << level)])
        mid = a if (v[a], -a) >= (v[b], -b) else b
        if v[mid] > v[best]:
            best = mid
    tail = br * _BLOCK + int(v[br * _BLOCK : r0 + 1].argmax())
    if v[tail] > v[best]:
        best = tail
    return best + 1


def rmq_report(rmq: RmqIndex, l: int, r: int, tau: float, stats) -> np.ndarray:
    """1-based indices in [l, r] whose value is at least ``tau``, ascending.

    Threshold recursion on range maxima (Muthukrishnan's reporting scheme) at
    block granularity: a probe whose maximum reaches ``tau`` reports the whole
    block holding it, clipped to the range, with one vectorized comparison,
    then both sides recurse.  Each such probe reports at least one index, so
    probes stay within 2 * hits + 1.  ``stats.rmq_calls`` counts the probes
    and ``stats.slots_scanned`` the entries compared inside blocks.
    """
    v = rmq.values
    found: list[np.ndarray] = []
    todo = [(l, r)]
    while todo:
        l, r = todo.pop()
        if l > r:
            continue
        stats.rmq_calls += 1
        if (l - 1) // _BLOCK == (r - 1) // _BLOCK:
            # the range is its own clipped block: one comparison probes and reports
            stats.slots_scanned += r - l + 1
            hits = (v[l - 1 : r] >= tau).nonzero()[0]
            if hits.size:
                found.append(hits + l)
            continue
        j = rmq_query(rmq, l, r) - 1
        if v[j] < tau:
            continue
        lo = max(l - 1, j - j % _BLOCK)
        hi = min(r, j - j % _BLOCK + _BLOCK)
        stats.slots_scanned += hi - lo
        found.append((v[lo:hi] >= tau).nonzero()[0] + (lo + 1))
        todo.append((l, lo))
        todo.append((hi + 1, r))
    if len(found) == 1:
        return found[0]
    found.sort(key=lambda hits: hits[0])
    return np.concatenate(found) if found else np.zeros(0, dtype=np.int64)


@dataclass(eq=False)
class SparseDepth:
    """The nonzero entries of one short depth, in slot order.

    ``slots`` holds strictly increasing 1-based suffix-array slots as
    ``int32``; ``rmq`` is built over their values, one per slot.  A depth
    without entries holds two empty arrays.
    """

    slots: np.ndarray
    rmq: RmqIndex

    def report(self, sp: int, ep: int, tau: float, stats) -> np.ndarray:
        """0-based entry indices with a slot in [sp, ep] and a value of at least ``tau``."""
        # entries before slot sp and before slot ep + 1; an int32 needle spares a cast of slots
        l, r = self.slots.searchsorted(np.array((sp, ep + 1), dtype=np.int32)).tolist()
        return rmq_report(self.rmq, l + 1, r, tau, stats) - 1
