"""Sparse suffix arrays with pattern search, a suffix-tree view, and range-max queries.

Text is a sequence of ``int32`` codes.  Alphabet characters map to their
code points; separator sentinels are the negative integers, each occurring at
most once, so they sort below every character and no common prefix ever spans
one.  A ``SuffixArrayIndex`` orders a chosen set of suffixes (a sparse
suffix array; Kärkkäinen and Ukkonen, COCOON 1996), all of them or, in every
index, the factor starts alone, as ``int32`` like the codes.
Ranks (positions in that order) and text positions are 1-based in the
public API; ``sa[k - 1]`` is the suffix at rank ``k``.  Patterns are located
by ``bisect`` over a ``memoryview`` of each rank's packed first letters (a
prefix table, after Manber and Myers); a pattern longer than those letters
is then bisected inside their range over a byte encoding of the text.  All
comparisons run in C, and a str pattern makes no numpy call.
``build_suffix_array`` sorts all suffixes by prefix doubling, starting from
one sort of each offset's first letters packed into a ``uint64``
(``_pack_letters``, which packs the search keys too), or only some of them
by those keys, re-sorting the tied groups on the keys further on
(``_sort_starts``); it keeps no LCP array.  Loads never sort: they accept a
stored order of the factors after the linear check of
``check_factor_order``.  The ranks of the full sort's rounds give the LCP of
any two suffixes by binary lifting (``_lift``): a link build sorts every
suffix to keep them for the pairs it reads, and a read of ``lcp``, which no
build, load or query makes, sorts every suffix again.
``SparseDepth`` is the one format of a sparse short table: the nonzero
entries of a per-length table in rank order, which ``rmq_report`` reports
block by block, each with the label a query reports it under; a range inside
one block is compared entry by entry in a plain loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ContainerError

__all__ = [
    "RmqIndex",
    "SparseDepth",
    "SuffixArrayIndex",
    "TreeView",
    "build_suffix_array",
    "check_factor_order",
    "locus",
    "rmq_build",
    "rmq_query",
    "rmq_report",
    "suffix_range",
]


def _encode_text(text) -> np.ndarray:
    """``text`` as ``int32`` codes: an ``int32`` array as it is, anything else converted.

    A text of 2**31 codes or more raises CapacityError before any conversion.
    """
    if len(text) >= 1 << 31:
        raise CapacityError(f"a text of {len(text)} codes does not fit int32 offsets and ranks", cap=(1 << 31) - 1)
    if isinstance(text, str):
        return np.fromiter(map(ord, text), dtype=np.int32, count=len(text))
    return np.asarray(text, dtype=np.int32)


@dataclass(eq=False)
class SuffixArrayIndex:
    """Sorted suffixes of an integer-coded text: all of them, or a chosen set.

    ``sa`` holds 1-based text positions in suffix order (``int32``, like
    ``codes``, when built or checked), and ``lcp[k - 1]``
    is the common-prefix length of the suffixes at ranks ``k - 1`` and ``k``
    (``lcp[0] == 0``).
    """

    codes: np.ndarray
    sa: np.ndarray

    @property
    def n(self) -> int:
        return len(self.codes)

    @cached_property
    def lcp(self) -> np.ndarray:
        """The LCP array, lifted on first read from the ranks of a rerun sort; no build, load or query reads it."""
        _prefix_doubling(self.codes, rounds := [])
        lcp = np.zeros(self.sa.size, dtype=np.int64)
        lcp[1:] = _lift(rounds, self.sa[:-1] - 1, self.sa[1:] - 1)
        return lcp

    @cached_property
    def byte_text(self) -> bytes:
        """The codes as order-preserving big-endian 4-byte words, built on first search."""
        return _byte_words(self.codes)

    @cached_property
    def byte_starts(self) -> memoryview:
        """Each rank's suffix start in ``byte_text``, narrowest unsigned; indexable without a list of ints."""
        starts = (self.sa - 1).astype(np.min_scalar_type(4 * self.n))
        starts *= 4  # in a dtype that holds 4 * n, where int32 would wrap from n = 2**29 on
        return memoryview(starts)

    @cached_property
    def prefix_keys(self) -> tuple[memoryview, dict, int]:
        """Each rank's packed first letters (a ``memoryview`` for ``bisect``), each letter's rank, bits per letter.

        Built on first search by ``_pack_letters``: ``32 // bits`` letters to a
        ``uint32``, first letter highest, 0 at a separator and past the end of
        the text.  Keys cut at their first 0 field ascend with their ranks, and
        ``suffix_range`` compares no further.  Ranks are keyed by code, and by
        character too below 0x110000.
        """
        packed = _pack_letters(self.codes, np.uint32)
        rank_of = dict(zip(packed.alphabet.tolist(), range(1, packed.alphabet.size + 1)))
        rank_of |= {chr(c): r for c, r in rank_of.items() if c < 0x110000}
        return memoryview(packed.keys[self.sa - 1]), rank_of, packed.bits


class _Packed(NamedTuple):
    """Each text offset's first ``per`` letters in one key (``_pack_letters``)."""

    keys: np.ndarray
    bits: int  # per letter
    per: int  # letters per key
    low: int  # bits below the letters: the tie field
    alphabet: np.ndarray  # the letters' codes, ascending: letter rank r is alphabet[r - 1]


def _pack_letters(codes: np.ndarray, dtype: type, ties: bool = False) -> _Packed:
    """Each text offset's first letters packed into one unsigned ``dtype`` key, first letter highest.

    A letter packs as its 1-based rank among the text's letters in ``bits =
    (number of letters).bit_length()`` bits; a stop and every field past the
    end of the text pack as 0.  Without ``ties`` (``prefix_keys``) the stops
    are the separators (negative codes), letters fill the key, and the fields
    after a stop keep their letters: a search compares a key only up to its
    first 0 field.  With them (the suffix sort) the stops are the codes below
    every code that occurs twice, each of which occurs once: every separator
    of a transformed text.  Every field after a stop then packs as 0, and
    letters take the largest power of two of fields that leaves ``low =
    (number of stops).bit_length()`` bits below them, for a tie field: the
    stop's order by code, or 0 for none or for the end of the text, and keys
    compare as the suffixes' first ``per`` codes.
    """
    n = codes.size
    base = min(int(codes.min(initial=0)), 0)
    at = np.subtract(codes, base, dtype=np.int64)  # nonnegative, for bincount; int32 codes minus -n may pass 2**31
    count = np.bincount(at)
    repeats = np.flatnonzero(count > 1)
    # codes below ``cut`` are stops
    cut = (int(repeats[0]) if repeats.size else count.size) if ties else min(-base, count.size)
    is_letter = count[cut:] > 0
    alphabet = np.flatnonzero(is_letter) + cut + base
    bits = max(alphabet.size, 1).bit_length()
    low = int(np.count_nonzero(count[:cut])).bit_length() if ties else 0
    per = (8 * np.dtype(dtype).itemsize - low) // bits
    if ties:
        per = 1 << (per.bit_length() - 1)
    lut = np.zeros(count.size, dtype=dtype)
    lut[cut:] = np.cumsum(is_letter)
    # key[i]: the ranks of the w letters from offset i; padded past the end so each step keeps n entries
    key = np.zeros(n + 2 * per, dtype=dtype)
    key[:n] = lut[at]
    w = 1
    while w < per:
        step = min(w, per - w)
        more = key[w:] >> dtype(bits * (w - step))  # the first ``step`` letters of the key w letters further
        key = key[: key.size - w]
        key <<= dtype(bits * step)
        key |= more
        w += step
    key = key[:n]
    if not ties:
        return _Packed(key, bits, per, low, alphabet)
    stops = np.flatnonzero(at < cut)
    lut[:cut] = np.cumsum(count[:cut] > 0)
    order = lut[at[stops]]
    tie = np.zeros(n, dtype=dtype)
    # a stop t letters on zeroes the fields from its own on and, the nearest writing last, names the tie
    for t in reversed(range(per)):
        first = np.searchsorted(stops, t)
        before = stops[first:] - t
        key[before] &= dtype(((1 << bits * per) - 1) ^ ((1 << bits * (per - t)) - 1))
        tie[before] = order[first:]
    key <<= dtype(low)
    key |= tie
    return _Packed(key, bits, per, low, alphabet)


# Shifts every code into uint32 so that separators (negative) sort below
# letters (code points); codes must lie in [-_OFFSET, _OFFSET).
_OFFSET = 1 << 31


def _byte_words(codes: np.ndarray) -> bytes:
    words = codes.astype(np.int64)  # widened: the shifted codes reach 2**32 - 1
    words += _OFFSET
    return words.astype(">u4").tobytes()


def _pair_key(major: np.ndarray, minor, n: int) -> np.ndarray:
    """``major * (n + 1) + minor`` in int64: ascending as the pairs are, for ``-1 <= minor <= n``.

    Exact for ``|major| < 2**31`` and ``n < 2**31``, so int32 inputs are widened before the product.
    """
    key = major.astype(np.int64)
    key *= n + 1
    key += minor
    return key


# Pairs per step of the lift: bounds its temporaries.
_LIFT_BLOCK = 1 << 15


def _prefix_doubling(codes: np.ndarray, rounds: list[np.ndarray] | None = None) -> np.ndarray:
    """0-based suffix order of ``codes``; a ``rounds`` list receives every round's ranks, for ``_lift``.

    Manber and Myers: round j ranks every suffix by its first 2^j codes, as
    the first slot of the suffixes sharing them, until all ranks differ.  One
    ``argsort`` of each offset's packed first w codes (``_pack_letters``)
    ranks them all at once, where round j = log2 w would.  The rounds before
    it are read off that order, with no sort: a round's groups are the runs
    of equal keys cut to their first 2^j letters, except that a cut key whose
    last letter is 0 is alone: its first 2^j codes hold a stop, which no
    other suffix holds, or reach the end of the text.  Each later round
    sorts only the groups of more than one suffix, by ``argsort`` of
    ``rank * (n + 1) + rank of the suffix 2^j further`` (Larsson and
    Sadakane).  Without ``rounds`` only the current ranks (int32) are kept;
    with them, the last one kept ranks every suffix apart, at its slot.  The
    order is ``int32`` too.
    """
    n = codes.size
    packed = _pack_letters(codes, np.uint64, ties=True)
    order = np.argsort(packed.keys).astype(np.int32)
    key = packed.keys[order]
    # rank[i]: the first slot of the suffixes sharing suffix i's first 2^j codes; rank[n] = -1, the empty suffix
    rank = np.full(n + 1, -1, dtype=np.int32)
    # live: the ascending slots of groups of more than one suffix, sub: their suffixes; int32 like the ranks
    live, sub, k = np.arange(n, dtype=np.int32), order.copy(), packed.per
    if rounds is not None:
        for j in range(k.bit_length() - 1):
            cut = key >> np.uint64(packed.low + packed.bits * (k - (1 << j)))
            head = np.append(True, cut[1:] != cut[:-1])[:n] | ((cut & np.uint64((1 << packed.bits) - 1)) == 0)
            if head.all():
                break
            rank[sub] = np.maximum.accumulate(np.where(head, live, 0))
            rounds.append(rank.copy())
    while True:
        head = np.append(True, key[1:] != key[:-1])[: key.size]
        rank[sub] = np.maximum.accumulate(np.where(head, live, 0))
        more = ~(head & np.append(head[1:], True))
        live, sub = live[more], sub[more]
        if not live.size:
            if rounds is not None:
                rounds.append(rank)  # all apart: each suffix's own 0-based slot
            return order
        if rounds is not None:
            rounds.append(rank.copy())
        key = _pair_key(rank[sub], rank[np.minimum(sub, n - k) + k] + 1, n)
        by_key = np.argsort(key)
        order[live] = sub = sub[by_key]  # one gather at a time: the peak holds one new array
        key = key[by_key]
        del by_key
        k *= 2


def _lift(rounds: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LCP of the suffixes at each pair of 0-based offsets ``a != b``, from ``_prefix_doubling``'s ``rounds``.

    Binary lifting top down: add 2^j while ``rounds[j][a + h] == rounds[j][b + h]``,
    in O(pairs * rounds); two different suffixes share fewer than
    ``2 ** len(rounds)`` codes, as the last round, or the one after it, ranks all apart.
    """
    h = np.zeros(a.size, dtype=np.int64)
    for lo in range(0, a.size, _LIFT_BLOCK):
        part = slice(lo, lo + _LIFT_BLOCK)
        aa, bb, hh = a[part], b[part], h[part]
        for j in reversed(range(len(rounds))):
            hh += (rounds[j][aa + hh] == rounds[j][bb + hh]) << j
    return h


def _sort_starts(codes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The distinct 0-based offsets ``starts`` in the order of their suffixes, as ``int32``.

    One ``argsort`` of their packed first ``per`` codes (``_pack_letters``
    with ties) orders them up to ties; each round then re-sorts only the
    groups of equal keys, on the key ``per`` codes further on, as
    ``_prefix_doubling`` re-sorts only its live groups.  Equal keys hold
    letters alone, so the key further on lies inside the text or at its end,
    which packs as 0.  The work is one key per offset plus one per ``per``
    codes that tied offsets share: for factor starts, whose suffixes each
    reach their own separator, at most the factors' total length over
    ``per``.
    """
    packed = _pack_letters(codes, np.uint64, ties=True)
    keys = np.append(packed.keys, np.uint64(0))  # keys[n]: the end of the text
    order = np.asarray(starts, dtype=np.int32)
    order = order[np.argsort(keys[order])]
    key, group = keys[order], np.zeros(order.size, dtype=np.int32)
    # live: the positions in order of the offsets still tied; all share their first ``near`` codes
    live, near = np.arange(order.size), 0
    while True:
        head = np.append(True, (key[1:] != key[:-1]) | (group[1:] != group[:-1]))[: key.size]
        tied = ~(head & np.append(head[1:], True))
        live = live[tied]
        if not live.size:
            return order
        group = np.cumsum(head)[tied]
        near += packed.per
        key = keys[order[live] + near]
        by_key = np.lexsort((key, group))
        order[live] = order[live][by_key]
        key, group = key[by_key], group[by_key]


def build_suffix_array(text, *, starts=None) -> SuffixArrayIndex:
    """Sort the suffixes of ``text`` that begin at the 0-based offsets ``starts``, every suffix for None.

    Every suffix sorts by prefix doubling (``_prefix_doubling``), a chosen
    set alone by its keys (``_sort_starts``).
    """
    codes = _encode_text(text)
    sa = _prefix_doubling(codes) if starts is None else _sort_starts(codes, starts)
    sa += 1
    return SuffixArrayIndex(codes, sa)


def check_factor_order(codes: np.ndarray, starts: np.ndarray, order: np.ndarray) -> SuffixArrayIndex:
    """Accept ``order``, factor ids in suffix order, as the order of the factors of ``codes``, or raise ContainerError.

    ``starts`` holds each factor's 0-based offset in text order, and id k
    names the k-th of them.  The ids must be a permutation of 0..F-1, and
    every two consecutive factors must strictly ascend when their codes are
    compared up to and including the first separator, which compares by its
    code: distinct factors end at distinct separators, so a comparison
    decides there at the latest, and only the true order passes.  A round
    compares one code of every pair still tied, and from the eighth code on
    as many codes as the pairs have shared so far, so the work stays within
    twice the codes the pairs share plus eight per pair, in a few rounds
    even where factors share thousands of codes.  Returns the index over the
    factor starts in that order.
    """
    f = starts.size
    if order.shape != (f,) or (f and int(order.max()) >= f) or np.any(np.bincount(order, minlength=f) != 1):
        raise ContainerError(f"the stored order is not a permutation of the {f} factor ids")
    sa = starts[order].astype(np.int32)
    # the offsets of each consecutive pair still tied after ``near`` codes, which are letters
    a, b, near = sa[:-1], sa[1:], 0
    while a.size:
        width = 1 if near < 8 else near
        if width == 1:
            ca, cb = codes[a + near], codes[b + near]
            decided = ca != cb
            ca, cb = ca[decided], cb[decided]
        else:
            # reads clipped at the end of the text lie past the first difference, which decides
            ahead = np.arange(near, near + width)
            ca = codes[np.minimum(a[:, None] + ahead, codes.size - 1)]
            cb = codes[np.minimum(b[:, None] + ahead, codes.size - 1)]
            differ = ca != cb
            decided = differ.any(axis=1)
            rows = np.flatnonzero(decided)
            at = differ.argmax(axis=1)[rows]
            ca, cb = ca[rows, at], cb[rows, at]
        if np.any(ca > cb):
            raise ContainerError("the stored order does not sort the factors of the text")
        a, b = a[~decided], b[~decided]
        near += width
    sa += 1
    return SuffixArrayIndex(codes, sa)


def suffix_range(idx: SuffixArrayIndex, p) -> tuple[int, int] | None:
    """Maximal rank range [sp, ep] of the suffixes in ``idx`` prefixed by ``p``; None when absent.

    Two ``bisect`` calls over the ranks' packed keys (``idx.prefix_keys``)
    find the ranks whose keys start with ``p``'s first letters, which is the
    answer for a ``p`` no longer than a key: ``p`` has no 0 field, so each
    comparison is decided by a key's fields up to its first 0.  A longer ``p``
    is bisected further inside that range over bytes: a suffix's first
    ``len(p)`` codes, as order-preserving big-endian words, compare against
    ``p``'s in C, and a suffix shorter than ``p`` is a proper prefix of its
    key, so below it.
    """
    keys, rank_of, bits = idx.prefix_keys
    m = len(p)
    if not m:
        raise ValueError("pattern is empty")
    if not isinstance(p, str):
        p = [int(c) for c in p]
        if min(p) < 0:
            raise ValueError("patterns cannot contain separator codes")
        if not all(c in rank_of for c in p):
            return None  # a code that the text does not hold; so every code fits its byte word
    per, head = 32 // bits, 0
    try:
        for c in p[:per]:  # a str's later letters need no rank: no suffix holds one the text lacks
            head = head << bits | rank_of[c]
    except KeyError:
        return None  # a letter that the text does not hold
    free = bits * (per - m) if m < per else 0
    # keys in [head << free, ((head + 1) << free) - 1] start with the pattern's first letters
    first = bisect_left(keys, head << free)
    last = bisect_right(keys, ((head + 1) << free) - 1, first)
    if m > per and first < last:
        if isinstance(p, str):
            # code points stay below 2**24, so adding _OFFSET only sets each word's top bit
            key = bytearray(p.encode("utf-32-be", "surrogatepass"))
            key[::4] = b"\x80" * m
            key = bytes(key)
        else:
            key = _byte_words(np.array(p, dtype=np.int64))
        text, width, starts = idx.byte_text, 4 * m, idx.byte_starts

        def prefix(b: int) -> bytes:
            return text[b : b + width]

        first = bisect_left(starts, key, first, last, key=prefix)
        last = bisect_right(starts, key, first, last, key=prefix)
    if first == last:
        return None
    return first + 1, last


class TreeView:
    """Suffix-tree topology derived from the LCP array.

    Nodes are identified by 0-based preorder id.  A node's subtree is the
    contiguous preorder interval [pre, subtree_end[pre]]; leaves carry their
    full suffix length as string depth.  No index reads it: approximate
    links work on LCP intervals of the suffix array instead.  It needs the
    order of every suffix: a sparse one raises ValueError.
    """

    def __init__(self, saidx: SuffixArrayIndex):
        self.saidx = saidx
        n = saidx.n
        if saidx.sa.size != n:
            raise ValueError(f"a suffix-tree view needs all {n} suffixes in order, not {saidx.sa.size}")
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
    _table: list[np.ndarray] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.values)


def rmq_build(values) -> RmqIndex:
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n == 0:
        return RmqIndex(v, [])
    nb = (n + _BLOCK - 1) // _BLOCK
    padded = np.full(nb * _BLOCK, -np.inf)
    padded[:n] = v
    grid = padded.reshape(nb, _BLOCK)
    table = [grid.argmax(axis=1) + np.arange(nb) * _BLOCK]
    span = 1
    while 2 * span <= nb:
        prev = table[-1]
        left = prev[: nb - 2 * span + 1]
        right = prev[span : nb - span + 1]
        # >= keeps the left (smaller-index) argmax on ties
        table.append(np.where(v[left] >= v[right], left, right))
        span *= 2
    return RmqIndex(v, table)


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
    """The nonzero entries of one short depth, in rank order.

    ``slots`` holds strictly increasing 1-based ranks in the index's order of
    the factor starts as ``int32``; ``rmq`` is built over their values, one
    per rank.  ``labels`` (``int32``) names what each entry reports: the
    original position (substring index) or the document (listing index) of
    the factor start at its rank.  A depth without entries holds empty arrays.  Nothing of it is
    stored: ``qindex._FactorStarts.short_table`` builds it the first time a
    query of its length reads it.
    """

    slots: np.ndarray
    rmq: RmqIndex
    labels: np.ndarray

    @cached_property
    def views(self) -> tuple[memoryview, memoryview, memoryview]:
        """``memoryview``s of the slots, values and labels, which queries index one entry at a time."""
        return memoryview(self.slots), memoryview(self.rmq.values), memoryview(self.labels)

    def report(self, sp: int, ep: int, tau: float, stats) -> list[int] | np.ndarray:
        """0-based indices of the entries with a rank in [sp, ep] and a value of at least ``tau``, ascending.

        Entries bounded by ``bisect`` inside one ``_BLOCK``-entry block make
        ``rmq_report``'s one-block probe as a plain loop, with the same counts,
        and come back as a list; wider ranges go to ``rmq_report``, an array.
        """
        slots, values, _ = self.views
        l = bisect_left(slots, sp)
        r = bisect_right(slots, ep, l)  # the entries in range are l .. r - 1
        if l == r:
            return []
        if l // _BLOCK != (r - 1) // _BLOCK:
            return rmq_report(self.rmq, l + 1, r, tau, stats) - 1
        stats.rmq_calls += 1
        stats.slots_scanned += r - l
        return [k for k in range(l, r) if values[k] >= tau]
