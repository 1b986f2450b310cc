"""Maximal-factor transformation of uncertain strings into deterministic text.

A maximal factor at a position is a longest deterministic string aligned
there whose occurrence probability stays at or above the construction floor
tau_min.  Concatenating every factor with unique separators yields a plain
text whose substrings, mapped back through ``pos``, conserve exactly the
pattern occurrences with probability >= tau_min.

A transform reads its input once: ``model._flatten`` turns the string, or
a collection's documents back to back, into flat arrays (alternatives per
position, code, probability).  A numpy screen of them checks what
``validate`` checks, and ``_alternatives`` sorts them into the lookup tables
the growth rule reads, with one loop over the correlations alone.

The windows grow level-synchronously: ``_levels`` holds, for one window
length k at a time, the windows of every start whose optimistic bound still
reaches tau_min, as ``(start, code, prob, bound)`` rows, and extends all of
them by one character in a few numpy steps.  Each row keeps only its last
code and a link to the window it extends (``_Trie``), so a level costs its
row count, not its rows times k.  ``_extend`` is the single copy of the
growth rule.  The ``prob`` of a maximal window's ancestors become its
``cum``.  Those are left-to-right products of the same multiplicands
``model.occurrence_probability`` uses, so threshold comparisons downstream
agree bitwise with the model; the index tables and the long queries of both
index kinds read them straight from ``cum`` at the factor starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError
from .model import (
    Correlation,
    DocumentCollection,
    Documents,
    UncertainString,
    _Flat,
    _first_invalid,
    _flatten,
    occurrence_probability,
)

__all__ = [
    "MaximalFactor",
    "TransformedText",
    "transform",
]

# Symbol codes are code points, below 2**21: (position, code) packs into one int64 key.
_CODE_BITS = 21


@dataclass(frozen=True)
class MaximalFactor:
    """A longest string aligned at ``start`` with occurrence probability >= tau_min."""

    start: int
    symbols: str
    prob: float

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class _Alternatives:
    """Every position's alternatives, sorted by code, as flat arrays.

    Position q owns the alternatives ``first[q - lo] : first[q - lo + 1]``;
    ``key`` packs each one's position and code, ascending.  ``m`` is an
    alternative's multiplicand unless its conditioner lies inside the window
    (the base probability, or a correlated one's marginal) and ``mb`` the
    largest it takes under any window.  A correlated alternative names its
    conditioner in ``cond`` and ``cond_code`` (``cond`` is 0 without one), with
    ``p_plus`` and ``p_minus``.  The ``fwd_*`` arrays list the correlations
    conditioned right of their source, by conditioner position.  A trailing
    sentinel (multiplicands 0, no conditioner) stands for a symbol absent at
    its position.
    """

    first: np.ndarray
    key: np.ndarray
    code: np.ndarray
    m: np.ndarray
    mb: np.ndarray
    cond: np.ndarray
    cond_code: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    fwd_cond: np.ndarray
    fwd_src: np.ndarray
    fwd_code: np.ndarray

    def lookup(self, q: np.ndarray, code: np.ndarray) -> np.ndarray:
        """The alternative spelling ``code`` at position ``q``; the sentinel where there is none."""
        want = q << _CODE_BITS | code
        at = self.key.searchsorted(want)  # the sentinel's key is above every other
        return np.where(self.key[at] == want, at, self.key.size - 1)


def _alternatives(u: UncertainString, flat: _Flat) -> _Alternatives:
    """The alternatives of the positions ``flat`` holds, sorted from its arrays.

    Only the correlated ones are filled in one by one, from ``u.by_source``.
    """
    hi = flat.lo + flat.first.size - 2
    key = flat.pos << _CODE_BITS | flat.code
    by_key = np.argsort(key)
    key = np.append(key[by_key], 1 << 62)
    m = np.append(flat.prob[by_key], 0.0)
    mb, p_plus, p_minus = m.copy(), np.zeros_like(m), np.zeros_like(m)
    cond, cond_code = np.zeros_like(key), np.zeros_like(key)
    corrs = [(q, sym, c) for (q, sym), c in u.by_source.items() if flat.lo <= q <= hi]
    want = np.array([q << _CODE_BITS | ord(sym) for q, sym, _ in corrs], dtype=np.int64)
    at = key.searchsorted(want)  # the sentinel's key is above every other
    rows = [(a, q, sym, c) for a, hit, (q, sym, c) in zip(at.tolist(), (key[at] == want).tolist(), corrs) if hit]
    fwd = sorted((c.cond_pos, q, ord(sym)) for _, q, sym, c in rows if c.cond_pos > q)
    if rows:
        at, marginal, c_pos, c_code, c_plus, c_minus = map(list, zip(
            *((a, c.marginal(u.pr(c.cond_pos, c.cond_sym)), c.cond_pos, ord(c.cond_sym), c.p_plus, c.p_minus)
              for a, _, _, c in rows)
        ))
        m[at] = marginal
        mb[at] = list(map(max, marginal, c_plus, c_minus))
        cond[at], cond_code[at], p_plus[at], p_minus[at] = c_pos, c_code, c_plus, c_minus
    fwd_cond, fwd_src, fwd_code = np.array(fwd, dtype=np.int64).reshape(-1, 3).T
    return _Alternatives(
        flat.first - flat.first[0], key, (key & ((1 << _CODE_BITS) - 1)).astype(np.int32), m, mb,
        cond, cond_code, p_plus, p_minus, fwd_cond, fwd_src, fwd_code,
    )


class _Trie:
    """Windows grown one character per level, linked to the windows they extend.

    Row r of level k (windows of length k + 1) appends ``code[k][r]`` to row
    ``parent[k][r]`` of level k - 1; level 0's parents index the starts.
    """

    def __init__(self) -> None:
        self.parent: list[np.ndarray] = []
        self.code: list[np.ndarray] = []

    def add(self, parent: np.ndarray, code: np.ndarray) -> None:
        self.parent.append(parent)
        self.code.append(code)

    def code_at(self, rows: np.ndarray, off: np.ndarray) -> np.ndarray:
        """The code at 0-based offset ``off[i]`` of window ``rows[i]`` of the deepest level.

        Walks up the parent links no further than the smallest offset.
        """
        out = np.empty(rows.size, dtype=np.int32)
        for k in range(len(self.code) - 1, int(off.min(initial=len(self.code))) - 1, -1):
            here = off == k
            out[here] = self.code[k][rows[here]]
            rows = self.parent[k][rows]
        return out

    def spell(self, rows: np.ndarray) -> np.ndarray:
        """The codes of windows ``rows`` of the deepest level, one row each."""
        out = np.empty((rows.size, len(self.code)), dtype=np.int32)
        for k in reversed(range(len(self.code))):
            out[:, k] = self.code[k][rows]
            rows = self.parent[k][rows]
        return out


def _extend(
    u: UncertainString,
    alts: _Alternatives,
    trie: _Trie,
    start: np.ndarray,
    prob: np.ndarray,
    bound: np.ndarray,
    parent: np.ndarray,
    alt: np.ndarray,
    code: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Grow windows by one character each: the one growth rule.

    Row r of ``start``, ``prob`` and ``bound`` is window r of the deepest
    level of ``trie``, of length k: its start, its exact product and an
    optimistic one.  Child i appends ``code[i]``, alternative ``alt[i]``, to
    window ``parent[i]``, at position q = start + k.  Its multiplicand is, by
    case:

    - uncorrelated: the base probability;
    - conditioner inside the window: ``p_plus`` or ``p_minus``, by the
      window's character there;
    - conditioner outside: the marginal, with ``max(marginal, p_plus,
      p_minus)`` in the bound;
    - q conditions a character already in the window: that earlier
      multiplicand changes, so the child restarts in
      ``occurrence_probability``'s left-to-right order.

    Returns the children's exact and optimistic products.
    """
    s = start[parent]
    q = s + len(trie.code)
    m, mb, cond = alts.m[alt], alts.mb[alt], alts.cond[alt]
    near = np.flatnonzero((cond >= s) & (cond < q))
    if near.size:
        a = alt[near]
        spelled = trie.code_at(parent[near], cond[near] - s[near]) == alts.cond_code[a]
        m[near] = mb[near] = np.where(spelled, alts.p_plus[a], alts.p_minus[a])
    exact = prob[parent] * m

    lo, hi = alts.fwd_cond.searchsorted(q), alts.fwd_cond.searchsorted(q, side="right")
    waiting = np.flatnonzero(hi > lo)
    if waiting.size:
        # every (child, correlation conditioned at q) pair; the child restarts
        # when its window holds that correlation's source
        span = (hi - lo)[waiting]
        child = np.repeat(waiting, span)
        f = np.arange(child.size) + np.repeat(lo[waiting] - (np.cumsum(span) - span), span)
        off = alts.fwd_src[f] - s[child]
        inside = off >= 0
        child, f, off = child[inside], f[inside], off[inside]
        child = np.unique(child[trie.code_at(parent[child], off) == alts.fwd_code[f]])
        for i, window in zip(child.tolist(), trie.spell(parent[child]).tolist()):
            exact[i] = occurrence_probability(u, "".join(map(chr, window)) + chr(code[i]), int(s[i]))
    return exact, bound[parent] * mb


class _Level(NamedTuple):
    """The windows of one length k whose optimistic bound reaches tau_min.

    Row r appends ``code[r]`` to row ``parent[r]`` of the level above (at
    level 1, to the index of its start).  Rows come sorted by (start, codes).
    """

    parent: np.ndarray
    start: np.ndarray
    code: np.ndarray  # the window's last code
    prob: np.ndarray  # the window's occurrence probability
    maximal: np.ndarray  # reaches tau_min and no one-character extension does


def _levels(
    u: UncertainString,
    alts: _Alternatives,
    tau_min: float,
    starts: np.ndarray,
    last: np.ndarray | None = None,
    halt: Callable[[_Level], np.ndarray] | None = None,
) -> Iterator[_Level]:
    """Levels 1, 2, ... of the windows at ``starts``, each grown from the last in one step.

    A window at ``starts[r]`` ends at ``last[r]`` at the latest (default n).
    It is kept while its optimistic bound reaches tau_min, which on
    correlation-free strings is just its product; maximality is checked
    against the actual extensions, so it does not assume that the product
    shrinks as the window grows.  ``halt``, when given, flags the rows of each
    level that grow no further once the level has been consumed.  ``alts``
    holds the alternatives of every position of ``u``.
    """
    count = np.append(np.diff(alts.first), 0)  # alternatives per position; none past the end
    start = np.asarray(starts, dtype=np.int64)
    last = np.full(start.size, u.n) if last is None else last
    trie = _Trie()
    parent = np.arange(start.size)
    prob = bound = np.ones(start.size)
    while start.size:
        k = len(trie.code)
        q = start + k
        n_kids = np.where(q <= last, count[q - 1], 0)
        kid_parent = np.repeat(np.arange(start.size, dtype=np.int32), n_kids)
        alt = np.arange(kid_parent.size) + np.repeat(alts.first[q - 1] - (np.cumsum(n_kids) - n_kids), n_kids)
        code = alts.code[alt]
        exact, grown = _extend(u, alts, trie, start, prob, bound, kid_parent, alt, code)
        grow = grown >= tau_min
        if k:
            extends = np.zeros(start.size, dtype=bool)
            extends[kid_parent[exact >= tau_min]] = True
            level = _Level(parent, start, trie.code[-1], prob, (prob >= tau_min) & ~extends)
            yield level
            if halt is not None:
                grow &= ~halt(level)[kid_parent]
        keep = np.flatnonzero(grow)
        parent = kid_parent[keep]
        trie.add(parent, code[keep])
        start, last = start[parent], last[parent]
        prob, bound = exact[keep], grown[keep]


def _check_tau_min(tau_min: float) -> None:
    if not 0.0 < tau_min <= 1.0:
        raise ValueError(f"tau_min {tau_min!r} not in (0, 1]")


@dataclass(eq=False)
class TransformedText:
    """Concatenated maximal factors with their original positions and prefix probabilities.

    ``pos[i]`` maps a 0-based text offset to its original 1-based position (0
    at separators); ``cum[i]`` is the factor-prefix probability product ending
    at ``i`` (-1 at separators).  ``codes``, ``pos`` and ``doc_factors`` are
    ``int32``, built or loaded.  Each factor is one separator-delimited run of
    the text, so ``factor_table`` is derived from these arrays on demand.  A
    collection's text counts the factors of each document in ``doc_factors``.
    ``documents`` names the strings the text was made from.
    """

    codes: np.ndarray
    pos: np.ndarray
    cum: np.ndarray
    tau_min: float
    documents: Documents | None = None
    doc_factors: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def source(self) -> UncertainString | None:
        """The one string a single-string text was made from, read on first use; None for a collection's."""
        if self.documents is None or self.doc_factors is not None:
            return None
        return self.documents.strings[0]

    def factor_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based ``starts`` and ``ends`` of the factors.

        Factor k spans ``starts[k]:ends[k]``; its separator sits at ``ends[k]``.
        """
        ends = np.flatnonzero(self.codes < 0)
        return np.concatenate(([0], ends[:-1] + 1))[: ends.size], ends

    def doc_of(self) -> np.ndarray:
        """The document (int32) of every text offset, a separator's being its factor's; all 0 for one string."""
        starts, ends = self.factor_runs()
        counts = [ends.size] if self.doc_factors is None else self.doc_factors
        return np.repeat(np.repeat(np.arange(len(counts), dtype=np.int32), counts), ends - starts + 1)

    @property
    def factor_table(self) -> tuple[tuple[int, MaximalFactor], ...]:
        """Each factor paired with its 1-based text offset."""
        starts, ends = self.factor_runs()
        return tuple(
            (b + 1, MaximalFactor(int(self.pos[b]), self.window_text(b, e - b), float(self.cum[e - 1])))
            for b, e in zip(starts.tolist(), ends.tolist())
        )

    @property
    def longest_factor(self) -> int:
        starts, ends = self.factor_runs()
        return int((ends - starts).max(initial=0))

    def window_text(self, offset: int, length: int) -> str:
        """Decode ``length`` characters at 0-based ``offset`` (no separators allowed)."""
        return "".join(map(chr, self.codes[offset : offset + length].tolist()))

    def room(self, offsets: np.ndarray) -> np.ndarray:
        """Characters from each 0-based offset to its factor's separator; 0 at a separator."""
        starts, ends = self.factor_runs()
        return (np.repeat(ends, ends - starts + 1) - np.arange(self.n))[offsets]


def _factor_order(parents: list[np.ndarray], maximal: list[np.ndarray], starts: int) -> list[np.ndarray]:
    """Per level, the rank of each maximal row among all of them by (start, codes).

    Each level's rows are sorted by (start, codes) and every row sits under
    its parent, so the rows form one trie per start and the order wanted is
    their preorder.  One pass deep to shallow counts the maximal rows under
    each row; one pass shallow to deep counts those ahead of it.
    """
    if not maximal:
        return []
    # under[k][r]: maximal rows in the subtree of row r of level k + 1
    under = [is_max.astype(np.int64) for is_max in maximal]
    for k in reversed(range(len(under) - 1)):
        under[k] += np.bincount(parents[k + 1], under[k + 1], under[k].size).astype(np.int64)
    roots = np.bincount(parents[0], under[0], starts).astype(np.int64)
    ahead = np.cumsum(roots) - roots
    own = np.zeros(starts, dtype=np.int64)  # a start is no factor
    ranks = []
    for parent, is_max, sub in zip(parents, maximal, under):
        elder = np.cumsum(sub) - sub
        # ahead of a row: all ahead of its parent, the parent itself, and its elder siblings' subtrees
        ahead = (ahead + own)[parent] + elder - elder[parent.searchsorted(parent)]
        own = is_max.astype(np.int64)
        ranks.append(ahead[is_max])
    return ranks


def _joined(docs: Sequence[UncertainString], positions: tuple[dict[str, float], ...]) -> UncertainString:
    """The documents back to back as one string of ``positions``, each correlation moved with its document."""
    corrs: list[Correlation] = []
    shift = 0
    for d in docs:
        corrs.extend(replace(c, src_pos=c.src_pos + shift, cond_pos=c.cond_pos + shift) for c in d.correlations)
        shift += d.n
    return UncertainString("joined", positions, tuple(corrs))


def transform(
    u: UncertainString | DocumentCollection, tau_min: float, length_cap: int | None = None
) -> TransformedText:
    """Concatenate all maximal factors of ``u`` into a separator-delimited text.

    Every pattern occurrence with probability >= tau_min survives as a plain
    substring at an offset mapping back to its original position.  Factors
    follow in (start, symbols) order, and separator k ends the k-th.  A
    collection's documents follow one another in one frontier: ``pos`` counts
    within each document and ``doc_factors`` holds each one's factor count.

    Each document's text is guarded by ``length_cap`` (default 64 * n /
    tau_min^2), checked level by level: each window reaching tau_min at level
    k leads to its own factor of length at least k, so a text outgrows its cap
    as soon as the factors found so far plus k + 1 codes per such window do.
    Such a document grows no further, and a collection reports the first of
    them in document order, as if its documents were transformed one by one.
    A text of 2**31 codes or more, which int32 offsets cannot address, raises
    CapacityError too.  A negative cap raises ValueError.

    The input is read once, into flat arrays (``model._flatten``): they are
    screened for what ``validate`` faults, and an invalid string, or the first
    invalid document of a collection, raises ValueError with its issues.
    """
    docs = u.docs if isinstance(u, DocumentCollection) else (u,)
    positions = tuple(chain.from_iterable(d.positions for d in docs))
    flat = _flatten(positions)
    invalid = _first_invalid(docs, flat)
    if invalid is not None:
        doc, issues = invalid
        what = f"document {doc.name!r}" if isinstance(u, DocumentCollection) else "uncertain string"
        raise ValueError(f"invalid {what}: " + "; ".join(issues))
    _check_tau_min(tau_min)
    if length_cap is not None and length_cap < 0:
        raise ValueError(f"length cap {length_cap} is negative")
    whole = docs[0] if len(docs) == 1 else _joined(docs, positions)
    sizes = np.array([d.n for d in docs], dtype=np.int64)
    first = np.cumsum(sizes) - sizes  # positions ahead of each document
    caps = np.array(
        [math.ceil(64 * d.n / (tau_min * tau_min)) if length_cap is None else length_cap for d in docs],
        dtype=np.int64,
    )
    doc_at = np.repeat(np.arange(len(docs)), sizes)  # document of each position

    parents: list[np.ndarray] = []
    maximal: list[np.ndarray] = []
    last_codes: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    total = factors = np.zeros(len(docs), dtype=np.int64)
    over = np.zeros(len(docs), dtype=bool)  # documents whose text outgrows their cap; they grow no further
    levels = _levels(
        whole,
        _alternatives(whole, flat),
        tau_min,
        np.arange(1, whole.n + 1),
        (first + sizes)[doc_at],
        lambda level: over[doc_at[level.start - 1]],
    )
    for k, level in enumerate(levels, start=1):
        doc = doc_at[level.start - 1]
        over |= total + np.bincount(doc[level.prob >= tau_min], minlength=len(docs)) * (k + 1) > caps
        # report the first overflowing document once no document ahead of it still grows
        if over.any() and over.argmax() < doc[~over[doc]].min(initial=len(docs)):
            break
        rows = np.flatnonzero(level.maximal)
        per_doc = np.bincount(doc[rows], minlength=len(docs))
        total, factors = total + per_doc * (k + 1), factors + per_doc
        parents.append(level.parent)
        maximal.append(level.maximal)
        last_codes.append(level.code)
        probs.append(level.prob)
    if over.any():
        cap = int(caps[over.argmax()])
        raise CapacityError(
            f"transformed text would exceed the length cap {cap} (raise it via --cap / length_cap)", cap=cap
        )

    ranks = _factor_order(parents, maximal, whole.n)
    lens = np.zeros(int(factors.sum()), dtype=np.int64)
    for k, rank in enumerate(ranks, start=1):
        lens[rank] = k
    ends = np.cumsum(lens + 1) - 1
    heads = ends - lens
    n = int(total.sum())
    if n >= 1 << 31:
        raise CapacityError(f"a transformed text of {n} codes does not fit int32 offsets", cap=(1 << 31) - 1)
    codes = np.empty(n, dtype=np.int32)
    cum = np.full(n, -1.0)
    codes[ends] = -1 - np.arange(lens.size, dtype=np.int32)
    # deep to shallow: every factor of length >= k is spelled at its ancestor on level k
    fac = row = np.zeros(0, dtype=np.int64)
    for k in reversed(range(len(ranks))):
        fac = np.concatenate((fac, ranks[k]))
        row = np.concatenate((row, np.flatnonzero(maximal[k])))
        at = heads[fac] + k
        codes[at] = last_codes[k][row]
        cum[at] = probs[k][row]
        row = parents[k][row]
    start = np.empty(lens.size, dtype=np.int64)
    start[fac] = row + 1  # the level-1 parents index the starts 1..n
    start -= first[doc_at[start - 1]]
    pos = np.repeat((start - heads).astype(np.int32), lens + 1)
    pos += np.arange(n, dtype=np.int32)
    pos[ends] = 0
    doc_factors = factors.astype(np.int32) if isinstance(u, DocumentCollection) else None
    return TransformedText(codes, pos, cum, tau_min, Documents.of(docs), doc_factors)
