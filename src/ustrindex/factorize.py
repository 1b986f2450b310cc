"""Maximal-factor transformation of uncertain strings into deterministic text.

A maximal factor at a position is a longest deterministic string aligned
there whose occurrence probability stays at or above the construction floor
tau_min.  Concatenating every factor with unique separators yields a plain
text whose substrings, mapped back through ``pos``, conserve exactly the
pattern occurrences with probability >= tau_min.

One depth-first walk (``_windows``) enumerates the qualifying windows at a
start, growing each by one character through ``_grow``, the single copy of
the growth rule; the factors it flags maximal carry their own prefix
products, which become ``cum``.  Those are left-to-right products of the
same multiplicands ``model.occurrence_probability`` uses, so threshold
comparisons downstream agree bitwise with the model; the index tables and
the long queries of both index kinds read them straight from ``cum`` at the
factor starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError
from .model import UncertainString, occurrence_probability

__all__ = [
    "MaximalFactor",
    "TransformedText",
    "conservation_check",
    "maximal_factors",
    "prefix_probabilities",
    "transform",
]


@dataclass(frozen=True)
class MaximalFactor:
    """A longest string aligned at ``start`` with occurrence probability >= tau_min."""

    start: int
    symbols: str
    prob: float

    def __len__(self) -> int:
        return len(self.symbols)


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
    """Grow the window at ``start`` by ``sym`` at position ``q``: the one growth rule.

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


def maximal_factors(u: UncertainString, tau_min: float, start: int) -> set[MaximalFactor]:
    """Every maximal factor aligned at ``start``: the windows ``_windows`` flags maximal."""
    if not 0.0 < tau_min <= 1.0:
        raise ValueError(f"tau_min {tau_min!r} not in (0, 1]")
    if not 1 <= start <= u.n:
        raise ValueError(f"start {start} outside [1, {u.n}]")
    return {
        MaximalFactor(start, symbols, chain[-1])
        for symbols, chain, maximal in _windows(u, tau_min, start)
        if maximal
    }


def prefix_probabilities(u: UncertainString, symbols: str, start: int) -> list[float]:
    """Occurrence probability of every prefix of ``symbols`` at ``start``.

    Grows the window with ``_grow``, the rule the factor walk uses, so entry
    k equals ``occurrence_probability(u, symbols[: k + 1], start)`` bit for bit.
    """
    probs: list[float] = []
    prob = bound = 1.0
    pending: frozenset[int] = frozenset()
    for q, sym in enumerate(symbols, start):
        prob, bound, pending = _grow(u, start, q, symbols, sym, prob, bound, pending)
        probs.append(prob)
    return probs


@dataclass(eq=False)
class TransformedText:
    """Concatenated maximal factors with their original positions and prefix probabilities.

    ``pos[i]`` maps a 0-based text offset to its original 1-based position (0
    at separators); ``cum[i]`` is the factor-prefix probability product ending
    at ``i`` (-1 at separators).  Each factor is one separator-delimited run of
    the text, so ``factor_table`` is derived from these arrays on demand.
    """

    codes: np.ndarray
    pos: np.ndarray
    cum: np.ndarray
    tau_min: float
    source: UncertainString | None = None

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def text(self) -> str:
        """Readable rendering; every separator prints as '$'."""
        return "".join(chr(c) if c >= 0 else "$" for c in self.codes.tolist())

    def factor_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based ``starts`` and ``ends`` of the factors.

        Factor k spans ``starts[k]:ends[k]``; its separator sits at ``ends[k]``.
        """
        ends = np.flatnonzero(self.codes < 0)
        return np.concatenate(([0], ends[:-1] + 1))[: ends.size], ends

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
        chunk = self.codes[offset : offset + length].tolist()
        return "".join(map(chr, chunk))

    def room(self, offsets: np.ndarray) -> np.ndarray:
        """Characters from each 0-based offset to its factor's separator; 0 at a separator."""
        ends = self.factor_runs()[1]
        return ends[np.searchsorted(ends, offsets)] - offsets


def transform(u: UncertainString, tau_min: float, length_cap: int | None = None) -> TransformedText:
    """Concatenate all maximal factors of ``u`` into a separator-delimited text.

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
        codes=np.asarray(codes, dtype=np.int64),
        pos=np.asarray(pos, dtype=np.int64),
        cum=np.asarray(cum, dtype=np.float64),
        tau_min=tau_min,
        source=u,
    )


def conservation_check(
    u: UncertainString, tau_min: float, tt: TransformedText
) -> tuple[str, int] | None:
    """Exhaustively verify the transform's conservation contract on a small string.

    Returns None when every qualifying (pattern, start) is a prefix of a factor
    aligned at that start, with the stored ``cum`` equal to the model's
    ``occurrence_probability`` bit for bit; otherwise the first failing pair.
    """
    if u.n > 40:
        raise ValueError("exhaustive conservation check is limited to n <= 40")
    codes = tt.codes.tolist()
    cum = tt.cum.tolist()
    heads: dict[int, list[int]] = {}
    for b in tt.factor_runs()[0].tolist():
        heads.setdefault(int(tt.pos[b]), []).append(b)
    for start in range(1, u.n + 1):
        for p, _, _ in _windows(u, tau_min, start):
            want = [ord(c) for c in p]
            L = len(want)
            o = next((b for b in heads.get(start, ()) if codes[b : b + L] == want), None)
            if o is None or cum[o + L - 1] != occurrence_probability(u, p, start):
                return p, start
    return None
