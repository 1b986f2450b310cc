"""Maximal-factor transformation of uncertain strings into deterministic text.

A maximal factor at a position is a longest deterministic string aligned
there whose occurrence probability stays at or above the construction floor
tau_min.  Concatenating every factor with unique separators yields a plain
text whose substrings, mapped back through ``pos``, conserve exactly the
pattern occurrences with probability >= tau_min.

One depth-first walk (``_windows``) enumerates the qualifying windows at a
start, growing each by one character through ``_grow``, the single copy of
the growth rule; the factors it flags maximal carry their own prefix
products, which become ``cum``.  All probabilities attached to the text
(``cum`` prefixes, per-depth window values) are left-to-right products of the
same multiplicands ``model.occurrence_probability`` uses, so threshold
comparisons downstream agree bitwise with the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

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

_NEVER = 1 << 60


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
class Annotations:
    """Per-offset multiplicand tables driving vectorized window products.

    ``mult`` is each character's contribution with no in-window conditioning;
    backward conditioning switches it to ``val_back`` for windows long enough
    (``thr_back``); forward conditioning is handled by recompute events keyed
    by window length in ``fwd_events``.
    """

    mult: np.ndarray
    eff_len: np.ndarray
    fstart: np.ndarray
    thr_back: np.ndarray
    val_back: np.ndarray
    factor_corr: np.ndarray
    fwd_events: dict[int, list[int]]


@dataclass(eq=False)
class TransformedText:
    """Concatenated maximal factors with position and probability annotations.

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

    def factor_runs(self) -> list[tuple[int, int]]:
        """Half-open 0-based offsets ``(b, e)`` of every factor; its separator sits at ``e``."""
        ends = np.flatnonzero(self.codes < 0).tolist()
        return list(zip([0] + [e + 1 for e in ends[:-1]], ends))

    @property
    def factor_table(self) -> tuple[tuple[int, MaximalFactor], ...]:
        """Each factor paired with its 1-based text offset."""
        return tuple(
            (b + 1, MaximalFactor(int(self.pos[b]), self.window_text(b, e - b), float(self.cum[e - 1])))
            for b, e in self.factor_runs()
        )

    @property
    def longest_factor(self) -> int:
        return max((e - b for b, e in self.factor_runs()), default=0)

    def window_text(self, offset: int, length: int) -> str:
        """Decode ``length`` characters at 0-based ``offset`` (no separators allowed)."""
        chunk = self.codes[offset : offset + length].tolist()
        return "".join(map(chr, chunk))

    @cached_property
    def annotations(self) -> Annotations:
        if self.source is None:
            raise ValueError("annotations need the source string; collections concatenate per-document ones")
        return build_annotations(self, self.source)


def build_annotations(
    tt: TransformedText,
    u: UncertainString | None = None,
    doc_lookup: Callable[[int], UncertainString] | None = None,
) -> Annotations:
    """Derive the per-offset tables from a transform and its source string(s).

    For a concatenated collection, ``doc_lookup`` maps a factor's text offset
    to the owning document; otherwise ``u`` owns every factor.
    """
    if doc_lookup is None:
        if u is None:
            raise ValueError("either u or doc_lookup is required")
        src = u
        doc_lookup = lambda _o: src
    n = tt.n
    mult = np.zeros(n, dtype=np.float64)
    eff = np.zeros(n, dtype=np.int64)
    fstart = np.arange(n, dtype=np.int64)
    thr = np.full(n, _NEVER, dtype=np.int64)
    val_back = np.zeros(n, dtype=np.float64)
    fcorr = np.zeros(n, dtype=bool)
    events: dict[int, list[int]] = {}

    for o0, end in tt.factor_runs():
        doc = doc_lookup(o0)
        by_source = doc.by_source
        start = int(tt.pos[o0])
        L = end - o0
        symbols = tt.window_text(o0, L)
        any_corr = False
        for t, sym in enumerate(symbols):
            x = o0 + t
            q = start + t
            eff[x] = L - t
            fstart[x] = o0
            corr = by_source.get((q, sym)) if by_source else None
            if corr is None:
                mult[x] = doc.positions[q - 1].get(sym, 0.0)
                continue
            any_corr = True
            mult[x] = corr.marginal(doc.pr(corr.cond_pos, corr.cond_sym))
            j = corr.cond_pos
            if j < q and j >= start:
                thr[x] = (q - j) + 1
                cond_char = symbols[j - start]
                val_back[x] = corr.p_plus if cond_char == corr.cond_sym else corr.p_minus
            elif j > q and j <= start + L - 1:
                xc = x + (j - q)
                for o in range(o0, x + 1):
                    events.setdefault(xc - o + 1, []).append(o)
        if any_corr:
            fcorr[o0 : o0 + L] = True
    return Annotations(mult, eff, fstart, thr, val_back, fcorr, events)


def depth_values(
    ann: Annotations,
    window_value: Callable[[int, int], float],
    max_depth: int,
) -> Iterator[np.ndarray]:
    """Yield V_1 .. V_max_depth where V_i[o] is the window product at offset ``o``, length ``i``.

    Entries are 0 where the window would cross a separator, so every depth
    past the text length yields all zeros.  ``window_value`` recomputes a
    single window exactly when a forward conditioner enters it.
    """
    n = len(ann.mult)
    v = np.where(ann.eff_len >= 1, ann.mult, 0.0)
    yield v
    for i in range(2, max_depth + 1):
        keep = max(n - i + 1, 0)
        prev = v
        v = np.zeros(n, dtype=np.float64)
        tail = slice(i - 1, None)
        m = np.where(ann.thr_back[tail] <= i, ann.val_back[tail], ann.mult[tail])
        v[:keep] = prev[:keep] * m
        v[ann.eff_len < i] = 0.0
        for o in ann.fwd_events.get(i, ()):
            if o < keep and ann.eff_len[o] >= i:
                v[o] = window_value(o, i)
        yield v


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
    for b, _ in tt.factor_runs():
        heads.setdefault(int(tt.pos[b]), []).append(b)
    for start in range(1, u.n + 1):
        for p, _, _ in _windows(u, tau_min, start):
            want = [ord(c) for c in p]
            L = len(want)
            o = next((b for b in heads.get(start, ()) if codes[b : b + L] == want), None)
            if o is None or cum[o + L - 1] != occurrence_probability(u, p, start):
                return p, start
    return None
