"""Maximal-factor transformation of uncertain strings into deterministic text.

A maximal factor at a position is a longest deterministic string aligned
there whose occurrence probability stays at or above the construction floor
tau_min.  Concatenating every factor with unique separators yields a plain
text whose substrings, mapped back through ``pos``, conserve exactly the
pattern occurrences with probability >= tau_min.

All probabilities attached to the text (``cum`` prefixes, per-depth window
values) are left-to-right products of the same multiplicands
``model.occurrence_probability`` uses, so threshold comparisons downstream
agree bitwise with the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

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


def _extend(
    u: UncertainString,
    start: int,
    chars: list[str],
    prob: float,
    bound: float,
    sym: str,
) -> tuple[float, float]:
    """Exact and optimistic products after appending ``sym`` to the window."""
    q = start + len(chars)
    by_source = u.by_source
    corr = by_source.get((q, sym)) if by_source else None
    if corr is None:
        m = u.positions[q - 1].get(sym, 0.0)
        mb = m
    elif start <= corr.cond_pos < q:
        m = corr.p_plus if chars[corr.cond_pos - start] == corr.cond_sym else corr.p_minus
        mb = m
    else:
        m = corr.marginal(u.pr(corr.cond_pos, corr.cond_sym))
        mb = max(m, corr.p_plus, corr.p_minus)
    if by_source and any(
        (cr := by_source.get((start + t, c))) is not None and cr.cond_pos == q
        for t, c in enumerate(chars)
    ):
        # the new character conditions an earlier one: restart the product
        exact = occurrence_probability(u, "".join(chars) + sym, start)
    else:
        exact = prob * m
    return exact, bound * mb


def maximal_factors(u: UncertainString, tau_min: float, start: int) -> set[MaximalFactor]:
    """Every maximal factor aligned at ``start``.

    Depth-first enumeration; branches are cut once an optimistic completion
    bound falls below tau_min, which on correlation-free strings is just the
    running product.  Maximality is checked against the actual one-character
    extensions, so it does not assume the product shrinks monotonically.
    """
    if not 0.0 < tau_min <= 1.0:
        raise ValueError(f"tau_min {tau_min!r} not in (0, 1]")
    if not 1 <= start <= u.n:
        raise ValueError(f"start {start} outside [1, {u.n}]")

    out: set[MaximalFactor] = set()
    chars: list[str] = []
    # frame: [exact, bound, child iterator, saw a qualifying extension]
    frames: list[list] = [[1.0, 1.0, iter(u.positions[start - 1].items()), False]]
    while frames:
        fr = frames[-1]
        descended = False
        for sym, _ in fr[2]:
            exact, bound = _extend(u, start, chars, fr[0], fr[1], sym)
            if exact >= tau_min:
                fr[3] = True
            if bound >= tau_min:
                chars.append(sym)
                q = start + len(chars)
                nxt = iter(u.positions[q - 1].items()) if q <= u.n else iter(())
                frames.append([exact, bound, nxt, False])
                descended = True
                break
        if descended:
            continue
        frames.pop()
        if chars:
            if fr[0] >= tau_min and not fr[3]:
                out.add(MaximalFactor(start, "".join(chars), fr[0]))
            chars.pop()
    assert len(out) == len({f.symbols for f in out})
    return out


def prefix_probabilities(u: UncertainString, symbols: str, start: int) -> list[float]:
    """Occurrence probability of every prefix of ``symbols`` at ``start``.

    Equals ``occurrence_probability(u, symbols[:k], start)`` bit for bit: the
    product grows on the right, and when a newly added character is the
    conditioner of an earlier one the affected prefix is recomputed from
    scratch in the same left-to-right order.
    """
    by_source = u.by_source
    probs: list[float] = []
    running = 1.0
    pending: set[int] = set()
    for t, sym in enumerate(symbols):
        q = start + t
        if q in pending:
            pending.discard(q)
            running = occurrence_probability(u, symbols[: t + 1], start)
        else:
            corr = by_source.get((q, sym)) if by_source else None
            if corr is None:
                m = u.positions[q - 1].get(sym, 0.0)
            elif start <= corr.cond_pos < q:
                m = corr.p_plus if symbols[corr.cond_pos - start] == corr.cond_sym else corr.p_minus
            else:
                m = corr.marginal(u.pr(corr.cond_pos, corr.cond_sym))
            running = running * m
        corr = by_source.get((q, sym)) if by_source else None
        if corr is not None and corr.cond_pos > q:
            pending.add(corr.cond_pos)
        probs.append(running)
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
    """Yield V_1, V_2, ... where V_i[o] is the window product at offset ``o``, length ``i``.

    Entries are 0 where the window would cross a separator.  ``window_value``
    recomputes a single window exactly when a forward conditioner enters it.
    """
    n = len(ann.mult)
    v = np.where(ann.eff_len >= 1, ann.mult, 0.0)
    yield v
    for i in range(2, max_depth + 1):
        keep = n - i + 1
        if keep <= 0:
            return
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
        for fac in sorted(maximal_factors(u, tau_min, start), key=lambda f: f.symbols):
            if len(codes) + len(fac.symbols) + 1 > length_cap:
                raise CapacityError(
                    f"transformed text would exceed the length cap {length_cap}"
                    " (raise it via --cap / length_cap)",
                    cap=length_cap,
                )
            codes.extend(ord(c) for c in fac.symbols)
            pos.extend(range(start, start + len(fac.symbols)))
            cum.extend(prefix_probabilities(u, fac.symbols, start))
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


def _qualifying_windows(u: UncertainString, tau_min: float) -> Iterator[tuple[str, int, float]]:
    """All (pattern, start, prob) with occurrence probability >= tau_min."""
    for start in range(1, u.n + 1):
        chars: list[str] = []
        frames: list[list] = [[1.0, 1.0, iter(u.positions[start - 1].items())]]
        while frames:
            fr = frames[-1]
            descended = False
            for sym, _ in fr[2]:
                exact, bound = _extend(u, start, chars, fr[0], fr[1], sym)
                if bound >= tau_min:
                    if exact >= tau_min:
                        yield "".join(chars) + sym, start, exact
                    chars.append(sym)
                    q = start + len(chars)
                    nxt = iter(u.positions[q - 1].items()) if q <= u.n else iter(())
                    frames.append([exact, bound, nxt])
                    descended = True
                    break
            if descended:
                continue
            frames.pop()
            if chars:
                chars.pop()


def conservation_check(
    u: UncertainString, tau_min: float, tt: TransformedText
) -> tuple[str, int] | None:
    """Exhaustively verify the transform's conservation contract on a small string.

    Returns None when every qualifying (pattern, start) appears in the text at
    an offset mapping back to its start with the same window product, or the
    first missing pair otherwise.
    """
    if u.n > 40:
        raise ValueError("exhaustive conservation check is limited to n <= 40")
    codes = tt.codes.tolist()
    pos = tt.pos.tolist()
    n = tt.n
    for p, start, prob in _qualifying_windows(u, tau_min):
        want = [ord(c) for c in p]
        L = len(want)
        found = False
        for o in range(0, n - L + 1):
            if pos[o] == start and codes[o : o + L] == want:
                found = True
                break
        if not found:
            return p, start
        chain = prefix_probabilities(u, p, start)
        if chain[-1] != prob:
            return p, start
    return None
