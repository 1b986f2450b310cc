"""Character-level uncertain strings and their probability arithmetic.

An uncertain string assigns every position a discrete distribution over
characters.  A deterministic string drawn position by position is a possible
world; the probability of a pattern occurring at a start position is the
product of the per-character probabilities over the aligned window, with
pairwise correlations corrected as documented on ``occurrence_probability``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError

__all__ = [
    "Correlation",
    "DocumentCollection",
    "Documents",
    "UncertainString",
    "enumerate_worlds",
    "occurrence_probability",
    "validate",
]

SUM_TOLERANCE = 1e-9

# The screen's sum tolerance, a hair tighter than SUM_TOLERANCE.  ``np.bincount``
# adds a position's probabilities in the loop's order, so the two sums agree bit
# for bit; the hair keeps the screen's flags a superset of the loop's regardless.
_SCREEN_TOLERANCE = SUM_TOLERANCE - 1e-12

# Exhaustive world enumeration is refused beyond this length unless a
# positive floor bounds the output.
WORLD_GUARD = 12


@dataclass(frozen=True)
class Correlation:
    """Dependence of one character choice on the character at another position.

    ``p_plus`` replaces the base probability of ``src_sym`` at ``src_pos``
    when position ``cond_pos`` takes ``cond_sym``; ``p_minus`` applies when it
    takes anything else.
    """

    src_pos: int
    src_sym: str
    cond_pos: int
    cond_sym: str
    p_plus: float
    p_minus: float

    def marginal(self, pr_cond: float) -> float:
        """Unconditional probability of ``src_sym`` given the conditioner's base probability."""
        return pr_cond * self.p_plus + (1.0 - pr_cond) * self.p_minus


@dataclass(frozen=True)
class UncertainString:
    """A sequence of per-position character distributions, optionally correlated.

    ``positions`` maps each 1-based position to a dict of character to
    probability.  The dicts are treated as immutable; entries must be positive
    and sum to 1 per position (see ``validate``).
    """

    name: str
    positions: tuple[dict[str, float], ...]
    correlations: tuple[Correlation, ...] = ()

    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def by_source(self) -> dict[tuple[int, str], Correlation]:
        """Correlation lookup keyed by (src_pos, src_sym); first one wins on duplicates."""
        out: dict[tuple[int, str], Correlation] = {}
        for c in self.correlations:
            out.setdefault((c.src_pos, c.src_sym), c)
        return out

    def pr(self, pos: int, sym: str) -> float:
        """Base probability of ``sym`` at 1-based ``pos`` (0 when absent)."""
        return self.positions[pos - 1].get(sym, 0.0)


@dataclass(frozen=True)
class DocumentCollection:
    """An ordered collection of uniquely named uncertain strings."""

    docs: tuple[UncertainString, ...]

    def __post_init__(self) -> None:
        names = [d.name for d in self.docs]
        if len(set(names)) != len(names):
            raise ValueError("document names must be unique")

    def __len__(self) -> int:
        return len(self.docs)


class Documents:
    """The strings an index was made from: names and lengths at hand, the strings on first read.

    A built index holds the strings themselves (``Documents.of``).  A loaded
    one holds the stored UST ``text`` and ``read``, which parses it the first
    time ``strings`` is read; no query reads more than names and lengths.
    """

    def __init__(
        self,
        names: Sequence[str],
        lengths: Sequence[int],
        read: Callable[[], Sequence[UncertainString]],
        text: str | None = None,
    ):
        self.names = tuple(names)
        self.lengths = tuple(lengths)
        self.text = text
        self._read = read

    @classmethod
    def of(cls, strings: Sequence[UncertainString]) -> Documents:
        strings = tuple(strings)
        return cls([u.name for u in strings], [u.n for u in strings], lambda: strings)

    @cached_property
    def strings(self) -> tuple[UncertainString, ...]:
        return tuple(self._read())


class _Flat(NamedTuple):
    """Positions ``lo..`` of a string as flat arrays, one entry per alternative in dict order.

    Position ``lo + i`` owns entries ``first[i] : first[i + 1]``.  ``pos`` holds
    each entry's 1-based position, ``code`` its symbol's code point (-1 for a
    symbol that is not a single character) and ``prob`` its probability.  When
    some probability is not a plain float, each one that is not a real number
    in (0, 1] reads NaN: ``np.fromiter`` alone would take ``'1.0'`` for 1.0.
    """

    lo: int
    first: np.ndarray
    pos: np.ndarray
    code: np.ndarray
    prob: np.ndarray


def _flatten(dists: Sequence[dict], lo: int = 1) -> _Flat:
    """The alternatives of the positions ``dists``, the first of them at ``lo``, read from their dicts in one pass."""
    count = np.fromiter(map(len, dists), dtype=np.int64, count=len(dists))
    first = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=first[1:])
    syms = list(chain.from_iterable(dists))
    probs = list(chain.from_iterable(map(dict.values, dists)))
    try:
        text = "".join(syms)
    except TypeError:
        text = ""
    if len(text) == len(syms) and "" not in syms:  # every symbol is one character
        code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32).astype(np.int64)
    else:
        code = np.fromiter((ord(s) if _symbol(s) else -1 for s in syms), dtype=np.int64, count=len(syms))
    if set(map(type, probs)) <= {float}:
        prob = np.fromiter(probs, dtype=np.float64, count=len(probs))
    else:
        prob = np.fromiter(
            (float(p) if _real(p) is not None and 0 < p <= 1 else math.nan for p in probs),
            dtype=np.float64,
            count=len(probs),
        )
    return _Flat(lo, first, np.repeat(np.arange(lo, lo + count.size), count), code, prob)


def _symbol(sym) -> bool:
    return isinstance(sym, str) and len(sym) == 1


def _real(p) -> float | None:
    """``p`` as a float, or None when it is not a real number within the float range."""
    if isinstance(p, numbers.Real):
        try:
            return float(p)
        except OverflowError:
            pass
    return None


def _suspects(flat: _Flat) -> np.ndarray:
    """Ascending 1-based positions of ``flat`` where ``_issues`` may find a fault.

    A superset of the positions it faults: no alternatives, a symbol that is
    not a single character, a probability outside (0, 1] or of the wrong type,
    or a sum off 1 by the screen's tolerance.
    """
    at, n = flat.pos - flat.lo, flat.first.size - 1
    with np.errstate(invalid="ignore"):
        off = ~(np.abs(np.bincount(at, weights=flat.prob, minlength=n) - 1.0) <= _SCREEN_TOLERANCE)
        bad = (flat.code < 0) | ~((flat.prob > 0.0) & (flat.prob <= 1.0))
    off[flat.first[:-1] == flat.first[1:]] = True
    off[at[bad]] = True
    return np.flatnonzero(off) + flat.lo


def _issues(u: UncertainString, suspects: Sequence[int]) -> list[str]:
    """``validate``'s messages: the positions ``suspects`` checked one by one, then every correlation."""
    issues: list[str] = []
    if u.n < 1:
        issues.append("string is empty")
    for k in suspects:
        dist = u.positions[k - 1]
        if not dist:
            issues.append(f"position {k}: no alternatives")
            continue
        total, typed = 0.0, True
        for sym, p in dist.items():
            if not _symbol(sym):
                issues.append(f"position {k}: symbol {sym!r} is not a single character")
            value = _real(p)
            if value is None:
                issues.append(f"position {k}: probability {p!r} of {sym!r} is not a real number")
                typed = False
                continue
            if not 0.0 < p <= 1.0:
                issues.append(f"position {k}: probability {p!r} of {sym!r} not in (0, 1]")
            total += value
        if typed and abs(total - 1.0) > SUM_TOLERANCE:
            issues.append(f"position {k}: probabilities sum to {total:.12g}")
    seen_src: set[tuple[int, str]] = set()
    for c in u.correlations:
        tag = f"correlation ({c.src_pos},{c.src_sym!r})"
        if not (
            all(isinstance(x, numbers.Integral) for x in (c.src_pos, c.cond_pos))
            and all(isinstance(x, str) for x in (c.src_sym, c.cond_sym))
            and all(isinstance(x, numbers.Real) for x in (c.p_plus, c.p_minus))
        ):
            issues.append(f"{tag}: a field has the wrong type")
            continue
        if not (1 <= c.src_pos <= u.n) or not (1 <= c.cond_pos <= u.n):
            issues.append(f"{tag}: position out of range")
            continue
        if c.src_pos == c.cond_pos:
            issues.append(f"{tag}: conditions on its own position")
        if c.src_sym not in u.positions[c.src_pos - 1]:
            issues.append(f"{tag}: {c.src_sym!r} absent at position {c.src_pos}")
        pr_cond = u.positions[c.cond_pos - 1].get(c.cond_sym, 0.0)
        if isinstance(pr_cond, numbers.Real) and pr_cond <= 0.0:
            issues.append(f"{tag}: conditioner {c.cond_sym!r} has no probability at position {c.cond_pos}")
        if not (0.0 <= c.p_plus <= 1.0 and 0.0 <= c.p_minus <= 1.0):
            issues.append(f"{tag}: conditional probabilities not in [0, 1]")
        if (c.src_pos, c.src_sym) in seen_src:
            issues.append(f"{tag}: more than one correlation for this (position, symbol)")
        seen_src.add((c.src_pos, c.src_sym))
    return issues


def validate(u: UncertainString) -> list[str]:
    """Check the structural invariants of ``u``; an empty list means valid.

    Each violation names the position or correlation it concerns.  A numpy
    screen of the flat arrays (``_flatten``) picks the positions to check one
    by one; correlations are checked one by one.
    """
    return _issues(u, _suspects(_flatten(u.positions)).tolist())


def _first_invalid(docs: Sequence[UncertainString], flat: _Flat) -> tuple[UncertainString, list[str]] | None:
    """The first of ``docs`` that ``validate`` faults, with its issues; None when all pass.

    ``flat`` holds the documents' positions back to back, and one screen of it
    picks the positions to check in every document.
    """
    suspects = _suspects(flat)
    ahead = np.cumsum([0] + [d.n for d in docs])
    cut = np.searchsorted(suspects, ahead, side="right").tolist()
    for k, d in enumerate(docs):
        if cut[k] < cut[k + 1] or d.correlations or not d.n:
            issues = _issues(d, (suspects[cut[k] : cut[k + 1]] - ahead[k]).tolist())
            if issues:
                return d, issues
    return None


def occurrence_probability(u: UncertainString, p: str, start: int) -> float:
    """Probability that the window of ``u`` starting at ``start`` spells ``p``.

    The result is the left-to-right product of per-character probabilities.
    A correlated character contributes ``p_plus`` or ``p_minus`` when its
    conditioning position falls inside the window (chosen by the window's
    character there) and the marginalized value otherwise.  Characters absent
    from their position contribute 0.
    """
    if start < 1 or start + len(p) - 1 > u.n:
        raise ValueError(f"window [{start}, {start + len(p) - 1}] outside string of length {u.n}")
    end = start + len(p) - 1
    by_source = u.by_source
    prob = 1.0
    for i, sym in enumerate(p):
        q = start + i
        corr = by_source.get((q, sym)) if by_source else None
        if corr is None:
            m = u.positions[q - 1].get(sym, 0.0)
        elif start <= corr.cond_pos <= end:
            m = corr.p_plus if p[corr.cond_pos - start] == corr.cond_sym else corr.p_minus
        else:
            m = corr.marginal(u.pr(corr.cond_pos, corr.cond_sym))
        if m == 0.0:
            return 0.0
        prob *= m
    return prob


def _optimistic(u: UncertainString, pos: int, sym: str) -> float:
    """Upper bound on the multiplicand of (pos, sym) under any window."""
    corr = u.by_source.get((pos, sym))
    if corr is None:
        return u.positions[pos - 1].get(sym, 0.0)
    return max(corr.p_plus, corr.p_minus, corr.marginal(u.pr(corr.cond_pos, corr.cond_sym)))


def enumerate_worlds(u: UncertainString, floor: float = 0.0) -> list[tuple[str, float]]:
    """All full-length worlds with probability >= ``floor``, lexicographically sorted.

    Requires ``floor > 0`` or ``n <= 12``; otherwise the output is potentially
    exponential and a CapacityError is raised.
    """
    if not (floor > 0.0 or u.n <= WORLD_GUARD):
        raise CapacityError(
            f"world enumeration needs floor > 0 for strings longer than {WORLD_GUARD} (n = {u.n})"
        )
    # suffix_bound[i] bounds the contribution of positions i+1..n
    suffix_bound = [1.0] * (u.n + 1)
    for q in range(u.n, 0, -1):
        best = max(_optimistic(u, q, sym) for sym in u.positions[q - 1])
        suffix_bound[q - 1] = best * suffix_bound[q]

    out: list[tuple[str, float]] = []
    # depth-first; symbols are pushed in reverse so they pop in distribution order
    stack = [(1, 1.0, "")]
    while stack:
        q, bound, world = stack.pop()
        if q > u.n:
            prob = occurrence_probability(u, world, 1)
            if prob > 0.0 and prob >= floor:
                out.append((world, prob))
            continue
        for sym in reversed(u.positions[q - 1]):
            b = bound * _optimistic(u, q, sym)
            if b * suffix_bound[q] >= floor:
                stack.append((q + 1, b, world + sym))
    out.sort(key=lambda wp: wp[0])
    return out
