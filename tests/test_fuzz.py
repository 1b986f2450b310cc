"""Mutated UST text, parsed and built: only typed errors come out, never a traceback."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from ustrindex import CapacityError, ParseError, build_container, parse_ust, serialize_ust

from helpers import random_ustring

# token replacements: bad floats, out-of-range and odd symbols, bad integers
PROBABILITIES = ("nan", "NaN", "inf", "-inf", "1e309", "-1e309", "-0.5", "0", "1.5", "1e-320", "0.5.5", "", "0x1p-1")
SYMBOLS = ("ab", "é", "\U0001F600", "", ":", "#", "\x00", "$")
INTEGERS = ("0", "-1", "99", "1.5", "x", "9" * 30)


def _source(rng: random.Random) -> str:
    """One or two small correlated strings as UST text."""
    docs = [
        random_ustring(rng, n=rng.randint(2, 12), correlation_rate=0.5, name=f"d{k}")
        for k in range(rng.choice((1, 1, 2)))
    ]
    return serialize_ust(docs)


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        toks = lines[k].split()
        what = rng.random()
        if what < 0.15:
            return "\n".join(lines)[: rng.randrange(len(text))]  # truncation
        if what < 0.25:
            lines.insert(k, rng.choice(lines))  # a repeated line
        elif what < 0.3:
            del lines[k]
        elif what < 0.4:
            lines[k] = f"corr {rng.choice(INTEGERS)} a {rng.choice(INTEGERS)} b {rng.choice(PROBABILITIES)} 0.5"
        elif toks and toks[0] == "pos" and len(toks) > 1:
            i = rng.randrange(1, len(toks))
            sym, _, prob = toks[i].partition(":")
            if rng.random() < 0.5:
                prob = rng.choice(PROBABILITIES)
            else:
                sym = rng.choice(SYMBOLS)
            toks[i] = f"{sym}:{prob}"
            lines[k] = " ".join(toks)
        elif toks and toks[0] == "corr" and len(toks) == 7:
            i = rng.randrange(1, 7)
            toks[i] = rng.choice((INTEGERS, SYMBOLS, SYMBOLS, INTEGERS, PROBABILITIES, PROBABILITIES)[i - 1])
            lines[k] = " ".join(toks)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_mutated_ust_text_ends_in_a_typed_error(seed):
    rng = random.Random(seed)
    text = _mutate(rng, _source(rng))
    try:
        docs = parse_ust(text)
    except ParseError:
        return
    try:
        build_container(docs, rng.choice((0.1, 0.3)), epsilon=rng.choice((None, 0.05)) if len(docs) == 1 else None)
    except (ValueError, CapacityError):
        pass
