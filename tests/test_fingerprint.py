"""Every answer pinned: a committed SHA-256 of the answers on four seeded inputs.

The inputs have the shapes of the four benchmark workloads at their tiny
size (short search, long correlated search, a 100-document listing, and
epsilon links).  Each index, built and then saved and loaded, answers a
fixed pattern list at tau_min and 1.5 * tau_min.  The sorted answers, each
value as ``float.hex``, hash to one digest per workload, and the totals of
the ``QueryStats`` counters to a second one, so a change of work shows up
apart from a change of answers.

A digest changes only with an answer (or counter) change that the oracle
confirms, and CHANGES.md names the reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import NamedTuple

import pytest

from ustrindex import (
    GenConfig,
    approx_items,
    build_container,
    generate,
    generate_collection,
    list_items,
    list_with_stats,
    load_container,
    occurrence_probability,
    query_items,
    query_with_stats,
    sample_world,
    save_container,
)

LETTERS = "abcdefgh"
PATTERNS = 48


class Shape(NamedTuple):
    n: int
    theta: float
    tau_min: float
    m_lo: int
    m_hi: int
    correlation_rate: float = 0.0
    docs: int = 0
    metric: str | None = None
    epsilon: float | None = None
    likely: bool = False  # every other pattern a window of the most likely world that occurs above tau_min


SHAPES = {
    "short-search": Shape(400, 0.2, 0.3, 1, 8),
    "long-search": Shape(1500, 0.2, 0.2, 20, 40, correlation_rate=0.3, likely=True),
    "listing": Shape(1200, 0.2, 0.3, 1, 8, docs=100, metric="or"),
    "approx": Shape(300, 0.2, 0.2, 1, 8, epsilon=0.05),
}

# (answers, QueryStats totals) per workload, from the code at the commit that added this test
DIGESTS = {
    "short-search": (
        "09ebd6602e7a38aa02bac44b495e3200e258dcc4f514c0c26851828db44e562a",
        "bd8e14dc1dfe71bd8400a96087041494f48a6ed91d24fe1c374b9853adf6863f",
    ),
    "long-search": (
        "898b56272556650066180cb28d7059c62028c1c5ca52825d4646279d488f226f",
        "90ed33836606b008dd2c6d7258b4ae234f6b38cb7d2bed5573d063be059ad9fb",
    ),
    "listing": (
        "25c45d9f44b930f42183bd635f24fbd82fa17c1113ed9ba00c51ee470308a604",
        "5cbf5f6d0ac6e7fdbef3b8ccb7aa7b2c8b0e2a2d4b1c152671cd4174aee2e2ff",
    ),
    "approx": (
        "feaad9c9422e12569d2a18b74509e260ea5cf85e12c85be7a5fe3c457df3f5d1",
        "5a255ff3a3eba73554519581c3303a757ac9b2ddf314b04df89fd0e300be2c73",
    ),
}


def _inputs(name: str, shape: Shape) -> tuple[list, list[str]]:
    """The seeded strings and patterns of one workload.

    Patterns are every letter, then windows of sampled worlds and, for a
    ``likely`` shape, every other one a window of the most likely world that
    occurs above tau_min (the first of a few tries that does), as long
    patterns seldom occur otherwise.
    """
    rng = random.Random(f"fingerprint/{name}")
    corpus = "".join(rng.choice(LETTERS) for _ in range(shape.n))
    cfg = GenConfig(theta=shape.theta, seed=rng.randrange(1 << 31), correlation_rate=shape.correlation_rate)
    docs = list(generate_collection(corpus, cfg, shape.docs).docs) if shape.docs else [generate(corpus, cfg, name)]
    worlds = [sample_world(d, rng) for d in docs]
    best = "".join(max(dist, key=lambda c: (dist[c], c)) for dist in docs[0].positions)
    patterns = list(LETTERS)
    for k in range(PATTERNS):
        m = shape.m_lo + k % (shape.m_hi - shape.m_lo + 1)
        if shape.likely and k % 2:
            for _ in range(200):
                s = rng.randrange(len(best) - m + 1)
                if occurrence_probability(docs[0], best[s : s + m], s + 1) >= shape.tau_min:
                    break
            patterns.append(best[s : s + m])
            continue
        w = rng.choice([w for w in worlds if len(w) >= m])
        s = rng.randrange(len(w) - m + 1)
        patterns.append(w[s : s + m])
    return docs, patterns


def _sorted(items) -> list[tuple]:
    """Plain (key, hex value) pairs, so that the repr is the same under every numpy version."""
    return sorted((k if isinstance(k, str) else int(k), float(v).hex()) for k, v in items)


def _answers(container, patterns: list[str], tau_min: float) -> tuple[str, str]:
    """The digests of the answers and of the summed counters, over both thresholds."""
    answers, totals = [], None
    for tau in (tau_min, 1.5 * tau_min):
        for p in patterns:
            if container.listing is not None:
                items = list_items(container.listing, p, tau)
                stats = list_with_stats(container.listing, p, tau)[1]
            else:
                items = query_items(container.substring, p, tau)
                stats = query_with_stats(container.substring, p, tau)[1]
            row = [p, tau.hex(), _sorted(items)]
            if container.links is not None:
                row.append(_sorted(approx_items(container.links, p, tau)))
            answers.append(row)
            counts = tuple(map(int, dataclasses.astuple(stats)))
            totals = counts if totals is None else tuple(a + b for a, b in zip(totals, counts))
    return tuple(hashlib.sha256(repr(x).encode()).hexdigest() for x in (answers, totals))


@pytest.mark.parametrize("name", SHAPES)
def test_answers_match_the_committed_fingerprint(name, tmp_path):
    shape = SHAPES[name]
    docs, patterns = _inputs(name, shape)
    built = build_container(docs, shape.tau_min, epsilon=shape.epsilon, metric=shape.metric)
    path = str(tmp_path / "index.usi")
    save_container(built, path)
    loaded = load_container(path)
    assert _answers(built, patterns, shape.tau_min) == DIGESTS[name]
    assert _answers(loaded, patterns, shape.tau_min) == DIGESTS[name]
