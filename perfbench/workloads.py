"""Seeded workload inputs and the per-kind calls the benchmark times and checks.

Everything here is derived from ``(workload, seed, size)`` alone: the same
triple yields the same uncertain strings and the same pattern lists, and a
different seed yields different inputs of the same shape.  Input generation
runs before any timing starts.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ustrindex import (
    DocumentCollection,
    GenConfig,
    approx_items,
    build_container,
    generate,
    generate_collection,
    list_items,
    list_with_stats,
    occurrence_probability,
    oracle_list,
    oracle_search,
    query_items,
    query_with_stats,
    sample_world,
)

LETTERS = "abcdefgh"


@dataclass(frozen=True)
class Spec:
    """One workload: how its inputs are made and which index answers it.

    ``n`` maps a size to the number of source symbols; ``reference`` is the
    size the ROADMAP baseline was measured at, ``default`` the size the
    benchmark runs by default.
    """

    kind: str  # "search", "listing" or "approx"
    n: dict[str, int]
    theta: float
    tau_min: float
    tau: float
    m_lo: int
    m_hi: int
    correlation_rate: float = 0.0
    docs: int = 0
    metric: str | None = None
    epsilon: float | None = None
    likely_windows: bool = False


WORKLOADS: dict[str, Spec] = {
    "short-search": Spec(
        "search", {"tiny": 400, "default": 10_000, "reference": 50_000},
        theta=0.2, tau_min=0.3, tau=0.3, m_lo=1, m_hi=8,
    ),
    "long-search": Spec(
        "search", {"tiny": 1_500, "default": 6_000, "reference": 10_000},
        theta=0.2, tau_min=0.2, tau=0.2, m_lo=20, m_hi=40,
        correlation_rate=0.3, likely_windows=True,
    ),
    "listing": Spec(
        "listing", {"tiny": 1_200, "default": 10_000, "reference": 20_000},
        theta=0.2, tau_min=0.3, tau=0.3, m_lo=1, m_hi=8, docs=100, metric="or",
    ),
    "approx": Spec(
        "approx", {"tiny": 300, "default": 6_000, "reference": 10_000},
        theta=0.2, tau_min=0.2, tau=0.2, m_lo=1, m_hi=8, epsilon=0.05,
    ),
}

# Timed patterns: more than one round of the closed loop issues, so a
# round never repeats a pattern.  Warm-up patterns come before them, check
# patterns after.
TIMED_PATTERNS = 20_000
WARMUP_PATTERNS = 64
CHECK_PATTERNS = 32


@dataclass
class Inputs:
    spec: Spec
    docs: list  # the uncertain strings handed to build_container
    symbols: int
    patterns: list[str]
    warmup: list[str]
    check: list[str]


def _lengths(spec: Spec, count: int) -> list[int]:
    """Pattern lengths cycling through m_lo..m_hi, so every run sees the same mix."""
    span = spec.m_hi - spec.m_lo + 1
    return [spec.m_lo + k % span for k in range(count)]


def _world_patterns(worlds: list[str], lengths: list[int], rng: random.Random) -> list[str]:
    out = []
    for m in lengths:
        w = rng.choice(worlds)
        s = rng.randrange(len(w) - m + 1)
        out.append(w[s : s + m])
    return out


def _likely_patterns(u, lengths: list[int], tau: float, rng: random.Random) -> list[str]:
    """Windows of the most likely world whose exact probability reaches ``tau``.

    Candidate starts come from the product of per-position top marginals
    (with slack, since correlations move the exact value either way); each
    pick is confirmed with ``occurrence_probability`` so it has an answer.
    """
    best = "".join(max(dist, key=lambda c: (dist[c], c)) for dist in u.positions)
    logs = [0.0]
    for dist in u.positions:
        logs.append(logs[-1] + math.log(max(dist.values())))
    floor = math.log(tau) - 0.5
    starts: dict[int, list[int]] = {}
    verdict: dict[tuple[int, int], bool] = {}
    out = []
    for m in lengths:
        if m not in starts:
            starts[m] = [s for s in range(1, u.n - m + 2) if logs[s + m - 1] - logs[s - 1] >= floor]
        cands = starts[m]
        while True:
            if not cands:
                raise RuntimeError(f"no window of length {m} reaches tau {tau} in {u.name}")
            s = rng.choice(cands)
            if (m, s) not in verdict:
                verdict[m, s] = occurrence_probability(u, best[s - 1 : s - 1 + m], s) >= tau
            if verdict[m, s]:
                break
            cands.remove(s)
        out.append(best[s - 1 : s - 1 + m])
    return out


def make_inputs(name: str, seed: int, size: str) -> Inputs:
    spec = WORKLOADS[name]
    n = spec.n[size]
    rng = random.Random(f"{name}/{seed}")
    corpus = "".join(rng.choice(LETTERS) for _ in range(n))
    cfg = GenConfig(theta=spec.theta, seed=rng.randrange(1 << 31), correlation_rate=spec.correlation_rate)
    lengths = _lengths(spec, WARMUP_PATTERNS + TIMED_PATTERNS + CHECK_PATTERNS)
    if spec.kind == "listing":
        docs = list(generate_collection(corpus, cfg, spec.docs).docs)
    else:
        docs = [generate(corpus, cfg, name=name)]
    if spec.likely_windows:
        pats = _likely_patterns(docs[0], lengths, spec.tau, rng)
    else:
        worlds = [sample_world(d, rng) for d in docs]
        pats = _world_patterns(worlds, lengths, rng)
    warmup = pats[:WARMUP_PATTERNS]
    timed = pats[WARMUP_PATTERNS : WARMUP_PATTERNS + TIMED_PATTERNS]
    return Inputs(spec, docs, n, timed, warmup, pats[-CHECK_PATTERNS:])


def setup(inp: Inputs):
    """Generated strings to a queryable index: the span ``setup_s`` times."""
    s = inp.spec
    return build_container(inp.docs, s.tau_min, epsilon=s.epsilon, metric=s.metric)


def query(inp: Inputs, container, p: str):
    """One closed-loop query; returns (outputs reported, QueryStats or None)."""
    kind = inp.spec.kind
    if kind == "search":
        positions, stats = query_with_stats(container.substring, p, inp.spec.tau)
        return len(positions), stats
    if kind == "listing":
        names, stats = list_with_stats(container.listing, p, inp.spec.tau)
        return len(names), stats
    return len(approx_items(container.links, p, inp.spec.tau)), None


def items(inp: Inputs, container, p: str) -> list:
    """The full (position or name, probability) answer, for correctness checks."""
    kind = inp.spec.kind
    if kind == "search":
        return query_items(container.substring, p, inp.spec.tau)
    if kind == "listing":
        return list_items(container.listing, p, inp.spec.tau)
    return approx_items(container.links, p, inp.spec.tau)


def check(inp: Inputs, built, loaded, p: str) -> list[str]:
    """Problems with the loaded index's answer to ``p``; empty when correct.

    The loaded copy must answer bit for bit like the built one, and both
    must agree with the brute-force oracle (for approx: the sandwich).
    """
    s = inp.spec
    got = items(inp, loaded, p)
    problems = []
    if got != items(inp, built, p):
        problems.append("loaded index answers differently from the built one")
    keys = {k for k, _ in got}
    if s.kind == "search":
        if keys != oracle_search(inp.docs[0], p, s.tau):
            problems.append("search answer differs from oracle_search")
    elif s.kind == "listing":
        if keys != oracle_list(DocumentCollection(tuple(inp.docs)), p, s.tau, s.metric, floor=s.tau_min):
            problems.append("listing answer differs from oracle_list")
    else:
        u = inp.docs[0]
        if not keys >= oracle_search(u, p, s.tau):
            problems.append("approx answer misses a position at or above tau")
        if any(occurrence_probability(u, p, d) < s.tau - s.epsilon for d in keys):
            problems.append("approx answer holds a position below tau - epsilon")
    return problems
