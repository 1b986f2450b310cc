"""Long queries of both index kinds read the slot-sorted factor starts: against the sa-scan reference."""

from __future__ import annotations

import random
import tempfile
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from ustrindex import (
    METRICS,
    QueryStats,
    build_container,
    list_items,
    list_with_stats,
    load_container,
    query_items,
    query_with_stats,
    save_container,
)
from ustrindex import qindex

from helpers import random_ustring, readable_text, reference_factor_hits, reference_long_listing, reference_long_query


def _hex(items) -> list[tuple]:
    return [(k, v.hex()) for k, v in items]


def _long_patterns(idx, lengths=(2, 3, 4, 5)) -> list[str]:
    runs = readable_text(idx.tt).split("$")
    return sorted({r[b : b + m] for r in runs for m in lengths for b in range(len(r) - m + 1)})


def _match_the_reference(containers, path: str, taus=(0.1, 0.25)) -> Counter:
    """Built and loaded copies answer every long pattern as the reference does; returns what the queries took."""
    seen: Counter = Counter()
    for k, container in enumerate(containers):
        save_container(container, f"{path}.{k}")
        loaded = load_container(f"{path}.{k}")
        idx = container.substring or container.listing
        for p in _long_patterns(idx):
            for tau in taus:
                for c in (container, loaded):
                    if c.substring is not None:
                        want, stats, ranges, route = reference_long_query(c.substring, p, tau)
                        got = query_items(c.substring, p, tau)
                        assert query_with_stats(c.substring, p, tau)[1] == stats, (p, tau)
                        seen[route] += 1
                        off, _ = reference_factor_hits(c.substring.tt, c.substring.saidx.sa, ranges, len(p), tau)
                        seen["twice"] += np.unique(c.substring.tt.pos[off]).size < off.size
                    else:
                        want = reference_long_listing(c.listing, p, tau)
                        got = list_items(c.listing, p, tau)
                        assert list_with_stats(c.listing, p, tau)[1] == QueryStats(outputs=len(want))
                    assert _hex(got) == _hex(want), (p, tau)
                    seen["answers"] += bool(want)
    return seen


def test_long_queries_match_the_sa_scan_reference(genome, correlated, collection, tmp_path):
    containers = [build_container([u], 0.1, m_short=1) for u in (genome, correlated)]
    containers += [build_container(list(collection.docs), 0.1, metric=metric, m_short=1) for metric in METRICS]
    seen = _match_the_reference(containers, str(tmp_path / "i.usi"))
    # both query routes are taken, and some position is reached from two factor starts
    assert seen["scan"] and seen["blocks"] and seen["blocks+ends"] and seen["twice"], seen
    assert seen["answers"] > 50


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_long_queries_match_the_sa_scan_reference_on_random_strings(seed):
    rng = random.Random(seed)
    tau_min = rng.choice((0.1, 0.2, 0.3))
    docs = [
        random_ustring(rng, n=rng.randint(3, 24), alphabet="abc", correlation_rate=0.3, name=f"d{k}") for k in range(3)
    ]
    containers = [
        build_container(docs[:1], tau_min, m_short=1),
        build_container(docs, tau_min, metric=rng.choice(METRICS), m_short=1),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        _match_the_reference(containers, f"{tmp}/r.usi", taus=(tau_min, max(tau_min, 0.35)))


def test_sorted_factors_are_built_once_per_index(genome, collection, tmp_path, monkeypatch):
    calls = []
    inner = qindex._sorted_factors

    def counted(tt, saidx):
        calls.append(tt)
        return inner(tt, saidx)

    monkeypatch.setattr(qindex, "_sorted_factors", counted)
    for k, docs in enumerate(([genome], list(collection.docs))):
        path = str(tmp_path / f"{k}.usi")
        save_container(build_container(docs, 0.1, m_short=1), path)
        loaded = load_container(path)
        idx = loaded.substring or loaded.listing
        assert not any(tt is idx.tt for tt in calls)
        patterns = _long_patterns(idx)
        for q in range(100):
            p = patterns[q % len(patterns)]
            if loaded.substring is not None:
                query_with_stats(idx, p, 0.1)
            else:
                list_with_stats(idx, p, 0.1)
        assert sum(tt is idx.tt for tt in calls) == 1
