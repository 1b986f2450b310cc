"""Approximate search links: sandwich guarantee, segment structure, stabbing."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ustrindex import (
    RawLinks,
    ThresholdError,
    approx_items,
    approx_query,
    build,
    build_links,
    oracle_search,
    partition_links,
    prefix_probabilities,
    sample_world,
)

from helpers import random_ustring, reference_link_marks


def _linked(u, tau_min, eps):
    idx = build(u, tau_min)
    return idx, partition_links(build_links(idx.tt, idx.saidx, tau_min), eps)


def sample_patterns(u, rng, lengths=(1, 2, 3, 5)):
    w = sample_world(u, rng)
    pats = {w[s : s + m] for m in lengths if m <= len(w) for s in (0, len(w) - m)}
    pats.add("zq")
    return sorted(pats)


def test_worked_example_is_sandwiched(genome):
    idx, ln = _linked(genome, 0.05, 0.01)
    got = approx_query(ln, "AT", 0.4)
    assert set(got) >= oracle_search(genome, "AT", 0.4)
    assert set(got) <= oracle_search(genome, "AT", 0.39)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_sandwich_guarantee(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 14), correlation_rate=0.3)
    tau_min = rng.choice((0.1, 0.2))
    eps = rng.choice((0.05, 0.2, 1.0))
    _, ln = _linked(u, tau_min, eps)
    for p in sample_patterns(u, rng):
        for tau in (tau_min, 2 * tau_min, 0.5):
            got = set(approx_query(ln, p, tau))
            assert got >= oracle_search(u, p, tau)
            assert got <= oracle_search(u, p, tau - eps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_tiny_epsilon_reproduces_exact_search(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 14), correlation_rate=0.3)
    tau_min = 0.1
    _, ln = _linked(u, tau_min, 1e-9)
    for p in sample_patterns(u, rng):
        for tau in (0.1, 0.2, 0.4, 0.8):
            assert set(approx_query(ln, p, tau)) == oracle_search(u, p, tau)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_segments_store_their_top_probability_and_stay_within_eps(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 12), correlation_rate=0.4)
    eps = rng.choice((0.05, 0.2))
    idx, ln = _linked(u, 0.1, eps)
    tt, sa = idx.tt, idx.saidx.sa
    ann = tt.annotations
    assert len(ln) > 0
    for link in ln.links():
        assert 0 <= link.target_depth < link.origin_depth
        witness = int(sa[link.origin - 1]) - 1
        assert int(tt.pos[witness]) == link.pos_id
        assert int(ann.eff_len[witness]) >= link.origin_depth
        window = tt.window_text(witness, link.origin_depth)
        probs = prefix_probabilities(u, window, link.pos_id)
        assert link.stored_prob == probs[link.target_depth]
        assert probs[link.target_depth] - probs[link.origin_depth - 1] <= eps + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_stab_reports_each_position_once_ascending(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 12), correlation_rate=0.2)
    _, ln = _linked(u, 0.1, 0.1)
    for p in sample_patterns(u, rng):
        items = approx_items(ln, p, 0.1)
        positions = [d for d, _ in items]
        assert positions == sorted(set(positions))
        assert all(v >= 0.1 for _, v in items)


def test_partition_links_validates_epsilon(genome):
    idx = build(genome, 0.1)
    raw = build_links(idx.tt, idx.saidx, 0.1)
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            partition_links(raw, eps)


def test_partition_links_needs_a_source(genome):
    idx = build(genome, 0.1)
    raw = build_links(idx.tt, idx.saidx, 0.1)
    orphaned = RawLinks(raw.links, replace(idx.tt, source=None), idx.saidx, 0.1)
    with pytest.raises(ValueError, match="source"):
        partition_links(orphaned, 0.1)


def test_links_build_no_tree_view(genome):
    idx, ln = _linked(genome, 0.1, 0.05)
    approx_query(ln, "A", 0.1)
    assert "tree" not in idx.__dict__


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_link_marking_matches_the_suffix_tree_reference(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 30), correlation_rate=rng.choice((0.3, 0.6)))
    tau_min = rng.choice((0.05, 0.15, 0.35))
    idx = build(u, tau_min)
    raw = build_links(idx.tt, idx.saidx, tau_min)
    got = sorted((r.pos_id, r.origin_depth, r.target_depth, r.witness_off) for r in raw.links)
    assert got == reference_link_marks(idx.tt, idx.saidx)


def test_approx_query_guards(genome):
    _, ln = _linked(genome, 0.1, 0.05)
    with pytest.raises(ThresholdError):
        approx_query(ln, "AT", 0.05)
    with pytest.raises(ValueError):
        approx_query(ln, "", 0.5)
    assert approx_query(ln, "ZZ", 0.5) == []
