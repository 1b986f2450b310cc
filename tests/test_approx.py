"""Approximate search links: sandwich guarantee, segment structure, stabbing."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustrindex import (
    Correlation,
    ThresholdError,
    UncertainString,
    approx_items,
    approx_query,
    build,
    build_links,
    oracle_search,
    partition_links,
    query,
    sample_world,
    validate,
)

from helpers import (
    link_rows,
    max_segment_spread,
    random_ustring,
    reference_build_links,
    reference_link_marks,
    reference_partition_links,
    slot_of,
)

LINK_ARRAYS = ("origin", "pos_id", "stored", "o_depth", "t_depth")


def _linked(u, tau_min, eps):
    idx = build(u, tau_min)
    return idx, partition_links(build_links(idx.tt, idx.saidx), eps)


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
    assert len(ln) > 0
    assert max_segment_spread(u, idx, ln) <= eps + 1e-12


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
    raw = build_links(idx.tt, idx.saidx)
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            partition_links(raw, eps)


def test_partition_links_needs_a_source(genome):
    idx = build(genome, 0.1)
    raw = build_links(idx.tt, idx.saidx)
    orphaned = replace(raw, tt=replace(idx.tt, documents=None))
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
    raw = build_links(idx.tt, idx.saidx)
    got = sorted(link_rows(raw))
    assert got == reference_link_marks(idx.tt, idx.saidx)


def _assert_links_match_references(idx, raw, eps_values) -> None:
    got = list(zip(*(a.tolist() for a in (raw.pos_id, raw.o_depth, raw.t_depth, raw.witness_off, raw.factor_off))))
    assert got == reference_build_links(idx.tt, idx.saidx)
    # positions and offsets keep the int32 of the text's pos and sa; depths are lifted in int64
    dtypes = [a.dtype for a in (raw.pos_id, raw.o_depth, raw.t_depth, raw.witness_off, raw.factor_off)]
    assert dtypes == [np.int32, np.int64, np.int64, np.int32, np.int64]
    for eps in eps_values:
        ln = partition_links(raw, eps)
        for name, want in zip(LINK_ARRAYS, reference_partition_links(raw, eps)):
            have = getattr(ln, name)
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), (name, eps)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_vectorized_links_match_the_scalar_references(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 30), correlation_rate=rng.choice((0.3, 0.6)))
    tau_min = rng.choice((0.05, 0.15, 0.35))
    idx = build(u, tau_min)
    _assert_links_match_references(idx, build_links(idx.tt, idx.saidx), (1e-9, 0.01, 0.05, 0.2))


@pytest.mark.parametrize("lost", ["every third", "all"])
def test_links_without_a_factor_start_read_the_growth_rule(lost):
    u = random_ustring(random.Random(5), n=24, correlation_rate=0.6)
    idx = build(u, 0.05)
    raw = build_links(idx.tt, idx.saidx)
    assert np.all(raw.factor_off >= 0)
    mask = np.arange(raw.pos_id.size) % 3 == 0 if lost == "every third" else np.ones(raw.pos_id.size, dtype=bool)
    orphaned = replace(raw, factor_off=np.where(mask, -1, raw.factor_off))
    for eps in (1e-9, 0.05, 0.2):
        want, got = partition_links(raw, eps), partition_links(orphaned, eps)
        for name in LINK_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, eps)


def test_a_window_below_its_factor_links_without_a_factor_start():
    """A correlated window inside a factor can be less likely than the factor.

    ``cs`` at 2 holds 0.9 (c given x, s given c), but ``s`` at 3 alone takes
    the marginal over c's base probability, 0.2, below tau_min 0.5: the link
    of that leaf has no factor start, and partitioning reads it through the
    growth rule.
    """
    u = UncertainString(
        "chain",
        ({"x": 1.0}, {"c": 0.2, "d": 0.8}, {"s": 0.5, "t": 0.5}),
        (Correlation(2, "c", 1, "x", 0.9, 0.1), Correlation(3, "s", 2, "c", 1.0, 0.0)),
    )
    assert validate(u) == []
    idx = build(u, 0.5)
    raw = build_links(idx.tt, idx.saidx)
    lost = np.flatnonzero(raw.factor_off == -1)
    assert lost.size == 1
    (k,) = lost
    assert (raw.pos_id[k], raw.o_depth[k], raw.t_depth[k]) == (3, 1, 0)
    exact = partition_links(raw, 1e-9)
    at = np.flatnonzero(exact.origin == slot_of(idx.saidx)[raw.witness_off[k]])
    assert exact.stored[at].tolist() == [0.2] and exact.pos_id[at].tolist() == [3]
    patterns = ["".join(w) for m in (1, 2, 3) for w in itertools.product("cdstx", repeat=m)]
    for eps in (1e-9, 0.05, 0.3):
        ln = partition_links(raw, eps)
        for p in patterns:
            for tau in (0.5, 0.7, 0.9):
                want = oracle_search(u, p, tau)
                assert set(query(idx, p, tau)) == want
                got = set(approx_query(ln, p, tau))
                assert want <= got <= oracle_search(u, p, tau - eps)


SPREAD = {"a": 0.1, **{c: 0.15 for c in "bcdefg"}}  # every symbol below tau_min 0.2
EDGE_STRINGS = {
    # one leaf in all: text "a$"
    "single symbol": UncertainString("one", ({"a": 1.0},)),
    # every start holds one factor, the rest of the string; position 1 has a single leaf
    "deterministic": UncertainString("det", tuple({c: 1.0} for c in "abaabab")),
    # no window crosses positions 3 and 6, which have no leaf; positions 1 and 4 have one leaf each
    "single-leaf positions": UncertainString("gaps", ({"a": 1.0}, {"b": 1.0}, SPREAD, {"c": 1.0}, {"d": 1.0}, SPREAD)),
    # position 1's one link spans prefix values 1.0 and 0.5, exactly epsilon 0.5 apart: no cut
    "spread of exactly epsilon": UncertainString("half", ({"a": 1.0}, {"a": 0.5, **{c: 0.1 for c in "bcdef"}})),
}


@pytest.mark.parametrize("name", sorted(EDGE_STRINGS))
def test_link_marking_edge_cases(name):
    u = EDGE_STRINGS[name]
    idx = build(u, 0.2)
    raw = build_links(idx.tt, idx.saidx)
    assert raw.pos_id.size > 0
    assert sorted(link_rows(raw)) == (
        reference_link_marks(idx.tt, idx.saidx)
    )
    _assert_links_match_references(idx, raw, (1e-9, 0.05, 0.5, 1.0))


def test_a_text_without_factors_gives_typed_empty_links():
    # no symbol reaches tau_min, so the text is empty and nothing is marked
    u = UncertainString("flat", ({"a": 0.3, "b": 0.3, "c": 0.4},) * 3)
    idx = build(u, 0.5)
    raw = build_links(idx.tt, idx.saidx)
    assert idx.tt.n == 0 and raw.pos_id.size == 0 and link_rows(raw) == []
    _assert_links_match_references(idx, raw, (0.05,))
    ln = partition_links(raw, 0.05)
    assert len(ln) == 0
    assert [getattr(ln, a).dtype for a in LINK_ARRAYS] == [np.int32, np.int32, np.float64, np.int32, np.int32]
    assert approx_query(ln, "a", 0.5) == []


def test_links_answer_only_at_or_above_their_text_s_floor():
    # links take their floor from the text, so none can answer below 0.2 over a 0.2 text
    u = random_ustring(random.Random(26), n=60, alphabet="abc", theta=0.6)
    idx = build(u, 0.2)
    with pytest.raises(TypeError):
        build_links(idx.tt, idx.saidx, 0.05)
    ln = partition_links(build_links(idx.tt, idx.saidx), 0.05)
    assert ln.tt is idx.tt and ln.tt.tau_min == 0.2
    for p in ("a", "ab", "bca", "abca"):
        with pytest.raises(ThresholdError):
            approx_items(ln, p, 0.1)
        got = set(approx_query(ln, p, 0.2))
        assert oracle_search(u, p, 0.2) <= got <= oracle_search(u, p, 0.15)


def test_approx_query_guards(genome):
    _, ln = _linked(genome, 0.1, 0.05)
    with pytest.raises(ThresholdError):
        approx_query(ln, "AT", 0.05)
    with pytest.raises(ValueError):
        approx_query(ln, "", 0.5)
    with pytest.raises(ValueError, match="NaN"):
        approx_items(ln, "AT", math.nan)
    assert approx_query(ln, "ZZ", 0.5) == []
