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
    occurrence_probability,
    oracle_search,
    partition_links,
    query,
    sample_world,
    validate,
)

from helpers import (
    correlation_chain,
    link_rows,
    max_segment_spread,
    random_ustring,
    readable_text,
    reference_build_links,
    reference_full_order_approx,
    reference_link_marks,
    reference_link_origins,
    reference_partition_links,
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


def test_partition_links_reads_no_source(genome):
    """Links read their values from ``cum`` alone: a text without its source string partitions as the built one."""
    idx = build(genome, 0.1)
    raw = build_links(idx.tt, idx.saidx)
    orphaned = replace(raw, tt=replace(idx.tt, documents=None))
    assert orphaned.tt.source is None
    want, got = partition_links(raw, 0.1), partition_links(orphaned, 0.1)
    for name in LINK_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_links_build_no_tree_view(genome):
    idx, ln = _linked(genome, 0.1, 0.05)
    approx_query(ln, "A", 0.1)
    assert "tree" not in idx.__dict__


def _linked_marks(tt) -> list[tuple[int, int, int, int]]:
    """Sorted (position, origin depth, target depth, factor start) of the reference marks that hold a factor start."""
    return sorted((d, o, t, f) for d, o, t, _, f in reference_link_marks(tt) if f >= 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_link_marking_matches_the_suffix_tree_reference(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 30), correlation_rate=rng.choice((0.3, 0.6)))
    tau_min = rng.choice((0.05, 0.15, 0.35))
    idx = build(u, tau_min)
    raw = build_links(idx.tt, idx.saidx)
    assert sorted(link_rows(raw)) == _linked_marks(idx.tt)


def _assert_links_match_references(idx, raw, eps_values) -> None:
    assert link_rows(raw) == reference_build_links(idx.tt)
    assert np.array_equal(raw.origin, reference_link_origins(raw))
    # positions, offsets and ranks keep the int32 of the text's pos and sa; depths are lifted in int64
    dtypes = [a.dtype for a in (raw.pos_id, raw.o_depth, raw.t_depth, raw.factor_off, raw.origin)]
    assert dtypes == [np.int32, np.int64, np.int64, np.int32, np.int32]
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_approx_over_the_factor_order_answers_as_over_every_suffix(seed):
    """``approx_items`` stabs factor-start ranks exactly as segments at those starts' slots stab in the full order.

    Every window of the text up to five codes long, and some longer, is a
    pattern; the values compare by ``float.hex``.
    """
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 30), correlation_rate=rng.choice((0.3, 0.6)))
    tau_min = rng.choice((0.05, 0.15, 0.35))
    eps = rng.choice((1e-9, 0.05, 0.2))
    idx = build(u, tau_min)
    raw = build_links(idx.tt, idx.saidx)
    ln, want = partition_links(raw, eps), reference_full_order_approx(raw, eps)
    runs = readable_text(idx.tt).split("$")
    patterns = {r[b : b + m] for r in runs for m in range(1, 6) for b in range(len(r) - m + 1)}
    patterns |= {r[b:] for r in runs for b in range(len(r))} | {"zq"}
    for p in sorted(patterns - {""}):
        for tau in (tau_min, 0.5):
            got = approx_items(ln, p, tau)
            assert [(d, v.hex()) for d, v in got] == [(d, v.hex()) for d, v in want(p, tau)], (p, tau)


def test_a_window_below_its_factor_links_without_a_factor_start():
    """A correlated window inside a factor can be less likely than the factor.

    ``cs`` at 2 holds 0.9 (c given x, s given c), but ``s`` at 3 alone takes
    the marginal over c's base probability, 0.2, below tau_min 0.5.  The
    leaf of that ``s`` holds no factor start, so it gets no link; position 3
    keeps the one link of its factor ``t``.
    """
    u = UncertainString(
        "chain",
        ({"x": 1.0}, {"c": 0.2, "d": 0.8}, {"s": 0.5, "t": 0.5}),
        (Correlation(2, "c", 1, "x", 0.9, 0.1), Correlation(3, "s", 2, "c", 1.0, 0.0)),
    )
    assert validate(u) == []
    idx = build(u, 0.5)
    raw = build_links(idx.tt, idx.saidx)
    text = readable_text(idx.tt)
    # position 3's leaves spell "s$" inside the factors of 1 and 2, and "t$", its own factor
    assert sorted(text[o : o + 2] for o in np.flatnonzero(idx.tt.pos == 3).tolist()) == ["s$", "s$", "t$"]
    assert occurrence_probability(u, "s", 3) == 0.2
    assert [row for row in link_rows(raw) if row[0] == 3] == [(3, 1, 0, text.index("$t$") + 1)]
    patterns = ["".join(w) for m in (1, 2, 3) for w in itertools.product("cdstx", repeat=m)]
    for eps in (1e-9, 0.05, 0.3):
        ln = partition_links(raw, eps)
        for p in patterns:
            for tau in (0.5, 0.7, 0.9):
                want = oracle_search(u, p, tau)
                assert set(query(idx, p, tau)) == want
                got = set(approx_query(ln, p, tau))
                assert want <= got <= oracle_search(u, p, tau - eps)


# "a" at 2 alone takes the marginal over b's base probability, 0.3 * 0.95; "ab" there takes 0.95 * 0.9
FORWARD = UncertainString(
    "fwd",
    ({"x": 1.0}, {"a": 1.0}, {"b": 0.3, "c": 0.7}),
    (Correlation(2, "a", 3, "b", 0.95, 0.0), Correlation(3, "b", 1, "x", 0.9, 0.0)),
)


def test_a_prefix_more_likely_than_its_shorter_prefix_is_reported():
    """A segment stores its largest value, so "ab" at 2 is reported at tau 0.5 though "a" there is 0.285."""
    assert validate(FORWARD) == []
    _, ln = _linked(FORWARD, 0.1, 0.05)
    assert occurrence_probability(FORWARD, "a", 2) < 0.5 <= occurrence_probability(FORWARD, "ab", 2)
    assert approx_items(ln, "ab", 0.5) == [(2, occurrence_probability(FORWARD, "ab", 2))]


def _chain_patterns(u, rng) -> list[str]:
    """Every word over ``abc`` of up to three letters, and a few longer windows of sampled worlds."""
    pats = {"".join(w) for m in (1, 2, 3) for w in itertools.product("abc", repeat=m)}
    for _ in range(3):
        w = sample_world(u, rng)
        m = rng.randint(4, max(4, len(w)))
        pats |= {w[s : s + m] for s in range(len(w) - m + 1)}
    return sorted(pats)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_sandwich_over_correlation_chains(seed):
    """Nothing at or above tau is missed and nothing below tau - eps is reported, also where a longer prefix is more likely."""
    rng = random.Random(seed)
    u = correlation_chain(rng, rng.randint(3, 10))
    assert validate(u) == []
    tau_min = rng.choice((0.05, 0.1, 0.2))
    eps = rng.choice((1e-9, 0.01, 0.05, 0.2))
    _, ln = _linked(u, tau_min, eps)
    for p in _chain_patterns(u, rng):
        for tau in (tau_min, 0.3, 0.5, 0.8):
            got = set(approx_query(ln, p, tau))
            assert oracle_search(u, p, tau) <= got <= oracle_search(u, p, tau - eps), (p, tau)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_a_mark_without_a_factor_start_holds_no_value_at_tau_min(seed):
    """Every depth of a reference mark whose node holds no factor start lies below tau_min at its position.

    So the links ``build_links`` leaves out would store nothing a query reports.
    """
    rng = random.Random(seed)
    u = correlation_chain(rng, rng.randint(3, 12))
    tau_min = rng.choice((0.05, 0.1, 0.2))
    tt = build(u, tau_min).tt
    text = readable_text(tt)
    for d, o_depth, t_depth, witness, factor in reference_link_marks(tt):
        if factor < 0:
            for m in range(t_depth + 1, o_depth + 1):
                assert occurrence_probability(u, text[witness : witness + m], d) < tau_min, (d, m)


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
    assert sorted(link_rows(raw)) == _linked_marks(idx.tt)
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
