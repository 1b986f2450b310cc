"""Substring index against the oracle, including overrides and work counters."""

from __future__ import annotations

import itertools
import math
import random
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustrindex import (
    METRICS,
    Correlation,
    DocumentCollection,
    QueryStats,
    ContainerError,
    ThresholdError,
    UncertainString,
    build,
    build_container,
    build_listing,
    list_items,
    load_container,
    occurrence_probability,
    oracle_list,
    oracle_relevance,
    oracle_search,
    query,
    query_items,
    query_with_stats,
    sample_world,
    save_container,
)

from ustrindex import qindex
from ustrindex.textcore import build_suffix_array, check_factor_order

from helpers import (
    check_short_tables,
    full_slots,
    partition_entries,
    random_distribution,
    random_ustring,
    readable_text,
    reference_dedup_depth,
    reference_long_tables,
    slot_depth_values,
    with_m_short,
)


def test_worked_example_queries(genome):
    idx = build(genome, 0.1)
    assert query(idx, "AT", 0.4) == [9]
    items = query_items(idx, "AT", 0.1)
    assert [i for i, _ in items] == [7, 9]
    for i, v in items:
        assert v == occurrence_probability(genome, "AT", i)
    assert query(idx, "ATA", 0.2) == [9]
    assert query(idx, "Z", 0.1) == []


def test_build_validates_inputs():
    bad = UncertainString("bad", ({"a": 0.5, "b": 0.2},))
    with pytest.raises(ValueError, match="invalid uncertain string"):
        build(bad, 0.5)
    ok = UncertainString("ok", ({"a": 1.0},))
    with pytest.raises(ValueError):
        build(ok, 0.0)
    with pytest.raises(ValueError):
        build(ok, 1.5)


def test_query_guards(genome):
    idx = build(genome, 0.1)
    with pytest.raises(ThresholdError) as exc:
        query(idx, "AT", 0.05)
    assert exc.value.tau == 0.05 and exc.value.tau_min == 0.1
    with pytest.raises(ValueError):
        query(idx, "", 0.5)
    with pytest.raises(ValueError, match="NaN"):
        query_items(idx, "AT", math.nan)


def test_deterministic_string_is_plain_substring_search():
    s = "abcabcabcabc"
    u = UncertainString("det", tuple({c: 1.0} for c in s))
    idx = with_m_short(build(u, 0.9), 2)
    for m in range(1, 11):
        for start in range(len(s) - m + 1):
            p = s[start : start + m]
            want = sorted(i + 1 for i in range(len(s) - m + 1) if s[i : i + m] == p)
            assert query(idx, p, 0.9) == want
    assert query(idx, "cab", 1.0) == [3, 6, 9]
    assert query(idx, "abd", 0.9) == []


def test_a_long_periodic_string_builds_and_answers():
    # every start of a deterministic string holds one factor, the rest of the string, so
    # n = 3,000 makes a 4,504,500-code text, above the default cap, in which adjacent
    # suffixes share up to 2,999 codes: an LCP costing O(n * max lcp) would not finish
    n = 3000
    s = "ab" * (n // 2)
    text = n * (n + 1) // 2 + n
    idx = build(UncertainString("abab", tuple({c: 1.0} for c in s)), 0.5, length_cap=text)
    assert idx.tt.n == text
    assert int(build_suffix_array(idx.tt.codes).lcp.max()) == n - 1
    # a load's check of the factor order, where consecutive factors share up to 2,998 codes, in linear work
    starts = idx.tt.factor_runs()[0]
    ids = np.searchsorted(starts, idx.saidx.sa - 1).astype(np.uint16)
    assert np.array_equal(check_factor_order(idx.tt.codes, starts, ids).sa, idx.saidx.sa)
    ids[[0, 1]] = ids[[1, 0]]
    with pytest.raises(ContainerError, match="does not sort"):
        check_factor_order(idx.tt.codes, starts, ids)
    for m in (1, 2, 7, idx.m_short + 1, 100, n - 1, n):
        for p in (s[:m], s[1 : m + 1]):
            want = [i + 1 for i in range(n - len(p) + 1) if s.startswith(p, i)]
            assert query(idx, p, 1.0) == want


def test_build_leaves_the_tree_view_unbuilt(genome):
    idx = build(genome, 0.1)
    query(idx, "A", 0.1)
    assert "tree" not in idx.__dict__


@settings(max_examples=70, deadline=None)
@given(st.integers(0, 10**6))
def test_query_matches_oracle(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(4, 18), correlation_rate=0.3)
    tau_min = rng.choice((0.1, 0.2, 0.3))
    idx = with_m_short(build(u, tau_min), rng.choice((None, 1, 2)))

    w = sample_world(u, rng)
    patterns = {
        w[s : s + m]
        for m in (1, 2, 3, 5, 8)
        if m <= len(w)
        for s in (0, len(w) // 2, len(w) - m)
    }
    patterns.add("zq")
    for p in sorted(patterns):
        for tau in (tau_min, min(1.0, 2 * tau_min), 0.9):
            got = query(idx, p, tau)
            assert got == sorted(oracle_search(u, p, tau))
            items = query_items(idx, p, tau)
            assert [i for i, _ in items] == got
            for i, v in items:
                assert v == occurrence_probability(u, p, i)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_short_queries_stay_within_the_probe_budget(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(6, 20), correlation_rate=0.2)
    idx = build(u, 0.2)
    w = sample_world(u, rng)
    for m in range(1, min(idx.m_short, len(w)) + 1):
        s = rng.randrange(len(w) - m + 1)
        positions, stats = query_with_stats(idx, w[s : s + m], 0.2)
        assert stats.outputs == len(positions)
        assert stats.rmq_calls <= 2 * len(positions) + 1
        assert sorted(set(positions)) == positions


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_substring_tables_match_the_dedup_reference(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 24), alphabet="abc", correlation_rate=0.3)
    idx = with_m_short(build(u, rng.choice((0.1, 0.2, 0.3))), rng.choice((None, 6)))
    full = build_suffix_array(idx.tt.codes)
    depths = slot_depth_values(idx.tt, full, lambda _o: u, idx.m_short)
    orig = idx.tt.pos[full.sa - 1]
    lcp = full.lcp
    for i, (c, (values, depth)) in enumerate(zip(depths, idx.short_tables), start=1):
        c = np.where(c < idx.tau_min, 0.0, c)
        got = partition_entries(full_slots(idx, depth.slots), values, lcp, i, orig)
        assert len({(p, k) for p, k, _ in got}) == len(got)
        want = partition_entries(*reference_dedup_depth(c, lcp, orig, i, u.n), lcp, i, orig)
        assert set(got) == set(want)


def _long_tables_match_the_eager_reference(container, path: str) -> None:
    """Every long table a built and a loaded index make equals the eager loop's, bit for bit."""
    save_container(container, path)
    built = container.substring
    want = reference_long_tables(built.tt, built.tau_min, built.m_short)
    assert sorted(want) == list(range(built.m_short + 1, built.l_max + 1))
    for idx in (built, load_container(path).substring):
        for m, pb in want.items():
            got, rmq = idx.long_table(m)
            assert got.dtype == pb.dtype and got.tobytes() == pb.tobytes()
            assert idx.long_tables[m][1] is rmq
        assert sorted(idx.long_tables) == sorted(want)


def test_long_tables_on_demand_match_the_eager_reference(genome, correlated, tmp_path):
    for k, u in enumerate((genome, correlated)):
        container = with_m_short(build_container([u], 0.1), 1)
        assert container.substring.l_max > 2
        _long_tables_match_the_eager_reference(container, str(tmp_path / f"{k}.usi"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_long_tables_on_demand_match_the_eager_reference_on_random_strings(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 24), alphabet="abc", correlation_rate=0.3)
    container = with_m_short(build_container([u], rng.choice((0.1, 0.2, 0.3))), rng.choice((None, 1, 2)))
    with tempfile.TemporaryDirectory() as tmp:
        _long_tables_match_the_eager_reference(container, f"{tmp}/r.usi")


def test_a_long_table_is_built_only_when_a_query_reads_it(genome, tmp_path):
    path = str(tmp_path / "g.usi")
    container = with_m_short(build_container([genome], 0.1), 1)
    save_container(container, path)
    for idx in (container.substring, with_m_short(load_container(path), 1).substring):
        assert idx.long_tables == {}
        # each of these rank ranges fits inside one block of its length, which no table can prune
        for p in ("AIA", "FFPQ", "PSFPT", "QPP", "TATA"):
            assert query_with_stats(idx, p, 0.1)[1].block_scans == 1
        assert idx.long_tables == {}
        # the range of "FP" covers whole blocks of two ranks; counters as when every table was stored
        want = QueryStats(rmq_calls=1, block_scans=3, outputs=1, slots_scanned=3)
        assert query_with_stats(idx, "FP", 0.1) == ([3], want)
        assert list(idx.long_tables) == [2]
        want = QueryStats(rmq_calls=1, block_scans=1, outputs=1, slots_scanned=1)
        assert query_with_stats(idx, "PTP", 0.3) == ([4], want)
        assert sorted(idx.long_tables) == [2, 3]


@pytest.mark.parametrize("kind", ["substring", "listing"])
def test_neither_a_build_nor_a_load_builds_a_short_table(kind, genome, collection, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(qindex, "_group_depth", lambda *args: calls.append(args[4]))
    docs = [genome] if kind == "substring" else list(collection.docs)
    path = str(tmp_path / "n.usi")
    container = build_container(docs, 0.1)
    save_container(container, path)
    for c in (container, load_container(path)):
        idx = c.substring or c.listing
        assert idx._short == {}
    assert calls == []


def test_a_short_query_builds_its_depth_once_and_no_other(genome, collection, tmp_path, monkeypatch):
    calls = []
    inner = qindex._group_depth

    def counted(*args):
        calls.append(args[4])  # the depth
        return inner(*args)

    monkeypatch.setattr(qindex, "_group_depth", counted)
    for k, docs in enumerate(([genome], list(collection.docs))):
        path = str(tmp_path / f"{k}.usi")
        save_container(build_container(docs, 0.1), path)
        loaded = with_m_short(load_container(path), 3)
        idx = loaded.substring or loaded.listing
        runs = readable_text(idx.tt).split("$")
        patterns = sorted({r[b : b + 2] for r in runs for b in range(len(r) - 1)})
        for q in range(100):
            p = patterns[q % len(patterns)]
            if loaded.substring is not None:
                query_with_stats(idx, p, 0.1)
            else:
                list_items(idx, p, 0.1)
        assert calls == [2]
        assert list(idx._short) == [2]
        calls.clear()


def _one_letter_runs(rng: random.Random, name: str) -> UncertainString:
    """Runs of one letter, mostly certain, so that many factor starts share long prefixes."""
    positions: list[dict[str, float]] = []
    for _ in range(rng.randint(1, 4)):
        letter = rng.choice("ab")
        for _ in range(rng.randint(1, 12)):
            positions.append({letter: 1.0} if rng.random() < 0.8 else random_distribution(rng, "ab", 2))
    return UncertainString(name, tuple(positions))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_short_tables_on_demand_match_the_eager_reference_on_long_runs(seed):
    rng = random.Random(seed)
    docs = [_one_letter_runs(rng, f"d{k}") for k in range(3)]
    tau_min = rng.choice((0.1, 0.2, 0.3))
    m_short = rng.choice((None, 1, 2))
    containers = [with_m_short(build_container(docs[:1], tau_min), m_short)]
    containers += [with_m_short(build_container(docs, tau_min, metric=metric), m_short) for metric in METRICS]
    with tempfile.TemporaryDirectory() as tmp:
        for k, container in enumerate(containers):
            save_container(container, f"{tmp}/{k}.usi")
            for c in (container, with_m_short(load_container(f"{tmp}/{k}.usi"), m_short)):
                check_short_tables(c.substring or c.listing)


def test_a_non_monotone_string_stores_nothing_below_tau_min():
    # "a" at 1 and "c" at 2 condition on each other: "a" alone has 0.1, "ac" has 1
    u = UncertainString(
        "nm",
        ({"a": 0.5, "b": 0.5}, {"c": 0.1, "d": 0.9}, {"e": 1.0}),
        (Correlation(1, "a", 2, "c", 1.0, 0.0), Correlation(2, "c", 1, "a", 1.0, 0.0)),
    )
    assert occurrence_probability(u, "a", 1) == pytest.approx(0.1)
    # m_short=1 sends lengths 2 and 3 down the long paths, past windows inside a factor below tau_min
    indexes = [build(u, 0.3), with_m_short(build(u, 0.3), 1)]
    listings = [
        with_m_short(build_listing(DocumentCollection((u,)), 0.3, metric), m_short)
        for metric in METRICS
        for m_short in (None, 1)
    ]
    for index in indexes + listings:
        for values, _ in index.short_tables:
            assert np.all(values >= 0.3)
    patterns = ["".join(w) for m in (1, 2, 3) for w in itertools.product("abcde", repeat=m)]
    for p in patterns:
        for tau in (0.3, 0.45, 0.9):
            for idx in indexes:
                items = query_items(idx, p, tau)
                assert [i for i, _ in items] == sorted(oracle_search(u, p, tau))
                assert all(v == occurrence_probability(u, p, i) for i, v in items)
            for lidx in listings:
                got = list_items(lidx, p, tau)
                assert {name for name, _ in got} == oracle_list(lidx.collection, p, tau, lidx.metric, floor=0.3)
                assert all(rel == oracle_relevance(u, p, lidx.metric, floor=0.3) for _, rel in got)


def test_long_queries_of_built_and_loaded_indexes_never_recompute_a_probability(
    genome, correlated, collection, tmp_path, monkeypatch
):
    # m_short=1 sends every longer pattern down the long paths, which read the stored cum
    built = [with_m_short(build_container([u], 0.1), 1) for u in (genome, correlated)]
    built += [with_m_short(build_container(list(collection.docs), 0.1, metric=metric), 1) for metric in METRICS]
    cases = []
    for k, container in enumerate(built):
        path = str(tmp_path / f"{k}.usi")
        save_container(container, path)
        idx = container.substring or container.listing
        runs = readable_text(idx.tt).split("$")
        patterns = {r[b : b + m] for r in runs for m in (2, 3, 4) for b in range(len(r) - m + 1)} | {"ZZ"}
        for p, tau in itertools.product(sorted(patterns), (0.1, 0.25)):
            if container.substring:
                u = idx.u
                want = [(i, occurrence_probability(u, p, i)) for i in sorted(oracle_search(u, p, tau))]
            else:
                names = oracle_list(idx.collection, p, tau, idx.metric, floor=0.1)
                docs = [d for d in idx.collection.docs if d.name in names]
                want = [(d.name, oracle_relevance(d, p, idx.metric, floor=0.1)) for d in docs]
            cases.append((path, container, p, tau, want))
    assert sum(bool(want) for *_, want in cases) > 50

    def refuse(*_args):
        raise AssertionError("a query recomputed an occurrence probability")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ustrindex" and hasattr(module, "occurrence_probability"):
            monkeypatch.setattr(module, "occurrence_probability", refuse)
    loaded = {path: with_m_short(load_container(path), 1) for path, *_ in cases}
    for path, container, p, tau, want in cases:
        for c in (container, loaded[path]):
            got = query_items(c.substring, p, tau) if c.substring else list_items(c.listing, p, tau)
            assert got == want, (p, tau)

