"""Listing index and relevance metrics against the oracle."""

from __future__ import annotations

import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustrindex import (
    METRICS,
    DocumentCollection,
    ThresholdError,
    UncertainString,
    build_listing,
    list_docs,
    list_items,
    list_with_stats,
    occurrence_probability,
    oracle_list,
    oracle_relevance,
    sample_world,
    transform,
)

from ustrindex.listing import ListingIndex
from ustrindex.qindex import _fold
from ustrindex.textcore import build_suffix_array

from helpers import (
    full_slots,
    partition_entries,
    random_ustring,
    reference_aggregate_depth,
    slot_depth_values,
    with_m_short,
)


def test_worked_example_listing(collection):
    idx = build_listing(collection, 0.1, "max")
    assert list_docs(idx, "BF", 0.1) == ["d1"]
    ((name, rel),) = list_items(idx, "BF", 0.1)
    assert name == "d1"
    assert rel == oracle_relevance(collection.docs[0], "BF", "max", floor=0.1)


def test_collection_factor_table_shifts_each_document(collection):
    idx = build_listing(collection, 0.1, "max")
    assert "tree" not in idx.__dict__
    want = []
    off = 0
    for d in collection.docs:
        part = transform(d, 0.1)
        want.extend((toff + off, fac) for toff, fac in part.factor_table)
        off += part.n
    assert idx.tt.factor_table == tuple(want)


def test_listing_reports_in_collection_order(collection):
    idx = build_listing(collection, 0.1, "max")
    assert list_docs(idx, "A", 0.1) == ["d1", "d2", "d3"]


def test_full_support_relevance(relevance_doc):
    occurrences = [occurrence_probability(relevance_doc, "BFA", i) for i in (1, 2, 4)]
    assert oracle_relevance(relevance_doc, "BFA", "max") == max(occurrences)
    assert oracle_relevance(relevance_doc, "BFA", "or") == pytest.approx(0.1828056, abs=1e-7)
    with pytest.raises(ValueError):
        oracle_relevance(relevance_doc, "BFA", "sum")


def test_build_listing_validates_inputs(collection):
    with pytest.raises(ValueError):
        build_listing(collection, 0.1, "sum")
    with pytest.raises(ValueError):
        build_listing(collection, 0.0, "max")
    broken = DocumentCollection((UncertainString("b", ({"a": 0.4},)),))
    with pytest.raises(ValueError, match="invalid document"):
        build_listing(broken, 0.1, "max")


def test_listing_query_guards(collection):
    idx = build_listing(collection, 0.1, "max")
    with pytest.raises(ThresholdError):
        list_docs(idx, "A", 0.05)
    with pytest.raises(ValueError):
        list_docs(idx, "", 0.5)
    with pytest.raises(ValueError, match="NaN"):
        list_items(idx, "A", math.nan)


def test_listing_matches_oracle_on_fixture(collection):
    for metric in ("max", "or", "orx"):
        idx = build_listing(collection, 0.05, metric)
        for p in ("A", "B", "F", "BF", "BFA", "FJ", "AB", "Z"):
            for tau in (0.05, 0.1, 0.2, 0.5):
                got = set(list_docs(idx, p, tau))
                assert got == oracle_list(collection, p, tau, metric, floor=0.05)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_listing_matches_oracle_on_random_collections(seed):
    rng = random.Random(seed)
    docs = tuple(
        random_ustring(rng, n=rng.randint(3, 10), correlation_rate=0.25, name=f"d{k}")
        for k in range(rng.randint(2, 4))
    )
    collection = DocumentCollection(docs)
    tau_min = rng.choice((0.1, 0.2))
    metric = rng.choice(("max", "or", "orx"))
    idx = with_m_short(build_listing(collection, tau_min, metric), rng.choice((None, 1)))

    patterns = {"zz"}
    for d in docs:
        w = sample_world(d, rng)
        for m in (1, 2, 3, 4, 6):
            if m <= len(w):
                s = rng.randrange(len(w) - m + 1)
                patterns.add(w[s : s + m])
    by_name = {d.name: d for d in docs}
    for p in sorted(patterns):
        for tau in (tau_min, 2 * tau_min, 0.6):
            items = list_items(idx, p, tau)
            got = [name for name, _ in items]
            assert set(got) == oracle_list(collection, p, tau, metric, floor=tau_min)
            assert got == [d.name for d in docs if d.name in set(got)]
            for name, rel in items:
                assert rel == oracle_relevance(by_name[name], p, metric, floor=tau_min)


def test_list_with_stats_counts_outputs(collection):
    idx = build_listing(collection, 0.1, "max")
    names, stats = list_with_stats(idx, "A", 0.1)
    assert stats.outputs == len(names) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_group_depth_matches_the_loop_reference(seed):
    rng = random.Random(seed)
    # a deterministic document repeats "a" and "ab", so some groups hold many occurrences
    docs = [UncertainString("rep", tuple({ch: 1.0} for ch in "abaabab"))]
    docs += [
        random_ustring(rng, n=rng.randint(3, 12), alphabet="abc", correlation_rate=0.3, name=f"d{k}")
        for k in range(rng.randint(1, 3))
    ]
    collection = DocumentCollection(tuple(docs))
    tau_min = rng.choice((0.1, 0.2))
    sizes: set[int] = set()
    for metric in METRICS:
        idx = build_listing(collection, tau_min, metric)
        full = build_suffix_array(idx.tt.codes)
        sa0 = full.sa - 1
        slot_doc, orig = idx.doc_of[sa0], idx.tt.pos[sa0]
        lcp = full.lcp
        depths = slot_depth_values(idx.tt, full, lambda o: docs[int(idx.doc_of[o])], idx.m_short)
        for i, (c, (values, depth)) in enumerate(zip(depths, idx.short_tables), start=1):
            c = np.where(c < tau_min, 0.0, c)
            got = partition_entries(full_slots(idx, depth.slots), values, lcp, i, slot_doc)
            assert len({(p, k) for p, k, _ in got}) == len(got)
            want = reference_aggregate_depth(c, lcp, slot_doc, orig, i, len(docs), max(d.n for d in docs), metric)
            assert set(got) == set(partition_entries(*want, lcp, i, slot_doc))
            pid = np.cumsum(lcp < i)
            kept = {(pid[s], slot_doc[s], orig[s]) for s in np.flatnonzero(c > 0.0).tolist()}
            sizes.update(min(size, 2) for size in Counter((p, k) for p, k, _ in kept).values())
    assert sizes == {1, 2}
    with pytest.raises(ValueError, match="unknown metric"):
        _fold(np.array([0.5]), np.array([0]), "sum")


def test_occurrence_keys_are_exact_past_int32():
    # int32 documents and positions: document times (longest length + 1) passes 2**31 unless widened first
    big = (1 << 31) - 1
    stand_in = SimpleNamespace(
        doc_of=np.array([0, 5, big - 1], dtype=np.int32),
        tt=SimpleNamespace(pos=np.array([1, big, big], dtype=np.int32), documents=SimpleNamespace(lengths=[3, big])),
        metric="or",
    )
    occ, doc, metric = ListingIndex._short_keys(stand_in, np.arange(3))
    assert occ.tolist() == [d * (big + 1) + p for d, p in ((0, 1), (5, big), (big - 1, big))]
    assert doc.tolist() == [0, 5, big - 1] and metric == "or"
