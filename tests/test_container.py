"""Container save/load: identical answers, kind routing, version gate."""

from __future__ import annotations

import io
import json
import random
import time
import zipfile

import numpy as np
import pytest

from ustrindex import container as container_module
from ustrindex import textcore
from ustrindex import (
    ContainerError,
    DocumentCollection,
    GenConfig,
    IndexConfig,
    IndexContainer,
    ListingConfig,
    UncertainString,
    approx_items,
    build,
    build_container,
    build_listing,
    generate,
    generate_collection,
    list_items,
    list_with_stats,
    load_container,
    query_items,
    query_with_stats,
    sample_world,
    save_container,
    serialize_ust,
)


def patterns_for(u, seed: int) -> list[str]:
    rng = random.Random(seed)
    w = sample_world(u, rng)
    pats = {w[s : s + m] for m in (1, 2, 3, 5) if m <= len(w) for s in (0, len(w) - m)}
    pats.add("zz")
    return sorted(pats)


def test_substring_round_trip_answers_identically(genome, tmp_path):
    container = build_container([genome], 0.1, epsilon=0.05)
    path = str(tmp_path / "g.usi")
    save_container(container, path)
    back = load_container(path)

    assert back.kind == "substring"
    assert back.tau_min == 0.1 and back.epsilon == 0.05
    # long tables are built on first read, so nothing about them is stored
    manifest = json.loads(_entries(path)["manifest.json"])
    assert set(manifest) == {"format_version", "kind", "tau_min", "epsilon", "metric", "source", "m_short"}
    a, b = container.substring, back.substring
    assert b.tt.factor_table == a.tt.factor_table
    assert b.m_short == a.m_short and b.l_max == a.l_max
    for (va, _), (vb, _) in zip(a.short_tables, b.short_tables):
        assert np.array_equal(va, vb)
    for p in patterns_for(genome, 1):
        for tau in (0.1, 0.2, 0.4):
            assert query_items(b, p, tau) == query_items(a, p, tau)
            assert approx_items(back.links, p, tau) == approx_items(container.links, p, tau)


def test_listing_round_trip_answers_identically(collection, tmp_path):
    container = build_container(list(collection.docs), 0.05, metric="or")
    path = str(tmp_path / "c.usi")
    save_container(container, path)
    back = load_container(path)

    assert back.kind == "listing" and back.metric == "or"
    for p in ("A", "B", "BF", "BFA", "FJ", "Z"):
        for tau in (0.05, 0.1, 0.3):
            assert list_items(back.listing, p, tau) == list_items(container.listing, p, tau)


def test_correlations_survive_the_round_trip(correlated, tmp_path):
    container = build_container([correlated], 0.1)
    path = str(tmp_path / "corr.usi")
    save_container(container, path)
    back = load_container(path)
    assert back.substring.u == correlated
    assert query_items(back.substring, "qz", 0.3) == query_items(container.substring, "qz", 0.3)


def test_build_container_kind_routing(genome, collection):
    assert build_container([genome], 0.1).kind == "substring"
    assert build_container([genome], 0.1, metric="max").kind == "listing"
    assert build_container(list(collection.docs), 0.1).kind == "listing"
    single = build_container([genome], 0.1)
    assert single.links is None and single.epsilon is None


def test_build_container_rejects_bad_combinations(genome, collection):
    with pytest.raises(ValueError):
        build_container([], 0.1)
    with pytest.raises(ValueError):
        build_container([genome], 0.1, epsilon=0.05, metric="max")
    with pytest.raises(ValueError):
        build_container(list(collection.docs), 0.1, epsilon=0.05)


def test_save_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        save_container(IndexContainer("weird", 0.1), str(tmp_path / "w.usi"))


def _entries(path: str) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _rewrite(path: str, entries: dict[str, bytes]) -> None:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in entries.items():
            zf.writestr(name, data)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def test_load_rejects_other_format_versions(genome, tmp_path):
    path = str(tmp_path / "v.usi")
    save_container(build_container([genome], 0.1, epsilon=0.05), path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    # version 2 numbered link origins by suffix-tree preorder, not by slot;
    # version 3 stored pos per code and no suffix array; version 4 stored the long tables
    for version in (2, 3, 4, 99):
        manifest["format_version"] = version
        entries["manifest.json"] = json.dumps(manifest).encode()
        _rewrite(path, entries)
        with pytest.raises(ContainerError, match=f"unsupported container version {version}"):
            load_container(path)


def test_load_rejects_a_file_that_is_not_a_zip(tmp_path):
    path = tmp_path / "junk.usi"
    path.write_bytes(b"not a container")
    with pytest.raises(ContainerError, match="not a sound index container"):
        load_container(str(path))


def test_load_rejects_a_container_missing_a_member(genome, tmp_path):
    path = str(tmp_path / "m.usi")
    save_container(build_container([genome], 0.1), path)
    entries = _entries(path)
    del entries["short_1.npy"]
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match="short_1"):
        load_container(path)


@pytest.mark.parametrize("manifest", [b"{not json", b"[1]"])
def test_load_rejects_a_manifest_that_is_not_a_json_object(manifest, genome, tmp_path):
    path = str(tmp_path / "j.usi")
    save_container(build_container([genome], 0.1), path)
    entries = _entries(path)
    entries["manifest.json"] = manifest
    _rewrite(path, entries)
    with pytest.raises(ContainerError):
        load_container(path)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("links", "tau_min", "nan"),
        ("links", "tau_min", "0.0"),
        ("links", "tau_min", "-1.0"),
        ("links", "epsilon", "nan"),
        ("links", "epsilon", "0.0"),
        ("links", "epsilon", "5.0"),
        ("listing", "tau_min", "1.5"),
        ("listing", "metric", "bogus"),
        ("listing", "metric", None),
    ],
)
def test_load_rejects_a_manifest_threshold_or_metric_out_of_range(
    kind, field, value, genome, collection, tmp_path
):
    path = str(tmp_path / "m.usi")
    if kind == "links":
        container = build_container([genome], 0.1, epsilon=0.05)
    else:
        container = build_container(list(collection.docs), 0.1, metric="max")
    save_container(container, path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest[field] = value
    entries["manifest.json"] = json.dumps(manifest).encode()
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match=f"manifest {field}"):
        load_container(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau_min", [1]),
        ("m_short", None),
        ("m_short", True),
        ("source", 5),
        ("epsilon", [0.05]),
        ("m_short", "2"),
        ("kind", ["substring"]),
    ],
)
def test_load_rejects_a_manifest_field_of_the_wrong_type(field, value, genome, tmp_path):
    path = str(tmp_path / "t.usi")
    save_container(build_container([genome], 0.1, epsilon=0.05, m_short=2), path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest[field] = value
    entries["manifest.json"] = json.dumps(manifest).encode()
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match=f"manifest {field}"):
        load_container(path)


@pytest.mark.parametrize("kind", ["substring", "listing"])
@pytest.mark.parametrize("m_short", [0, -3, 10**12])
def test_load_rejects_a_manifest_m_short_out_of_range_at_once(kind, m_short, genome, collection, tmp_path):
    path = str(tmp_path / "s.usi")
    if kind == "substring":
        container = build_container([genome], 0.1, epsilon=0.05, m_short=2)
    else:
        container = build_container(list(collection.docs), 0.1, metric="max")
    save_container(container, path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest["m_short"] = m_short
    entries["manifest.json"] = json.dumps(manifest).encode()
    _rewrite(path, entries)
    start = time.perf_counter()
    with pytest.raises(ContainerError, match=f"manifest m_short {m_short} is not in"):
        load_container(path)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kind", ["substring", "listing", "links"])
def test_an_empty_transformed_text_round_trips_and_answers_nothing(kind, tmp_path):
    # every window of two even positions is below tau_min 0.9, so no factor survives
    u = UncertainString("flat", ({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}))
    if kind == "substring":
        container = IndexContainer("substring", 0.9, substring=build(u, 0.9, IndexConfig(m_short=3)))
    elif kind == "listing":
        lidx = build_listing(DocumentCollection((u,)), 0.9, "or", ListingConfig(m_short=3))
        container = IndexContainer("listing", 0.9, listing=lidx, metric="or")
    else:
        container = build_container([u], 0.9, epsilon=0.05, m_short=3)
    path = str(tmp_path / "empty.usi")
    save_container(container, path)
    for c in (container, load_container(path)):
        idx = c.substring or c.listing
        assert idx.tt.n == 0 and idx.m_short == 3
        assert [(v.size, d.slots.size) for v, d in idx.short_tables] == [(0, 0)] * 3
        for p in ("a", "ab", "aba", "abab"):
            if kind == "listing":
                assert list_items(c.listing, p, 0.9) == []
            else:
                assert query_items(c.substring, p, 0.9) == []
            if kind == "links":
                assert approx_items(c.links, p, 0.9) == []


@pytest.mark.parametrize("kind", ["substring", "listing", "links"])
def test_a_string_without_factors_builds_saves_loads_and_answers_nothing(kind, tmp_path):
    # three even positions under the default config: no window reaches tau_min 0.9
    u = UncertainString("even", tuple({"a": 0.5, "b": 0.5} for _ in range(3)))
    container = build_container(
        [u], 0.9, epsilon=0.05 if kind == "links" else None, metric="or" if kind == "listing" else None
    )
    path = str(tmp_path / "none.usi")
    save_container(container, path)
    for c in (container, load_container(path)):
        assert (c.substring or c.listing).tt.n == 0
        for p in ("a", "ab", "aba", "abab"):
            if kind == "listing":
                assert list_items(c.listing, p, 0.9) == []
            else:
                assert query_items(c.substring, p, 0.9) == []
            if kind == "links":
                assert approx_items(c.links, p, 0.9) == []


def test_no_tree_view_is_built_for_links(genome, tmp_path):
    plain = build_container([genome], 0.1)
    assert "tree" not in plain.substring.__dict__
    path = str(tmp_path / "p.usi")
    save_container(plain, path)
    back = load_container(path)
    query_items(back.substring, "A", 0.1)
    assert "tree" not in back.substring.__dict__

    linked = build_container([genome], 0.1, epsilon=0.05)
    assert "tree" not in linked.substring.__dict__
    save_container(linked, path)
    back = load_container(path)
    approx_items(back.links, "A", 0.1)
    assert "tree" not in back.substring.__dict__


@pytest.mark.parametrize("kind", ["substring", "listing", "links"])
def test_a_loaded_index_answers_without_the_lcp_array(kind, genome, collection, tmp_path):
    path = str(tmp_path / "lcp.usi")
    if kind == "listing":
        container = build_container(list(collection.docs), 0.1, metric="or")
    else:
        container = build_container([genome], 0.1, epsilon=0.05 if kind == "links" else None)
    save_container(container, path)
    back = load_container(path)
    for p in ("A", "AT", "BF", "TTAGA"):
        if kind == "listing":
            assert list_items(back.listing, p, 0.1) == list_items(container.listing, p, 0.1)
        elif kind == "links":
            assert approx_items(back.links, p, 0.1) == approx_items(container.links, p, 0.1)
        else:
            assert query_items(back.substring, p, 0.1) == query_items(container.substring, p, 0.1)
    # a built index holds the LCP from its sorting pass; a loaded one never computes it
    assert (container.substring or container.listing).saidx._lcp is not None
    assert (back.substring or back.listing).saidx._lcp is None


def test_load_rejects_a_truncated_array_member(genome, tmp_path):
    path = str(tmp_path / "t.usi")
    save_container(build_container([genome], 0.1), path)
    entries = _entries(path)
    entries["cum.npy"] = entries["cum.npy"][:20]
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match="not a sound index container"):
        load_container(path)


def test_load_rejects_a_substring_manifest_with_two_sources(genome, correlated, tmp_path):
    path = str(tmp_path / "s.usi")
    save_container(build_container([genome], 0.1), path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest["source"] = serialize_ust(DocumentCollection((genome, correlated)))
    entries["manifest.json"] = json.dumps(manifest).encode()
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match="one source string"):
        load_container(path)


@pytest.mark.parametrize(
    "kind, member",
    [
        ("substring", "codes"),
        ("substring", "pos"),
        ("substring", "cum"),
        ("substring", "short_2"),
        ("substring", "link_tdepth"),
        ("substring", "sa"),
        ("listing", "doc_factors"),
    ],
)
def test_load_rejects_an_array_of_the_wrong_length(kind, member, genome, collection, tmp_path):
    path = str(tmp_path / "l.usi")
    if kind == "substring":
        container = build_container([genome], 0.1, epsilon=0.05, m_short=2)
    else:
        container = build_container(list(collection.docs), 0.1, metric="max")
    save_container(container, path)
    entries = _entries(path)
    assert f"{member}.npy" in entries
    buf = io.BytesIO()
    np.save(buf, np.load(io.BytesIO(entries[f"{member}.npy"]))[:-1])
    entries[f"{member}.npy"] = buf.getvalue()
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match="has shape"):
        load_container(path)


def _sparse_tables_are_sound(tables, n: int) -> None:
    for values, depth in tables:
        assert values.dtype == np.float64 and depth.slots.dtype == np.int32
        assert values.shape == depth.slots.shape
        assert np.all(values > 0.0)
        assert np.all(np.diff(depth.slots) > 0)
        assert depth.slots.size == 0 or 1 <= depth.slots[0] <= depth.slots[-1] <= n


@pytest.mark.parametrize("kind", ["substring", "listing"])
def test_short_tables_keep_only_nonzero_entries_in_slot_order(kind, genome, collection, tmp_path):
    if kind == "substring":
        container = build_container([genome], 0.1)
    else:
        container = build_container(list(collection.docs), 0.1, metric="or")
    path = str(tmp_path / "sparse.usi")
    save_container(container, path)
    for c in (container, load_container(path)):
        idx = c.substring or c.listing
        _sparse_tables_are_sound(idx.short_tables, idx.tt.n)
        assert sum(len(v) for v, _ in idx.short_tables) > 0


@pytest.mark.parametrize("kind", ["substring", "listing"])
def test_labels_and_work_counters_survive_the_round_trip(kind, tmp_path):
    """Each short entry is labelled with what its slot reports, and a reopened
    index answers every short window of a world alike, counters included."""
    corpus = "".join(random.Random(5).choice("abcdefgh") for _ in range(400))
    if kind == "substring":
        docs = [generate(corpus, GenConfig(theta=0.3, seed=5))]
        ask = lambda idx, p, tau: (query_items(idx, p, tau), query_with_stats(idx, p, tau)[1])
    else:
        docs = list(generate_collection(corpus, GenConfig(theta=0.3, seed=5), 6).docs)
        ask = lambda idx, p, tau: (list_items(idx, p, tau), list_with_stats(idx, p, tau)[1])
    container = build_container(docs, 0.2, metric=None if kind == "substring" else "or")
    path = str(tmp_path / "labels.usi")
    save_container(container, path)
    built, loaded = (c.substring or c.listing for c in (container, load_container(path)))
    for idx in (built, loaded):
        owner = idx.tt.pos if kind == "substring" else idx.doc_of
        for _, depth in idx.short_tables:
            assert depth.labels.dtype == np.int32
            assert np.array_equal(depth.labels, owner[idx.saidx.sa[depth.slots - 1] - 1])
    rng = random.Random(6)
    asked = answered = 0
    for d in docs:
        w = sample_world(d, rng)
        for m in range(1, built.m_short + 1):
            for p in {w[s : s + m] for s in range(len(w) - m + 1)}:
                for tau in (0.2, 0.5):
                    items, stats = ask(built, p, tau)
                    assert ask(loaded, p, tau) == (items, stats)
                    assert stats.outputs == len(items) and stats.rmq_calls <= 2 * len(items) + 1
                    asked += 1
                    answered += len(items) > 1
    assert answered >= 10 and asked - answered >= 10  # both the sort of several hits and the short paths run


def test_load_rejects_a_version_1_container(genome, tmp_path):
    path = str(tmp_path / "v1.usi")
    save_container(build_container([genome], 0.1), path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest["format_version"] = 1
    entries["manifest.json"] = json.dumps(manifest).encode()
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match="unsupported container version 1"):
        load_container(path)


def _tampered(kind: str, member: str, change, genome, collection, tmp_path) -> str:
    """A saved container of ``kind`` whose ``member`` array went through ``change``.

    ``links`` is a substring container with approximate links.
    """
    path = str(tmp_path / "x.usi")
    if kind == "substring":
        container = build_container([genome], 0.1, m_short=2)
    elif kind == "links":
        container = build_container([genome], 0.1, epsilon=0.05, m_short=2)
    else:
        container = build_container(list(collection.docs), 0.1, metric="max")
    save_container(container, path)
    entries = _entries(path)
    buf = io.BytesIO()
    np.save(buf, change(np.load(io.BytesIO(entries[f"{member}.npy"]))))
    entries[f"{member}.npy"] = buf.getvalue()
    _rewrite(path, entries)
    return path


def _set_first(mask, value):
    """Set the entry at the first position ``mask(a)`` selects."""

    def change(a):
        a = a.copy()
        a[np.flatnonzero(mask(a))[0]] = value
        return a

    return change


@pytest.mark.parametrize(
    "kind, member, dtype",
    [
        ("substring", "codes", np.float64),
        ("substring", "codes", np.int64),
        ("substring", "sa", np.int64),
        ("substring", "pos", np.int32),
        ("substring", "cum", np.float32),
        ("substring", "short_1", np.float32),
        ("substring", "short_1_slots", np.int64),
        ("listing", "doc_factors", np.float64),
        ("links", "link_origin", np.int32),
        ("links", "link_pos", np.float64),
        ("links", "link_stored", np.float32),
        ("links", "link_odepth", np.int32),
        ("links", "link_tdepth", np.uint64),
    ],
)
def test_load_rejects_an_array_of_the_wrong_dtype(kind, member, dtype, genome, collection, tmp_path):
    path = _tampered(kind, member, lambda a: a.astype(dtype), genome, collection, tmp_path)
    with pytest.raises(ContainerError, match=f"array {member} has dtype"):
        load_container(path)


@pytest.mark.parametrize(
    "change",
    [
        lambda a: a[::-1].copy(),
        lambda a: np.concatenate([a[:1], a[:-1]]),  # a repeated slot
        _set_first(lambda a: a == a, 0),
        _set_first(lambda a: a == a.max(), 10**6),
    ],
    ids=["reversed", "repeated", "zero", "past n"],
)
def test_load_rejects_slots_out_of_order_or_range(change, genome, collection, tmp_path):
    path = _tampered("substring", "short_2_slots", change, genome, collection, tmp_path)
    with pytest.raises(ContainerError, match="short_2_slots holds slots"):
        load_container(path)


def test_load_rejects_slots_and_values_of_different_lengths(genome, collection, tmp_path):
    path = _tampered("substring", "short_2_slots", lambda a: a[:-1], genome, collection, tmp_path)
    with pytest.raises(ContainerError, match="short_2 has shape"):
        load_container(path)


@pytest.mark.parametrize("kind", ["substring", "listing"])
@pytest.mark.parametrize("bad", [0.0, -0.25, 1.5, np.nan])
def test_load_rejects_a_short_value_outside_the_unit_interval(kind, bad, genome, collection, tmp_path):
    path = _tampered(kind, "short_1", _set_first(lambda a: a == a, bad), genome, collection, tmp_path)
    with pytest.raises(ContainerError, match="short_1 holds a value outside"):
        load_container(path)


def test_listing_or_scores_may_exceed_one_but_not_be_nan(collection, tmp_path):
    path = str(tmp_path / "or.usi")
    save_container(build_container(list(collection.docs), 0.1, metric="or"), path)
    entries = _entries(path)
    for bad, ok in ((1.5, True), (np.inf, False), (np.nan, False)):
        buf = io.BytesIO()
        np.save(buf, _set_first(lambda a: a == a, bad)(np.load(io.BytesIO(entries["short_1.npy"]))))
        _rewrite(path, {**entries, "short_1.npy": buf.getvalue()})
        if ok:
            load_container(path)
        else:
            with pytest.raises(ContainerError, match="short_1 holds a value outside"):
                load_container(path)


def _empty_first_factor(a):
    """Move the first separator to the front, leaving an empty first factor."""
    e = np.flatnonzero(a < 0)[0]
    return np.concatenate([a[e : e + 1], a[:e], a[e + 1 :]])


def _swap_first_separators(a):
    a = a.copy()
    i, j = np.flatnonzero(a < 0)[:2]
    a[i], a[j] = a[j], a[i]
    return a


@pytest.mark.parametrize(
    "kind, member, change, what",
    [
        ("substring", "pos", lambda a: a[::-1].copy(), "factor starts that decrease within a document"),
        ("substring", "cum", _set_first(lambda a: a == -1.0, 0.5), "a probability at a separator"),
        ("substring", "cum", _set_first(lambda a: a > 0, np.nan), "a probability outside"),
        ("listing", "cum", _set_first(lambda a: a > 0, 1.5), "a probability outside"),
        ("substring", "cum", _set_first(lambda a: a > 0, -0.25), "a probability outside"),
        ("substring", "pos", _set_first(lambda a: a > 0, 0), "a factor start outside its source"),
        ("substring", "pos", lambda a: a + 1, "a factor start outside its source"),
        ("substring", "pos", lambda a: np.full_like(a, 11), "a factor start outside its source"),
        ("listing", "pos", lambda a: a + 3, "a factor start outside its source"),
        ("substring", "codes", _set_first(lambda a: a > 0, 0x110000), "a code that no text holds"),
        ("substring", "codes", lambda a: np.roll(a, -1), "separators that are not"),
        ("substring", "codes", _swap_first_separators, "separators that are not"),
        ("listing", "codes", _empty_first_factor, "separators that are not"),
        ("listing", "doc_factors", _set_first(lambda a: a == a, -1), "factor counts that are negative"),
        ("listing", "doc_factors", lambda a: a + 1, "factor counts that are negative or do not sum"),
    ],
    ids=[
        "pos reversed",
        "cum at a separator",
        "cum NaN at a letter",
        "cum above 1",
        "cum negative",
        "pos zero",
        "pos past the string",
        "pos run overrunning the string",
        "pos past its document",
        "codes past the code points",
        "codes without a trailing separator",
        "codes separators out of order",
        "codes with an empty factor",
        "doc_factors negative",
        "doc_factors not summing to the factors",
    ],
)
def test_load_rejects_tampered_text_arrays(kind, member, change, what, genome, collection, tmp_path):
    path = _tampered(kind, member, change, genome, collection, tmp_path)
    with pytest.raises(ContainerError, match=f"array {member} holds {what}"):
        load_container(path)


@pytest.mark.parametrize(
    "member, change, what",
    [
        ("link_origin", lambda a: a[::-1].copy(), "origins that are not non-decreasing"),
        ("link_origin", _set_first(lambda a: a == a, 0), "origins that are not non-decreasing"),
        ("link_origin", _set_first(lambda a: a == a.max(), 10**6), "origins that are not non-decreasing"),
        ("link_pos", lambda a: a + 10**6, "a position outside its source"),
        ("link_pos", _set_first(lambda a: a == a, 0), "a position outside its source"),
        ("link_tdepth", _set_first(lambda a: a == a, -1), "a depth interval"),
        ("link_tdepth", lambda a: a + 10**6, "a depth interval"),
        ("link_stored", _set_first(lambda a: a == a, 0.0), "a value outside"),
        ("link_stored", _set_first(lambda a: a == a, 1.5), "a value outside"),
        ("link_stored", lambda a: np.where(np.arange(a.size) % 2 == 0, np.nan, a), "a value outside"),
    ],
    ids=[
        "origin reversed",
        "origin zero",
        "origin past n",
        "pos shifted past the string",
        "pos zero",
        "tdepth negative",
        "tdepth not below odepth",
        "stored zero",
        "stored above one",
        "stored NaN",
    ],
)
def test_load_rejects_tampered_link_arrays(member, change, what, genome, collection, tmp_path):
    path = _tampered("links", member, change, genome, collection, tmp_path)
    with pytest.raises(ContainerError, match=f"array {member} holds {what}"):
        load_container(path)


@pytest.mark.parametrize(
    "kind, change",
    [
        ("substring", lambda a: np.concatenate([a[1::-1], a[2:]])),
        ("links", lambda a: np.roll(a, 1)),
        ("substring", _set_first(lambda a: a == a.max(), 10**6)),
        ("substring", _set_first(lambda a: a == a.min(), 0)),
        ("listing", lambda a: np.concatenate([a[:1], a[:-1]])),
        ("listing", lambda a: np.concatenate([a[:-2], a[:-3:-1]])),
    ],
    ids=["swapped", "rotated", "past n", "zero", "duplicated", "last two swapped"],
)
def test_load_rejects_a_tampered_suffix_array(kind, change, genome, collection, tmp_path):
    path = _tampered(kind, "sa", change, genome, collection, tmp_path)
    with pytest.raises(ContainerError, match="stored suffix array"):
        load_container(path)


@pytest.mark.parametrize("kind", ["substring", "links", "listing", "empty"])
def test_a_load_never_sorts_suffixes(kind, genome, collection, tmp_path, monkeypatch):
    if kind == "listing":
        container = build_container(list(collection.docs), 0.1, metric="or")
    elif kind == "empty":
        # every window of two even positions is below tau_min 0.9, so no factor survives
        u = UncertainString("flat", ({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}))
        container = build_container([u], 0.9, epsilon=0.05, m_short=3)
    else:
        container = build_container([genome], 0.1, epsilon=0.05 if kind == "links" else None)
    path = str(tmp_path / "sorted.usi")
    save_container(container, path)

    def no_sorting(text):
        raise AssertionError("a load sorted the suffixes")

    for module in (textcore, container_module):
        monkeypatch.setattr(module, "build_suffix_array", no_sorting)
    back = load_container(path)
    for p in ("A", "AT", "BF", "TTAGA", "a", "ab"):
        if kind == "listing":
            assert list_items(back.listing, p, 0.1) == list_items(container.listing, p, 0.1)
        else:
            tau = 0.9 if kind == "empty" else 0.1
            assert query_items(back.substring, p, tau) == query_items(container.substring, p, tau)
            if container.links is not None:
                assert approx_items(back.links, p, tau) == approx_items(container.links, p, tau)
    idx, built = back.substring or back.listing, container.substring or container.listing
    assert np.array_equal(idx.saidx.sa, built.saidx.sa)
    assert idx.tt.codes.dtype == idx.saidx.sa.dtype == np.int64
    assert np.array_equal(idx.tt.pos, built.tt.pos)
    if kind == "listing":
        assert np.array_equal(back.listing.doc_of, container.listing.doc_of)
