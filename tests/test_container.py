"""Container save/load: identical answers, kind routing, version gate."""

from __future__ import annotations

import io
import json
import random
import time
import zipfile
from dataclasses import fields, replace

import numpy as np
import pytest

from ustrindex import approx as approx_module
from ustrindex import container as container_module
from ustrindex import textcore
from ustrindex import (
    ContainerError,
    DocumentCollection,
    GenConfig,
    IndexContainer,
    ThresholdError,
    UncertainString,
    approx_items,
    build,
    build_container,
    build_links,
    build_listing,
    generate,
    generate_collection,
    list_items,
    list_with_stats,
    load_container,
    oracle_search,
    partition_links,
    query,
    query_items,
    query_with_stats,
    sample_world,
    save_container,
    serialize_ust,
)

from helpers import check_short_tables, random_ustring, with_m_short


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
    assert back.substring.tt.tau_min == 0.1 and back.links.eps == 0.05
    # long tables are built on first read, so nothing about them is stored
    manifest = json.loads(_entries(path)["manifest.json"])
    assert set(manifest) == {"format_version", "tau_min", "epsilon", "metric", "documents", "digests"}
    assert manifest["documents"] == [[genome.name, genome.n]]
    assert _entries(path)["source.ust"].decode() == serialize_ust([genome])
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

    assert back.kind == "listing" and back.listing.metric == "or"
    # the document map is derived from the text, never handed in
    assert np.array_equal(back.listing.doc_of, back.listing.tt.doc_of())
    assert np.array_equal(back.listing.doc_of, container.listing.doc_of)
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
    assert single.links is None and single.listing is None


def test_build_container_rejects_bad_combinations(genome, collection):
    with pytest.raises(ValueError):
        build_container([], 0.1)
    with pytest.raises(ValueError):
        build_container([genome], 0.1, epsilon=0.05, metric="max")
    with pytest.raises(ValueError):
        build_container(list(collection.docs), 0.1, epsilon=0.05)


def test_the_container_holds_indexes_and_no_copy_of_their_parameters():
    assert [f.name for f in fields(IndexContainer)] == ["substring", "listing", "links"]


@pytest.mark.parametrize("shape", ["empty", "both", "links-on-listing", "links-on-other-text"])
def test_save_rejects_inconsistent_containers(genome, collection, shape, tmp_path):
    sub, lidx = build(genome, 0.1), build_listing(collection, 0.1)
    links = build_container([genome], 0.1, epsilon=0.05).links  # over an equal text, but not sub's
    container, message = {
        "empty": (IndexContainer(), "exactly one substring or listing index"),
        "both": (IndexContainer(substring=sub, listing=lidx), "exactly one substring or listing index"),
        "links-on-listing": (IndexContainer(listing=lidx, links=links), "need the substring index"),
        "links-on-other-text": (IndexContainer(substring=sub, links=links), "built over another text"),
    }[shape]
    path = tmp_path / "bad.usi"
    with pytest.raises(ValueError, match=message):
        save_container(container, str(path))
    assert not path.exists()


def test_a_saved_floor_is_the_one_the_text_was_built_at(tmp_path):
    # the floor is read from the text, so no container can claim 0.05 over a 0.2 text and answer below it
    u = random_ustring(random.Random(26), n=60, alphabet="abc", theta=0.6)
    path = str(tmp_path / "floor.usi")
    save_container(IndexContainer(substring=build(u, 0.2)), path)
    back = load_container(path)
    assert json.loads(_entries(path)["manifest.json"])["tau_min"] == "0.2"
    assert back.substring.tau_min == back.substring.tt.tau_min == 0.2
    with pytest.raises(ThresholdError):
        query_items(back.substring, "ab", 0.1)
    for p in ("a", "ab", "bca", "abca"):
        assert set(query(back.substring, p, 0.2)) == oracle_search(u, p, 0.2)


def test_a_saved_metric_is_the_listing_index_s(collection, tmp_path):
    # the metric is read from the listing index, so no container can claim "or" over a "max" index
    lidx = build_listing(collection, 0.05, "max")
    path = str(tmp_path / "max.usi")
    save_container(IndexContainer(listing=lidx), path)
    back = load_container(path)
    assert json.loads(_entries(path)["manifest.json"])["metric"] == "max"
    assert back.listing.metric == "max"
    for p in ("A", "B", "BF", "BFA", "FJ"):
        for tau in (0.05, 0.1, 0.3):
            assert list_items(back.listing, p, tau) == list_items(lidx, p, tau)


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


def test_load_rejects_a_version_5_container_with_stored_short_tables(genome, tmp_path):
    path = str(tmp_path / "v5.usi")
    container = with_m_short(build_container([genome], 0.1), 2)
    save_container(container, path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest["format_version"] = 5
    entries["manifest.json"] = json.dumps(manifest).encode()
    # version 5 stored each short depth's values and slots
    for i, (values, depth) in enumerate(container.substring.short_tables, start=1):
        for name, arr in ((f"short_{i}", values), (f"short_{i}_slots", depth.slots)):
            buf = io.BytesIO()
            np.save(buf, arr)
            entries[f"{name}.npy"] = buf.getvalue()
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match="unsupported container version 5"):
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
    del entries["cum.npy"]
    _rewrite(path, entries)
    with pytest.raises(ContainerError, match="cum"):
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
        ("metric", 5),
        ("metric", ["max"]),
        ("digests", ["manifest"]),
        ("epsilon", [0.05]),
    ],
)
def test_load_rejects_a_manifest_field_of_the_wrong_type(field, value, genome, tmp_path):
    path = str(tmp_path / "t.usi")
    save_container(build_container([genome], 0.1, epsilon=0.05), path)
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
    # no manifest field holds the short/long cut, so a written one is a field no save writes,
    # sealed or resealed, rejected at once: the load derives the cut from the text and builds no table list
    path = str(tmp_path / "s.usi")
    if kind == "substring":
        container = build_container([genome], 0.1, epsilon=0.05)
    else:
        container = build_container(list(collection.docs), 0.1, metric="max")
    save_container(container, path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest["m_short"] = m_short
    entries["manifest.json"] = json.dumps(manifest).encode()
    start = time.perf_counter()
    for sealed in (entries, _resealed(entries)):
        _rewrite(path, sealed)
        with pytest.raises(ContainerError, match=r"manifest fields differ .* unknown \['m_short'\], missing \[\]"):
            load_container(path)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kind", ["substring", "listing"])
def test_m_short_is_bounded_by_the_text_length(kind, genome, collection, tmp_path):
    container = build_container([genome] if kind == "substring" else list(collection.docs), 0.1)
    path = str(tmp_path / "b.usi")
    save_container(container, path)
    # built or loaded, the cut is bit_length(n) - 1 for a text of n codes, at least 1: never above max(1, n)
    for c in (container, load_container(path)):
        idx = c.substring or c.listing
        assert idx.m_short == max(1, idx.tt.n.bit_length() - 1) <= max(1, idx.tt.n)
    assert "m_short" not in json.loads(_entries(path)["manifest.json"])


@pytest.mark.parametrize("kind", ["substring", "listing", "links"])
def test_an_empty_transformed_text_round_trips_and_answers_nothing(kind, tmp_path):
    # every window of two even positions is below tau_min 0.9, so no factor survives
    u = UncertainString("flat", ({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}))
    if kind == "substring":
        container = IndexContainer(substring=build(u, 0.9))
    elif kind == "listing":
        container = IndexContainer(listing=build_listing(DocumentCollection((u,)), 0.9, "or"))
    else:
        container = build_container([u], 0.9, epsilon=0.05)
    path = str(tmp_path / "empty.usi")
    save_container(container, path)
    for c in (container, load_container(path)):
        idx = c.substring or c.listing
        # the cut of an empty text is 1, the least there is
        assert idx.tt.n == 0 and idx.m_short == 1
        assert [(v.size, d.slots.size) for v, d in idx.short_tables] == [(0, 0)]
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
    # neither a built nor a loaded index computes the LCP array
    assert "lcp" not in vars((container.substring or container.listing).saidx)
    assert "lcp" not in vars((back.substring or back.listing).saidx)


def test_builds_read_no_lcp_array_and_keep_no_ranks(genome, collection, monkeypatch):
    def no_lcp(self):
        raise AssertionError("a build read the LCP array")

    monkeypatch.setattr(textcore.SuffixArrayIndex, "lcp", property(no_lcp))
    # the link build lifts from the ranks that the build's sort kept, and empties them
    lifted = []

    def lift(rounds, a, b):
        lifted.append((rounds, len(rounds)))
        return textcore._lift(rounds, a, b)

    def no_sorting(codes, rounds=None):
        raise AssertionError("the link build sorted the suffixes again")

    monkeypatch.setattr(approx_module, "_lift", lift)
    monkeypatch.setattr(approx_module, "_prefix_doubling", no_sorting)
    built = [
        build(genome, 0.1),
        build_listing(collection, 0.1, "or"),
        build_container([genome], 0.1, epsilon=0.05).substring,
        build_container(list(collection.docs), 0.1, metric="max").listing,
    ]
    assert [(rounds, kept > 0) for rounds, kept in lifted] == [([], True)]
    for idx in built:
        assert set(vars(idx.saidx)) == {"codes", "sa"}


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
    entries["source.ust"] = serialize_ust(DocumentCollection((genome, correlated))).encode()
    manifest["documents"] = [[d.name, d.n] for d in (genome, correlated)]
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
        ("listing", "pos"),
        ("substring", "link_tdepth"),
        ("substring", "sa"),
        ("listing", "doc_factors"),
    ],
)
def test_load_rejects_an_array_of_the_wrong_length(kind, member, genome, collection, tmp_path):
    path = str(tmp_path / "l.usi")
    if kind == "substring":
        container = build_container([genome], 0.1, epsilon=0.05)
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
        container = build_container([genome], 0.1)
    elif kind == "links":
        container = build_container([genome], 0.1, epsilon=0.05)
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
        ("substring", "codes", np.int32),
        ("substring", "codes", np.uint16),
        ("substring", "sa", np.int64),
        ("substring", "pos", np.int64),
        ("substring", "cum", np.float32),
        ("listing", "cum", np.float32),
        ("listing", "pos", np.int64),
        ("listing", "doc_factors", np.float64),
        ("listing", "doc_factors", np.int64),
        ("links", "link_origin", np.int64),
        ("links", "link_pos", np.float64),
        ("links", "link_stored", np.float32),
        ("links", "link_odepth", np.int64),
        ("links", "link_tdepth", np.uint64),
    ],
)
def test_load_rejects_an_array_of_the_wrong_dtype(kind, member, dtype, genome, collection, tmp_path):
    path = _tampered(kind, member, lambda a: a.astype(dtype), genome, collection, tmp_path)
    with pytest.raises(ContainerError, match=f"array {member} has dtype"):
        load_container(path)


@pytest.mark.parametrize(
    "change, what",
    [
        (lambda a: a[::-1].copy(), "does not sort the suffixes"),
        (lambda a: np.concatenate([a[:1], a[:-1]]), "is not a permutation"),  # a repeated offset
        (_set_first(lambda a: a == a, 0), "is not a permutation"),
        (_set_first(lambda a: a == a.max(), 10**6), "is not a permutation"),
    ],
    ids=["reversed", "repeated", "zero", "past n"],
)
def test_load_rejects_slots_out_of_order_or_range(change, what, genome, collection, tmp_path):
    # a short table's slots are the ranks ``sa`` gives the factor starts, so a
    # suffix array that puts slots out of order or range is rejected before any table is built
    path = _tampered("substring", "sa", change, genome, collection, tmp_path)
    with pytest.raises(ContainerError, match=f"the stored suffix array {what}"):
        load_container(path)


@pytest.mark.parametrize("kind", ["substring", "listing-max", "listing-or", "listing-orx"])
def test_short_tables_of_a_built_and_a_loaded_index_equal_the_eager_reference(kind, genome, collection, tmp_path):
    if kind == "substring":
        container = build_container([genome], 0.1, epsilon=0.05)
    else:
        container = build_container(list(collection.docs), 0.05, metric=kind.split("-")[1])
    path = str(tmp_path / "ref.usi")
    save_container(container, path)
    for c in (container, load_container(path)):
        check_short_tables(c.substring or c.listing)


@pytest.mark.parametrize("kind", ["substring", "listing"])
@pytest.mark.parametrize("bad", [-0.25, 1.5, np.inf, np.nan])
def test_load_rejects_a_factor_start_cum_outside_the_unit_interval(kind, bad, genome, collection, tmp_path):
    # cum at the text's first offset is the first factor's depth-1 value, which a short table reads
    path = _tampered(kind, "cum", _set_first(lambda a: a == a, bad), genome, collection, tmp_path)
    with pytest.raises(ContainerError, match="array cum holds a probability outside"):
        load_container(path)


def test_listing_or_scores_may_exceed_one_but_not_be_nan(tmp_path):
    # four certain "a"s: the "or" score of "a" folds four occurrences of 1.0 into 4 - 1 = 3
    docs = [UncertainString("aaaa", tuple({"a": 1.0} for _ in range(4))), UncertainString("b", ({"b": 1.0},))]
    container = build_container(docs, 0.1, metric="or")
    path = str(tmp_path / "or.usi")
    save_container(container, path)
    for c in (container, load_container(path)):
        values, _ = c.listing.short_table(1)
        assert values.max() > 1.0
        assert list_items(c.listing, "a", 0.5) == [("aaaa", 3.0)]
    entries = _entries(path)
    for bad in (np.inf, np.nan):
        buf = io.BytesIO()
        np.save(buf, _set_first(lambda a: a == a, bad)(np.load(io.BytesIO(entries["cum.npy"]))))
        _rewrite(path, {**entries, "cum.npy": buf.getvalue()})
        with pytest.raises(ContainerError, match="array cum holds a probability outside"):
            load_container(path)


def _empty_first_factor(a):
    """Move the first separator (a stored 0) to the front, leaving an empty first factor."""
    e = np.flatnonzero(a == 0)[0]
    return np.concatenate([a[e : e + 1], a[:e], a[e + 1 :]])


def _past_the_code_points(a):
    """The first letter stored as code point 0x110000, in the uint32 that can hold it."""
    return _set_first(lambda a: a > 0, 0x110000 + 1)(a.astype(np.uint32))


@pytest.mark.parametrize(
    "kind, member, change, what",
    [
        ("substring", "pos", lambda a: a[::-1].copy(), "factor starts that decrease within a document"),
        ("substring", "cum", _set_first(lambda a: a > 0, np.nan), "a probability outside"),
        ("listing", "cum", _set_first(lambda a: a > 0, 1.5), "a probability outside"),
        ("substring", "cum", _set_first(lambda a: a > 0, -0.25), "a probability outside"),
        ("substring", "pos", _set_first(lambda a: a > 0, 0), "a factor start outside its source"),
        ("substring", "pos", lambda a: a + 1, "a factor start outside its source"),
        ("substring", "pos", lambda a: np.full_like(a, 11), "a factor start outside its source"),
        ("listing", "pos", lambda a: a + 3, "a factor start outside its source"),
        ("substring", "codes", _past_the_code_points, "a code that no text holds"),
        ("substring", "codes", lambda a: np.roll(a, -1), "separators that are not"),
        ("listing", "codes", _empty_first_factor, "separators that are not"),
        ("listing", "doc_factors", _set_first(lambda a: a == a, -1), "factor counts that are negative"),
        ("listing", "doc_factors", lambda a: a + 1, "factor counts that are negative or do not sum"),
    ],
    ids=[
        "pos reversed",
        "cum NaN at a letter",
        "cum above 1",
        "cum negative",
        "pos zero",
        "pos past the string",
        "pos run overrunning the string",
        "pos past its document",
        "codes past the code points",
        "codes without a trailing separator",
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
        container = build_container([u], 0.9, epsilon=0.05)
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
    assert idx.tt.codes.dtype == idx.saidx.sa.dtype == np.int32
    assert np.array_equal(idx.tt.pos, built.tt.pos)
    if kind == "listing":
        assert np.array_equal(back.listing.doc_of, container.listing.doc_of)


def _resealed(entries: dict[str, bytes]) -> dict[str, bytes]:
    """``entries`` with the manifest's digests rewritten to fit them, as a tamperer who knows the format would."""
    manifest = json.loads(entries["manifest.json"])
    members = {name: container_module._sha256(data) for name, data in entries.items() if name != "manifest.json"}
    manifest["digests"] = container_module._digests(manifest, members)
    return {**entries, "manifest.json": json.dumps(manifest).encode()}


def _lower_first_factor_start(a):
    """Move one factor start a position left, keeping it in its string and in order."""
    a = a.copy()
    k = next(k for k in range(a.size) if a[k] - 1 >= (a[k - 1] if k else 1))
    a[k] -= 1
    return a


@pytest.mark.parametrize("tamper", ["tau_min lowered", "cum plausible", "pos moved"])
def test_load_rejects_a_plausible_tamper_by_its_digest(tamper, genome, collection, tmp_path):
    # each change keeps every load check happy, and each changes an answer
    if tamper == "tau_min lowered":
        path = str(tmp_path / "x.usi")
        save_container(build_container([genome], 0.1), path)
        entries = _entries(path)
        manifest = json.loads(entries["manifest.json"]) | {"tau_min": "0.05"}
        _rewrite(path, {**entries, "manifest.json": json.dumps(manifest).encode()})
    elif tamper == "cum plausible":
        path = _tampered("substring", "cum", lambda a: np.where(a > 0, a / 2, a), genome, collection, tmp_path)
    else:
        path = _tampered("substring", "pos", _lower_first_factor_start, genome, collection, tmp_path)
    with pytest.raises(ContainerError, match="does not match its digest"):
        load_container(path)


@pytest.mark.parametrize(
    "change, what",
    [
        (lambda e: {**e, "extra.npy": e["cum.npy"]}, "member extra.npy has no digest"),
        (lambda e: {**e, "sa.npy": e["sa.npy"] + b" "}, "sa.npy does not match its digest"),
        (lambda e: {**e, "source.ust": e["source.ust"].replace(b"ustr genome", b"ustr genomE")}, "source.ust does"),
    ],
    ids=["member without a digest", "member padded", "source renamed"],
)
def test_load_rejects_a_member_or_source_that_differs_from_its_digest(change, what, genome, tmp_path):
    path = str(tmp_path / "d.usi")
    save_container(build_container([genome], 0.1, epsilon=0.05), path)
    _rewrite(path, change(_entries(path)))
    with pytest.raises(ContainerError, match=what):
        load_container(path)


def _with_documents(kind: str, documents, genome, collection, tmp_path) -> str:
    path = str(tmp_path / "n.usi")
    if kind == "substring":
        container = build_container([genome], 0.1, epsilon=0.05)
    else:
        container = build_container(list(collection.docs), 0.1, metric="max")
    save_container(container, path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    manifest["documents"] = documents(manifest["documents"])
    _rewrite(path, {**entries, "manifest.json": json.dumps(manifest).encode()})
    return path


@pytest.mark.parametrize(
    "kind, documents, what",
    [
        ("substring", lambda d: "genome", "manifest documents 'genome' is of the wrong type"),
        ("substring", lambda d: {"genome": 11}, "manifest documents .* is of the wrong type"),
        ("substring", lambda d: [["genome", "11"]], "not a \\[name, length\\] pair"),
        ("substring", lambda d: [["genome", True]], "not a \\[name, length\\] pair"),
        ("listing", lambda d: [[name, n] for name, n, *_ in d] + [["d4"]], "not a \\[name, length\\] pair"),
        ("listing", lambda d: [d[0], d[0], d[2]], "names a document twice"),
        ("substring", lambda d: [["genome", 0]], "a length below 1"),
        ("listing", lambda d: d[:2] + [["d3", -3]], "a length below 1"),
        ("substring", lambda d: [], "one source string, not 0"),
        ("substring", lambda d: d + [["other", 4]], "one source string, not 2"),
        ("listing", lambda d: [], "names no document"),
        ("listing", lambda d: d[:2], "array doc_factors has shape \\(3,\\), expected \\(2,\\)"),
        ("listing", lambda d: d + [["d4", 2]], "array doc_factors has shape \\(3,\\), expected \\(4,\\)"),
    ],
    ids=[
        "a string",
        "an object",
        "a length as a string",
        "a length as a boolean",
        "a pair cut short",
        "a name twice",
        "a zero length",
        "a negative length",
        "no substring document",
        "two substring documents",
        "no listing document",
        "fewer than doc_factors",
        "more than doc_factors",
    ],
)
def test_load_rejects_bad_manifest_documents(kind, documents, what, genome, collection, tmp_path):
    path = _with_documents(kind, documents, genome, collection, tmp_path)
    with pytest.raises(ContainerError, match=what):
        load_container(path)


@pytest.mark.parametrize("kind", ["links", "listing"])
@pytest.mark.parametrize("fault", ["unparsable", "renamed", "shorter"])
def test_a_bad_source_loads_and_raises_on_first_read(kind, fault, genome, collection, tmp_path):
    path = str(tmp_path / "s.usi")
    if kind == "links":
        docs = [genome]
        container = build_container(docs, 0.1, epsilon=0.05)
    else:
        docs = list(collection.docs)
        container = build_container(docs, 0.1, metric="or")
    save_container(container, path)
    if fault == "unparsable":
        source = "ustr x\npos a\nend\n"
    elif fault == "renamed":
        source = serialize_ust([replace(docs[0], name="zz"), *docs[1:]])
    else:
        source = serialize_ust([replace(docs[0], positions=docs[0].positions[:-1]), *docs[1:]])
    _rewrite(path, _resealed({**_entries(path), "source.ust": source.encode()}))

    back = load_container(path)
    what = "does not parse" if fault == "unparsable" else "does not hold the documents the manifest names"
    if kind == "links":
        idx = back.substring
        assert query_items(idx, "AT", 0.1) == query_items(container.substring, "AT", 0.1)
        assert approx_items(back.links, "AT", 0.1) == approx_items(container.links, "AT", 0.1)
        readers = [lambda: idx.u, lambda: idx.tt.source, lambda: partition_links(build_links(idx.tt, idx.saidx), 0.05)]
    else:
        assert list_items(back.listing, "BF", 0.1) == list_items(container.listing, "BF", 0.1)
        readers = [lambda: back.listing.collection]
    for read in readers:
        for _ in range(2):  # a failed read caches nothing, so it fails alike again
            with pytest.raises(ContainerError, match=f"the stored source {what}"):
                read()


def _one_query_of_each_kind(c, short: str, long: str, tau: float) -> list:
    """Answers (values as ``float.hex``) and work counters of one short and one long query, and an approx one."""
    hexed = lambda items: [(k, v.hex()) for k, v in items]
    out = []
    for p in (short, long):
        if c.listing is not None:
            out.append((hexed(list_items(c.listing, p, tau)), list_with_stats(c.listing, p, tau)[1]))
        else:
            out.append((hexed(query_items(c.substring, p, tau)), query_with_stats(c.substring, p, tau)[1]))
    if c.links is not None:
        out.append(hexed(approx_items(c.links, short, tau)))
    return out


@pytest.mark.parametrize("kind", ["substring", "links", "listing-max", "listing-or", "listing-orx", "empty"])
def test_a_load_never_parses_the_source(kind, genome, collection, tmp_path, monkeypatch):
    tau = 0.1
    if kind.startswith("listing"):
        container = with_m_short(build_container(list(collection.docs), tau, metric=kind.split("-")[1]), 1)
        short, long = "B", "BF"
    elif kind == "empty":
        tau = 0.9
        u = UncertainString("flat", ({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}))
        container = build_container([u], tau, epsilon=0.05)
        short, long = "a", "ab"
    else:
        container = with_m_short(build_container([genome], tau, epsilon=0.05 if kind == "links" else None), 1)
        short, long = "A", "AT"
    path, again = str(tmp_path / "p.usi"), str(tmp_path / "again.usi")
    save_container(container, path)
    calls = []
    real = container_module.parse_ust
    monkeypatch.setattr(container_module, "parse_ust", lambda *a, **k: calls.append(1) or real(*a, **k))

    back = with_m_short(load_container(path), (container.substring or container.listing).m_short)
    answers = _one_query_of_each_kind(back, short, long, tau)
    save_container(back, again)
    assert calls == []
    assert answers == _one_query_of_each_kind(container, short, long, tau)
    assert kind == "empty" or all(items for items, _ in answers[:2])
    assert _entries(again) == _entries(path)

    if back.listing is not None:
        read, want = lambda: back.listing.collection, container.listing.collection
    else:
        read, want = lambda: back.substring.u, container.substring.u
    assert read() == want and len(calls) == 1
    assert read() == want and len(calls) == 1


def test_load_rejects_a_version_6_container_that_parses_its_source_on_load(genome, tmp_path):
    path = str(tmp_path / "v6.usi")
    save_container(build_container([genome], 0.1, epsilon=0.05), path)
    entries = _entries(path)
    manifest = json.loads(entries["manifest.json"])
    # version 6 kept no document names or lengths and no digests, and parsed the source on load
    manifest = {k: v for k, v in manifest.items() if k not in ("documents", "digests")} | {"format_version": 6}
    _rewrite(path, {**entries, "manifest.json": json.dumps(manifest).encode()})
    with pytest.raises(ContainerError, match="unsupported container version 6"):
        load_container(path)


def test_load_rejects_a_version_7_container_with_derivable_manifest_fields(genome, tmp_path):
    path = str(tmp_path / "v7.usi")
    container = build_container([genome], 0.1, epsilon=0.05)
    save_container(container, path)
    entries = _entries(path)
    # version 7 kept the kind, the short/long cut and the source text in the manifest, and no source.ust member
    source = entries.pop("source.ust").decode()
    manifest = json.loads(entries["manifest.json"])
    manifest |= {"format_version": 7, "kind": "substring", "m_short": container.substring.m_short, "source": source}
    _rewrite(path, {**entries, "manifest.json": json.dumps(manifest).encode()})
    with pytest.raises(ContainerError, match="unsupported container version 7"):
        load_container(path)


def test_load_rejects_a_source_that_is_not_utf8(genome, tmp_path):
    path = str(tmp_path / "u.usi")
    save_container(build_container([genome], 0.1), path)
    entries = _entries(path)
    _rewrite(path, _resealed({**entries, "source.ust": entries["source.ust"] + b"\xff"}))
    with pytest.raises(ContainerError, match="not a sound index container"):
        load_container(path)


@pytest.mark.parametrize("kind", ["substring", "links", "listing", "empty"])
def test_a_built_and_a_loaded_index_hold_the_same_arrays_and_dtypes(kind, genome, collection, tmp_path):
    if kind == "listing":
        built = build_container(list(collection.docs), 0.1, metric="or")
    elif kind == "empty":
        u = UncertainString("flat", ({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}))
        built = build_container([u], 0.9, epsilon=0.05)
    else:
        built = build_container([genome], 0.1, epsilon=0.05 if kind == "links" else None)
    path = str(tmp_path / "b.usi")
    save_container(built, path)
    loaded = load_container(path)

    def arrays(c: IndexContainer) -> dict[str, np.ndarray]:
        idx = c.substring or c.listing
        out = {"codes": idx.tt.codes, "sa": idx.saidx.sa, "pos": idx.tt.pos, "cum": idx.tt.cum}
        if c.listing is not None:
            out |= {"doc_factors": idx.tt.doc_factors, "doc_of": c.listing.doc_of}
        if c.links is not None:
            out |= {a: getattr(c.links, a) for a in ("origin", "pos_id", "stored", "o_depth", "t_depth")}
        return out

    want, got = arrays(built), arrays(loaded)
    assert got.keys() == want.keys()
    for name, a in want.items():
        assert (got[name].dtype, got[name].tobytes()) == (a.dtype, a.tobytes()), name
    floats = {"cum", "stored"}
    assert {name: a.dtype for name, a in want.items()} == {
        name: np.dtype(np.float64 if name in floats else np.int32) for name in want
    }


@pytest.mark.parametrize(
    "letters, dtype",
    [("ab", np.uint8), ("þÿ", np.uint16), ("αβ", np.uint16), ("a\U0001f600", np.uint32)],
    ids=["ascii", "latin-1 top", "greek", "astral"],
)
def test_codes_are_stored_narrow_and_cum_at_the_letters_alone(letters, dtype, tmp_path):
    x, y = letters
    u = UncertainString("w", ({x: 0.6, y: 0.4}, {x: 1.0}, {y: 0.7, x: 0.3}, {x: 1.0}))
    container = build_container([u], 0.2, epsilon=0.05)
    path = str(tmp_path / "w.usi")
    save_container(container, path)
    entries = _entries(path)
    codes, cum = (np.load(io.BytesIO(entries[f"{name}.npy"])) for name in ("codes", "cum"))
    tt = container.substring.tt
    # a letter is its code point + 1 and a separator 0, in the narrowest unsigned dtype that holds them
    assert codes.dtype == dtype and codes.tolist() == [c + 1 if c >= 0 else 0 for c in tt.codes.tolist()]
    assert cum.tobytes() == tt.cum[tt.codes >= 0].tobytes()
    back = load_container(path)
    assert back.substring.tt.codes.tolist() == tt.codes.tolist()
    for p in (x, y, x + y, y + x, x + x + y, x + y + x + x):
        for tau in (0.2, 0.5):
            assert query_items(back.substring, p, tau) == query_items(container.substring, p, tau)
            assert approx_items(back.links, p, tau) == approx_items(container.links, p, tau)


def test_load_rejects_a_version_8_container(genome, tmp_path):
    path = str(tmp_path / "v8.usi")
    container = build_container([genome], 0.1, epsilon=0.05)
    save_container(container, path)
    entries = _entries(path)
    # version 8 stored codes as int32 with its negative separators, cum at every code, pos and links as int64
    tt, links = container.substring.tt, container.links
    version_8 = {"codes": tt.codes, "cum": tt.cum, "pos": tt.pos[tt.factor_runs()[0]].astype(np.int64)}
    version_8 |= {f"link_{a}": getattr(links, f).astype(np.int64) for a, f in
                  (("origin", "origin"), ("pos", "pos_id"), ("odepth", "o_depth"), ("tdepth", "t_depth"))}
    for name, arr in version_8.items():
        buf = io.BytesIO()
        np.save(buf, arr)
        entries[f"{name}.npy"] = buf.getvalue()
    manifest = json.loads(entries["manifest.json"]) | {"format_version": 8}
    _rewrite(path, _resealed({**entries, "manifest.json": json.dumps(manifest).encode()}))
    with pytest.raises(ContainerError, match="unsupported container version 8"):
        load_container(path)


@pytest.mark.parametrize(
    "kind, change, what",
    [
        ("listing", lambda m: m | {"epsilon": "0.05"}, "manifest epsilon '0.05' on a listing index"),
        ("substring", lambda m: m | {"m_short": 3}, r"unknown \['m_short'\], missing \[\]"),
        ("listing", lambda m: m | {"kind": "listing"}, r"unknown \['kind'\], missing \[\]"),
        ("substring", lambda m: {k: v for k, v in m.items() if k != "metric"}, r"unknown \[\], missing \['metric'\]"),
    ],
    ids=["listing given epsilon", "substring given m_short", "listing given kind", "substring without metric"],
)
def test_load_rejects_manifest_fields_a_save_does_not_write(kind, change, what, genome, collection, tmp_path):
    # resealed, so the digests hold and only the fields themselves can be at fault
    path = str(tmp_path / "f.usi")
    container = build_container([genome], 0.1) if kind == "substring" else build_container(list(collection.docs), 0.1)
    save_container(container, path)
    entries = _entries(path)
    manifest = change(json.loads(entries["manifest.json"]))
    _rewrite(path, _resealed({**entries, "manifest.json": json.dumps(manifest).encode()}))
    with pytest.raises(ContainerError, match=what):
        load_container(path)
