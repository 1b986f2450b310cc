"""Suffix array, suffix range, tree view, and RMQ against brute-force references."""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustrindex import CapacityError, ContainerError, textcore
from ustrindex.qindex import QueryStats
from ustrindex.textcore import (
    SparseDepth,
    _lift,
    _prefix_doubling,
    TreeView,
    build_suffix_array,
    check_suffix_array,
    locus,
    rmq_build,
    rmq_query,
    rmq_report,
    suffix_range,
)

from helpers import (
    reference_check_suffix_array,
    reference_prefix_doubling,
    reference_report,
    reference_suffix_order,
)


def random_codes(rng: random.Random, max_len: int = 60) -> list[int]:
    """Integer text over a tiny alphabet with unique negative separators mixed in."""
    n = rng.randint(0, max_len)
    out = []
    sep = 0
    for _ in range(n):
        if rng.random() < 0.15:
            sep += 1
            out.append(-sep)
        else:
            out.append(rng.choice((97, 98, 99)))
    return out


def common_prefix(a: list[int], b: list[int]) -> int:
    h = 0
    while h < len(a) and h < len(b) and a[h] == b[h]:
        h += 1
    return h


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_suffix_array_and_lcp_match_brute_force(seed):
    rng = random.Random(seed)
    codes = separator_text(rng)
    idx = build_suffix_array(codes)
    order = reference_suffix_order(codes)
    assert idx.sa.tolist() == [i + 1 for i in order]
    want_lcp = [
        common_prefix(codes[order[k - 1] :], codes[order[k] :]) if k else 0
        for k in range(len(codes))
    ]
    assert idx.lcp.tolist() == want_lcp


def test_lcp_of_one_long_periodic_factor():
    # the text of a single 3,000-symbol factor "abab...ab": adjacent suffixes share up to 2,998 codes
    codes = np.array([97, 98] * 1500 + [-1])
    idx = build_suffix_array(codes)
    order = (idx.sa - 1).tolist()
    # "$" first, then the "a" suffixes and the "b" suffixes, each from shortest to longest
    assert order == [3000] + list(range(2998, -1, -2)) + list(range(2999, 0, -2))
    want = [0] * codes.size
    for k in range(1, codes.size):
        a, b = codes[order[k - 1] :], codes[order[k] :]
        m = min(a.size, b.size)
        want[k] = int(np.argmin(np.append(a[:m] == b[:m], False)))
    assert idx.lcp.tolist() == want
    assert max(want) == 2998
    # a checked array reruns the same pass for its LCP
    assert check_suffix_array(codes, idx.sa).lcp.tolist() == want


def test_suffix_array_handles_empty_text():
    idx = build_suffix_array([])
    assert idx.n == 0
    assert idx.sa.tolist() == []
    empty = np.zeros(0, dtype=np.int64)
    checked = check_suffix_array(empty, empty)
    assert checked.n == 0 and checked.sa.tolist() == []
    with pytest.raises(ContainerError, match="not a permutation"):
        check_suffix_array(empty, np.ones(1, dtype=np.int64))


def separator_text(rng: random.Random) -> list[int]:
    """A random separator text, or a repetitive one: runs of one short unit repeated."""
    if rng.random() < 0.5:
        return random_codes(rng)
    unit = [rng.choice((97, 98)) for _ in range(rng.randint(1, 3))]
    out: list[int] = []
    for k in range(rng.randint(1, 4)):
        out += unit * rng.randint(1, 12) + [-(k + 1)]
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_pair_lift_matches_brute_force(seed):
    rng = random.Random(seed)
    # a separator text around a one-letter run, which ends the text half of the time
    head, run = separator_text(rng), [rng.choice((97, 98))] * rng.randint(2, 70)
    codes = head + run + ([] if rng.random() < 0.5 else separator_text(rng))
    n = len(codes)
    rounds: list[np.ndarray] = []
    order = _prefix_doubling(np.asarray(codes, dtype=np.int64), rounds)
    # random pairs, pairs inside the run, and pairs with the last offsets, whose suffixes reach the end
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(60)}
    pairs |= {(a, a + d) for a in range(len(head), len(head) + len(run)) for d in (1, 2, 3, 5) if a + d < n}
    pairs |= {(a, b) for a in range(max(0, n - 4), n) for b in range(n)}
    a, b = (np.array(c, dtype=np.int64) for c in zip(*((a, b) for a, b in pairs if a != b)))
    want = [common_prefix(codes[i:], codes[j:]) for i, j in zip(a.tolist(), b.tolist())]
    assert _lift(rounds, a, b).tolist() == want
    # the LCP array is the lift over consecutive slots, for a built and a checked suffix array
    consecutive = [0] + _lift(rounds, order[:-1], order[1:]).tolist()
    # the top round is lifted: two neighbours share at least 2^(rounds - 1) codes
    assert not rounds or max(consecutive) >= 1 << (len(rounds) - 1)
    assert build_suffix_array(codes).lcp.tolist() == consecutive
    assert check_suffix_array(np.asarray(codes, dtype=np.int64), order + 1).lcp.tolist() == consecutive


def _sort_text(rng: random.Random, kind: str) -> list[int]:
    """A separator text of one kind: see ``test_prefix_doubling_matches_doubling_from_one_code``."""
    if kind == "separators":
        return separator_text(rng)
    if kind == "unterminated":  # ends inside a factor, or on letters only
        codes = separator_text(rng)
        return codes[: rng.randint(0, len(codes))] + [rng.choice((97, 98))] * rng.randint(0, 9)
    if kind == "repeated":  # separator codes that occur more than once
        return separator_text(rng) + separator_text(rng)
    letters = [97 + k for k in range(rng.randint(4, 7))]  # "3-bit": 4 to 7 letters pack in 3 bits
    out, sep = [], 0
    for _ in range(rng.randint(0, 80)):
        if rng.random() < 0.1:
            sep += 1
            out.append(-sep)
        else:
            out += [rng.choice(letters[:2])] * rng.randint(1, 6) if rng.random() < 0.2 else [rng.choice(letters)]
    return out


def _narrow_keys(codes, dtype, ties=False, pack=textcore._pack_letters):
    """``_pack_letters`` with the narrowest sort keys that hold one letter and the tie field: few letters to a key."""
    if ties:
        wide = pack(codes, np.uint64, ties)
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if wide.bits + wide.low <= 8 * t().itemsize)
    return pack(codes, dtype, ties)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(("separators", "unterminated", "repeated", "3-bit")), st.booleans())
def test_prefix_doubling_matches_doubling_from_one_code(seed, kind, narrow):
    """The order and every round's ranks (int32, bytes) equal those of a sort that starts from one code.

    ``narrow`` packs the first sort's keys into as few bytes as hold one
    letter, so that a key often holds one or two; 64-bit keys hold 8 to 32
    of these letters.
    """
    rng = random.Random(seed)
    codes = np.asarray(_sort_text(rng, kind), dtype=np.int64)
    want_rounds: list[np.ndarray] = []
    want = reference_prefix_doubling(codes, want_rounds)
    with mock.patch.object(textcore, "_pack_letters", _narrow_keys) if narrow else contextlib.nullcontext():
        rounds: list[np.ndarray] = []
        got = _prefix_doubling(codes, rounds)
        assert _prefix_doubling(codes).tolist() == got.tolist()
    assert got.tolist() == want.tolist() == reference_suffix_order(codes.tolist())
    assert len(rounds) == len(want_rounds)
    for a, b in zip(rounds, want_rounds):
        assert (a.dtype, a.tobytes()) == (np.dtype(np.int32), b.tobytes())


def test_prefix_doubling_packs_as_many_letters_as_fit():
    """Eight letters and 2**13 separators pack 8 to a key, 3-bit letters 16, 2**16 letters 2; one in a byte."""
    rng = np.random.default_rng(3)
    eight = np.where(np.arange(40_000) % 5 == 4, -1 - np.arange(40_000) // 5, rng.integers(97, 105, 40_000))
    three = eight.copy()
    three[three >= 0] = rng.integers(97, 101, int((three >= 0).sum()))
    # every code point from 0x20 on once, then runs of two letters: sorts of long repeats
    wide = np.concatenate((np.arange(0x20, 0x20 + (1 << 16)), rng.integers(0x20, 0x22, 5_000), [-1], [0x20] * 40))
    # five letters and five separators: a 3-bit letter and a 3-bit tie fill a byte
    one = np.where(np.arange(300) % 60 == 59, -1 - np.arange(300) // 60, rng.integers(97, 102, 300))
    for codes, per, pack in ((eight, 8, None), (three, 16, None), (wide, 2, None), (one, 1, _narrow_keys)):
        with mock.patch.object(textcore, "_pack_letters", pack) if pack else contextlib.nullcontext():
            assert textcore._pack_letters(codes, np.uint64, ties=True).per == per
            rounds: list[np.ndarray] = []
            got = _prefix_doubling(codes, rounds)
        want_rounds: list[np.ndarray] = []
        assert got.tolist() == reference_prefix_doubling(codes, want_rounds).tolist()
        assert [r.tobytes() for r in rounds] == [r.tobytes() for r in want_rounds]


def test_a_text_too_long_for_int32_ranks_raises_a_capacity_error(monkeypatch):
    def no_sorting(*args, **kwargs):
        raise AssertionError("a text too long for int32 ranks reached the sort")

    monkeypatch.setattr(np, "argsort", no_sorting)
    # a zero-stride view: 2**31 codes without allocating them
    codes = np.broadcast_to(np.int64(97), 1 << 31)
    with pytest.raises(CapacityError, match="int32"):
        build_suffix_array(codes)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_check_suffix_array_accepts_the_suffix_array_and_nothing_else(seed):
    rng = random.Random(seed)
    codes = np.asarray(separator_text(rng), dtype=np.int64)
    n = codes.size
    sa = build_suffix_array(codes).sa
    idx = check_suffix_array(codes, sa)
    assert idx.sa.tolist() == [i + 1 for i in reference_suffix_order(codes.tolist())]

    def swapped(i: int, j: int) -> np.ndarray:
        out = sa.copy()
        out[[i, j]] = out[[j, i]]
        return out

    bad = [swapped(k, k + 1) for k in range(n - 1)]
    if n > 1:
        bad += [swapped(*rng.sample(range(n), 2)) for _ in range(5)]
        bad.append(np.roll(sa, 1))
        duplicated = sa.copy()
        i, j = rng.sample(range(n), 2)
        duplicated[i] = sa[j]
        bad.append(duplicated)
    if n:
        out_of_range = sa.copy()
        out_of_range[rng.randrange(n)] = rng.choice((0, -1, n + 1))
        bad.append(out_of_range)
    for wrong in bad:
        with pytest.raises(ContainerError, match="stored suffix array"):
            check_suffix_array(codes, wrong)


def _verdict(check, codes: np.ndarray, sa: np.ndarray) -> str | None:
    """The message a check raises for ``sa``, or None when it accepts it."""
    try:
        check(codes, sa)
    except ContainerError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_the_fused_check_gives_the_verdict_of_the_two_compare_chains(seed):
    rng = random.Random(seed)
    codes = np.asarray(separator_text(rng), dtype=np.int32)
    n = codes.size
    sa = build_suffix_array(codes).sa
    cases = [(codes, sa)]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        k = rng.randrange(n - 1)
        for a, b in ((i, j), (k, k + 1)):
            swapped = sa.copy()
            swapped[[a, b]] = sa[[b, a]]
            cases.append((codes, swapped))
        duplicated = sa.copy()
        duplicated[i] = sa[j]
        cases.append((codes, duplicated))
    if n:
        for bad in (0, n + 1):
            out = sa.copy()
            out[rng.randrange(n)] = bad
            cases.append((codes, out))
        # another letter under the same array: the sort may or may not still hold
        changed = codes.copy()
        changed[rng.randrange(n)] = rng.choice((97, 98, 99))
        cases.append((changed, sa))
    for text, cand in cases:
        want = _verdict(reference_check_suffix_array, text.astype(np.int64), cand.astype(np.int64))
        assert _verdict(check_suffix_array, text, cand) == want
    assert _verdict(check_suffix_array, codes, sa) is None


def test_a_built_suffix_array_is_int32_over_int32_codes():
    codes = np.array([98, 97, -1, 97, 98, -2], dtype=np.int32)
    idx = build_suffix_array(codes)
    assert idx.codes is codes and idx.sa.dtype == np.int32
    assert build_suffix_array("abracadabra").codes.dtype == np.int32


def test_byte_words_shift_extreme_int32_codes_in_order():
    codes = np.array([-(1 << 31), -(1 << 31) + 1, -1, 0, 0x10FFFF, (1 << 31) - 1], dtype=np.int32)
    words = np.frombuffer(textcore._byte_words(codes), dtype=">u4")
    assert words.tolist() == [c + (1 << 31) for c in codes.tolist()]


def test_byte_starts_do_not_wrap_from_2_to_the_29_on():
    # a zero-stride text of 2**30 codes allocates nothing; 4 * (sa - 1) in int32 wraps from sa = 2**29 + 1 on
    n = 1 << 30
    sa = np.array([1, (1 << 29) + 1, n], dtype=np.int32)
    idx = textcore.SuffixArrayIndex(np.broadcast_to(np.int32(97), n), sa)
    assert idx.byte_starts.tolist() == [0, 1 << 31, 4 * (n - 1)]


def test_pair_keys_are_exact_at_the_int32_extremes():
    n = (1 << 31) - 1
    # the check pairs a code in [-n, 0x10FFFF] with a rank in [-1, n - 1], the sort a rank with a rank + 1 in [0, n]
    major = np.array([-n, -n, -1, 0, 0x10FFFF, n - 1, n - 1], dtype=np.int32)
    minor = np.array([-1, n - 1, n, 0, -1, n - 1, n], dtype=np.int32)
    key = textcore._pair_key(major, minor, n)
    assert key.dtype == np.int64
    assert key.tolist() == [a * (n + 1) + b for a, b in zip(major.tolist(), minor.tolist())]
    assert np.all(np.diff(key) > 0)  # the pairs ascend


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_suffix_range_matches_brute_force(seed):
    rng = random.Random(seed)
    codes = random_codes(rng, 40)
    if not codes:
        codes = [97]
    idx = build_suffix_array(codes)
    order = reference_suffix_order(codes)
    for _ in range(12):
        m = rng.randint(1, 5)
        draw = rng.random()
        if draw < 0.5 and len(codes) >= m:
            s = rng.randrange(len(codes) - m + 1)
            pattern = codes[s : s + m]
            if any(c < 0 for c in pattern):
                continue
        elif draw < 0.65:
            # a text suffix extended past the end, or longer than every suffix
            s = rng.randrange(len(codes))
            pattern = [c for c in codes[s:] if c >= 0] + [rng.choice((97, 98, 99))]
            if rng.random() < 0.5:
                pattern = [97] * (len(codes) + rng.randint(1, 3))
        elif draw < 0.75:
            # absent codes: below, between and far above the text's letters
            pattern = [rng.choice((1, 100, 0x10FFFF, 2**31, 2**40, 2**63, 2**70)) for _ in range(m)]
        else:
            pattern = [rng.choice((97, 98, 99, 100)) for _ in range(m)]
        slots = [
            k + 1
            for k, i in enumerate(order)
            if codes[i : i + len(pattern)] == pattern
        ]
        rng_got = suffix_range(idx, pattern)
        if not slots:
            assert rng_got is None
        else:
            assert rng_got == (slots[0], slots[-1])
            assert slots == list(range(slots[0], slots[-1] + 1))


def gap_text(rng: random.Random, letters: list[int]) -> list[int]:
    """Codes over ``letters`` with separators and long one-letter runs, of a length around the sample step."""
    n = rng.choice((rng.randint(1, 15), 16, 17, 31, 32, 33, rng.randint(34, 600)))
    out: list[int] = []
    while len(out) < n:
        draw = rng.random()
        if draw < 0.1:
            out.append(-1 - sum(c < 0 for c in out))
        elif draw < 0.4:
            out += [rng.choice(letters)] * rng.randint(2, 90)
        else:
            out += [rng.choice(letters) for _ in range(rng.randint(1, 20))]
    return out[:n]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((2, 8, 40)))
def test_suffix_range_matches_brute_force_across_sample_gaps(seed, sigma):
    """Wide ranges, and patterns about as long as a packed key or longer, against brute force."""
    rng = random.Random(seed)
    letters = sorted(rng.sample(range(0x10FFFF + 1), sigma)) if sigma > 15 else [97 + k for k in range(sigma)]
    codes = gap_text(rng, letters)
    idx = build_suffix_array(codes)
    order = reference_suffix_order(codes)
    per = 32 // sigma.bit_length()  # letters packed into one key
    for _ in range(30):
        m = rng.randint(1, 2 * per + 3)
        draw = rng.random()
        if draw < 0.5:
            # a text window, cut at its first separator
            s = rng.randrange(len(codes))
            pattern = codes[s : s + m]
            if pattern[0] < 0:
                continue
            pattern = pattern[: next((k for k, c in enumerate(pattern) if c < 0), len(pattern))]
        elif draw < 0.7:
            # a run of a letter the text repeats, which many suffixes share beyond one key, then maybe
            # another letter; most often about as long as a key
            m = rng.choice((m, per, per + 1, per + 2))
            pattern = [rng.choice([c for c in codes if c >= 0] or letters)] * (m - 1) + [rng.choice(letters)]
        elif draw < 0.8:
            # a letter that the text does not hold, at any place
            pattern = [rng.choice(letters) for _ in range(m)]
            pattern[rng.randrange(m)] = rng.choice((letters[-1] + 1, 2**31, 2**63, 2**70))
        else:
            pattern = [rng.choice(letters) for _ in range(m)]
        slots = [k + 1 for k, i in enumerate(order) if codes[i : i + len(pattern)] == pattern]
        got = suffix_range(idx, pattern)
        assert got == ((slots[0], slots[-1]) if slots else None), (codes, pattern)
        if all(c < 0x110000 for c in pattern):
            assert suffix_range(idx, "".join(map(chr, pattern))) == got


def test_suffix_range_rejects_bad_patterns():
    idx = build_suffix_array("abab")
    with pytest.raises(ValueError):
        suffix_range(idx, "")
    with pytest.raises(ValueError, match="separator"):
        suffix_range(idx, [97, -1])


def key_text() -> list[int]:
    """Eight letters (so eight to a key), a run longer than two keys, and separators."""
    return [97 + k % 8 for k in range(40)] + [-1] + [97] * 20 + [98, -2] + [97 + (3 * k) % 8 for k in range(30)]


def brute_range(codes: list[int], order: list[int], pattern: list[int]) -> tuple[int, int] | None:
    slots = [k + 1 for k, i in enumerate(order) if codes[i : i + len(pattern)] == pattern]
    return (slots[0], slots[-1]) if slots else None


def test_suffix_range_edge_cases_around_one_key():
    codes = key_text()
    idx = build_suffix_array(codes)
    order = reference_suffix_order(codes)
    per = 32 // idx.prefix_keys[2]
    assert per == 8
    # codes no text holds, after the first key's letters or alone, are absent and overflow nothing
    assert suffix_range(idx, [97] * 20 + [2**70]) is None
    assert suffix_range(idx, [97] * (per + 1) + [2**31]) is None
    assert suffix_range(idx, [2**63]) is None
    for bad in ([-1], [97, -2], [97] * (per + 2) + [-1]):
        with pytest.raises(ValueError, match="separator"):
            suffix_range(idx, bad)
    # a letter the text lacks, at the first letter, the key's last, just past the key and further on
    window = "".join(map(chr, codes[:20]))
    for at in (0, per - 1, per, per + 5):
        assert suffix_range(idx, window[:at] + "z" + window[at + 1 :]) is None
        assert suffix_range(idx, window[:at] + "z") is None
    # every text window exactly one key long, and one letter shorter or longer, as codes and as str
    for m in (per - 1, per, per + 1):
        for s in range(len(codes) - m + 1):
            pattern = codes[s : s + m]
            if min(pattern) < 0:
                continue
            want = brute_range(codes, order, pattern)
            assert want is not None
            assert suffix_range(idx, pattern) == want
            assert suffix_range(idx, "".join(map(chr, pattern))) == want


def test_suffix_range_with_letters_after_a_separator_inside_a_key():
    """Search keys keep the letters after a separator, so they need not ascend with their slots.

    Each "ab" ends at a separator and is followed by other letters within
    the same key; the separators order these suffixes apart from what follows
    them, yet every range equals the brute-force one.
    """
    rng = random.Random(27)
    codes: list[int] = []
    for k in range(40):
        codes += [97, 98, -1 - k] + [97 + rng.randrange(8) for _ in range(rng.randint(1, 9))]
    codes += [97 + k for k in range(8)] + [-41]
    idx = build_suffix_array(codes)
    order = reference_suffix_order(codes)
    keys = idx.prefix_keys[0].tolist()
    per = 32 // idx.prefix_keys[2]
    assert per == 8 and any(a > b for a, b in zip(keys, keys[1:]))
    windows = {tuple(codes[s : s + m]) for m in range(1, per + 3) for s in range(len(codes) - m + 1)}
    for pattern in sorted(w for w in windows if min(w) >= 0) + [[97, 98, 97], [98, 104, 104]]:
        pattern = list(pattern)
        assert suffix_range(idx, pattern) == brute_range(codes, order, pattern), pattern
        assert suffix_range(idx, "".join(map(chr, pattern))) == brute_range(codes, order, pattern)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_tree_view_structure(seed):
    rng = random.Random(seed)
    # a terminal separator keeps suffixes prefix-free, as in transformed texts
    codes = random_codes(rng, 40) + [-1000]
    idx = build_suffix_array(codes)
    tree = TreeView(idx)
    n = len(codes)

    # every slot owns exactly one leaf whose range is that slot
    for k in range(1, n + 1):
        leaf = int(tree.leaf_pre[k - 1])
        assert tree.sp[leaf] == k and tree.ep[leaf] == k
        assert tree.subtree_end[leaf] == leaf
        assert tree.depth[leaf] == n - idx.sa[k - 1] + 1

    for v in range(tree.node_count):
        assert tree.sp[v] <= tree.ep[v]
        assert tree.subtree_end[v] >= v
        par = int(tree.parent[v])
        if v == 0:
            assert par == -1
        else:
            assert tree.depth[par] < tree.depth[v]
            assert par <= v <= tree.subtree_end[par]
            assert tree.sp[par] <= tree.sp[v] and tree.ep[v] <= tree.ep[par]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_locus_is_shallowest_node_covering_the_pattern(seed):
    rng = random.Random(seed)
    codes = [rng.choice((97, 98)) for _ in range(rng.randint(2, 30))]
    idx = build_suffix_array(codes)
    tree = TreeView(idx)
    for _ in range(6):
        m = rng.randint(1, min(5, len(codes)))
        s = rng.randrange(len(codes) - m + 1)
        pattern = codes[s : s + m]
        node = locus(tree, pattern)
        rng_want = suffix_range(idx, pattern)
        assert node is not None and rng_want is not None
        assert (tree.sp[node], tree.ep[node]) == rng_want
        assert tree.depth[node] >= m
        par = int(tree.parent[node])
        if par >= 0 and (tree.sp[par], tree.ep[par]) == rng_want:
            assert tree.depth[par] < m
    assert locus(tree, [100]) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_rmq_matches_brute_force_argmax(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 300)
    # one-decimal values force plenty of ties; smallest index must win
    values = [round(rng.random(), 1) for _ in range(n)]
    rmq = rmq_build(values)
    for _ in range(12):
        l = rng.randint(1, n)
        r = rng.randint(l, n)
        got = rmq_query(rmq, l, r)
        window = values[l - 1 : r]
        want = l + max(range(len(window)), key=lambda t: (window[t], -t))
        assert got == want


def test_rmq_rejects_bad_ranges():
    rmq = rmq_build([1.0, 2.0])
    with pytest.raises(ValueError):
        rmq_query(rmq, 0, 1)
    with pytest.raises(ValueError):
        rmq_query(rmq, 2, 1)
    with pytest.raises(ValueError):
        rmq_query(rmq, 1, 3)


def test_rmq_handles_empty_input():
    rmq = rmq_build(np.zeros(0))
    assert rmq.n == 0
    with pytest.raises(ValueError):
        rmq_query(rmq, 1, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_rmq_report_matches_a_vectorized_scan(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    # sparse hits among many small values, with ties at the threshold
    values = np.array(
        [rng.choice((0.05, 0.1, 0.3, 0.3, 0.5, 1.0)) if rng.random() < 0.2 else 0.01 * rng.random() for _ in range(n)]
    )
    rmq = rmq_build(values)
    for _ in range(12):
        shape = rng.random()
        if shape < 0.3:  # inside one 64-entry block
            b = rng.randrange((n + 63) // 64)
            l = rng.randint(64 * b + 1, min(n, 64 * b + 64))
            r = rng.randint(l, min(n, 64 * b + 64))
        elif shape < 0.4:  # empty
            l = rng.randint(1, n + 1)
            r = l - 1
        else:  # across block edges as often as not
            l = rng.randint(1, n)
            r = rng.randint(l, n)
        tau = rng.choice((0.1, 0.3, 0.5, 1.0, 2.0))  # all above the stored minimum
        stats = QueryStats()
        got = rmq_report(rmq, l, r, tau, stats)
        want = l + np.flatnonzero(values[l - 1 : r] >= tau)
        assert got.tolist() == want.tolist()
        assert stats.rmq_calls <= 2 * len(want) + 1
        assert stats.slots_scanned >= len(want)


def random_depth(rng: random.Random, n: int) -> SparseDepth:
    """A short table of ``n`` entries at strictly increasing slots with gaps, values as in the rmq tests."""
    slots = np.cumsum([rng.randint(1, 3) for _ in range(n)], dtype=np.int64).astype(np.int32)
    values = np.array(
        [rng.choice((0.05, 0.1, 0.3, 0.3, 0.5, 1.0)) if rng.random() < 0.2 else 0.01 * rng.random() for _ in range(n)]
    )
    return SparseDepth(slots, rmq_build(values), np.arange(n, dtype=np.int32))


def report_ranges(rng: random.Random, slots: list[int]) -> list[tuple[int, int]]:
    """Slot ranges [sp, ep] of every shape ``report`` tells apart."""
    n = len(slots)
    last = slots[-1] if n else 0
    out = [(1, last + 3), (last + 1, last + 4)]  # all of the table; past the last slot
    if not n:
        return out
    out += [(1, slots[0] - 1), (slots[0] - 1, slots[0] - 1)]  # before the first slot (maybe empty)
    b = rng.randrange((n + 63) // 64)
    lo, hi = 64 * b, min(n, 64 * b + 64) - 1
    l = rng.randint(lo, hi)
    r = rng.randint(l, hi)
    out.append((slots[l], slots[r]))  # inside one 64-entry block, on entry slots
    out.append((slots[l] - rng.randint(0, 1), slots[r] + rng.randint(0, 1)))  # maybe between slots
    out.append((slots[l], slots[hi]))  # ending exactly on a block edge
    if b:
        out.append((slots[rng.randint(0, lo - 1)], slots[hi]))  # from an earlier block to that edge
        out.append((slots[lo - 1], slots[lo]))  # across one block edge
    out.append((slots[rng.randint(0, n - 1) // 3], slots[-1]))  # many blocks
    out.append((slots[rng.randrange(n)] + 1, slots[rng.randrange(n)]))  # maybe empty between slots
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((0, 1, 5, 63, 64, 65, 128, 300)))
def test_sparse_depth_report_counts_like_the_searchsorted_reference(seed, n):
    """The bisect and one-block loop of ``report`` return the entries and counters the numpy form does."""
    rng = random.Random(seed)
    depth = random_depth(rng, n)
    for sp, ep in report_ranges(rng, depth.slots.tolist()):
        for tau in (0.1, 0.3, 1.0, 2.0):
            got_stats, want_stats = QueryStats(), QueryStats()
            got = depth.report(sp, ep, tau, got_stats)
            want = reference_report(depth, sp, ep, tau, want_stats)
            assert list(got) == want.tolist(), (sp, ep, tau)
            assert got_stats == want_stats, (sp, ep, tau)
