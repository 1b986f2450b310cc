"""Maximal factors, the transform, its factor runs, and the conservation check."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustrindex import (
    CapacityError,
    Correlation,
    DocumentCollection,
    TransformedText,
    UncertainString,
    build_listing,
    occurrence_probability,
    transform,
)
from ustrindex import factorize
from ustrindex.factorize import _alternatives, _levels
from ustrindex.model import _flatten

from helpers import (
    conservation_check,
    maximal_factors,
    prefix_probabilities,
    random_ustring,
    readable_text,
    reference_alternatives,
    reference_transform,
)


def brute_maximal_factors(u: UncertainString, tau_min: float, start: int) -> set[tuple[str, float]]:
    """Level-by-level growth from the model alone: keep strings with no qualifying extension."""
    out: set[tuple[str, float]] = set()
    frontier: list[str] = [""]
    while frontier:
        grown: list[str] = []
        for s in frontier:
            q = start + len(s)
            extensions = []
            if q <= u.n:
                for sym in u.positions[q - 1]:
                    cand = s + sym
                    if occurrence_probability(u, cand, start) >= tau_min:
                        extensions.append(cand)
            if extensions:
                grown.extend(extensions)
            elif s:
                out.add((s, occurrence_probability(u, s, start)))
        frontier = grown
    return out


def test_maximal_factors_on_worked_example(genome):
    facs = maximal_factors(genome, 0.15, 5)
    assert {f.symbols for f in facs} == {"QPA", "QPF", "TPA", "TPF"}
    for f in facs:
        assert f.start == 5
        assert f.prob == pytest.approx(0.2)
        assert len(f) == 3


def test_maximal_factors_validates_arguments(genome):
    with pytest.raises(ValueError):
        maximal_factors(genome, 0.0, 1)
    with pytest.raises(ValueError):
        maximal_factors(genome, 1.5, 1)
    with pytest.raises(ValueError):
        maximal_factors(genome, 0.5, 0)
    with pytest.raises(ValueError):
        maximal_factors(genome, 0.5, genome.n + 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_maximal_factors_match_brute_force(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(2, 12), correlation_rate=0.4)
    tau_min = rng.choice((0.15, 0.25, 0.4))
    start = rng.randint(1, u.n)
    got = {(f.symbols, f.prob) for f in maximal_factors(u, tau_min, start)}
    assert got == brute_maximal_factors(u, tau_min, start)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_prefix_probabilities_are_bitwise_occurrence(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 10), theta=0.8, correlation_rate=0.8)
    forward = [c for c in u.correlations if c.src_pos < c.cond_pos]
    fixed: dict[int, str] = {}
    if forward and rng.random() < 0.9:
        # the window spells a source and, to its right, the conditioner's
        # cond_sym: growing onto the conditioner restarts the product
        c = rng.choice(forward)
        start = rng.randint(1, c.src_pos)
        m = rng.randint(c.cond_pos, u.n) - start + 1
        fixed = {c.src_pos: c.src_sym, c.cond_pos: c.cond_sym}
    else:
        start = rng.randint(1, u.n)
        m = rng.randint(1, u.n - start + 1)
    symbols = "".join(fixed.get(q) or rng.choice(sorted(u.positions[q - 1])) for q in range(start, start + m))
    chain = prefix_probabilities(u, symbols, start)
    assert chain == [occurrence_probability(u, symbols[: k + 1], start) for k in range(m)]


def test_transform_layout(worlds_example):
    tt = transform(worlds_example, 0.1)
    codes = tt.codes.tolist()
    pos = tt.pos.tolist()
    cum = tt.cum.tolist()
    for i, c in enumerate(codes):
        if c < 0:
            assert pos[i] == 0 and cum[i] == -1.0
        else:
            assert pos[i] >= 1 and cum[i] > 0.0
    # separators are pairwise distinct
    seps = [c for c in codes if c < 0]
    assert len(seps) == len(set(seps))
    for toff, fac in tt.factor_table:
        o = toff - 1
        assert codes[o : o + len(fac)] == [ord(c) for c in fac.symbols]
        assert pos[o : o + len(fac)] == list(range(fac.start, fac.start + len(fac)))
        assert cum[o + len(fac) - 1] == fac.prob
        assert fac.prob >= tt.tau_min
        assert codes[o + len(fac)] < 0
    assert readable_text(tt).count("$") == len(tt.factor_table)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_transform_cum_is_bitwise_occurrence(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(2, 12), correlation_rate=0.3)
    tau_min = rng.choice((0.15, 0.25, 0.4))
    tt = transform(u, tau_min)
    cum = tt.cum.tolist()
    for b, e in zip(*tt.factor_runs()):
        start = int(tt.pos[b])
        symbols = tt.window_text(b, e - b)
        assert cum[b:e] == [occurrence_probability(u, symbols[: k + 1], start) for k in range(e - b)]


def test_empty_text_has_no_factors():
    empty = np.zeros(0, dtype=np.int64)
    tt = TransformedText(empty, empty, np.zeros(0, dtype=np.float64), 0.5)
    assert tt.longest_factor == 0
    assert tt.factor_table == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_transform_holds_exactly_the_maximal_factors(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(2, 10), correlation_rate=0.3)
    tau_min = rng.choice((0.2, 0.35))
    tt = transform(u, tau_min)
    by_start: dict[int, set[tuple[str, float]]] = {}
    for _, fac in tt.factor_table:
        by_start.setdefault(fac.start, set()).add((fac.symbols, fac.prob))
    for start in range(1, u.n + 1):
        want = {(f.symbols, f.prob) for f in maximal_factors(u, tau_min, start)}
        assert by_start.get(start, set()) == want


def test_transform_capacity_guard(genome):
    with pytest.raises(CapacityError) as exc:
        transform(genome, 0.15, length_cap=3)
    assert exc.value.cap == 3
    assert "length cap" in str(exc.value)


# "a" at 1 and "c" at 2 condition on each other: "a" alone has 0.1, "ac" has 1
NON_MONOTONE = UncertainString(
    "nm",
    ({"a": 0.5, "b": 0.5}, {"c": 0.1, "d": 0.9}, {"e": 1.0}),
    (Correlation(1, "a", 2, "c", 1.0, 0.0), Correlation(2, "c", 1, "a", 1.0, 0.0)),
)


def _same_arrays(got: TransformedText, want: TransformedText) -> bool:
    return all(
        getattr(got, k).dtype == getattr(want, k).dtype and getattr(got, k).tobytes() == getattr(want, k).tobytes()
        for k in ("codes", "pos", "cum")
    )


TAU_MINS = (0.05, 0.1, 0.2, 0.3, 0.5)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_transform_is_byte_identical_to_the_depth_first_walker(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(1, 16), theta=rng.random(), correlation_rate=rng.random() * 0.8)
    for tau_min in TAU_MINS:
        assert _same_arrays(transform(u, tau_min), reference_transform(u, tau_min)), tau_min


@pytest.mark.parametrize("tau_min", TAU_MINS)
def test_a_non_monotone_transform_is_byte_identical_to_the_walker(tau_min):
    assert _same_arrays(transform(NON_MONOTONE, tau_min), reference_transform(NON_MONOTONE, tau_min))


@st.composite
def mostly_certain(draw, docs: int = 1) -> list[UncertainString]:
    """Strings whose positions are mostly certain (one letter of probability 1.0), so runs of them are long."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    theta = draw(st.sampled_from((0.0, 0.05, 0.15, 0.3)))
    return [
        random_ustring(
            rng,
            n=rng.randint(1, 30),
            alphabet=rng.choice(("ab", "abcd")),
            theta=theta,
            correlation_rate=rng.choice((0.0, 0.0, 0.5)),
            name=f"d{k}",
        )
        for k in range(docs)
    ]


@settings(max_examples=100, deadline=None)
@given(mostly_certain())
def test_long_certain_runs_transform_byte_identically_to_the_walker(docs):
    (u,) = docs
    for tau_min in TAU_MINS:
        assert _same_arrays(transform(u, tau_min), reference_transform(u, tau_min)), tau_min


@settings(max_examples=40, deadline=None)
@given(mostly_certain(docs=3), st.sampled_from(TAU_MINS))
def test_a_collection_of_long_certain_runs_transforms_like_its_documents(docs, tau_min):
    assert _same_as_its_documents(docs, tau_min)


@settings(max_examples=40, deadline=None)
@given(mostly_certain(docs=3), st.sampled_from(TAU_MINS), st.integers(0, 10**6))
def test_a_cap_on_long_certain_runs_fires_for_the_first_document_past_it(docs, tau_min, seed):
    lengths = [reference_transform(d, tau_min).n for d in docs]
    cap = random.Random(seed).randint(max(min(lengths) - 1, 0), max(lengths))
    collection = DocumentCollection(tuple(docs))
    if max(lengths) <= cap:
        assert transform(collection, tau_min, length_cap=cap).n == sum(lengths)
        return
    with pytest.raises(CapacityError) as exc:
        transform(collection, tau_min, length_cap=cap)
    assert exc.value.cap == cap


def _certain(*letters: str) -> tuple[dict[str, float], ...]:
    return tuple({c: 1.0} for c in letters)


UNCERTAIN = ({"a": 0.6, "b": 0.4}, {"a": 0.3, "c": 0.7})
# five letters of 0.2 each: no one-letter window there reaches tau_min 0.3 or more
FLAT = ({c: 0.2 for c in "abcde"},)

RUN_CASES = {
    "runs at the start and at the end": UncertainString("s", _certain(*"xyz") + UNCERTAIN + _certain(*"uvw")),
    "only certain positions": UncertainString("s", _certain(*"abcab")),
    "a run before a position with no factor": UncertainString("s", _certain(*"xy") + FLAT + _certain("z") + UNCERTAIN),
    "a run before no one-letter window, and a longer window": UncertainString(
        "s",
        # at 3, "a" has the marginal 0.1 and "b" 0.2, while "ac" has 1.0: the run keeps both its
        # letters alone and its letters before "ace"
        _certain("x", "y") + ({"a": 0.8, "b": 0.2}, {"c": 0.1, "d": 0.9}) + _certain("e"),
        (Correlation(3, "a", 4, "c", 1.0, 0.0), Correlation(4, "c", 3, "a", 1.0, 0.0)),
    ),
    "a certain source": UncertainString(
        "s", _certain("x", "y") + UNCERTAIN + _certain("z"), (Correlation(2, "y", 3, "a", 0.6, 0.9),)
    ),
    "a certain conditioner on the left": UncertainString(
        "s", _certain("x", "y") + UNCERTAIN + _certain("z"), (Correlation(4, "c", 2, "y", 0.5, 0.1),)
    ),
    "a certain conditioner on the right": UncertainString(
        "s", _certain("x") + UNCERTAIN + _certain("y", "z"), (Correlation(2, "a", 5, "z", 0.9, 0.2),)
    ),
}


@pytest.mark.parametrize("tau_min", TAU_MINS)
@pytest.mark.parametrize("u", RUN_CASES.values(), ids=RUN_CASES.keys())
def test_certain_runs_transform_byte_identically_to_the_walker(u, tau_min):
    assert _same_arrays(transform(u, tau_min), reference_transform(u, tau_min))


def test_a_run_keeps_its_letters_alone_and_before_the_next_factors_where_a_longer_window_reaches_tau_min():
    u = RUN_CASES["a run before no one-letter window, and a longer window"]
    assert readable_text(transform(u, 0.3)) == "xy$xyace$y$yace$ace$ce$de$e$"


@pytest.mark.parametrize("tau_min", TAU_MINS)
def test_a_run_ending_a_document_copies_nothing_from_the_next(tau_min):
    first = UncertainString("d1", UNCERTAIN + _certain("x", "y"))
    second = UncertainString("d2", _certain("z") + UNCERTAIN + _certain("w"))
    third = UncertainString("d3", _certain("v") + UNCERTAIN)
    assert _same_as_its_documents([first, second, third], tau_min)


def test_windows_grow_only_at_uncertain_starts(monkeypatch):
    u = RUN_CASES["a certain source"]
    grown = []

    def recording(u, alts, tau_min, starts, *args):
        grown.extend(starts.tolist())
        return _levels(u, alts, tau_min, starts, *args)

    monkeypatch.setattr(factorize, "_levels", recording)
    transform(u, 0.2)
    # 1 (x) is certain; 2 (y) is named by a correlation, 3 and 4 have two letters each
    assert grown == [2, 3, 4]


@pytest.mark.parametrize("correlation_rate", [0.0, 0.6])
def test_the_length_cap_admits_exactly_the_text_length(correlation_rate):
    rng = random.Random(7)
    u = random_ustring(rng, n=30, theta=0.6, correlation_rate=correlation_rate)
    assert bool(u.correlations) == (correlation_rate > 0)
    N = transform(u, 0.1).n
    assert _same_arrays(transform(u, 0.1, length_cap=N), transform(u, 0.1))
    with pytest.raises(CapacityError) as exc:
        transform(u, 0.1, length_cap=N - 1)
    assert exc.value.cap == N - 1


def _same_as_its_documents(docs: list[UncertainString], tau_min: float) -> bool:
    """The collection's text is the walker's texts of its documents one after another."""
    tt = transform(DocumentCollection(tuple(docs)), tau_min)
    parts = [reference_transform(d, tau_min) for d in docs]
    counts = [int((part.codes < 0).sum()) for part in parts]
    # each document's separators continue the numbering of the documents before it
    shifts = np.cumsum([0] + counts).tolist()  # Python ints keep the int32 codes int32
    want = TransformedText(
        np.concatenate([np.where(p.codes < 0, p.codes - k, p.codes) for p, k in zip(parts, shifts)]),
        np.concatenate([p.pos for p in parts]),
        np.concatenate([p.cum for p in parts]),
        tau_min,
    )
    return tt.doc_factors.tolist() == counts and _same_arrays(tt, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_a_collection_transforms_like_its_documents_one_after_another(seed):
    rng = random.Random(seed)
    docs = [
        random_ustring(rng, n=rng.randint(1, 10), theta=0.7, correlation_rate=rng.random() * 0.8, name=f"d{k}")
        for k in range(rng.randint(1, 4))
    ]
    assert _same_as_its_documents(docs, rng.choice(TAU_MINS))


def test_each_document_of_a_collection_has_its_own_cap():
    rng = random.Random(3)
    small, big = (random_ustring(rng, n=n, theta=0.6, correlation_rate=0.5, name=f"d{n}") for n in (4, 30))
    N = transform(big, 0.1).n
    assert transform(small, 0.1).n < N
    collection = DocumentCollection((small, big))
    assert transform(collection, 0.1, length_cap=N).n > N
    with pytest.raises(CapacityError) as exc:
        transform(collection, 0.1, length_cap=N - 1)
    assert exc.value.cap == N - 1


def test_a_collection_reports_its_first_overflowing_document_under_default_caps():
    # at tau_min 1 a deterministic document of length n makes n(n + 3)/2 codes against a
    # default cap of 64n; the longer second document outgrows its cap at a shorter window
    # length than the first, yet the first is the one reported, as document by document
    docs = tuple(UncertainString(f"d{n}", tuple({c: 1.0} for c in "ab" * (n // 2))) for n in (200, 1000))
    for d in docs:
        with pytest.raises(CapacityError) as exc:
            transform(d, 1.0)
        assert exc.value.cap == 64 * d.n
    with pytest.raises(CapacityError) as exc:
        transform(DocumentCollection(docs), 1.0)
    assert exc.value.cap == 64 * 200


def test_prefix_probabilities_are_zero_from_an_absent_symbol_on(genome):
    start = 5
    present = "".join(sorted(genome.positions[q - 1])[0] for q in range(start, start + 3))
    absent = next(c for c in "xyz" if c not in genome.positions[start])
    probs = prefix_probabilities(genome, present[0] + absent + present[2], start)
    assert probs[0] == occurrence_probability(genome, present[0], start) > 0.0
    assert probs[1:] == [0.0, 0.0]


def _loop_room(tt: TransformedText) -> np.ndarray:
    """Room to the separator at every offset, by one pass over every factor character."""
    room = np.zeros(tt.n, dtype=np.int64)
    for b, e in zip(*tt.factor_runs()):
        for x in range(b, e):
            room[x] = e - x
    return room


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_room_matches_a_per_character_loop(seed):
    rng = random.Random(seed)
    docs = [
        random_ustring(rng, n=rng.randint(2, 10), alphabet="ab", correlation_rate=0.5, name=f"d{k}")
        for k in range(rng.randint(1, 3))
    ]
    lidx = build_listing(DocumentCollection(tuple(docs)), 0.2)
    for tt in (lidx.tt, transform(docs[0], 0.2)):
        assert np.array_equal(tt.room(np.arange(tt.n)), _loop_room(tt))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_conservation_check_passes_on_fresh_transforms(seed):
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(2, 12), correlation_rate=0.3)
    tau_min = rng.choice((0.2, 0.35))
    assert conservation_check(u, tau_min, transform(u, tau_min)) is None


def test_conservation_check_catches_damage(worlds_example):
    tt = transform(worlds_example, 0.1)
    tt.codes[tt.codes >= 0] = ord("z")
    assert conservation_check(worlds_example, 0.1, tt) is not None


def test_conservation_check_refuses_large_strings():
    big = UncertainString("big", tuple({"a": 1.0} for _ in range(41)))
    with pytest.raises(ValueError):
        conservation_check(big, 0.5, transform(big, 0.5))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_alternatives_from_flat_arrays_match_the_dict_walk(seed):
    """Every array of ``_alternatives``, dtype and bytes, for the whole string and for positions lo..hi."""
    rng = random.Random(seed)
    u = random_ustring(
        rng,
        n=rng.randint(1, 40),
        alphabet=rng.choice(("abcd", "aé中\U0001F600")),
        correlation_rate=rng.choice((0.0, 0.3, 0.8)),
    )
    if rng.random() < 0.3:  # integer probabilities are valid too
        ints = tuple({s: 1 for s in d} if list(d.values()) == [1.0] else d for d in u.positions)
        u = UncertainString(u.name, ints, u.correlations)
    lo = rng.randint(1, u.n)
    for lo, hi in ((1, None), (lo, rng.randint(lo - 1, u.n))):
        got = _alternatives(u, _flatten(u.positions[lo - 1 : hi], lo))
        want = reference_alternatives(u, lo, hi)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (f.name, lo, hi)
