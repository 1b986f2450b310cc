"""Probability model: validation, world enumeration, occurrence arithmetic."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustrindex import (
    CapacityError,
    Correlation,
    DocumentCollection,
    UncertainString,
    build,
    build_listing,
    enumerate_worlds,
    occurrence_probability,
    validate,
)
from ustrindex.model import SUM_TOLERANCE

from helpers import random_ustring, reference_validate


def test_validate_accepts_fixtures(worlds_example, genome, correlated, collection):
    for u in (worlds_example, genome, correlated, *collection.docs):
        assert validate(u) == []


def test_validate_flags_structural_problems():
    assert validate(UncertainString("x", ())) == ["string is empty"]
    issues = validate(UncertainString("x", ({},)))
    assert issues == ["position 1: no alternatives"]
    issues = validate(UncertainString("x", ({"ab": 1.0},)))
    assert any("not a single character" in s for s in issues)
    issues = validate(UncertainString("x", ({"a": 0.0, "b": 1.0},)))
    assert any("not in (0, 1]" in s for s in issues)
    issues = validate(UncertainString("x", ({"a": 0.5, "b": 0.2},)))
    assert any("sum to 0.7" in s for s in issues)


def test_validate_flags_correlation_problems():
    base = ({"a": 0.5, "b": 0.5}, {"c": 0.5, "d": 0.5})

    def issues(corr):
        return validate(UncertainString("x", base, (corr,)))

    assert any("out of range" in s for s in issues(Correlation(3, "a", 1, "a", 0.5, 0.5)))
    assert any("own position" in s for s in issues(Correlation(1, "a", 1, "b", 0.5, 0.5)))
    assert any("absent" in s for s in issues(Correlation(1, "z", 2, "c", 0.5, 0.5)))
    assert any("no probability" in s for s in issues(Correlation(1, "a", 2, "z", 0.5, 0.5)))
    assert any("not in [0, 1]" in s for s in issues(Correlation(1, "a", 2, "c", 1.5, 0.5)))
    dup = validate(
        UncertainString(
            "x",
            base,
            (Correlation(1, "a", 2, "c", 0.5, 0.5), Correlation(1, "a", 2, "d", 0.4, 0.6)),
        )
    )
    assert any("more than one correlation" in s for s in dup)


# well-typed symbols and probabilities, valid or not
SYMBOLS = ("a", "b", "c", "ab", "", "é", "\U0001F600")
ODD_PROBABILITIES = (0.0, -0.5, 1.5, math.nan, math.inf, -math.inf, float("1e309"), 1e-300)
# sums just inside and just outside SUM_TOLERANCE, on either side of 1
NEAR_ONE = (0.0, SUM_TOLERANCE - 1e-12, SUM_TOLERANCE + 1e-12, -SUM_TOLERANCE + 1e-12, -SUM_TOLERANCE - 1e-12)


def _odd_string(rng: random.Random) -> UncertainString:
    """A random string whose entries are well typed but may break any invariant ``validate`` checks."""
    n = rng.randint(0, 12)
    positions = []
    for _ in range(n):
        syms = rng.sample(SYMBOLS, rng.randint(0, 3)) if rng.random() < 0.3 else rng.sample("abcd", rng.randint(1, 3))
        weights = [rng.random() + 0.05 for _ in syms]
        dist = {s: w / sum(weights) for s, w in zip(syms, weights)}
        if dist and rng.random() < 0.3:
            sym = rng.choice(list(dist))
            dist[sym] = 1.0 - sum(v for k, v in dist.items() if k != sym) + rng.choice(NEAR_ONE)
        if dist and rng.random() < 0.15:
            dist[rng.choice(list(dist))] = rng.choice(ODD_PROBABILITIES)
        positions.append(dist)
    corrs = tuple(
        Correlation(
            rng.randint(0, n + 1), rng.choice(SYMBOLS), rng.randint(0, n + 1), rng.choice(SYMBOLS),
            rng.choice((0.2, 0.9, 1.0, 1.5, math.nan)), rng.choice((0.0, 0.5, -0.1)),
        )
        for _ in range(rng.choice((0, 0, 1, 3)))
    )
    return UncertainString("x", tuple(positions), corrs)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_validate_words_the_same_issues_as_the_plain_loop(seed):
    """The numpy screen picks every position the loop faults: the message lists are identical."""
    u = _odd_string(random.Random(seed))
    assert validate(u) == reference_validate(u)


@pytest.mark.parametrize("delta", NEAR_ONE)
def test_validate_sums_at_the_tolerance_edge(delta):
    u = UncertainString("x", ({"a": 0.25, "b": 0.75 + delta}, {"c": 1.0}))
    assert validate(u) == reference_validate(u)
    assert bool(validate(u)) == (abs(0.25 + (0.75 + delta) - 1.0) > SUM_TOLERANCE)


@pytest.mark.parametrize(
    "positions, corrs, fragment",
    [
        (({1: 1.0},), (), "symbol 1 is not a single character"),
        (({"a": "1.0"},), (), "probability '1.0' of 'a' is not a real number"),
        (({"a": None},), (), "probability None of 'a' is not a real number"),
        (({"a": 0.5, "b": 10**400},), (), "is not a real number"),
        (({"a": 1.0}, {"b": 1.0}), (Correlation("1", "a", 2, "b", 0.5, 0.5),), "a field has the wrong type"),
        (({"a": 1.0}, {"b": 1.0}), (Correlation(1, "a", 2, ["b"], 0.5, 0.5),), "a field has the wrong type"),
        (({"a": 1.0}, {"b": 1.0}), (Correlation(1, "a", 2, "b", "0.5", 0.5),), "a field has the wrong type"),
        (({"a": 1.0}, {"b": "1"}), (Correlation(1, "a", 2, "b", 0.5, 0.5),), "probability '1' of 'b'"),
    ],
)
def test_validate_reports_wrongly_typed_entries(positions, corrs, fragment):
    """A mistyped symbol, probability or correlation field is an issue, and a build a ValueError, not a TypeError."""
    u = UncertainString("x", positions, corrs)
    assert any(fragment in issue for issue in validate(u)), validate(u)
    with pytest.raises(ValueError, match="invalid uncertain string"):
        build(u, 0.5)
    good = UncertainString("good", ({"a": 1.0},))
    with pytest.raises(ValueError, match="invalid document 'x'"):
        build_listing(DocumentCollection((good, u)), 0.5)


def test_validate_accepts_other_real_numbers():
    u = UncertainString("x", ({"a": 1}, {"a": True}, {"a": 0.5, "b": np.float64(0.5)}))
    assert validate(u) == []


def test_world_enumeration_counts_and_masses(worlds_example):
    worlds = enumerate_worlds(worlds_example)
    assert len(worlds) == 12
    table = dict(worlds)
    assert table["aadaa"] == pytest.approx(0.09)
    assert table["badaa"] == pytest.approx(0.12)
    assert table["dcdca"] == pytest.approx(0.06)
    assert math.isclose(sum(table.values()), 1.0, abs_tol=1e-12)
    assert [w for w, _ in worlds] == sorted(w for w, _ in worlds)


def test_world_enumeration_floor_filters(worlds_example):
    everything = enumerate_worlds(worlds_example)
    floored = enumerate_worlds(worlds_example, floor=0.1)
    assert floored == [(w, p) for w, p in everything if p >= 0.1]
    assert all(p >= 0.1 for _, p in floored)


def test_world_enumeration_guard():
    long_u = UncertainString("long", tuple({"a": 0.5, "b": 0.5} for _ in range(13)))
    with pytest.raises(CapacityError):
        enumerate_worlds(long_u)
    # a positive floor caps the output, so the same string is fine
    some = enumerate_worlds(long_u, floor=0.5**13)
    assert len(some) == 2**13


def test_world_enumeration_handles_long_deterministic_strings():
    u = UncertainString("det", tuple({"ab"[q % 2]: 1.0} for q in range(3000)))
    assert enumerate_worlds(u, 0.5) == [("ab" * 1500, 1.0)]


def test_occurrence_probability_values(genome):
    assert occurrence_probability(genome, "AT", 7) == pytest.approx(0.12)
    assert occurrence_probability(genome, "AT", 9) == pytest.approx(0.5)
    assert occurrence_probability(genome, "PFP", 2) == 0.0
    assert occurrence_probability(genome, "", 1) == 1.0


def test_occurrence_probability_window_bounds(genome):
    with pytest.raises(ValueError):
        occurrence_probability(genome, "AT", 0)
    with pytest.raises(ValueError):
        occurrence_probability(genome, "AT", 11)


def test_occurrence_probability_correlation_cases(correlated):
    # conditioner inside the window picks the matching conditional
    assert occurrence_probability(correlated, "eqz", 1) == pytest.approx(0.6 * 0.3)
    assert occurrence_probability(correlated, "fqz", 1) == pytest.approx(0.4 * 0.4)
    # conditioner outside the window marginalizes
    assert occurrence_probability(correlated, "qz", 2) == pytest.approx(0.34)
    assert occurrence_probability(correlated, "z", 3) == pytest.approx(0.34)
    # windows not touching the source are plain products
    assert occurrence_probability(correlated, "eq", 1) == pytest.approx(0.6)


def test_marginal_matches_total_probability():
    c = Correlation(3, "z", 1, "e", 0.3, 0.4)
    assert c.marginal(0.6) == pytest.approx(0.34)
    assert c.marginal(1.0) == 0.3
    assert c.marginal(0.0) == 0.4


def test_by_source_keeps_first_on_duplicates():
    u = UncertainString(
        "dup",
        ({"a": 0.5, "b": 0.5}, {"c": 0.5, "d": 0.5}),
        (Correlation(1, "a", 2, "c", 0.5, 0.5), Correlation(1, "a", 2, "d", 0.1, 0.9)),
    )
    assert u.by_source[(1, "a")].p_plus == 0.5


def test_pr_reads_base_distribution(worlds_example):
    assert worlds_example.pr(1, "b") == 0.4
    assert worlds_example.pr(1, "z") == 0.0


def test_collection_rejects_duplicate_names(worlds_example):
    with pytest.raises(ValueError):
        DocumentCollection((worlds_example, worlds_example))
    coll = DocumentCollection((worlds_example,))
    assert len(coll) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_occurrence_equals_world_mass_without_correlations(seed):
    """On independent strings an occurrence is exactly the mass of matching worlds."""
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(2, 7))
    worlds = enumerate_worlds(u)
    start = rng.randint(1, u.n)
    m = rng.randint(1, u.n - start + 1)
    pattern = "".join(rng.choice(sorted(u.positions[start - 1 + t])) for t in range(m))
    mass = sum(p for w, p in worlds if w[start - 1 : start - 1 + m] == pattern)
    assert math.isclose(occurrence_probability(u, pattern, start), mass, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_correlated_worlds_sum_to_one(seed):
    """Marginal-consistent correlations keep the world masses a distribution."""
    rng = random.Random(seed)
    u = random_ustring(rng, n=rng.randint(3, 8), correlation_rate=0.6)
    worlds = enumerate_worlds(u)
    assert math.isclose(sum(p for _, p in worlds), 1.0, abs_tol=1e-9)
