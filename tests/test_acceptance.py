"""Release gate: seven numbered criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
complete.  Criteria 2, 4, and 5 share one lazily built pool of 200 seeded
instances; the other criteria build their own inputs.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from statistics import fmean

import pytest

from ustrindex import (
    GenConfig,
    approx_items,
    approx_query,
    build,
    build_container,
    build_links,
    build_listing,
    conservation_check,
    enumerate_worlds,
    generate,
    generate_collection,
    list_docs,
    list_items,
    load_container,
    maximal_factors,
    occurrence_probability,
    oracle_list,
    oracle_relevance,
    oracle_search,
    partition_links,
    prefix_probabilities,
    query,
    query_items,
    query_with_stats,
    sample_world,
    save_container,
    transform,
)


@contextmanager
def criterion(num: int, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget:g}s"
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    print(f"criterion {num}: PASS ({elapsed:.1f}s)")


def tau_grid(tau_min: float) -> list[float]:
    return [tau_min * k for k in (1.0, 2.0, 4.0, 8.0) if tau_min * k <= 1.0]


def sample_patterns(u, rng: random.Random) -> list[str]:
    """Substrings (length <= 8) of five sampled worlds plus 20 non-occurring patterns."""
    pool: set[str] = set()
    for _ in range(5):
        w = sample_world(u, rng)
        for m in range(1, min(8, len(w)) + 1):
            for s in range(len(w) - m + 1):
                pool.add(w[s : s + m])
    pats = sorted(pool)
    if len(pats) > 60:
        pats = rng.sample(pats, 60)
    alphabet = sorted({c for dist in u.positions for c in dist})
    foreign = chr(ord(alphabet[-1]) + 1)
    extended = alphabet + [foreign]
    for _ in range(20):
        m = rng.randint(1, 8)
        for _ in range(50):
            cand = "".join(rng.choice(extended) for _ in range(m))
            if m > u.n or not oracle_search(u, cand, 1e-12):
                break
        else:
            cand = foreign * m
        pats.append(cand)
    return pats


@pytest.fixture(scope="module")
def instances():
    """200 seeded strings: n <= 50 over at most 4 letters, 30% correlated."""
    out = []
    for k in range(200):
        rng = random.Random(1000 + k)
        n = rng.randint(10, 50)
        corpus = "".join(rng.choice("abcd") for _ in range(n))
        cfg = GenConfig(
            theta=(0.1, 0.3, 0.5)[k % 3],
            choices=4,
            edit_radius=2,
            neighborhood_samples=60,
            seed=2000 + k,
            correlation_rate=0.3 if k % 10 < 3 else 0.0,
        )
        u = generate(corpus, cfg, name=f"i{k}")
        tau_min = (0.05, 0.1, 0.2)[k % 3]
        out.append((u, tau_min, sample_patterns(u, random.Random(3000 + k))))
    return out


def test_criterion_1_worked_examples(worlds_example, genome, correlated, collection, relevance_doc):
    with criterion(1, budget=1.0):
        worlds = enumerate_worlds(worlds_example)
        assert len(worlds) == 12
        table = dict(worlds)
        assert table["aadaa"] == pytest.approx(0.09, abs=1e-9)
        assert table["badaa"] == pytest.approx(0.12, abs=1e-9)
        assert table["dcdca"] == pytest.approx(0.06, abs=1e-9)

        idx = build(genome, 0.1)
        assert query(idx, "AT", 0.4) == [9]
        items = dict(query_items(idx, "AT", 0.1))
        assert items[7] == pytest.approx(0.12, abs=1e-9)
        assert items[9] == pytest.approx(0.5, abs=1e-9)

        # contribution of the third character in each window
        eqz = occurrence_probability(correlated, "eqz", 1) / occurrence_probability(correlated, "eq", 1)
        fqz = occurrence_probability(correlated, "fqz", 1) / occurrence_probability(correlated, "fq", 1)
        qz = occurrence_probability(correlated, "qz", 2) / occurrence_probability(correlated, "q", 2)
        assert eqz == pytest.approx(0.3, abs=1e-9)
        assert fqz == pytest.approx(0.4, abs=1e-9)
        assert qz == pytest.approx(0.34, abs=1e-9)

        facs = maximal_factors(genome, 0.15, 5)
        assert {f.symbols for f in facs} == {"QPA", "QPF", "TPA", "TPF"}

        lidx = build_listing(collection, 0.1, "max")
        assert list_docs(lidx, "BF", 0.1) == ["d1"]

        assert oracle_relevance(relevance_doc, "BFA", "max") == pytest.approx(0.09, abs=1e-9)
        assert oracle_relevance(relevance_doc, "BFA", "or") == pytest.approx(0.18281, abs=1e-5)


def test_criterion_2_oracle_equivalence(instances):
    with criterion(2, budget=300.0):
        for u, tau_min, pats in instances:
            idx = build(u, tau_min)
            for p in pats:
                for tau in tau_grid(tau_min):
                    got = set(query(idx, p, tau))
                    want = oracle_search(u, p, tau)
                    assert got == want, f"{u.name} pattern {p!r} tau {tau:g}"


def test_criterion_3_listing_equivalence():
    with criterion(3, budget=120.0):
        for k in range(100):
            rng = random.Random(5000 + k)
            total = rng.randint(40, 120)
            docs = rng.randint(2, 8)
            corpus = "".join(rng.choice("abcd") for _ in range(total))
            cfg = GenConfig(
                theta=(0.1, 0.3, 0.5)[k % 3],
                choices=4,
                edit_radius=2,
                neighborhood_samples=60,
                seed=6000 + k,
                correlation_rate=0.3 if k % 10 < 3 else 0.0,
            )
            coll = generate_collection(corpus, cfg, docs)
            tau_min = (0.05, 0.1, 0.2)[k % 3]

            pool: set[str] = set()
            for d in coll.docs:
                w = sample_world(d, rng)
                for m in (1, 2, 3, 4, 6, 8):
                    if m <= len(w):
                        s = rng.randrange(len(w) - m + 1)
                        pool.add(w[s : s + m])
            pats = sorted(pool)
            if len(pats) > 40:
                pats = rng.sample(pats, 40)
            pats.append("zz")

            for metric in ("max", "or"):
                idx = build_listing(coll, tau_min, metric)
                for p in pats:
                    for tau in tau_grid(tau_min):
                        got = set(list_docs(idx, p, tau))
                        want = oracle_list(coll, p, tau, metric, floor=tau_min)
                        assert got == want, f"collection {k} {metric} {p!r} tau {tau:g}"


def test_criterion_4_conservation(instances):
    with criterion(4):
        checked = 0
        for u, tau_min, _ in instances:
            if u.n <= 40:
                assert conservation_check(u, tau_min, transform(u, tau_min)) is None, u.name
                checked += 1
        assert checked > 0


def _max_segment_spread(u, idx, ln) -> float:
    """Largest within-segment probability spread, recomputed from witnesses."""
    tt, sa = idx.tt, idx.saidx.sa
    eff = tt.annotations.eff_len
    worst = 0.0
    for link in ln.links():
        witness = int(sa[link.origin - 1]) - 1
        assert int(tt.pos[witness]) == link.pos_id
        assert int(eff[witness]) >= link.origin_depth
        probs = prefix_probabilities(u, tt.window_text(witness, link.origin_depth), link.pos_id)
        assert link.stored_prob == probs[link.target_depth]
        worst = max(worst, probs[link.target_depth] - probs[link.origin_depth - 1])
    return worst


def test_criterion_5_approximate_sandwich(instances):
    with criterion(5, budget=300.0):
        for j, (u, tau_min, pats) in enumerate(instances[::2]):
            rng = random.Random(7000 + j)
            sub = rng.sample(pats, 30) if len(pats) > 30 else pats
            idx = build(u, tau_min)
            raw = build_links(idx.tt, idx.saidx, tau_min)

            for eps in (0.01, 0.05, 0.2):
                ln = partition_links(raw, eps)
                if j % 5 == 0:
                    assert _max_segment_spread(u, idx, ln) <= eps + 1e-12
                for p in sub:
                    for tau in tau_grid(tau_min):
                        got = set(approx_query(ln, p, tau))
                        assert got >= oracle_search(u, p, tau), (u.name, p, tau, eps)
                        assert got <= oracle_search(u, p, tau - eps), (u.name, p, tau, eps)

            exact_ln = partition_links(raw, 1e-9)
            for p in sub:
                for tau in tau_grid(tau_min):
                    got = set(approx_query(exact_ln, p, tau))
                    assert got == oracle_search(u, p, tau), (u.name, p, tau)


def test_criterion_6_work_bounds():
    with criterion(6):
        buckets: dict[int, dict[int, list[int]]] = {}
        sizes = (2_000, 10_000, 50_000)
        for n in sizes:
            rng = random.Random(77)
            corpus = "".join(rng.choice("abcdefgh") for _ in range(n))
            u = generate(corpus, GenConfig(theta=0.2, seed=7), name=f"w{n}")
            idx = build(u, 0.3)
            per_n: dict[int, list[int]] = {}
            qrng = random.Random(99)
            w = sample_world(u, qrng)
            for _ in range(10_000):
                m = qrng.randint(1, 8)
                s = qrng.randrange(len(w) - m + 1)
                p = w[s : s + m]
                assert m <= idx.m_short
                positions, stats = query_with_stats(idx, p, 0.3)
                assert stats.rmq_calls <= 2 * len(positions) + 1
                if stats.rmq_calls:
                    per_n.setdefault(len(positions), []).append(stats.rmq_calls)
            buckets[n] = per_n

        small, large = buckets[sizes[0]], buckets[sizes[-1]]
        compared = 0
        for k in sorted(set(small) & set(large)):
            if len(small[k]) < 20 or len(large[k]) < 20:
                continue
            ratio = fmean(large[k]) / fmean(small[k])
            assert 1 / 3 <= ratio <= 3, f"bucket {k}: mean work ratio {ratio:.2f}"
            compared += 1
        assert compared > 0


def test_criterion_7_persistence(tmp_path):
    with criterion(7):
        rng = random.Random(31)
        corpus = "".join(rng.choice("abcdef") for _ in range(160))
        u = generate(corpus, GenConfig(theta=0.3, seed=13), name="p7")
        queries = []
        w = sample_world(u, rng)
        while len(queries) < 25:
            m = rng.randint(1, 8)
            s = rng.randrange(len(w) - m + 1)
            queries.append(w[s : s + m])

        sub = build_container([u], 0.1, epsilon=0.05)
        path = str(tmp_path / "sub.usi")
        save_container(sub, path)
        back = load_container(path)
        ran = 0
        for p in queries:
            for tau in (0.1, 0.2, 0.4, 0.8):
                assert query_items(back.substring, p, tau) == query_items(sub.substring, p, tau)
                assert approx_items(back.links, p, tau) == approx_items(sub.links, p, tau)
                ran += 1
        assert ran == 100

        coll = generate_collection(corpus, GenConfig(theta=0.3, seed=14), 4)
        for metric in ("max", "or"):
            lst = build_container(list(coll.docs), 0.1, metric=metric)
            lpath = str(tmp_path / f"lst_{metric}.usi")
            save_container(lst, lpath)
            lback = load_container(lpath)
            ran = 0
            for d in coll.docs:
                wd = sample_world(d, random.Random(15))
                for m in (1, 2, 3, 5, 8):
                    p = wd[:m] if m <= len(wd) else "zz"
                    for tau in (0.1, 0.2, 0.4, 0.8, 0.9):
                        assert list_items(lback.listing, p, tau) == list_items(lst.listing, p, tau)
                        ran += 1
            assert ran == 100
