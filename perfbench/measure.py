"""One workload run: set up, save, load, query in a closed loop, check, report.

End-to-end numbers come from an untraced run.  A traced run does set-up,
load and a fixed prefix of the queries both untraced and with spans recorded
at every layer boundary (see tracer.py), turns the spans into per-layer
numbers and reports traced minus untraced as the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import zipfile
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from ustrindex import load_container, save_container

import workloads
from tracer import Tracer

# Five rounds of load and queries; a set-up before rounds 0, 2 and 4.
ROUNDS = 5
SETUP_EVERY = 2
# Patterns replayed under tracing: a multiple of every length cycle (8 and
# 21 lengths), so per-query counts cover each length equally and repeat
# exactly for a given seed.
TRACED_QUERIES = 840

END_TO_END = {
    "setup_s": "s",
    "load_s": "s",
    "index_bytes_per_symbol": "B/symbol",
    "peak_rss_mb": "MB",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "queries_per_s": "1/s",
    "us_per_output": "us",
}

PER_LAYER = {
    "factorize.transform_s": "s",
    "factorize.text_codes_per_symbol": "codes/symbol",
    "factorize.factors": "count",
    "textcore.suffix_array_s": "s",
    "textcore.tree_view_s": "s",
    "textcore.tree_nodes": "count",
    "textcore.rmq_build_s": "s",
    "textcore.suffix_range_us": "us",
    "textcore.range_slots_per_query": "count",
    "textcore.locus_us": "us",
    "qindex.build_s": "s",
    "qindex.tables_s": "s",
    "qindex.short_table_bytes": "B",
    "qindex.short_nonzero_frac": "ratio",
    "qindex.long_table_bytes": "B",
    "qindex.long_tables": "count",
    "qindex.query_us": "us",
    "qindex.collect_us": "us",
    "qindex.rmq_calls_per_query": "count",
    "qindex.block_scans_per_query": "count",
    "qindex.outputs_per_query": "count",
    "qindex.outputs_per_rmq_call": "ratio",
    "qindex.outputs_per_range_slot": "ratio",
    **{f"qindex.query_p50_us.m{m}": "us" for m in range(1, 9)},
    "listing.build_s": "s",
    "listing.tables_s": "s",
    "listing.table_bytes": "B",
    "listing.nonzero_frac": "ratio",
    "listing.query_us": "us",
    "listing.collect_us": "us",
    "listing.rmq_calls_per_query": "count",
    "listing.outputs_per_query": "count",
    "approx.build_links_s": "s",
    "approx.partition_s": "s",
    "approx.links_per_symbol": "links/symbol",
    "approx.query_us": "us",
    "approx.collect_us": "us",
    "approx.outputs_per_query": "count",
    "container.save_s": "s",
    "container.read_s": "s",
    "container.load_rebuild_s": "s",
    **{f"container.bytes.{part}": "B" for part in ("short", "long", "text", "links", "doc_of")},
    "ustformat.parse_s": "s",
    "trace.overhead_setup_s": "s",
    "trace.overhead_load_s": "s",
    "trace.overhead_query_us": "us",
}

# Which layer's query function a workload kind times.
QUERY_LAYER = {"search": "qindex", "listing": "listing", "approx": "approx"}


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    shape: dict[str, float]


@dataclass
class Loop:
    """Per-query latencies (ns), outputs and pattern lengths of a closed loop."""

    lat: list[int] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    lengths: list[int] = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0


def _timed(fn, *args):
    gc.collect()
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def _load(inp: workloads.Inputs, path: str):
    """Reopen the container and answer one query on it.

    A substring index read back from disk builds its annotations on the
    first query, so that query is part of what reopening costs.  Returns the
    index, the ``load_container`` seconds and the first query's seconds.
    """
    loaded, load_s = _timed(load_container, path)
    t0 = perf_counter()
    workloads.query(inp, loaded, inp.warmup[0])
    return loaded, load_s, perf_counter() - t0


def closed_loop(inp: workloads.Inputs, index, seconds: float) -> Loop:
    """One client issuing each query after the previous returns, for ``seconds``.

    Every call starts again at the first pattern, so loops of equal length
    do the same work.
    """
    loop = Loop()
    pats = inp.patterns
    query = workloads.query
    gc.collect()
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    k = 0
    t1 = start
    while t1 < deadline:
        p = pats[k % len(pats)]
        k += 1
        t0 = perf_counter_ns()
        try:
            out, _ = query(inp, index, p)
        except Exception:  # an operation that raised counts as failed, the loop goes on
            out = 0
            loop.failed += 1
        t1 = perf_counter_ns()
        loop.lat.append(t1 - t0)
        loop.outputs.append(out)
        loop.lengths.append(len(p))
    loop.wall = (t1 - start) / 1e9
    return loop


def _warm_up(inp: workloads.Inputs, index) -> int:
    failed = 0
    for p in inp.warmup[1:]:
        try:
            workloads.query(inp, index, p)
        except Exception:  # counted, as in the timed loop
            failed += 1
    return failed


def _check(inp: workloads.Inputs, built, loaded) -> tuple[int, list[str]]:
    """Check the seeded sample; returns the patterns that failed and why."""
    failed = 0
    problems = []
    for p in inp.check:
        try:
            found = workloads.check(inp, built, loaded, p)
        except Exception as exc:  # a raising query is a failed operation
            found = [f"{type(exc).__name__}: {exc}"]
        failed += bool(found)
        problems.extend(f"{p!r}: {msg}" for msg in found)
    return failed, problems


def _shape(inp: workloads.Inputs, c) -> dict[str, float]:
    idx = c.substring or c.listing
    shape = {
        "symbols": inp.symbols,
        "text_codes": idx.tt.n,
        "m_short": idx.m_short,
    }
    if c.substring is not None:
        shape["l_max"] = idx.l_max
        shape["long_tables"] = len(idx.long_tables)
    if c.links is not None:
        shape["links"] = len(c.links)
    return shape


def run(name: str, seed: int, seconds: float, trace: bool, size: str, workdir: str, trace_path: str) -> Outcome:
    inp = workloads.make_inputs(name, seed, size)
    path = os.path.join(workdir, "index.usi")
    if trace:
        return _run_traced(inp, seconds, path, trace_path)

    # Rounds spread set-ups, loads and queries over the whole run.  A shared
    # machine runs faster or slower for stretches of tens of seconds; samples
    # taken far apart average over them, instead of all landing in one.
    built = loaded = None
    setup_s: list[float] = []
    load_s: list[float] = []
    failed = 0
    rounds: list[Loop] = []
    for r in range(ROUNDS):
        loaded = None
        if r % SETUP_EVERY == 0:
            built = None
            built, dt = _timed(workloads.setup, inp)
            setup_s.append(dt)
            save_container(built, path)
        loaded, dt, first = _load(inp, path)
        load_s.append(dt + first)
        failed += _warm_up(inp, loaded)
        rounds.append(closed_loop(inp, loaded, seconds / ROUNDS))
    wrong, problems = _check(inp, built, loaded)
    failed += sum(r.failed for r in rounds) + wrong
    queries = sum(len(r.lat) for r in rounds)
    attempted = ROUNDS * len(inp.warmup) + queries + len(inp.check)

    lat_us = [t / 1e3 for r in rounds for t in r.lat]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "load_s": statistics.median(load_s),
        "index_bytes_per_symbol": os.path.getsize(path) / inp.symbols,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_p50_us": statistics.median(lat_us),
        "query_p99_us": statistics.quantiles(lat_us, n=100)[98],
        "queries_per_s": queries / sum(r.wall for r in rounds),
        "us_per_output": sum(lat_us) / max(1, sum(sum(r.outputs) for r in rounds)),
    }
    shape = _shape(inp, loaded)
    shape["queries"] = queries
    shape["outputs_per_query"] = sum(sum(r.outputs) for r in rounds) / queries
    return Outcome(metrics, attempted, failed, problems, shape)


def _zip_parts(path: str) -> dict[str, int]:
    parts = dict.fromkeys(("short", "long", "text", "links", "doc_of"), 0)
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            stem = info.filename.removesuffix(".npy")
            if stem.startswith(("short_", "long_")):
                part = stem.split("_")[0]
            elif stem in ("codes", "pos", "cum"):
                part = "text"
            elif stem.startswith("link_"):
                part = "links"
            elif stem == "doc_of":
                part = "doc_of"
            else:
                continue
            parts[part] += info.file_size
    return parts


def _table_stats(tables) -> tuple[int, float]:
    values = [v for v, _ in tables]
    total = sum(v.size for v in values)
    nonzero = sum(int((v != 0).sum()) for v in values)
    return sum(v.nbytes for v in values), nonzero / total if total else 0.0


def _query_failed(inp: workloads.Inputs, index, p: str) -> bool:
    try:
        workloads.query(inp, index, p)
    except Exception:  # counted, as in the timed loop
        return True
    return False


def _traced_query(tracer: Tracer, layer: str, inp: workloads.Inputs, index, k: int, p: str) -> bool:
    """One query inside a ``<layer>.query`` span carrying its QueryStats counts."""
    with tracer.installed():
        tracer.query_id = k
        rec = tracer.begin(f"{layer}.query")
        attrs = {"outputs": 0}
        raised = False
        try:
            out, stats = workloads.query(inp, index, p)
            attrs["outputs"] = out
            if stats is not None:
                attrs.update(rmq_calls=stats.rmq_calls, block_scans=stats.block_scans)
        except Exception:  # counted, as in the timed loop
            raised = True
        tracer.end(rec, attrs)
        tracer.query_id = None
    return raised


def _run_traced(inp: workloads.Inputs, seconds: float, path: str, trace_path: str) -> Outcome:
    kind = inp.spec.kind
    layer = QUERY_LAYER[kind]

    # Set-up and load run three times: a warm-up (the first of a process is
    # slower), then untraced, then traced.  Each untraced result is dropped
    # before the traced step, so both start from the same free memory and
    # the overhead compares samples taken back to back.
    tracer = Tracer()
    _timed(workloads.setup, inp)
    plain_setup = _timed(workloads.setup, inp)[1]
    with tracer.installed():
        gc.collect()
        rec = tracer.begin("bench.setup")
        built = workloads.setup(inp)
        tracer.end(rec)
        rec = tracer.begin("container.save")
        save_container(built, path)
        tracer.end(rec)
    _load(inp, path)
    plain_load = _load(inp, path)[1]
    with tracer.installed():
        gc.collect()
        rec = tracer.begin("container.load")
        loaded = load_container(path)
        tracer.end(rec)
    workloads.query(inp, loaded, inp.warmup[0])
    failed = _warm_up(inp, loaded)

    # Each pattern runs untraced and traced, alternating which goes first,
    # since the second run of a pattern finds its data in the CPU caches.
    plain_ns: list[int] = []
    for k in range(TRACED_QUERIES):
        p = inp.patterns[k % len(inp.patterns)]
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                failed += _traced_query(tracer, layer, inp, loaded, k, p)
            else:
                t0 = perf_counter_ns()
                failed += _query_failed(inp, loaded, p)
                plain_ns.append(perf_counter_ns() - t0)
    tracer.write(trace_path)

    # untraced closed loop for the per-length latencies
    loop = closed_loop(inp, loaded, seconds)
    wrong, problems = _check(inp, built, loaded)
    failed += loop.failed + wrong
    attempted = len(inp.warmup) + 2 + 2 * TRACED_QUERIES + len(loop.lat) + len(inp.check)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    s = 1e-9
    total, own = tracer.totals("bench.setup")
    metrics["factorize.transform_s"] = total["factorize.transform"] * s
    metrics["textcore.suffix_array_s"] = total["textcore.suffix_array"] * s
    metrics["textcore.tree_view_s"] = total["textcore.tree_view"] * s
    metrics["textcore.rmq_build_s"] = total["textcore.rmq_build"] * s
    for build_layer in ("qindex", "listing"):
        metrics[f"{build_layer}.build_s"] = total[f"{build_layer}.build"] * s
        metrics[f"{build_layer}.tables_s"] = own[f"{build_layer}.build"] * s
    metrics["approx.build_links_s"] = total["approx.build_links"] * s
    metrics["approx.partition_s"] = total["approx.partition"] * s
    setup_traced = total["bench.setup"] * s

    total, own = tracer.totals("container.save")
    metrics["container.save_s"] = total["container.save"] * s
    total, own = tracer.totals("container.load")
    load_traced = total["container.load"] * s
    metrics["container.read_s"] = own["container.load"] * s
    metrics["container.load_rebuild_s"] = s * (
        total["textcore.suffix_array"] + total["textcore.tree_view"] + total["textcore.rmq_build"]
    )
    metrics["ustformat.parse_s"] = total["ustformat.parse"] * s
    for part, size in _zip_parts(path).items():
        metrics[f"container.bytes.{part}"] = float(size)

    idx = built.substring or built.listing
    metrics["factorize.text_codes_per_symbol"] = idx.tt.n / inp.symbols
    metrics["factorize.factors"] = float(len(idx.tt.factor_table))
    metrics["textcore.tree_nodes"] = float(idx.tree.node_count)
    nbytes, frac = _table_stats(idx.short_tables)
    if built.substring is not None:
        metrics["qindex.short_table_bytes"] = float(nbytes)
        metrics["qindex.short_nonzero_frac"] = frac
        metrics["qindex.long_table_bytes"] = float(sum(pb.nbytes for pb, _ in idx.long_tables.values()))
        metrics["qindex.long_tables"] = float(len(idx.long_tables))
    else:
        metrics["listing.table_bytes"] = float(nbytes)
        metrics["listing.nonzero_frac"] = frac
    if built.links is not None:
        metrics["approx.links_per_symbol"] = len(built.links) / inp.symbols

    # queries: per-query means over the traced prefix
    q = TRACED_QUERIES
    total, own = tracer.totals(f"{layer}.query")
    sums: dict[str, int] = defaultdict(int)
    for *_span, query_id, attrs in tracer.spans:
        if query_id is not None and attrs:
            for key, value in attrs.items():
                sums[key] += value
    metrics[f"{layer}.query_us"] = total[f"{layer}.query"] / q / 1e3
    metrics[f"{layer}.collect_us"] = own[f"{layer}.query"] / q / 1e3
    metrics[f"{layer}.outputs_per_query"] = sums["outputs"] / q
    metrics["textcore.suffix_range_us"] = total["textcore.suffix_range"] / q / 1e3
    metrics["textcore.range_slots_per_query"] = sums["slots"] / q
    metrics["textcore.locus_us"] = total["textcore.locus"] / q / 1e3
    if kind == "search":
        metrics["qindex.rmq_calls_per_query"] = sums["rmq_calls"] / q
        metrics["qindex.block_scans_per_query"] = sums["block_scans"] / q
        metrics["qindex.outputs_per_rmq_call"] = sums["outputs"] / sums["rmq_calls"] if sums["rmq_calls"] else 0.0
        metrics["qindex.outputs_per_range_slot"] = sums["outputs"] / sums["slots"] if sums["slots"] else 0.0
        by_m: dict[int, list[int]] = defaultdict(list)
        for m, t in zip(loop.lengths, loop.lat):
            by_m[m].append(t)
        for m in range(1, 9):
            if by_m[m]:
                metrics[f"qindex.query_p50_us.m{m}"] = statistics.median(by_m[m]) / 1e3
    elif kind == "listing":
        metrics["listing.rmq_calls_per_query"] = sums["rmq_calls"] / q

    metrics["trace.overhead_setup_s"] = setup_traced - plain_setup
    metrics["trace.overhead_load_s"] = load_traced - plain_load
    metrics["trace.overhead_query_us"] = (total[f"{layer}.query"] - sum(plain_ns)) / q / 1e3

    return Outcome(metrics, attempted, failed, problems, _shape(inp, loaded))
