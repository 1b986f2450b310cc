"""Self-tests of the benchmark: ``python -m pytest perfbench``.

Tiny inputs keep the whole file to well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, workload: str, trace: int, seed: int = 1) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(capsys, workload, trace):
    res = _result(capsys, workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def _drop_or_invent(real):
    def planted(idx, p, tau):
        out = real(idx, p, tau)
        return out[1:] if out else [(1, 1.0)]

    return planted


def _perturb_loaded(real):
    def planted(path):
        c = real(path)
        values, _ = c.substring.short_tables[0]
        values *= 1.0 - 1e-12  # the RMQ shares this array, so answers change bit-wise only
        return c

    return planted


def test_a_wrong_answer_is_counted_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "query_items", _drop_or_invent(workloads.query_items))
    res = _result(capsys, "short-search", 0)
    assert res["correct"] is False
    assert res["failed"] == workloads.CHECK_PATTERNS


def test_a_round_trip_that_changes_probabilities_is_counted_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(measure, "load_container", _perturb_loaded(measure.load_container))
    res = _result(capsys, "short-search", 0)
    assert res["correct"] is False
    assert res["failed"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_inputs_and_a_held_out_seed_changes_them(workload):
    a = workloads.make_inputs(workload, 1, "tiny")
    again = workloads.make_inputs(workload, 1, "tiny")
    other = workloads.make_inputs(workload, 2, "tiny")
    assert (a.patterns, a.warmup, a.check) == (again.patterns, again.warmup, again.check)
    assert [d.positions for d in a.docs] == [d.positions for d in again.docs]
    assert a.patterns != other.patterns
    assert [d.positions for d in a.docs] != [d.positions for d in other.docs]
    assert [len(p) for p in a.patterns] == [len(p) for p in other.patterns]
    assert [d.n for d in a.docs] == [d.n for d in other.docs]


def test_self_time_subtracts_direct_children():
    t = Tracer()
    t.spans = [
        ["outer", 0, 100, -1, None, None],
        ["a", 10, 40, 0, None, None],
        ["a.child", 20, 25, 1, None, None],
        ["b", 50, 60, 0, None, None],
    ]
    assert t.self_ns() == [60, 25, 5, 10]
    total, own = t.totals("a")
    assert dict(total) == {"a": 30, "a.child": 5} and dict(own) == {"a": 25, "a.child": 5}


def test_installed_wrappers_are_removed_afterwards():
    before = [getattr(mod, attr) for mod, attr, _ in BOUNDARIES]
    with Tracer().installed():
        assert all(getattr(mod, attr) is not fn for (mod, attr, _), fn in zip(BOUNDARIES, before))
    assert [getattr(mod, attr) for mod, attr, _ in BOUNDARIES] == before


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "short-search", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
