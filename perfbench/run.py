#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of ustrindex.

Run from the root of a checkout:

    python3 perfbench/run.py --workload short-search --seed 1 --seconds 10 --trace 0

One invocation runs one workload in this process (``--workload all`` runs
each in its own child process).  It prints every metric as ``name value
unit`` and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The spans of a
traced run are written to ``.perfbench/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("short-search", "long-search", "listing", "approx")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True, help="makes every input; same seed, same inputs")
    ap.add_argument("--seconds", type=float, default=10.0, help="length of the timed query loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    ap.add_argument(
        "--size",
        choices=("tiny", "default", "reference"),
        default="default",
        help="input size: tiny for self-tests, reference for the ROADMAP baseline sizes",
    )
    return ap


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a child process of its own, so peak RSS is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "ustrindex" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'ustrindex'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import measure  # needs src/ on the path

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    try:
        res = measure.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, str(workdir), str(trace_path)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = measure.PER_LAYER if args.trace else measure.END_TO_END
    for key, value in res.shape.items():
        print(f"shape {key} {value:g}")
    for msg in res.problems:
        print(f"FAILED {msg}")
    for name, value in res.metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ops_ratio {res.failed / res.attempted:.6g} ratio")
    if args.trace:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in res.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
