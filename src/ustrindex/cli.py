"""Command-line surface: generate data, build indexes, query, inspect, verify.

Results print one line per query: ascending whitespace-separated positions
(or document names in collection order).  With ``--json`` each result becomes
its own JSON object line.  ``ustr --help`` ends with the exit codes
(``EXIT_CODES``), as README does.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .approx import approx_items
from .container import build_container, container_info, load_container, save_container
from .datagen import GenConfig, generate, generate_collection, sample_world
from .errors import CapacityError, ParseError, ThresholdError
from .listing import build_listing, list_docs, list_items
from .model import DocumentCollection, UncertainString
from .oracle import oracle_list, oracle_search
from .qindex import build, query, query_items
from .ustformat import parse_ust_file, serialize_ust, write_ust_file

__all__ = ["main"]


def _gen_config(args: argparse.Namespace) -> GenConfig:
    return GenConfig(
        theta=args.theta,
        choices=args.choices,
        edit_radius=args.edit_radius,
        neighborhood_samples=args.samples,
        seed=args.seed,
        correlation_rate=args.correlation_rate,
    )


def cmd_gen(args: argparse.Namespace) -> int:
    with open(args.corpus, encoding="utf-8") as fh:
        corpus = "".join(fh.read().split())
    cfg = _gen_config(args)
    if args.docs != 1:
        items: DocumentCollection | UncertainString = generate_collection(corpus, cfg, args.docs)
    else:
        items = generate(corpus, cfg, name=args.name)
    if args.out:
        write_ust_file(args.out, items)
    else:
        sys.stdout.write(serialize_ust(items))
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    docs: list[UncertainString] = []
    for path in args.inputs:
        docs.extend(parse_ust_file(path))
    container = build_container(docs, args.tau_min, epsilon=args.epsilon, metric=args.metric, length_cap=args.cap)
    save_container(container, args.out)
    idx = container.substring or container.listing
    assert idx is not None
    print(f"built {container.kind} index over {len(docs)} document(s), t-length {idx.tt.n}")
    return 0


# subcommand -> (the container field it reads, its answer function, the JSON keys of a result's pair)
_ANSWERS = {
    "query": ("substring", query_items, ("position", "probability")),
    "list": ("listing", list_items, ("doc", "relevance")),
    "approx": ("links", approx_items, ("position", "probability")),
}


def cmd_answer(args: argparse.Namespace) -> int:
    field, answer, (key_name, value_name) = _ANSWERS[args.command]
    container = load_container(args.index)
    idx = getattr(container, field)
    if idx is None and field == "links":
        raise ValueError(f"{args.index} was built without --epsilon; rebuild it to use approx")
    if idx is None:
        raise ValueError(f"{args.index} holds a {container.kind} index; this command needs a {field} index")
    for p in args.pattern:
        items = answer(idx, p, args.tau)
        if args.json:
            for key, value in items:
                print(json.dumps({"pattern": p, key_name: key, value_name: value}))
        else:
            print(" ".join(str(key) for key, _ in items))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    print(json.dumps(container_info(args.index)))
    return 0


def _tau_grid(tau_min: float) -> list[float]:
    return [tau_min * mult for mult in (1.0, 2.0, 4.0, 8.0) if tau_min * mult <= 1.0] or [tau_min]


def _sample_patterns(u: UncertainString, rng: random.Random, cap: int = 60) -> list[str]:
    """Substrings of sampled worlds up to length 8, plus random non-occurring noise."""
    pool: set[str] = set()
    for _ in range(5):
        w = sample_world(u, rng)
        for m in range(1, min(8, len(w)) + 1):
            for s in range(len(w) - m + 1):
                pool.add(w[s : s + m])
    pats = sorted(pool)
    if len(pats) > cap:
        pats = rng.sample(pats, cap)
    alphabet = sorted({c for dist in u.positions for c in dist})
    alphabet.append(chr(ord(max(alphabet)) + 1))
    for _ in range(20):
        m = rng.randint(1, 8)
        pats.append("".join(rng.choice(alphabet) for _ in range(m)))
    return pats


def _verify_substring(u: UncertainString, tau_min: float, rng: random.Random) -> str | None:
    idx = build(u, tau_min)
    for p in _sample_patterns(u, rng):
        for tau in _tau_grid(tau_min):
            got = set(query(idx, p, tau))
            want = oracle_search(u, p, tau)
            if got != want:
                return (
                    f"ustr {u.name!r} pattern {p!r} tau {tau:.6g}:"
                    f" index {sorted(got)} oracle {sorted(want)}"
                )
    return None


def _verify_listing(
    collection: DocumentCollection, tau_min: float, rng: random.Random, metric: str
) -> str | None:
    idx = build_listing(collection, tau_min, metric)
    for d in collection.docs:
        for p in _sample_patterns(d, rng, cap=20):
            for tau in _tau_grid(tau_min):
                got = set(list_docs(idx, p, tau))
                want = oracle_list(collection, p, tau, metric, floor=tau_min)
                if got != want:
                    return (
                        f"collection pattern {p!r} metric {metric} tau {tau:.6g}:"
                        f" index {sorted(got)} oracle {sorted(want)}"
                    )
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    checks = 0
    if args.file:
        docs = parse_ust_file(args.file)
        if len(docs) == 1:
            bad = _verify_substring(docs[0], args.tau_min, rng)
        else:
            collection = DocumentCollection(tuple(docs))
            bad = None
            for metric in ("max", "or", "orx"):
                bad = bad or _verify_listing(collection, args.tau_min, rng, metric)
        if bad:
            print(f"mismatch: {bad}")
            return 5
        print(f"verify: {args.file} consistent with the oracle at tau_min {args.tau_min}")
        return 0

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    alphabet = "abcd"
    for k in range(args.count):
        n = rng.randint(8, 40)
        corpus = "".join(rng.choice(alphabet) for _ in range(n))
        cfg = GenConfig(
            theta=0.5,
            choices=3,
            edit_radius=2,
            neighborhood_samples=40,
            seed=args.seed + k,
            correlation_rate=0.3 if k % 3 == 0 else 0.0,
        )
        u = generate(corpus, cfg, name=f"v{k}")
        tau_min = (0.05, 0.1, 0.2)[k % 3]
        bad = _verify_substring(u, tau_min, rng)
        if bad is None and k % 5 == 0:
            coll = generate_collection(corpus, cfg, 3)
            for metric in ("max", "or"):
                bad = bad or _verify_listing(coll, tau_min, rng, metric)
        if bad:
            print(f"mismatch: {bad}")
            return 5
        checks += 1
    print(f"verify: {checks} seeded instances consistent with the oracle")
    return 0


EXIT_CODES = (
    "exit codes: 0 success, 2 usage or input errors, 3 query threshold below the index floor, "
    "4 transformed-text capacity exceeded, 5 verification mismatch"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ustr", description=__doc__.splitlines()[0], epilog=EXIT_CODES)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate an uncertain string from a corpus file")
    sp.add_argument("corpus", help="plain text corpus (whitespace is stripped)")
    sp.add_argument("-o", "--out", help="output UST file (default stdout)")
    sp.add_argument("--name", default="gen", help="string name (single-document output)")
    sp.add_argument("--docs", type=int, default=1, help="split the corpus into this many documents")
    sp.add_argument("--theta", type=float, default=0.2, help="fraction of uncertain positions")
    sp.add_argument("--choices", type=int, default=5, help="max alternatives per uncertain position")
    sp.add_argument("--edit-radius", type=int, default=4, help="neighborhood edit radius")
    sp.add_argument("--samples", type=int, default=200, help="sampled neighbors per window")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--correlation-rate", type=float, default=0.0, help="chance a position joins a correlated pair")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("build", help="build an index container from UST file(s)")
    sp.add_argument("inputs", nargs="+", help="UST input file(s)")
    sp.add_argument("-o", "--out", required=True, help="output container file")
    sp.add_argument("--tau-min", type=float, required=True, help="construction threshold floor")
    sp.add_argument("--epsilon", type=float, help="also build approximate links with this epsilon")
    sp.add_argument("--metric", choices=("max", "or", "orx"), help="build a listing index with this relevance metric")
    sp.add_argument("--cap", type=int, help="transformed-text length cap")
    sp.set_defaults(func=cmd_build)

    for name, what in (
        ("query", "threshold substring search"),
        ("list", "document listing by relevance"),
        ("approx", "approximate substring search over links"),
    ):
        sp = sub.add_parser(name, help=what)
        sp.add_argument("index", help="index container file")
        sp.add_argument("--pattern", action="append", required=True, help="pattern (repeatable)")
        sp.add_argument("--tau", type=float, required=True, help="probability threshold")
        sp.add_argument("--json", action="store_true", help="one JSON object per result")
        sp.set_defaults(func=cmd_answer)

    sp = sub.add_parser("info", help="print a container's manifest and the bytes of each member, as JSON")
    sp.add_argument("index", help="index container file")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("verify", help="cross-check indexes against the brute-force oracle")
    sp.add_argument("file", nargs="?", help="UST file to verify (default: seeded random suite)")
    sp.add_argument("--tau-min", type=float, default=0.1, help="floor used for file verification")
    sp.add_argument("--count", type=int, default=50, help="random instances in the seeded suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ThresholdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
