"""Seeded random instance builders and reference implementations shared across the test modules."""

from __future__ import annotations

import random

from ustrindex import UncertainString
from ustrindex.textcore import TreeView
from ustrindex.datagen import _inject_correlations


def random_distribution(rng: random.Random, alphabet: str, max_choices: int) -> dict[str, float]:
    k = rng.randint(2, min(max_choices, len(alphabet)))
    syms = rng.sample(alphabet, k)
    weights = [rng.random() + 0.05 for _ in syms]
    total = sum(weights)
    return {s: w / total for s, w in zip(syms, weights)}


def random_ustring(
    rng: random.Random,
    n: int | None = None,
    alphabet: str = "abcd",
    theta: float = 0.5,
    max_choices: int = 3,
    correlation_rate: float = 0.0,
    name: str = "rnd",
) -> UncertainString:
    """A random uncertain string; correlations, when asked for, keep worlds summing to 1."""
    if n is None:
        n = rng.randint(4, 40)
    positions: list[dict[str, float]] = []
    for _ in range(n):
        if rng.random() < theta:
            positions.append(random_distribution(rng, alphabet, max_choices))
        else:
            positions.append({rng.choice(alphabet): 1.0})
    corrs = _inject_correlations(rng, positions, correlation_rate) if correlation_rate > 0 else ()
    return UncertainString(name, tuple(positions), corrs)


def reference_link_marks(tt, saidx) -> list[tuple[int, int, int, int]]:
    """Sorted (position, origin depth, target depth, witness) of every raw link.

    The marking over an explicit suffix tree that ``build_links`` replaces:
    leaves and the LCAs of consecutive d-leaves (found by climbing parent
    pointers) are marked d, and each mark links to its nearest d-marked
    proper ancestor.  The witness of an LCA is the left leaf of its leftmost
    pair.
    """
    tree = TreeView(saidx)
    eff_len = tt.annotations.eff_len
    marks: dict[tuple[int, int], int] = {}
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for k in range(1, saidx.n + 1):
        o = int(saidx.sa[k - 1]) - 1
        d = int(tt.pos[o])
        if d:
            leaf = int(tree.leaf_pre[k - 1])
            marks[(leaf, d)] = o
            by_pos.setdefault(d, []).append((leaf, o))
    for d, rows in by_pos.items():
        for (l1, o1), (l2, _) in zip(rows, rows[1:]):
            x = l1
            while tree.subtree_end[x] < l2:
                x = int(tree.parent[x])
            marks.setdefault((x, d), o1)
    out = []
    for (node, d), woff in marks.items():
        if node == 0:
            continue
        anc = int(tree.parent[node])
        while anc > 0 and (anc, d) not in marks:
            anc = int(tree.parent[anc])
        o_depth = int(tree.depth[node])
        if tree.subtree_end[node] == node:
            o_depth = min(o_depth, int(eff_len[woff]))
        if o_depth > tree.depth[anc]:
            out.append((d, o_depth, int(tree.depth[anc]), woff))
    return sorted(out)
