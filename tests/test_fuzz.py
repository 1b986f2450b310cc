"""Mutated UST text, parsed and built, and damaged containers, loaded: only typed errors come out, never a traceback."""

from __future__ import annotations

import io
import json
import random
import tempfile
import zipfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ustrindex import (
    CapacityError,
    ContainerError,
    ParseError,
    build_container,
    container,
    load_container,
    parse_ust,
    save_container,
    serialize_ust,
)

from helpers import random_ustring

# token replacements: bad floats, out-of-range and odd symbols, bad integers
PROBABILITIES = ("nan", "NaN", "inf", "-inf", "1e309", "-1e309", "-0.5", "0", "1.5", "1e-320", "0.5.5", "", "0x1p-1")
SYMBOLS = ("ab", "é", "\U0001F600", "", ":", "#", "\x00", "$")
INTEGERS = ("0", "-1", "99", "1.5", "x", "9" * 30)


def _source(rng: random.Random) -> str:
    """One or two small correlated strings as UST text."""
    docs = [
        random_ustring(rng, n=rng.randint(2, 12), correlation_rate=0.5, name=f"d{k}")
        for k in range(rng.choice((1, 1, 2)))
    ]
    return serialize_ust(docs)


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        toks = lines[k].split()
        what = rng.random()
        if what < 0.15:
            return "\n".join(lines)[: rng.randrange(len(text))]  # truncation
        if what < 0.25:
            lines.insert(k, rng.choice(lines))  # a repeated line
        elif what < 0.3:
            del lines[k]
        elif what < 0.4:
            lines[k] = f"corr {rng.choice(INTEGERS)} a {rng.choice(INTEGERS)} b {rng.choice(PROBABILITIES)} 0.5"
        elif toks and toks[0] == "pos" and len(toks) > 1:
            i = rng.randrange(1, len(toks))
            sym, _, prob = toks[i].partition(":")
            if rng.random() < 0.5:
                prob = rng.choice(PROBABILITIES)
            else:
                sym = rng.choice(SYMBOLS)
            toks[i] = f"{sym}:{prob}"
            lines[k] = " ".join(toks)
        elif toks and toks[0] == "corr" and len(toks) == 7:
            i = rng.randrange(1, 7)
            toks[i] = rng.choice((INTEGERS, SYMBOLS, SYMBOLS, INTEGERS, PROBABILITIES, PROBABILITIES)[i - 1])
            lines[k] = " ".join(toks)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_mutated_ust_text_ends_in_a_typed_error(seed):
    rng = random.Random(seed)
    text = _mutate(rng, _source(rng))
    try:
        docs = parse_ust(text)
    except ParseError:
        return
    try:
        build_container(docs, rng.choice((0.1, 0.3)), epsilon=rng.choice((None, 0.05)) if len(docs) == 1 else None)
    except (ValueError, CapacityError):
        pass


def _containers() -> dict[str, bytes]:
    """Small format-11 containers of the three kinds, as file bytes."""
    rng = random.Random(0)
    docs = [random_ustring(rng, n=12, correlation_rate=0.3, name=f"d{k}") for k in range(3)]
    built = {
        "substring": build_container(docs[:1], 0.1),
        "links": build_container(docs[:1], 0.1, epsilon=0.05),
        "listing": build_container(docs, 0.1, metric="or"),
    }
    saved = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, container in built.items():
            save_container(container, f"{tmp}/{kind}.usi")
            saved[kind] = Path(f"{tmp}/{kind}.usi").read_bytes()
    return saved


CONTAINERS = _containers()


def _members(data: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _zipped(members: dict[str, bytes], reseal: bool) -> bytes:
    """``members`` as a valid zip, with the manifest's digests rewritten to fit them when ``reseal``."""
    if reseal:
        try:
            manifest = json.loads(members["manifest.json"])
            found = {name: container._sha256(data) for name, data in members.items() if name != "manifest.json"}
            manifest["digests"] = container._digests(manifest, found)
            members = {**members, "manifest.json": json.dumps(manifest).encode()}
        except (ValueError, TypeError, AttributeError):
            pass  # a manifest the rewrite broke stays as it is
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buf.getvalue()


def _huge_count(data: bytes, rng: random.Random) -> bytes:
    """A ``.npy`` member under a header that claims a huge or an off-by-one count."""
    fh = io.BytesIO(data)
    np.lib.format.read_magic(fh)
    shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    count = rng.choice((1 << 40, 1 << 62, 2**31 + 1, shape[0] + 1, max(shape[0] - 1, 0), -1))
    head = io.BytesIO()
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": fortran, "shape": (count,)}
    np.lib.format.write_array_header_1_0(head, header)
    return head.getvalue() + data[fh.tell() :]


def _damage(rng: random.Random, data: bytes) -> bytes:
    """Bit flips or a truncation of the file, or one member rewritten in a valid zip, resealed or not."""
    what = rng.random()
    if what < 0.25:
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if what < 0.35:
        return data[: rng.randrange(len(data))]
    members = _members(data)
    name = rng.choice(sorted(members))
    if what < 0.5 and name.endswith(".npy"):
        members[name] = _huge_count(members[name], rng)
    elif members[name]:
        out = bytearray(members[name])
        out[rng.randrange(len(out))] = rng.randrange(256)
        members[name] = bytes(out)
    return _zipped(members, reseal=rng.random() < 0.5)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(CONTAINERS)))
def test_a_damaged_container_ends_in_a_container_error(seed, kind):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.usi"
        Path(path).write_bytes(_damage(rng, CONTAINERS[kind]))
        try:
            load_container(path)
        except ContainerError:
            pass
