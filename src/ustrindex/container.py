"""Self-describing on-disk container for built indexes.

The file is a zip archive holding ``manifest.json`` plus one ``.npy`` entry
per stored array.  Probability tables are written verbatim, so a reopened
index answers queries bit for bit like the one that was saved.  Format
version 3 stores each short depth sparsely: ``short_i`` holds the values and
``short_i_slots`` their slots (see ``textcore.SparseDepth``); approximate
links keep their origin as a suffix-array slot in ``link_origin``.  Loading
rebuilds the suffix array, the RMQ tables and, for a listing index, the
annotations; a substring index derives its annotations on its first long
query.  A load builds neither the LCP array nor a suffix-tree view.  A file
that is not such an archive, is of another version, lacks a member, holds an
unreadable member, or an array whose dtype, length or contents do not fit
the index raises ``ContainerError`` before anything is built.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .approx import LinkIndex, build_links, partition_links
from .errors import ContainerError
from .factorize import TransformedText, build_annotations
from .listing import ListingConfig, ListingIndex, build_listing
from .model import DocumentCollection, UncertainString
from .qindex import IndexConfig, SubstringIndex, build
from .textcore import SparseDepth, TreeView, build_suffix_array, rmq_build  # noqa: F401 - perfbench wraps TreeView
from .ustformat import parse_ust, serialize_ust

__all__ = ["FORMAT_VERSION", "IndexContainer", "build_container", "load_container", "save_container"]

FORMAT_VERSION = 3

_MAX_CODE = 0x10FFFF  # the largest code point; separators are -1 down to -n
_MAX_FLOAT = float(np.finfo(np.float64).max)
# member suffixes of the link arrays, in ``LinkIndex`` field order
_LINK_ARRAYS = ("origin", "pos", "stored", "odepth", "tdepth")


@dataclass(eq=False)
class IndexContainer:
    """One built index plus the metadata needed to reopen and route queries."""

    kind: str
    tau_min: float
    substring: SubstringIndex | None = None
    listing: ListingIndex | None = None
    links: LinkIndex | None = None
    epsilon: float | None = None
    metric: str | None = None


def build_container(
    docs: list[UncertainString],
    tau_min: float,
    epsilon: float | None = None,
    metric: str | None = None,
    m_short: int | None = None,
    l_max: int | None = None,
    length_cap: int | None = None,
) -> IndexContainer:
    """Build the right kind of index for ``docs``.

    A single document with no metric becomes a substring index (plus a link
    index when ``epsilon`` is given); a metric or several documents build a
    listing index.
    """
    if not docs:
        raise ValueError("no documents to index")
    if metric is not None or len(docs) > 1:
        if epsilon is not None:
            raise ValueError("approximate links apply to single-string indexes only")
        idx = build_listing(
            DocumentCollection(tuple(docs)),
            tau_min,
            metric or "max",
            ListingConfig(m_short=m_short, length_cap=length_cap),
        )
        return IndexContainer("listing", tau_min, listing=idx, metric=idx.metric)
    sub = build(docs[0], tau_min, IndexConfig(m_short=m_short, l_max=l_max, length_cap=length_cap))
    links = None
    if epsilon is not None:
        links = partition_links(build_links(sub.tt, sub.saidx, tau_min), epsilon)
    return IndexContainer("substring", tau_min, substring=sub, links=links, epsilon=epsilon)


def save_container(container: IndexContainer, path: str) -> None:
    arrays: dict[str, np.ndarray] = {}
    manifest: dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "kind": container.kind,
        "tau_min": repr(container.tau_min),
        "epsilon": None if container.epsilon is None else repr(container.epsilon),
        "metric": container.metric,
    }

    if container.kind == "substring":
        idx = container.substring
        assert idx is not None
        manifest["source"] = serialize_ust(idx.u)
        manifest["m_short"] = idx.m_short
        manifest["l_max"] = idx.l_max
        manifest["long_depths"] = sorted(idx.long_tables)
        tt = idx.tt
        short_tables = idx.short_tables
        for depth, (pb, _) in idx.long_tables.items():
            arrays[f"long_{depth}"] = pb
    elif container.kind == "listing":
        lidx = container.listing
        assert lidx is not None
        manifest["source"] = serialize_ust(lidx.collection)
        manifest["m_short"] = lidx.m_short
        tt = lidx.tt
        arrays["doc_of"] = lidx.doc_of
        short_tables = lidx.short_tables
    else:
        raise ValueError(f"unknown container kind {container.kind!r}")

    for i, (values, depth) in enumerate(short_tables, start=1):
        arrays[f"short_{i}"] = values
        arrays[f"short_{i}_slots"] = depth.slots
    arrays["codes"] = tt.codes
    arrays["pos"] = tt.pos
    arrays["cum"] = tt.cum
    if container.links is not None:
        ln = container.links
        for a, arr in zip(_LINK_ARRAYS, (ln.origin, ln.pos_id, ln.stored, ln.o_depth, ln.t_depth)):
            arrays[f"link_{a}"] = arr

    # stored uncompressed so file size reflects the structures themselves
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("manifest.json", json.dumps(manifest, indent=2))
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.save(buf, arr, allow_pickle=False)
            zf.writestr(f"{name}.npy", buf.getvalue())


def load_container(path: str) -> IndexContainer:
    """Reopen a saved index; a file that is not a sound container raises ContainerError."""
    try:
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            arrays = {
                name[: -len(".npy")]: np.load(io.BytesIO(zf.read(name)), allow_pickle=False)
                for name in zf.namelist()
                if name.endswith(".npy")
            }
        return _assemble(manifest, arrays)
    except (zipfile.BadZipFile, KeyError, ValueError) as exc:
        raise ContainerError(f"{path} is not a sound index container: {exc}") from exc


def _check_shapes(manifest: dict, arrays: dict[str, np.ndarray], m_short: int, docs) -> None:
    """Every stored array has the dtype, length and contents the index layout implies.

    Runs before anything is built, so a tampered array raises ContainerError
    instead of a traceback or a silently wrong answer later.
    """
    codes = arrays["codes"]
    n = codes.size
    want = {"codes": n, "pos": n, "cum": n}
    dtypes = {"codes": np.int64, "pos": np.int64, "cum": np.float64}
    for i in range(1, m_short + 1):
        k = arrays[f"short_{i}_slots"].size
        want[f"short_{i}_slots"] = want[f"short_{i}"] = k
        dtypes[f"short_{i}_slots"], dtypes[f"short_{i}"] = np.int32, np.float64
    if manifest["kind"] == "listing":
        want["doc_of"] = n
        dtypes["doc_of"] = np.int64
    else:
        # one block maximum per d text slots, as ``qindex.build`` cuts them
        for d in manifest["long_depths"]:
            want[f"long_{d}"] = len(range(0, n, int(d)))
            dtypes[f"long_{d}"] = np.float64
        if manifest["epsilon"] is not None:
            k = arrays["link_origin"].size
            for a in _LINK_ARRAYS:
                want[f"link_{a}"] = k
                dtypes[f"link_{a}"] = np.float64 if a == "stored" else np.int64
    for name, dtype in dtypes.items():
        if arrays[name].dtype != dtype:
            raise ContainerError(f"array {name} has dtype {arrays[name].dtype}, expected {np.dtype(dtype)}")
    for name, length in want.items():
        if arrays[name].shape != (length,):
            raise ContainerError(f"array {name} has shape {arrays[name].shape}, expected ({length},)")

    def bad(name: str, what: str) -> ContainerError:
        return ContainerError(f"array {name} holds {what}")

    if n and (codes.min() < -n or codes.max() > _MAX_CODE):
        raise bad("codes", "a code that no text holds")
    sep = codes < 0
    pos = arrays["pos"]
    if np.any(pos[sep] != 0):
        raise bad("pos", "a position at a separator")
    if np.any(arrays["cum"][sep] != -1.0):
        raise bad("cum", "a probability at a separator")
    limit = max((d.n for d in docs), default=0)
    if manifest["kind"] == "listing":
        doc_of = arrays["doc_of"]
        if n and (doc_of.min() < 0 or doc_of.max() >= len(docs)):
            raise bad("doc_of", "a document number out of range")
        limit = np.array([d.n for d in docs], dtype=np.int64)[doc_of[~sep]]
    if np.any((pos[~sep] < 1) | (pos[~sep] > limit)):
        raise bad("pos", "a position outside its source string")
    # additive "or" scores of several occurrences may exceed 1
    top = _MAX_FLOAT if manifest["kind"] == "listing" and manifest["metric"] == "or" else 1.0
    for i in range(1, m_short + 1):
        slots, values = arrays[f"short_{i}_slots"], arrays[f"short_{i}"]
        if slots.size and (slots[0] < 1 or slots[-1] > n or np.any(slots[1:] <= slots[:-1])):
            raise bad(f"short_{i}_slots", "slots that are not strictly increasing within [1, n]")
        if not np.all((values > 0.0) & (values <= top)):
            raise bad(f"short_{i}", f"a value outside (0, {top:g}] or NaN")
    if manifest["kind"] == "substring" and manifest["epsilon"] is not None:
        origin = arrays["link_origin"]
        if origin.size and (origin[0] < 1 or origin[-1] > n or np.any(origin[1:] < origin[:-1])):
            raise bad("link_origin", "origins that are not non-decreasing within [1, n]")
        if np.any((arrays["link_pos"] < 1) | (arrays["link_pos"] > limit)):
            raise bad("link_pos", "a position outside its source string")
        if np.any((arrays["link_tdepth"] < 0) | (arrays["link_tdepth"] >= arrays["link_odepth"])):
            raise bad("link_tdepth", "a depth interval that is not 0 <= target < origin")
        if not np.all((arrays["link_stored"] > 0.0) & (arrays["link_stored"] <= 1.0)):
            raise bad("link_stored", "a value outside (0, 1] or NaN")


def _assemble(manifest: dict, arrays: dict[str, np.ndarray]) -> IndexContainer:
    """Reopen the index a manifest and its arrays describe; a missing entry raises KeyError."""
    if not isinstance(manifest, dict):
        raise ContainerError("the container manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ContainerError(f"unsupported container version {version!r}")
    kind = manifest["kind"]
    tau_min = float(manifest["tau_min"])
    docs = parse_ust(manifest["source"])
    m_short = int(manifest["m_short"])
    if kind not in ("substring", "listing"):
        raise ContainerError(f"unknown container kind {kind!r}")
    if kind == "substring" and len(docs) != 1:
        raise ContainerError(f"a substring container holds one source string, not {len(docs)}")
    _check_shapes(manifest, arrays, m_short, docs)
    codes, pos, cum = arrays["codes"], arrays["pos"], arrays["cum"]
    saidx = build_suffix_array(codes)
    short_tables = [
        (arrays[f"short_{i}"], SparseDepth(arrays[f"short_{i}_slots"], rmq_build(arrays[f"short_{i}"])))
        for i in range(1, m_short + 1)
    ]

    if kind == "substring":
        (u,) = docs
        tt = TransformedText(codes, pos, cum, tau_min, source=u)
        long_tables = {
            int(d): (arrays[f"long_{d}"], rmq_build(arrays[f"long_{d}"]))
            for d in manifest["long_depths"]
        }
        idx = SubstringIndex(
            u, tt, saidx, tau_min, m_short, int(manifest["l_max"]), short_tables, long_tables
        )
        links = None
        epsilon = None
        if manifest["epsilon"] is not None:
            epsilon = float(manifest["epsilon"])
            links = LinkIndex(tt, saidx, tau_min, epsilon, *(arrays[f"link_{a}"] for a in _LINK_ARRAYS))
        return IndexContainer("substring", tau_min, substring=idx, links=links, epsilon=epsilon)

    collection = DocumentCollection(tuple(docs))
    tt = TransformedText(codes, pos, cum, tau_min, source=None)
    doc_of = arrays["doc_of"]
    ann = build_annotations(tt, doc_lookup=lambda o: collection.docs[int(doc_of[o])])
    lidx = ListingIndex(
        collection, manifest["metric"], tau_min, tt, ann, doc_of, saidx, m_short, short_tables
    )
    return IndexContainer("listing", tau_min, listing=lidx, metric=lidx.metric)
