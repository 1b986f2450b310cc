"""Self-describing on-disk container for built indexes.

The file is a zip archive holding ``manifest.json`` plus one ``.npy`` entry
per stored array.  Probability tables are written verbatim, so a reopened
index answers queries bit for bit like the one that was saved.  Format
version 4 stores each short depth sparsely: ``short_i`` holds the values and
``short_i_slots`` their slots (see ``textcore.SparseDepth``); approximate
links keep their origin as a suffix-array slot in ``link_origin``.  Of the
text it stores only what cannot be derived: ``codes`` and the suffix array
``sa`` as ``int32``, ``cum``, one start per factor in ``pos`` and, for
listing, one factor count per document in ``doc_factors``.  Loading never
sorts: it accepts ``sa`` after the linear check of
``textcore.check_suffix_array``, rebuilds the per-code positions (and
documents) from the factor runs, labels each short entry with the position
(or document) at its slot and builds the RMQ tables; long queries read the
stored ``cum`` directly.  A load builds neither the LCP array nor a
suffix-tree view.  A file that is not such an archive, is of another
version, lacks a member, holds an unreadable member, a manifest with a field
of the wrong JSON type, whose ``tau_min`` or ``epsilon`` lies outside (0, 1]
or whose listing metric is unknown, or an array whose dtype, length or
contents do not fit the index raises ``ContainerError`` before anything is
built.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .approx import LinkIndex, build_links, partition_links
from .errors import ContainerError
from .factorize import TransformedText
from .listing import METRICS, ListingConfig, ListingIndex, build_listing
from .model import DocumentCollection, UncertainString
from .qindex import IndexConfig, SubstringIndex, build
from .textcore import (  # noqa: F401 - perfbench wraps TreeView and build_suffix_array
    SparseDepth,
    TreeView,
    build_suffix_array,
    check_suffix_array,
    rmq_build,
)
from .ustformat import parse_ust, serialize_ust

__all__ = ["FORMAT_VERSION", "IndexContainer", "build_container", "load_container", "save_container"]

FORMAT_VERSION = 4

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
        tt, saidx = idx.tt, idx.saidx
        short_tables = idx.short_tables
        for depth, (pb, _) in idx.long_tables.items():
            arrays[f"long_{depth}"] = pb
    elif container.kind == "listing":
        lidx = container.listing
        assert lidx is not None
        manifest["source"] = serialize_ust(lidx.collection)
        manifest["m_short"] = lidx.m_short
        tt, saidx = lidx.tt, lidx.saidx
        # documents are concatenated in order, so a count per document places every factor
        arrays["doc_factors"] = tt.doc_factors
        short_tables = lidx.short_tables
    else:
        raise ValueError(f"unknown container kind {container.kind!r}")

    if tt.n > np.iinfo(np.int32).max:
        raise ValueError(f"a transformed text of {tt.n} codes does not fit the int32 members")
    for i, (values, depth) in enumerate(short_tables, start=1):
        arrays[f"short_{i}"] = values
        arrays[f"short_{i}_slots"] = depth.slots
    arrays["codes"] = tt.codes.astype(np.int32)
    arrays["sa"] = saidx.sa.astype(np.int32)
    arrays["pos"] = tt.pos[tt.factor_runs()[0]]
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


def _check_shapes(manifest: dict, arrays: dict[str, np.ndarray], m_short: int, docs) -> np.ndarray:
    """Every stored array has the dtype, length and contents the index layout implies.

    Runs before anything is built, so a tampered array raises ContainerError
    instead of a traceback or a silently wrong answer later.  Returns each
    factor's 0-based text offset.
    """
    listing = manifest["kind"] == "listing"
    short = [f"short_{i}" for i in range(1, m_short + 1)]
    dtypes = {"codes": np.int32, "sa": np.int32, "pos": np.int64, "cum": np.float64}
    dtypes |= {name: np.float64 for name in short} | {f"{name}_slots": np.int32 for name in short}
    if listing:
        dtypes["doc_factors"] = np.int64
    else:
        dtypes |= {f"long_{d}": np.float64 for d in manifest["long_depths"]}
        if manifest["epsilon"] is not None:
            dtypes |= {f"link_{a}": np.float64 if a == "stored" else np.int64 for a in _LINK_ARRAYS}
    for name, dtype in dtypes.items():
        if arrays[name].dtype != dtype:
            raise ContainerError(f"array {name} has dtype {arrays[name].dtype}, expected {np.dtype(dtype)}")

    codes = arrays["codes"]
    n = codes.size
    ends = np.flatnonzero(codes < 0)
    want = {"codes": n, "sa": n, "cum": n, "pos": ends.size}
    want |= {name: arrays[f"{name}_slots"].size for name in short}
    if listing:
        want["doc_factors"] = len(docs)
    else:
        # one block maximum per d text slots, as ``qindex.build`` cuts them
        want |= {f"long_{d}": len(range(0, n, d)) for d in manifest["long_depths"]}
        if manifest["epsilon"] is not None:
            want |= {f"link_{a}": arrays["link_origin"].size for a in _LINK_ARRAYS}
    for name, length in want.items():
        if arrays[name].shape != (length,):
            raise ContainerError(f"array {name} has shape {arrays[name].shape}, expected ({length},)")

    def bad(name: str, what: str) -> ContainerError:
        return ContainerError(f"array {name} holds {what}")

    if n and codes.max() > _MAX_CODE:
        raise bad("codes", "a code that no text holds")
    starts = np.concatenate(([0], ends[:-1] + 1))[: ends.size]
    if n and (codes[-1] >= 0 or np.any(codes[ends] != -1 - np.arange(ends.size)) or np.any(ends <= starts)):
        raise bad("codes", "separators that are not -1, -2, ... in text order, each ending a nonempty factor")
    sep = codes < 0
    cum = arrays["cum"]
    if np.any(cum[sep] != -1.0):
        raise bad("cum", "a probability at a separator")
    if not np.all(sep | ((cum >= 0.0) & (cum <= 1.0))):
        raise bad("cum", "a probability outside [0, 1] or NaN at a letter")
    counts = arrays["doc_factors"] if listing else np.array([ends.size])
    if np.any((counts < 0) | (counts > ends.size)) or counts.sum() != ends.size:
        raise bad("doc_factors", "factor counts that are negative or do not sum to the factors")
    doc = np.repeat(np.arange(len(docs)), counts)
    # a factor's run must fit its document: start in [1, n_doc - run length + 1]
    first, last = arrays["pos"], np.array([d.n for d in docs], dtype=np.int64)[doc] - (ends - starts) + 1
    if np.any((np.diff(first) < 0) & (np.diff(doc) == 0)):
        raise bad("pos", "factor starts that decrease within a document")
    if np.any((first < 1) | (first > last)):
        raise bad("pos", "a factor start outside its source string")
    # additive "or" scores of several occurrences may exceed 1
    top = _MAX_FLOAT if listing and manifest["metric"] == "or" else 1.0
    for name in short:
        slots, values = arrays[f"{name}_slots"], arrays[name]
        if slots.size and (slots[0] < 1 or slots[-1] > n or np.any(slots[1:] <= slots[:-1])):
            raise bad(f"{name}_slots", "slots that are not strictly increasing within [1, n]")
        if not np.all((values > 0.0) & (values <= top)):
            raise bad(name, f"a value outside (0, {top:g}] or NaN")
    for d in () if listing else manifest["long_depths"]:
        # a block with no factor-start value keeps 0
        if not np.all((arrays[f"long_{d}"] >= 0.0) & (arrays[f"long_{d}"] <= 1.0)):
            raise bad(f"long_{d}", "a value outside [0, 1] or NaN")
    if not listing and manifest["epsilon"] is not None:
        origin = arrays["link_origin"]
        if origin.size and (origin[0] < 1 or origin[-1] > n or np.any(origin[1:] < origin[:-1])):
            raise bad("link_origin", "origins that are not non-decreasing within [1, n]")
        if np.any((arrays["link_pos"] < 1) | (arrays["link_pos"] > docs[0].n)):
            raise bad("link_pos", "a position outside its source string")
        if np.any((arrays["link_tdepth"] < 0) | (arrays["link_tdepth"] >= arrays["link_odepth"])):
            raise bad("link_tdepth", "a depth interval that is not 0 <= target < origin")
        if not np.all((arrays["link_stored"] > 0.0) & (arrays["link_stored"] <= 1.0)):
            raise bad("link_stored", "a value outside (0, 1] or NaN")
    return starts


def _field(manifest: dict, name: str, *types: type):
    """``manifest[name]`` if it is of one of ``types``; a JSON boolean is none of them."""
    value = manifest[name]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ContainerError(f"manifest {name} {value!r} is of the wrong type")
    return value


def _assemble(manifest: dict, arrays: dict[str, np.ndarray]) -> IndexContainer:
    """Reopen the index a manifest and its arrays describe; a missing entry raises KeyError."""
    if not isinstance(manifest, dict):
        raise ContainerError("the container manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ContainerError(f"unsupported container version {version!r}")
    kind = _field(manifest, "kind", str)
    if kind not in ("substring", "listing"):
        raise ContainerError(f"unknown container kind {kind!r}")
    tau_min = float(_field(manifest, "tau_min", str, int, float))
    _field(manifest, "epsilon", str, int, float, type(None))
    docs = parse_ust(_field(manifest, "source", str))
    m_short = _field(manifest, "m_short", int)
    if kind == "substring":
        _field(manifest, "l_max", int)
        if not all(type(d) is int for d in _field(manifest, "long_depths", list)):
            raise ContainerError(f"manifest long_depths {manifest['long_depths']!r} holds a non-integer")
    for name in ("tau_min", "epsilon"):
        if manifest[name] is not None and not 0.0 < float(manifest[name]) <= 1.0:
            raise ContainerError(f"manifest {name} {manifest[name]!r} is not in (0, 1]")
    if kind == "listing" and manifest["metric"] not in METRICS:
        raise ContainerError(f"manifest metric {manifest['metric']!r} is not one of {', '.join(METRICS)}")
    if kind == "substring" and len(docs) != 1:
        raise ContainerError(f"a substring container holds one source string, not {len(docs)}")
    starts = _check_shapes(manifest, arrays, m_short, docs)
    # widened, so a loaded index holds the dtypes a built one does
    codes, cum = arrays["codes"].astype(np.int64), arrays["cum"]
    saidx = check_suffix_array(codes, arrays["sa"].astype(np.int64))
    # each factor run and its separator: positions count up from the factor's start, 0 at the separator
    width = np.diff(starts, append=codes.size)
    pos = np.arange(codes.size) - np.repeat(starts - arrays["pos"], width)
    pos[codes < 0] = 0
    text_of = {"source": docs[0]} if kind == "substring" else {"doc_factors": arrays["doc_factors"]}
    tt = TransformedText(codes, pos, cum, tau_min, **text_of)
    # an entry reports the original position (or document) of the offset at its slot
    owner = pos if kind == "substring" else tt.doc_of()
    short_tables = []
    for i in range(1, m_short + 1):
        values, slots = arrays[f"short_{i}"], arrays[f"short_{i}_slots"]
        labels = owner[saidx.sa[slots - 1] - 1].astype(np.int32)
        short_tables.append((values, SparseDepth(slots, rmq_build(values), labels)))

    if kind == "substring":
        long_tables = {
            d: (arrays[f"long_{d}"], rmq_build(arrays[f"long_{d}"]))
            for d in manifest["long_depths"]
        }
        idx = SubstringIndex(
            docs[0], tt, saidx, tau_min, m_short, manifest["l_max"], short_tables, long_tables
        )
        links = None
        epsilon = None
        if manifest["epsilon"] is not None:
            epsilon = float(manifest["epsilon"])
            links = LinkIndex(tt, saidx, tau_min, epsilon, *(arrays[f"link_{a}"] for a in _LINK_ARRAYS))
        return IndexContainer("substring", tau_min, substring=idx, links=links, epsilon=epsilon)

    collection = DocumentCollection(tuple(docs))
    lidx = ListingIndex(collection, manifest["metric"], tau_min, tt, owner, saidx, m_short, short_tables)
    return IndexContainer("listing", tau_min, listing=lidx, metric=lidx.metric)
