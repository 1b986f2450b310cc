"""Self-describing on-disk container for built indexes.

The file is a zip archive holding ``manifest.json``, the UTF-8 source UST
text ``source.ust`` and one ``.npy`` entry per stored array.  Format version
11 stores only what a load cannot derive cheaply, in narrow dtypes.  Every
integer member is in the narrowest unsigned dtype that holds its largest
value: ``codes`` as each letter's code point + 1 and each separator as 0
(``uint8`` for ASCII text), one start per factor in ``pos``, for listing one
factor count per document in ``doc_factors``, and the approximate links'
``link_origin`` (a rank in ``order``), ``link_pos``, ``link_odepth`` and
``link_tdepth``.  The order of the factor starts ``order`` holds factor ids
(k for the k-th factor in text order) in the narrowest unsigned dtype that
holds them.  Each probability is stored once: ``probs`` is the ``float64``
table of the distinct values of ``cum`` at the letters (every link value is
one of them), ascending by bit pattern, and ``cum`` and ``link_stored`` hold
indexes into it, in the narrowest unsigned dtype that addresses it.  No
member holds the order of every suffix: no index reads it.  A load numbers
the separators -1, -2, ... in text order, puts the values the indexes
address back in ``cum`` (-1.0 at each separator) and ``LinkIndex.stored``,
widens the other integer members to ``int32`` and turns the ids into
``int32`` text offsets, so a loaded index holds the arrays, dtypes and bits
included, that a built one does.  The manifest holds exactly the fields a
save writes and no derivable one (a null ``metric`` makes a substring index,
and a listing index has a null ``epsilon``): in ``documents`` each
document's name and length in collection order, and in ``digests`` the
SHA-256 of every member and of the other fields.  A save reads ``tau_min``,
``epsilon`` and ``metric`` from the one place each lives (the text, the
links, the listing index), and a load puts each back there.  No table of
answers is stored: both index kinds build a short table, and a substring
index a long one, per length the first time a query reads it, from ``cum``
at the factor starts in rank order, so a reopened index answers queries bit
for bit like the one that was saved.

A load decodes the source but never parses it: queries and the load checks
read only the names and lengths, and the text is parsed, once, the first
time something reads the strings (``SubstringIndex.u``,
``ListingIndex.collection`` or ``TransformedText.source``).  A source that
does not parse, or whose names and lengths differ from ``documents``, raises
``ContainerError`` then.  Loading never sorts: it accepts ``order`` after the
linear check of ``textcore.check_factor_order`` and rebuilds the per-code
positions (and documents) from the factor runs.  A load builds no table, no
LCP array and no suffix-tree view.  A file that is not such an archive, is
of another version, lacks a member, holds an unreadable member (a ``.npy``
header that claims another size than the bytes after it is rejected before
anything is allocated) or a source that is not UTF-8, a manifest with a
missing or unknown field or a field of the wrong JSON type, a ``tau_min`` or
``epsilon`` outside (0, 1], an ``epsilon`` on a listing index, an unknown
listing metric or ``documents`` that repeat a name or hold a length below 1,
or an array whose dtype, length or contents do not fit the index (an
integer past ``int32``, a table entry outside [0, 1] or out of order, or an
index past the table among them) raises
``ContainerError`` before anything is built; so does a member or manifest field that differs
from its digest, checked after the rest so that a damaged member is named by
what is wrong with it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tokenize
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .approx import LinkIndex, build_links, partition_links
from .errors import ContainerError, ParseError
from .factorize import TransformedText
from .listing import METRICS, ListingIndex, build_listing
from .model import DocumentCollection, Documents, UncertainString
from .qindex import SubstringIndex, build
from .textcore import (  # noqa: F401 - perfbench wraps TreeView, build_suffix_array and rmq_build
    TreeView,
    build_suffix_array,
    check_factor_order,
    rmq_build,
)
from .ustformat import parse_ust, serialize_ust

__all__ = ["FORMAT_VERSION", "IndexContainer", "build_container", "container_info", "load_container", "save_container"]

FORMAT_VERSION = 11

_MAX_CODE = 0x10FFFF  # the largest code point; separators are -1 down to -n
# the manifest fields a save writes, for every kind
_FIELDS = ("format_version", "tau_min", "epsilon", "metric", "documents", "digests")
# member suffixes of the link arrays, in ``LinkIndex`` field order
_LINK_ARRAYS = ("origin", "pos", "stored", "odepth", "tdepth")


@dataclass(eq=False)
class IndexContainer:
    """One built substring or listing index, plus the links of a substring index.

    It holds no copy of their parameters: tau_min is the text's, epsilon the
    links' ``eps`` and the metric the listing index's.
    """

    substring: SubstringIndex | None = None
    listing: ListingIndex | None = None
    links: LinkIndex | None = None

    @property
    def kind(self) -> str:
        """``listing`` or ``substring``, by the index held."""
        return "listing" if self.listing is not None else "substring"


def build_container(
    docs: list[UncertainString],
    tau_min: float,
    epsilon: float | None = None,
    metric: str | None = None,
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
        collection = DocumentCollection(tuple(docs))
        lidx = build_listing(collection, tau_min, metric or "max", length_cap=length_cap)
        return IndexContainer(listing=lidx)
    sub = build(docs[0], tau_min, length_cap=length_cap)
    links = None if epsilon is None else partition_links(build_links(sub.tt, sub.saidx), epsilon)
    return IndexContainer(substring=sub, links=links)


def save_container(container: IndexContainer, path: str) -> None:
    """Write ``container`` to ``path``; a container that no load would give back raises ValueError.

    That is one without an index or with both kinds, or with links beside no
    substring index or over another text than the substring index's.
    """
    sub, lidx, links = container.substring, container.listing, container.links
    if (sub is None) == (lidx is None):
        raise ValueError("a container holds exactly one substring or listing index")
    if links is not None and sub is None:
        raise ValueError("approximate links need the substring index they were built over")
    if links is not None and links.tt is not sub.tt:
        raise ValueError("the approximate links were built over another text than the substring index's")
    idx = sub or lidx
    tt, saidx = idx.tt, idx.saidx
    arrays: dict[str, np.ndarray] = {}
    manifest: dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "tau_min": repr(tt.tau_min),
        "epsilon": None if links is None else repr(links.eps),
        "metric": None if lidx is None else lidx.metric,
    }
    if lidx is not None:
        # documents are concatenated in order, so a count per document places every factor
        arrays["doc_factors"] = _narrow(tt.doc_factors)
    docs = tt.documents
    manifest["documents"] = [[name, n] for name, n in zip(docs.names, docs.lengths)]
    # a loaded index keeps the text it was read from, so saving it again parses nothing
    source = (serialize_ust(docs.strings) if docs.text is None else docs.text).encode()

    # a letter as its code point + 1, a separator as 0
    codes = np.maximum(tt.codes, -1)
    codes += 1
    arrays["codes"] = _narrow(codes)
    starts = tt.factor_runs()[0]
    # each factor's id, k for the k-th in text order, in suffix order
    arrays["order"] = _narrow(np.searchsorted(starts, saidx.sa - 1))
    arrays["pos"] = _narrow(tt.pos[starts])
    # each probability once: cum at the letters and the link values index one table of their distinct values
    values = [tt.cum[tt.codes >= 0]] + ([] if links is None else [links.stored])
    arrays["probs"], arrays["cum"], *stored = _tabled(values)
    if links is not None:
        for a, arr in zip(_LINK_ARRAYS, (links.origin, links.pos_id, *stored, links.o_depth, links.t_depth)):
            arrays[f"link_{a}"] = arr if a == "stored" else _narrow(arr)

    members = {"source.ust": _sha256(source)}
    # stored uncompressed so file size reflects the structures themselves
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("source.ust", source)
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.save(buf, arr, allow_pickle=False)
            members[f"{name}.npy"] = _sha256(buf.getvalue())
            zf.writestr(f"{name}.npy", buf.getvalue())
        # last, since it records the members' digests
        manifest["digests"] = _digests(manifest, members)
        zf.writestr("manifest.json", json.dumps(manifest, indent=2))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _narrowest(a: np.ndarray) -> np.dtype:
    """The narrowest unsigned dtype that holds the largest of the integers ``a``; ``uint8`` if it holds no integer."""
    top = int(a.max(initial=0)) if a.dtype.kind in "iu" else 0
    return np.min_scalar_type(max(top, 0))


def _narrow(a: np.ndarray) -> np.ndarray:
    """The non-negative integers ``a`` in the narrowest unsigned dtype that holds them."""
    return a.astype(_narrowest(a))


def _index_dtype(size: int) -> np.dtype:
    """The narrowest unsigned dtype that addresses a table of ``size`` entries."""
    return np.min_scalar_type(max(size - 1, 0))


def _tabled(columns: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The distinct values of the ``float64`` ``columns`` ascending by bit pattern, then each column as indexes into
    that table, in the narrowest unsigned dtype that addresses it."""
    bits, inverse = np.unique(np.concatenate(columns).view(np.uint64), return_inverse=True)
    inverse = inverse.astype(_index_dtype(bits.size))
    return bits.view(np.float64), *np.split(inverse, np.cumsum([c.size for c in columns[:-1]]))


def _untabled(table: np.ndarray, indexes: np.ndarray, name: str) -> np.ndarray:
    """The ``float64`` values that member ``name``'s ``indexes`` address in ``table``.

    Indexes of another dtype than the narrowest that addresses the table, or
    past its end, raise ContainerError.
    """
    want = _index_dtype(table.size)
    if indexes.dtype != want:
        raise ContainerError(f"array {name} has dtype {indexes.dtype}, expected {want}")
    if indexes.size and int(indexes.max()) >= table.size:
        raise ContainerError(f"array {name} holds an index past the table of {table.size} probabilities")
    return table[indexes]


def _digests(manifest: dict, members: dict[str, str]) -> dict[str, str]:
    """The members' SHA-256 plus one over every manifest field but the digests."""
    fields = {k: v for k, v in manifest.items() if k != "digests"}
    return {**members, "manifest": _sha256(json.dumps(fields, sort_keys=True).encode())}


# what zipfile raises for a damaged archive besides BadZipFile: a member cut short or placed past the end of
# the file, stored bytes read as deflated ones, and flag bits, methods or versions it does not read (an
# encrypted member raises RuntimeError)
_DAMAGED_ZIP = (zipfile.BadZipFile, EOFError, OSError, zlib.error, NotImplementedError, RuntimeError)


def load_container(path: str) -> IndexContainer:
    """Reopen a saved index; a file that is not a sound container raises ContainerError, one that cannot open OSError."""
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                manifest = _manifest(zf.read("manifest.json"))
                source = zf.read("source.ust")
                members, arrays = {"source.ust": _sha256(source)}, {}
                for name in zf.namelist():
                    if name.endswith(".npy"):
                        # one member's bytes at a time, so a load holds no second copy of the arrays
                        data = zf.read(name)
                        members[name] = _sha256(data)
                        arrays[name[: -len(".npy")]] = _read_array(name, data)
            return _assemble(manifest, arrays, source.decode(), members)
        except (*_DAMAGED_ZIP, KeyError, ValueError) as exc:
            raise ContainerError(f"{path} is not a sound index container: {exc}") from exc


def container_info(path: str) -> dict:
    """What ``ustr info`` prints: the manifest but its digests, the index kind, and each member's stored bytes.

    Bytes are given as a count and per source symbol (the documents' summed
    lengths), per member and in total.  Reads only the zip directory and the
    manifest: no other member, no digest and no source.  A file that is not a
    container of this format, or whose members are not those its digests
    name, raises ContainerError; one that cannot open raises OSError.
    """
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                manifest = _manifest(zf.read("manifest.json"))
                sizes = {info.filename: info.compress_size for info in zf.infolist()}
            _, listing, _, lengths = _parameters(manifest)
            named, held = _field(manifest, "digests", dict).keys() - {"manifest"}, sizes.keys() - {"manifest.json"}
            if named != held:
                raise ContainerError(f"the members differ from those the digests name: {sorted(named ^ held)}")
        except (*_DAMAGED_ZIP, KeyError, ValueError) as exc:
            raise ContainerError(f"{path} is not a sound index container: {exc}") from exc
    symbols = sum(lengths)

    def cost(size: int) -> dict[str, float]:
        return {"bytes": size, "bytes_per_symbol": size / symbols}

    return {
        **{k: v for k, v in manifest.items() if k != "digests"},
        "kind": "listing" if listing else "substring",
        "symbols": symbols,
        "members": {name: cost(size) for name, size in sizes.items()},
        "total": cost(sum(sizes.values())),
    }


def _read_array(name: str, data: bytes) -> np.ndarray:
    """The array of the ``.npy`` member ``name``, once its header is found to describe exactly the bytes after it.

    So a header that claims more elements than the member holds raises
    ContainerError before anything is allocated for them.
    """
    fh = io.BytesIO(data)
    version = np.lib.format.read_magic(fh)
    if version not in ((1, 0), (2, 0)):
        raise ContainerError(f"member {name} is a .npy file of version {version}, not 1.0 or 2.0")
    read_header = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
    try:
        with warnings.catch_warnings():
            # a bad escape in a header string warns as it parses (DeprecationWarning, from 3.12 SyntaxWarning);
            # raised, the parse turns it into a SyntaxError, which numpy reports as a ValueError
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", SyntaxWarning)
            shape, _, dtype = read_header(fh)
    except (SyntaxError, TypeError, tokenize.TokenError) as exc:  # numpy's checks raise ValueError, its parse these
        raise ContainerError(f"member {name} has a .npy header that does not parse: {exc!r}") from exc
    size, held = math.prod(shape) * dtype.itemsize, len(data) - fh.tell()
    if size != held:
        raise ContainerError(f"member {name} claims {size} bytes of {dtype} in shape {shape}, and holds {held}")
    return np.load(io.BytesIO(data), allow_pickle=False)


def _manifest(data: bytes) -> dict:
    """The manifest object of a container of this format version, read before any member."""
    manifest = json.loads(data)
    if not isinstance(manifest, dict):
        raise ContainerError("the container manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"unsupported container version {manifest.get('format_version')!r}")
    if set(manifest) != set(_FIELDS):
        extra, missing = sorted(manifest.keys() - set(_FIELDS)), [f for f in _FIELDS if f not in manifest]
        raise ContainerError(
            f"the manifest fields differ from a format {FORMAT_VERSION} save's: unknown {extra}, missing {missing}"
        )
    return manifest


def _check_shapes(manifest: dict, arrays: dict[str, np.ndarray], lengths: list[int], listing: bool) -> np.ndarray:
    """Every stored array has the dtype, length and contents the index layout implies.

    Runs before anything is built, so a tampered array raises ContainerError
    instead of a traceback or a silently wrong answer later.  ``lengths`` are
    the documents' lengths.  In ``arrays`` it widens the integer members other
    than ``codes`` and ``order`` to ``int32`` and puts the ``float64`` values
    of the table ``probs`` in place of the indexes ``cum`` and
    ``link_stored``.  Returns each factor's 0-based text offset and its
    separator's.
    """
    codes = arrays["codes"]
    n = codes.size
    ends = np.flatnonzero(codes == 0)
    links = not listing and manifest["epsilon"] is not None
    # integer members in the narrowest unsigned dtype that holds their largest value, factor ids in the
    # narrowest that holds the largest id; the indexes into probs are checked with the table (_untabled)
    ints = ["pos"] + (["doc_factors"] if listing else [])
    if links:
        ints += [f"link_{a}" for a in _LINK_ARRAYS if a != "stored"]
    dtypes = {"codes": _narrowest(codes), "order": _index_dtype(ends.size), "probs": np.float64}
    dtypes |= {name: _narrowest(arrays[name]) for name in ints}
    for name, dtype in dtypes.items():
        if arrays[name].dtype != dtype:
            raise ContainerError(f"array {name} has dtype {arrays[name].dtype}, expected {np.dtype(dtype)}")

    want = {"codes": n, "order": ends.size, "cum": n - ends.size, "pos": ends.size}
    if listing:
        want["doc_factors"] = len(lengths)
    elif links:
        want |= {f"link_{a}": arrays["link_origin"].size for a in _LINK_ARRAYS}
    for name, length in want.items():
        if arrays[name].shape != (length,):
            raise ContainerError(f"array {name} has shape {arrays[name].shape}, expected ({length},)")
    if arrays["probs"].ndim != 1:
        raise ContainerError(f"array probs has shape {arrays['probs'].shape}, expected one dimension")

    def bad(name: str, what: str) -> ContainerError:
        return ContainerError(f"array {name} holds {what}")

    for name in ints:
        if int(arrays[name].max(initial=0)) > np.iinfo(np.int32).max:
            raise bad(name, "a value past int32")
        arrays[name] = arrays[name].astype(np.int32)
    if int(codes.max(initial=0)) > _MAX_CODE + 1:
        raise bad("codes", "a code that no text holds")
    starts = np.concatenate(([0], ends[:-1] + 1))[: ends.size]
    if n and (codes[-1] != 0 or np.any(ends <= starts)):
        raise bad("codes", "separators that are not each the end of a nonempty factor, the last ending the text")
    probs = arrays["probs"]
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise bad("probs", "a probability outside [0, 1] or NaN")
    bits = probs.view(np.uint64)
    if np.any(bits[1:] <= bits[:-1]):
        raise bad("probs", "probabilities that do not strictly ascend by bit pattern")
    arrays["cum"] = _untabled(probs, arrays["cum"], "cum")
    counts = arrays["doc_factors"] if listing else np.array([ends.size])
    if counts.sum() != ends.size:
        raise bad("doc_factors", "factor counts that do not sum to the factors")
    doc = np.repeat(np.arange(len(lengths)), counts)
    # a factor's run must fit its document: start in [1, n_doc - run length + 1]
    first, last = arrays["pos"], np.array(lengths, dtype=np.int64)[doc] - (ends - starts) + 1
    if np.any((np.diff(first) < 0) & (np.diff(doc) == 0)):
        raise bad("pos", "factor starts that decrease within a document")
    if np.any((first < 1) | (first > last)):
        raise bad("pos", "a factor start outside its source string")
    if links:
        origin = arrays["link_origin"]
        if origin.size and (origin[0] < 1 or origin[-1] > ends.size or np.any(origin[1:] < origin[:-1])):
            raise bad("link_origin", "origins that are not non-decreasing ranks within [1, F]")
        if np.any((arrays["link_pos"] < 1) | (arrays["link_pos"] > lengths[0])):
            raise bad("link_pos", "a position outside its source string")
        if np.any(arrays["link_tdepth"] >= arrays["link_odepth"]):
            raise bad("link_tdepth", "a depth interval that is not target < origin")
        arrays["link_stored"] = _untabled(probs, arrays["link_stored"], "link_stored")
        if not np.all((arrays["link_stored"] > 0.0) & (arrays["link_stored"] <= 1.0)):
            raise bad("link_stored", "a value outside (0, 1] or NaN")
    return starts, ends


def _field(manifest: dict, name: str, *types: type):
    """``manifest[name]`` if it is of one of ``types``; a JSON boolean is none of them."""
    value = manifest[name]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ContainerError(f"manifest {name} {value!r} is of the wrong type")
    return value


def _documents(manifest: dict, listing: bool) -> tuple[list[str], list[int]]:
    """The names and lengths the ``documents`` pairs hold: each name once, each length at least 1."""
    pairs = _field(manifest, "documents", list)
    if not all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and type(p[1]) is int for p in pairs):
        raise ContainerError("manifest documents holds an entry that is not a [name, length] pair")
    names, lengths = [p[0] for p in pairs], [p[1] for p in pairs]
    if len(set(names)) != len(names):
        raise ContainerError("manifest documents names a document twice")
    if not all(n >= 1 for n in lengths):
        raise ContainerError("manifest documents holds a length below 1")
    if not listing and len(pairs) != 1:
        raise ContainerError(f"manifest metric null names a substring index of one source string, not {len(pairs)}")
    if not pairs:
        raise ContainerError("manifest documents names no document")
    return names, lengths


def _check_digests(manifest: dict, members: dict[str, str]) -> None:
    """The manifest records the digest of each member and of its other fields."""
    want = _field(manifest, "digests", dict)
    found = _digests(manifest, members)
    for name in sorted(want.keys() | found.keys()):
        if name not in want:
            raise ContainerError(f"member {name} has no digest")
        if want[name] != found.get(name):
            raise ContainerError(f"{name} does not match its digest")


def _parse_source(text: str, names: list[str], lengths: list[int]) -> list[UncertainString]:
    """The documents of a loaded index, parsed from its stored UST ``text`` on first read."""
    try:
        docs = parse_ust(text)
    except ParseError as exc:
        raise ContainerError(f"the stored source does not parse: {exc}") from exc
    if [d.name for d in docs] != names or [d.n for d in docs] != lengths:
        raise ContainerError("the stored source does not hold the documents the manifest names")
    return docs


def _parameters(manifest: dict) -> tuple[float, bool, list[str], list[int]]:
    """``tau_min``, whether the index is a listing one, and the documents' names and lengths, once the manifest's
    fields are found to be of their types and in their ranges."""
    tau_min = float(_field(manifest, "tau_min", str, int, float))
    _field(manifest, "epsilon", str, int, float, type(None))
    for name in ("tau_min", "epsilon"):
        if manifest[name] is not None and not 0.0 < float(manifest[name]) <= 1.0:
            raise ContainerError(f"manifest {name} {manifest[name]!r} is not in (0, 1]")
    listing = manifest["metric"] is not None  # a substring index has no metric
    if listing and manifest["metric"] not in METRICS:
        raise ContainerError(f"manifest metric {manifest['metric']!r} is not one of {', '.join(METRICS)}")
    if listing and manifest["epsilon"] is not None:
        raise ContainerError(f"manifest epsilon {manifest['epsilon']!r} on a listing index, which has no links")
    return (tau_min, listing, *_documents(manifest, listing))


def _assemble(manifest: dict, arrays: dict[str, np.ndarray], source: str, members: dict[str, str]) -> IndexContainer:
    """Reopen the index a manifest, its arrays and its ``source`` text describe; a missing entry raises KeyError.

    ``members`` maps each member's name to its SHA-256.
    """
    tau_min, listing, names, lengths = _parameters(manifest)
    starts, ends = _check_shapes(manifest, arrays, lengths, listing)
    # the arrays a build makes: separators -1, -2, ... in text order, and -1.0 in cum at each
    codes = arrays["codes"].astype(np.int32)
    codes -= 1
    codes[ends] = -1 - np.arange(ends.size, dtype=np.int32)
    cum = np.full(codes.size, -1.0)
    cum[codes >= 0] = arrays["cum"]
    saidx = check_factor_order(codes, starts, arrays["order"])
    _check_digests(manifest, members)
    # each factor run and its separator: positions count up from the factor's start, 0 at the separator
    width = np.diff(starts, append=codes.size)
    pos = np.repeat((starts - arrays["pos"]).astype(np.int32), width)
    np.subtract(np.arange(codes.size, dtype=np.int32), pos, out=pos)
    pos[ends] = 0
    docs = Documents(names, lengths, partial(_parse_source, source, names, lengths), text=source)
    tt = TransformedText(codes, pos, cum, tau_min, docs, arrays["doc_factors"] if listing else None)

    if listing:
        return IndexContainer(listing=ListingIndex(manifest["metric"], tt, saidx))
    links = None
    if manifest["epsilon"] is not None:
        links = LinkIndex(tt, saidx, float(manifest["epsilon"]), *(arrays[f"link_{a}"] for a in _LINK_ARRAYS))
    return IndexContainer(substring=SubstringIndex(tt, saidx), links=links)
